package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rumornet/internal/obs"
)

// Latency attribution (DESIGN.md §14): end-to-end job latency decomposes
// into three segments, each observed into
// rumor_job_latency_segment_seconds{segment} and surfaced per job on
// GET /v1/jobs/{id} so a slow request is attributable at a glance.
//
//   - queue_wait: submission accepted -> lease grant. Pure contention:
//     it grows without bound past saturation and is what the saturation
//     detector watches.
//   - execute: lease grant -> the runner's result hand-off, which folds
//     in the result's JSON marshal and, for a remote worker, the network
//     hop — the service cannot see inside the worker's wall clock
//     without trusting it.
//   - serialize: hand-off -> terminal status visible to pollers
//     (completion checks, result-blob write, terminal WAL record,
//     publish).
//
// The segments are measured from the same time.Now() samples that already
// drive StartedAt/FinishedAt/ElapsedMS, so queue_wait+execute+serialize
// spans submission->visibility exactly.

// segment label values, also the JSON field order on JobLatency.
const (
	segQueueWait = "queue_wait"
	segExecute   = "execute"
	segSerialize = "serialize"
)

// JobLatency is the per-job latency attribution on GET /v1/jobs/{id},
// populated when the job reaches a terminal status via execution (cache
// hits skip it: they have no segments to attribute).
type JobLatency struct {
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ExecuteMS   float64 `json:"execute_ms"`
	SerializeMS float64 `json:"serialize_ms"`
}

// segmentObserve records one job's segment decomposition into the
// per-segment histograms.
func (m *metrics) segmentObserve(queueWait, execute, serialize time.Duration) {
	m.segments[segQueueWait].Record(queueWait.Seconds())
	m.segments[segExecute].Record(execute.Seconds())
	m.segments[segSerialize].Record(serialize.Seconds())
}

// satWindow is the saturation detector: queue-wait samples feed a sliding
// window (two rotating HDR epochs, so the visible window spans between one
// and two rotation periods), and whenever the windowed p99 exceeds the
// configured budget the service reports saturated — a 0/1 gauge
// (rumor_saturated) plus a /readyz degraded reason, so load balancers and
// operators see queue collapse the moment the tail crosses the SLO, not
// after timeouts pile up.
type satWindow struct {
	budget float64       // queue-wait p99 budget, seconds
	epoch  time.Duration // rotation period (= half the sliding window)

	mu      sync.Mutex
	cur     *obs.HDR  // epoch being filled
	prev    *obs.HDR  // last full epoch
	win     *obs.HDR  // cur+prev, kept current so a p99 read is one scan
	rotated time.Time // when cur last became current

	saturated atomic.Bool
	flips     atomic.Int64 // healthy->saturated transitions, for tests/metrics
}

func newSatWindow(budget, window time.Duration) *satWindow {
	return &satWindow{
		budget: budget.Seconds(),
		epoch:  window / 2,
		cur:    obs.NewHDR(),
		prev:   obs.NewHDR(),
		win:    obs.NewHDR(),
	}
}

// observe records one queue-wait sample and re-evaluates saturation. now
// is passed in (not sampled here) so the caller's existing clock read is
// reused and tests can drive the rotation deterministically.
func (sw *satWindow) observe(queueWait time.Duration, now time.Time) {
	sw.mu.Lock()
	sw.rotateLocked(now)
	sw.cur.Record(queueWait.Seconds())
	sw.win.Record(queueWait.Seconds())
	p99 := sw.win.Quantile(0.99)
	sw.mu.Unlock()

	over := p99 > sw.budget
	if over && !sw.saturated.Swap(true) {
		sw.flips.Add(1)
	} else if !over {
		sw.saturated.Store(false)
	}
}

// rotateLocked ages out epochs. One epoch elapsed: cur becomes prev. Two
// or more: the whole window is stale, both epochs clear (and with them the
// saturated verdict, on the next observe).
func (sw *satWindow) rotateLocked(now time.Time) {
	if sw.rotated.IsZero() {
		sw.rotated = now
		return
	}
	elapsed := now.Sub(sw.rotated)
	if elapsed < sw.epoch {
		return
	}
	sw.win.Reset()
	if elapsed >= 2*sw.epoch {
		sw.cur.Reset()
		sw.prev.Reset()
	} else {
		sw.cur, sw.prev = sw.prev, sw.cur
		sw.cur.Reset()
		sw.win.Merge(sw.prev)
	}
	sw.rotated = now
}

// p99 reports the current windowed queue-wait p99 in seconds (0 with no
// samples in the window). Exported at rumor_queue_wait_window_p99_seconds.
func (sw *satWindow) p99() float64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.win.Quantile(0.99)
}

// Saturated reports whether the windowed queue-wait p99 currently exceeds
// the budget.
func (sw *satWindow) Saturated() bool { return sw.saturated.Load() }

// reason renders the /readyz degraded detail for a saturated window.
func (sw *satWindow) reason() string {
	return fmt.Sprintf("saturated: queue-wait p99 %.0fms over the last %s exceeds the %.0fms budget",
		sw.p99()*1e3, 2*sw.epoch, sw.budget*1e3)
}
