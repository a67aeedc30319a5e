// Package worker implements the rumord worker node: a stateless loop that
// leases jobs from a coordinator (internal/service's internal API) and runs
// each through the same service.Runner a standalone service's in-process
// workers use, over an HTTP transport that streams progress back on
// heartbeats and uploads the terminal result. Workers hold no
// durable state — the coordinator owns the queue, the WAL and the result
// store — so killing one loses at most the work of its current lease, which
// the coordinator's reaper requeues after the lease TTL.
//
// Each node is also a telemetry source (DESIGN.md §13). Per job it relays
// only the progress events, each stamped with its offset into the lease,
// from which the coordinator derives the job's journal and stage spans.
// Per node it keeps its own metric registry (solver histograms, job
// counters, Go runtime gauges, uptime), whose snapshot is also where the
// coordinator reads the node's health sample. Both relays piggyback on the
// requests it already makes (heartbeats, result uploads, and between jobs
// the lease poll), so observability costs no extra round trips and needs
// no listening port on the worker.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"rumornet/internal/obs"
	"rumornet/internal/obs/invariant"
	"rumornet/internal/service"
)

// Options parameterizes a worker node. Coordinator is required; everything
// else has a sane default.
type Options struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// ID names this worker in leases, metrics and GET /v1/workers
	// (default: "w-<hostname>-<pid>").
	ID string
	// InnerWorkers bounds each job's internal fan-out (default 1).
	InnerWorkers int
	// PollMin and PollMax bound the jittered exponential backoff between
	// lease polls of an empty queue (defaults 50ms and 2s). A grant resets
	// the backoff, and a worker that just finished a job re-polls
	// immediately.
	PollMin time.Duration
	PollMax time.Duration
	// Heartbeat is the lease-renewal cadence (default: a third of the TTL
	// the coordinator granted, per job).
	Heartbeat time.Duration
	// Logger receives the worker's structured records (nil discards).
	Logger *slog.Logger
	// Registry is the worker's metric registry (default: a fresh one).
	// rumord's worker mode passes its own so -debug-addr can expose the
	// same instruments locally that the coordinator re-exports remotely.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.ID = fmt.Sprintf("w-%s-%d", host, os.Getpid())
	}
	if o.PollMin <= 0 {
		o.PollMin = 50 * time.Millisecond
	}
	if o.PollMax < o.PollMin {
		o.PollMax = 2 * time.Second
		if o.PollMax < o.PollMin {
			o.PollMax = o.PollMin
		}
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// eventBufferCap bounds the progress events buffered between heartbeats; a
// chatty solver overwrites nothing downstream (the coordinator's journal is
// a ring anyway), so beyond the cap the oldest buffered event that does
// not open a stage is dropped and counted. Every stage the job entered
// still reaches the coordinator with its start time.
const eventBufferCap = 512

// snapshotEvery throttles the registry-snapshot relay. The snapshot is by
// far the largest telemetry payload (every family, marshaled worker-side
// and re-decoded by the coordinator), and it carries absolute values — so
// resending an unchanged-for-milliseconds copy on every 2ms heartbeat buys
// no freshness a Prometheus scrape could observe. At most one snapshot per
// window rides whichever send fires first (heartbeat, result upload, or
// lease poll — the poll is what lets a worker that just went idle flush
// its final counters).
const snapshotEvery = 250 * time.Millisecond

// node is the per-process telemetry state shared by every job the worker
// runs: the metric registry relayed in snapshots and its throttle.
type node struct {
	opts Options
	reg  *obs.Registry

	jobsExecuted *obs.Counter
	abmStep      *obs.HDR
	invariants   map[string]*obs.Counter

	snapMu sync.Mutex
	snapAt time.Time
}

func newNode(opts Options) *node {
	n := &node{opts: opts, reg: opts.Registry}
	started := time.Now()
	obs.RegisterRuntime(n.reg)
	n.reg.GaugeFunc("rumor_uptime_seconds", "Seconds since this worker started.",
		func() float64 { return time.Since(started).Seconds() })
	n.jobsExecuted = n.reg.Counter("rumor_jobs_executed_total",
		"Jobs this worker ran to a terminal status (accepted by the coordinator or not).")
	n.abmStep = n.reg.Histogram("rumor_abm_step_seconds",
		"Wall time of one ABM transition sweep on this worker.")
	n.invariants = map[string]*obs.Counter{}
	for _, check := range invariant.Checks() {
		n.invariants[check] = n.reg.Counter("rumor_invariant_violations_total",
			"Numerical invariant violations detected by this worker's per-job monitors.",
			obs.L("check", check))
	}
	return n
}

// relaySnapshot samples the relay registry, at most once per snapshotEvery
// across all send channels (nil when throttled).
// The first call ships immediately so a short-lived worker still reports;
// a send that then fails on the wire just waits out the window — snapshots
// are absolute values, so nothing is lost, only delayed.
func (n *node) relaySnapshot() obs.Snapshot {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	if !n.snapAt.IsZero() && time.Since(n.snapAt) < snapshotEvery {
		return nil
	}
	n.snapAt = time.Now()
	return n.reg.Snapshot()
}

// Run executes the worker loop until ctx is cancelled. Cancellation drains
// gracefully: the job currently leased (if any) runs to completion and its
// result is uploaded before Run deregisters and returns — a SIGTERM'd
// worker finishes what it claimed. Run only returns a non-nil error for
// unusable options.
func Run(ctx context.Context, opts Options) error {
	opts = opts.withDefaults()
	if opts.Coordinator == "" {
		return errors.New("worker: coordinator URL required")
	}
	n := newNode(opts)
	lg := opts.Logger.With("worker", opts.ID)
	lg.Info("worker started", "coordinator", opts.Coordinator)

	run := service.Runner{Worker: opts.ID, InnerWorkers: opts.InnerWorkers, Heartbeat: opts.Heartbeat}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	delay := opts.PollMin
	for ctx.Err() == nil {
		leased, err := n.lease()
		switch {
		case err != nil:
			if ctx.Err() != nil {
				break
			}
			lg.Warn("lease poll failed", "error", err.Error())
			delay = sleepBackoff(ctx, rng, delay, opts)
		case leased == nil: // empty queue
			delay = sleepBackoff(ctx, rng, delay, opts)
		default:
			delay = opts.PollMin
			rt := n.newRemote(leased, lg)
			sc, err := service.ScenarioFromTable(leased.Scenario)
			if err != nil {
				rt.Complete(service.ResultRequest{WorkerID: opts.ID, LeaseToken: leased.LeaseToken,
					Status: string(service.StatusFailed), Error: err.Error()})
				break
			}
			// The job runs detached from ctx, so a drain (SIGTERM) lets
			// it finish.
			run.Run(context.Background(), leased, sc, rt)
			// Re-poll immediately: a saturated queue keeps the worker busy
			// back to back.
		}
	}
	// Say goodbye on drain, best effort.
	postJSON(opts, 3*time.Second, "/v1/internal/workers/"+opts.ID+"/deregister", struct{}{}, nil)
	lg.Info("worker stopped")
	return nil
}

// sleepBackoff sleeps the current backoff delay (±50% jitter, interruptible
// by ctx) and returns the next delay, doubled up to PollMax.
func sleepBackoff(ctx context.Context, rng *rand.Rand, delay time.Duration, opts Options) time.Duration {
	jittered := delay/2 + time.Duration(rng.Int63n(int64(delay)+1))
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
	next := delay * 2
	if next > opts.PollMax {
		next = opts.PollMax
	}
	return next
}

// remote is one lease as the worker node holds it — the
// service.Transport its runner reports through. Progress events buffer
// here between heartbeats and ride the next heartbeat or the result
// upload; the buffer is locked because the runner's sink is called from
// solver goroutines.
type remote struct {
	n       *node
	leased  *service.LeasedJob
	lg      *slog.Logger
	monitor *invariant.Monitor
	start   time.Time

	mu      sync.Mutex
	events  []bufferedEvent
	stages  map[string]bool // stages whose first event was buffered
	dropped int
	// lost needs no lock: the runner calls Complete only after its last
	// Heartbeat returned.
	lost bool
}

// bufferedEvent is a relayed event and whether it is its stage's first,
// which the buffer never drops.
type bufferedEvent struct {
	ev    service.RelayedEvent
	opens bool
}

func (n *node) newRemote(leased *service.LeasedJob, lg *slog.Logger) *remote {
	jlg := lg.With("job_id", leased.JobID, "trace_id", leased.TraceID)
	jlg.Info("job leased", "type", leased.Request.Type,
		"attempt", leased.Attempt, "max_attempts", leased.MaxAttempts)
	rt := &remote{n: n, leased: leased, lg: jlg, start: time.Now(), stages: map[string]bool{}}
	// The worker's own invariant monitor: the coordinator re-monitors the
	// relayed event stream, but the relay buffer is bounded — this count
	// (relayed in the registry snapshot) sees every event. Entries in the
	// job journal stay the coordinator's call, so a violation is journaled
	// exactly once.
	rt.monitor = invariant.New(invariant.Config{}, func(v invariant.Violation) {
		if c := n.invariants[v.Check]; c != nil {
			c.Inc()
		}
		jlg.Warn("invariant violation", "check", v.Check, "detail", v.Msg,
			"stage", v.Event.Stage, "step", v.Event.Step, "t", v.Event.T)
	})
	return rt
}

func (rt *remote) Progress(ev obs.Event) {
	// Monitor outside the buffer lock: Observe only touches the monitor's
	// own latch state.
	rt.monitor.Observe(ev)
	if ev.Stage == obs.StageABM && ev.Elapsed > 0 {
		rt.n.abmStep.Record(ev.Elapsed.Seconds())
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.events) >= eventBufferCap {
		rt.dropOldest()
	}
	opens := !rt.stages[ev.Stage]
	rt.stages[ev.Stage] = true
	rt.events = append(rt.events, bufferedEvent{service.RelayedEvent{AtUS: time.Since(rt.start).Microseconds(), Event: ev}, opens})
}

// dropOldest drops the oldest buffered event that does not open a stage,
// or the oldest one if every event does. Drops move the stage openers to
// the front of the buffer, so the search is as short as the stage count.
func (rt *remote) dropOldest() {
	i := 0
	for i < len(rt.events) && rt.events[i].opens {
		i++
	}
	if i == len(rt.events) {
		i = 0
	}
	copy(rt.events[1:i+1], rt.events[:i])
	rt.events = rt.events[1:]
	rt.dropped++
}

// relay pops the progress events buffered since the last send.
func (rt *remote) relay() []service.RelayedEvent {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]service.RelayedEvent, len(rt.events))
	for i, b := range rt.events {
		out[i] = b.ev
	}
	rt.events = nil
	return out
}

// Heartbeat extends the lease over HTTP, shipping the buffered relay. A
// conflict (the coordinator reaped or re-granted the lease) marks the lease
// lost: finishing the job would waste cycles on a result the fenced upload
// is going to reject anyway.
func (rt *remote) Heartbeat(req service.HeartbeatRequest) (cancel, lost bool) {
	req.Events = rt.relay()
	req.Metrics = rt.n.relaySnapshot()
	var ack service.HeartbeatAck
	status, err := postJSON(rt.n.opts, 10*time.Second,
		"/v1/internal/jobs/"+rt.leased.JobID+"/heartbeat", req, &ack)
	switch {
	case err != nil:
		rt.lg.Warn("heartbeat failed", "error", err.Error())
	case status == http.StatusConflict || status == http.StatusNotFound:
		rt.lost = true
		rt.lg.Warn("lease lost; abandoning job", "status", status)
		return false, true
	case ack.Cancel:
		rt.lg.Info("cancellation requested by coordinator")
		return true, false
	}
	return false, false
}

// Complete uploads the terminal outcome with the events buffered since the
// last heartbeat.
func (rt *remote) Complete(res service.ResultRequest) {
	n := rt.n
	n.jobsExecuted.Inc()
	res.Events = rt.relay()
	res.Metrics = n.relaySnapshot()

	if rt.dropped > 0 {
		rt.lg.Warn("progress events dropped by the heartbeat buffer", "dropped", rt.dropped)
	}
	if rt.lost {
		return // the coordinator moved on; a stale upload would 409 anyway
	}
	// A generous timeout: the job is done, and losing the upload to a
	// worker shutdown would waste it.
	status, err := postJSON(n.opts, 30*time.Second,
		"/v1/internal/jobs/"+rt.leased.JobID+"/result", res, nil)
	elapsed := float64(time.Since(rt.start)) / float64(time.Millisecond)
	switch {
	case err != nil:
		rt.lg.Warn("result upload failed", "error", err.Error(), "elapsed_ms", elapsed)
	case status == http.StatusConflict:
		rt.lg.Warn("result upload rejected: stale lease", "elapsed_ms", elapsed)
	default:
		rt.lg.Info("job finished", "status", res.Status, "elapsed_ms", elapsed)
	}
}

// lease polls the coordinator for the next job: (nil, nil) when the queue
// is empty (204). When the snapshot throttle window has elapsed, the poll
// doubles as a telemetry send — the only channel a worker between leases
// has, and what keeps an idle fleet's /metrics re-export converged.
//
// The request runs on a detached context, like heartbeats and uploads: the
// instant the poll is sent, the coordinator may grant (and record) a lease,
// so a drain signal must not abort the in-flight read — the worker has to
// learn what it now holds and finish it. Run checks its own ctx between
// polls; shutdown waits at most one poll round trip.
func (n *node) lease() (*service.LeasedJob, error) {
	opts := n.opts
	req := service.LeaseRequest{WorkerID: opts.ID, Metrics: n.relaySnapshot()}
	var leased service.LeasedJob
	status, err := postJSON(opts, 15*time.Second, "/v1/internal/lease", req, &leased)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		return &leased, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("lease: unexpected status %d", status)
	}
}

// postJSON posts body as JSON to the coordinator path and decodes a 2xx
// response into out (when non-nil and the response has a body). Non-2xx
// statuses are returned for the caller to interpret, not turned into
// errors. Every request runs on a detached context bounded by timeout, so
// a drain never aborts one in flight.
func postJSON(opts Options, timeout time.Duration, path string, body, out any) (int, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, fmt.Errorf("worker: marshal request: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, opts.Coordinator+path, bytes.NewReader(blob))
	if err != nil {
		return 0, fmt.Errorf("worker: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("worker: decode response: %w", err)
		}
	}
	return resp.StatusCode, nil
}
