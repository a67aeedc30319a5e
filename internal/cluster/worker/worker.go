// Package worker implements the rumord worker node: a stateless loop that
// leases jobs from a coordinator (internal/service's internal API), runs
// them through the same executor standalone mode uses, streams progress
// back on heartbeats, and uploads the terminal result. Workers hold no
// durable state — the coordinator owns the queue, the WAL and the result
// store — so killing one loses at most the work of its current lease, which
// the coordinator's reaper requeues after the lease TTL.
//
// Each node is also a telemetry source (DESIGN.md §13): it keeps its own
// metric registry (solver histograms, job counters, Go runtime gauges),
// times per-stage trace spans parented under the coordinator's job span,
// and journals worker-local lifecycle events — all piggybacked on the
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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rumornet/internal/cluster"
	"rumornet/internal/obs"
	"rumornet/internal/obs/invariant"
	"rumornet/internal/obs/journal"
	"rumornet/internal/obs/trace"
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
	// Addr is an optional advertised address recorded in the registry.
	Addr string
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
	// Client is the HTTP client (default: 30s-timeout client).
	Client *http.Client
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
	if o.InnerWorkers < 1 {
		o.InnerWorkers = 1
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
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
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
// a ring anyway), so beyond the cap the oldest buffered events are dropped
// and counted.
const eventBufferCap = 512

// jobSpanRingCap bounds the per-job span ring. A job finishes a handful of
// stage spans; the headroom absorbs pathological stage churn without the
// incremental-upload cursor ever seeing an overwrite.
const jobSpanRingCap = 64

// snapshotEvery throttles the registry-snapshot relay. The snapshot is by
// far the largest telemetry payload (every family, marshaled worker-side
// and re-decoded by the coordinator), and it carries absolute values — so
// resending an unchanged-for-milliseconds copy on every 2ms heartbeat buys
// no freshness a Prometheus scrape could observe. At most one snapshot per
// window rides whichever send fires first (heartbeat, result upload, or
// lease poll — the poll is what lets a worker that just went idle flush
// its final counters). The fixed-size health sample is exempt: it rides
// every heartbeat and result, so /v1/workers stays live.
const snapshotEvery = 250 * time.Millisecond

// node is the per-process telemetry state shared by every job the worker
// runs: the metric registry relayed in snapshots, the counters behind the
// health sample, and the cached MemStats read (heartbeats can tick every
// few milliseconds in tests; ReadMemStats must not run per tick).
type node struct {
	opts    Options
	reg     *obs.Registry
	started time.Time

	jobsExecuted *obs.Counter
	abmStep      *obs.HDR
	invariants   map[string]*obs.Counter
	invCount     atomic.Int64
	lastStage    atomic.Value // string

	memMu sync.Mutex
	memAt time.Time
	mem   runtime.MemStats

	snapMu sync.Mutex
	snapAt time.Time
}

func newNode(opts Options) *node {
	n := &node{opts: opts, reg: opts.Registry, started: time.Now()}
	obs.RegisterRuntime(n.reg)
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

// memSample returns MemStats at most 250ms stale, mirroring the obs
// runtime-gauge sampler: co-heartbeating jobs share one stop-the-world.
func (n *node) memSample() runtime.MemStats {
	n.memMu.Lock()
	defer n.memMu.Unlock()
	if n.memAt.IsZero() || time.Since(n.memAt) > 250*time.Millisecond {
		runtime.ReadMemStats(&n.mem)
		n.memAt = time.Now()
	}
	return n.mem
}

// telemetry builds the health sample piggybacked on heartbeats and uploads.
func (n *node) telemetry() *cluster.Telemetry {
	ms := n.memSample()
	stage, _ := n.lastStage.Load().(string)
	return &cluster.Telemetry{
		Stage:               stage,
		InvariantViolations: n.invCount.Load(),
		JobsExecuted:        n.jobsExecuted.Value(),
		Goroutines:          runtime.NumGoroutine(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		HeapAllocBytes:      ms.HeapAlloc,
		GCPauseSecondsTotal: float64(ms.PauseTotalNs) / 1e9,
		UptimeSeconds:       time.Since(n.started).Seconds(),
	}
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
			n.runLeased(leased, lg)
			// Re-poll immediately: a saturated queue keeps the worker busy
			// back to back.
		}
	}
	deregister(opts)
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

// runLeased executes one leased job end to end: heartbeat loop, executor,
// result upload. The job runs under its own timeout context detached from
// the worker's run context, so a drain (SIGTERM) lets it finish.
func (n *node) runLeased(leased *service.LeasedJob, lg *slog.Logger) {
	opts := n.opts
	jlg := lg.With("job_id", leased.JobID, "trace_id", leased.TraceID)
	jlg.Info("job leased", "type", leased.Request.Type,
		"attempt", leased.Attempt, "max_attempts", leased.MaxAttempts)

	timeout := time.Duration(leased.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = time.Minute
	}
	jobCtx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	// Worker-side tracing: stage spans parented under the coordinator's
	// job span via the leased traceparent, so the coordinator's
	// http.request → job.<type> chain and these spans share one trace id.
	// The tracer is per job; finished spans upload incrementally (cursor
	// below) on heartbeats, with the tail riding the result.
	parent, _ := trace.ParseTraceparent(leased.Traceparent)
	jobTracer := trace.New(jobSpanRingCap)

	// The worker's own invariant monitor: the coordinator re-monitors the
	// relayed event stream, but the relay buffer is bounded — this count
	// (relayed in the health sample and the registry snapshot) sees every
	// event. Entries in the job journal stay the coordinator's call, so a
	// violation is journaled exactly once.
	monitor := invariant.New(invariant.Config{}, func(v invariant.Violation) {
		n.invCount.Add(1)
		if c := n.invariants[v.Check]; c != nil {
			c.Inc()
		}
		jlg.Warn("invariant violation", "check", v.Check, "detail", v.Msg,
			"stage", v.Event.Stage, "step", v.Event.Step, "t", v.Event.T)
	})

	// Progress events, worker journal entries and the span-upload cursor
	// buffer here between heartbeats; the sink runs on solver goroutines,
	// so the buffer is locked.
	var (
		mu         sync.Mutex
		events     []service.ProgressEvent
		jentries   []journal.Entry
		stageSpans map[string]*trace.Span
		sentSpans  int
		dropped    int
	)
	addEntry := func(kind, msg string) {
		e := journal.Entry{
			JobID: leased.JobID, TraceID: leased.TraceID,
			Kind: kind, Msg: msg,
		}
		mu.Lock()
		jentries = append(jentries, e)
		mu.Unlock()
	}
	sink := func(ev obs.Event) {
		n.lastStage.Store(ev.Stage)
		// Monitor outside the buffer lock: Observe only touches the
		// monitor's own latch state.
		monitor.Observe(ev)
		if ev.Stage == obs.StageABM && ev.Elapsed > 0 {
			n.abmStep.Record(ev.Elapsed.Seconds())
		}
		mu.Lock()
		if stageSpans == nil {
			stageSpans = make(map[string]*trace.Span)
		}
		if _, ok := stageSpans[ev.Stage]; !ok {
			stageSpans[ev.Stage] = jobTracer.StartSpan("stage."+ev.Stage, parent,
				obs.L("worker", opts.ID), obs.L("job_id", leased.JobID))
		}
		if len(events) >= eventBufferCap {
			events = events[1:]
			dropped++
		}
		events = append(events, service.WireProgress(ev))
		mu.Unlock()
	}
	drain := func() []service.ProgressEvent {
		mu.Lock()
		out := events
		events = nil
		mu.Unlock()
		return out
	}
	// drainRelay pops the telemetry tail: journal entries plus the spans
	// finished since the last upload (the ring never wraps at jobSpanRingCap,
	// so the cursor is a plain offset).
	drainRelay := func() ([]journal.Entry, []trace.SpanData) {
		mu.Lock()
		je := jentries
		jentries = nil
		fin := jobTracer.Finished()
		if sentSpans > len(fin) {
			sentSpans = len(fin)
		}
		spans := fin[sentSpans:]
		sentSpans = len(fin)
		mu.Unlock()
		return je, spans
	}
	endStageSpans := func(status string) {
		mu.Lock()
		for _, sp := range stageSpans {
			sp.SetAttr("status", status)
			sp.End()
		}
		stageSpans = nil
		mu.Unlock()
	}

	addEntry(journal.KindLifecycle, fmt.Sprintf(
		"executing on worker %q (attempt %d/%d)",
		opts.ID, leased.Attempt, leased.MaxAttempts))

	// The heartbeat loop extends the lease and relays buffered progress and
	// telemetry. A conflict (the coordinator reaped or re-granted the
	// lease) marks the lease lost and cancels the job: finishing it would
	// waste cycles on a result the fenced upload is going to reject anyway.
	hb := opts.Heartbeat
	if hb <= 0 {
		hb = time.Duration(leased.LeaseTTLMS) * time.Millisecond / 3
	}
	if hb <= 0 {
		hb = time.Second
	}
	var leaseLost bool
	var lostMu sync.Mutex
	stopHB := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-t.C:
			}
			je, spans := drainRelay()
			ack, status, err := heartbeat(opts, leased, service.HeartbeatRequest{
				WorkerID:   opts.ID,
				LeaseToken: leased.LeaseToken,
				Events:     drain(),
				Journal:    je,
				Spans:      spans,
				Metrics:    n.relaySnapshot(),
				Telemetry:  n.telemetry(),
			})
			switch {
			case err != nil:
				jlg.Warn("heartbeat failed", "error", err.Error())
			case status == http.StatusConflict || status == http.StatusNotFound:
				lostMu.Lock()
				leaseLost = true
				lostMu.Unlock()
				jlg.Warn("lease lost; abandoning job", "status", status)
				cancel()
				return
			case ack.Cancel:
				jlg.Info("cancellation requested by coordinator")
				cancel()
			}
		}
	}()

	start := time.Now()
	sc, err := service.ScenarioFromTable(leased.Scenario)
	var raw json.RawMessage
	if err == nil {
		raw, err = service.ExecuteRequest(jobCtx, sc, leased.Request, opts.InnerWorkers, sink)
	}
	close(stopHB)
	<-hbDone

	st, msg := service.Classify(err, timeout, errors.Is(err, context.Canceled))
	res := service.ResultRequest{
		WorkerID:   opts.ID,
		LeaseToken: leased.LeaseToken,
		Status:     string(st),
		Error:      msg,
		Result:     raw,
	}
	if dropped > 0 {
		jlg.Warn("progress events dropped by the heartbeat buffer", "dropped", dropped)
	}
	n.jobsExecuted.Inc()
	n.lastStage.Store("")
	endStageSpans(res.Status)
	addEntry(journal.KindLifecycle, fmt.Sprintf(
		"executor finished on worker %q: %s", opts.ID, res.Status))
	// Assemble the final relay after the spans closed and the finish entry
	// landed, so the result upload carries the complete worker-side tail.
	res.Events = drain()
	res.Journal, res.Spans = drainRelay()
	res.Metrics = n.relaySnapshot()
	res.Telemetry = n.telemetry()

	lostMu.Lock()
	lost := leaseLost
	lostMu.Unlock()
	if lost {
		return // the coordinator moved on; a stale upload would 409 anyway
	}
	status, err := upload(opts, leased, res)
	elapsed := time.Since(start)
	switch {
	case err != nil:
		jlg.Warn("result upload failed", "error", err.Error(),
			"elapsed_ms", float64(elapsed)/float64(time.Millisecond))
	case status == http.StatusConflict:
		jlg.Warn("result upload rejected: stale lease",
			"elapsed_ms", float64(elapsed)/float64(time.Millisecond))
	default:
		jlg.Info("job finished", "status", res.Status,
			"elapsed_ms", float64(elapsed)/float64(time.Millisecond))
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
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req := service.LeaseRequest{WorkerID: opts.ID, Addr: opts.Addr}
	if snap := n.relaySnapshot(); snap != nil {
		req.Metrics = snap
		req.Telemetry = n.telemetry()
	}
	var leased service.LeasedJob
	status, err := postJSON(ctx, opts,
		opts.Coordinator+"/v1/internal/lease", req, &leased)
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

// heartbeat extends the job's lease, shipping the buffered progress and
// telemetry relay. HTTP-level failures return err; application rejections
// return the status.
func heartbeat(opts Options, leased *service.LeasedJob, req service.HeartbeatRequest) (service.HeartbeatAck, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ack service.HeartbeatAck
	status, err := postJSON(ctx, opts,
		fmt.Sprintf("%s/v1/internal/jobs/%s/heartbeat", opts.Coordinator, leased.JobID),
		req, &ack)
	return ack, status, err
}

// upload posts the terminal result. It uses a generous detached context:
// the job is done, losing the upload to a worker shutdown would waste it.
func upload(opts Options, leased *service.LeasedJob, res service.ResultRequest) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return postJSON(ctx, opts,
		fmt.Sprintf("%s/v1/internal/jobs/%s/result", opts.Coordinator, leased.JobID),
		res, nil)
}

// deregister says goodbye on drain, best effort.
func deregister(opts Options) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	postJSON(ctx, opts,
		fmt.Sprintf("%s/v1/internal/workers/%s/deregister", opts.Coordinator, opts.ID),
		struct{}{}, nil)
}

// postJSON posts body as JSON and decodes a 2xx response into out (when
// non-nil and the response has a body). Non-2xx statuses are returned for
// the caller to interpret, not turned into errors.
func postJSON(ctx context.Context, opts Options, url string, body, out any) (int, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, fmt.Errorf("worker: marshal request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		return 0, fmt.Errorf("worker: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := opts.Client.Do(req)
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
