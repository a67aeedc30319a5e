// Package service implements rumord's simulation-as-a-service layer: a
// scenario registry, a bounded asynchronous job queue leased to in-process
// or remote workers, a content-addressed LRU result cache, per-job
// timeouts with context cancellation threaded into the solvers
// (internal/core, internal/control, internal/abm), and operational
// introspection (health/readiness/stats). See DESIGN.md §7.
//
// The package is HTTP-agnostic at its core — Submit/Job/Cancel/Drain are
// plain methods — with the JSON API bolted on in handlers.go, so the same
// engine can back other transports later.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rumornet/internal/cluster"
	"rumornet/internal/degreedist"
	"rumornet/internal/digg"
	"rumornet/internal/obs"
	"rumornet/internal/obs/invariant"
	"rumornet/internal/obs/journal"
	"rumornet/internal/obs/trace"
	"rumornet/internal/par"
	"rumornet/internal/store"
)

// Sentinel errors mapped to HTTP statuses by handlers.go.
var (
	// ErrBadRequest marks malformed or out-of-range client input (400).
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound marks an unknown job or scenario id (404).
	ErrNotFound = errors.New("not found")
	// ErrQueueFull is returned when the bounded queue rejects a
	// submission (503): back off and retry.
	ErrQueueFull = errors.New("job queue full")
	// ErrSaturated is returned for batch submissions while the queue-wait
	// saturation detector reports saturated (503): under overload the
	// service sheds throughput work first so interactive latency recovers.
	ErrSaturated = errors.New("saturated: batch admission suspended")
	// ErrDraining is returned for submissions after drain began (503).
	ErrDraining = errors.New("service draining")
	// errDuplicate marks a scenario-name collision (409).
	errDuplicate = errors.New("duplicate")
)

func defaultWorkers() int { return par.Default(0) }

// jobRecord is the service-internal state of a job; every field is guarded
// by Service.mu except the immutable req/sc/key/timeout set at submission.
type jobRecord struct {
	job     Job
	req     Request
	sc      *Scenario
	key     string
	seq     uint64
	timeout time.Duration

	// cancel is the running lease's cancel hook: it stops an in-process
	// job's context, or raises a remote lease's cancel flag.
	cancel        func()
	userCancelled bool
	// logged records that the WAL holds the job's submitted record, so
	// settle owes it a finished record. Set before the job is visible.
	logged bool

	// attempts counts lease grants; once it reaches Cluster.MaxAttempts
	// begin grants no more and the reaper fails an expired lease
	// terminally. Recovery restores it from the WAL.
	attempts int

	// prog is the latest solver checkpoint, written by the executing
	// worker's progress sink and read by snapshots without taking
	// Service.mu: stored values are immutable once published.
	prog atomic.Pointer[JobProgress]

	// span is the job's trace span, opened at submission (as a child of
	// the submitting HTTP request when one carried a traceparent) and
	// ended when the job reaches a terminal status.
	span *trace.Span
	// monitor evaluates the numerical invariants against this job's
	// progress stream; violations land in the journal, the metrics and
	// the log exactly once per check.
	monitor *invariant.Monitor
	// sink is the progress sink begin wired for this attempt: the
	// runner's events reach it directly in process and through heartbeats
	// from a remote node. It opens the attempt's stage spans, which settle
	// or a requeue ends.
	sink   eventSink
	stages *stageSpans
}

// Service is the resident simulation engine behind cmd/rumord.
type Service struct {
	cfg       Config
	scenarios *registry
	cache     *resultCache
	met       *metrics
	tracer    *trace.Tracer
	journal   *journal.Journal
	// store is the durable WAL + result store (nil without Config.StoreDir).
	// Set once in New before the workers start, never mutated after.
	store *store.Store
	// reader is the read-only persistence seam the serving paths use
	// (cache-miss disk reads, surface artifacts): Config.StoreReader when
	// injected, else the store itself, else nil. Set once in New.
	reader store.Reader
	// surf is the response-surface registry (surface.go); always non-nil.
	surf *surfaceManager
	// surfWG tracks surface-construction goroutines; Close waits for them
	// after the workers exit so no build touches a closed store.
	surfWG sync.WaitGroup
	// sat is the queue-wait saturation detector (latency.go); nil when
	// Config.SaturationBudget disabled it. Set once in New.
	sat *satWindow
	// table is the lease table + worker registry every job executes
	// through. Set once in New, never mutated after. Lock order: Service.mu
	// before table's internal mutex, and the table never calls back into
	// the service.
	table *cluster.Table

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	// reaperWG tracks the lease reaper separately from the workers: Drain
	// waits on wg only (the reaper must keep running while remote workers
	// drain their leases); Close waits on both.
	reaperWG sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*jobRecord
	order   []string            // submission order, for bounded retention
	keyJobs map[string][]string // cache key -> jobs whose journal it retains
	seq     uint64
	// queues is one bounded channel per admission class, indexed by
	// classIndex (0 = interactive, 1 = batch). Every lease drains
	// interactive first — a queued batch sweep never delays a queued
	// interactive job by more than the job already executing.
	queues   [2]chan *jobRecord
	draining bool

	reqSeq atomic.Uint64 // request-id generator for the HTTP middleware

	// telMu guards the per-worker registry snapshots relayed on heartbeats
	// and result uploads; /metrics re-exports them as rumor_worker_* series
	// and rumor_fleet_* aggregates. Separate from mu: a scrape must not
	// contend with the job table.
	telMu       sync.Mutex
	workerSnaps map[string]obs.Snapshot
}

// New builds a Service, registers the built-in Digg2009 scenario, and
// starts the worker pool. Call Drain (graceful) or Close (immediate) to
// shut it down.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:       cfg,
		scenarios: newRegistry(),
		cache:     newResultCache(cfg.CacheEntries),
		met:       newMetrics(),
		tracer:    trace.New(cfg.TraceSpans),
		journal:   journal.New(cfg.JournalEntries, cfg.JournalSink),
		jobs:      make(map[string]*jobRecord),
		keyJobs:   make(map[string][]string),
		queues: [2]chan *jobRecord{
			make(chan *jobRecord, cfg.QueueDepth),
			make(chan *jobRecord, cfg.QueueDepth),
		},
		surf:  newSurfaceManager(),
		table: cluster.New(cfg.Cluster.LeaseTTL, cfg.Cluster.WorkerLiveness, nil),
	}
	if cfg.SaturationBudget > 0 {
		s.sat = newSatWindow(cfg.SaturationBudget, cfg.SaturationWindow)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	// The store opens before registerDerived (its gauges close over s.store)
	// and before the workers start (recovery re-enqueues ahead of any
	// live submission).
	if cfg.StoreDir != "" {
		opts := cfg.StoreOptions
		if opts.Logger == nil {
			opts.Logger = cfg.Logger
		}
		opts.Hooks = store.Hooks{
			OnAppend: func(d time.Duration) { s.met.walAppend.Record(d.Seconds()) },
			OnFsync:  func(d time.Duration) { s.met.walFsync.Record(d.Seconds()) },
		}
		st, err := store.Open(cfg.StoreDir, opts)
		if err != nil {
			return nil, fmt.Errorf("service: open store: %w", err)
		}
		s.store = st
	}
	// The serving paths read through the seam: an injected Reader wins (a
	// shared or remote tier, or a test double), else the local store backs
	// it, else reads are simply skipped.
	s.reader = cfg.StoreReader
	if s.reader == nil && s.store != nil {
		s.reader = s.store
	}
	fail := func(err error) (*Service, error) {
		if s.store != nil {
			s.store.Close()
		}
		return nil, err
	}
	s.met.registerDerived(s)

	// The built-in scenario is the expensive one (a 71k-user synthetic
	// network); building it once here is exactly the amortization the
	// one-shot CLIs cannot offer.
	dist, err := digg.Dist(rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return fail(fmt.Errorf("service: built-in scenario: %w", err))
	}
	if _, err := s.scenarios.register(BuiltinScenario, "builtin", dist); err != nil {
		return fail(err)
	}
	if s.store != nil {
		s.recoverFromStore()
	}
	if s.reader != nil {
		s.reloadSurfaces()
	}

	// The reaper recycles leases their owners stopped renewing. In-process
	// workers share the service's life, so they always count as live.
	s.reaperWG.Add(1)
	go s.reaper(cfg.Cluster.ReapInterval)
	if !cfg.Cluster.Enabled {
		for i := 1; i <= cfg.Workers; i++ {
			id := fmt.Sprintf("local-%d", i)
			s.table.Resident(id)
			s.wg.Add(1)
			go s.localWorker(id)
		}
	}
	cfg.Logger.Info("service started",
		"workers", cfg.Workers, "cluster", cfg.Cluster.Enabled,
		"inner_workers", cfg.InnerWorkers,
		"queue_depth", cfg.QueueDepth, "cache_entries", cfg.CacheEntries,
		"store_dir", cfg.StoreDir)
	return s, nil
}

// snapshot copies the API view of a record, attaching the latest progress
// checkpoint. Callers hold s.mu for the job copy; the progress pointer is
// read atomically and its target is immutable.
func (r *jobRecord) snapshot() Job {
	job := r.job
	if p := r.prog.Load(); p != nil {
		job.Progress = p
	}
	return job
}

// RegisterScenario adds an uploaded degree table under the given name and,
// when a durable store is configured, persists the table in the WAL — so a
// coordinator restart re-registers it and recovered jobs that reference it
// no longer fail with "unknown scenario".
func (s *Service) RegisterScenario(name string, degrees []int, probs []float64) (*Scenario, error) {
	d, err := degreedist.New(degrees, probs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sc, err := s.scenarios.register(name, "uploaded", d)
	if err != nil {
		return nil, err
	}
	s.walScenario(name, "uploaded", degrees, probs)
	return sc, nil
}

// Scenario returns a registered scenario by name.
func (s *Service) Scenario(name string) (*Scenario, error) {
	sc, ok := s.scenarios.get(name)
	if !ok {
		return nil, fmt.Errorf("%w: scenario %q", ErrNotFound, name)
	}
	return sc, nil
}

// Scenarios lists registered scenarios sorted by name.
func (s *Service) Scenarios() []*Scenario { return s.scenarios.list() }

// Submit validates and enqueues a job, returning its initial snapshot. A
// result-cache hit completes the job synchronously (Status ==
// StatusSucceeded, CacheHit == true) without consuming a queue slot.
func (s *Service) Submit(req Request) (Job, error) {
	return s.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with trace propagation: when ctx carries a span
// context (the HTTP middleware puts the request span there, itself a child
// of the client's traceparent when one was sent), the job's span — and so
// every journal entry and log line the job emits — joins that trace.
func (s *Service) SubmitCtx(ctx context.Context, req Request) (Job, error) {
	req, sc, key, timeout, err := s.resolveRequest(req)
	if err != nil {
		return Job{}, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.reject()
		s.cfg.Logger.Warn("job rejected", "reason", "draining", "type", req.Type)
		return Job{}, ErrDraining
	}
	s.seq++
	now := time.Now()
	span := s.tracer.StartSpan("job."+string(req.Type),
		trace.SpanContextFromContext(ctx),
		obs.L("scenario", req.Scenario))
	r := &jobRecord{
		job: Job{
			ID:          fmt.Sprintf("j-%06d", s.seq),
			Type:        req.Type,
			Scenario:    req.Scenario,
			Status:      StatusQueued,
			Class:       req.Class,
			TraceID:     span.Context().TraceID.String(),
			SubmittedAt: now,
		},
		req:     req,
		sc:      sc,
		key:     key,
		seq:     s.seq,
		timeout: timeout,
		span:    span,
	}
	span.SetAttr("job_id", r.job.ID)

	// A memory miss may still be on disk: a result persisted by an earlier
	// process life, or evicted by the LRU bound since. The read goes through
	// the Reader seam, and settle repopulates the memory cache, so one
	// submission pays the I/O.
	raw, hit := s.cache.get(key)
	source := "memory"
	if !hit && s.reader != nil {
		var blob []byte
		if blob, hit = s.reader.GetResult(key); hit {
			raw, source = json.RawMessage(blob), "disk"
		}
	}
	if hit {
		// Completed synchronously: no queue slot, no execution.
		s.mu.Unlock()
		s.met.submit()
		s.met.cacheHit()
		if source == "disk" {
			s.met.diskHits.Inc()
		}
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindLifecycle, Msg: "submitted",
		})
		return s.settle(r, outcome{status: StatusSucceeded, result: raw, hit: source}), nil
	}
	defer s.mu.Unlock()

	// Saturation sheds batch work first: an overloaded queue recovers by
	// refusing sweeps, not interactive submissions. Checked after the cache
	// — a hit costs no queue slot, so shedding it would only waste work.
	if req.Class == ClassBatch && s.sat != nil && s.sat.Saturated() {
		span.End()
		s.met.reject()
		s.met.shed.Inc()
		s.cfg.Logger.Warn("job rejected", "reason", "saturated", "class", req.Class, "type", req.Type)
		return Job{}, ErrSaturated
	}

	select {
	case s.queues[classIndex(req.Class)] <- r:
		s.met.submit()
		s.met.cacheMiss()
		s.insertLocked(r)
		s.walSubmitted(r)
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindLifecycle, Msg: "queued",
		})
		s.cfg.Logger.Info("job queued",
			"job_id", r.job.ID, "type", r.job.Type, "scenario", r.job.Scenario,
			"class", r.req.Class, "timeout", timeout.String(), "trace_id", r.job.TraceID)
		return r.job, nil
	default:
		span.End()
		s.met.reject()
		s.cfg.Logger.Warn("job rejected", "reason", "queue full", "type", req.Type)
		return Job{}, ErrQueueFull
	}
}

// resolveRequest validates a request, resolves its scenario, canonicalizes
// the parameters, and derives the timeout and cache key. Shared by
// SubmitCtx and startup recovery so a recovered request passes exactly the
// submission-time checks.
func (s *Service) resolveRequest(req Request) (Request, *Scenario, string, time.Duration, error) {
	if !validJobType(req.Type) {
		return req, nil, "", 0, fmt.Errorf("%w: unknown job type %q (want ode, threshold, abm or fbsm)", ErrBadRequest, req.Type)
	}
	if req.Scenario == "" {
		req.Scenario = BuiltinScenario
	}
	sc, ok := s.scenarios.get(req.Scenario)
	if !ok {
		return req, nil, "", 0, fmt.Errorf("%w: unknown scenario %q", ErrBadRequest, req.Scenario)
	}
	if !validClass(req.Class) {
		return req, nil, "", 0, fmt.Errorf("%w: unknown class %q (want interactive or batch)", ErrBadRequest, req.Class)
	}
	req.Class = req.Class.withDefault()
	req.Params = req.Params.WithDefaults(req.Type)
	if err := req.Params.Validate(req.Type); err != nil {
		return req, nil, "", 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.TimeoutSec < 0 {
		return req, nil, "", 0, fmt.Errorf("%w: timeout_sec = %g must be non-negative", ErrBadRequest, req.TimeoutSec)
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	key := cacheKey(req.Type, sc.Fingerprint, req.Params)
	return req, sc, key, timeout, nil
}

// insertLocked records the job and evicts the oldest finished jobs beyond
// the retention bound, releasing the evicted jobs' journal entries with
// them. Callers hold s.mu.
func (s *Service) insertLocked(r *jobRecord) {
	s.jobs[r.job.ID] = r
	s.order = append(s.order, r.job.ID)
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			if rec, ok := s.jobs[id]; ok && rec.job.Status.Terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				s.journal.Remove(id)
				s.dropKeyJobLocked(rec.key, id)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live; let the map exceed the soft bound
		}
	}
}

// dropKeyJobLocked removes one job from the cache-key back-reference list.
// Callers hold s.mu.
func (s *Service) dropKeyJobLocked(key, id string) {
	ids := s.keyJobs[key]
	for i, jid := range ids {
		if jid == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(s.keyJobs, key)
	} else {
		s.keyJobs[key] = ids
	}
}

// trimEvicted releases the journal entries of every job whose cached
// result was just evicted — the hardening contract: once a result is no
// longer resident, neither is its event history. Callers hold s.mu.
func (s *Service) trimEvictedLocked(keys []string) {
	for _, k := range keys {
		for _, id := range s.keyJobs[k] {
			s.journal.Remove(id)
		}
		delete(s.keyJobs, k)
	}
}

// Job returns a snapshot of the job with the given id.
func (s *Service) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return r.snapshot(), true
}

// Jobs returns snapshots of all retained jobs in submission order.
func (s *Service) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, id := range s.order {
		if r, ok := s.jobs[id]; ok {
			out = append(out, r.snapshot())
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// JobIndex returns up to limit retained jobs, newest submission first,
// optionally filtered by status (""), plus the total number of retained
// jobs matching the filter — the bounded GET /v1/jobs view: a daemon that
// has retained thousands of jobs answers in one small page.
func (s *Service) JobIndex(limit int, status Status) ([]Job, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := limit
	if n > len(s.order) {
		n = len(s.order)
	}
	out := make([]Job, 0, n)
	total := 0
	for i := len(s.order) - 1; i >= 0; i-- {
		r, ok := s.jobs[s.order[i]]
		if !ok || (status != "" && r.job.Status != status) {
			continue
		}
		total++
		if len(out) < limit {
			out = append(out, r.snapshot())
		}
	}
	return out, total
}

// Cancel stops a job: queued jobs finish immediately as cancelled, running
// jobs have their context cancelled and settle asynchronously. Cancelling
// a finished (or already cancelled) job is a no-op returning its snapshot.
func (s *Service) Cancel(id string) (Job, error) {
	s.mu.Lock()
	r, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	job := r.snapshot()
	if job.Status.Terminal() || r.userCancelled {
		s.mu.Unlock()
		return job, nil
	}
	// The flag also makes begin skip a queued job, so the settle below has
	// no competitor.
	r.userCancelled = true
	cancel := r.cancel
	s.mu.Unlock()
	if job.Status == StatusQueued {
		return s.settle(r, outcome{status: StatusCancelled, err: "cancelled before start"}), nil
	}
	if cancel != nil {
		cancel()
	}
	s.cfg.Logger.Info("job cancellation requested", "job_id", id)
	return job, nil
}

// Stats returns a consistent snapshot of the operational counters.
func (s *Service) Stats() Stats {
	st := Stats{
		QueueCapacity: s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
	}
	s.mu.Lock()
	st.QueueInteractive = len(s.queues[0])
	st.QueueBatch = len(s.queues[1])
	st.QueueDepth = st.QueueInteractive + st.QueueBatch
	st.Draining = s.draining
	s.mu.Unlock()
	st.Cache.Entries = s.cache.len()
	st.Cache.Capacity = s.cfg.CacheEntries
	s.met.snapshot(&st)
	if s.store != nil {
		st.Store = &StoreStats{
			Stats:           s.store.Snapshot(),
			RecoveredJobs:   s.met.recoveredJobs.Value(),
			ResultHits:      s.met.diskHits.Value(),
			WALErrors:       s.met.walErrors.Value(),
			ScenarioReplays: s.met.scenarioReplays.Value(),
		}
	}
	st.Cluster = &ClusterStats{
		Workers:          s.table.LiveWorkers(),
		LeasesActive:     s.table.Active(),
		LeaseExpirations: s.met.leaseExpirations.Value(),
		Requeues:         s.met.requeues.Value(),
	}
	st.Surface = s.surfaceStats()
	return st
}

// queueLen is the total buffered depth across both admission classes.
func (s *Service) queueLen() int { return len(s.queues[0]) + len(s.queues[1]) }

// Ready reports whether the service accepts new submissions.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// Drain stops accepting submissions, lets queued and running jobs finish,
// and returns once the in-process workers exit and every lease is
// released (or ctx expires, in which case the remaining jobs keep running
// and Close should follow).
func (s *Service) Drain(ctx context.Context) error {
	s.cfg.Logger.Info("drain started")
	s.stopIntake()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// Closing the queue did not stop remote leasing: a buffered
		// receive on a closed channel still yields the remaining jobs, so
		// remote workers keep claiming until the buffer is dry, and
		// in-flight uploads keep landing. Poll both down to zero.
		for s.queueLen() > 0 || s.table.Active() > 0 {
			select {
			case <-ctx.Done():
				return // leave done open; the outer select reports the interrupt
			case <-time.After(20 * time.Millisecond):
			}
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// Close shuts down immediately: intake stops, running jobs are cancelled,
// and Close blocks until the workers exit. Shutdown-cancelled jobs get no
// terminal WAL record on purpose: a restart over the same data directory
// re-enqueues them (see recoverFromStore). The store closes last so every
// worker's appends land.
func (s *Service) Close() {
	s.stopIntake()
	s.baseCancel()
	s.wg.Wait()
	s.reaperWG.Wait() // the reaper appends to the WAL; stop it before the store closes
	s.surfWG.Wait()   // surface builds persist artifacts; stop them before the store closes
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.cfg.Logger.Warn("store close failed", "error", err.Error())
		}
	}
}

func (s *Service) stopIntake() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		close(s.queues[0]) // workers drain the buffered jobs then exit
		close(s.queues[1])
	}
}

// dequeue claims the next queued job, interactive first: buffered
// interactive work always overtakes buffered batch work. It blocks until a
// job arrives and returns ok == false once both queues are closed and dry
// or ctx ends — under an ended ctx it takes only what is already buffered.
func (s *Service) dequeue(ctx context.Context) (*jobRecord, bool) {
	qs := s.queues // a closed-and-dry class drops out as nil: a nil channel never fires
	for {
		for i, q := range qs {
			select {
			case r, ok := <-q:
				if ok {
					return r, true
				}
				qs[i] = nil
			default:
			}
		}
		if qs[0] == nil && qs[1] == nil {
			return nil, false
		}
		select {
		case r, ok := <-qs[0]:
			if ok {
				return r, true
			}
			qs[0] = nil
		case r, ok := <-qs[1]:
			if ok {
				return r, true
			}
			qs[1] = nil
		case <-ctx.Done():
			return nil, false
		}
	}
}

// eventSink receives one job attempt's progress events, each with the
// time it happened.
type eventSink func(ev obs.Event, at time.Time)

// progressSink adapts one attempt's solver progress events onto the job
// record (for GET /v1/jobs/{id}), the stage spans, the flight-recorder
// journal (replayed and streamed by GET /v1/jobs/{id}/events), the
// invariant monitor, the metrics registry, and — every
// ProgressLogEvery-th event — the structured log. Every path feeds it: an
// in-process runner directly, a remote one through relayEvents. Solvers
// may call it from worker goroutines; everything it touches is atomic or
// internally locked.
func (s *Service) progressSink(r *jobRecord, stages *stageSpans, monitor *invariant.Monitor, lg *slog.Logger) eventSink {
	var n atomic.Int64
	every := int64(s.cfg.ProgressLogEvery)
	return func(ev obs.Event, at time.Time) {
		jp := &JobProgress{
			Stage:     ev.Stage,
			Step:      ev.Step,
			Total:     ev.Total,
			T:         ev.T,
			Value:     ev.Value,
			Cost:      ev.Cost,
			Grid:      ev.Grid,
			UpdatedAt: time.Now(),
		}
		r.prog.Store(jp)
		stages.open(ev.Stage, at)
		// Monitor first: a violation's journal entry then precedes the
		// checkpoint that triggered it in the replay, reading causally.
		monitor.Observe(ev)
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindProgress, Stage: ev.Stage,
			Step: ev.Step, Total: ev.Total, T: ev.T, Value: ev.Value,
			Cost: ev.Cost, Grid: ev.Grid,
		})
		if ev.Stage == obs.StageABM && ev.Elapsed > 0 {
			s.met.abmStep.Record(ev.Elapsed.Seconds())
		}
		if every > 0 && n.Add(1)%every == 0 {
			lg.Debug("job progress", "stage", ev.Stage, "step", ev.Step,
				"total", ev.Total, "grid", ev.Grid, "t", ev.T, "value", ev.Value, "cost", ev.Cost)
		}
	}
}

// stageSpans are the stage.<name> spans of one job attempt, parented under
// the job span: the sink opens one on the first event of each known
// obs.Stage* name, at that event's time, and settle or a requeue ends
// them. An ended set opens no more, so a late event of an abandoned
// attempt leaves no span open.
type stageSpans struct {
	tracer *trace.Tracer
	parent trace.SpanContext
	worker string
	jobID  string

	mu    sync.Mutex
	spans map[string]*trace.Span // nil once ended
}

// knownStages are the stage names that open a span; a remote worker cannot
// open any other.
var knownStages = map[string]bool{
	obs.StageODE: true, obs.StageFBSM: true, obs.StageFBSMForward: true,
	obs.StageFBSMBackward: true, obs.StageABM: true, obs.StageABMTrials: true,
}

func (st *stageSpans) open(stage string, at time.Time) {
	if !knownStages[stage] {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.spans == nil || st.spans[stage] != nil {
		return
	}
	st.spans[stage] = st.tracer.StartSpanAt("stage."+stage, st.parent, at,
		obs.L("worker", st.worker), obs.L("job_id", st.jobID))
}

// end ends the open spans with status; a nil or ended set is a no-op.
func (st *stageSpans) end(status string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sp := range st.spans {
		sp.SetAttr("status", status)
		sp.End()
	}
	st.spans = nil
}
