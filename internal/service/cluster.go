package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"rumornet/internal/cluster"
	"rumornet/internal/degreedist"
	"rumornet/internal/obs"
	"rumornet/internal/obs/journal"
)

// This file is the lease protocol (DESIGN.md §12). Every job executes
// under a lease: a grant (begin) hands it to a worker, heartbeats renew it
// and a completion (CompleteLease → settle) ends it, and the reaper
// requeues a job whose lease ran out. A standalone service's in-process
// workers make these calls directly (runner.go); with Config.Cluster.Enabled
// the service starts none and remote nodes (internal/cluster/worker) make
// them over the internal API:
//
//	POST /v1/internal/lease                  — claim the next queued job
//	POST /v1/internal/jobs/{id}/heartbeat    — extend the lease, relay progress
//	POST /v1/internal/jobs/{id}/result       — upload the terminal outcome
//	POST /v1/internal/workers/{id}/deregister — graceful goodbye on drain
//
// Every grant mints a fenced lease token; heartbeats and completions
// carrying a token that is no longer current are rejected with
// ErrStaleLease (409), so a worker presumed dead cannot corrupt a job that
// has since been requeued. A completion lands a succeeded job's blob and
// terminal WAL record before the terminal status publishes, the
// durability-before-visibility ordering extended from process crash to
// node loss.

// ErrStaleLease marks a heartbeat or result upload whose lease token is no
// longer current (409): the lease expired and the job was requeued, or the
// coordinator restarted and all tokens died with it.
var ErrStaleLease = errors.New("stale lease")

// ClusterConfig parameterizes the lease protocol. The zero value (Enabled
// == false) keeps the service standalone: Config.Workers in-process
// workers and no internal API.
type ClusterConfig struct {
	// Enabled makes the service a coordinator: it mounts the internal
	// worker API and starts no in-process workers, so jobs execute on
	// remote nodes.
	Enabled bool
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// (default 15s). Expiry requeues the job, so the TTL bounds how long a
	// dead worker delays its jobs.
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per job (default 3); a job whose
	// budget is exhausted fails terminally instead of crash-looping the
	// cluster (the poison-job guard).
	MaxAttempts int
	// WorkerLiveness is the window within which a worker must have polled
	// or heartbeated to count as live for /readyz and /v1/workers
	// (default 3x LeaseTTL).
	WorkerLiveness time.Duration
	// ReapInterval is the lease-reaper cadence (default LeaseTTL/4).
	ReapInterval time.Duration
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.WorkerLiveness <= 0 {
		c.WorkerLiveness = 3 * c.LeaseTTL
	}
	if c.ReapInterval <= 0 {
		c.ReapInterval = c.LeaseTTL / 4
		if c.ReapInterval <= 0 {
			c.ReapInterval = time.Millisecond
		}
	}
	return c
}

// ScenarioTable is the wire form of a scenario: the exact degree table,
// from which a worker rebuilds the Scenario (and the identical fingerprint,
// hence identical cache keys and bit-identical results).
type ScenarioTable struct {
	Name    string    `json:"name"`
	Source  string    `json:"source"`
	Degrees []int     `json:"degrees"`
	Probs   []float64 `json:"probs"`
}

// ScenarioFromTable rebuilds a Scenario from its wire table, bit for bit.
// Remote runners call it on every leased job; construction is microseconds
// against the solver seconds it precedes.
func ScenarioFromTable(t ScenarioTable) (*Scenario, error) {
	d, err := degreedist.FromTable(t.Degrees, t.Probs)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", t.Name, err)
	}
	return &Scenario{
		Name:        t.Name,
		Source:      t.Source,
		Groups:      d.N(),
		MinDegree:   d.MinDegree(),
		MaxDegree:   d.MaxDegree(),
		MeanDegree:  d.MeanDegree(),
		Fingerprint: fingerprintDist(d),
		dist:        d,
	}, nil
}

// scenarioTable flattens a registered scenario into its wire form.
func scenarioTable(sc *Scenario) ScenarioTable {
	d := sc.dist
	t := ScenarioTable{
		Name:    sc.Name,
		Source:  sc.Source,
		Degrees: make([]int, d.N()),
		Probs:   make([]float64, d.N()),
	}
	for i := 0; i < d.N(); i++ {
		t.Degrees[i] = d.Degree(i)
		t.Probs[i] = d.Prob(i)
	}
	return t
}

// ExecuteRequest runs one resolved request against a scenario and returns
// the marshalled result payload — the executor every Runner calls, so a
// job computes the identical bytes wherever it runs. The request must
// carry canonicalized parameters (a LeasedJob always does).
func ExecuteRequest(ctx context.Context, sc *Scenario, req Request, innerWorkers int, prog obs.Progress) (json.RawMessage, error) {
	if innerWorkers < 1 {
		innerWorkers = 1
	}
	payload, err := execute(withInnerWorkers(ctx, innerWorkers), sc, req, prog)
	if err != nil {
		return nil, err
	}
	return json.Marshal(payload)
}

// ProgressEvent is the wire form of one solver checkpoint (obs.Event),
// relayed coordinator-ward in heartbeat and result payloads — the only
// job-scoped record a lease relays. AtUS is when the checkpoint happened,
// in microseconds since the runner received the lease; the coordinator
// places it on its own clock (relayEvents).
type ProgressEvent struct {
	AtUS      int64   `json:"at_us,omitempty"`
	Stage     string  `json:"stage,omitempty"`
	Step      int     `json:"step,omitempty"`
	Total     int     `json:"total,omitempty"`
	T         float64 `json:"t,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Cost      float64 `json:"cost,omitempty"`
	ElapsedUS int64   `json:"elapsed_us,omitempty"`
	MinI      float64 `json:"min_i,omitempty"`
	MassErr   float64 `json:"mass_err,omitempty"`
	Grid      int     `json:"grid,omitempty"`
}

// WireProgress converts a solver checkpoint to its wire form; at is when
// it was emitted, counted from when the runner received the lease.
func WireProgress(ev obs.Event, at time.Duration) ProgressEvent {
	return ProgressEvent{
		AtUS:  at.Microseconds(),
		Stage: ev.Stage, Step: ev.Step, Total: ev.Total, T: ev.T,
		Value: ev.Value, Cost: ev.Cost,
		ElapsedUS: ev.Elapsed.Microseconds(),
		MinI:      ev.MinI, MassErr: ev.MassErr, Grid: ev.Grid,
	}
}

func (p ProgressEvent) toObs() obs.Event {
	return obs.Event{
		Stage: p.Stage, Step: p.Step, Total: p.Total, T: p.T,
		Value: p.Value, Cost: p.Cost,
		Elapsed: time.Duration(p.ElapsedUS) * time.Microsecond,
		MinI:    p.MinI, MassErr: p.MassErr, Grid: p.Grid,
	}
}

// LeaseRequest is the body of POST /v1/internal/lease. The optional
// telemetry relay (DESIGN.md §13) lets the poll double as a metrics send:
// workers throttle registry snapshots to one per window across channels,
// and between leases the poll is the only request a worker makes — without
// it, an idle node's final counters would never reach /metrics.
type LeaseRequest struct {
	WorkerID  string             `json:"worker_id"`
	Addr      string             `json:"addr,omitempty"`
	Metrics   obs.Snapshot       `json:"metrics,omitempty"`
	Telemetry *cluster.Telemetry `json:"telemetry,omitempty"`
}

// LeasedJob is the coordinator's answer to a successful lease: everything a
// stateless worker needs to execute the job and nothing more.
type LeasedJob struct {
	JobID    string        `json:"job_id"`
	TraceID  string        `json:"trace_id,omitempty"`
	Request  Request       `json:"request"`
	Scenario ScenarioTable `json:"scenario"`
	// TimeoutMS is the job's wall-clock budget; the worker enforces it
	// locally (the lease TTL separately bounds silence, not runtime).
	TimeoutMS int64 `json:"timeout_ms"`
	// LeaseToken fences this grant; every heartbeat and the result upload
	// must present it.
	LeaseToken  string `json:"lease_token"`
	LeaseTTLMS  int64  `json:"lease_ttl_ms"`
	Attempt     int    `json:"attempt"`
	MaxAttempts int    `json:"max_attempts"`
}

// HeartbeatRequest is the body of POST /v1/internal/jobs/{id}/heartbeat.
// Beyond the lease extension it is the telemetry relay: the job's solver
// checkpoints (Events), from which the coordinator derives the job's
// progress, journal and stage spans, and the node's registry snapshot and
// runtime-health sample all piggyback on the beat — no extra round trips,
// and a worker that can heartbeat can always report.
type HeartbeatRequest struct {
	WorkerID   string          `json:"worker_id"`
	LeaseToken string          `json:"lease_token"`
	Events     []ProgressEvent `json:"events,omitempty"`
	// Metrics is a snapshot of the worker's metric registry, re-exported by
	// the coordinator as rumor_worker_*{worker="..."} plus rumor_fleet_*
	// aggregates.
	Metrics obs.Snapshot `json:"metrics,omitempty"`
	// Telemetry is the worker's health sample for GET /v1/workers.
	Telemetry *cluster.Telemetry `json:"telemetry,omitempty"`
}

// HeartbeatAck extends the lease and carries the coordinator's cancel
// request back to the worker.
type HeartbeatAck struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	Cancel     bool  `json:"cancel,omitempty"`
}

// ResultRequest is the body of POST /v1/internal/jobs/{id}/result.
type ResultRequest struct {
	WorkerID   string `json:"worker_id"`
	LeaseToken string `json:"lease_token"`
	// Status is the terminal outcome the worker reached: succeeded, failed
	// or cancelled.
	Status string          `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Events is the tail of progress events since the last heartbeat,
	// applied before the job finalizes so the journal and the stage spans
	// are complete. Most jobs end before their first heartbeat, so for
	// them this is every event.
	Events []ProgressEvent `json:"events,omitempty"`
	// Metrics and Telemetry are the final node relay, the same piggyback
	// as HeartbeatRequest.
	Metrics   obs.Snapshot       `json:"metrics,omitempty"`
	Telemetry *cluster.Telemetry `json:"telemetry,omitempty"`
}

// ClusterStats is the lease section of /v1/stats.
type ClusterStats struct {
	// Workers counts registered workers seen within the liveness window.
	Workers      int `json:"workers"`
	LeasesActive int `json:"leases_active"`
	// LeaseExpirations counts leases reaped after their TTL passed without
	// a heartbeat; Requeues the expired jobs that re-entered the queue
	// (the difference fell to cancellation or the attempt budget).
	LeaseExpirations int64 `json:"lease_expirations"`
	Requeues         int64 `json:"requeues"`
}

// Workers snapshots the worker registry: the in-process workers of a
// standalone service, the remote nodes of a coordinator.
func (s *Service) Workers() []cluster.WorkerInfo { return s.table.Workers() }

// DegradedReasons enumerates why the service should not receive submit
// traffic, empty when healthy. A load balancer keys off the /readyz status
// code alone; the reasons are for the operator who asks *why* the instance
// dropped out — queued work with zero live workers (every accepted job
// would sit until a worker appears) and durable-store append failures
// (accepted jobs may not survive a crash) are different pages.
func (s *Service) DegradedReasons() []string {
	var reasons []string
	if qd := s.queueLen(); qd > 0 && s.table.LiveWorkers() == 0 {
		reasons = append(reasons, fmt.Sprintf("no live workers, %d jobs queued", qd))
	}
	if n := s.met.walErrors.Value(); n > 0 {
		reasons = append(reasons, fmt.Sprintf("durable store reported %d append/fsync errors", n))
	}
	if s.sat != nil && s.sat.Saturated() {
		reasons = append(reasons, s.sat.reason())
	}
	return reasons
}

// DeregisterWorker removes a worker from the registry — the drain goodbye.
// Its leases, if any remain, expire normally.
func (s *Service) DeregisterWorker(id string) {
	s.table.Deregister(id)
	s.dropWorkerTelemetry(id)
	s.cfg.Logger.Info("worker deregistered", "worker", id)
}

// LeaseNext claims the next queued job for a remote worker, interactive
// class first — the admission priority in-process workers keep too. It
// returns (nil, nil) at once when both queues are empty (or draining and
// dry) — the worker backs off and polls again.
func (s *Service) LeaseNext(workerID, addr string) (*LeasedJob, error) {
	if workerID == "" {
		return nil, fmt.Errorf("%w: worker_id required", ErrBadRequest)
	}
	s.table.Touch(workerID, addr)
	noWait, cancel := context.WithCancel(context.Background())
	cancel() // dequeue takes only what is already buffered
	for {
		r, ok := s.dequeue(noWait)
		if !ok {
			return nil, nil
		}
		id := r.job.ID
		// A remote job's cancel hook raises the lease's cancel flag, which
		// the next heartbeat acknowledgement carries to the worker.
		if lease, ok := s.begin(r, workerID, func() { s.table.RequestCancel(id) }); ok {
			lj := s.leasedJob(r, lease)
			lj.Scenario = scenarioTable(r.sc)
			return lj, nil
		}
		// The job left the queued state while buffered (cancelled, or out
		// of attempts); try the next one.
	}
}

// leasedJob describes a granted job to the runner that executes it.
func (s *Service) leasedJob(r *jobRecord, lease cluster.Lease) *LeasedJob {
	return &LeasedJob{
		JobID:       r.job.ID,
		TraceID:     r.job.TraceID,
		Request:     r.req,
		TimeoutMS:   (r.timeout + time.Millisecond - 1).Milliseconds(), // rounded up: never 0
		LeaseToken:  lease.Token,
		LeaseTTLMS:  s.table.TTL().Milliseconds(),
		Attempt:     lease.Attempt,
		MaxAttempts: s.cfg.Cluster.MaxAttempts,
	}
}

// ExtendLease validates the token, pushes the lease deadline out, relays
// the carried progress events through the job's sink — so SSE streams,
// GET /v1/jobs/{id} progress, stage spans, invariant monitoring and
// metrics all keep working for a remotely-executing job — and stores the
// piggybacked node telemetry (metrics, health sample).
func (s *Service) ExtendLease(id string, req HeartbeatRequest) (HeartbeatAck, error) {
	arrive := time.Now()
	s.mu.Lock()
	r, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return HeartbeatAck{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	lease, err := s.table.Extend(id, req.LeaseToken)
	if err != nil {
		s.mu.Unlock()
		return HeartbeatAck{}, fmt.Errorf("%w: %v", ErrStaleLease, err)
	}
	sink, started := r.sink, *r.job.StartedAt
	s.mu.Unlock()

	relayEvents(sink, started, arrive, req.Events)
	s.storeWorkerTelemetry(lease.Worker, req.Metrics, req.Telemetry)
	return HeartbeatAck{
		LeaseTTLMS: s.table.TTL().Milliseconds(),
		Cancel:     lease.Cancel,
	}, nil
}

// CompleteLease finalizes a job from its runner's hand-off. The fenced
// release comes first — a stale token cannot finish a job — and settle then
// lands a succeeded job's blob and terminal WAL record before the terminal
// status publishes. An in-process job cancelled without the client asking
// was cancelled by Close: it gets no WAL finished record, so the job
// re-runs after a restart.
func (s *Service) CompleteLease(id string, res ResultRequest) (Job, error) {
	// The hand-off closes the execute segment: the service cannot see
	// inside the runner's wall clock, so grant -> hand-off (marshalling and,
	// for a remote runner, the network hop included) is what "execute"
	// means (latency.go).
	arrive := time.Now()
	st := Status(res.Status)
	if !st.Terminal() || !validStatus(st) {
		return Job{}, fmt.Errorf("%w: status %q is not terminal (want succeeded, failed or cancelled)", ErrBadRequest, res.Status)
	}
	if st == StatusSucceeded && !json.Valid(res.Result) {
		return Job{}, fmt.Errorf("%w: succeeded upload must carry a JSON result", ErrBadRequest)
	}

	s.mu.Lock()
	r, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	lease, err := s.table.Release(id, res.LeaseToken)
	if err != nil {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %v", ErrStaleLease, err)
	}
	sink, started := r.sink, *r.job.StartedAt
	monitor := r.monitor
	byClient := r.userCancelled
	s.mu.Unlock()

	// The lease is released: the reaper can no longer requeue this job and
	// no other worker can claim it, so finalization below is single-writer.
	// The tail lands before the Final journal entry, in causal order.
	relayEvents(sink, started, arrive, res.Events)
	s.storeWorkerTelemetry(lease.Worker, res.Metrics, res.Telemetry)
	if st == StatusSucceeded && r.req.Type == JobODE {
		// Theorem 5 consistency of the finished trajectory; a violation
		// lands in the journal before the terminal entry.
		var odeRes ODEResult
		if json.Unmarshal(res.Result, &odeRes) == nil {
			monitor.CheckOutcome(odeRes.R0, odeRes.FinalI, r.req.Params.Tf, r.req.Params.Eps1, r.req.Params.Eps2)
		}
	}
	return s.settle(r, outcome{status: st, err: res.Error, result: res.Result, execEnd: arrive,
		shutdown: st == StatusCancelled && !byClient && !s.cfg.Cluster.Enabled}), nil
}

// relayEvents feeds a remote runner's events to the attempt's sink, each
// at started + at_us clamped to [started, arrive]: nothing a runner reports
// happened before the grant or after the request carrying it arrived.
// Most jobs end before their first heartbeat; without at_us their events
// would all land at the result's arrival, and their stage spans would
// have no length.
func relayEvents(sink eventSink, started, arrive time.Time, evs []ProgressEvent) {
	window := arrive.Sub(started).Microseconds()
	for _, ev := range evs {
		at := arrive
		if ev.AtUS < window {
			at = started.Add(time.Duration(max(ev.AtUS, 0)) * time.Microsecond)
		}
		sink(ev.toObs(), at)
	}
}

// reaper periodically requeues (or terminally fails) jobs whose lease
// expired. It runs for the service's whole life — draining does not stop
// it, Close does.
func (s *Service) reaper(interval time.Duration) {
	defer s.reaperWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.reapExpired()
		}
	}
}

// reapExpired pops every expired lease and settles its job: requeue under
// the attempt budget, terminal failure beyond it (or terminal cancellation
// if the user already asked). Popping the lease invalidates its token, so
// the presumed-dead worker's late heartbeat or upload bounces off
// ErrStaleLease — which also makes the reaper the job's only settler.
func (s *Service) reapExpired() {
	for _, lease := range s.table.Expired() {
		s.met.leaseExpirations.Inc()
		r, st, reason := s.reap(lease)
		if r == nil {
			s.met.running.Dec()
			continue
		}
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindLease, Msg: "lease expired: " + reason,
		})
		s.settle(r, outcome{status: st, err: reason})
	}
}

// reap requeues the job of one expired lease, or returns it with the
// terminal status and reason it must settle with. It returns a nil record
// when the job left the running state for the queue (or, while draining,
// for the next process life).
func (s *Service) reap(lease cluster.Lease) (*jobRecord, Status, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[lease.JobID]
	if !ok || r.job.Status != StatusRunning {
		return nil, "", ""
	}
	st, reason := StatusFailed, ""
	switch {
	case r.userCancelled:
		st, reason = StatusCancelled, fmt.Sprintf(
			"cancelled by client; lease expired on worker %q", lease.Worker)
	case r.attempts >= s.cfg.Cluster.MaxAttempts:
		reason = fmt.Sprintf(
			"lease expired on worker %q and the attempt budget is exhausted (%d/%d)",
			lease.Worker, r.attempts, s.cfg.Cluster.MaxAttempts)
	case s.draining:
		// The queue channel is closed; pushing would panic. Leave the job
		// running-without-a-lease: it has no terminal WAL record, so the
		// next process life re-enqueues it — crash semantics, which is what
		// a drain racing a worker death is.
		s.cfg.Logger.Warn("lease expired while draining; job deferred to restart",
			"job_id", lease.JobID, "worker", lease.Worker)
		return nil, "", ""
	default:
		select {
		case s.queues[classIndex(r.req.Class)] <- r:
			// Back to queued under the lock, so begin cannot claim the job
			// before the record reads queued again.
			r.job.Status = StatusQueued
			r.job.StartedAt = nil
			r.job.Worker = ""
			// The next attempt opens fresh stage spans.
			r.stages.end("requeued")
			s.met.requeues.Inc()
			s.journal.Append(journal.Entry{
				JobID: lease.JobID, TraceID: r.job.TraceID,
				Kind: journal.KindLease,
				Msg: fmt.Sprintf("lease expired on worker %q; requeued (attempt %d/%d used)",
					lease.Worker, r.attempts, s.cfg.Cluster.MaxAttempts),
			})
			s.cfg.Logger.Warn("lease expired; job requeued",
				"job_id", lease.JobID, "worker", lease.Worker,
				"attempt", r.attempts, "max_attempts", s.cfg.Cluster.MaxAttempts)
			return nil, "", ""
		default:
			reason = fmt.Sprintf("lease expired on worker %q and the queue is full", lease.Worker)
		}
	}
	r.job.Worker = ""
	return r, st, reason
}

// clusterRoutes mounts the internal worker API (Cluster.Enabled only).
func (s *Service) clusterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/internal/lease", s.handleLease)
	mux.HandleFunc("POST /v1/internal/jobs/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/internal/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/internal/workers/{id}/deregister", func(w http.ResponseWriter, r *http.Request) {
		s.DeregisterWorker(r.PathValue("id"))
		w.WriteHeader(http.StatusNoContent)
	})
}

func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Store the relay before leasing: it lands even on a 204 from an empty
	// queue, which is exactly the idle-worker flush case.
	s.storeWorkerTelemetry(req.WorkerID, req.Metrics, req.Telemetry)
	lj, err := s.LeaseNext(req.WorkerID, req.Addr)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	if lj == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lj)
}

func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ack, err := s.ExtendLease(r.PathValue("id"), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.CompleteLease(r.PathValue("id"), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}
