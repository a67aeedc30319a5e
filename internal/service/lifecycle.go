package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"rumornet/internal/cluster"
	"rumornet/internal/obs/invariant"
	"rumornet/internal/obs/journal"
)

// The job lifecycle (DESIGN.md §7) is queued → running → terminal. begin is
// the only queued → running transition and settle the only way into a
// terminal status; every path that starts or ends a job — local workers,
// cluster leases, result uploads, the lease reaper, cancellation, cache
// hits and startup recovery — goes through them, so the bookkeeping each
// transition owes (WAL records, metrics, journal, spans, logs) is written
// once.

// begin moves a dequeued job to running. worker names the node a lease
// hands the job to, "" for a local worker; cancel stops a local run (nil
// for a lease). For a lease, begin also counts the attempt, logs it to the
// WAL and returns the granted lease. It returns false, changing nothing,
// when the client cancelled the job while it was queued.
func (s *Service) begin(r *jobRecord, worker string, cancel context.CancelFunc) (cluster.Lease, bool) {
	lg := s.cfg.Logger.With("job_id", r.job.ID, "type", r.job.Type,
		"trace_id", r.job.TraceID)
	if worker != "" {
		lg = lg.With("worker", worker)
	}
	monitor := invariant.New(s.cfg.Invariants, func(v invariant.Violation) {
		s.met.invariantViolation(v.Check)
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindInvariant, Check: v.Check, Msg: v.Msg,
			Stage: v.Event.Stage, Step: v.Event.Step, T: v.Event.T,
			Value: v.Event.Value,
		})
		lg.Warn("invariant violation", "check", v.Check, "detail", v.Msg,
			"stage", v.Event.Stage, "step", v.Event.Step, "t", v.Event.T)
	})
	sink := s.progressSink(r, monitor, lg)

	s.mu.Lock()
	if r.job.Status != StatusQueued || r.userCancelled {
		s.mu.Unlock()
		return cluster.Lease{}, false
	}
	start := time.Now()
	r.job.Status = StatusRunning
	r.job.StartedAt = &start
	r.job.Worker = worker
	r.cancel, r.monitor, r.sink = cancel, monitor, sink
	s.walStarted(r.job.ID)
	var lease cluster.Lease
	if worker != "" {
		r.attempts++
		lease = s.table.Grant(r.job.ID, worker, r.attempts)
		s.walAttempt(r.job.ID, r.attempts)
	}
	s.mu.Unlock()

	queueWait := start.Sub(r.job.SubmittedAt)
	s.met.queueWaitObserve(r.req.Class, queueWait)
	if s.sat != nil {
		s.sat.observe(queueWait, start)
	}
	s.met.running.Inc()
	if worker != "" {
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindLease,
			Msg: fmt.Sprintf("lease granted to worker %q (attempt %d/%d)",
				worker, lease.Attempt, s.cfg.Cluster.MaxAttempts),
		})
	}
	s.journal.Append(journal.Entry{
		JobID: r.job.ID, TraceID: r.job.TraceID,
		Kind: journal.KindLifecycle, Msg: "started",
	})
	lg.Info("job started", "queue_wait_ms", ms(queueWait))
	return lease, true
}

// Classify maps an executor error to the terminal status and error message
// a job settles with: nil succeeds; a context cancellation is the client's
// when byClient is set and the shutdown's otherwise; an exceeded deadline
// fails as a timeout of the job's budget; any other error fails with its
// text. Standalone execution and worker nodes share it, so a job reads the
// same wherever it ran. A worker's only cancellation source is the client,
// so it passes errors.Is(err, context.Canceled).
func Classify(err error, timeout time.Duration, byClient bool) (Status, string) {
	switch {
	case err == nil:
		return StatusSucceeded, ""
	case byClient:
		return StatusCancelled, fmt.Sprintf("cancelled by client: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return StatusFailed, fmt.Sprintf("timed out after %s: %v", timeout, err)
	case errors.Is(err, context.Canceled):
		return StatusCancelled, fmt.Sprintf("cancelled by shutdown: %v", err)
	default:
		return StatusFailed, err.Error()
	}
}

// outcome is how a job ends; settle applies it.
type outcome struct {
	status Status
	err    string          // Job.Error
	result json.RawMessage // the payload of a success
	// hit names the tier that answered a success without executing it:
	// "memory" or "disk" at submission, "recovered" at startup.
	hit string
	// execEnd is when execution ended — the solver payload was ready or
	// the worker's result arrived — and zero when nothing executed.
	execEnd time.Time
	// shutdown marks a cancellation by Close. It writes no WAL finished
	// record, so the next process life re-runs the job.
	shutdown bool
}

// settle moves a job to its terminal status; it is the only place one is
// assigned, and each job settles exactly once: its caller owns the job (a
// local run, a released or reaped lease, recovery) or, for a queued job,
// has marked it cancelled so begin skips it. A job settled before it was
// ever visible (a submit-time hit, a job settled by recovery) is inserted
// into the table here. Returns the terminal snapshot.
func (s *Service) settle(r *jobRecord, o outcome) Job {
	// Durability before visibility: the result blob and the terminal
	// record land on disk while the job still reads as non-terminal, so a
	// poller that observes the outcome and kills the process cannot lose
	// it. Deliberately outside s.mu — the blob write is hundreds of
	// microseconds of filesystem work and must not serialize the workers.
	executed := !o.execEnd.IsZero()
	if o.status == StatusSucceeded && executed {
		s.storePutResult(r.key, o.result)
	}
	if r.logged && !o.shutdown {
		s.walFinished(r.job.ID, o.status)
	}

	s.mu.Lock()
	fin := time.Now()
	wasRunning := r.job.Status == StatusRunning
	r.job.Status = o.status
	r.job.Error = o.err
	r.job.FinishedAt = &fin
	// The Final entry lands under the same lock as the status (lock order
	// s.mu → journal.mu, as in trimEvictedLocked): a poller that sees the
	// terminal status replays it, and a follower that reads it finds the
	// job terminal.
	msg := "finished: " + string(o.status)
	if o.err != "" {
		msg += ": " + o.err
	} else if o.hit != "" {
		msg += " (cache hit)"
	}
	s.journal.Append(journal.Entry{
		JobID: r.job.ID, TraceID: r.job.TraceID,
		Kind: journal.KindLifecycle, Msg: msg, Final: true,
	})
	var queueWait, execute, serialize time.Duration
	if executed {
		start := *r.job.StartedAt
		queueWait = start.Sub(r.job.SubmittedAt)
		execute = o.execEnd.Sub(start)
		serialize = fin.Sub(o.execEnd)
		r.job.ElapsedMS = ms(fin.Sub(start))
		r.job.Latency = &JobLatency{QueueWaitMS: ms(queueWait), ExecuteMS: ms(execute), SerializeMS: ms(serialize)}
	}
	if o.status == StatusSucceeded {
		r.job.Result = o.result
		r.job.CacheHit = o.hit != ""
		if evicted := s.cache.put(r.key, o.result); len(evicted) > 0 {
			s.met.cacheEvictions.Add(int64(len(evicted)))
			s.trimEvictedLocked(evicted)
		}
		// The job's journal lives exactly as long as the cache entry
		// backing it; record the dependency so eviction trims both.
		s.keyJobs[r.key] = append(s.keyJobs[r.key], r.job.ID)
	}
	if _, ok := s.jobs[r.job.ID]; !ok {
		s.insertLocked(r)
	}
	// Counted before the status publishes, so a poller that sees the
	// terminal status also sees it in the metrics (all lock-free).
	if wasRunning {
		s.met.running.Dec()
	}
	s.met.outcome(o.status)
	if executed {
		s.met.observe(r.job.Type, execute+serialize)
		s.met.segmentObserve(queueWait, execute, serialize)
	}
	job := r.snapshot()
	s.mu.Unlock()

	if executed && job.Worker != "" {
		s.met.workerLatency(job.Worker, execute+serialize)
	}
	if o.hit != "" {
		r.span.SetAttr("cache_hit", o.hit)
	}
	r.endSpans(o.status)

	level := slog.LevelInfo
	if o.status != StatusSucceeded {
		level = slog.LevelWarn
	}
	// Checked first so a disabled logger costs no argument boxing on the
	// cache-hit path.
	if !s.cfg.Logger.Enabled(context.Background(), level) {
		return job
	}
	args := []any{"job_id", job.ID, "type", job.Type, "trace_id", job.TraceID,
		"status", o.status, "elapsed_ms", job.ElapsedMS}
	if job.Worker != "" {
		args = append(args, "worker", job.Worker)
	}
	if o.hit != "" {
		args = append(args, "source", o.hit)
	}
	if o.err != "" {
		args = append(args, "error", o.err)
	}
	s.cfg.Logger.Log(context.Background(), level, "job finished", args...)
	return job
}

// ms converts a duration to fractional milliseconds, the unit of the job
// API's timing fields.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
