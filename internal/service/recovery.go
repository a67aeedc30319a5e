package service

import (
	"encoding/json"
	"fmt"
	"time"

	"rumornet/internal/degreedist"
	"rumornet/internal/obs/journal"
	"rumornet/internal/obs/trace"
	"rumornet/internal/store"
)

// This file is the service side of the durable job store: the WAL append
// helpers called on the submission and execution paths, and the startup
// recovery that turns a write-ahead log plus result store back into live
// service state. The contract with the lifecycle (lifecycle.go):
//
//   - every job that enters the queue gets an opSubmitted record (with the
//     full request, so recovery can re-enqueue it verbatim); begin adds
//     opStarted, and opAttempt for a lease;
//   - settle writes the opFinished record for every terminal outcome the
//     service *chose* (success, failure, user cancellation, timeout) of a
//     job that has an opSubmitted record — a submit-time cache hit never
//     had one and gets none;
//   - a shutdown-cancelled job gets NO terminal record — crash and
//     redeploy look identical in the log, and both re-run the job.
//
// WAL errors never fail the job: the daemon keeps serving from memory and
// the failure is counted (rumor_store_wal_errors_total) and logged.

// walSubmitted logs a job's enqueue. Callers hold s.mu.
func (s *Service) walSubmitted(r *jobRecord) {
	if s.store == nil {
		return
	}
	r.logged = true
	blob, err := json.Marshal(r.req)
	if err == nil {
		err = s.store.AppendSubmitted(store.JobState{
			ID: r.job.ID, Seq: r.seq, Request: blob, Key: r.key,
			TraceID: r.job.TraceID, SubmittedAt: r.job.SubmittedAt,
			Class: string(r.req.Class),
		})
	}
	s.walErrored("submitted", r.job.ID, err)
}

// walStarted logs a job's transition to running. Callers hold s.mu.
func (s *Service) walStarted(id string) {
	if s.store == nil {
		return
	}
	s.walErrored("started", id, s.store.AppendStarted(id))
}

// walFinished logs a terminal outcome. settle calls it before the terminal
// status publishes, so the record is on disk before any poller sees it.
func (s *Service) walFinished(id string, status Status) {
	if s.store == nil {
		return
	}
	s.walErrored("finished", id, s.store.AppendFinished(id, string(status)))
}

// walAttempt logs a job's cumulative lease-grant count so the poison-job
// attempt budget survives a restart.
func (s *Service) walAttempt(id string, attempt int) {
	if s.store == nil {
		return
	}
	s.walErrored("attempt", id, s.store.AppendAttempt(id, attempt))
}

// walScenario logs an uploaded scenario table so a restart re-registers it
// before recovered jobs try to resolve it.
func (s *Service) walScenario(name, source string, degrees []int, probs []float64) {
	if s.store == nil {
		return
	}
	s.walErrored("scenario", name, s.store.AppendScenario(store.ScenarioState{
		Name: name, Source: source, Degrees: degrees, Probs: probs,
	}))
}

// storePutResult persists a succeeded job's result blob.
func (s *Service) storePutResult(key string, raw json.RawMessage) {
	if s.store == nil {
		return
	}
	s.walErrored("put result", key, s.store.PutResult(key, raw))
}

// walErrored counts and logs a failed store operation (no-op on nil).
func (s *Service) walErrored(op, id string, err error) {
	if err == nil {
		return
	}
	s.met.walErrors.Inc()
	s.cfg.Logger.Warn("durable store operation failed",
		"op", op, "id", id, "error", err.Error())
}

// recoverFromStore rebuilds service state from an opened store: uploaded
// scenarios re-register, unfinished jobs re-enter the queue under their
// original ids, and the sequence counter resumes above everything the log
// has seen. Completed results stay on disk: a submission reads a memory
// miss through s.reader, so only results someone asks for fill the cache.
// Called from New after scenario registration and before the workers
// start; the lock discipline of the helpers it shares with the live paths
// still applies.
func (s *Service) recoverFromStore() {
	// Scenario tables first: recovered jobs referencing an uploaded
	// scenario resolve only if the table is already registered. The
	// built-in name collides by design (it was never WAL-logged, but be
	// defensive about hand-edited logs) and is skipped silently.
	replayed := 0
	for _, sc := range s.store.Scenarios() {
		d, err := degreedist.New(sc.Degrees, sc.Probs)
		if err == nil {
			_, err = s.scenarios.register(sc.Name, sc.Source, d)
		}
		if err != nil {
			s.cfg.Logger.Warn("persisted scenario not re-registered",
				"scenario", sc.Name, "error", err.Error())
			continue
		}
		replayed++
	}
	s.met.scenarioReplays.Add(int64(replayed))

	if max := s.store.MaxSeq(); s.seq < max {
		s.seq = max
	}
	pending := s.store.PendingJobs()
	requeued, served, failed := 0, 0, 0
	for _, js := range pending {
		switch s.requeueRecovered(js) {
		case StatusQueued:
			requeued++
		case StatusSucceeded:
			served++
		default:
			failed++
		}
	}
	s.met.recoveredJobs.Add(int64(requeued))
	if len(pending) > 0 || replayed > 0 {
		s.cfg.Logger.Info("recovery complete",
			"scenarios_replayed", replayed,
			"jobs_requeued", requeued,
			"jobs_served_from_store", served, "jobs_failed", failed,
			"next_seq", s.seq+1)
	}
}

// requeueRecovered re-admits one logged-but-unfinished job and returns the
// status it settled into: StatusQueued (re-enqueued), StatusSucceeded (its
// result was already on disk — the crash hit between the blob write and
// the terminal record) or StatusFailed (the request no longer resolves,
// e.g. an uploaded scenario that was not re-registered, or the queue is
// full). Failures get a terminal WAL record so the log stops re-delivering
// them; either way the job is visible to GET /v1/jobs under its old id.
func (s *Service) requeueRecovered(js store.JobState) Status {
	var req Request
	reason := ""
	if err := json.Unmarshal(js.Request, &req); err != nil {
		reason = fmt.Sprintf("recovery: undecodable request: %v", err)
	}
	// The WAL records the admission class both inside the request blob and
	// on the JobState; prefer the explicit field when the blob predates it.
	if req.Class == "" && js.Class != "" {
		req.Class = Class(js.Class)
	}
	var (
		sc      *Scenario
		key     string
		timeout time.Duration
	)
	if reason == "" {
		var err error
		req, sc, key, timeout, err = s.resolveRequest(req)
		if err != nil {
			reason = fmt.Sprintf("recovery: %v", err)
		}
	}

	s.mu.Lock()
	_, dup := s.jobs[js.ID]
	s.mu.Unlock()
	if dup {
		return StatusFailed // defensive: the log should never duplicate ids
	}
	submitted := js.SubmittedAt
	if submitted.IsZero() {
		submitted = time.Now()
	}
	span := s.tracer.StartSpan("job."+string(req.Type), trace.SpanContext{})
	span.SetAttr("job_id", js.ID)
	span.SetAttr("recovered", "true")
	r := &jobRecord{
		job: Job{
			ID:          js.ID,
			Type:        req.Type,
			Scenario:    req.Scenario,
			Status:      StatusQueued,
			Class:       req.Class,
			TraceID:     span.Context().TraceID.String(),
			SubmittedAt: submitted,
		},
		req:      req,
		sc:       sc,
		key:      key,
		seq:      js.Seq,
		timeout:  timeout,
		span:     span,
		attempts: js.Attempts,
		logged:   true,
	}

	if reason == "" {
		// The job may have completed just before the crash: result blob
		// written, terminal record lost. The store answers it.
		if s.reader != nil {
			if blob, hit := s.reader.GetResult(key); hit {
				s.settle(r, outcome{status: StatusSucceeded, result: json.RawMessage(blob), hit: "recovered"})
				return StatusSucceeded
			}
		}
		s.mu.Lock()
		select {
		case s.queues[classIndex(req.Class)] <- r:
			s.insertLocked(r)
			s.mu.Unlock()
			s.journal.Append(journal.Entry{
				JobID: js.ID, TraceID: r.job.TraceID,
				Kind: journal.KindLifecycle, Msg: "recovered: re-queued after restart",
			})
			s.cfg.Logger.Info("job recovered",
				"job_id", js.ID, "type", req.Type, "scenario", req.Scenario,
				"was_started", js.Started)
			return StatusQueued
		default:
			s.mu.Unlock()
			reason = "recovery: queue full"
		}
	}
	s.settle(r, outcome{status: StatusFailed, err: reason})
	return StatusFailed
}
