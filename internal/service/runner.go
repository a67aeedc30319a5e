package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"rumornet/internal/obs"
)

// Transport carries one lease's traffic from the Runner executing it to
// the Service that granted it (DESIGN.md §7). In-process workers and remote
// nodes run the same Runner: localTransport calls the Service directly,
// internal/cluster/worker speaks the internal HTTP API.
type Transport interface {
	// Progress receives every solver checkpoint as it is emitted; the
	// service derives the job's journal and stage spans from them.
	Progress(ev obs.Event)
	// Heartbeat renews the lease. cancel reports that the client cancelled
	// the job; lost that the lease is no longer honoured, so the job's
	// result would be refused.
	Heartbeat(req HeartbeatRequest) (cancel, lost bool)
	// Complete hands the terminal outcome over, after the last Heartbeat
	// has returned.
	Complete(res ResultRequest)
}

// errCancelledByClient is the cause a client cancellation stops a job's
// context with, which classify tells apart from a shutdown.
var errCancelledByClient = errors.New("cancelled by client")

// Runner executes leased jobs for one worker.
type Runner struct {
	// Worker names the worker in the lease calls.
	Worker string
	// InnerWorkers bounds each job's internal fan-out (values below 1 mean 1).
	InnerWorkers int
	// Heartbeat is the lease-renewal cadence (0: a third of the lease TTL).
	Heartbeat time.Duration
}

// Run executes one leased job on scenario sc to its hand-off:
// ExecuteRequest → classify → Transport.Complete, renewing the lease until
// execution ends. parent bounds the job besides its own timeout; the job
// counts as cancelled by the client when parent or a heartbeat
// acknowledgement stops it with errCancelledByClient, and by shutdown when
// parent ends for any other reason.
func (rn Runner) Run(parent context.Context, lj *LeasedJob, sc *Scenario, tr Transport) {
	timeout := time.Duration(lj.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = time.Minute
	}
	ctx, stop := context.WithCancelCause(parent)
	defer stop(nil)
	ctx, cancelTimeout := context.WithTimeout(ctx, timeout)
	defer cancelTimeout()

	hbDone := rn.heartbeat(lj, tr, stop)
	raw, err := ExecuteRequest(ctx, sc, lj.Request, rn.InnerWorkers, tr.Progress)
	hbDone()

	st, msg := classify(err, timeout, errors.Is(context.Cause(ctx), errCancelledByClient))
	tr.Complete(ResultRequest{WorkerID: rn.Worker, LeaseToken: lj.LeaseToken,
		Status: string(st), Error: msg, Result: raw})
}

// heartbeat renews the lease on a timer — most jobs end before their
// first beat is due — until the returned function is called. A beat in
// flight holds mu, so that function waits it out and no beat races the
// completion. A cancel acknowledgement or a lost lease stops the job.
func (rn Runner) heartbeat(lj *LeasedJob, tr Transport, stop context.CancelCauseFunc) func() {
	every := rn.Heartbeat
	if every <= 0 {
		every = time.Duration(lj.LeaseTTLMS) * time.Millisecond / 3
	}
	if every <= 0 {
		every = time.Second
	}
	var mu sync.Mutex
	var t *time.Timer
	ended := false
	mu.Lock()
	defer mu.Unlock()
	t = time.AfterFunc(every, func() {
		mu.Lock()
		defer mu.Unlock()
		if ended {
			return
		}
		switch cancel, lost := tr.Heartbeat(HeartbeatRequest{WorkerID: rn.Worker, LeaseToken: lj.LeaseToken}); {
		case lost:
			stop(ErrStaleLease)
			return
		case cancel:
			stop(errCancelledByClient)
		}
		t.Reset(every)
	})
	return func() {
		mu.Lock()
		defer mu.Unlock()
		ended = true
		t.Stop()
	}
}

// localTransport is a lease held by an in-process worker: every call goes
// straight to the Service, with no JSON and no buffering, so progress
// reaches the job's sink as it is emitted.
type localTransport struct {
	s    *Service
	id   string
	sink eventSink
}

func (t localTransport) Progress(ev obs.Event) { t.sink(ev, time.Now()) }

func (t localTransport) Heartbeat(req HeartbeatRequest) (cancel, lost bool) {
	ack, err := t.s.ExtendLease(t.id, req)
	if err != nil {
		t.s.cfg.Logger.Warn("lease lost; abandoning job", "job_id", t.id,
			"worker", req.WorkerID, "error", err.Error())
		return false, true
	}
	return ack.Cancel, false
}

func (t localTransport) Complete(res ResultRequest) {
	if _, err := t.s.CompleteLease(t.id, res); err != nil {
		t.s.cfg.Logger.Warn("result refused", "job_id", t.id, "error", err.Error())
	}
}

// localWorker is one in-process worker: it waits for a queued job,
// interactive first, and runs each job it is granted through the same
// Runner a remote node uses. Its lease's cancel hook stops the job's
// context at once. It exits once the workers are stopped: Drain stops them
// when no job is live, Close at once, cancelling the job each is running.
func (s *Service) localWorker(id string) {
	defer s.wg.Done()
	rn := Runner{Worker: id, InnerWorkers: s.cfg.InnerWorkers}
	for r := s.next(); r != nil; r = s.next() {
		ctx, stop := context.WithCancelCause(s.baseCtx)
		if lease, ok := s.begin(r, id, func() { stop(errCancelledByClient) }); ok {
			rn.Run(ctx, s.leasedJob(r, lease), r.sc, localTransport{s: s, id: r.job.ID, sink: r.sink})
		}
		stop(nil)
	}
}
