package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// completeLease runs a leased job the way a remote node does and uploads
// its result.
func completeLease(t *testing.T, s *Service, lj *LeasedJob) {
	t.Helper()
	sc, err := ScenarioFromTable(lj.Scenario)
	if err != nil {
		t.Error(err)
		return
	}
	raw, err := ExecuteRequest(context.Background(), sc, lj.Request, 1, nil)
	if err != nil {
		t.Error(err)
		return
	}
	if _, err := s.CompleteLease(lj.JobID, ResultRequest{WorkerID: "w1",
		LeaseToken: lj.LeaseToken, Status: string(StatusSucceeded), Result: raw}); err != nil {
		t.Error(err)
	}
}

func thresholdSeed(seed int64) Request {
	return Request{Type: JobThreshold, Scenario: "tiny", Params: Params{Lambda0: 0.02, Seed: seed}}
}

// TestAdmittedJobStaysAdmitted pins that the queue's bound applies at
// submission only: a job the service admitted is never refused by the
// queue later, and a cancelled queued job gives its slot back at once.
func TestAdmittedJobStaysAdmitted(t *testing.T) {
	t.Run("restart_over_bound", func(t *testing.T) {
		// Three jobs pending in one class of depth 2: one leased, two
		// queued. All three re-enter the queue after a restart.
		h := &lcHarness{t: t, dir: t.TempDir(), base: map[Status]int64{}}
		cfg := lcCluster
		cfg.QueueDepth = 2
		cfg.Cluster.LeaseTTL = time.Hour
		h.open(cfg, true)
		ids := []string{h.submit(thresholdSeed(1)).ID, h.submit(thresholdSeed(2)).ID}
		if lj, err := h.svc.LeaseNext("w1"); err != nil || lj == nil {
			t.Fatalf("lease: %v, %v", lj, err)
		}
		ids = append(ids, h.submit(thresholdSeed(3)).ID)
		h.close()

		h.open(Config{Workers: 1, QueueDepth: 2}, false)
		for _, id := range ids {
			mustSucceed(t, waitJob(t, h.svc, id))
		}
	})

	t.Run("lease_expires_while_full", func(t *testing.T) {
		h := &lcHarness{t: t, dir: t.TempDir(), base: map[Status]int64{}}
		cfg := lcCluster
		cfg.QueueDepth = 1
		h.open(cfg, true)
		job := h.submit(thresholdSeed(1))
		if lj, err := h.svc.LeaseNext("w1"); err != nil || lj == nil {
			t.Fatalf("lease: %v, %v", lj, err)
		}
		h.submit(thresholdSeed(2)) // fills the class; the lease goes silent
		deadline := time.Now().Add(30 * time.Second)
		for {
			j, _ := h.svc.Job(job.ID)
			if j.Status != StatusRunning {
				if j.Status != StatusQueued {
					t.Fatalf("expired lease settled the job %s (%s), want it requeued", j.Status, j.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("lease never expired")
			}
			time.Sleep(time.Millisecond)
		}
		requeued := false
		for _, en := range h.svc.journal.Replay(job.ID) {
			requeued = requeued || strings.Contains(en.Msg, "requeued (attempt 1/3 used)")
		}
		if !requeued {
			t.Error("no requeue at attempt 1/3 in the job's journal")
		}
		// FIFO: the job submitted while the lease ran comes first.
		for i := 0; i < 2; i++ {
			lj, err := h.svc.LeaseNext("w1")
			if err != nil || lj == nil {
				t.Fatalf("lease %d: %v, %v", i+2, lj, err)
			}
			if lj.JobID == job.ID && lj.Attempt != 2 {
				t.Errorf("requeued job leased at attempt %d, want 2", lj.Attempt)
			}
			completeLease(t, h.svc, lj)
		}
		mustSucceed(t, waitJob(t, h.svc, job.ID))
	})

	t.Run("cancel_frees_slot", func(t *testing.T) {
		// A coordinator with no workers keeps its jobs queued.
		cfg := lcCluster
		cfg.QueueDepth = 1
		s := newTestService(t, cfg)
		tinyScenario(t, s)
		job, err := s.Submit(thresholdSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Cancel(job.ID); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.QueueDepth != 0 || st.QueueInteractive != 0 {
			t.Errorf("queue_depth %d (interactive %d) after cancelling the only queued job, want 0",
				st.QueueDepth, st.QueueInteractive)
		}
		if _, err := s.Submit(thresholdSeed(2)); err != nil {
			t.Errorf("submit after the cancel: %v, want accepted", err)
		}
	})
}

// TestQueueConcurrentLifecycle races submitters, two in-process workers, a
// remote-style LeaseNext poller and a canceller of queued jobs against
// Drain and then Close. Every job admitted before the drain settles
// exactly once, the queue ends empty, and no goroutine outlives the
// service. Tier 2 runs it under -race -count=10.
func TestQueueConcurrentLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := New(Config{Workers: 2, QueueDepth: 4, MaxJobs: 1 << 12, CacheEntries: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	tinyScenario(t, s)

	var (
		mu       sync.Mutex
		admitted []string
	)
	// Drain starts once enough jobs are in flight to race it.
	const inFlight = 64
	racing := make(chan struct{})
	ids := make(chan string, 1024)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	// The remote poller and the canceller run until the service closes.
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if lj, err := s.LeaseNext("r1"); err != nil {
				t.Error(err)
				return
			} else if lj != nil {
				completeLease(t, s, lj)
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			case id := <-ids:
				if _, err := s.Cancel(id); err != nil {
					t.Error(err)
				}
			}
		}
	}()

	var subs sync.WaitGroup
	for g := 0; g < 4; g++ {
		subs.Add(1)
		go func(g int) {
			defer subs.Done()
			for i := 0; ; i++ {
				req := thresholdSeed(int64(g*1000 + i + 1))
				if i%3 == 0 {
					req = Request{Type: JobODE, Scenario: "tiny", Params: Params{Lambda0: 0.02, Tf: 5, Seed: int64(g*1000 + i + 1)}}
				}
				if i%2 == 1 {
					req.Class = ClassBatch
				}
				job, err := s.Submit(req)
				switch {
				case errors.Is(err, ErrDraining):
					return
				case errors.Is(err, ErrQueueFull):
					time.Sleep(50 * time.Microsecond)
					continue
				case err != nil:
					t.Error(err)
					return
				}
				mu.Lock()
				if admitted = append(admitted, job.ID); len(admitted) == inFlight {
					close(racing)
				}
				mu.Unlock()
				if i%4 == 0 {
					select {
					case ids <- job.ID:
					default:
					}
				}
			}
		}(g)
	}

	select {
	case <-racing:
	case <-time.After(30 * time.Second):
		t.Fatalf("fewer than %d jobs admitted in 30s", inFlight)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	subs.Wait()

	settled := int64(0)
	for _, st := range []Status{StatusSucceeded, StatusFailed, StatusCancelled} {
		settled += s.met.outcomes[st].Value()
	}
	if settled != int64(len(admitted)) {
		t.Errorf("%d outcomes counted for %d admitted jobs", settled, len(admitted))
	}
	for _, id := range admitted {
		j, ok := s.Job(id)
		if !ok || !j.Status.Terminal() {
			t.Errorf("job %s is %s after Drain, want terminal", id, j.Status)
			continue
		}
		finals := 0
		for _, en := range s.journal.Replay(id) {
			if en.Final {
				finals++
			}
		}
		if finals != 1 {
			t.Errorf("job %s has %d final journal entries, want 1", id, finals)
		}
	}
	if st := s.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue_depth %d after Drain, want 0", st.QueueDepth)
	}

	s.Close()
	close(stop)
	bg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("%d jobs admitted", len(admitted))
}
