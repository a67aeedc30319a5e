package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"rumornet/internal/store"
)

// storeConfig is the durable-service test configuration: one worker so a
// slow job deterministically parks the queue, SyncNone because the tests
// stop processes politely (the OS page cache keeps the bytes).
func storeConfig(dir string) Config {
	return Config{
		Workers:      1,
		QueueDepth:   16,
		StoreDir:     dir,
		StoreOptions: store.Options{SyncMode: store.SyncNone},
	}
}

func waitJob(t *testing.T, s *Service, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if job.Status.Terminal() {
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return Job{}
}

func waitRunning(t *testing.T, s *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if job.Status == StatusRunning {
			return
		}
		if job.Status.Terminal() {
			t.Fatalf("job %s finished (%s) before the crash could interrupt it", id, job.Status)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// TestStoreCrashRecoveryE2E: a daemon completes one job, is killed with
// one job running and one queued, and a restart over the same data
// directory serves the completed result from the store without
// recomputing and re-runs the interrupted jobs to completion under their
// original ids.
func TestStoreCrashRecoveryE2E(t *testing.T) {
	dir := t.TempDir()
	cfg := storeConfig(dir)

	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqA := Request{Type: JobThreshold, Params: Params{Lambda0: 0.02}}
	jobA, err := svc1.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	mustSucceed(t, waitJob(t, svc1, jobA.ID))

	// B is slow enough (tens of millions of ABM node-steps) that Close
	// lands while it is mid-flight; C queues behind it on the lone worker.
	jobB, err := svc1.Submit(Request{Type: JobABM,
		Params: Params{Lambda0: 0.001, Trials: 3, Nodes: 20000, Tf: 150}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc1, jobB.ID)
	jobC, err := svc1.Submit(Request{Type: JobODE, Params: Params{Lambda0: 0.02, Tf: 40}})
	if err != nil {
		t.Fatal(err)
	}
	// Abrupt stop: Close cancels B (and C runs against the dead context).
	// Neither gets a terminal WAL record — the crash/redeploy shape.
	svc1.Close()

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()

	st := svc2.Stats()
	if st.Store == nil {
		t.Fatal("stats missing the store section")
	}
	if st.Store.RecoveredJobs != 2 {
		t.Errorf("recovered jobs = %d, want 2 (B and C)", st.Store.RecoveredJobs)
	}

	// A's result must be served from the store — synchronously, without
	// recomputing.
	hit, err := svc2.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Status != StatusSucceeded {
		t.Errorf("resubmitted A: status %s, cache_hit %v — want a synchronous cache hit", hit.Status, hit.CacheHit)
	}
	if got := svc2.Stats().Store.ResultHits; got < 1 {
		t.Errorf("result hits = %d, want >= 1 (A's)", got)
	}
	if hit.ID != "j-000004" {
		t.Errorf("post-recovery id = %s, want j-000004 (sequence resumed above the log)", hit.ID)
	}

	// B and C re-run to completion under their original ids.
	for _, id := range []string{jobB.ID, jobC.ID} {
		job := waitJob(t, svc2, id)
		mustSucceed(t, job)
		if job.CacheHit {
			t.Errorf("job %s recovered as cache hit; want a real re-run", id)
		}
	}

	// A third life: everything settled, nothing left to re-enqueue.
	svc2.Close()
	svc3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	if got := svc3.Stats().Store.PendingJobs; got != 0 {
		t.Errorf("pending after clean restart = %d, want 0", got)
	}
	if st3 := svc3.Stats().Store; st3.RecoveredJobs != 0 {
		t.Errorf("third life re-enqueued %d jobs, want 0", st3.RecoveredJobs)
	}
}

// TestRecoverySyntheticWAL drives recovery off a hand-written log — fully
// deterministic coverage of the edge outcomes: a valid job re-runs, a job
// whose uploaded scenario vanished with the process fails with a terminal
// record (so the log stops re-delivering it), and an undecodable request
// fails the same way.
func TestRecoverySyntheticWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SyncMode: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendJob := func(id string, seq uint64, request string) {
		t.Helper()
		if err := st.AppendSubmitted(store.JobState{
			ID: id, Seq: seq, Request: json.RawMessage(request),
			Key: fmt.Sprintf("%064d", seq), SubmittedAt: time.Now(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	appendJob("j-000005", 5, `{"type":"ode","params":{"lambda0":0.02,"tf":40,"points":50}}`)
	appendJob("j-000006", 6, `{"type":"ode","scenario":"ghost","params":{"lambda0":0.02}}`)
	appendJob("j-000007", 7, `{"type":123}`)
	if err := st.AppendStarted("j-000005"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := storeConfig(dir)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustSucceed(t, waitJob(t, svc, "j-000005"))

	ghost := waitJob(t, svc, "j-000006")
	if ghost.Status != StatusFailed || !strings.Contains(ghost.Error, "ghost") {
		t.Errorf("ghost-scenario job: %s (%s), want failed naming the scenario", ghost.Status, ghost.Error)
	}
	bad := waitJob(t, svc, "j-000007")
	if bad.Status != StatusFailed {
		t.Errorf("undecodable job: %s, want failed", bad.Status)
	}

	fresh, err := svc.Submit(Request{Type: JobThreshold, Params: Params{Lambda0: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "j-000008" {
		t.Errorf("fresh id = %s, want j-000008 (above the synthetic log's max seq)", fresh.ID)
	}
	svc.Close()

	// The failure records are terminal: a second life has nothing pending.
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Stats().Store.PendingJobs; got != 0 {
		t.Errorf("pending after failures were logged = %d, want 0", got)
	}
	if _, ok := svc2.Job("j-000006"); ok {
		t.Error("terminally failed job re-created on restart")
	}
}

// TestDiskFallbackAfterEviction pins the second cache tier: a result
// evicted from the memory LRU is still answered from the blob store, and
// the read repopulates the memory cache.
func TestDiskFallbackAfterEviction(t *testing.T) {
	cfg := storeConfig(t.TempDir())
	cfg.CacheEntries = 1
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	reqX := Request{Type: JobODE, Params: Params{Lambda0: 0.02, Tf: 40, Points: 50}}
	x, err := svc.Submit(reqX)
	if err != nil {
		t.Fatal(err)
	}
	mustSucceed(t, waitJob(t, svc, x.ID))
	// Y evicts X from the single-entry memory cache; X's blob stays on disk.
	y, err := svc.Submit(Request{Type: JobODE, Params: Params{Lambda0: 0.03, Tf: 40, Points: 50}})
	if err != nil {
		t.Fatal(err)
	}
	mustSucceed(t, waitJob(t, svc, y.ID))

	hit, err := svc.Submit(reqX)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Status != StatusSucceeded {
		t.Fatalf("evicted result: status %s, cache_hit %v — want a synchronous disk hit", hit.Status, hit.CacheHit)
	}
	if got := svc.Stats().Store.ResultHits; got != 1 {
		t.Errorf("disk hits = %d, want 1", got)
	}
}

// TestE2EJobIndex exercises the bounded GET /v1/jobs index: newest-first
// order, limit paging, status filtering, and 400s for malformed queries.
func TestE2EJobIndex(t *testing.T) {
	e := newE2E(t, Config{Workers: 2})
	var ids []string
	for seed := 1; seed <= 3; seed++ {
		job := e.submitAndWait(fmt.Sprintf(`{"type":"threshold","scenario":"tiny","params":{"seed":%d}}`, seed))
		mustSucceed(t, job)
		ids = append(ids, job.ID)
	}

	var page struct {
		Jobs  []Job `json:"jobs"`
		Count int   `json:"count"`
		Total int   `json:"total"`
	}
	e.do(http.MethodGet, "/v1/jobs?limit=2", "", http.StatusOK, &page)
	if page.Count != 2 || len(page.Jobs) != 2 || page.Total != 3 {
		t.Fatalf("limit=2 page: count %d, total %d, jobs %d", page.Count, page.Total, len(page.Jobs))
	}
	if page.Jobs[0].ID != ids[2] || page.Jobs[1].ID != ids[1] {
		t.Errorf("page order = [%s %s], want newest first [%s %s]",
			page.Jobs[0].ID, page.Jobs[1].ID, ids[2], ids[1])
	}

	e.do(http.MethodGet, "/v1/jobs?status=succeeded", "", http.StatusOK, &page)
	if page.Total != 3 || page.Count != 3 {
		t.Errorf("status=succeeded: count %d, total %d, want 3/3", page.Count, page.Total)
	}
	e.do(http.MethodGet, "/v1/jobs?status=failed", "", http.StatusOK, &page)
	if page.Total != 0 {
		t.Errorf("status=failed total = %d, want 0", page.Total)
	}

	e.do(http.MethodGet, "/v1/jobs?limit=0", "", http.StatusBadRequest, nil)
	e.do(http.MethodGet, "/v1/jobs?limit=x", "", http.StatusBadRequest, nil)
	e.do(http.MethodGet, "/v1/jobs?status=bogus", "", http.StatusBadRequest, nil)
}
