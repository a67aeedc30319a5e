package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rumornet/internal/store"
)

// lcHarness drives one terminal path of the job lifecycle against a
// durable service and then checks the path's observable settlement.
type lcHarness struct {
	t      *testing.T
	dir    string
	svc    *Service
	closed bool
	// base is the outcome-counter reading just before the path under test
	// (zero for paths that settle during New, i.e. recovery).
	base map[Status]int64
}

// open starts a service over the harness data directory; register adds the
// tiny scenario (a restarted life re-registers it from the WAL instead).
func (h *lcHarness) open(cfg Config, register bool) *Service {
	h.t.Helper()
	cfg.StoreDir = h.dir
	cfg.StoreOptions = store.Options{SyncMode: store.SyncNone}
	svc, err := New(cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	h.svc, h.closed = svc, false
	h.t.Cleanup(h.close)
	if register {
		tinyScenario(h.t, svc)
	}
	return svc
}

func (h *lcHarness) close() {
	if h.svc != nil && !h.closed {
		h.closed = true
		h.svc.Close()
	}
}

// mark snapshots the outcome counters right before the path under test.
func (h *lcHarness) mark() {
	for st, c := range h.svc.met.outcomes {
		h.base[st] = c.Value()
	}
}

func (h *lcHarness) submit(req Request) Job {
	h.t.Helper()
	job, err := h.svc.Submit(req)
	if err != nil {
		h.t.Fatal(err)
	}
	return job
}

// finishedRecords counts the job's WAL finished records on disk.
func (h *lcHarness) finishedRecords(id string) int {
	h.t.Helper()
	segs, err := filepath.Glob(filepath.Join(h.dir, "wal", "wal-*.log"))
	if err != nil {
		h.t.Fatal(err)
	}
	needle := []byte(`"op":"finished","job_id":"` + id + `"`)
	n := 0
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			h.t.Fatal(err)
		}
		n += bytes.Count(raw, needle)
	}
	return n
}

var (
	lcThreshold = Request{Type: JobThreshold, Scenario: "tiny", Params: Params{Lambda0: 0.02}}
	lcSlow      = Request{Type: JobFBSM, Scenario: "tiny", Params: Params{Grid: 400000, Lambda0: 0.02}}
	lcCluster   = Config{Cluster: ClusterConfig{
		Enabled: true, LeaseTTL: 200 * time.Millisecond, ReapInterval: 2 * time.Millisecond,
	}}
)

// TestLifecycleConformance runs every path that settles a job and checks
// the settlement contract each must keep: exactly one Final journal entry
// and it comes last, a job span ended with the terminal status, one
// outcome-counter increment, and a WAL finished record exactly when the job
// had a submitted record and was not cancelled by shutdown.
func TestLifecycleConformance(t *testing.T) {
	cases := []struct {
		name    string
		want    Status
		wantWAL bool
		run     func(h *lcHarness) string
	}{
		{"success", StatusSucceeded, true, func(h *lcHarness) string {
			h.open(Config{Workers: 1}, true)
			h.mark()
			return h.submit(lcThreshold).ID
		}},
		{"failure", StatusFailed, true, func(h *lcHarness) string {
			h.open(Config{Workers: 1}, true)
			h.mark()
			// A terminal target no bounded control reaches: the solver
			// itself returns the error.
			return h.submit(Request{Type: JobFBSM, Scenario: "tiny",
				Params: Params{Lambda0: 0.02, Tf: 5, Grid: 20, Target: 1e-300}}).ID
		}},
		{"timeout", StatusFailed, true, func(h *lcHarness) string {
			h.open(Config{Workers: 1, DefaultTimeout: 20 * time.Millisecond}, true)
			h.mark()
			return h.submit(lcSlow).ID
		}},
		{"cancel_queued", StatusCancelled, true, func(h *lcHarness) string {
			// A coordinator with no workers keeps the job queued.
			h.open(lcCluster, true)
			job := h.submit(lcThreshold)
			h.mark()
			if _, err := h.svc.Cancel(job.ID); err != nil {
				h.t.Fatal(err)
			}
			return job.ID
		}},
		{"cancel_running", StatusCancelled, true, func(h *lcHarness) string {
			h.open(Config{Workers: 1}, true)
			h.mark()
			job := h.submit(lcSlow)
			waitRunning(h.t, h.svc, job.ID)
			if _, err := h.svc.Cancel(job.ID); err != nil {
				h.t.Fatal(err)
			}
			return job.ID
		}},
		{"shutdown_cancel", StatusCancelled, false, func(h *lcHarness) string {
			h.open(Config{Workers: 1}, true)
			h.mark()
			job := h.submit(lcSlow)
			waitRunning(h.t, h.svc, job.ID)
			h.close()
			if j, _ := h.svc.Job(job.ID); !strings.Contains(j.Error, "cancelled by shutdown") {
				h.t.Errorf("shutdown-cancelled job error %q, want it to name the shutdown", j.Error)
			}
			return job.ID
		}},
		{"memory_hit", StatusSucceeded, false, func(h *lcHarness) string {
			h.open(Config{Workers: 1}, true)
			mustSucceed(h.t, waitJob(h.t, h.svc, h.submit(lcThreshold).ID))
			h.mark()
			return h.submit(lcThreshold).ID
		}},
		{"disk_hit", StatusSucceeded, false, func(h *lcHarness) string {
			h.open(Config{Workers: 1, CacheEntries: 1}, true)
			mustSucceed(h.t, waitJob(h.t, h.svc, h.submit(lcThreshold).ID))
			other := lcThreshold
			other.Params.Lambda0 = 0.03
			mustSucceed(h.t, waitJob(h.t, h.svc, h.submit(other).ID))
			h.mark()
			return h.submit(lcThreshold).ID
		}},
		{"recovered_hit", StatusSucceeded, true, func(h *lcHarness) string {
			// First life persists the result; a hand-appended submitted
			// record for the same key then models a crash between the blob
			// write and the terminal record.
			h.open(Config{Workers: 1}, true)
			job := h.submit(lcThreshold)
			mustSucceed(h.t, waitJob(h.t, h.svc, job.ID))
			h.svc.mu.Lock()
			rec := h.svc.jobs[job.ID]
			blob, err := json.Marshal(rec.req)
			key := rec.key
			h.svc.mu.Unlock()
			if err != nil {
				h.t.Fatal(err)
			}
			h.close()
			appendSubmitted(h.t, h.dir, store.JobState{ID: "j-000100", Seq: 100,
				Request: blob, Key: key, SubmittedAt: time.Now()})
			h.open(Config{Workers: 1}, false)
			return "j-000100"
		}},
		{"recovered_unresolvable", StatusFailed, true, func(h *lcHarness) string {
			appendSubmitted(h.t, h.dir, store.JobState{ID: "j-000100", Seq: 100,
				Request: json.RawMessage(`{"type":"ode","scenario":"ghost"}`),
				Key:     "ghost", SubmittedAt: time.Now()})
			h.open(Config{Workers: 1}, false)
			return "j-000100"
		}},
		{"remote_success", StatusSucceeded, true, func(h *lcHarness) string {
			h.open(lcCluster, true)
			h.mark()
			job := h.submit(lcThreshold)
			lj, err := h.svc.LeaseNext("w1")
			if err != nil || lj == nil {
				h.t.Fatalf("lease: %v, %v", lj, err)
			}
			sc, err := ScenarioFromTable(lj.Scenario)
			if err != nil {
				h.t.Fatal(err)
			}
			raw, err := ExecuteRequest(h.svc.baseCtx, sc, lj.Request, 1, nil)
			if err != nil {
				h.t.Fatal(err)
			}
			if _, err := h.svc.CompleteLease(job.ID, ResultRequest{WorkerID: "w1",
				LeaseToken: lj.LeaseToken, Status: string(StatusSucceeded), Result: raw}); err != nil {
				h.t.Fatal(err)
			}
			return job.ID
		}},
		{"reaped_exhausted", StatusFailed, true, func(h *lcHarness) string {
			cfg := lcCluster
			cfg.Cluster.MaxAttempts = 1
			cfg.Cluster.LeaseTTL = 20 * time.Millisecond
			h.open(cfg, true)
			h.mark()
			job := h.submit(lcThreshold)
			if lj, err := h.svc.LeaseNext("w1"); err != nil || lj == nil {
				h.t.Fatalf("lease: %v, %v", lj, err)
			}
			return job.ID
		}},
		{"restart_exhausted_budget", StatusFailed, true, func(h *lcHarness) string {
			// A restart must not reset the attempt budget: the job leased
			// once under a 1-attempt budget is not granted again.
			cfg := lcCluster
			cfg.Cluster.MaxAttempts = 1
			cfg.Cluster.LeaseTTL = time.Hour
			h.open(cfg, true)
			job := h.submit(lcThreshold)
			if lj, err := h.svc.LeaseNext("w1"); err != nil || lj == nil {
				h.t.Fatalf("lease: %v, %v", lj, err)
			}
			h.close()
			h.open(cfg, false)
			h.mark()
			if lj, err := h.svc.LeaseNext("w1"); err != nil || lj != nil {
				h.t.Fatalf("restarted job leased again (%+v, %v) past its 1-attempt budget", lj, err)
			}
			if j, _ := h.svc.Job(job.ID); !strings.Contains(j.Error, "attempt budget is exhausted (1/1)") {
				h.t.Errorf("exhausted job error %q, want it to name the budget", j.Error)
			}
			return job.ID
		}},
		{"restart_shutdown_keeps_budget", StatusSucceeded, true, func(h *lcHarness) string {
			// Shutdowns alone must not spend the attempt budget: the run
			// Close cancels hands its attempt back, and the job queued
			// behind it is never granted. Three restarts under a 1-attempt
			// budget leave both jobs startable.
			cfg := Config{Workers: 1, Cluster: ClusterConfig{MaxAttempts: 1}}
			h.open(cfg, true)
			slow := h.submit(lcSlow)
			waitRunning(h.t, h.svc, slow.ID)
			queued := h.submit(Request{Type: JobODE, Scenario: "tiny", Params: Params{Lambda0: 0.02, Tf: 40}})
			for life := 2; life <= 4; life++ {
				h.close()
				h.svc.mu.Lock()
				r := h.svc.jobs[queued.ID]
				st, attempts := r.job.Status, r.attempts
				h.svc.mu.Unlock()
				if st != StatusQueued || attempts != 0 {
					h.t.Fatalf("job queued at Close: %s after %d grants, want still queued, never granted", st, attempts)
				}
				if life == 4 {
					cfg.Workers = 2 // the slow job no longer blocks the queued one
				}
				h.open(cfg, false)
				waitRunning(h.t, h.svc, slow.ID)
			}
			return queued.ID
		}},
		{"reaped_user_cancelled", StatusCancelled, true, func(h *lcHarness) string {
			h.open(lcCluster, true)
			h.mark()
			job := h.submit(lcThreshold)
			if lj, err := h.svc.LeaseNext("w1"); err != nil || lj == nil {
				h.t.Fatalf("lease: %v, %v", lj, err)
			}
			if _, err := h.svc.Cancel(job.ID); err != nil {
				h.t.Fatal(err)
			}
			return job.ID
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &lcHarness{t: t, dir: t.TempDir(), base: map[Status]int64{}}
			id := tc.run(h)
			job := waitJob(t, h.svc, id)
			if job.Status != tc.want {
				t.Fatalf("status %s (%s), want %s", job.Status, job.Error, tc.want)
			}
			// Close waits for the workers and the reaper, so everything the
			// settling goroutine does after publishing the status has landed.
			h.close()
			s := h.svc

			entries := s.journal.Replay(id)
			finals := 0
			for _, en := range entries {
				if en.Final {
					finals++
				}
			}
			if finals != 1 || len(entries) == 0 || !entries[len(entries)-1].Final {
				t.Errorf("journal has %d final entries (last final: %v), want exactly one, last",
					finals, len(entries) > 0 && entries[len(entries)-1].Final)
			}

			spanStatus, found := "", false
			for _, sp := range s.tracer.Finished() {
				if sp.Name == "job."+string(job.Type) && sp.Attrs["job_id"] == id {
					spanStatus, found = sp.Attrs["status"], true
				}
			}
			if !found {
				t.Error("job span never ended")
			} else if spanStatus != string(tc.want) {
				t.Errorf("job span status attribute %q, want %q", spanStatus, tc.want)
			}

			if got := s.met.outcomes[tc.want].Value() - h.base[tc.want]; got != 1 {
				t.Errorf("outcome counter %s rose by %d, want 1", tc.want, got)
			}

			want := 0
			if tc.wantWAL {
				want = 1
			}
			if got := h.finishedRecords(id); got != want {
				t.Errorf("WAL finished records = %d, want %d", got, want)
			}
		})
	}
}

// appendSubmitted writes one submitted record into the data directory's
// WAL while no service holds the store.
func appendSubmitted(t *testing.T, dir string, js store.JobState) {
	t.Helper()
	st, err := store.Open(dir, store.Options{SyncMode: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSubmitted(js); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
