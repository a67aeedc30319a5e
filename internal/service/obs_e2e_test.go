package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rumornet/internal/obs"
)

// getRaw fetches a path without JSON decoding, returning the response body
// and headers.
func (e *testServer) getRaw(path string) (string, http.Header) {
	e.t.Helper()
	resp, err := e.ts.Client().Get(e.ts.URL + path)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		e.t.Fatalf("GET %s: status %d — body %s", path, resp.StatusCode, raw)
	}
	return string(raw), resp.Header
}

// TestE2EMetricsEndpoint verifies the acceptance criterion: GET /metrics
// returns valid Prometheus text format including the job latency histogram
// and the queue gauges, with counters consistent with the jobs just run.
func TestE2EMetricsEndpoint(t *testing.T) {
	e := newE2E(t, Config{Workers: 2, QueueDepth: 8})
	body := `{"type":"ode","scenario":"tiny","params":{"lambda0":0.02,"tf":40,"points":50}}`
	mustSucceed(t, e.submitAndWait(body))
	e.post("/v1/jobs", body, http.StatusOK) // cache hit

	text, hdr := e.getRaw("/metrics")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text 0.0.4", ct)
	}
	for _, want := range []string{
		"# TYPE rumor_job_duration_seconds histogram",
		`rumor_job_duration_seconds_count{type="ode"} 1`,
		`rumor_job_duration_seconds_bucket{type="ode",le="+Inf"} 1`,
		"# TYPE rumor_queue_depth gauge",
		"rumor_queue_depth 0",
		"rumor_queue_capacity 8",
		"rumor_workers 2",
		"rumor_jobs_submitted_total 2",
		"rumor_cache_hits_total 1",
		"rumor_cache_misses_total 1",
		`rumor_jobs_finished_total{status="succeeded"} 2`,
		"# TYPE rumor_queue_wait_seconds histogram",
		"rumor_queue_wait_seconds_count 1",
		"# TYPE rumor_http_requests_total counter",
		"rumor_jobs_running 0",
		"rumor_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Histogram bucket cumulativity for the job-duration family.
	var prev int64 = -1
	var buckets int
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `rumor_job_duration_seconds_bucket{type="ode",le="`) {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
		buckets++
	}
	// The HDR layout's 32 power-of-two bounds, 2^-20 … 2^11 s, plus +Inf.
	if buckets != 33 {
		t.Errorf("ode bucket lines = %d, want 33", buckets)
	}
}

// TestFleetMergeLossless: two workers relay their ABM step histograms
// through the heartbeat's JSON wire form, and the coordinator renders
// rumor_fleet_abm_step_seconds exactly as one registry histogram fed both
// workers' samples renders (the fine-grained quantile equality is
// TestMergeSnapshotsLossless in internal/obs).
func TestFleetMergeLossless(t *testing.T) {
	e := newE2E(t, Config{Workers: 1, Cluster: ClusterConfig{Enabled: true}})
	single := obs.NewRegistry()
	all := single.Histogram("rumor_fleet_abm_step_seconds", "ABM sweep wall time.")
	for _, w := range []struct {
		id    string
		scale float64
	}{{"w1", 2e-4}, {"w2", 3e-2}} {
		reg := obs.NewRegistry()
		h := reg.Histogram("rumor_abm_step_seconds", "ABM sweep wall time.")
		for i := 1; i <= 2000; i++ {
			v := w.scale * float64(i%97+1)
			h.Record(v)
			all.Record(v)
		}
		blob, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			t.Fatal(err)
		}
		e.svc.storeWorkerTelemetry(w.id, snap, nil)
	}

	var want strings.Builder
	if err := single.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	text, _ := e.getRaw("/metrics")
	for _, line := range strings.Split(want.String(), "\n") {
		// _sum adds the same samples in another order: float rounding.
		if strings.HasPrefix(line, "rumor_fleet_abm_step_seconds_sum") {
			continue
		}
		if strings.HasPrefix(line, "rumor_fleet_") && !strings.Contains(text, line+"\n") {
			t.Errorf("/metrics missing %q", line)
		}
	}
	for _, w := range []string{"w1", "w2"} {
		if l := `rumor_worker_abm_step_seconds_count{worker="` + w + `"} 2000`; !strings.Contains(text, l+"\n") {
			t.Errorf("/metrics missing %q", l)
		}
	}
}

// TestE2ERequestID verifies the middleware: generated ids are returned,
// client-supplied ids are echoed verbatim.
func TestE2ERequestID(t *testing.T) {
	e := newE2E(t, Config{Workers: 1})
	_, hdr := e.getRaw("/healthz")
	if rid := hdr.Get("X-Request-Id"); !strings.HasPrefix(rid, "r-") {
		t.Errorf("generated request id %q, want r-NNNNNN", rid)
	}

	req, err := http.NewRequest(http.MethodGet, e.ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-abc123")
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-Id"); rid != "trace-abc123" {
		t.Errorf("client request id not echoed: %q", rid)
	}
}

// TestE2EFBSMProgressLive is the acceptance criterion for solver tracing: a
// running FBSM job exposes live progress on GET /v1/jobs/{id}. The huge
// grid parks the job inside its first forward sweep, whose checkpoints
// (every 256 of 400k integration steps) appear long before any result.
func TestE2EFBSMProgressLive(t *testing.T) {
	e := newE2E(t, Config{Workers: 1})
	job := e.post("/v1/jobs",
		`{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":120}`,
		http.StatusAccepted)

	deadline := time.Now().Add(30 * time.Second)
	var cur Job
	for {
		e.do(http.MethodGet, "/v1/jobs/"+job.ID, "", http.StatusOK, &cur)
		if cur.Progress != nil {
			break
		}
		if cur.Status.Terminal() {
			t.Fatalf("job settled before any progress: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress surfaced on a running FBSM job")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cur.Status != StatusRunning {
		t.Errorf("progress on a %s job, want running", cur.Status)
	}
	p := cur.Progress
	if !strings.HasPrefix(p.Stage, obs.StageFBSM) {
		t.Errorf("stage %q, want an fbsm stage", p.Stage)
	}
	if p.Step < 1 || p.UpdatedAt.IsZero() {
		t.Errorf("implausible checkpoint: %+v", p)
	}
	e.do(http.MethodDelete, "/v1/jobs/"+job.ID, "", http.StatusOK, nil)
	e.wait(job.ID)
}

// TestE2EProgressRetained: once a job completes, its final checkpoint stays
// on the record — for FBSM that is the last iteration's convergence
// residual (Value) and objective (Cost).
func TestE2EProgressRetained(t *testing.T) {
	e := newE2E(t, Config{Workers: 2})
	job := e.submitAndWait(`{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.05,"tf":20,"grid":120,"eps_max":0.6}}`)
	mustSucceed(t, job)
	p := job.Progress
	if p == nil {
		t.Fatal("completed FBSM job retained no progress")
	}
	if p.Stage != obs.StageFBSM {
		t.Fatalf("final stage %q, want %q (the per-iteration event)", p.Stage, obs.StageFBSM)
	}
	var res FBSMResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatal(err)
	}
	if p.Step != res.Iterations {
		t.Errorf("final checkpoint at iteration %d, result says %d", p.Step, res.Iterations)
	}
	if p.Value <= 0 {
		t.Errorf("convergence residual %g, want > 0", p.Value)
	}
	if p.Cost <= 0 {
		t.Errorf("objective %g, want > 0", p.Cost)
	}

	ode := e.submitAndWait(`{"type":"ode","scenario":"tiny","params":{"lambda0":0.02,"tf":40,"points":50}}`)
	mustSucceed(t, ode)
	if ode.Progress == nil || ode.Progress.Stage != obs.StageODE {
		t.Fatalf("completed ODE job progress: %+v", ode.Progress)
	}
	if ode.Progress.Step != ode.Progress.Total {
		t.Errorf("final ODE checkpoint %d/%d, want the last step", ode.Progress.Step, ode.Progress.Total)
	}
}

// lockedBuffer serializes writes so the service's worker goroutines and the
// test can share one log sink without a data race.
type lockedBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestE2EStructuredLogging wires a JSON logger into the service and checks
// the job lifecycle records carry correlatable ids.
func TestE2EStructuredLogging(t *testing.T) {
	var buf lockedBuffer
	lg, err := obs.NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	e := newE2E(t, Config{Workers: 1, Logger: lg, ProgressLogEvery: 1})
	job := e.submitAndWait(`{"type":"ode","scenario":"tiny","params":{"lambda0":0.02,"tf":40,"points":50}}`)
	mustSucceed(t, job)

	var queued, started, finished, progressed, httpLogged bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		forThisJob := rec["job_id"] == job.ID
		switch rec["msg"] {
		case "job queued":
			queued = queued || forThisJob
		case "job started":
			started = started || forThisJob
		case "job finished":
			if forThisJob {
				finished = true
				if rec["status"] != string(StatusSucceeded) {
					t.Errorf("finish record status: %v", rec)
				}
			}
		case "job progress":
			progressed = progressed || forThisJob
		case "http request":
			if rid, _ := rec["request_id"].(string); rid != "" {
				httpLogged = true
			}
		}
	}
	if !queued || !started || !finished {
		t.Errorf("lifecycle records missing: queued=%v started=%v finished=%v in\n%s",
			queued, started, finished, buf.String())
	}
	if !progressed {
		t.Error("no progress record despite ProgressLogEvery=1")
	}
	if !httpLogged {
		t.Error("no http request record with a request id")
	}
}

// TestE2EMetricsConcurrentScrape hammers /metrics while jobs execute; under
// -race this is the scrape-under-load gate of the tier-2 acceptance
// criteria.
func TestE2EMetricsConcurrentScrape(t *testing.T) {
	e := newE2E(t, Config{Workers: 4, QueueDepth: 64})
	const submitters, scrapes = 8, 40
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"type":"threshold","scenario":"tiny","params":{"seed":%d}}`, i+1)
			resp, err := e.ts.Client().Post(e.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	errc := make(chan error, scrapes)
	for i := 0; i < scrapes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := e.ts.Client().Get(e.ts.URL + "/metrics")
			if err != nil {
				errc <- err
				return
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errc <- err
				return
			}
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "rumor_jobs_submitted_total") {
				errc <- fmt.Errorf("scrape status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("concurrent scrape: %v", err)
	}
	for _, j := range e.svc.Jobs() {
		e.wait(j.ID)
	}
}

// TestE2ENoGoroutineLeak runs a full service lifecycle — jobs, scrapes, a
// cancellation — and asserts the goroutine count settles back to the
// pre-service baseline after Close.
func TestE2ENoGoroutineLeak(t *testing.T) {
	// Let goroutines from sibling tests settle before taking the baseline.
	settle := func(target int) bool {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > target {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(10 * time.Millisecond)
		}
		return true
	}
	settle(runtime.NumGoroutine()) // one pass purely to quiesce
	before := runtime.NumGoroutine()

	func() {
		e := newE2E(t, Config{Workers: 3, QueueDepth: 8})
		mustSucceed(t, e.submitAndWait(`{"type":"threshold","scenario":"tiny"}`))
		park := e.post("/v1/jobs",
			`{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":120}`,
			http.StatusAccepted)
		e.getRaw("/metrics")
		// An SSE stream opened and torn down mid-job must not leave its
		// handler or journal subscriber behind.
		ch, cancelSSE := e.openSSE("/v1/jobs/" + park.ID + "/events")
		nextSSE(t, ch, 30*time.Second, func(ev sseEvent) bool { return ev.event != "comment" })
		cancelSSE()
		for range ch {
		}
		e.do(http.MethodDelete, "/v1/jobs/"+park.ID, "", http.StatusOK, nil)
		e.wait(park.ID)
		// newE2E registered ts.Close + svc.Close via t.Cleanup, which runs
		// only at test end — close both here instead, in the same order.
		e.ts.Close()
		e.svc.Close()
	}()

	// +2 tolerates runtime-internal goroutines (GC workers, timers) that
	// may have started legitimately during the burst.
	if !settle(before + 2) {
		t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
	}
}
