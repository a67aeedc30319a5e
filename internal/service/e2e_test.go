package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer couples a Service to an httptest.Server, exercising the same
// handler stack cmd/rumord serves.
type testServer struct {
	t   *testing.T
	svc *Service
	ts  *httptest.Server
}

func newE2E(t *testing.T, cfg Config) *testServer {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	e := &testServer{t: t, svc: svc, ts: ts}
	e.post("/v1/scenarios", `{"name":"tiny","degrees":[2,4,8],"probs":[0.5,0.3,0.2]}`, http.StatusCreated)
	return e
}

// do issues a request and decodes the JSON response into out (if non-nil),
// asserting the status code.
func (e *testServer) do(method, path, body string, wantStatus int, out any) {
	e.t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		e.t.Fatalf("%s %s: status %d, want %d — body %s", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			e.t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
}

func (e *testServer) post(path, body string, wantStatus int) Job {
	e.t.Helper()
	var job Job
	e.do(http.MethodPost, path, body, wantStatus, &job)
	return job
}

// submitAndWait submits a job and polls GET /v1/jobs/{id} until terminal.
func (e *testServer) submitAndWait(body string) Job {
	e.t.Helper()
	job := e.post("/v1/jobs", body, http.StatusAccepted)
	return e.wait(job.ID)
}

func (e *testServer) wait(id string) Job {
	e.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var job Job
		e.do(http.MethodGet, "/v1/jobs/"+id, "", http.StatusOK, &job)
		if job.Status.Terminal() {
			return job
		}
		time.Sleep(3 * time.Millisecond)
	}
	e.t.Fatalf("job %s did not settle", id)
	return Job{}
}

func mustSucceed(t *testing.T, job Job) {
	t.Helper()
	if job.Status != StatusSucceeded {
		t.Fatalf("job %s: %s (%s)", job.ID, job.Status, job.Error)
	}
}

func TestE2EODEJob(t *testing.T) {
	e := newE2E(t, Config{Workers: 2})
	job := e.submitAndWait(`{"type":"ode","scenario":"tiny","params":{"lambda0":0.02,"tf":40,"points":50}}`)
	mustSucceed(t, job)
	var res ODEResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.T) < 2 || len(res.T) != len(res.MeanI) {
		t.Fatalf("trajectory shape: %d times, %d values", len(res.T), len(res.MeanI))
	}
	if len(res.T) > 60 {
		t.Errorf("points bound ignored: %d samples returned", len(res.T))
	}
	if res.R0 <= 0 || res.PeakI < res.FinalI {
		t.Errorf("implausible ODE result: %+v", res)
	}
	if job.ElapsedMS <= 0 {
		t.Error("elapsed_ms missing for an executed job")
	}
}

func TestE2EThresholdJob(t *testing.T) {
	e := newE2E(t, Config{Workers: 2})
	job := e.submitAndWait(`{"type":"threshold","scenario":"tiny","params":{"r0":1.6,"tf":30}}`)
	mustSucceed(t, job)
	var res ThresholdResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatal(err)
	}
	// The model was calibrated to r0 = 1.6; supercritical, so E+ exists.
	if res.R0 < 1.55 || res.R0 > 1.65 {
		t.Errorf("calibrated r0 = %g, want ≈ 1.6", res.R0)
	}
	if res.ThetaPlus == nil || *res.ThetaPlus <= 0 {
		t.Errorf("supercritical scenario should report Θ+: %+v", res)
	}
	if res.RequiredEps1 <= 0 || res.RequiredEps2 <= 0 {
		t.Errorf("required controls missing: %+v", res)
	}
}

func TestE2EABMJob(t *testing.T) {
	e := newE2E(t, Config{Workers: 2, InnerWorkers: 2})
	job := e.submitAndWait(`{"type":"abm","scenario":"tiny","params":{"lambda0":0.05,"tf":10,"trials":2,"nodes":600}}`)
	mustSucceed(t, job)
	var res ABMResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Trials != 2 || res.Nodes != 600 {
		t.Errorf("abm sizes: %+v", res)
	}
	if len(res.T) != len(res.I) || len(res.T) < 2 {
		t.Errorf("abm trajectory shape: %d/%d", len(res.T), len(res.I))
	}
}

func TestE2EFBSMJob(t *testing.T) {
	e := newE2E(t, Config{Workers: 2})
	job := e.submitAndWait(`{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.05,"tf":20,"grid":120,"eps_max":0.6}}`)
	mustSucceed(t, job)
	var res FBSMResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.T) != 121 || len(res.Eps1) != 121 || len(res.Eps2) != 121 {
		t.Fatalf("schedule length %d/%d/%d, want 121", len(res.T), len(res.Eps1), len(res.Eps2))
	}
	if res.Total <= 0 || res.Iterations < 1 {
		t.Errorf("implausible policy: %+v", res)
	}
	for i, v := range res.Eps1 {
		if v < 0 || v > 0.6 || res.Eps2[i] < 0 || res.Eps2[i] > 0.6 {
			t.Fatalf("control out of [0, eps_max] at node %d: %g, %g", i, v, res.Eps2[i])
		}
	}
}

// TestE2ECacheHit verifies the acceptance-criterion path: identical
// resubmission returns synchronously with cache_hit=true, byte-identical
// result, and /v1/stats reflects it.
func TestE2ECacheHit(t *testing.T) {
	e := newE2E(t, Config{Workers: 2})
	body := `{"type":"ode","scenario":"tiny","params":{"lambda0":0.02,"tf":40,"points":50}}`
	first := e.submitAndWait(body)
	mustSucceed(t, first)

	// Field order and explicit defaults must not defeat the cache.
	reordered := `{"params":{"tf":40,"points":50,"lambda0":0.02,"alpha":0.01},"scenario":"tiny","type":"ode"}`
	hit := e.post("/v1/jobs", reordered, http.StatusOK)
	if !hit.CacheHit || hit.Status != StatusSucceeded {
		t.Fatalf("want synchronous cache hit, got %+v", hit)
	}
	if !bytes.Equal(hit.Result, first.Result) {
		t.Error("cached result differs from the original")
	}

	var st Stats
	e.do(http.MethodGet, "/v1/stats", "", http.StatusOK, &st)
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache counters: %+v", st.Cache)
	}
	if st.Cache.HitRate != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", st.Cache.HitRate)
	}
	if st.Jobs.Completed != 2 {
		t.Errorf("completed = %d, want 2", st.Jobs.Completed)
	}
	if ls := st.LatencyMS["ode"]; ls.Count != 1 {
		t.Errorf("latency must exclude cache hits: %+v", st.LatencyMS)
	}
}

func TestE2ETimeout(t *testing.T) {
	e := newE2E(t, Config{Workers: 1})
	job := e.post("/v1/jobs",
		`{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":0.05}`,
		http.StatusAccepted)
	done := e.wait(job.ID)
	if done.Status != StatusFailed || !strings.Contains(done.Error, "timed out") {
		t.Errorf("want timeout failure, got %s (%s)", done.Status, done.Error)
	}
}

func TestE2ECancelRunning(t *testing.T) {
	e := newE2E(t, Config{Workers: 1})
	job := e.post("/v1/jobs",
		`{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":120}`,
		http.StatusAccepted)
	// Wait for the worker to pick it up, then cancel mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur Job
		e.do(http.MethodGet, "/v1/jobs/"+job.ID, "", http.StatusOK, &cur)
		if cur.Status == StatusRunning {
			break
		}
		if cur.Status.Terminal() {
			t.Fatalf("job settled before it could be cancelled: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.do(http.MethodDelete, "/v1/jobs/"+job.ID, "", http.StatusOK, nil)
	done := e.wait(job.ID)
	if done.Status != StatusCancelled || !strings.Contains(done.Error, "cancelled by client") {
		t.Errorf("want client cancellation, got %s (%s)", done.Status, done.Error)
	}
}

func TestE2EQueueFull(t *testing.T) {
	e := newE2E(t, Config{Workers: 1, QueueDepth: 1})
	park := e.post("/v1/jobs",
		`{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":120}`,
		http.StatusAccepted)
	// Wait until the worker dequeues the parked job, freeing the queue slot.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur Job
		e.do(http.MethodGet, "/v1/jobs/"+park.ID, "", http.StatusOK, &cur)
		if cur.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parked job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.post("/v1/jobs", `{"type":"threshold","scenario":"tiny"}`, http.StatusAccepted) // fills the slot
	var errResp struct {
		Error string `json:"error"`
	}
	e.do(http.MethodPost, "/v1/jobs", `{"type":"threshold","scenario":"tiny","params":{"seed":7}}`,
		http.StatusServiceUnavailable, &errResp)
	if !strings.Contains(errResp.Error, "queue full") {
		t.Errorf("503 body: %+v", errResp)
	}
	e.do(http.MethodDelete, "/v1/jobs/"+park.ID, "", http.StatusOK, nil)
	e.wait(park.ID)
}

func TestE2EBadRequests(t *testing.T) {
	e := newE2E(t, Config{Workers: 1})
	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"unknown type", "POST", "/v1/jobs", `{"type":"quantum"}`, 400},
		{"unknown field", "POST", "/v1/jobs", `{"type":"ode","params":{"epsmax":1}}`, 400},
		{"malformed json", "POST", "/v1/jobs", `{"type":`, 400},
		{"unknown scenario", "POST", "/v1/jobs", `{"type":"ode","scenario":"nope"}`, 400},
		{"bad params", "POST", "/v1/jobs", `{"type":"abm","scenario":"tiny"}`, 400},
		{"eps_max above one", "POST", "/v1/jobs", `{"type":"fbsm","scenario":"tiny","params":{"eps_max":1.5}}`, 400},
		{"nan query param", "GET", "/v1/query?type=ode&scenario=tiny&eps1=NaN", "", 400},
		{"infinite query param", "GET", "/v1/query?type=ode&scenario=tiny&tf=Inf", "", 400},
		{"job not found", "GET", "/v1/jobs/j-424242", "", 404},
		{"cancel not found", "DELETE", "/v1/jobs/j-424242", "", 404},
		{"scenario not found", "GET", "/v1/scenarios/ghost", "", 404},
		{"duplicate scenario", "POST", "/v1/scenarios", `{"name":"tiny","degrees":[1],"probs":[1]}`, 409},
		{"invalid table", "POST", "/v1/scenarios", `{"name":"neg","degrees":[1,2],"probs":[2,-1]}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errResp struct {
				Error string `json:"error"`
			}
			e.do(tc.method, tc.path, tc.body, tc.status, &errResp)
			if errResp.Error == "" {
				t.Error("error envelope missing")
			}
		})
	}
}

// TestDecodeBodyTrailingData: a body is one JSON value and optional
// whitespace. A second value or any other trailing data is a 400 on job
// submit, surface build and query, and nothing is submitted; trailing
// whitespace alone is accepted.
func TestDecodeBodyTrailingData(t *testing.T) {
	e := newE2E(t, Config{Workers: 1})
	for _, tc := range []struct{ path, body, extra string }{
		{"/v1/jobs", `{"type":"ode","scenario":"tiny","params":{"tf":5}}`, `{"type":"abm"}`},
		{"/v1/surfaces", `{"type":"threshold","scenario":"tiny","axes":[{"name":"eps1","values":[0.1,0.2]}]}`, `x`},
		{"/v1/query", `{"type":"threshold","scenario":"tiny","params":{"eps1":0.3}}`, `{}`},
	} {
		submitted := e.svc.Stats().Jobs.Submitted
		for _, trailing := range []string{tc.extra, " " + tc.extra, "\n]"} {
			var errResp struct {
				Error string `json:"error"`
			}
			e.do(http.MethodPost, tc.path, tc.body+trailing, http.StatusBadRequest, &errResp)
			if !strings.Contains(errResp.Error, "after the JSON value") {
				t.Errorf("%s with %q after the body: error %q", tc.path, trailing, errResp.Error)
			}
		}
		if got := e.svc.Stats().Jobs.Submitted; got != submitted {
			t.Errorf("%s: %d jobs submitted by rejected bodies", tc.path, got-submitted)
		}
		req, err := http.NewRequest(http.MethodPost, e.ts.URL+tc.path, strings.NewReader(tc.body+" \n\t"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := e.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Errorf("%s with trailing whitespace: status %d", tc.path, resp.StatusCode)
		}
	}
}

func TestE2EOperationalEndpoints(t *testing.T) {
	e := newE2E(t, Config{Workers: 2, QueueDepth: 8})
	var health map[string]string
	e.do(http.MethodGet, "/healthz", "", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Errorf("healthz: %v", health)
	}
	e.do(http.MethodGet, "/readyz", "", http.StatusOK, nil)

	var scList struct {
		Scenarios []Scenario `json:"scenarios"`
	}
	e.do(http.MethodGet, "/v1/scenarios", "", http.StatusOK, &scList)
	if len(scList.Scenarios) != 2 { // builtin + tiny
		t.Fatalf("scenario list: %+v", scList)
	}
	var builtin Scenario
	e.do(http.MethodGet, "/v1/scenarios/"+BuiltinScenario, "", http.StatusOK, &builtin)
	if builtin.Groups == 0 || builtin.Fingerprint == "" {
		t.Errorf("builtin scenario summary: %+v", builtin)
	}

	var st Stats
	e.do(http.MethodGet, "/v1/stats", "", http.StatusOK, &st)
	if st.QueueCapacity != 8 || st.Workers != 2 || st.Draining {
		t.Errorf("stats shape: %+v", st)
	}
}

// TestE2EConcurrentSubmissions hammers the API from many goroutines; run
// under -race this doubles as the data-race check for the whole stack.
func TestE2EConcurrentSubmissions(t *testing.T) {
	e := newE2E(t, Config{Workers: 4, QueueDepth: 64})
	const n = 24
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Three distinct parameter sets so cache hits and misses mix.
			body := fmt.Sprintf(`{"type":"threshold","scenario":"tiny","params":{"seed":%d}}`, i%3+1)
			resp, err := e.ts.Client().Post(e.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var job Job
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				errs[i] = err
				return
			}
			ids[i] = job.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	for _, id := range ids {
		if job := e.wait(id); job.Status != StatusSucceeded {
			t.Errorf("job %s: %s (%s)", id, job.Status, job.Error)
		}
	}
	var st Stats
	e.do(http.MethodGet, "/v1/stats", "", http.StatusOK, &st)
	if st.Jobs.Completed != n {
		t.Errorf("completed = %d, want %d", st.Jobs.Completed, n)
	}
	if st.Cache.Hits+st.Cache.Misses != n || st.Cache.Misses < 3 {
		t.Errorf("cache accounting: %+v", st.Cache)
	}
}
