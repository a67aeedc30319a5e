package worker_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rumornet/internal/cluster/worker"
	"rumornet/internal/obs/trace"
	"rumornet/internal/service"
	"rumornet/internal/store"
)

// The PR 8 acceptance suite: the cluster-wide observability plane. A job
// executed remotely must look exactly as observable as a local one — one
// trace across both processes, one journal stream on the SSE endpoint, and
// the worker's metrics re-exported from the coordinator's /metrics page.

// getBody GETs a coordinator path and returns status + body.
func (h *harness) getBody(path string) (int, []byte) {
	h.t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.StatusCode, body
}

// startWorkerOpts runs a worker node with extra option tweaks on top of
// the harness's fast test timings.
func (h *harness) startWorkerOpts(id string, mut func(*worker.Options)) {
	h.t.Helper()
	opts := worker.Options{
		Coordinator: h.ts.URL,
		ID:          id,
		PollMin:     2 * time.Millisecond,
		PollMax:     20 * time.Millisecond,
	}
	if mut != nil {
		mut(&opts)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- worker.Run(ctx, opts) }()
	h.t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				h.t.Errorf("worker %s: %v", id, err)
			}
		case <-time.After(30 * time.Second):
			h.t.Fatalf("worker %s did not stop", id)
		}
	})
}

// dumpSpans fetches the coordinator's finished spans through the same
// /debug/events handler rumord mounts.
func dumpSpans(t *testing.T, svc *service.Service) []trace.SpanData {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.EventsDumpHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/events", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("events dump: %d %s", rec.Code, rec.Body.String())
	}
	var dump struct {
		Spans []trace.SpanData `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	return dump.Spans
}

// TestClusterObservabilityEndToEnd runs one job through a real worker node
// and checks the three relay planes land on the coordinator:
//
//   - tracing: the worker's stage.* spans carry the job's trace id and
//     parent onto the coordinator's job.<type> span — one coherent trace;
//   - journal: GET /v1/jobs/{id}/events replays the worker's lifecycle
//     entries inside the job's stream, trace-correlated and before the
//     terminal entry;
//   - metrics: GET /metrics re-exports the worker's registry under
//     rumor_worker_*{worker="..."} plus rumor_fleet_* aggregates, and
//     GET /v1/workers carries the telemetry sample.
//
// It also pins the degraded /readyz body shape: a JSON reason list.
func TestClusterObservabilityEndToEnd(t *testing.T) {
	h := newCoordinator(t, nil)

	// Queued work, no workers: degraded, and the body enumerates why.
	queued, err := h.svc.Submit(service.Request{Type: service.JobODE, Scenario: "tiny",
		Params: service.Params{Lambda0: 0.02, Tf: 40, Points: 50}})
	if err != nil {
		t.Fatal(err)
	}
	code, body := h.getBody("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with queued work, no workers: %d, want 503", code)
	}
	var degraded struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal(body, &degraded); err != nil {
		t.Fatalf("degraded body is not JSON: %v\n%s", err, body)
	}
	if degraded.Status != "degraded" || len(degraded.Reasons) == 0 ||
		!strings.Contains(degraded.Reasons[0], "worker") {
		t.Errorf("degraded body = %+v, want status degraded + a no-live-workers reason", degraded)
	}

	h.startWorker("w-obs")
	job := h.waitJob(queued.ID)
	if job.Status != service.StatusSucceeded {
		t.Fatalf("job: %s (%s)", job.Status, job.Error)
	}
	if job.TraceID == "" {
		t.Fatal("job has no trace id")
	}

	// Tracing: one trace spanning both processes. The coordinator owns
	// job.ode; the worker uploaded stage.ode parented under it.
	spans := dumpSpans(t, h.svc)
	var jobSpan, stageSpan *trace.SpanData
	for i := range spans {
		sp := &spans[i]
		if sp.TraceID != job.TraceID {
			continue
		}
		switch {
		case sp.Name == "job.ode":
			jobSpan = sp
		case strings.HasPrefix(sp.Name, "stage."):
			stageSpan = sp
		}
	}
	if jobSpan == nil {
		t.Fatalf("no job.ode span with trace %s among %d spans", job.TraceID, len(spans))
	}
	if stageSpan == nil {
		t.Fatalf("no worker stage.* span with trace %s — the relay dropped the spans", job.TraceID)
	}
	if stageSpan.ParentID != jobSpan.SpanID {
		t.Errorf("stage span parent = %s, want the job span %s", stageSpan.ParentID, jobSpan.SpanID)
	}
	if stageSpan.Attrs["worker"] != "w-obs" || stageSpan.Attrs["job_id"] != job.ID {
		t.Errorf("stage span attrs = %v, want worker and job attribution", stageSpan.Attrs)
	}

	// Journal: the SSE replay carries the worker's lifecycle entries inside
	// the job's stream, trace-correlated, with the terminal entry last.
	code, body = h.getBody("/v1/jobs/" + job.ID + "/events?follow=0")
	if code != http.StatusOK {
		t.Fatalf("events replay: %d %s", code, body)
	}
	stream := string(body)
	execIdx := strings.Index(stream, `executing on worker \"w-obs\"`)
	finishIdx := strings.Index(stream, `executor finished on worker \"w-obs\": succeeded`)
	finalIdx := strings.Index(stream, `"final":true`)
	if execIdx < 0 || finishIdx < 0 {
		t.Fatalf("replay missing worker lifecycle entries:\n%s", stream)
	}
	if finalIdx < 0 || finishIdx > finalIdx {
		t.Errorf("worker entries not ordered before the terminal entry:\n%s", stream)
	}
	if !strings.Contains(stream, fmt.Sprintf(`"trace_id":"%s"`, job.TraceID)) {
		t.Errorf("replay entries not trace-correlated to %s:\n%s", job.TraceID, stream)
	}

	// Metrics: the worker's registry re-exported with a worker label, plus
	// fleet aggregates, after the coordinator's own families. Snapshots
	// relay on a throttle (the health sample rides every send), so the
	// post-job counters converge within a window of the result — the idle
	// worker's lease polls flush them. Poll /metrics until they land.
	wants := []string{
		`rumor_worker_jobs_executed_total{worker="w-obs"} 1`,
		`rumor_worker_runtime_goroutines{worker="w-obs"}`,
		`rumor_worker_invariant_violations_total{check="mass_conservation",worker="w-obs"} 0`,
		"rumor_fleet_jobs_executed_total 1",
		"rumor_fleet_runtime_goroutines",
		"rumor_jobs_submitted_total", // the coordinator's own families stay
	}
	var page string
	for deadline := time.Now().Add(10 * time.Second); ; {
		var code int
		code, body = h.getBody("/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics: %d", code)
		}
		page = string(body)
		missing := ""
		for _, want := range wants {
			if !strings.Contains(page, want) {
				missing = want
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics page never showed %q:\n%s", missing, page)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Fleet introspection: the registry carries the telemetry sample.
	ws := h.svc.Workers()
	if len(ws) != 1 || ws[0].Telemetry == nil {
		t.Fatalf("workers = %+v, want one worker with telemetry", ws)
	}
	tel := ws[0].Telemetry
	if tel.JobsExecuted != 1 || tel.Goroutines <= 0 || tel.GOMAXPROCS <= 0 ||
		tel.HeapAllocBytes == 0 || tel.UptimeSeconds <= 0 {
		t.Errorf("telemetry sample = %+v, want populated runtime vitals", tel)
	}
	if tel.InvariantViolations != 0 {
		t.Errorf("invariant violations = %d, want 0 on a healthy run", tel.InvariantViolations)
	}

	// Healthy again: readyz recovered with the worker live and queue idle.
	if code, _ = h.getBody("/readyz"); code != http.StatusOK {
		t.Errorf("readyz after completion: %d, want 200", code)
	}
}

// TestScenarioWALReplay is satellite 1: an uploaded scenario is persisted
// in the WAL, so a coordinator restart re-registers it and the recovered
// job completes instead of failing with "unknown scenario".
func TestScenarioWALReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := service.Config{
		QueueDepth: 16,
		StoreDir:   dir,
		StoreOptions: store.Options{
			SyncMode: store.SyncNone,
		},
		Cluster: service.ClusterConfig{
			Enabled:  true,
			LeaseTTL: time.Hour, // no reaping; the restart does the work
		},
	}
	svc1, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.RegisterScenario("uploaded", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2}); err != nil {
		t.Fatal(err)
	}
	job, err := svc1.Submit(service.Request{Type: service.JobThreshold, Scenario: "uploaded",
		Params: service.Params{Lambda0: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close() // crash with the job queued on an uploaded scenario

	if n := countWAL(t, dir, `"op":"scenario"`); n != 1 {
		t.Fatalf("WAL holds %d scenario records, want 1", n)
	}

	h := &harness{t: t, journal: &syncBuffer{}}
	cfg.JournalSink = h.journal
	h.svc, err = service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.ts = httptest.NewServer(h.svc.Handler())
	t.Cleanup(func() {
		h.ts.Close()
		h.svc.Close()
	})

	// The scenario came back with the store...
	if _, err := h.svc.Scenario("uploaded"); err != nil {
		t.Fatalf("uploaded scenario did not survive the restart: %v", err)
	}
	if got := h.svc.Stats().Store.ScenarioReplays; got != 1 {
		t.Errorf("scenario replays = %d, want 1", got)
	}
	// ...and the recovered job runs to completion on it.
	rec, ok := h.svc.Job(job.ID)
	if !ok || rec.Status != service.StatusQueued {
		t.Fatalf("recovered job = %+v ok=%v, want queued", rec, ok)
	}
	h.startWorker("w-replay")
	done := h.waitJob(job.ID)
	if done.Status != service.StatusSucceeded {
		t.Fatalf("recovered job on replayed scenario: %s (%s)", done.Status, done.Error)
	}

	// Replaying the same WAL again does not duplicate the registration.
	h2, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.Stats().Store.ScenarioReplays; got != 1 {
		t.Errorf("second recovery scenario replays = %d, want 1 (first registration wins)", got)
	}
}
