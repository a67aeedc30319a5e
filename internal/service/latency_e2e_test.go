package service

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// metricsText scrapes GET /metrics and returns the exposition body.
func (e *testServer) metricsText() string {
	e.t.Helper()
	resp, err := e.ts.Client().Get(e.ts.URL + "/metrics")
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return string(raw)
}

// TestE2ELatencyAttribution submits a job through the HTTP stack and
// asserts the terminal record carries the queue-wait/execute/serialize
// decomposition and that the segment histograms counted it.
func TestE2ELatencyAttribution(t *testing.T) {
	e := newE2E(t, Config{Workers: 2})
	job := e.submitAndWait(`{"type":"ode","scenario":"tiny","params":{"lambda0":0.02,"tf":40,"points":50}}`)
	mustSucceed(t, job)

	if job.Latency == nil {
		t.Fatal("terminal job carries no latency attribution")
	}
	if job.Latency.ExecuteMS <= 0 {
		t.Errorf("execute segment = %gms, want positive", job.Latency.ExecuteMS)
	}
	if job.Latency.QueueWaitMS < 0 || job.Latency.SerializeMS < 0 {
		t.Errorf("negative segment: %+v", job.Latency)
	}
	// The segments partition submission->visibility, so their sum must
	// cover at least the recorded execution latency.
	sum := job.Latency.QueueWaitMS + job.Latency.ExecuteMS + job.Latency.SerializeMS
	if sum < job.ElapsedMS {
		t.Errorf("segments sum to %gms, below elapsed %gms", sum, job.ElapsedMS)
	}

	// Cache hits have no segments to attribute (they answer synchronously
	// with 200, not 202).
	hit := e.post("/v1/jobs", `{"type":"ode","scenario":"tiny","params":{"lambda0":0.02,"tf":40,"points":50}}`, http.StatusOK)
	if !hit.CacheHit {
		t.Fatal("second identical submission should hit the cache")
	}
	if hit.Latency != nil {
		t.Errorf("cache hit carries latency attribution: %+v", hit.Latency)
	}

	text := e.metricsText()
	for _, seg := range []string{segQueueWait, segExecute, segSerialize} {
		if !strings.Contains(text, `rumor_job_latency_segment_seconds_count{segment="`+seg+`"} 1`) {
			t.Errorf("segment %q not counted exactly once in /metrics", seg)
		}
	}
	if !strings.Contains(text, "rumor_saturated 0") {
		t.Error("rumor_saturated gauge missing or nonzero on an idle service")
	}
}

// TestE2ESaturationDetectorDisabled covers the negative saturation budget:
// the detector is off, so /metrics has no rumor_saturated series.
func TestE2ESaturationDetectorDisabled(t *testing.T) {
	e := newE2E(t, Config{Workers: 2, SaturationBudget: -1})
	job := e.submitAndWait(`{"type":"ode","scenario":"tiny","params":{"lambda0":0.02,"tf":40,"points":50}}`)
	mustSucceed(t, job)
	if text := e.metricsText(); strings.Contains(text, "rumor_saturated") {
		t.Error("saturation gauge exported with the detector disabled")
	}
}

// TestE2ESaturationFlip is the acceptance-criteria E2E: a burst past the
// single worker's capacity drives queue-wait p99 over a tiny budget, the
// rumor_saturated gauge flips, and /readyz reports degraded with the
// saturation reason.
func TestE2ESaturationFlip(t *testing.T) {
	e := newE2E(t, Config{
		Workers:          1,
		SaturationBudget: 2 * time.Millisecond,
		SaturationWindow: time.Minute, // no rotation during the test
	})

	// Before the burst: healthy.
	e.do(http.MethodGet, "/readyz", "", http.StatusOK, nil)

	// Park the single worker inside a huge FBSM grid, so the burst below
	// queues behind it for as long as we choose to hold it — the queue
	// waits are then bounded below by the hold time no matter how the
	// scheduler slices this box, instead of racing submission speed
	// against execution speed.
	park := e.post("/v1/jobs",
		`{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":120}`,
		http.StatusAccepted)
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

	ids := make([]string, 0, 8)
	for i := 0; i < cap(ids); i++ {
		job := e.post("/v1/jobs", fmt.Sprintf(
			`{"type":"ode","scenario":"tiny","params":{"lambda0":0.02,"tf":40,"points":50,"seed":%d}}`,
			i+1), http.StatusAccepted)
		ids = append(ids, job.ID)
	}
	// Hold the burst queued well past the 2ms budget, then release the
	// worker: every one of the 8 queue-wait samples lands >= 25ms.
	time.Sleep(25 * time.Millisecond)
	e.do(http.MethodDelete, "/v1/jobs/"+park.ID, "", http.StatusOK, nil)
	e.wait(park.ID)
	for _, id := range ids {
		e.wait(id)
	}

	if !e.svc.sat.Saturated() {
		t.Fatalf("saturation did not flip: windowed p99 %.1fms vs 2ms budget",
			e.svc.sat.p99()*1e3)
	}
	if flips := e.svc.sat.flips.Load(); flips < 1 {
		t.Errorf("healthy->saturated transitions = %d, want at least 1", flips)
	}
	if !strings.Contains(e.metricsText(), "rumor_saturated 1") {
		t.Error("rumor_saturated gauge did not flip in /metrics")
	}

	var ready struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	e.do(http.MethodGet, "/readyz", "", http.StatusServiceUnavailable, &ready)
	if ready.Status != "degraded" {
		t.Errorf("readyz status = %q, want degraded", ready.Status)
	}
	found := false
	for _, r := range ready.Reasons {
		if strings.Contains(r, "saturated") {
			found = true
		}
	}
	if !found {
		t.Errorf("readyz reasons %v carry no saturation detail", ready.Reasons)
	}
}

// TestSatWindowRotation drives the detector with a synthetic clock: the
// verdict must recover once the slow samples age out of the window.
func TestSatWindowRotation(t *testing.T) {
	sw := newSatWindow(10*time.Millisecond, 2*time.Second) // 1s epochs
	base := time.Unix(1000, 0)

	for i := 0; i < 100; i++ {
		sw.observe(50*time.Millisecond, base)
	}
	if !sw.Saturated() {
		t.Fatal("all samples 5x over budget, detector idle")
	}

	// One epoch later the slow samples are still in the window (prev).
	for i := 0; i < 10; i++ {
		sw.observe(time.Millisecond, base.Add(1100*time.Millisecond))
	}
	if !sw.Saturated() {
		t.Fatal("slow epoch aged into prev but still inside the window; must stay saturated")
	}

	// Two more epochs of fast traffic: the slow epoch is gone.
	for i := 0; i < 100; i++ {
		sw.observe(time.Millisecond, base.Add(2200*time.Millisecond))
	}
	for i := 0; i < 100; i++ {
		sw.observe(time.Millisecond, base.Add(3300*time.Millisecond))
	}
	if sw.Saturated() {
		t.Fatalf("slow samples aged out (windowed p99 %.1fms) but verdict stuck saturated",
			sw.p99()*1e3)
	}

	// A long idle gap clears the whole window.
	sw.observe(time.Millisecond, base.Add(time.Hour))
	if got := sw.p99(); got > 0.002 {
		t.Errorf("after a full-window gap p99 = %gms; stale samples survived", got*1e3)
	}
}
