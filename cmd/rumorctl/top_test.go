package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rumornet/internal/cli"
)

// cannedTelemetryRegistry serves a /v1/workers page where one worker
// reports telemetry and one has not heartbeated a sample yet.
func cannedTelemetryRegistry(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		now := time.Now().UTC().Format(time.RFC3339Nano)
		fmt.Fprintf(w, `{"workers":[
			{"id":"w-alpha","live":true,"leases_held":1,"jobs_completed":42,
			 "last_seen":%q,"oldest_lease_age_ms":1234.5,
			 "telemetry":{"stage":"abm","invariant_violations":3,"jobs_executed":45,
			              "goroutines":17,"gomaxprocs":4,"heap_alloc_bytes":5242880,
			              "gc_pause_seconds_total":0.01,"uptime_seconds":90}},
			{"id":"w-beta","live":false,"leases_held":0,"jobs_completed":7,"last_seen":%q}
		],"count":2}`, now, now)
	}))
}

// TestWorkersTelemetryColumns checks the extended workers table renders the
// relayed sample, and dashes for a worker that has not reported one.
func TestWorkersTelemetryColumns(t *testing.T) {
	ts := cannedTelemetryRegistry(t)
	defer ts.Close()

	var out strings.Builder
	if err := runWorkers([]string{"-addr", ts.URL}, &out); err != nil {
		t.Fatalf("runWorkers: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"STAGE", "INV", "HEAP", "UPTIME", "LEASE AGE", // the new columns
		"abm", "3", "17", "5.0MiB", "1m30s", "1.2s", // w-alpha's sample
		"w-beta", "-", // no sample yet: dashes
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestTopSubcommand(t *testing.T) {
	ts := cannedTelemetryRegistry(t)
	defer ts.Close()

	var out strings.Builder
	if err := runTop([]string{"-addr", ts.URL}, &out); err != nil {
		t.Fatalf("runTop: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"fleet: 2 workers (1 live)",
		"leases 1",
		"completed 49",
		"invariant violations 3",
		"(1/2 reporting)",
		"w-alpha", "w-beta", // the per-worker table follows
	} {
		if !strings.Contains(got, want) {
			t.Errorf("dashboard missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "\033[") {
		t.Errorf("one-shot run emitted terminal control sequences:\n%s", got)
	}
}

func TestTopFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"extra"},
		{"-nope"},
		{"-watch", "-1s"},
	} {
		if err := runTop(args, &strings.Builder{}); cli.Code(err) != 2 {
			t.Errorf("runTop(%v): err %v, want usage error", args, err)
		}
	}
}

// TestParseLatency pins which /metrics series the dashboard reads: the
// server's windowed p99 gauge, the queue-wait count and the saturation
// verdict — no client-side quantile estimate.
func TestParseLatency(t *testing.T) {
	text := `# TYPE rumor_queue_wait_seconds histogram
rumor_queue_wait_seconds_bucket{le="+Inf"} 100
rumor_queue_wait_seconds_count 100
rumor_queue_wait_class_seconds_count{class="batch"} 60
rumor_queue_wait_window_p99_seconds 0.0625
rumor_saturated 1
`
	s := parseLatency(text)
	if !s.ok || s.count != 100 || !s.detector || s.p99 != 0.0625 || !s.saturated {
		t.Errorf("parse = %+v, want count 100, p99 0.0625, saturated", s)
	}

	// Detector disabled: no window gauge, so no p99 to show.
	off := parseLatency("rumor_queue_wait_seconds_count 7\n")
	if !off.ok || off.count != 7 || off.detector {
		t.Errorf("detector-off parse = %+v, want count 7 without detector", off)
	}
	var sb strings.Builder
	renderLatency(&sb, off)
	if want := "saturation detector disabled (7 jobs)"; !strings.Contains(sb.String(), want) {
		t.Errorf("detector-off line %q, want %q", sb.String(), want)
	}

	// No queue-wait series at all.
	if s := parseLatency("rumor_jobs_total 3\n"); s.ok {
		t.Errorf("parse of a page without queue-wait series claimed ok: %+v", s)
	}
}

// TestTopLatencyLine serves both the worker registry and a /metrics page
// and checks the dashboard renders the queue-wait p99 line with the
// saturation marker.
func TestTopLatencyLine(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/workers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"workers":[],"count":0}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `rumor_queue_wait_seconds_count 100
rumor_queue_wait_window_p99_seconds 0.25
rumor_saturated 1
`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	if err := runTop([]string{"-addr", ts.URL}, &out); err != nil {
		t.Fatalf("runTop: %v", err)
	}
	got := out.String()
	for _, want := range []string{"queue-wait p99 250ms", "(100 jobs)", "[SATURATED]"} {
		if !strings.Contains(got, want) {
			t.Errorf("dashboard missing %q:\n%s", want, got)
		}
	}
}
