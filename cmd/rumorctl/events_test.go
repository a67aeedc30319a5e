package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rumornet/internal/obs"
	"rumornet/internal/obs/journal"
)

// cannedSSE serves a fixed journal history for j-000001 in the rumord wire
// format — including a heartbeat comment the client must skip — and a JSON
// error for everything else.
func cannedSSE(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j-000001/events" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"job \"j-424242\" not found"}`)
			return
		}
		if r.URL.Query().Get("follow") != "0" {
			t.Errorf("default invocation should request replay only, got query %q", r.URL.RawQuery)
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 1\nevent: lifecycle\ndata: {\"seq\":1,\"job_id\":\"j-000001\",\"kind\":\"lifecycle\",\"msg\":\"queued\"}\n\n")
		fmt.Fprint(w, ": heartbeat\n\n")
		fmt.Fprint(w, "id: 2\nevent: progress\ndata: {\"seq\":2,\"job_id\":\"j-000001\",\"kind\":\"progress\",\"stage\":\"fbsm\",\"step\":3,\"total\":250,\"t\":0,\"value\":0.125,\"cost\":42.5}\n\n")
		fmt.Fprint(w, "id: 3\nevent: invariant\ndata: {\"seq\":3,\"job_id\":\"j-000001\",\"kind\":\"invariant\",\"check\":\"mass_conservation\",\"msg\":\"mass defect 1 exceeds tolerance\"}\n\n")
		fmt.Fprint(w, "id: 4\nevent: lifecycle\ndata: {\"seq\":4,\"job_id\":\"j-000001\",\"kind\":\"lifecycle\",\"msg\":\"finished: succeeded\",\"final\":true}\n\n")
	}))
}

func TestEventsSubcommand(t *testing.T) {
	ts := cannedSSE(t)
	defer ts.Close()

	var out strings.Builder
	if err := runEvents([]string{"-addr", ts.URL, "j-000001"}, &out); err != nil {
		t.Fatalf("runEvents: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"queued",
		"progress   fbsm 3/250",
		"value=0.125 cost=42.5",
		"INVARIANT  mass_conservation: mass defect 1 exceeds tolerance",
		"finished: succeeded",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "heartbeat") {
		t.Errorf("heartbeat comment leaked into output:\n%s", got)
	}
	if lines := strings.Count(got, "\n"); lines != 4 {
		t.Errorf("got %d lines, want 4:\n%s", lines, got)
	}

	// An unknown job surfaces the daemon's JSON error message.
	err := runEvents([]string{"-addr", ts.URL, "j-424242"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("unknown job: err %v, want the daemon's not-found message", err)
	}
}

// TestFormatEntry pins the per-kind line shapes the streaming printer emits.
func TestFormatEntry(t *testing.T) {
	at := time.Date(2026, 8, 5, 12, 30, 45, 500e6, time.UTC)
	cases := []struct {
		e    journal.Entry
		want string
	}{
		{journal.Entry{Seq: 1, Time: at, Kind: journal.KindLifecycle, Msg: "started"},
			"     1  12:30:45.500  lifecycle  started"},
		{journal.Entry{Seq: 2, Time: at, Kind: journal.KindProgress, Event: obs.Event{Stage: "ode", Step: 10, Total: 100, T: 1.5, Value: 0.25}},
			"     2  12:30:45.500  progress   ode 10/100 t=1.5 value=0.25"},
		{journal.Entry{Seq: 3, Time: at, Kind: journal.KindInvariant, Check: "theta_range", Msg: "theta 1.5 outside [0,1]"},
			"     3  12:30:45.500  INVARIANT  theta_range: theta 1.5 outside [0,1]"},
	}
	for _, tc := range cases {
		if got := formatEntry(tc.e); got != tc.want {
			t.Errorf("formatEntry(%+v)\n got %q\nwant %q", tc.e, got, tc.want)
		}
	}
}
