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

// cannedWorkerRegistry serves a fixed GET /v1/workers page in the rumord
// wire format; empty selects the standalone daemon's empty registry.
func cannedWorkerRegistry(t *testing.T, empty bool) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/workers" {
			t.Errorf("unexpected path %q", r.URL.Path)
		}
		w.Header().Set("Content-Type", "application/json")
		if empty {
			fmt.Fprint(w, `{"workers":[],"count":0}`)
			return
		}
		now := time.Now().UTC().Format(time.RFC3339Nano)
		fmt.Fprintf(w, `{"workers":[
			{"id":"w-alpha","live":true,"leases_held":1,"jobs_completed":42,"last_seen":%q},
			{"id":"w-beta","live":false,"leases_held":0,"jobs_completed":7,"last_seen":%q}
		],"count":2}`, now, now)
	}))
}

func TestWorkersSubcommand(t *testing.T) {
	ts := cannedWorkerRegistry(t, false)
	defer ts.Close()

	var out strings.Builder
	if err := runWorkers([]string{"-addr", ts.URL}, &out); err != nil {
		t.Fatalf("runWorkers: %v", err)
	}
	got := out.String()
	for _, want := range []string{"ID", "w-alpha", "live", "42", "w-beta", "lost", "ago"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Index(got, "w-alpha") > strings.Index(got, "w-beta") {
		t.Errorf("rows not in registry order:\n%s", got)
	}
}

func TestWorkersSubcommandEmpty(t *testing.T) {
	ts := cannedWorkerRegistry(t, true)
	defer ts.Close()

	var out strings.Builder
	if err := runWorkers([]string{"-addr", ts.URL}, &out); err != nil {
		t.Fatalf("runWorkers: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "no workers registered") {
		t.Errorf("empty registry output = %q, want the standalone note", got)
	}
}

func TestWorkersSubcommandError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()
	err := runWorkers([]string{"-addr", ts.URL}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Errorf("daemon error: err %v, want its JSON message surfaced", err)
	}
}

func TestWorkersFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"positional arg", []string{"extra"}},
		{"unknown flag", []string{"-nope"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runWorkers(tc.args, &strings.Builder{})
			if cli.Code(err) != 2 {
				t.Errorf("runWorkers(%v): err %v, want usage error", tc.args, err)
			}
		})
	}
}
