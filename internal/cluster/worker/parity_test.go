package worker_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"rumornet/internal/obs/journal"
	"rumornet/internal/service"
)

// TestPathParity answers the same requests on three paths — the direct
// library call service.ExecuteRequest, a standalone service with an
// in-process worker, and a coordinator with one remote worker — and checks
// that they return byte-identical results and that both services run one
// lifecycle: latency attribution on both sides, and the same lifecycle
// journal once the remote-only entries (lease grants, worker-relayed
// records) are dropped. The requests spell out every default, so the
// direct call receives the canonical request the services execute.
func TestPathParity(t *testing.T) {
	base := service.Params{Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, Lambda0: 0.02, I0: 0.1, Tf: 150, Points: 500, Seed: 1}
	ode, abm, fbsm := base, base, base
	ode.Tf, ode.Points = 40, 50
	abm.Tf, abm.Trials, abm.Nodes, abm.Dt = 30, 2, 500, 0.5
	fbsm.Eps1, fbsm.Eps2, fbsm.Tf, fbsm.C1, fbsm.C2, fbsm.EpsMax, fbsm.Grid = 0.05, 0.02, 10, 5, 10, 0.8, 100
	reqs := []service.Request{
		{Type: service.JobODE, Scenario: "tiny", Params: ode},
		{Type: service.JobThreshold, Scenario: "tiny", Params: base},
		{Type: service.JobABM, Scenario: "tiny", Params: abm},
		{Type: service.JobFBSM, Scenario: "tiny", Params: fbsm},
		{Type: service.JobODE, Scenario: service.BuiltinScenario, Params: ode},
		{Type: service.JobThreshold, Scenario: service.BuiltinScenario, Params: base},
	}

	sj := &syncBuffer{}
	svc, err := service.New(service.Config{Workers: 1, JournalSink: sj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if _, err := svc.RegisterScenario("tiny", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2}); err != nil {
		t.Fatal(err)
	}
	local := &harness{t: t, svc: svc, journal: sj}

	remote := newCoordinator(t, nil)
	remote.startWorker("w-1")

	for _, req := range reqs {
		name := string(req.Type)
		if req.Scenario != "tiny" {
			name = req.Scenario + "_" + name
		}
		t.Run(name, func(t *testing.T) {
			sc, err := svc.Scenario(req.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := service.ExecuteRequest(context.Background(), sc, req, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			var jobs [2]service.Job
			var lifecycles [2][]string
			for i, h := range []*harness{local, remote} {
				sub, err := h.svc.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				jobs[i] = h.waitJob(sub.ID)
				if jobs[i].Status != service.StatusSucceeded {
					t.Fatalf("path %d: %s (%s)", i, jobs[i].Status, jobs[i].Error)
				}
				if jobs[i].Latency == nil {
					t.Errorf("path %d: no latency attribution", i)
				}
				lifecycles[i] = lifecycle(t, h.journal, sub.ID)
			}
			if !bytes.Equal(jobs[0].Result, jobs[1].Result) {
				t.Errorf("results differ: standalone %d bytes, cluster %d bytes", len(jobs[0].Result), len(jobs[1].Result))
			}
			if !bytes.Equal(direct, jobs[0].Result) {
				t.Errorf("results differ: library call %d bytes, standalone %d bytes", len(direct), len(jobs[0].Result))
			}
			if a, b := strings.Join(lifecycles[0], " | "), strings.Join(lifecycles[1], " | "); a != b {
				t.Errorf("lifecycle journals differ:\n standalone: %s\n cluster:    %s", a, b)
			}
		})
	}
}

// lifecycle waits for the job's Final journal entry in the JSONL mirror and
// returns the job's lifecycle entries, minus the worker-relayed ones.
func lifecycle(t *testing.T, buf *syncBuffer, id string) []string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var out []string
		final := false
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var e journal.Entry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("journal line %q: %v", line, err)
			}
			if e.JobID != id || e.Kind != journal.KindLifecycle || strings.Contains(e.Msg, "on worker ") {
				continue
			}
			out = append(out, fmt.Sprintf("%s final=%v", e.Msg, e.Final))
			final = final || e.Final
		}
		if final {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("no final journal entry for %s; have %v", id, out)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
