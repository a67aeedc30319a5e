package worker_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"rumornet/internal/obs/journal"
	"rumornet/internal/service"
)

// TestPathParity answers the same requests on two paths — a standalone
// service with a local worker, and a coordinator with one remote worker —
// and checks that both paths run one lifecycle: byte-identical results,
// latency attribution on both sides, and the same lifecycle journal once
// the cluster-only entries (lease grants, worker-relayed records) are
// dropped.
func TestPathParity(t *testing.T) {
	reqs := []service.Request{
		{Type: service.JobODE, Scenario: "tiny", Params: service.Params{Lambda0: 0.02, Tf: 40, Points: 50}},
		{Type: service.JobThreshold, Scenario: "tiny", Params: service.Params{Lambda0: 0.02}},
		{Type: service.JobABM, Scenario: "tiny", Params: service.Params{Lambda0: 0.02, Trials: 2, Nodes: 500, Tf: 30}},
		{Type: service.JobFBSM, Scenario: "tiny", Params: service.Params{Lambda0: 0.02, Tf: 10, Grid: 100}},
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
		t.Run(string(req.Type), func(t *testing.T) {
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
