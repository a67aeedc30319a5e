package worker_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
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
// lifecycle: latency attribution on both sides, the same lifecycle journal
// entries, and the same set of stage.* spans, each parented under its job
// span. The tiny threshold request takes a fourth path, an on-grid
// /v1/query on the standalone service, whose every value must carry the
// direct result's bits. The requests spell out every default, so the
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
	local := &harness{t: t, svc: svc, ts: httptest.NewServer(svc.Handler()), journal: sj}
	t.Cleanup(local.ts.Close)

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
			var lifecycles, stages [2][]string
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
				stages[i] = stageSpans(t, h.svc, jobs[i])
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
			if a, b := strings.Join(stages[0], " "), strings.Join(stages[1], " "); a != b {
				t.Errorf("stage spans differ:\n standalone: %s\n cluster:    %s", a, b)
			}
			if req.Type == service.JobThreshold && req.Scenario == "tiny" {
				onGridQuery(t, local, req, direct)
			}
		})
	}
}

// stageSpans returns the sorted names of the job's stage.* spans, failing
// the test if one is not parented under the job's own span.
func stageSpans(t *testing.T, svc *service.Service, job service.Job) []string {
	t.Helper()
	spans := dumpSpans(t, svc)
	jobSpan := ""
	for _, sp := range spans {
		if sp.TraceID == job.TraceID && sp.Name == "job."+string(job.Type) {
			jobSpan = sp.SpanID
		}
	}
	if jobSpan == "" {
		t.Fatalf("no job span for %s", job.ID)
	}
	var names []string
	for _, sp := range spans {
		if sp.TraceID != job.TraceID || !strings.HasPrefix(sp.Name, "stage.") {
			continue
		}
		if sp.ParentID != jobSpan {
			t.Errorf("%s of %s has parent %s, want the job span %s", sp.Name, job.ID, sp.ParentID, jobSpan)
		}
		names = append(names, sp.Name)
	}
	sort.Strings(names)
	return names
}

// onGridQuery builds a threshold surface whose grid holds req's (eps1,
// eps2) point, recording every field a threshold surface can, and checks
// that /v1/query answers that point from the surface with the bits of the
// direct result.
func onGridQuery(t *testing.T, h *harness, req service.Request, direct json.RawMessage) {
	t.Helper()
	p := req.Params
	fields := []string{"r0", "s0", "elast_alpha", "elast_eps1", "elast_eps2", "required_eps1", "required_eps2"}
	info, err := h.svc.BuildSurface(service.SweepSpec{
		Type: req.Type, Scenario: req.Scenario, Params: p, Fields: fields,
		Axes: []service.SweepAxis{
			{Name: "eps1", Values: []float64{p.Eps1 / 2, p.Eps1, 2 * p.Eps1}},
			{Name: "eps2", Values: []float64{p.Eps2 / 2, p.Eps2, 2 * p.Eps2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); info.Status != "ready"; time.Sleep(2 * time.Millisecond) {
		if info.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("surface %s: %s %s", info.Key, info.Status, info.Error)
		}
		info, _ = h.svc.Surface(info.Key)
	}
	code, body := h.postJSON("/v1/query", service.Query{Type: req.Type, Scenario: req.Scenario, Params: p})
	var res service.QueryResult
	if err := json.Unmarshal(body, &res); code != http.StatusOK || err != nil || res.Source != "surface" {
		t.Fatalf("query: %d %s (%v)", code, body, err)
	}
	var want map[string]any
	if err := json.Unmarshal(direct, &want); err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		w, ok := want[f].(float64)
		if !ok {
			t.Fatalf("direct result has no numeric %q", f)
		}
		if got, ok := res.Values[f]; !ok || math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("query %s = %v (present %v), direct call %v", f, got, ok, w)
		}
	}
}

// lifecycle waits for the job's Final journal entry in the JSONL mirror and
// returns the job's lifecycle entries.
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
			if e.JobID != id || e.Kind != journal.KindLifecycle {
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
