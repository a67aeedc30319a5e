package service

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"rumornet/internal/obs"
	"rumornet/internal/obs/invariant"
	"rumornet/internal/store"
	"rumornet/internal/surface"
)

// The solve benchmark's ODE, ABM and FBSM requests (rumorbench/requests.go,
// seed 1), fully specified so each is its own canonical form.
var (
	versionODEParams = Params{Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, Lambda0: 0.02, I0: 0.1, Tf: 40,
		Points: 50, Seed: 1}
	versionABMParams = Params{Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, Lambda0: 0.05, I0: 0.1, Tf: 10,
		Points: 500, Seed: 1, Trials: 1, Nodes: 20000, Dt: 0.5}
	versionFBSMParams = Params{Alpha: 0.01, Eps1: 0.05, Eps2: 0.02, Lambda0: 0.05, I0: 0.1, Tf: 20,
		Points: 500, Seed: 1, C1: 5, C2: 10, EpsMax: 0.6, Grid: 120}
	// The serve benchmark's cold threshold request (coldThreshold, seed 1).
	versionThresholdParams = Params{Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, R0: 1.6, I0: 0.1, Tf: 30,
		Points: 500, Seed: 1}
)

// Keys of those requests on the built-in scenario at result version 1:
// before FBSM results moved to version 2 (the safeguarded Anderson control
// update), ODE results to version 2 (the step-doubling rule) and ABM
// results to version 2 (counter-based configuration-model arcs and the
// fixed-point pressure). Threshold results are still at version 1.
const (
	v1ODEKey       = "91caa31ac7c24b6320c492e9959e08cc80e78a01083435c7d67b7f440607ca7e"
	v1ABMKey       = "3f5cc709b38485bd72b68fb83258ed01e7a704162b77a7a3c07cdb3e12605c07"
	v1FBSMKey      = "ede303b2723565a76a6f67b6135fff3a7a24c325002507fe5f204555ea26007c"
	v1ThresholdKey = "23d3805a36588b156bbb912b3fcacf6206dc553be512cdc41e71908cb26ff03c"
)

// currentKey is the cache key of a request of type typ with params p on
// the built-in scenario, at the type's current result version.
func currentKey(t *testing.T, typ JobType, p Params) string {
	t.Helper()
	svc := newTestService(t, Config{})
	return cacheKey(typ, builtinScenario(t, svc).Fingerprint, p)
}

func builtinScenario(t *testing.T, svc *Service) *Scenario {
	t.Helper()
	sc, err := svc.Scenario(BuiltinScenario)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestCacheKeyResultVersion pins the key layout: a type at result version
// 1 keeps the key it always had, and a bumped type gets a new one.
func TestCacheKeyResultVersion(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	fp := builtinScenario(t, svc).Fingerprint
	for _, tc := range []struct {
		typ JobType
		p   Params
	}{{JobODE, versionODEParams}, {JobABM, versionABMParams}, {JobFBSM, versionFBSMParams},
		{JobThreshold, versionThresholdParams}} {
		if got := tc.p.WithDefaults(tc.typ); got != tc.p {
			t.Fatalf("%s params are not canonical: %+v", tc.typ, got)
		}
	}
	if got := cacheKey(JobThreshold, fp, versionThresholdParams); got != v1ThresholdKey {
		t.Errorf("threshold key = %s, want the version-1 key %s", got, v1ThresholdKey)
	}
	for _, tc := range []struct {
		typ JobType
		p   Params
		v1  string
	}{{JobODE, versionODEParams, v1ODEKey}, {JobABM, versionABMParams, v1ABMKey}, {JobFBSM, versionFBSMParams, v1FBSMKey}} {
		if got := cacheKey(tc.typ, fp, tc.p); got == tc.v1 {
			t.Errorf("%s key is still the version-1 key %s", tc.typ, got)
		}
	}
}

// TestStaleResultNotServed restarts a durable service over a store that
// holds results written under version-1 keys (a memory miss reads through
// to the store): the threshold blob, still at version 1, is served, and the
// ODE, ABM and FBSM requests are recomputed instead.
func TestStaleResultNotServed(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SyncMode: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	stale := map[JobType][]byte{
		JobODE:       []byte(`{"stale":"ode"}`),
		JobABM:       []byte(`{"stale":"abm"}`),
		JobFBSM:      []byte(`{"stale":"fbsm"}`),
		JobThreshold: []byte(`{"stale":"threshold"}`),
	}
	for typ, key := range map[JobType]string{JobODE: v1ODEKey, JobABM: v1ABMKey, JobFBSM: v1FBSMKey,
		JobThreshold: v1ThresholdKey} {
		if err := st.PutResult(key, stale[typ]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc, err := New(storeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	th, err := svc.Submit(Request{Type: JobThreshold, Params: versionThresholdParams})
	if err != nil {
		t.Fatal(err)
	}
	if !th.CacheHit || !bytes.Equal(th.Result, stale[JobThreshold]) {
		t.Errorf("threshold: cache_hit %v, result %s — want the stored blob", th.CacheHit, th.Result)
	}

	for _, req := range []Request{{Type: JobODE, Params: versionODEParams}, {Type: JobABM, Params: versionABMParams},
		{Type: JobFBSM, Params: versionFBSMParams}} {
		job, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if job.CacheHit {
			t.Fatalf("%s: the version-1 blob %s was served", req.Type, job.Result)
		}
		job = waitJob(t, svc, job.ID)
		mustSucceed(t, job)
		if bytes.Equal(job.Result, stale[req.Type]) {
			t.Errorf("%s: recomputed result equals the stale blob", req.Type)
		}
	}
}

// TestStaleSurfaceNotServed restarts a durable service over a store that
// holds an FBSM surface persisted without a result version in its spec,
// as surfaces were written before the spec carried one. Start-up must
// refuse it and delete it from the store, a query at one of its grid nodes
// must fall back to a job, and BuildSurface of the same sweep must build
// afresh rather than answer from the stale artifact.
func TestStaleSurfaceNotServed(t *testing.T) {
	const stale = 1e6 // no FBSM cost comes near it
	dir := t.TempDir()
	sw := SweepSpec{Type: JobFBSM, Scenario: "tiny", Params: Params{Tf: 5, Grid: 20},
		Axes: []SweepAxis{{Name: "eps1", Values: []float64{0.05, 0.1}}}}
	a, err := New(storeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	tinyScenario(t, a)
	spec, _, err := a.resolveSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	old := surface.Spec{JobType: spec.JobType, Scenario: spec.Scenario, Fingerprint: spec.Fingerprint,
		Axes: spec.Axes, Fields: spec.Fields, Base: spec.Base}
	tensors := map[string][]float64{}
	for _, f := range old.Fields {
		tensors[f] = []float64{stale, stale}
	}
	surf, err := surface.New(old, tensors)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := surf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	oldKey, err := old.Key()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.store.PutSurface(oldKey, blob); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b := newTestService(t, storeConfig(dir))
	if info, ok := b.Surface(oldKey); ok {
		t.Fatalf("stale surface reloaded: %+v", info)
	}
	if _, ok := b.store.GetSurface(oldKey); ok {
		t.Error("stale surface artifact left in the store")
	}
	q := Query{Type: JobFBSM, Scenario: "tiny", Params: Params{Tf: 5, Grid: 20, Eps1: 0.05}}
	res, err := b.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "job" {
		t.Fatalf("query answered from %s with %v, want a fallback job", res.Source, res.Values)
	}
	info, err := b.BuildSurface(sw)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != surfaceBuilding || info.Key == oldKey {
		t.Fatalf("BuildSurface = %s under key %s, want a new build", info.Status, info.Key)
	}
	buildAndWait(t, b, sw)
	if res, err = b.Query(q); err != nil {
		t.Fatal(err)
	}
	if res.Source != "surface" || res.Values["total"] == stale {
		t.Fatalf("query after the rebuild: %s %v", res.Source, res.Values)
	}
}

// TestRestartLeavesCacheCold restarts a durable service over a store that
// holds only a version-1 FBSM blob, under a key no current request can ask
// for. Recovery reads no result into memory, so the blob takes no cache
// slot.
func TestRestartLeavesCacheCold(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SyncMode: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutResult(v1FBSMKey, []byte(`{"stale":"fbsm"}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	svc, err := New(storeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Stats().Cache.Entries; got != 0 {
		t.Errorf("cache entries after restart = %d, want 0", got)
	}
}

// TestRecoveredJobServedFromStore: a job whose result blob reached the
// store but whose terminal record did not (a crash between the two)
// settles from the store on restart, under its original id, without
// re-running.
func TestRecoveredJobServedFromStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SyncMode: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(Request{Type: JobODE, Params: versionODEParams})
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte(`{"stored":"ode"}`)
	key := currentKey(t, JobODE, versionODEParams)
	if err := st.AppendSubmitted(store.JobState{ID: "j-000001", Seq: 1, Request: req, Key: key}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutResult(key, blob); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	svc, err := New(storeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	job, ok := svc.Job("j-000001")
	if !ok {
		t.Fatal("recovered job missing")
	}
	if job.Status != StatusSucceeded || !bytes.Equal(job.Result, blob) {
		t.Errorf("recovered job: status %s, result %s — want the stored blob", job.Status, job.Result)
	}
	if got := svc.Stats().Store.RecoveredJobs; got != 0 {
		t.Errorf("recovered jobs re-enqueued = %d, want 0", got)
	}
}

// TestFBSMSweepCount runs the solve benchmark's FBSM request and bounds
// its sweeps: the accelerated update converges in 12 on the quarter grid
// (where the fixed half-step relaxation it replaced needed 31 on the full
// one), and the full grid, started from that answer, in 3.
func TestFBSMSweepCount(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	raw, err := ExecuteRequest(context.Background(), builtinScenario(t, svc),
		Request{Type: JobFBSM, Params: versionFBSMParams}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res FBSMResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.CoarseIterations > 16 || res.Iterations > 6 {
		t.Errorf("converged %v after %d+%d sweeps, want convergence within 16+6",
			res.Converged, res.CoarseIterations, res.Iterations)
	}
}

// TestFBSMNestedNoViolation runs the solve benchmark's FBSM request with an
// invariant monitor on its progress, as rumord does: the quarter grid's
// sweeps and the full grid's, each numbered from 1, raise no violation,
// and the events count both levels.
func TestFBSMNestedNoViolation(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var (
		mu     sync.Mutex
		viols  []invariant.Violation
		starts []int // index of each StageFBSM event with Step 1
		events int
	)
	mon := invariant.New(invariant.Config{}, func(v invariant.Violation) { viols = append(viols, v) })
	prog := func(ev obs.Event) {
		mon.Observe(ev)
		if ev.Stage != obs.StageFBSM {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if ev.Step == 1 {
			starts = append(starts, events)
		}
		events++
	}
	raw, err := ExecuteRequest(context.Background(), builtinScenario(t, svc),
		Request{Type: JobFBSM, Params: versionFBSMParams}, 1, prog)
	if err != nil {
		t.Fatal(err)
	}
	var res FBSMResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("nested solve raised %+v", viols)
	}
	if events != res.CoarseIterations+res.Iterations || len(starts) != 2 || starts[1] != res.CoarseIterations {
		t.Errorf("%d StageFBSM events, runs starting at %v; result reports %d+%d sweeps",
			events, starts, res.CoarseIterations, res.Iterations)
	}
}

// TestABMRequestAlloc bounds what the solve benchmark's ABM request
// allocates. The job runs on a configuration model drawn on demand, which
// stores no arc, and updates an integer pressure only where nodes flip: the
// request allocates about 1.4 MB, where storing the graph's 450 k arcs and
// re-pushing a float pressure every step took about 5.5 MB.
func TestABMRequestAlloc(t *testing.T) {
	got := requestAlloc(t, Request{Type: JobABM, Params: versionABMParams})
	t.Logf("ABM request allocates %d B", got)
	if got > 2<<20 {
		t.Errorf("ABM request allocates %d B, want ≤ 2 MiB", got)
	}
}

// TestFBSMRequestAlloc bounds what the solve benchmark's FBSM request
// allocates with a progress hook installed, as rumord runs every job. Each
// sweep is priced in the control-update pass, with no trajectory of its
// own, and the final evaluation simulates into the run's arena: the
// request allocates about 3.7 MB, where a fresh final trajectory and the
// per-sweep pricing took about 5.5 MB.
func TestFBSMRequestAlloc(t *testing.T) {
	got := requestAlloc(t, Request{Type: JobFBSM, Params: versionFBSMParams})
	t.Logf("FBSM request allocates %d B", got)
	if got > 4<<20 {
		t.Errorf("FBSM request allocates %d B, want ≤ 4 MiB", got)
	}
}

// requestAlloc returns the bytes one ExecuteRequest of req on the built-in
// scenario allocates, with a no-op progress hook, after a warm-up run.
func requestAlloc(t *testing.T, req Request) uint64 {
	t.Helper()
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sc := builtinScenario(t, svc)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ExecuteRequest(context.Background(), sc, req, 1, func(obs.Event) {}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm up anything allocated once per process
	return run()
}
