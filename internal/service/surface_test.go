package service

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rumornet/internal/store"
)

// buildAndWait kicks off a sweep and polls until its surface settles.
func buildAndWait(t *testing.T, s *Service, sw SweepSpec) SurfaceInfo {
	t.Helper()
	info, err := s.BuildSurface(sw)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		got, ok := s.Surface(info.Key)
		if !ok {
			t.Fatalf("surface %s disappeared", info.Key)
		}
		if got.Status == surfaceReady {
			return got
		}
		if got.Status == surfaceFailed {
			t.Fatalf("surface build failed: %s", got.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("surface %s did not settle", info.Key)
	return SurfaceInfo{}
}

// thresholdSweep is the canonical test sweep: a deterministic job type on
// the cheap tiny scenario, gridding the two forgetting-mechanism rates.
func thresholdSweep(n int) SweepSpec {
	return SweepSpec{
		Type:     JobThreshold,
		Scenario: "tiny",
		Axes: []SweepAxis{
			{Name: "eps1", Min: 0.10, Max: 0.40, Points: n},
			{Name: "eps2", Min: 0.02, Max: 0.10, Points: n},
		},
	}
}

// TestSurfaceGoldenBound builds an eps1 x eps2 threshold surface and checks
// every off-grid interpolated answer against the direct solver: the
// reported error bound must actually bound the observed error, and the hit
// must be orders of magnitude closer than the bound claims is possible.
func TestSurfaceGoldenBound(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueDepth: 64})
	tinyScenario(t, s)
	info := buildAndWait(t, s, thresholdSweep(5))
	if info.Points != 25 || info.PointsDone != 25 {
		t.Fatalf("points = %d/%d, want 25/25", info.PointsDone, info.Points)
	}
	if len(info.ErrorBound) == 0 {
		t.Fatal("ready surface reports no error bound")
	}
	// Re-POSTing the resident spec answers ready under the same key
	// without re-running a grid point.
	submitted := s.Stats().Jobs.Submitted
	again, err := s.BuildSurface(thresholdSweep(5))
	if err != nil {
		t.Fatal(err)
	}
	if again.Key != info.Key || again.Status != surfaceReady {
		t.Fatalf("rebuild of a resident spec: key %s status %q, want %s ready", again.Key, again.Status, info.Key)
	}
	if got := s.Stats().Jobs.Submitted; got != submitted {
		t.Errorf("rebuild of a resident spec submitted %d grid jobs", got-submitted)
	}

	// Off-grid probes strictly inside the hull, away from any grid plane.
	probes := []struct{ eps1, eps2 float64 }{
		{0.137, 0.033}, {0.221, 0.071}, {0.333, 0.047}, {0.389, 0.093},
	}
	for _, p := range probes {
		q := Query{
			Type: JobThreshold, Scenario: "tiny",
			Params: Params{Eps1: p.eps1, Eps2: p.eps2},
		}
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != "surface" {
			t.Fatalf("probe (%g,%g): source = %q (%s), want surface",
				p.eps1, p.eps2, res.Source, res.Reason)
		}

		// The same request through the exact path (cache defeated by
		// nothing: the query params never ran as a job).
		job, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny",
			Params: Params{Eps1: p.eps1, Eps2: p.eps2}})
		if err != nil {
			t.Fatal(err)
		}
		job = waitTerminal(t, s, job.ID)
		if job.Status != StatusSucceeded {
			t.Fatalf("exact job: %s: %s", job.Status, job.Error)
		}
		fields := []string{"r0", "required_eps1", "required_eps2"}
		values, err := pointValues(job.Result, fields)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fields {
			exact := values[i]
			got, okV := res.Values[f]
			bound, okB := res.ErrorBound[f]
			if !okV || !okB {
				t.Fatalf("probe (%g,%g): field %q missing from envelope", p.eps1, p.eps2, f)
			}
			diff := math.Abs(got - exact)
			// The bound is a curvature estimate, not a hard guarantee; a
			// tiny epsilon absorbs float noise on near-linear fields.
			if diff > bound+1e-12 {
				t.Errorf("probe (%g,%g) field %s: |%g - %g| = %g exceeds bound %g",
					p.eps1, p.eps2, f, got, exact, diff, bound)
			}
		}
	}

	st := s.Stats()
	if st.Surface == nil {
		t.Fatal("stats: surface section missing")
	}
	if st.Surface.Loaded != 1 || st.Surface.Hits != int64(len(probes)) {
		t.Errorf("stats: loaded=%d hits=%d, want 1, %d",
			st.Surface.Loaded, st.Surface.Hits, len(probes))
	}
	if st.Surface.Bytes <= 0 {
		t.Error("stats: ready surface reports zero bytes")
	}
}

// TestSurfaceQueryFallbacks covers both fallback triggers: a query outside
// the covered region and a tolerance tighter than the surface's bound. Both
// must come back as exact interactive jobs with the reason spelled out.
func TestSurfaceQueryFallbacks(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 32})
	tinyScenario(t, s)
	buildAndWait(t, s, thresholdSweep(3))

	// eps1 far above the grid's max: no surface covers it.
	out, err := s.Query(Query{Type: JobThreshold, Scenario: "tiny",
		Params: Params{Eps1: 0.9, Eps2: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != "job" || out.Job == nil {
		t.Fatalf("out-of-hull: source = %q, want job", out.Source)
	}
	if out.Reason == "" {
		t.Error("out-of-hull: fallback reason missing")
	}
	waitTerminal(t, s, out.Job.ID)

	// In the hull, but demanding impossible accuracy.
	tol, err := s.Query(Query{Type: JobThreshold, Scenario: "tiny",
		Params: Params{Eps1: 0.17, Eps2: 0.05}, Tolerance: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if tol.Source != "job" {
		t.Fatalf("tight tolerance: source = %q, want job", tol.Source)
	}
	waitTerminal(t, s, tol.Job.ID)
	if tol.Job.Class != ClassInteractive {
		t.Errorf("fallback job class = %q, want interactive", tol.Job.Class)
	}

	st := s.Stats()
	if st.Surface == nil || st.Surface.Fallbacks != 2 {
		t.Fatalf("stats: fallbacks = %+v, want 2", st.Surface)
	}
}

// TestPriorityClassStarvation proves interactive work overtakes a queued
// batch backlog: with no workers draining the queue (coordinator mode), a
// pile of batch jobs is enqueued first, an interactive job afterwards —
// and the lease order still hands out the interactive job first.
func TestPriorityClassStarvation(t *testing.T) {
	s := newTestService(t, Config{QueueDepth: 32,
		Cluster: ClusterConfig{Enabled: true, LeaseTTL: time.Minute}})
	tinyScenario(t, s)

	for i := 0; i < 8; i++ {
		_, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny", Class: ClassBatch,
			Params: Params{Tf: float64(100 + i)}}) // distinct keys: no dedup
		if err != nil {
			t.Fatal(err)
		}
	}
	inter, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny",
		Params: Params{Tf: 777}}) // class defaults to interactive
	if err != nil {
		t.Fatal(err)
	}
	if inter.Class != ClassInteractive {
		t.Fatalf("default class = %q, want interactive", inter.Class)
	}

	lease, err := s.LeaseNext("w1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if lease == nil {
		t.Fatal("queue is non-empty but LeaseNext returned nothing")
	}
	if lease.JobID != inter.ID {
		t.Fatalf("first lease = %s (class %q), want the interactive job %s",
			lease.JobID, lease.Request.Class, inter.ID)
	}
	// With the interactive queue drained, batch leases flow again.
	next, err := s.LeaseNext("w1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if next == nil || next.Request.Class != ClassBatch {
		t.Fatalf("second lease = %+v, want a batch job", next)
	}

	st := s.Stats()
	if st.QueueInteractive != 0 || st.QueueBatch != 7 {
		t.Errorf("queue split = %d/%d, want 0 interactive, 7 batch",
			st.QueueInteractive, st.QueueBatch)
	}
}

// TestBatchShedWhenSaturated: a saturated service rejects new batch work
// with ErrSaturated but keeps admitting interactive jobs.
func TestBatchShedWhenSaturated(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 32,
		SaturationBudget: time.Nanosecond, SaturationWindow: time.Minute})
	tinyScenario(t, s)

	// Trip the detector: any observed queue wait exceeds a 1ns budget.
	for !s.sat.Saturated() {
		job, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, job.ID)
	}

	_, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny", Class: ClassBatch,
		Params: Params{Tf: 123}})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("batch under saturation: err = %v, want ErrSaturated", err)
	}
	job, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny",
		Params: Params{Tf: 124}})
	if err != nil {
		t.Fatalf("interactive under saturation: %v", err)
	}
	waitTerminal(t, s, job.ID)
	if got := s.Stats().Jobs.Shed; got != 1 {
		t.Errorf("shed count = %d, want 1", got)
	}
}

// TestSurfaceQueryDuringBuild hammers the query and listing paths while a
// construction is folding grid points in — the race the -race run is for.
func TestSurfaceQueryDuringBuild(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueDepth: 64})
	tinyScenario(t, s)
	// A ready surface first, so concurrent queries exercise the hit path
	// too, not just "no covering surface".
	buildAndWait(t, s, thresholdSweep(3))

	sw := thresholdSweep(4) // distinct grid: a second, concurrent build
	info, err := s.BuildSurface(sw)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, qerr := s.Query(Query{Type: JobThreshold, Scenario: "tiny",
					Params: Params{Eps1: 0.11 + 0.01*float64(g), Eps2: 0.03}})
				if qerr != nil {
					t.Errorf("query during build: %v", qerr)
					return
				}
				s.Surfaces()
				s.Stats()
			}
		}(g)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		got, ok := s.Surface(info.Key)
		if !ok {
			t.Fatal("building surface disappeared")
		}
		if got.Status == surfaceReady {
			break
		}
		if got.Status == surfaceFailed {
			t.Fatalf("build failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("build did not settle")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// fakeReader is a store.Reader double: canned blobs plus call counters, so
// the test can prove the serving tier reads through the seam and not
// around it.
type fakeReader struct {
	results     map[string][]byte
	surfaces    map[string][]byte
	surfaceGets atomic.Int64
	resultGets  atomic.Int64
}

func (f *fakeReader) GetResult(key string) ([]byte, bool) {
	f.resultGets.Add(1)
	b, ok := f.results[key]
	return b, ok
}

func (f *fakeReader) GetSurface(key string) ([]byte, bool) {
	f.surfaceGets.Add(1)
	b, ok := f.surfaces[key]
	return b, ok
}

func (f *fakeReader) SurfaceKeys() []string {
	keys := make([]string, 0, len(f.surfaces))
	for k := range f.surfaces {
		keys = append(keys, k)
	}
	return keys
}

var _ store.Reader = (*fakeReader)(nil)

// TestSurfaceReaderSeam builds a surface against a real on-disk store,
// copies the persisted artifacts into a fakeReader, and starts a second,
// storeless service with the double injected: the surface must reload and
// serve hits through the seam alone.
func TestSurfaceReaderSeam(t *testing.T) {
	dir := t.TempDir()
	a := newTestService(t, Config{Workers: 2, QueueDepth: 32, StoreDir: dir})
	tinyScenario(t, a)
	built := buildAndWait(t, a, thresholdSweep(3))
	a.Close()

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeReader{results: map[string][]byte{}, surfaces: map[string][]byte{}}
	for _, k := range st.SurfaceKeys() {
		if b, ok := st.GetSurface(k); ok {
			fake.surfaces[k] = b
		}
	}
	st.Close()
	if len(fake.surfaces) != 1 {
		t.Fatalf("persisted surfaces = %d, want 1", len(fake.surfaces))
	}

	b := newTestService(t, Config{Workers: 2, QueueDepth: 32, StoreReader: fake})
	tinyScenario(t, b)
	got, ok := b.Surface(built.Key)
	if !ok || got.Status != surfaceReady {
		t.Fatalf("surface not reloaded through the seam: %+v (ok=%v)", got, ok)
	}
	if fake.surfaceGets.Load() == 0 {
		t.Fatal("reload never called the Reader double")
	}
	res, err := b.Query(Query{Type: JobThreshold, Scenario: "tiny",
		Params: Params{Eps1: 0.17, Eps2: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "surface" || res.SurfaceKey != built.Key {
		t.Fatalf("query after seam reload: source=%q key=%q, want surface/%s (%s)",
			res.Source, res.SurfaceKey, built.Key, res.Reason)
	}

	// BuildSurface of the same spec must come back ready instantly — the
	// artifact answers through the seam, no grid re-run.
	info, err := b.BuildSurface(thresholdSweep(3))
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != surfaceReady {
		t.Fatalf("rebuild of persisted spec: status = %q, want ready", info.Status)
	}
}

// TestSurfaceBuildNoGoroutineLeak runs construction fan-outs — one that
// completes and one that Close aborts mid-build — and asserts the
// goroutine count settles back to the baseline.
func TestSurfaceBuildNoGoroutineLeak(t *testing.T) {
	settle := func(target int) bool {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > target {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(10 * time.Millisecond)
		}
		return true
	}
	settle(runtime.NumGoroutine())
	before := runtime.NumGoroutine()

	func() {
		s := newTestService(t, Config{Workers: 2, QueueDepth: 16})
		tinyScenario(t, s)
		buildAndWait(t, s, thresholdSweep(3))
		// A second build with slow ABM points is still in flight when Close
		// tears the service down; the build goroutine must notice and exit.
		_, err := s.BuildSurface(SweepSpec{
			Type: JobABM, Scenario: "tiny",
			Axes:   []SweepAxis{{Name: "eps1", Min: 0.1, Max: 0.4, Points: 8}},
			Params: Params{Trials: 50, Nodes: 500},
		})
		if err != nil {
			t.Error(err)
		}
		s.Close()
	}()

	if !settle(before + 2) {
		t.Fatalf("goroutines leaked: %d before, %d after shutdown",
			before, runtime.NumGoroutine())
	}
}

// TestSweepSpecValidation exercises the sweep resolver's rejections.
func TestSweepSpecValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 8})
	tinyScenario(t, s)
	cases := []struct {
		name string
		sw   SweepSpec
	}{
		{"no axes", SweepSpec{Type: JobThreshold, Scenario: "tiny"}},
		{"unknown axis", SweepSpec{Type: JobThreshold, Scenario: "tiny",
			Axes: []SweepAxis{{Name: "gamma", Min: 1, Max: 2, Points: 3}}}},
		{"zero points", SweepSpec{Type: JobThreshold, Scenario: "tiny",
			Axes: []SweepAxis{{Name: "eps1", Min: 0.1, Max: 0.2}}}},
		{"max below min", SweepSpec{Type: JobThreshold, Scenario: "tiny",
			Axes: []SweepAxis{{Name: "eps1", Min: 0.2, Max: 0.1, Points: 3}}}},
		{"zero axis value", SweepSpec{Type: JobThreshold, Scenario: "tiny",
			Axes: []SweepAxis{{Name: "eps1", Values: []float64{0, 0.1}}}}},
		{"field of wrong type", SweepSpec{Type: JobThreshold, Scenario: "tiny",
			Axes:   []SweepAxis{{Name: "eps1", Min: 0.1, Max: 0.2, Points: 2}},
			Fields: []string{"terminal"}}},
		{"trajectory field", SweepSpec{Type: JobODE, Scenario: "tiny",
			Axes:   []SweepAxis{{Name: "r0", Min: 1.5, Max: 2.5, Points: 2}},
			Fields: []string{"mean_i"}}},
		{"unknown scenario", SweepSpec{Type: JobThreshold, Scenario: "nope",
			Axes: []SweepAxis{{Name: "eps1", Min: 0.1, Max: 0.2, Points: 2}}}},
	}
	for _, tc := range cases {
		if _, err := s.BuildSurface(tc.sw); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		} else if tc.name != "unknown scenario" && !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
}

// TestSurfaceRestartReload: the durable round trip without a double — a
// daemon with a data dir builds a surface, restarts, and serves hits
// without re-running a single grid point.
func TestSurfaceRestartReload(t *testing.T) {
	dir := t.TempDir()
	a := newTestService(t, Config{Workers: 2, QueueDepth: 32, StoreDir: dir})
	tinyScenario(t, a)
	built := buildAndWait(t, a, thresholdSweep(3))
	a.Close()

	// No tinyScenario here: the WAL replays the uploaded table on restart.
	b := newTestService(t, Config{Workers: 2, QueueDepth: 32, StoreDir: dir})
	got, ok := b.Surface(built.Key)
	if !ok || got.Status != surfaceReady {
		t.Fatalf("surface not reloaded after restart: %+v (ok=%v)", got, ok)
	}
	res, err := b.Query(Query{Type: JobThreshold, Scenario: "tiny",
		Params: Params{Eps1: 0.17, Eps2: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "surface" {
		t.Fatalf("query after restart: source = %q (%s), want surface", res.Source, res.Reason)
	}
	if fmt.Sprint(b.Stats().Surface.Loaded) != "1" {
		t.Errorf("loaded = %d, want 1", b.Stats().Surface.Loaded)
	}
}
