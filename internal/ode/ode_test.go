package ode

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rumornet/internal/floats"
)

// expDecay is y' = -y with solution y(t) = y0 * exp(-t).
func expDecay(_ float64, y, dydt []float64) {
	for i, v := range y {
		dydt[i] = -v
	}
}

// logistic is y' = y(1-y) with solution y(t) = 1/(1 + (1/y0 - 1) e^{-t}).
func logistic(_ float64, y, dydt []float64) {
	dydt[0] = y[0] * (1 - y[0])
}

func logisticExact(y0, t float64) float64 {
	return 1 / (1 + (1/y0-1)*math.Exp(-t))
}

// harmonic is the oscillator y” = -y as a first-order system.
func harmonic(_ float64, y, dydt []float64) {
	dydt[0] = y[1]
	dydt[1] = -y[0]
}

func TestSolveFixedExpDecay(t *testing.T) {
	t.Run("rk4", func(t *testing.T) {
		sol, err := SolveFixed((&RK4{}).Bind(expDecay), []float64{1}, 0, 2, 1e-3, nil)
		if err != nil {
			t.Fatalf("SolveFixed: %v", err)
		}
		tf, y := sol.Last()
		if tf != 2 {
			t.Errorf("final time = %v, want 2", tf)
		}
		want := math.Exp(-2)
		if d := math.Abs(y[0] - want); d > 1e-8 {
			t.Errorf("y(2) = %v, want %v (|err| %g > 1e-8)", y[0], want, d)
		}
	})
}

func TestSolveFixedLogistic(t *testing.T) {
	sol, err := SolveFixed((&RK4{}).Bind(logistic), []float64{0.01}, 0, 10, 1e-3, nil)
	if err != nil {
		t.Fatalf("SolveFixed: %v", err)
	}
	for i, ti := range sol.T {
		want := logisticExact(0.01, ti)
		if d := math.Abs(sol.Y[i][0] - want); d > 1e-8 {
			t.Fatalf("t=%v: y=%v want %v", ti, sol.Y[i][0], want)
		}
	}
}

func TestSolveFixedHarmonicEnergy(t *testing.T) {
	// RK4 should conserve the oscillator energy to high accuracy over a
	// few periods with a small step.
	sol, err := SolveFixed((&RK4{}).Bind(harmonic), []float64{1, 0}, 0, 4*math.Pi, 1e-3, nil)
	if err != nil {
		t.Fatalf("SolveFixed: %v", err)
	}
	_, y := sol.Last()
	energy := y[0]*y[0] + y[1]*y[1]
	if math.Abs(energy-1) > 1e-9 {
		t.Errorf("energy drift: %v, want 1", energy)
	}
	if math.Abs(y[0]-1) > 1e-8 || math.Abs(y[1]) > 1e-8 {
		t.Errorf("after 2 periods y = %v, want (1, 0)", y)
	}
}

// TestConvergenceOrder verifies RK4's empirical fourth-order convergence on
// the logistic equation by halving the step size.
func TestConvergenceOrder(t *testing.T) {
	t.Run("rk4", func(t *testing.T) {
		errAt := func(h float64) float64 {
			sol, err := SolveFixed((&RK4{}).Bind(logistic), []float64{0.2}, 0, 2, h, nil)
			if err != nil {
				t.Fatalf("SolveFixed(h=%v): %v", h, err)
			}
			_, y := sol.Last()
			return math.Abs(y[0] - logisticExact(0.2, 2))
		}
		e1, e2 := errAt(0.1), errAt(0.05)
		if order := math.Log2(e1 / e2); math.Abs(order-4) > 0.35 {
			t.Errorf("empirical order = %.2f, want ~4 (e1=%g e2=%g)", order, e1, e2)
		}
	})
}

// TestSolveFixedOscillatorClosedForm integrates the harmonic oscillator
// from y(0) = (0, 1) and checks y(10) against its closed form
// (sin 10, cos 10).
func TestSolveFixedOscillatorClosedForm(t *testing.T) {
	sol, err := SolveFixed((&RK4{}).Bind(harmonic), []float64{0, 1}, 0, 10, 1e-4, &Options{Record: 100})
	if err != nil {
		t.Fatalf("SolveFixed: %v", err)
	}
	tf, y := sol.Last()
	if tf != 10 {
		t.Fatalf("final time = %v, want 10", tf)
	}
	if want := []float64{math.Sin(10), math.Cos(10)}; !floats.EqualWithin(y, want, 1e-6) {
		t.Errorf("y(10) = %v, want %v", y, want)
	}
}

func TestStopCondition(t *testing.T) {
	opts := &Options{Stop: func(_ float64, y []float64) bool { return y[0] < 0.5 }}
	sol, err := SolveFixed((&RK4{}).Bind(expDecay), []float64{1}, 0, 10, 1e-3, opts)
	if err != nil {
		t.Fatalf("SolveFixed: %v", err)
	}
	tf, y := sol.Last()
	if y[0] >= 0.5 {
		t.Errorf("stop condition not honored: y=%v", y[0])
	}
	// y = 0.5 at t = ln 2 ≈ 0.693.
	if math.Abs(tf-math.Ln2) > 0.01 {
		t.Errorf("stopped at t=%v, want ~%v", tf, math.Ln2)
	}
}

func TestRecordThinning(t *testing.T) {
	sol, err := SolveFixed((&RK4{}).Bind(expDecay), []float64{1}, 0, 1, 1e-3, &Options{Record: 100})
	if err != nil {
		t.Fatalf("SolveFixed: %v", err)
	}
	if sol.Len() > 13 {
		t.Errorf("Record=100 kept %d samples, want ~11", sol.Len())
	}
	if tf, _ := sol.Last(); tf != 1 {
		t.Errorf("final time = %v, want 1 despite thinning", tf)
	}
}

func TestSolutionAt(t *testing.T) {
	sol := &Solution{
		T: []float64{0, 1, 2},
		Y: [][]float64{{0}, {10}, {40}},
	}
	tests := []struct {
		t    float64
		want float64
	}{
		{-1, 0},  // clamp low
		{0, 0},   // endpoint
		{0.5, 5}, // interpolate
		{1.5, 25},
		{2, 40},
		{3, 40}, // clamp high
	}
	for _, tt := range tests {
		if got := sol.At(tt.t)[0]; got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestSolutionSeries(t *testing.T) {
	sol := &Solution{T: []float64{0, 1}, Y: [][]float64{{1, 2}, {3, 4}}}
	if got := sol.Series(1); !floats.EqualWithin(got, []float64{2, 4}, 0) {
		t.Errorf("Series(1) = %v, want [2 4]", got)
	}
}

func TestErrorCases(t *testing.T) {
	if _, err := SolveFixed((&RK4{}).Bind(expDecay), []float64{1}, 1, 0, 0.1, nil); err == nil {
		t.Error("reversed span: want error")
	}
	if _, err := SolveFixed((&RK4{}).Bind(expDecay), []float64{1}, 0, 1, -0.1, nil); err == nil {
		t.Error("negative step: want error")
	}
	if _, err := SolveFixed((&RK4{}).Bind(expDecay), []float64{1}, 0, 1e6, 1e-6, &Options{MaxSteps: 100}); err == nil {
		t.Error("MaxSteps exceeded: want error")
	}
	if _, err := SolveFixed((&RK4{}).Bind(expDecay), []float64{1}, 2, 2, 0.1, nil); err == nil {
		t.Error("zero span: want error")
	}
}

func TestNonFiniteDetection(t *testing.T) {
	blowup := func(_ float64, y, dydt []float64) { dydt[0] = y[0] * y[0] }
	// y' = y^2 with y(0)=1 blows up at t=1.
	_, err := SolveFixed((&RK4{}).Bind(blowup), []float64{1}, 0, 2, 1e-4, nil)
	if err == nil {
		t.Error("finite-time blowup: want non-finite state error")
	}
}

// Property: for the linear system y' = -y, the solution scales linearly with
// the initial condition (superposition).
func TestQuickLinearity(t *testing.T) {
	f := func(y0raw, craw uint16) bool {
		y0 := 0.1 + float64(y0raw)/65535*10 // in [0.1, 10.1]
		c := 0.1 + float64(craw)/65535*5    // in [0.1, 5.1]
		s1, err1 := SolveFixed((&RK4{}).Bind(expDecay), []float64{y0}, 0, 1, 1e-3, nil)
		s2, err2 := SolveFixed((&RK4{}).Bind(expDecay), []float64{c * y0}, 0, 1, 1e-3, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		_, a := s1.Last()
		_, b := s2.Last()
		return math.Abs(c*a[0]-b[0]) < 1e-9*(1+math.Abs(b[0]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: autonomous systems are time-shift invariant — integrating from
// t0 to t0+1 gives the same result for any t0.
func TestQuickTimeShiftInvariance(t *testing.T) {
	f := func(shiftRaw uint16) bool {
		t0 := float64(shiftRaw) / 65535 * 100
		s, err := SolveFixed((&RK4{}).Bind(logistic), []float64{0.3}, t0, t0+1, 1e-3, nil)
		if err != nil {
			return false
		}
		_, y := s.Last()
		return math.Abs(y[0]-logisticExact(0.3, 1)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRK4Step(b *testing.B) {
	st := &RK4{}
	y := make([]float64, 1696) // 848 groups × (S, I): the Digg-scale state
	dst := make([]float64, len(y))
	for i := range y {
		y[i] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step(expDecay, 0, y, 1e-2, dst)
	}
}

// TestStepperStepZeroAlloc tracks the zero-alloc contract of the RK4
// stepper: once sized (constructor or first Step), Step must not allocate.
func TestStepperStepZeroAlloc(t *testing.T) {
	const dim = 1696 // 848 groups × (S, I): the Digg-scale state
	y := make([]float64, dim)
	dst := make([]float64, dim)
	for i := range y {
		y[i] = 0.5
	}
	for _, st := range []*RK4{NewRK4(dim), {}} {
		st.Step(expDecay, 0, y, 1e-3, dst) // sizes the lazily constructed one
		allocs := testing.AllocsPerRun(20, func() {
			st.Step(expDecay, 0, y, 1e-3, dst)
		})
		if allocs != 0 {
			t.Errorf("Step allocates %v times per call, want 0", allocs)
		}
	}
}

// TestSolveFixedStepLoopZeroAlloc pins the per-step allocation count of the
// fixed-step solver to zero: a 100× longer integration must allocate exactly
// as many times as a short one (the constant setup — solution backing,
// double buffer, stepper scratch — is all that is permitted).
func TestSolveFixedStepLoopZeroAlloc(t *testing.T) {
	y0 := make([]float64, 64)
	for i := range y0 {
		y0[i] = 1
	}
	solve := func(tf float64) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := SolveFixed(NewRK4(len(y0)).Bind(expDecay), y0, 0, tf, 1e-3, &Options{Record: 1 << 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := solve(0.1), solve(10) // 100 steps vs 10_000 steps
	if long != short {
		t.Errorf("allocs grew with step count: %v (100 steps) vs %v (10000 steps); step loop is not alloc-free",
			short, long)
	}
}

// TestSolveFixedReuse pins Options.Reuse: a large enough earlier solution,
// or a NewSolution sized for more steps, is overwritten in place and
// returned, with the samples a fresh solve gives and no trajectory
// allocation; one too small is left alone.
func TestSolveFixedReuse(t *testing.T) {
	y0 := []float64{1, 2, 3}
	step := NewRK4(len(y0)).Bind(expDecay)
	want, err := SolveFixed(step, y0, 0, 1, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := SolveFixed(step, []float64{5, 6, 7}, 0, 1, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveFixed(step, y0, 0, 1, 0.01, &Options{Reuse: prev})
	if err != nil {
		t.Fatal(err)
	}
	if got != prev {
		t.Error("a large enough Reuse was not the returned solution")
	}
	if !reflect.DeepEqual(got.T, want.T) || !reflect.DeepEqual(got.Y, want.Y) {
		t.Error("a reused solution's samples differ from a fresh solve's")
	}
	opts := &Options{Reuse: got}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := SolveFixed(step, y0, 0, 1, 0.01, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("a reused solve allocates %v times, want at most the record closure", allocs)
	}
	// NewSolution sized for twice the steps serves this run and a shorter
	// one in turn, as the FBSM's fine-grid arena serves its coarse level.
	presized := NewSolution(200, len(y0))
	for _, tf := range []float64{0.1, 1} {
		got, err := SolveFixed(step, y0, 0, tf, 0.01, &Options{Reuse: presized})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := SolveFixed(step, y0, 0, tf, 0.01, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != presized || !reflect.DeepEqual(got.T, fresh.T) || !reflect.DeepEqual(got.Y, fresh.Y) {
			t.Errorf("tf %g: NewSolution reused %v, samples equal to a fresh solve's %v",
				tf, got == presized, reflect.DeepEqual(got.Y, fresh.Y))
		}
	}
	small, err := SolveFixed(step, y0, 0, 0.1, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := SolveFixed(step, y0, 0, 1, 0.01, &Options{Reuse: small}); err != nil || got == small {
		t.Errorf("a too-small Reuse: got the same solution %v (err %v), want a fresh one", got == small, err)
	}
}

// BenchmarkStepCost times one RK4 step at the Digg-scale state dimension
// (848 groups × (S, I)) through a pre-sized stepper.
func BenchmarkStepCost(b *testing.B) {
	b.Run("rk4", func(b *testing.B) {
		st := NewRK4(1696)
		y := make([]float64, 1696)
		dst := make([]float64, len(y))
		for i := range y {
			y[i] = 0.5
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Step(expDecay, 0, y, 1e-2, dst)
		}
	})
}

// BenchmarkSolveFixedDiggScale times a full fixed-step solve at the
// Digg-scale dimension with the default record cadence; with the
// preallocated trajectory backing and pre-sized stepper the whole solve
// performs a small constant number of allocations regardless of step count
// (TestSolveFixedStepLoopZeroAlloc pins that).
func BenchmarkSolveFixedDiggScale(b *testing.B) {
	y0 := make([]float64, 1696)
	for i := range y0 {
		y0[i] = 0.5
	}
	st := NewRK4(len(y0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveFixed(st.Bind(expDecay), y0, 0, 1, 1e-3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSolveFixedRecordRowsDistinct pins Record 1's direct writes: each
// step writes its own sample's row, so every row of a solve — fresh or
// reusing an earlier solution's storage — is its own storage, and the
// samples equal those of a Record 2 solve (which copies each sample from
// the state buffers) wherever both have one.
func TestSolveFixedRecordRowsDistinct(t *testing.T) {
	y0 := []float64{1, 2, 3}
	step := NewRK4(len(y0)).Bind(expDecay)
	every2, err := SolveFixed(step, y0, 0, 1, 0.01, &Options{Record: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := SolveFixed(step, y0, 0, 1, 0.01, &Options{Record: 1})
	if err != nil {
		t.Fatal(err)
	}
	reused, err := SolveFixed(step, []float64{4, 5, 6}, 0, 1, 0.01, &Options{Record: 1, Reuse: fresh})
	if err != nil {
		t.Fatal(err)
	}
	reused, err = SolveFixed(step, y0, 0, 1, 0.01, &Options{Record: 1, Reuse: reused})
	if err != nil {
		t.Fatal(err)
	}
	for j := range reused.Y {
		if j%2 == 0 && !reflect.DeepEqual(reused.Y[j], every2.Y[j/2]) {
			t.Fatalf("sample %d (t=%g) = %v, Record 2's %v", j, reused.T[j], reused.Y[j], every2.Y[j/2])
		}
	}
	// Overwrite every row with its own index; a row sharing storage with
	// another would show the later row's value.
	for j, row := range reused.Y {
		for i := range row {
			row[i] = float64(j)
		}
	}
	for j, row := range reused.Y {
		for _, v := range row {
			if v != float64(j) {
				t.Fatalf("row %d reads %g: it shares storage with row %g", j, v, v)
			}
		}
	}
}

// TestSolveFixedStepReportsFinite: SolveFixed takes a step's finiteness
// report as it is and stops at the first step that reports a non-finite
// state.
func TestSolveFixedStepReportsFinite(t *testing.T) {
	lying := func(t float64, y []float64, h float64, dst []float64) bool {
		dst[0] = y[0] - h
		return t < 0.25
	}
	sol, err := SolveFixed(lying, []float64{1}, 0, 1, 0.1, nil)
	if err == nil || !strings.Contains(err.Error(), "non-finite at t=0.4") {
		t.Errorf("error %v, want the step's report of a non-finite state at t=0.4", err)
	}
	if sol.Len() != 4 {
		t.Errorf("%d samples before the error, want the initial state and 3 steps", sol.Len())
	}
}

// TestFitStepLands checks that the step FitStep returns crosses the span in
// exactly the asked steps at every horizon 0.1, 0.2, …, 1000, for every
// level of rumord's ode job at 50 and 501 samples (49·2^k and 500·2^k
// steps, up to 2^15): tf/N alone takes N + 1 at 6–11% of them.
func TestFitStepLands(t *testing.T) {
	var nudged int
	for k := 1; k <= 10000; k++ {
		tf := float64(k) / 10
		for _, n0 := range []int{49, 500} {
			for n := n0; n <= 1<<15; n *= 2 {
				h := FitStep(tf/float64(n), tf, n)
				if got := math.Ceil(tf / h); got != float64(n) {
					t.Fatalf("tf %v: FitStep(tf/%d) = %v takes %v steps", tf, n, h, got)
				}
				if h != tf/float64(n) {
					nudged++
				}
			}
		}
	}
	if nudged == 0 {
		t.Error("no step needed a nudge: the test no longer exercises FitStep")
	}
	t.Logf("%d of the steps were nudged", nudged)
}
