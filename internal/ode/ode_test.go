package ode

import (
	"math"
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
		sol, err := SolveFixed(expDecay, []float64{1}, 0, 2, 1e-3, &RK4{}, nil)
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
	sol, err := SolveFixed(logistic, []float64{0.01}, 0, 10, 1e-3, &RK4{}, nil)
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
	sol, err := SolveFixed(harmonic, []float64{1, 0}, 0, 4*math.Pi, 1e-3, &RK4{}, nil)
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
			sol, err := SolveFixed(logistic, []float64{0.2}, 0, 2, h, &RK4{}, nil)
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
	sol, err := SolveFixed(harmonic, []float64{0, 1}, 0, 10, 1e-4, &RK4{}, &Options{Record: 100})
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
	sol, err := SolveFixed(expDecay, []float64{1}, 0, 10, 1e-3, &RK4{}, opts)
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

func TestProjection(t *testing.T) {
	// Project clamps the state at 0.8; the trajectory must never exceed it.
	growth := func(_ float64, y, dydt []float64) { dydt[0] = 1 }
	opts := &Options{Project: func(y []float64) { floats.ClampAll(y, 0, 0.8) }}
	sol, err := SolveFixed(growth, []float64{0}, 0, 2, 1e-2, &RK4{}, opts)
	if err != nil {
		t.Fatalf("SolveFixed: %v", err)
	}
	for i, y := range sol.Y {
		if y[0] > 0.8+1e-12 {
			t.Fatalf("sample %d: projection violated, y=%v", i, y[0])
		}
	}
	_, y := sol.Last()
	if y[0] != 0.8 {
		t.Errorf("final y = %v, want 0.8", y[0])
	}
}

func TestRecordThinning(t *testing.T) {
	sol, err := SolveFixed(expDecay, []float64{1}, 0, 1, 1e-3, &RK4{}, &Options{Record: 100})
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
	if _, err := SolveFixed(expDecay, []float64{1}, 1, 0, 0.1, &RK4{}, nil); err == nil {
		t.Error("reversed span: want error")
	}
	if _, err := SolveFixed(expDecay, []float64{1}, 0, 1, -0.1, &RK4{}, nil); err == nil {
		t.Error("negative step: want error")
	}
	if _, err := SolveFixed(expDecay, []float64{1}, 0, 1e6, 1e-6, &RK4{}, &Options{MaxSteps: 100}); err == nil {
		t.Error("MaxSteps exceeded: want error")
	}
	if _, err := SolveFixed(expDecay, []float64{1}, 2, 2, 0.1, &RK4{}, nil); err == nil {
		t.Error("zero span: want error")
	}
}

func TestNonFiniteDetection(t *testing.T) {
	blowup := func(_ float64, y, dydt []float64) { dydt[0] = y[0] * y[0] }
	// y' = y^2 with y(0)=1 blows up at t=1.
	_, err := SolveFixed(blowup, []float64{1}, 0, 2, 1e-4, &RK4{}, nil)
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
		s1, err1 := SolveFixed(expDecay, []float64{y0}, 0, 1, 1e-3, &RK4{}, nil)
		s2, err2 := SolveFixed(expDecay, []float64{c * y0}, 0, 1, 1e-3, &RK4{}, nil)
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
		s, err := SolveFixed(logistic, []float64{0.3}, t0, t0+1, 1e-3, &RK4{}, nil)
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
			if _, err := SolveFixed(expDecay, y0, 0, tf, 1e-3, NewRK4(len(y0)), &Options{Record: 1 << 30}); err != nil {
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
		if _, err := SolveFixed(expDecay, y0, 0, 1, 1e-3, st, nil); err != nil {
			b.Fatal(err)
		}
	}
}
