package control

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rumornet/internal/core"
	"rumornet/internal/degreedist"
)

const (
	testEps1Max = 0.5
	testEps2Max = 0.5
	testTf      = 40.0
	testGrid    = 200
)

var testCost = Cost{C1: 5, C2: 10}

// controlModel returns a strongly epidemic model (r0 = 3 at the weak
// baseline countermeasures) for control experiments.
func controlModel(t testing.TB) *core.Model {
	t.Helper()
	d, err := degreedist.TruncatedPowerLaw(1.5, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.CalibratedModel(d, 0.01, 0.05, 0.05, 3.0, degreedist.OmegaSaturating(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func controlIC(t testing.TB, m *core.Model) []float64 {
	t.Helper()
	ic, err := m.UniformIC(0.05)
	if err != nil {
		t.Fatal(err)
	}
	return ic
}

func TestNewConstantSchedule(t *testing.T) {
	s, err := NewConstantSchedule(10, 5, 0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.T) != 6 || s.Horizon() != 10 {
		t.Errorf("grid = %v", s.T)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if s.Eps1At(3.7) != 0.1 || s.Eps2At(9.9) != 0.2 {
		t.Error("constant schedule not constant")
	}
	for _, bad := range []struct {
		tf     float64
		n      int
		e1, e2 float64
	}{{0, 5, 0, 0}, {10, 0, 0, 0}, {10, 5, -1, 0}, {10, 5, 0, -1}} {
		if _, err := NewConstantSchedule(bad.tf, bad.n, bad.e1, bad.e2); err == nil {
			t.Errorf("NewConstantSchedule(%+v): want error", bad)
		}
	}
}

func TestScheduleInterp(t *testing.T) {
	s, err := NewConstantSchedule(2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Eps1 = []float64{0, 1, 0}
	// Linear interpolation between the nodes at t = 0, 1, 2.
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1.5, 0.5}, {2, 0}, {3, 0},
	}
	for _, tt := range cases {
		if got := s.Eps1At(tt.t); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Eps1At(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

// TestScheduleInterpBracketed samples a schedule alternating between 0 and
// 0.6 on the horizons and grids of the FBSM's requests, at the times a
// fixed-step RK4 integration asks for (accumulated steps of h, h/2 and h/4
// with their stage midpoints and ends) and at 10⁵ uniform random times:
// every value must lie between the values of the two nodes around its
// time. An accumulated time a hair below a node once picked the segment
// after it from the uniform-grid index, and came out below 0.
func TestScheduleInterpBracketed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		tf   float64
		grid int
	}{{20, 120}, {20, 30}, {8, 60}, {10, 60}, {14, 60}, {6, 15}, {100, 1000}} {
		s, err := NewConstantSchedule(tc.tf, tc.grid, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range s.Eps1 {
			if j%2 == 1 {
				s.Eps1[j], s.Eps2[j] = 0.6, 0.6
			}
		}
		var times []float64
		for _, div := range []int{1, 2, 4} {
			h := (s.T[1] - s.T[0]) / float64(div)
			at := 0.0
			for i := 0; i < tc.grid*div; i++ {
				times = append(times, at, at+h/2, at+h)
				at += h
			}
		}
		for i := 0; i < 100000; i++ {
			times = append(times, rng.Float64()*tc.tf)
		}
		bad := 0
		for _, at := range times {
			// The segment [T[j], T[j+1]] holding at.
			j := sort.SearchFloat64s(s.T, at)
			if j == len(s.T) || s.T[j] > at {
				j--
			}
			if j == len(s.T)-1 {
				j--
			}
			lo, hi := math.Min(s.Eps1[j], s.Eps1[j+1]), math.Max(s.Eps1[j], s.Eps1[j+1])
			if v := s.Eps1At(at); v < lo || v > hi {
				if bad++; bad <= 3 {
					t.Errorf("tf %g, grid %d: ε1(%v) = %v outside [%v, %v], the values of nodes %d and %d",
						tc.tf, tc.grid, at, v, lo, hi, j, j+1)
				}
			}
		}
		if bad > 3 {
			t.Errorf("tf %g, grid %d: %d values outside their segment", tc.tf, tc.grid, bad)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	s, err := NewConstantSchedule(1, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Eps1[1] = -0.5
	if err := s.Validate(); err == nil {
		t.Error("negative control: want error")
	}
	s2 := &Schedule{T: []float64{0, 1}, Eps1: []float64{0}, Eps2: []float64{0, 0}}
	if err := s2.Validate(); err == nil {
		t.Error("length mismatch: want error")
	}
	s3 := &Schedule{T: []float64{0, 0}, Eps1: []float64{0, 0}, Eps2: []float64{0, 0}}
	if err := s3.Validate(); err == nil {
		t.Error("non-increasing grid: want error")
	}
	s4 := &Schedule{T: []float64{0}}
	if err := s4.Validate(); err == nil {
		t.Error("single node: want error")
	}
}

func TestScheduleClone(t *testing.T) {
	s, err := NewConstantSchedule(1, 2, 0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	c.Eps1[0] = 99
	if s.Eps1[0] == 99 {
		t.Error("Clone shares storage")
	}
}

func TestEvaluateCostZeroControl(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	sched, err := NewConstantSchedule(testTf, testGrid, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	bd, tr, err := EvaluateCost(m, ic, sched, testCost)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Running != 0 {
		t.Errorf("running cost with zero controls = %v, want 0", bd.Running)
	}
	if bd.Terminal <= 0 {
		t.Errorf("terminal infection = %v, want > 0 (epidemic regime)", bd.Terminal)
	}
	if bd.Total != bd.Terminal {
		t.Errorf("Total = %v, want Terminal %v", bd.Total, bd.Terminal)
	}
	if tr.Len() != testGrid+1 {
		t.Errorf("trajectory samples = %d, want %d", tr.Len(), testGrid+1)
	}
}

func TestEvaluateCostValidation(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	sched, err := NewConstantSchedule(testTf, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EvaluateCost(m, ic, sched, Cost{C1: -1}); err == nil {
		t.Error("negative cost: want error")
	}
	if _, _, err := EvaluateCost(m, []float64{1}, sched, testCost); err == nil {
		t.Error("bad IC: want error")
	}
	bad := &Schedule{T: []float64{0}}
	if _, _, err := EvaluateCost(m, ic, bad, testCost); err == nil {
		t.Error("bad schedule: want error")
	}
}

// TestEvaluateCostUnevenGrid feeds EvaluateCost schedules that validate
// but that no fixed step aligns with: uneven spacing, and a grid that does
// not start at 0. Each must end in an error, not in a search for a step.
func TestEvaluateCostUnevenGrid(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	for _, in := range []string{
		`{"t":[0,1,100],"eps1":[0,0,0],"eps2":[0,0,0]}`,
		`{"t":[5,6,7],"eps1":[0,0,0],"eps2":[0,0,0]}`,
	} {
		sched, err := ReadScheduleJSON(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if _, _, err := EvaluateCost(m, ic, sched, testCost); err == nil {
			t.Errorf("%s: want misaligned-grid error", in)
		}
	}
}

func TestOptimizeConvergesAndRespectsBounds(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	pol, err := Optimize(m, ic, testTf, Options{
		Grid:    testGrid,
		Eps1Max: testEps1Max,
		Eps2Max: testEps2Max,
		Cost:    testCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pol.Converged {
		t.Errorf("FBSM did not converge in %d iterations", pol.Iterations)
	}
	for j := range pol.Schedule.T {
		if pol.Schedule.Eps1[j] < 0 || pol.Schedule.Eps1[j] > testEps1Max {
			t.Fatalf("ε1[%d] = %v outside [0, %v]", j, pol.Schedule.Eps1[j], testEps1Max)
		}
		if pol.Schedule.Eps2[j] < 0 || pol.Schedule.Eps2[j] > testEps2Max {
			t.Fatalf("ε2[%d] = %v outside [0, %v]", j, pol.Schedule.Eps2[j], testEps2Max)
		}
	}
	if pol.Cost.Total <= 0 {
		t.Errorf("optimized cost = %v, want > 0", pol.Cost.Total)
	}
}

// TestOptimizeBeatsConstantPolicies is the core optimality check: the FBSM
// policy must achieve a lower objective J than naive constant policies.
func TestOptimizeBeatsConstantPolicies(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	pol, err := Optimize(m, ic, testTf, Options{
		Grid:    testGrid,
		Eps1Max: testEps1Max,
		Eps2Max: testEps2Max,
		Cost:    testCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []float64{0, 0.25, 0.5, 1.0} {
		sched, err := NewConstantSchedule(testTf, testGrid, level*testEps1Max, level*testEps2Max)
		if err != nil {
			t.Fatal(err)
		}
		bd, _, err := EvaluateCost(m, ic, sched, testCost)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Cost.Total > bd.Total+1e-9 {
			t.Errorf("optimized J = %v exceeds constant-%v J = %v",
				pol.Cost.Total, level, bd.Total)
		}
	}
}

func TestOptimizeValidation(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	if _, err := Optimize(m, ic, testTf, Options{Cost: testCost}); err == nil {
		t.Error("missing bounds: want error")
	}
	if _, err := Optimize(m, ic, testTf, Options{Eps1Max: 1, Eps2Max: 1}); err == nil {
		t.Error("missing costs: want error")
	}
	if _, err := Optimize(m, ic, testTf, Options{
		Eps1Max: 1, Eps2Max: 1, Cost: testCost, Adjoint: Adjoint(99),
	}); err == nil {
		t.Error("bad adjoint: want error")
	}
	if _, err := Optimize(m, []float64{1}, testTf, Options{
		Eps1Max: 1, Eps2Max: 1, Cost: testCost,
	}); err == nil {
		t.Error("bad IC: want error")
	}
}

func TestAdjointDiagonalCloseToExact(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	base := Options{
		Grid:    testGrid,
		Eps1Max: testEps1Max,
		Eps2Max: testEps2Max,
		Cost:    testCost,
	}
	exact, err := Optimize(m, ic, testTf, base)
	if err != nil {
		t.Fatal(err)
	}
	diag := base
	diag.Adjoint = AdjointDiagonal
	paper, err := Optimize(m, ic, testTf, diag)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's diagonal adjoint drops cross-group coupling; on these
	// parameters the resulting objective should be close to the exact one.
	rel := math.Abs(paper.Cost.Total-exact.Cost.Total) / exact.Cost.Total
	if rel > 0.25 {
		t.Errorf("diagonal J = %v vs exact J = %v (rel diff %v)",
			paper.Cost.Total, exact.Cost.Total, rel)
	}
	// And the exact adjoint must not be worse on the true objective.
	if exact.Cost.Total > paper.Cost.Total*1.05 {
		t.Errorf("exact adjoint J = %v clearly worse than diagonal %v",
			exact.Cost.Total, paper.Cost.Total)
	}
}

func TestOptimizeToTarget(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	const target = 1e-3
	pol, err := OptimizeToTarget(m, ic, testTf, target, Options{
		Grid:    testGrid,
		Eps1Max: testEps1Max,
		Eps2Max: testEps2Max,
		Cost:    testCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := meanTerminalI(m, pol.Trajectory); got > target {
		t.Errorf("terminal mean infection = %v, want <= %v", got, target)
	}
	if _, err := OptimizeToTarget(m, ic, testTf, -1, Options{
		Eps1Max: 1, Eps2Max: 1, Cost: testCost,
	}); err == nil {
		t.Error("negative target: want error")
	}
	// Impossible target under feeble bounds.
	if _, err := OptimizeToTarget(m, ic, 5, 1e-12, Options{
		Grid: 50, Eps1Max: 1e-6, Eps2Max: 1e-6, Cost: testCost,
	}); err == nil {
		t.Error("unreachable target: want error")
	}
}

func TestHeuristicZeroGainIsUncontrolled(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	pol, err := HeuristicPolicy(m, ic, testTf, 0, testGrid, testEps1Max, testEps2Max, testCost)
	if err != nil {
		t.Fatal(err)
	}
	for j := range pol.Schedule.T {
		if pol.Schedule.Eps1[j] != 0 || pol.Schedule.Eps2[j] != 0 {
			t.Fatalf("zero gain produced non-zero control at node %d", j)
		}
	}
	if pol.Cost.Running != 0 {
		t.Errorf("running cost = %v, want 0", pol.Cost.Running)
	}
}

func TestHeuristicControlsTrackInfection(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	pol, err := HeuristicPolicy(m, ic, testTf, 5, testGrid, testEps1Max, testEps2Max, testCost)
	if err != nil {
		t.Fatal(err)
	}
	// Feedback controls must be within bounds and positive while the
	// infection is active.
	for j := range pol.Schedule.T {
		e1, e2 := pol.Schedule.Eps1[j], pol.Schedule.Eps2[j]
		if e1 < 0 || e1 > testEps1Max || e2 < 0 || e2 > testEps2Max {
			t.Fatalf("controls out of bounds at node %d: (%v, %v)", j, e1, e2)
		}
	}
	if pol.Schedule.Eps2[0] <= 0 {
		t.Error("feedback control zero despite initial infection")
	}
	if _, err := HeuristicPolicy(m, ic, testTf, -1, testGrid, 1, 1, testCost); err == nil {
		t.Error("negative gain: want error")
	}
	if _, err := HeuristicPolicy(m, ic, testTf, 1, 0, 1, 1, testCost); err == nil {
		t.Error("zero grid: want error")
	}
	if _, err := HeuristicPolicy(m, []float64{1}, testTf, 1, 10, 1, 1, testCost); err == nil {
		t.Error("bad IC: want error")
	}
}

// TestFig4cShapeOptimizedCheaperThanHeuristic reproduces the headline claim
// of Fig. 4(c): at equal terminal infection, the Pontryagin policy costs
// less than the calibrated heuristic feedback policy.
func TestFig4cShapeOptimizedCheaperThanHeuristic(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	const target = 1e-3
	heur, err := CalibrateHeuristic(m, ic, testTf, target, testGrid, testEps1Max, testEps2Max, testCost)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimizeToTarget(m, ic, testTf, target, Options{
		Grid:    testGrid,
		Eps1Max: testEps1Max,
		Eps2Max: testEps2Max,
		Cost:    testCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := meanTerminalI(m, heur.Trajectory); got > target {
		t.Fatalf("heuristic terminal infection %v above target", got)
	}
	if opt.Cost.Running >= heur.Cost.Running {
		t.Errorf("optimized running cost %v not below heuristic %v",
			opt.Cost.Running, heur.Cost.Running)
	}
}

func TestCalibrateHeuristicValidation(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	if _, err := CalibrateHeuristic(m, ic, testTf, 0, 10, 1, 1, testCost); err == nil {
		t.Error("zero target: want error")
	}
	// Unreachable: bounds far too small to ever control the epidemic.
	if _, err := CalibrateHeuristic(m, ic, 5, 1e-12, 50, 1e-9, 1e-9, testCost); err == nil {
		t.Error("unreachable target: want error")
	}
}

// Property: the optimized objective never exceeds the initial-guess
// objective (mid-range constant controls), across random cost weights.
func TestQuickOptimizeImprovesOnInitialGuess(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	f := func(c1raw, c2raw uint8) bool {
		cost := Cost{
			C1: 0.5 + float64(c1raw)/16,
			C2: 0.5 + float64(c2raw)/16,
		}
		opts := Options{
			Grid:    100,
			MaxIter: 60,
			Eps1Max: testEps1Max,
			Eps2Max: testEps2Max,
			Cost:    cost,
		}
		pol, err := Optimize(m, ic, 20, opts)
		if err != nil {
			return false
		}
		guess, err := NewConstantSchedule(20, 100, testEps1Max/2, testEps2Max/2)
		if err != nil {
			return false
		}
		bd, _, err := EvaluateCost(m, ic, guess, cost)
		if err != nil {
			return false
		}
		return pol.Cost.Total <= bd.Total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOptimizeSmall(b *testing.B) {
	m := controlModel(b)
	ic := controlIC(b, m)
	opts := Options{
		Grid:    100,
		Eps1Max: testEps1Max,
		Eps2Max: testEps2Max,
		Cost:    testCost,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(m, ic, 20, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: enlarging the admissible control box never worsens the
// optimized objective (the smaller box's policy remains feasible).
func TestQuickLargerBoundsNeverHurt(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	f := func(raw uint8) bool {
		small := 0.1 + float64(raw)/255*0.3 // [0.1, 0.4]
		base := Options{
			Grid:    100,
			MaxIter: 150,
			Eps1Max: small,
			Eps2Max: small,
			Cost:    testCost,
		}
		polSmall, err := Optimize(m, ic, 20, base)
		if err != nil {
			return false
		}
		big := base
		big.Eps1Max = small * 2
		big.Eps2Max = small * 2
		polBig, err := Optimize(m, ic, 20, big)
		if err != nil {
			return false
		}
		// Allow a small numerical slack: FBSM converges to a tolerance.
		return polBig.Cost.Total <= polSmall.Cost.Total*1.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestFBSMEveryGrid runs a sweep on every grid from 1 to 200 intervals at
// tf 20 and 100. At some grids T[1] − T[0] rounds below tf/grid, so that
// an integration at that step takes one step more than the grid has
// intervals and the sweep fails with misaligned samples; both FBSM
// integrations must take exactly grid steps. The model and controls are
// slow enough that RK4 stays stable at a step of tf.
func TestFBSMEveryGrid(t *testing.T) {
	d, err := degreedist.TruncatedPowerLaw(1.5, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.CalibratedModel(d, 0.001, 0.002, 0.002, 1.5, degreedist.OmegaSaturating(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ic, err := m.UniformIC(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range []float64{20, 100} {
		for grid := 1; grid <= 200; grid++ {
			pol, err := Optimize(m, ic, tf, Options{Grid: grid, MaxIter: 2,
				Eps1Max: 0.004, Eps2Max: 0.004, Cost: testCost})
			if err != nil {
				t.Errorf("tf %g grid %d: %v", tf, grid, err)
				continue
			}
			if n := pol.Trajectory.Len(); n != grid+1 {
				t.Errorf("tf %g grid %d: %d trajectory samples, want %d", tf, grid, n, grid+1)
			}
		}
	}
}
