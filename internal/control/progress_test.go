package control

import (
	"context"
	"math"
	"reflect"
	"testing"

	"rumornet/internal/core"
	"rumornet/internal/obs"
)

// TestOptimizeProgress checks the FBSM telemetry contract: one StageFBSM
// event per iteration of each grid, numbered from 1 on each, carrying a
// positive residual and the sweep's objective, in-sweep forward/backward
// checkpoints, and no effect on the result.
func TestOptimizeProgress(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	opts := Options{
		Grid: testGrid, MaxIter: 8, Tol: 1e-9,
		Eps1Max: testEps1Max, Eps2Max: testEps2Max, Cost: testCost,
	}

	plain, err := Optimize(m, ic, testTf, opts)
	if err != nil {
		t.Fatal(err)
	}

	var iters []obs.Event
	var forward, backward int
	opts.Progress = func(ev obs.Event) {
		switch ev.Stage {
		case obs.StageFBSM:
			iters = append(iters, ev)
		case obs.StageFBSMForward:
			forward++
		case obs.StageFBSMBackward:
			backward++
		default:
			t.Errorf("unexpected stage %q", ev.Stage)
		}
	}
	opts.ProgressEvery = 50
	traced, err := Optimize(m, ic, testTf, opts)
	if err != nil {
		t.Fatal(err)
	}

	if traced.Iterations != plain.Iterations || traced.CoarseIterations != plain.CoarseIterations ||
		traced.Cost.Total != plain.Cost.Total {
		t.Errorf("progress changed the result: %d+%d/%g vs %d+%d/%g",
			traced.CoarseIterations, traced.Iterations, traced.Cost.Total,
			plain.CoarseIterations, plain.Iterations, plain.Cost.Total)
	}
	coarse := traced.CoarseIterations
	if coarse == 0 || coarseGrid(testGrid) == 0 {
		t.Fatalf("grid %d ran %d coarse sweeps on a coarse grid of %d, want some",
			testGrid, coarse, coarseGrid(testGrid))
	}
	if len(iters) != coarse+traced.Iterations {
		t.Fatalf("StageFBSM events = %d, want one per iteration (%d+%d)", len(iters), coarse, traced.Iterations)
	}
	for i, ev := range iters {
		step := i + 1
		if i >= coarse {
			step = i - coarse + 1
		}
		if ev.Step != step || ev.Total != opts.MaxIter {
			t.Errorf("iteration event %d: Step=%d Total=%d, want Step %d", i, ev.Step, ev.Total, step)
		}
		if ev.Value <= 0 {
			t.Errorf("iteration %d: non-positive residual %g", i+1, ev.Value)
		}
		if ev.Cost <= 0 {
			t.Errorf("iteration %d: non-positive objective %g", i+1, ev.Cost)
		}
		if ev.T != testTf {
			t.Errorf("iteration %d: T=%g, want horizon %g", i+1, ev.T, testTf)
		}
	}
	// With grid 200 and cadence 50, each sweep's integrations emit 4
	// checkpoints apiece, and each sweep on the coarse grid of 50 one; the
	// final EvaluateCost pass is untraced.
	want := coarse*coarseGrid(testGrid)/50 + traced.Iterations*testGrid/50
	if forward != want {
		t.Errorf("forward checkpoints = %d, want %d over %d+%d sweeps",
			forward, want, coarse, traced.Iterations)
	}
	if backward != want {
		t.Errorf("backward checkpoints = %d, want %d over %d+%d sweeps",
			backward, want, coarse, traced.Iterations)
	}
}

// The residual series itself should decay: the last reported residual must
// be well below the first on a convergent problem.
func TestOptimizeProgressResidualDecays(t *testing.T) {
	m := controlModel(t)
	ic := controlIC(t, m)
	var residuals []float64
	opts := Options{
		Grid: testGrid, MaxIter: 150, Tol: 1e-4,
		Eps1Max: testEps1Max, Eps2Max: testEps2Max, Cost: testCost,
		Progress: func(ev obs.Event) {
			if ev.Stage == obs.StageFBSM {
				residuals = append(residuals, ev.Value)
			}
		},
	}
	pol, err := Optimize(m, ic, testTf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pol.Converged {
		t.Fatalf("test problem should converge within %d iterations", opts.MaxIter)
	}
	first, last := residuals[0], residuals[len(residuals)-1]
	if last > opts.Tol || last >= first {
		t.Errorf("residuals did not decay: first %g, last %g", first, last)
	}
}

// TestSweepCostMatchesEvaluateCost checks that each StageFBSM event prices
// the schedule its sweep integrated, bit for bit as EvaluateCost prices it
// on that sweep's grid, for both adjoints on the solve benchmark's FBSM
// job, and that EvaluateCost's quadrature has the bits of
// referenceBreakdown's. The job's grid of 120 runs sweeps on its quarter
// grid first, so the events cover both grids. The backward sweep runs
// after the forward one and before the update loop overwrites the
// schedule, so the kernel seam sees the swept schedule; the first sweep of
// each grid must start from that grid's first iterate: the constant guess
// on the quarter grid, the coarse answer interpolated onto the full one.
func TestSweepCostMatchesEvaluateCost(t *testing.T) {
	m := diggControlModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	const sweeps, tf = 5, 20.0
	for _, adj := range []Adjoint{AdjointExact, AdjointDiagonal} {
		opts := benchFBSMOptions()
		opts.Adjoint, opts.MaxIter, opts.Tol = adj, sweeps, 1e-15
		var (
			swept  []*Schedule
			costs  []float64
			coarse *Schedule // the coarse level's iterate, updated in place
		)
		kernel := func(ctx context.Context, m *core.Model, tr *core.Trajectory, sched *Schedule, opts Options, a *sweepArena) (psi, phi [][]float64, err error) {
			if coarse == nil {
				coarse = sched
			}
			swept = append(swept, sched.Clone())
			return backwardSweep(ctx, m, tr, sched, opts, a)
		}
		opts.Progress = func(ev obs.Event) {
			if ev.Stage == obs.StageFBSM {
				costs = append(costs, ev.Cost)
			}
		}
		pol, err := optimize(context.Background(), m, ic, tf, opts, kernel, true)
		if err != nil {
			t.Fatal(err)
		}
		if pol.CoarseIterations != sweeps || pol.Iterations != sweeps ||
			len(costs) != 2*sweeps || len(swept) != 2*sweeps {
			t.Fatalf("adjoint %d: %d+%d sweeps, %d StageFBSM events, %d swept schedules; want %d+%d of each",
				adj, pol.CoarseIterations, pol.Iterations, len(costs), len(swept), sweeps, sweeps)
		}
		first, err := NewConstantSchedule(tf, coarseGrid(opts.Grid), opts.Eps1Max/2, opts.Eps2Max/2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(swept[0], first) {
			t.Errorf("adjoint %d: the first coarse sweep did not start from the constant guess", adj)
		}
		fine := swept[sweeps]
		if len(coarse.T) != coarseGrid(opts.Grid)+1 || len(fine.T) != opts.Grid+1 {
			t.Fatalf("adjoint %d: the levels ran on %d and %d nodes", adj, len(coarse.T), len(fine.T))
		}
		for j, tj := range fine.T {
			e1 := math.Min(math.Max(coarse.Eps1At(tj), 0), opts.Eps1Max)
			e2 := math.Min(math.Max(coarse.Eps2At(tj), 0), opts.Eps2Max)
			if fine.Eps1[j] != e1 || fine.Eps2[j] != e2 {
				t.Fatalf("adjoint %d: the first fine sweep's node %d holds (%v, %v), the coarse answer there (%v, %v)",
					adj, j, fine.Eps1[j], fine.Eps2[j], e1, e2)
			}
		}
		for k, sched := range swept {
			want, tr, err := EvaluateCost(m, ic, sched, opts.Cost)
			if err != nil {
				t.Fatal(err)
			}
			if ref := referenceBreakdown(m, tr, sched, opts.Cost); ref != want {
				t.Errorf("adjoint %d sweep %d: EvaluateCost %+v, reference quadrature %+v", adj, k+1, want, ref)
			}
			if math.Float64bits(costs[k]) != math.Float64bits(want.Total) {
				t.Errorf("adjoint %d sweep %d (grid %d): event cost %v, EvaluateCost of its schedule %v",
					adj, k+1, len(sched.T)-1, costs[k], want.Total)
			}
		}
	}
}

// TestSweepRowsMatchReference checks the update loop's pricing row by row,
// where a last-bit slip in one integrand could vanish in J: with a hook,
// every row the loop priced equals referenceIntegrand of the schedule its
// sweep integrated, bit for bit, for both adjoints, on the quarter grid's
// sweeps and the full grid's.
func TestSweepRowsMatchReference(t *testing.T) {
	m := diggControlModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, adj := range []Adjoint{AdjointExact, AdjointDiagonal} {
		opts := benchFBSMOptions()
		opts.Adjoint, opts.MaxIter, opts.Tol = adj, 5, 1e-15
		var (
			arena *sweepArena
			want  []float64
		)
		// The backward sweep runs after the forward one and before the
		// update loop overwrites the schedule, so it sees the swept pair.
		kernel := func(ctx context.Context, m *core.Model, tr *core.Trajectory, sched *Schedule, opts Options, a *sweepArena) (psi, phi [][]float64, err error) {
			arena, want = a, want[:0]
			for j := range sched.T {
				want = append(want, referenceIntegrand(m.N(), tr, sched, opts.Cost, j))
			}
			return backwardSweep(ctx, m, tr, sched, opts, a)
		}
		sweeps := 0
		opts.Progress = func(ev obs.Event) {
			if ev.Stage != obs.StageFBSM {
				return
			}
			sweeps++
			for j, w := range want {
				if math.Float64bits(arena.rows[j]) != math.Float64bits(w) {
					t.Errorf("adjoint %d sweep %d row %d: priced %v, reference %v", adj, ev.Step, j, arena.rows[j], w)
					return
				}
			}
		}
		pol, err := optimize(context.Background(), m, ic, 20, opts, kernel, true)
		if err != nil {
			t.Fatal(err)
		}
		if pol.CoarseIterations != opts.MaxIter || pol.Iterations != opts.MaxIter || sweeps != 2*opts.MaxIter {
			t.Errorf("adjoint %d: %d StageFBSM events over %d+%d sweeps, want %d on each grid",
				adj, sweeps, pol.CoarseIterations, pol.Iterations, opts.MaxIter)
		}
	}
}

// referenceIntegrand is row j's running-cost integrand as the quadrature
// formed it before the per-row pricing, c1·ε1·ε1·s·s + c2·ε2·ε2·i·i per
// element, kept verbatim as the golden reference.
func referenceIntegrand(n int, tr *core.Trajectory, sched *Schedule, cost Cost, j int) float64 {
	y := tr.Y[j]
	e1 := sched.Eps1[j]
	e2 := sched.Eps2[j]
	var sum float64
	for i := 0; i < n; i++ {
		s, inf := y[i], y[n+i]
		sum += cost.C1*e1*e1*s*s + cost.C2*e2*e2*inf*inf
	}
	return sum
}

// referenceBreakdown is the objective (13) quadrature before the per-row
// pricing, every interior row's referenceIntegrand evaluated twice, kept
// verbatim as the golden reference for breakdownOnGrid and foldCost.
func referenceBreakdown(m *core.Model, tr *core.Trajectory, sched *Schedule, cost Cost) Breakdown {
	var bd Breakdown
	n := m.N()
	for j := 0; j+1 < len(sched.T); j++ {
		h := sched.T[j+1] - sched.T[j]
		bd.Running += h / 2 * (referenceIntegrand(n, tr, sched, cost, j) + referenceIntegrand(n, tr, sched, cost, j+1))
	}
	_, yf := tr.Last()
	for i := 0; i < n; i++ {
		bd.Terminal += yf[n+i]
	}
	bd.Total = bd.Terminal + bd.Running
	return bd
}

// BenchmarkOptimizeProgress prices the progress hook on the solve
// benchmark's FBSM job (848 groups, grid 120, tf 20): "off" runs with no
// hook, "on" with a counting hook, which also has every sweep priced for
// its StageFBSM event. The acceptance bound is ≤5% overhead.
func BenchmarkOptimizeProgress(b *testing.B) {
	m := diggControlModel(b)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		b.Fatal(err)
	}
	var events int
	for _, bc := range []struct {
		name string
		prog obs.Progress
	}{
		{"off", nil},
		{"on", func(obs.Event) { events++ }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := benchFBSMOptions()
			opts.Progress = bc.prog
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(m, ic, 20, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
