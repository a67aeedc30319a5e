package control

import (
	"context"
	"math"
	"testing"

	"rumornet/internal/core"
	"rumornet/internal/obs"
)

// TestOptimizeProgress checks the FBSM telemetry contract: one StageFBSM
// event per iteration carrying a positive residual and the sweep's objective,
// in-sweep forward/backward checkpoints, and no effect on the result.
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

	if traced.Iterations != plain.Iterations || traced.Cost.Total != plain.Cost.Total {
		t.Errorf("progress changed the result: %d/%g vs %d/%g",
			traced.Iterations, traced.Cost.Total, plain.Iterations, plain.Cost.Total)
	}
	if len(iters) != traced.Iterations {
		t.Fatalf("StageFBSM events = %d, want one per iteration (%d)", len(iters), traced.Iterations)
	}
	for i, ev := range iters {
		if ev.Step != i+1 || ev.Total != opts.MaxIter {
			t.Errorf("iteration event %d: Step=%d Total=%d", i, ev.Step, ev.Total)
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
	// With grid 200 and cadence 50, each sweep's integrations emit ~4
	// checkpoints apiece; the final EvaluateCost pass is untraced.
	wantPerSweep := testGrid / 50
	if forward != traced.Iterations*wantPerSweep {
		t.Errorf("forward checkpoints = %d, want %d per sweep over %d sweeps",
			forward, wantPerSweep, traced.Iterations)
	}
	if backward != traced.Iterations*wantPerSweep {
		t.Errorf("backward checkpoints = %d, want %d per sweep over %d sweeps",
			backward, wantPerSweep, traced.Iterations)
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
// the schedule its sweep integrated, bit for bit as EvaluateCost prices
// it, for both adjoints on the solve benchmark's FBSM job, and that
// EvaluateCost's quadrature has the bits of referenceBreakdown's. Sweep k
// integrates the schedule k−1 sweeps leave behind (the initial constant
// guess for k = 1), which is the policy of a run capped at k−1 sweeps.
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
		var costs []float64
		opts.Progress = func(ev obs.Event) {
			if ev.Stage == obs.StageFBSM {
				costs = append(costs, ev.Cost)
			}
		}
		if _, err := Optimize(m, ic, tf, opts); err != nil {
			t.Fatal(err)
		}
		if len(costs) != sweeps {
			t.Fatalf("adjoint %d: %d StageFBSM events, want %d", adj, len(costs), sweeps)
		}
		for k := 1; k <= sweeps; k++ {
			swept, err := NewConstantSchedule(tf, opts.Grid, opts.Eps1Max/2, opts.Eps2Max/2)
			if err != nil {
				t.Fatal(err)
			}
			if k > 1 {
				capped := opts
				capped.MaxIter, capped.Progress = k-1, nil
				pol, err := Optimize(m, ic, tf, capped)
				if err != nil {
					t.Fatal(err)
				}
				swept = pol.Schedule
			}
			want, tr, err := EvaluateCost(m, ic, swept, opts.Cost)
			if err != nil {
				t.Fatal(err)
			}
			if ref := referenceBreakdown(m, tr, swept, opts.Cost); ref != want {
				t.Errorf("adjoint %d sweep %d: EvaluateCost %+v, reference quadrature %+v", adj, k, want, ref)
			}
			if math.Float64bits(costs[k-1]) != math.Float64bits(want.Total) {
				t.Errorf("adjoint %d sweep %d: event cost %v, EvaluateCost of its schedule %v",
					adj, k, costs[k-1], want.Total)
			}
		}
	}
}

// TestSweepRowsMatchReference checks the update loop's pricing row by row,
// where a last-bit slip in one integrand could vanish in J: with a hook,
// every row the loop priced equals referenceIntegrand of the schedule its
// sweep integrated, bit for bit, for both adjoints.
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
		if _, err := optimize(context.Background(), m, ic, 20, opts, kernel); err != nil {
			t.Fatal(err)
		}
		if sweeps != opts.MaxIter {
			t.Errorf("adjoint %d: %d StageFBSM events, want %d", adj, sweeps, opts.MaxIter)
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
