package control

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"rumornet/internal/core"
	"rumornet/internal/degreedist"
	"rumornet/internal/digg"
	"rumornet/internal/floats"
	"rumornet/internal/obs"
	"rumornet/internal/ode"
)

// diggControlModel is the FBSM job's model on the Digg2009 scenario at the
// paper's 848 degree groups: the system the backward sweep integrates in
// production.
func diggControlModel(tb testing.TB) *core.Model {
	tb.Helper()
	d, err := digg.Dist(rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	if d, err = d.Truncate(digg.PaperGroups); err != nil {
		tb.Fatal(err)
	}
	m, err := core.NewModel(d, core.Params{
		Alpha:  0.01,
		Eps1:   0.05,
		Eps2:   0.02,
		Lambda: degreedist.LambdaLinear(0.05),
		Omega:  degreedist.OmegaSaturating(0.5, 0.5),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// referenceCostateRHS is the co-state right-hand side before it was fused —
// per-call interpolation and Θ, per-group divisions and the Adjoint switch
// inside the loop — kept verbatim as the golden reference. It is the
// packed co-state z = [ψ_1..ψ_n, φ_1..φ_n] as a function of reversed time
// τ = tf − t: dz/dτ = −g(tf − τ, z).
func referenceCostateRHS(m *core.Model, tr *core.Trajectory, sched *Schedule, opts Options) ode.Func {
	n := m.N()
	tf := sched.Horizon()
	meanK := m.MeanDegree()
	y := make([]float64, 2*n)
	return func(tau float64, z, dz []float64) {
		t := tf - tau
		tr.AtInto(t, y)
		e1 := sched.Eps1At(t)
		e2 := sched.Eps2At(t)
		theta := m.Theta(y)

		// Cross-group coupling Σ_j (ψ_j − φ_j) λ_j S_j (exact adjoint).
		var coupling float64
		if opts.Adjoint == AdjointExact {
			for j := 0; j < n; j++ {
				coupling += (z[j] - z[n+j]) * m.Lambda(j) * y[j]
			}
		}

		c1, c2 := opts.Cost.C1, opts.Cost.C2
		for i := 0; i < n; i++ {
			s, inf := y[i], y[n+i]
			lam := m.Lambda(i)
			// dψ_i/dt = −2c1ε1²S_i + ψ_i(λΘ + ε1) − φ_iλΘ
			dpsi := -2*c1*e1*e1*s + z[i]*(lam*theta+e1) - z[n+i]*lam*theta

			var dphi float64
			switch opts.Adjoint {
			case AdjointExact:
				// dφ_i/dt = −2c2ε2²I_i + (φ(k_i)/⟨k⟩)Σ_j(ψ_j−φ_j)λ_jS_j + φ_iε2
				dphi = -2*c2*e2*e2*inf + m.Varphi(i)/meanK*coupling + z[n+i]*e2
			default: // AdjointDiagonal — the paper's Equation (16)
				kterm := m.Varphi(i) / meanK * lam * s
				dphi = -2*c2*e2*e2*inf + z[i]*kterm - z[n+i]*(kterm-e2)
			}
			// Reversed time flips the sign.
			dz[i] = -dpsi
			dz[n+i] = -dphi
		}
	}
}

// referenceBackwardSweep is backwardSweep on ode.RK4 over
// referenceCostateRHS: the golden reference for the whole sweep.
func referenceBackwardSweep(ctx context.Context, m *core.Model, tr *core.Trajectory, sched *Schedule, opts Options, arena *sweepArena) (psi, phi [][]float64, err error) {
	n := m.N()
	ng := len(sched.T)
	tf := sched.Horizon()

	// Transversality: ψ(tf) = 0, φ(tf) = TerminalWeight.
	z0 := arena.z0
	for i := 0; i < n; i++ {
		z0[i] = 0
		z0[n+i] = opts.TerminalWeight
	}
	h := sched.T[1] - sched.T[0]
	oopts := &ode.Options{Record: 1, Ctx: ctx}
	if opts.Progress != nil {
		prog := opts.Progress
		oopts.ProgressEvery = opts.ProgressEvery
		oopts.Progress = func(step, total int, tau float64, _ []float64) {
			// Report in forward time t = tf − τ so consumers see the sweep
			// marching from tf down to 0.
			prog(obs.Event{Stage: obs.StageFBSMBackward, Step: step, Total: total, T: tf - tau})
		}
	}
	rhs := referenceCostateRHS(m, tr, sched, opts)
	sol, err := ode.SolveFixed(ode.NewRK4(2*n).Bind(rhs), z0, 0, tf, h, oopts)
	if err != nil {
		return nil, nil, err
	}
	if sol.Len() != ng {
		return nil, nil, errors.New("control: co-state samples misaligned with grid")
	}

	// Unreverse: co-state at grid node j is the backward sample ng-1-j.
	psi, phi = arena.psi, arena.phi
	for j := 0; j < ng; j++ {
		z := sol.Y[ng-1-j]
		psi[j] = z[:n]
		phi[j] = z[n : 2*n]
	}
	return psi, phi, nil
}

// TestOptimizeMatchesReference runs the whole FBSM iteration twice, once
// on backwardSweep and once on the reference kernel, and requires the same
// policy: the fused co-state kernel, its once-per-stage-time terms and the
// reused trajectories must not move a single bit of the schedule, its cost
// or the iteration count.
func TestOptimizeMatchesReference(t *testing.T) {
	small := controlModel(t)
	diggM := diggControlModel(t)
	cases := []struct {
		name string
		m    *core.Model
		i0   float64
		tf   float64
		opts Options
	}{
		{"small", small, 0.05, testTf, Options{Grid: testGrid, Eps1Max: testEps1Max, Eps2Max: testEps2Max, Cost: testCost}},
		// The solve benchmark's FBSM job.
		{"digg", diggM, 0.1, 20, Options{Grid: 120, MaxIter: 250, Eps1Max: 0.6, Eps2Max: 0.6, Cost: Cost{C1: 5, C2: 10}}},
		// A raised terminal weight, as OptimizeToTarget sets it.
		{"digg-weighted", diggM, 0.1, 12, Options{Grid: 90, MaxIter: 250, Eps1Max: 0.6, Eps2Max: 0.6, Cost: Cost{C1: 5, C2: 10}, TerminalWeight: 8}},
	}
	t.Logf("kernels' AVX bodies: %v", floats.HasAVX())
	for _, tc := range cases {
		for _, adj := range []Adjoint{AdjointExact, AdjointDiagonal} {
			opts := tc.opts
			opts.Adjoint = adj
			ic, err := tc.m.UniformIC(tc.i0)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			got, err := optimize(ctx, tc.m, ic, tc.tf, opts, backwardSweep, true)
			if err != nil {
				t.Fatalf("%s/adjoint %d: %v", tc.name, adj, err)
			}
			want, err := optimize(ctx, tc.m, ic, tc.tf, opts, referenceBackwardSweep, true)
			if err != nil {
				t.Fatalf("%s/adjoint %d reference: %v", tc.name, adj, err)
			}
			if got.Iterations != want.Iterations || got.CoarseIterations != want.CoarseIterations ||
				got.Converged != want.Converged {
				t.Errorf("%s/adjoint %d: %d+%d iterations (converged %v), reference %d+%d (%v)",
					tc.name, adj, got.CoarseIterations, got.Iterations, got.Converged,
					want.CoarseIterations, want.Iterations, want.Converged)
			}
			if !reflect.DeepEqual(got.Schedule, want.Schedule) {
				t.Errorf("%s/adjoint %d: schedule differs from the reference", tc.name, adj)
			}
			if !reflect.DeepEqual(got.Cost, want.Cost) {
				t.Errorf("%s/adjoint %d: cost %+v, reference %+v", tc.name, adj, got.Cost, want.Cost)
			}
			if !reflect.DeepEqual(got.Trajectory.Solution, want.Trajectory.Solution) {
				t.Errorf("%s/adjoint %d: final trajectory differs from the reference", tc.name, adj)
			}
		}
	}
}

// BenchmarkBackwardSweep times one co-state sweep of the solve benchmark's
// FBSM job: 848 groups, grid 120, under the initial constant schedule.
func BenchmarkBackwardSweep(b *testing.B) {
	m := diggControlModel(b)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Grid: 120, Eps1Max: 0.6, Eps2Max: 0.6, Cost: Cost{C1: 5, C2: 10}}.withDefaults()
	sched, err := NewConstantSchedule(20, opts.Grid, opts.Eps1Max/2, opts.Eps2Max/2)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	tr, err := simulateOnGrid(ctx, m, ic, sched, nil, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	arena := newSweepArena(m, len(sched.T))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := backwardSweep(ctx, m, tr, sched, opts, arena); err != nil {
			b.Fatal(err)
		}
	}
}
