package control

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rumornet/internal/core"
	"rumornet/internal/degreedist"
)

// gradientModel is controlModel's calibration on 40 degree groups.
func gradientModel(t testing.TB) *core.Model {
	t.Helper()
	d, err := degreedist.TruncatedPowerLaw(1.5, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.CalibratedModel(d, 0.01, 0.05, 0.05, 3.0, degreedist.OmegaSaturating(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reducedGradient returns ∂J/∂ε1(t_j) and ∂J/∂ε2(t_j) for the schedule's
// node values as the adjoint predicts them: the quadrature weight of node
// j times ∂H/∂ε1 = 2c1ε1ΣS² − ΣψS and ∂H/∂ε2 = 2c2ε2ΣI² − ΣφI.
func reducedGradient(t *testing.T, m *core.Model, ic []float64, sched *Schedule, opts Options) (g1, g2 []float64) {
	t.Helper()
	opts = opts.withDefaults()
	ctx := context.Background()
	tr, err := simulateOnGrid(ctx, m, ic, sched, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	psi, phi, err := backwardSweep(ctx, m, tr, sched, opts, newSweepArena(m, len(sched.T)))
	if err != nil {
		t.Fatal(err)
	}
	n, ng := m.N(), len(sched.T)
	g1, g2 = make([]float64, ng), make([]float64, ng)
	for j := 0; j < ng; j++ {
		w := sched.T[1] - sched.T[0]
		if j == 0 || j == ng-1 {
			w /= 2
		}
		y := tr.Y[j]
		var psiS, s2, phiI, i2 float64
		for i := 0; i < n; i++ {
			s, inf := y[i], y[n+i]
			psiS += psi[j][i] * s
			s2 += s * s
			phiI += phi[j][i] * inf
			i2 += inf * inf
		}
		g1[j] = w * (2*opts.Cost.C1*sched.Eps1[j]*s2 - psiS)
		g2[j] = w * (2*opts.Cost.C2*sched.Eps2[j]*i2 - phiI)
	}
	return g1, g2
}

// fdGradient is the central finite difference of EvaluateCost's J in the
// node value *u of the schedule.
func fdGradient(t *testing.T, m *core.Model, ic []float64, sched *Schedule, u *float64) float64 {
	t.Helper()
	const h = 1e-6
	u0 := *u
	cost := func(v float64) float64 {
		*u = v
		bd, _, err := EvaluateCost(m, ic, sched, testCost)
		if err != nil {
			t.Fatal(err)
		}
		return bd.Total
	}
	d := (cost(u0+h) - cost(u0-h)) / (2 * h)
	*u = u0
	return d
}

// gradientError is the largest gap between the adjoint's reduced gradient
// and finite differences of J over a spread of interior nodes, relative to
// the largest finite-difference component. The two end nodes are left out:
// their half-width hat functions make the continuous adjoint only
// first-order accurate there, against second order inside.
func gradientError(t *testing.T, m *core.Model, ic []float64, sched *Schedule, adj Adjoint) float64 {
	t.Helper()
	opts := Options{Eps1Max: testEps1Max, Eps2Max: testEps2Max, Cost: testCost, Adjoint: adj}
	g1, g2 := reducedGradient(t, m, ic, sched, opts)
	var gap, scale float64
	for j := 1; j < len(sched.T)-1; j += 7 {
		for _, c := range []struct {
			u    *float64
			want float64
		}{{&sched.Eps1[j], g1[j]}, {&sched.Eps2[j], g2[j]}} {
			fd := fdGradient(t, m, ic, sched, c.u)
			gap = math.Max(gap, math.Abs(c.want-fd))
			scale = math.Max(scale, math.Abs(fd))
		}
	}
	return gap / scale
}

// TestPontryaginGradient checks the exact adjoint against the objective
// itself: on random admissible schedules, the reduced gradient ∂H/∂ε must
// match central finite differences of EvaluateCost. The paper's diagonal
// adjoint (Eq. 16) must fail the same check, which shows the check can
// tell the two apart.
func TestPontryaginGradient(t *testing.T) {
	m := gradientModel(t)
	ic, err := m.UniformIC(0.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		sched, err := NewConstantSchedule(10, 200, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Smooth random schedules strictly inside the box.
		a1, a2 := rng.Float64(), rng.Float64()
		f1, f2 := 1+3*rng.Float64(), 1+3*rng.Float64()
		for j, tj := range sched.T {
			sched.Eps1[j] = testEps1Max * (0.5 + 0.4*math.Sin(f1*tj/10*math.Pi+a1))
			sched.Eps2[j] = testEps2Max * (0.5 + 0.4*math.Cos(f2*tj/10*math.Pi+a2))
		}
		exact := gradientError(t, m, ic, sched, AdjointExact)
		diag := gradientError(t, m, ic, sched, AdjointDiagonal)
		t.Logf("trial %d: relative gradient error exact %.3g, diagonal %.3g", trial, exact, diag)
		if exact > 1e-3 {
			t.Errorf("trial %d: exact adjoint gradient off by %.3g relative", trial, exact)
		}
		if diag < 1e-2 {
			t.Errorf("trial %d: diagonal adjoint passes the check (error %.3g)", trial, diag)
		}
	}
}

// TestOptimumStationary checks that the accelerated iteration stops at a
// stationary point: at the optimum the reduced gradient projected onto the
// control box — components pushing against an active bound dropped — is
// negligible next to its value at the initial guess.
func TestOptimumStationary(t *testing.T) {
	m := gradientModel(t)
	ic, err := m.UniformIC(0.05)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Grid: testGrid, Eps1Max: testEps1Max, Eps2Max: testEps2Max, Cost: testCost}
	pol, err := Optimize(m, ic, testTf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pol.Converged {
		t.Fatalf("no convergence in %d sweeps", pol.Iterations)
	}
	start, err := NewConstantSchedule(testTf, testGrid, testEps1Max/2, testEps2Max/2)
	if err != nil {
		t.Fatal(err)
	}
	projected := func(s *Schedule) float64 {
		g1, g2 := reducedGradient(t, m, ic, s, opts)
		var sum float64
		for j := range s.T {
			sum += math.Abs(project(g1[j], s.Eps1[j], testEps1Max)) +
				math.Abs(project(g2[j], s.Eps2[j], testEps2Max))
		}
		return sum
	}
	at, from := projected(pol.Schedule), projected(start)
	t.Logf("%d sweeps: projected gradient L1 %.3g at the optimum, %.3g at the initial guess", pol.Iterations, at, from)
	if at > 1e-3*from {
		t.Errorf("projected gradient %.3g at the optimum, %.3g at the initial guess", at, from)
	}
}

// project drops a gradient component that points out of [0, hi] at an
// active bound: descent would move u outside the box there.
func project(g, u, hi float64) float64 {
	if (u <= 0 && g > 0) || (u >= hi && g < 0) {
		return 0
	}
	return g
}
