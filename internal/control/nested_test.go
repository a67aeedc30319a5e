package control

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rumornet/internal/core"
	"rumornet/internal/degreedist"
	"rumornet/internal/digg"
)

// fig4Model is the model of the paper's Fig. 4 at full fidelity: the
// epidemic regime of Fig. 3 (r0 = 2.1661) on all 854 degree groups of the
// synthetic Digg2009 distribution, as internal/experiments builds it.
func fig4Model(tb testing.TB) *core.Model {
	tb.Helper()
	d, err := digg.Dist(rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.CalibratedModel(d, 0.01, 0.05, 0.02, 2.1661, degreedist.OmegaSaturating(0.5, 0.5))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// fig4Options are Fig. 4's FBSM settings at full fidelity.
func fig4Options() Options {
	return Options{Grid: 1000, MaxIter: 250, Eps1Max: 0.8, Eps2Max: 0.8, Cost: Cost{C1: 5, C2: 10}}
}

// TestCoarseGrid pins the rule: a quarter grid only where 4 divides the
// grid and the quarter keeps at least 15 intervals.
func TestCoarseGrid(t *testing.T) {
	for grid, want := range map[int]int{
		1000: 250, 250: 0, 120: 30, 100: 25, 60: 15, 56: 0, 90: 0, 200: 50, 4: 0, 1: 0,
	} {
		if got := coarseGrid(grid); got != want {
			t.Errorf("coarseGrid(%d) = %d, want %d", grid, got, want)
		}
	}
}

// TestNestedMatchesFlat solves the solve benchmark's FBSM job and the
// contended workload's shortest and longest batch horizons both ways: from
// the quarter grid's answer and, through optimize's seam, from the
// constant guess. The warm start moves J by less than 1e-6 relative, well
// inside the FBSM's own stopping tolerance, and saves sweeps on the
// requested grid.
func TestNestedMatchesFlat(t *testing.T) {
	m := diggControlModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tf   float64
		grid int
	}{{"bench", 20, 120}, {"contended-tf6", 6, 60}, {"contended-tf14", 14, 60}} {
		opts := benchFBSMOptions()
		opts.Grid = tc.grid
		ctx := context.Background()
		flat, err := optimize(ctx, m, ic, tc.tf, opts, backwardSweep, false)
		if err != nil {
			t.Fatal(err)
		}
		nested, err := optimize(ctx, m, ic, tc.tf, opts, backwardSweep, true)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(nested.Cost.Total-flat.Cost.Total) / flat.Cost.Total
		t.Logf("%s: flat %d sweeps, nested %d on grid %d + %d; ΔJ/J %.2g",
			tc.name, flat.Iterations, nested.CoarseIterations, coarseGrid(tc.grid), nested.Iterations, rel)
		if !flat.Converged || !nested.Converged || flat.CoarseIterations != 0 || nested.CoarseIterations == 0 {
			t.Errorf("%s: flat converged %v after %d+%d sweeps, nested %v after %d+%d",
				tc.name, flat.Converged, flat.CoarseIterations, flat.Iterations,
				nested.Converged, nested.CoarseIterations, nested.Iterations)
		}
		if rel > 1e-6 {
			t.Errorf("%s: nested J %v, flat J %v: relative change %.3g > 1e-6", tc.name, nested.Cost.Total, flat.Cost.Total, rel)
		}
		if nested.Iterations >= flat.Iterations {
			t.Errorf("%s: %d sweeps on the requested grid after the warm start, %d without it",
				tc.name, nested.Iterations, flat.Iterations)
		}
	}
}

// TestNestedFallbackOnDivergence solves Fig. 4's problem on a grid of 100
// intervals, whose quarter (h = 4) goes non-finite mid-iteration: the
// requested grid then starts from the constant guess, and the policy is
// the flat one bit for bit.
func TestNestedFallbackOnDivergence(t *testing.T) {
	m := fig4Model(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	const tf = 100.0
	opts := fig4Options()
	opts.Grid = 100
	ctx := context.Background()
	quarter := opts
	quarter.Grid = coarseGrid(opts.Grid)
	if _, err := optimize(ctx, m, ic, tf, quarter, backwardSweep, false); err == nil {
		t.Fatalf("the quarter grid of %d intervals solved; the test needs one that fails", quarter.Grid)
	} else {
		t.Logf("quarter grid: %v", err)
	}
	flat, err := optimize(ctx, m, ic, tf, opts, backwardSweep, false)
	if err != nil {
		t.Fatal(err)
	}
	nested, err := optimize(ctx, m, ic, tf, opts, backwardSweep, true)
	if err != nil {
		t.Fatal(err)
	}
	if nested.CoarseIterations == 0 {
		t.Error("the coarse level reports no sweeps before it failed")
	}
	if nested.Iterations != flat.Iterations || nested.Converged != flat.Converged {
		t.Errorf("fallback ran %d sweeps (converged %v), flat %d (%v)",
			nested.Iterations, nested.Converged, flat.Iterations, flat.Converged)
	}
	if !reflect.DeepEqual(nested.Schedule, flat.Schedule) || !reflect.DeepEqual(nested.Cost, flat.Cost) ||
		!reflect.DeepEqual(nested.Trajectory.Solution.Y, flat.Trajectory.Solution.Y) {
		t.Errorf("fallback policy differs from the flat one: J %v, flat %v", nested.Cost.Total, flat.Cost.Total)
	}
}

// TestNestedCancelDuringCoarse cancels the context from inside the coarse
// level's second backward sweep: the run returns the context's error
// rather than falling back to the constant guess, and never sweeps the
// requested grid.
func TestNestedCancelDuringCoarse(t *testing.T) {
	m := diggControlModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	opts := benchFBSMOptions()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var coarseSweeps, fineSweeps int
	kernel := func(ctx context.Context, m *core.Model, tr *core.Trajectory, sched *Schedule, opts Options, a *sweepArena) (psi, phi [][]float64, err error) {
		if len(sched.T) == opts.Grid+1 {
			fineSweeps++
		} else if coarseSweeps++; coarseSweeps == 2 {
			cancel()
		}
		return backwardSweep(ctx, m, tr, sched, opts, a)
	}
	pol, err := optimize(ctx, m, ic, 20, opts, kernel, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled during the coarse level: policy %v, error %v, want context.Canceled", pol, err)
	}
	if coarseSweeps != 2 || fineSweeps != 0 {
		t.Errorf("%d coarse and %d fine backward sweeps, want 2 and 0", coarseSweeps, fineSweeps)
	}
}
