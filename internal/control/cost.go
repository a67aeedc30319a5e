package control

import (
	"context"
	"fmt"

	"rumornet/internal/core"
	"rumornet/internal/obs"
	"rumornet/internal/ode"
)

// Cost holds the unit costs of the two countermeasures: c1 for spreading
// truth (immunization) and c2 for blocking spreaders. The paper's Fig. 4
// uses c1 = 5, c2 = 10 ("the cost of blocking rumors is larger than that of
// spreading truth").
type Cost struct {
	C1, C2 float64
}

func (c Cost) validate() error {
	if c.C1 < 0 || c.C2 < 0 {
		return fmt.Errorf("control: negative unit costs (%g, %g)", c.C1, c.C2)
	}
	return nil
}

// Breakdown decomposes the objective (13) for a given policy run.
type Breakdown struct {
	// Terminal is Σ_i I_i(tf).
	Terminal float64
	// Running is ∫ Σ_i (c1 ε1² S_i² + c2 ε2² I_i²) dt.
	Running float64
	// Total = Terminal + Running (the objective J with unit terminal
	// weight).
	Total float64
}

// EvaluateCost simulates the model under the schedule and evaluates the
// objective (13) by trapezoidal quadrature on the schedule's grid.
func EvaluateCost(m *core.Model, ic []float64, sched *Schedule, cost Cost) (Breakdown, *core.Trajectory, error) {
	return EvaluateCostCtx(context.Background(), m, ic, sched, cost)
}

// EvaluateCostCtx is EvaluateCost with cancellation threaded into the
// forward simulation.
func EvaluateCostCtx(ctx context.Context, m *core.Model, ic []float64, sched *Schedule, cost Cost) (Breakdown, *core.Trajectory, error) {
	return evaluateCost(ctx, m, ic, sched, cost, nil)
}

// evaluateCost is EvaluateCostCtx simulating into reuse, when non-nil, an
// earlier trajectory whose storage this run overwrites.
func evaluateCost(ctx context.Context, m *core.Model, ic []float64, sched *Schedule, cost Cost, reuse *core.Trajectory) (Breakdown, *core.Trajectory, error) {
	var bd Breakdown
	if err := cost.validate(); err != nil {
		return bd, nil, err
	}
	if err := sched.Validate(); err != nil {
		return bd, nil, err
	}
	tr, err := simulateOnGrid(ctx, m, ic, sched, nil, 0, reuse)
	if err != nil {
		return bd, nil, err
	}
	return breakdownOnGrid(m, tr, sched, cost), tr, nil
}

// breakdownOnGrid evaluates the objective (13) by trapezoidal quadrature
// from a trajectory already aligned with the schedule grid. Each row's
// integrand Σ_i (c1 ε1² S_i² + c2 ε2² I_i²) is computed once, with the
// row's factors a = c1·ε1·ε1 and b = c2·ε2·ε2 hoisted. Each term keeps the
// association ((a·s)·s) + ((b·i)·i), so it has the bits of the per-element
// product c1·ε1·ε1·s·s + c2·ε2·ε2·i·i, which Go evaluates left to right.
// The FBSM update loop prices its sweeps with the same arithmetic.
func breakdownOnGrid(m *core.Model, tr *core.Trajectory, sched *Schedule, cost Cost) Breakdown {
	n := m.N()
	rows := make([]float64, len(sched.T))
	for j, y := range tr.Y {
		a := cost.C1 * sched.Eps1[j] * sched.Eps1[j]
		b := cost.C2 * sched.Eps2[j] * sched.Eps2[j]
		ys, yi := y[:n], y[n:2*n]
		var sum float64
		for i, s := range ys {
			inf := yi[i]
			sum += a*s*s + b*inf*inf
		}
		rows[j] = sum
	}
	_, yf := tr.Last()
	return foldCost(sched.T, rows, yf[n:2*n])
}

// foldCost turns the per-row integrands rows, aligned with the grid t, and
// the final infected densities inf into the objective (13): the trapezoid
// rule over the rows plus the terminal term Σ_i I_i(tf).
func foldCost(t, rows, inf []float64) Breakdown {
	var bd Breakdown
	for j := 0; j+1 < len(t); j++ {
		h := t[j+1] - t[j]
		bd.Running += h / 2 * (rows[j] + rows[j+1])
	}
	for _, v := range inf {
		bd.Terminal += v
	}
	bd.Total = bd.Terminal + bd.Running
	return bd
}

// gridStep is the RK4 step that crosses sched's horizon in exactly its
// grid's intervals: T[1] − T[0] through ode.FitStep, which raises it by a
// few ulps where it rounds below tf/grid (at tf 20, grids 61, 77, 122 and
// 154). A grid no such nudge aligns (uneven, or not starting at 0) keeps
// T[1] − T[0], and simulateOnGrid then reports it as misaligned.
func gridStep(sched *Schedule) float64 {
	return ode.FitStep(sched.T[1]-sched.T[0], sched.Horizon(), len(sched.T)-1)
}

// simulateOnGrid integrates the controlled model with RK4 using exactly the
// schedule's grid steps, so trajectory samples align with schedule nodes.
// prog, when non-nil, receives in-flight checkpoints every progressEvery
// steps (0 means the default cadence). reuse, when non-nil, is an earlier
// result whose storage this run overwrites (core.SimOptions.Reuse).
func simulateOnGrid(ctx context.Context, m *core.Model, ic []float64, sched *Schedule, prog obs.Progress, progressEvery int, reuse *core.Trajectory) (*core.Trajectory, error) {
	if len(ic) != m.StateDim() {
		return nil, fmt.Errorf("control: initial condition dimension %d, want %d", len(ic), m.StateDim())
	}
	tr, err := m.SimulateCtx(ctx, ic, sched.Horizon(), &core.SimOptions{
		Step:          gridStep(sched),
		Record:        1,
		Eps1At:        sched.Eps1At,
		Eps2At:        sched.Eps2At,
		Progress:      prog,
		ProgressEvery: progressEvery,
		Reuse:         reuse,
	})
	if err != nil {
		return nil, err
	}
	if tr.Len() != len(sched.T) {
		return nil, fmt.Errorf("control: trajectory samples %d misaligned with grid %d",
			tr.Len(), len(sched.T))
	}
	return tr, nil
}
