package control

import (
	"context"
	"fmt"

	"rumornet/internal/core"
	"rumornet/internal/obs"
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
	var bd Breakdown
	if err := cost.validate(); err != nil {
		return bd, nil, err
	}
	if err := sched.Validate(); err != nil {
		return bd, nil, err
	}
	tr, err := simulateOnGrid(ctx, m, ic, sched, nil, 0, nil)
	if err != nil {
		return bd, nil, err
	}
	return breakdownOnGrid(m, tr, sched, cost), tr, nil
}

// breakdownOnGrid evaluates the objective (13) by trapezoidal quadrature
// from a trajectory already aligned with the schedule grid. Split out of
// EvaluateCostCtx so the FBSM progress path can price each sweep's schedule
// without a second forward integration.
func breakdownOnGrid(m *core.Model, tr *core.Trajectory, sched *Schedule, cost Cost) Breakdown {
	var bd Breakdown
	n := m.N()
	integrand := func(j int) float64 {
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
	for j := 0; j+1 < len(sched.T); j++ {
		h := sched.T[j+1] - sched.T[j]
		bd.Running += h / 2 * (integrand(j) + integrand(j+1))
	}
	_, yf := tr.Last()
	for i := 0; i < n; i++ {
		bd.Terminal += yf[n+i]
	}
	bd.Total = bd.Terminal + bd.Running
	return bd
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
	h := sched.T[1] - sched.T[0]
	tr, err := m.SimulateCtx(ctx, ic, sched.Horizon(), &core.SimOptions{
		Step:          h,
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
