package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"rumornet/internal/floats"
	"rumornet/internal/obs"
	"rumornet/internal/ode"
)

// UniformIC builds the paper's initial condition with the same seed
// infection i0 in every group: I_i(0) = i0, S_i(0) = 1 − i0, R_i(0) = 0.
func (m *Model) UniformIC(i0 float64) ([]float64, error) {
	if i0 <= 0 || i0 >= 1 {
		return nil, fmt.Errorf("core: initial infection %g outside (0, 1)", i0)
	}
	y := make([]float64, 2*m.n)
	for i := 0; i < m.n; i++ {
		y[i] = 1 - i0
		y[m.n+i] = i0
	}
	return y, nil
}

// RandomIC builds a random initial condition with I_i(0) uniform in
// (0, maxI0] and S_i(0) = 1 − I_i(0) (R_i(0) = 0), matching the paper's
// "10 different initial conditions" runs.
func (m *Model) RandomIC(maxI0 float64, rng *rand.Rand) ([]float64, error) {
	if maxI0 <= 0 || maxI0 >= 1 {
		return nil, fmt.Errorf("core: maxI0 %g outside (0, 1)", maxI0)
	}
	if rng == nil {
		return nil, errors.New("core: RandomIC needs a rand source")
	}
	y := make([]float64, 2*m.n)
	for i := 0; i < m.n; i++ {
		i0 := maxI0 * (1 - rng.Float64()) // in (0, maxI0]
		y[i] = 1 - i0
		y[m.n+i] = i0
	}
	return y, nil
}

// SimOptions configures Simulate.
type SimOptions struct {
	// Step is the RK4 step size (default tf/2000).
	Step float64
	// Record keeps every Record-th step (default: chosen so the trajectory
	// holds ~2000 samples).
	Record int
	// Eps1At and Eps2At, when non-nil, override the model's constant
	// countermeasures with time-varying controls.
	Eps1At, Eps2At func(t float64) float64
	// Project, when true, clamps each group's (S, I) into the state space
	// Ω after every step. The paper's raw ODE does not enforce Ω; enable
	// this only for scenario exploration, not figure reproduction.
	Project bool
	// Progress, if non-nil, receives StageODE checkpoints every
	// ProgressEvery accepted steps: steps taken, total, time reached and
	// the infectivity Θ(t). rumord's job runner threads its progress sink
	// here so long integrations are visible on GET /v1/jobs/{id}.
	Progress obs.Progress
	// ProgressEvery is the step cadence of Progress (default 256).
	ProgressEvery int
	// Reuse, if non-nil, is a trajectory returned by an earlier
	// SimulateCtx on the same model. This run overwrites its samples and
	// integration scratch and returns it, so a caller that simulates the
	// same grid over and over (the FBSM forward sweeps) allocates them
	// once.
	Reuse *Trajectory
}

// Trajectory is a simulated solution with model-aware accessors.
type Trajectory struct {
	*ode.Solution
	m       *Model
	scratch []float64 // the step kernel's stage buffers, kept for Reuse
}

// NewTrajectory returns an empty trajectory of m with the storage a
// SimulateCtx run of steps steps at Record 1 needs, for SimOptions.Reuse.
func (m *Model) NewTrajectory(steps int) *Trajectory {
	return &Trajectory{Solution: ode.NewSolution(steps, 2*m.n), m: m}
}

// Simulate integrates the model from the packed initial condition ic over
// (0, tf] with fixed-step RK4. The trajectories are smooth and non-stiff
// at the paper's parameter scales: halving the default step moves the
// figure runs by at most 1e-4 (TestSimulateStepIndependence in
// internal/experiments bounds it there; it measures 7.4e-5 at full
// fidelity).
func (m *Model) Simulate(ic []float64, tf float64, opts *SimOptions) (*Trajectory, error) {
	return m.SimulateCtx(context.Background(), ic, tf, opts)
}

// SimulateCtx is Simulate with cancellation: the integration polls ctx and
// aborts with an error wrapping ctx.Err() once it is cancelled, so callers
// (the rumord job runner in particular) can enforce per-job timeouts.
func (m *Model) SimulateCtx(ctx context.Context, ic []float64, tf float64, opts *SimOptions) (*Trajectory, error) {
	if len(ic) != 2*m.n {
		return nil, fmt.Errorf("core: initial condition dimension %d, want %d", len(ic), 2*m.n)
	}
	if tf <= 0 {
		return nil, fmt.Errorf("core: non-positive horizon %g", tf)
	}
	step := tf / 2000
	if opts != nil && opts.Step > 0 {
		step = opts.Step
	}
	rec := 0
	if opts != nil && opts.Record > 0 {
		rec = opts.Record
	}
	if rec == 0 {
		if total := int(tf / step); total > 2000 {
			rec = total / 2000
		} else {
			rec = 1
		}
	}

	oopts := &ode.Options{Record: rec, Ctx: ctx}
	var eps1At, eps2At func(float64) float64
	var out *Trajectory
	if opts != nil {
		eps1At, eps2At = opts.Eps1At, opts.Eps2At
		if opts.Reuse != nil && opts.Reuse.m == m {
			out = opts.Reuse
			oopts.Reuse = out.Solution
		}
	}
	if out == nil {
		out = &Trajectory{m: m}
	}
	st := m.newStepper(eps1At, eps2At, out.scratch)
	st.clamp = opts != nil && opts.Project
	out.scratch = st.buf

	if opts != nil && opts.Progress != nil {
		prog := opts.Progress
		n := m.n
		alpha := m.p.Alpha
		oopts.ProgressEvery = opts.ProgressEvery
		oopts.Progress = func(step, total int, t float64, y []float64) {
			// Checkpoint invariants for internal/obs/invariant: the smallest
			// group density I_i and the worst excess of S_i+I_i over the
			// 1+α·t inflow envelope (System (1) gives d(S_i+I_i)/dt ≤ α).
			// O(n) at the progress cadence — once per 256 steps by default.
			minI := y[n]
			massErr := y[0] + y[n] - 1
			for i := 1; i < n; i++ {
				if y[n+i] < minI {
					minI = y[n+i]
				}
				if ex := y[i] + y[n+i] - 1; ex > massErr {
					massErr = ex
				}
			}
			prog(obs.Event{
				Stage: obs.StageODE, Step: step, Total: total, T: t,
				Value: m.Theta(y), MinI: minI, MassErr: massErr - alpha*t,
			})
		}
	}

	sol, err := ode.SolveFixed(st.step, ic, 0, tf, step, oopts)
	if err != nil {
		return nil, fmt.Errorf("core: simulate: %w", err)
	}
	out.Solution = sol
	return out, nil
}

// SSeries returns the susceptible density of group i over time.
func (tr *Trajectory) SSeries(i int) []float64 { return tr.Series(i) }

// ISeries returns the infected density of group i over time.
func (tr *Trajectory) ISeries(i int) []float64 { return tr.Series(tr.m.n + i) }

// RSeries returns the derived recovered density R_i = 1 − S_i − I_i.
func (tr *Trajectory) RSeries(i int) []float64 {
	out := make([]float64, len(tr.Y))
	for j, y := range tr.Y {
		out[j] = 1 - y[i] - y[tr.m.n+i]
	}
	return out
}

// TotalISeries returns Σ_i I_i(t) — the objective's terminal quantity.
func (tr *Trajectory) TotalISeries() []float64 {
	out := make([]float64, len(tr.Y))
	n := tr.m.n
	for j, y := range tr.Y {
		out[j] = floats.Sum(y[n : 2*n])
	}
	return out
}

// MeanISeries returns the population-weighted infected density
// Σ_i P(k_i) I_i(t) — the fraction of all users infected.
func (tr *Trajectory) MeanISeries() []float64 {
	out := make([]float64, len(tr.Y))
	n := tr.m.n
	for j, y := range tr.Y {
		var s float64
		for i := 0; i < n; i++ {
			s += tr.m.dist.Prob(i) * y[n+i]
		}
		out[j] = s
	}
	return out
}

// ThetaSeries returns Θ(t) along the trajectory.
func (tr *Trajectory) ThetaSeries() []float64 {
	out := make([]float64, len(tr.Y))
	for j, y := range tr.Y {
		out[j] = tr.m.Theta(y)
	}
	return out
}

// DistTo returns the paper's Euclidean-labelled (but ∞-norm defined)
// distance Dist(t) = ‖E(t) − E*‖_∞ between the trajectory and an
// equilibrium, computed over all 3n coordinates (S, I and derived R).
func (tr *Trajectory) DistTo(eq *Equilibrium) []float64 {
	n := tr.m.n
	out := make([]float64, len(tr.Y))
	for j, y := range tr.Y {
		var d float64
		for i := 0; i < n; i++ {
			ds := abs(y[i] - eq.Y[i])
			di := abs(y[n+i] - eq.Y[n+i])
			dr := abs((1 - y[i] - y[n+i]) - (1 - eq.Y[i] - eq.Y[n+i]))
			if ds > d {
				d = ds
			}
			if di > d {
				d = di
			}
			if dr > d {
				d = dr
			}
		}
		out[j] = d
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
