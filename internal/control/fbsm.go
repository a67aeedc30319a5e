package control

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rumornet/internal/core"
	"rumornet/internal/floats"
	"rumornet/internal/obs"
	"rumornet/internal/ode"
)

// Adjoint selects the co-state system integrated in the backward sweep.
type Adjoint int

// Adjoint variants.
const (
	// AdjointExact is the mathematically exact adjoint of System (1),
	// including the cross-group coupling of Θ through every group:
	//
	//	dφ_i/dt = −2 c2 ε2² I_i + (φ(k_i)/⟨k⟩) Σ_j (ψ_j − φ_j) λ_j S_j + φ_i ε2.
	AdjointExact Adjoint = iota + 1
	// AdjointDiagonal is the paper's Equation (16), which keeps only the
	// i = j term of the coupling sum. Provided for ablation; see DESIGN.md.
	AdjointDiagonal
)

// Options configures Optimize.
type Options struct {
	// Grid is the number of uniform time intervals (default 1000).
	Grid int
	// MaxIter bounds the FBSM iterations (default 100).
	MaxIter int
	// Tol is the convergence tolerance on the relative L1 change of both
	// controls between sweeps (default 1e-4).
	Tol float64
	// Adjoint selects the co-state system (default AdjointExact).
	Adjoint Adjoint
	// Eps1Max and Eps2Max are the admissible-control upper bounds of
	// Equation (19); both required (> 0).
	Eps1Max, Eps2Max float64
	// Cost holds the unit costs c1, c2; both must be positive (the
	// stationary controls (18) divide by them).
	Cost Cost
	// TerminalWeight scales the terminal objective: J = w·ΣI(tf) + ∫(...).
	// The paper's objective has w = 1 (default); OptimizeToTarget raises w
	// to force the terminal infection below a target.
	TerminalWeight float64
	// Progress, if non-nil, receives telemetry while the sweep runs: one
	// StageFBSM event per iteration carrying the relative control change
	// (Value) and the objective J of the schedule just swept (Cost), plus
	// StageFBSMForward / StageFBSMBackward checkpoints from inside the
	// integrations so even a single huge-grid sweep is observable. The
	// callback must be cheap and concurrency-safe; it never alters the
	// iteration itself.
	Progress obs.Progress
	// ProgressEvery is the step cadence of the in-sweep checkpoints
	// (default 256 integration steps).
	ProgressEvery int
}

func (o Options) withDefaults() Options {
	if o.Grid <= 0 {
		o.Grid = 1000
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	if o.Adjoint == 0 {
		o.Adjoint = AdjointExact
	}
	if o.TerminalWeight <= 0 {
		o.TerminalWeight = 1
	}
	return o
}

func (o Options) validate() error {
	if o.Eps1Max <= 0 || o.Eps2Max <= 0 {
		return fmt.Errorf("control: admissible bounds required (Eps1Max=%g, Eps2Max=%g)",
			o.Eps1Max, o.Eps2Max)
	}
	if o.Cost.C1 <= 0 || o.Cost.C2 <= 0 {
		return fmt.Errorf("control: positive unit costs required (c1=%g, c2=%g)",
			o.Cost.C1, o.Cost.C2)
	}
	if o.Adjoint != AdjointExact && o.Adjoint != AdjointDiagonal {
		return fmt.Errorf("control: unknown adjoint variant %d", int(o.Adjoint))
	}
	return nil
}

// Policy is the result of an FBSM run.
type Policy struct {
	// Schedule holds the optimized ε1(t), ε2(t).
	Schedule *Schedule
	// Cost is the objective breakdown of the final schedule (with unit
	// terminal weight, i.e. the paper's J).
	Cost Breakdown
	// Trajectory is the state trajectory under the final schedule.
	Trajectory *core.Trajectory
	// Iterations is the number of sweeps performed on the requested grid.
	Iterations int
	// CoarseIterations is the number of sweeps performed on the quarter
	// grid before it (0 when the grid has none; see coarseGrid).
	CoarseIterations int
	// Converged reports whether the control change fell below Tol.
	Converged bool
}

// Optimize runs the forward–backward sweep method for the optimal
// countermeasure problem over (0, tf] from the packed initial condition ic.
func Optimize(m *core.Model, ic []float64, tf float64, opts Options) (*Policy, error) {
	return OptimizeCtx(context.Background(), m, ic, tf, opts)
}

// OptimizeCtx is Optimize with cancellation: ctx is polled between sweep
// stages and inside the forward/backward integrations, so a runaway sweep
// (e.g. a pathological c1/c2 choice that never converges) can be
// interrupted programmatically instead of spinning until MaxIter.
func OptimizeCtx(ctx context.Context, m *core.Model, ic []float64, tf float64, opts Options) (*Policy, error) {
	return optimize(ctx, m, ic, tf, opts, backwardSweep, true)
}

// sweepKernel is the signature of backwardSweep.
type sweepKernel func(ctx context.Context, m *core.Model, tr *core.Trajectory, sched *Schedule, opts Options, arena *sweepArena) (psi, phi [][]float64, err error)

// The requested grid starts from a coarse grid's answer (nested
// iteration, Brandt, Math. Comp. 31, 1977) when coarsening divides it and
// the coarse grid keeps at least minCoarseGrid intervals.
const (
	coarsening    = 4
	minCoarseGrid = 15
)

// coarseGrid returns the number of intervals of the grid the FBSM first
// solves on before a grid of grid intervals, or 0 when it starts that grid
// from the constant guess. Coarsening must divide the grid: a quarter grid
// rounded down can be too coarse to integrate where its multiple is not.
func coarseGrid(grid int) int {
	if grid%coarsening != 0 || grid/coarsening < minCoarseGrid {
		return 0
	}
	return grid / coarsening
}

// optimize is OptimizeCtx with two seams for tests: the backward-sweep
// kernel, so a test can run the whole iteration on a reference kernel and
// require the same policy bit for bit (TestOptimizeMatchesReference), and
// nested, which when false starts every grid from the constant guess.
//
// With nested set and a coarse grid (coarseGrid), the same iteration
// first runs on it from the constant guess, with the same options, and its
// schedule, interpolated onto the requested grid and clamped into the
// control box, is the requested grid's first iterate. If the coarse level
// fails for any reason but ctx's, the requested grid starts from the
// constant guess instead. Both levels run in one sweepArena, sized for the
// requested grid, and the coarse level skips the final evaluation.
func optimize(ctx context.Context, m *core.Model, ic []float64, tf float64, opts Options, sweep sweepKernel, nested bool) (*Policy, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(ic) != m.StateDim() {
		return nil, fmt.Errorf("control: initial condition dimension %d, want %d",
			len(ic), m.StateDim())
	}
	// Initial guess: mid-range constant controls.
	sched, err := NewConstantSchedule(tf, opts.Grid, opts.Eps1Max/2, opts.Eps2Max/2)
	if err != nil {
		return nil, err
	}

	// Per-run arena shared by every sweep of both levels: the forward and
	// co-state trajectories, the ψ/φ row tables, the co-state initial
	// condition, the co-state kernel's tables and scratch and the control
	// mixer's history are all allocated once here instead of once per
	// sweep, so an Optimize run allocates the same whatever its sweep
	// count (TestOptimizeAllocFlat).
	arena := newSweepArena(m, len(sched.T))
	policy := &Policy{}

	if g := coarseGrid(opts.Grid); nested && g > 0 {
		coarse, err := NewConstantSchedule(tf, g, opts.Eps1Max/2, opts.Eps2Max/2)
		if err != nil {
			return nil, err
		}
		policy.CoarseIterations, _, err = iterate(ctx, m, ic, coarse, opts, sweep, arena)
		switch {
		case err == nil:
			for j, t := range sched.T {
				sched.Eps1[j] = floats.Clamp(coarse.Eps1At(t), 0, opts.Eps1Max)
				sched.Eps2[j] = floats.Clamp(coarse.Eps2At(t), 0, opts.Eps2Max)
			}
		case ctx.Err() != nil:
			return nil, fmt.Errorf("control: coarse grid: %w", err)
		}
	}

	policy.Iterations, policy.Converged, err = iterate(ctx, m, ic, sched, opts, sweep, arena)
	if err != nil {
		return nil, err
	}

	// The final evaluation simulates into the arena's forward trajectory:
	// the arena dies with this run, so the policy may keep its storage.
	bd, tr, err := evaluateCost(ctx, m, ic, sched, opts.Cost, arena.fwd)
	if err != nil {
		return nil, fmt.Errorf("control: final evaluation: %w", err)
	}
	policy.Schedule = sched
	policy.Cost = bd
	policy.Trajectory = tr
	return policy, nil
}

// iterate runs the FBSM sweeps on sched's grid, from sched, which it
// updates in place, until the control change falls below Tol or MaxIter
// sweeps have run. It returns how many sweeps completed, and whether the
// last one converged. Each completed sweep emits one StageFBSM event,
// numbered from 1.
func iterate(ctx context.Context, m *core.Model, ic []float64, sched *Schedule, opts Options, sweep sweepKernel, arena *sweepArena) (iters int, converged bool, err error) {
	n := m.N()
	ng := len(sched.T)
	tf := sched.Horizon()
	mix := arena.mix
	mix.reset(2 * ng)

	// Every event names this level's grid, so a consumer can tell the
	// quarter grid's sweeps from the requested grid's.
	if prog := opts.Progress; prog != nil {
		opts.Progress = func(ev obs.Event) {
			ev.Grid = ng - 1
			prog(ev)
		}
	}
	// Rebadge the forward integration's StageODE checkpoints so a consumer
	// can tell the FBSM forward sweep apart from a plain simulation job.
	// The whole event is forwarded, so the MinI/MassErr invariant fields
	// core computes reach internal/obs/invariant for forward sweeps too.
	var fwdProg obs.Progress
	if opts.Progress != nil {
		prog := opts.Progress
		fwdProg = func(ev obs.Event) {
			ev.Stage = obs.StageFBSMForward
			prog(ev)
		}
	}

	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return iter - 1, false, fmt.Errorf("control: sweep %d: %w", iter, err)
		}

		// (1) Forward sweep: state under current controls.
		tr, err := simulateOnGrid(ctx, m, ic, sched, fwdProg, opts.ProgressEvery, arena.fwd)
		if err != nil {
			return iter - 1, false, fmt.Errorf("control: forward sweep %d: %w", iter, err)
		}
		arena.fwd = tr

		// (2) Backward sweep: co-states with transversality
		// ψ(tf) = 0, φ(tf) = w.
		psi, phi, err := sweep(ctx, m, tr, sched, opts, arena)
		if err != nil {
			return iter - 1, false, fmt.Errorf("control: backward sweep %d: %w", iter, err)
		}

		// (3) Control update: G(u) is the clamped stationary point
		// (18)–(19) at every grid node, and the mixer turns (u, G(u))
		// into the next iterate, clamped back into the control box. When
		// someone is listening, the same pass over the forward rows also
		// prices the schedule that produced them (the pre-update one) for
		// the sweep's event, row by row.
		price := opts.Progress != nil
		for j := 0; j < ng; j++ {
			// Rows of length n, so the loop runs without bounds checks
			// (the compiler cannot see that y[n:2*n] has length n).
			y := tr.Y[j]
			ys, yi := y[:n:n], y[n:][:n:n]
			psiRow, phiRow := psi[j][:n:n], phi[j][:n:n]
			var (
				psiS, s2 float64
				phiI, i2 float64
			)
			if price {
				// breakdownOnGrid's integrand as a fifth sum: its chain
				// runs beside the other four, where a pass of its own
				// would wait on one add per element.
				a := opts.Cost.C1 * sched.Eps1[j] * sched.Eps1[j]
				b := opts.Cost.C2 * sched.Eps2[j] * sched.Eps2[j]
				var cost float64
				for i, s := range ys {
					inf := yi[i]
					psiS += psiRow[i] * s
					s2 += s * s
					phiI += phiRow[i] * inf
					i2 += inf * inf
					cost += a*s*s + b*inf*inf
				}
				arena.rows[j] = cost
			} else {
				for i, s := range ys {
					inf := yi[i]
					psiS += psiRow[i] * s
					s2 += s * s
					phiI += phiRow[i] * inf
					i2 += inf * inf
				}
			}
			star1 := 0.0
			if s2 > 0 {
				star1 = psiS / (2 * opts.Cost.C1 * s2)
			}
			star2 := 0.0
			if i2 > 0 {
				star2 = phiI / (2 * opts.Cost.C2 * i2)
			}
			mix.u[j], mix.u[ng+j] = sched.Eps1[j], sched.Eps2[j]
			mix.g[j] = floats.Clamp(star1, 0, opts.Eps1Max)
			mix.g[ng+j] = floats.Clamp(star2, 0, opts.Eps2Max)
		}
		var sweepCost float64
		if price {
			sweepCost = foldCost(sched.T, arena.rows[:ng], tr.Y[ng-1][n:2*n]).Total
		}
		next := mix.update()
		var change, norm float64
		for j := 0; j < ng; j++ {
			new1 := floats.Clamp(next[j], 0, opts.Eps1Max)
			new2 := floats.Clamp(next[ng+j], 0, opts.Eps2Max)
			change += math.Abs(new1-sched.Eps1[j]) + math.Abs(new2-sched.Eps2[j])
			norm += math.Abs(new1) + math.Abs(new2)
			sched.Eps1[j] = new1
			sched.Eps2[j] = new2
		}

		done := change <= opts.Tol*math.Max(norm, 1e-12)
		if opts.Progress != nil {
			opts.Progress(obs.Event{
				Stage: obs.StageFBSM,
				Step:  iter,
				Total: opts.MaxIter,
				T:     tf,
				Value: change / math.Max(norm, 1e-12),
				Cost:  sweepCost,
			})
		}
		if done {
			return iter, true, nil
		}
	}
	return opts.MaxIter, false, nil
}

// sweepArena holds the buffers the sweeps need, allocated once per
// Optimize run and reused across all sweeps of both grids, sized for the
// larger. The final evaluation overwrites the forward trajectory once more
// and hands it to the policy.
type sweepArena struct {
	fwd      *core.Trajectory // forward trajectory, overwritten by every sweep
	rows     []float64        // per-row running cost of the swept schedule
	bwd      *ode.Solution    // co-state trajectory, overwritten by every sweep
	psi, phi [][]float64      // ψ/φ row tables over the schedule grid
	z0       []float64        // transversality condition
	costate  *costateStep     // co-state step kernel and its scratch
	mix      *anderson        // control-update history and least-squares scratch
}

// newSweepArena sizes an arena for grids of up to ng nodes.
func newSweepArena(m *core.Model, ng int) *sweepArena {
	return &sweepArena{
		fwd:     m.NewTrajectory(ng - 1),
		bwd:     ode.NewSolution(ng-1, m.StateDim()),
		psi:     make([][]float64, ng),
		phi:     make([][]float64, ng),
		rows:    make([]float64, ng),
		z0:      make([]float64, m.StateDim()),
		costate: newCostateStep(m),
		mix:     newAnderson(2 * ng),
	}
}

// backwardSweep integrates the co-state system from tf to 0 and returns
// ψ[j][i], φ[j][i] aligned with the schedule grid. The returned rows alias
// the arena's co-state trajectory; they are valid until the next sweep
// reuses the arena.
func backwardSweep(ctx context.Context, m *core.Model, tr *core.Trajectory, sched *Schedule, opts Options, arena *sweepArena) (psi, phi [][]float64, err error) {
	n := m.N()
	ng := len(sched.T)
	tf := sched.Horizon()

	// Transversality: ψ(tf) = 0, φ(tf) = TerminalWeight.
	z0 := arena.z0
	for i := 0; i < n; i++ {
		z0[i] = 0
		z0[n+i] = opts.TerminalWeight
	}
	oopts := &ode.Options{Record: 1, Ctx: ctx, Reuse: arena.bwd}
	if opts.Progress != nil {
		prog := opts.Progress
		oopts.ProgressEvery = opts.ProgressEvery
		oopts.Progress = func(step, total int, tau float64, _ []float64) {
			// Report in forward time t = tf − τ so consumers see the sweep
			// marching from tf down to 0.
			prog(obs.Event{Stage: obs.StageFBSMBackward, Step: step, Total: total, T: tf - tau})
		}
	}
	arena.costate.reset(tr, sched, opts)
	sol, err := ode.SolveFixed(arena.costate.step, z0, 0, tf, gridStep(sched), oopts)
	if err != nil {
		return nil, nil, err
	}
	arena.bwd = sol
	if sol.Len() != ng {
		return nil, nil, errors.New("control: co-state samples misaligned with grid")
	}

	// Unreverse: co-state at grid node j is the backward sample ng-1-j. The
	// row tables live in the arena; only the headers are rewritten here.
	psi, phi = arena.psi[:ng], arena.phi[:ng]
	for j := 0; j < ng; j++ {
		z := sol.Y[ng-1-j]
		psi[j] = z[:n]
		phi[j] = z[n : 2*n]
	}
	return psi, phi, nil
}

// OptimizeToTarget finds a policy whose terminal population-weighted
// infected density Σ_i P(k_i) I_i(tf) is at most target, by geometrically
// raising the terminal weight until the constraint holds. It returns the
// first satisfying policy (with its J evaluated at unit terminal weight,
// the paper's objective).
func OptimizeToTarget(m *core.Model, ic []float64, tf, target float64, opts Options) (*Policy, error) {
	return OptimizeToTargetCtx(context.Background(), m, ic, tf, target, opts)
}

// OptimizeToTargetCtx is OptimizeToTarget with cancellation; ctx reaches
// every inner Optimize call.
func OptimizeToTargetCtx(ctx context.Context, m *core.Model, ic []float64, tf, target float64, opts Options) (*Policy, error) {
	return optimizeToTarget(ctx, m, ic, tf, target, opts, backwardSweep, true)
}

// optimizeToTarget is OptimizeToTargetCtx with optimize's seams.
func optimizeToTarget(ctx context.Context, m *core.Model, ic []float64, tf, target float64, opts Options, sweep sweepKernel, nested bool) (*Policy, error) {
	if target <= 0 {
		return nil, fmt.Errorf("control: non-positive target %g", target)
	}
	weight := 1.0
	const maxBoost = 30
	for boost := 0; boost < maxBoost; boost++ {
		opts.TerminalWeight = weight
		pol, err := optimize(ctx, m, ic, tf, opts, sweep, nested)
		if err != nil {
			return nil, err
		}
		if meanTerminalI(m, pol.Trajectory) <= target {
			return pol, nil
		}
		weight *= 2
	}
	return nil, fmt.Errorf("control: terminal infection target %g unreachable within bounds "+
		"(ε1 ≤ %g, ε2 ≤ %g, tf = %g)", target, opts.Eps1Max, opts.Eps2Max, tf)
}

func meanTerminalI(m *core.Model, tr *core.Trajectory) float64 {
	_, yf := tr.Last()
	var s float64
	for i := 0; i < m.N(); i++ {
		s += m.Dist().Prob(i) * m.I(yf, i)
	}
	return s
}
