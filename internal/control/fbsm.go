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
	// Relax is the control-update relaxation θ ∈ (0, 1]:
	// u ← (1−θ)u + θ·clamp(u*) (default 0.5).
	Relax float64
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
	if o.Relax <= 0 || o.Relax > 1 {
		o.Relax = 0.5
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
	// Iterations is the number of sweeps performed.
	Iterations int
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
	return optimize(ctx, m, ic, tf, opts, backwardSweep)
}

// sweepKernel is the signature of backwardSweep.
type sweepKernel func(ctx context.Context, m *core.Model, tr *core.Trajectory, sched *Schedule, opts Options, arena *sweepArena) (psi, phi [][]float64, err error)

// optimize is OptimizeCtx with the backward-sweep kernel as a parameter,
// so a test can run the whole iteration on a reference kernel and require
// the same policy bit for bit (TestOptimizeMatchesReference).
func optimize(ctx context.Context, m *core.Model, ic []float64, tf float64, opts Options, sweep sweepKernel) (*Policy, error) {
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

	n := m.N()
	ng := len(sched.T)
	policy := &Policy{}

	// Per-run arena shared by every backward sweep: the ψ/φ row tables, the
	// co-state initial condition, the interpolation buffer consumed by the
	// co-state RHS, the λ and φ/⟨k⟩ tables it reads, and the RK4 stepper
	// scratch are all allocated once here instead of once per sweep (and,
	// for the interpolation buffer, once per RHS evaluation). MaxIter
	// sweeps then run allocation-free apart from the recorded trajectories
	// themselves.
	arena := newSweepArena(m, ng)

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
			return nil, fmt.Errorf("control: sweep %d: %w", iter, err)
		}

		// (1) Forward sweep: state under current controls.
		tr, err := simulateOnGrid(ctx, m, ic, sched, fwdProg, opts.ProgressEvery)
		if err != nil {
			return nil, fmt.Errorf("control: forward sweep %d: %w", iter, err)
		}

		// (2) Backward sweep: co-states with transversality
		// ψ(tf) = 0, φ(tf) = w.
		psi, phi, err := sweep(ctx, m, tr, sched, opts, arena)
		if err != nil {
			return nil, fmt.Errorf("control: backward sweep %d: %w", iter, err)
		}

		// Objective of the schedule that produced this sweep's trajectory,
		// reusing the forward trajectory already in hand; must run before
		// step (3) overwrites the schedule in place. Only paid when someone
		// is listening.
		var sweepCost float64
		if opts.Progress != nil {
			sweepCost = breakdownOnGrid(m, tr, sched, opts.Cost).Total
		}

		// (3) Control update: clamped stationary point (18)–(19) with
		// relaxation.
		var change, norm float64
		for j := 0; j < ng; j++ {
			y := tr.Y[j]
			var (
				psiS, s2 float64
				phiI, i2 float64
			)
			for i := 0; i < n; i++ {
				s, inf := y[i], y[n+i]
				psiS += psi[j][i] * s
				s2 += s * s
				phiI += phi[j][i] * inf
				i2 += inf * inf
			}
			star1 := 0.0
			if s2 > 0 {
				star1 = psiS / (2 * opts.Cost.C1 * s2)
			}
			star2 := 0.0
			if i2 > 0 {
				star2 = phiI / (2 * opts.Cost.C2 * i2)
			}
			star1 = floats.Clamp(star1, 0, opts.Eps1Max)
			star2 = floats.Clamp(star2, 0, opts.Eps2Max)

			new1 := (1-opts.Relax)*sched.Eps1[j] + opts.Relax*star1
			new2 := (1-opts.Relax)*sched.Eps2[j] + opts.Relax*star2
			change += math.Abs(new1-sched.Eps1[j]) + math.Abs(new2-sched.Eps2[j])
			norm += math.Abs(new1) + math.Abs(new2)
			sched.Eps1[j] = new1
			sched.Eps2[j] = new2
		}

		policy.Iterations = iter
		converged := change <= opts.Tol*math.Max(norm, 1e-12)
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
		if converged {
			policy.Converged = true
			break
		}
	}

	bd, tr, err := EvaluateCostCtx(ctx, m, ic, sched, opts.Cost)
	if err != nil {
		return nil, fmt.Errorf("control: final evaluation: %w", err)
	}
	policy.Schedule = sched
	policy.Cost = bd
	policy.Trajectory = tr
	return policy, nil
}

// sweepArena holds the buffers a backward sweep needs, allocated once per
// Optimize run and reused across all MaxIter sweeps.
type sweepArena struct {
	psi, phi [][]float64 // ψ/φ row tables over the schedule grid
	z0       []float64   // transversality condition
	ybuf     []float64   // tr.AtInto scratch for the co-state RHS
	lam      []float64   // λ(k_i) per group
	kphi     []float64   // φ(k_i)/⟨k⟩ per group
	st       *ode.RK4    // backward-integration stepper scratch
}

func newSweepArena(m *core.Model, ng int) *sweepArena {
	n := m.N()
	a := &sweepArena{
		psi:  make([][]float64, ng),
		phi:  make([][]float64, ng),
		z0:   make([]float64, 2*n),
		ybuf: make([]float64, 2*n),
		lam:  make([]float64, n),
		kphi: make([]float64, n),
		st:   ode.NewRK4(2 * n),
	}
	meanK := m.MeanDegree()
	for i := 0; i < n; i++ {
		a.lam[i] = m.Lambda(i)
		a.kphi[i] = m.Varphi(i) / meanK
	}
	return a
}

// backwardSweep integrates the co-state system from tf to 0 and returns
// ψ[j][i], φ[j][i] aligned with the schedule grid. The returned rows alias
// arena.psi/arena.phi and the sweep's solution buffer; they are valid until
// the next sweep reuses the arena.
func backwardSweep(ctx context.Context, m *core.Model, tr *core.Trajectory, sched *Schedule, opts Options, arena *sweepArena) (psi, phi [][]float64, err error) {
	n := m.N()
	ng := len(sched.T)
	tf := sched.Horizon()
	c1, c2 := opts.Cost.C1, opts.Cost.C2

	// The terms that depend on t alone — the interpolated state, ε1, ε2,
	// Θ and the hoisted −2c1ε1², −2c2ε2² — are memoized on the last t
	// the RHS saw. An RK4 step evaluates its two midpoint stages at the
	// same t, and its last stage at the t where the next step begins, so
	// half the evaluations reuse them. The memo is keyed on the exact
	// float t, and every product keeps its grouping, so the co-states are
	// bit-identical to recomputing everything per call (see
	// TestOptimizeMatchesReference).
	y := arena.ybuf
	var e1, e2, theta, a1, a2 float64
	lastT := math.NaN()

	// Packed co-state z = [ψ_1..ψ_n, φ_1..φ_n] as a function of reversed
	// time τ = tf − t: dz/dτ = −g(tf − τ, z). The state interpolation
	// reuses one arena buffer — the sweep's RHS is evaluated four times per
	// RK4 step over the whole grid, so a per-call clone here used to be the
	// dominant allocation of the entire FBSM iteration.
	costateRHS := func(tau float64, z, dz []float64) {
		if t := tf - tau; t != lastT {
			lastT = t
			tr.AtInto(t, y)
			e1 = sched.Eps1At(t)
			e2 = sched.Eps2At(t)
			theta = m.Theta(y)
			a1 = -2 * c1 * e1 * e1
			a2 = -2 * c2 * e2 * e2
		}
		// Every slice below has length n, so the loops run without
		// bounds checks.
		ys, yi := y[:n:n], y[n:][:n:n]
		zs, zi := z[:n:n], z[n:][:n:n]
		ds, di := dz[:n:n], dz[n:][:n:n]
		lam, kphi := arena.lam[:n:n], arena.kphi[:n:n]

		if opts.Adjoint == AdjointExact {
			// Cross-group coupling Σ_j (ψ_j − φ_j) λ_j S_j.
			var coupling float64
			for j, s := range ys {
				coupling += (zs[j] - zi[j]) * lam[j] * s
			}
			for i, s := range ys {
				l := lam[i]
				// dψ_i/dt = −2c1ε1²S_i + ψ_i(λΘ + ε1) − φ_iλΘ
				dpsi := a1*s + zs[i]*(l*theta+e1) - zi[i]*l*theta
				// dφ_i/dt = −2c2ε2²I_i + (φ(k_i)/⟨k⟩)Σ_j(ψ_j−φ_j)λ_jS_j + φ_iε2
				dphi := a2*yi[i] + kphi[i]*coupling + zi[i]*e2
				// Reversed time flips the sign.
				ds[i] = -dpsi
				di[i] = -dphi
			}
			return
		}
		// AdjointDiagonal — the paper's Equation (16).
		for i, s := range ys {
			l := lam[i]
			dpsi := a1*s + zs[i]*(l*theta+e1) - zi[i]*l*theta
			kterm := kphi[i] * l * s
			dphi := a2*yi[i] + zs[i]*kterm - zi[i]*(kterm-e2)
			ds[i] = -dpsi
			di[i] = -dphi
		}
	}

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
	sol, err := ode.SolveFixed(costateRHS, z0, 0, tf, h, arena.st, oopts)
	if err != nil {
		return nil, nil, err
	}
	if sol.Len() != ng {
		return nil, nil, errors.New("control: co-state samples misaligned with grid")
	}

	// Unreverse: co-state at grid node j is the backward sample ng-1-j. The
	// row tables live in the arena; only the headers are rewritten here.
	psi, phi = arena.psi, arena.phi
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
	if target <= 0 {
		return nil, fmt.Errorf("control: non-positive target %g", target)
	}
	weight := 1.0
	const maxBoost = 30
	for boost := 0; boost < maxBoost; boost++ {
		opts.TerminalWeight = weight
		pol, err := OptimizeCtx(ctx, m, ic, tf, opts)
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
