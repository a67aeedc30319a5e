// Package invariant watches solver progress events for numerical
// violations of the model's mathematical guarantees — the checks related
// rumor-model work validates trajectories against, evaluated online so a
// silently-diverging job is flagged while it runs instead of after a bad
// figure ships.
//
// The checks and their grounding (see DESIGN.md §9 for tolerances):
//
//   - mass_conservation: System (1) gives d(S_i+I_i)/dt = α − ε1·S_i −
//     ε2·I_i ≤ α per degree group, so S_i+I_i may exceed 1 only by the
//     α-inflow envelope: S_i(t)+I_i(t) ≤ 1 + α·t (R_i = 1−S_i−I_i is
//     derived, DESIGN.md §2). Event.MassErr carries the worst excess.
//     The ABM's compartment counts partition the node set exactly, so its
//     MassErr is |S+I+R − 1|.
//   - theta_range: Θ(t) = (1/⟨k⟩)·Σ_j φ(k_j)·I_j is a convex-ish average
//     of densities and must stay in [0, 1] (Eq. (2)); Event.Value carries
//     Θ for ODE checkpoints and the infected fraction for ABM steps.
//   - negative_density: I_i(t) ≥ 0 for every group — the RK4 integration
//     of Eq. (1) can undershoot on coarse grids. Event.MinI carries the
//     smallest group density.
//   - fbsm_divergence: the forward–backward sweep's relative control
//     change (Event.Value on fbsm iterations) should trend down; K
//     consecutive increases flag a non-converging Pontryagin iteration
//     (Section IV / Eq. (13)–(19)). A sweep whose objective J
//     (Event.Cost) still fell is making progress, so its rise does not
//     count: a slowly converging sweep can grow its control change for
//     dozens of sweeps while J falls all the way. An event with Step 1
//     starts a new run of sweeps (the coarse grid's iteration is followed
//     by the requested grid's, each numbered from 1).
//   - r0_outcome: Theorem 5 — r0 ≤ 1 implies extinction, so a final
//     infected fraction materially above zero, at a horizon long enough
//     for the decay to have got there, contradicts the threshold theory
//     (Eq. (5) defines r0).
//
// A Monitor is per-job and latches: each check fires at most once per job,
// so a violation storm costs one journal entry, one counter increment and
// one WARN instead of thousands.
package invariant

import (
	"fmt"
	"math"
	"sync"

	"rumornet/internal/obs"
)

// Check names, used as the check label of
// rumor_invariant_violations_total and in journal entries.
const (
	CheckMass       = "mass_conservation"
	CheckTheta      = "theta_range"
	CheckNegative   = "negative_density"
	CheckDivergence = "fbsm_divergence"
	CheckR0Outcome  = "r0_outcome"
)

// Checks lists every check name, for metric pre-registration.
func Checks() []string {
	return []string{CheckMass, CheckTheta, CheckNegative, CheckDivergence, CheckR0Outcome}
}

// Config sets the detection tolerances. The zero value selects the
// documented defaults.
type Config struct {
	// MassTol bounds the per-group mass excess max_i(S_i+I_i − (1+α·t))
	// before CheckMass fires (default 1e-6 — RK4 roundoff is orders of
	// magnitude below it at the paper's step sizes).
	MassTol float64
	// ThetaTol pads the admissible Θ range to [−ThetaTol, 1+ThetaTol]
	// (default 1e-9).
	ThetaTol float64
	// NegTol is how far below zero a group density may undershoot before
	// CheckNegative fires (default 1e-9).
	NegTol float64
	// DivergeAfter is how many consecutive residual increases flag a
	// diverging FBSM iteration (default 5 — on hard problems the residual
	// rises for a sweep or two without the iteration being lost). A rise
	// counts only when the sweep's objective did not fall either; events
	// without a cost (Cost 0) count every rise.
	DivergeAfter int
	// R0ExtinctI is the final infected fraction a subcritical (r0 ≤ 1)
	// run may end with before CheckR0Outcome fires (default 0.05 —
	// extinction is asymptotic, finite horizons retain a tail). Only runs
	// whose horizon is long enough to decay below it are judged (see
	// CheckOutcome).
	R0ExtinctI float64
}

func (c Config) withDefaults() Config {
	if c.MassTol <= 0 {
		c.MassTol = 1e-6
	}
	if c.ThetaTol <= 0 {
		c.ThetaTol = 1e-9
	}
	if c.NegTol <= 0 {
		c.NegTol = 1e-9
	}
	if c.DivergeAfter <= 0 {
		c.DivergeAfter = 5
	}
	if c.R0ExtinctI <= 0 {
		c.R0ExtinctI = 0.05
	}
	return c
}

// Violation describes one detected invariant breach.
type Violation struct {
	// Check is the Check* constant that fired.
	Check string
	// Msg is a human-readable description with the observed magnitude.
	Msg string
	// Event is the progress checkpoint that triggered the check (zero for
	// CheckR0Outcome, which evaluates the final result).
	Event obs.Event
}

// Monitor evaluates the checks against one job's progress stream. Safe
// for concurrent use — ABM trial fan-outs emit from several goroutines. A
// nil Monitor is inert.
type Monitor struct {
	cfg    Config
	onViol func(Violation)

	mu       sync.Mutex
	fired    map[string]bool
	prevRes  float64
	prevCost float64 // the previous sweep's J, 0 when it carried none
	resSeen  bool
	incRuns  int
}

// New builds a monitor calling onViolation for each first-per-check
// breach. onViolation runs inline on the emitting goroutine with the
// monitor locked: it must be cheap and must not call back into the
// Monitor.
func New(cfg Config, onViolation func(Violation)) *Monitor {
	return &Monitor{cfg: cfg.withDefaults(), onViol: onViolation, fired: make(map[string]bool)}
}

// violate latches and reports a check. Callers hold m.mu.
func (m *Monitor) violateLocked(check, msg string, ev obs.Event) {
	if m.fired[check] {
		return
	}
	m.fired[check] = true
	if m.onViol != nil {
		m.onViol(Violation{Check: check, Msg: msg, Event: ev})
	}
}

// Observe evaluates one progress event. It is designed to sit on the
// service's progress sink: a handful of float compares per event.
func (m *Monitor) Observe(ev obs.Event) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch ev.Stage {
	case obs.StageODE, obs.StageFBSMForward:
		if ev.MassErr > m.cfg.MassTol {
			m.violateLocked(CheckMass,
				fmt.Sprintf("group mass S+I exceeds the 1+α·t envelope by %.3g at t=%.4g (tol %g)",
					ev.MassErr, ev.T, m.cfg.MassTol), ev)
		}
		if ev.Value < -m.cfg.ThetaTol || ev.Value > 1+m.cfg.ThetaTol {
			m.violateLocked(CheckTheta,
				fmt.Sprintf("Θ(t) = %.6g outside [0, 1] at t=%.4g", ev.Value, ev.T), ev)
		}
		if ev.MinI < -m.cfg.NegTol {
			m.violateLocked(CheckNegative,
				fmt.Sprintf("group density I_i = %.3g below zero at t=%.4g (tol %g)",
					ev.MinI, ev.T, m.cfg.NegTol), ev)
		}
	case obs.StageABM:
		if ev.MassErr > m.cfg.MassTol {
			m.violateLocked(CheckMass,
				fmt.Sprintf("ABM compartments do not partition the nodes: |S+I+R−1| = %.3g at t=%.4g",
					ev.MassErr, ev.T), ev)
		}
		if ev.Value < -m.cfg.ThetaTol || ev.Value > 1+m.cfg.ThetaTol {
			m.violateLocked(CheckTheta,
				fmt.Sprintf("ABM infected fraction %.6g outside [0, 1] at t=%.4g", ev.Value, ev.T), ev)
		}
	case obs.StageFBSM:
		if ev.Step == 1 {
			// A new iteration starts: the FBSM's coarse and requested grids,
			// or OptimizeToTarget's next weight, each count from sweep 1.
			m.resSeen, m.prevCost, m.incRuns = false, 0, 0
		}
		rose := m.resSeen && ev.Value > m.prevRes
		if ev.Cost != 0 && m.prevCost != 0 && ev.Cost < m.prevCost {
			rose = false // J still falls: the sweep made progress
		}
		if rose {
			m.incRuns++
			if m.incRuns >= m.cfg.DivergeAfter {
				m.violateLocked(CheckDivergence,
					fmt.Sprintf("FBSM residual rose for %d consecutive sweeps (%.3g at iteration %d)",
						m.incRuns, ev.Value, ev.Step), ev)
			}
		} else {
			m.incRuns = 0
		}
		m.prevRes, m.prevCost = ev.Value, ev.Cost
		m.resSeen = true
	}
}

// CheckOutcome evaluates the Theorem 5 consistency of a finished run:
// call it with the model's threshold r0, the final population-weighted
// infected fraction, the run's horizon tf and its countermeasure rates ε1
// and ε2. A subcritical spread dies out, but slowly: linearized at the
// rumor-free equilibrium E0 (S = α/ε1), the infected modes decay at rate
// ε2(1 − r0) and the susceptible ones at ε1. While S is still above α/ε1
// the effective threshold is above r0 and may exceed 1, so the slowest
// decay rate is min(ε1, ε2(1 − r0)). A run is judged only when that decay
// over tf could take the whole population below R0ExtinctI,
// min(ε1, ε2(1 − r0))·tf ≥ ln(1/R0ExtinctI); a shorter run may still be in
// its transient, whatever it ends at.
func (m *Monitor) CheckOutcome(r0, finalI, tf, eps1, eps2 float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rate := min(eps1, eps2*(1-r0))
	if r0 <= 1 && rate*tf >= -math.Log(m.cfg.R0ExtinctI) && finalI > m.cfg.R0ExtinctI {
		m.violateLocked(CheckR0Outcome,
			fmt.Sprintf("r0 = %.4g ≤ 1 predicts extinction (Theorem 5) but final infected fraction is %.4g (threshold %g)",
				r0, finalI, m.cfg.R0ExtinctI), obs.Event{T: tf, Value: finalI})
	}
}

// Violations returns the names of the checks that have fired, in no
// particular order.
func (m *Monitor) Violations() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.fired))
	for c := range m.fired {
		out = append(out, c)
	}
	return out
}
