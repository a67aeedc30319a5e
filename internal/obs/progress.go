package obs

import "time"

// Solver stages reported through Progress events. The solver packages emit
// these; internal/service maps them onto the job progress surfaced by
// GET /v1/jobs/{id} and onto registry metrics.
const (
	// StageODE is a mean-field integration checkpoint (internal/core on
	// top of internal/ode): Step/Total count accepted steps, T is the
	// integration time reached and Value the infectivity Θ(t).
	StageODE = "ode"
	// StageODELevel is one finished step-doubling level of rumord's ode
	// job (DESIGN.md §5): Step numbers the level from 1, Grid is its step
	// count, T the time it reached (tf, or where its state went
	// non-finite) and Value its err_est against the level before it (0
	// when there is no finite level before it). Only the returned level's
	// StageODE checkpoints follow its level event, so a discarded level
	// never reaches an invariant monitor.
	StageODELevel = "ode/level"
	// StageFBSM is one completed forward–backward sweep iteration
	// (internal/control): Step/Total count iterations, Value is the
	// relative L1 control-change residual the convergence test uses and
	// Cost the objective J of the schedule the sweep evaluated.
	StageFBSM = "fbsm"
	// StageFBSMForward and StageFBSMBackward are checkpoints inside one
	// sweep's forward state / backward co-state integration, emitted so a
	// long sweep is visible before its first iteration completes.
	StageFBSMForward  = "fbsm/forward"
	StageFBSMBackward = "fbsm/backward"
	// StageABM is one agent-based transition-sweep step (internal/abm):
	// Step/Total count time steps, T is simulation time, Value the
	// infected fraction and Elapsed the wall time of the sweep.
	StageABM = "abm"
	// StageABMTrials is MeanRun's trial fan-out: Step/Total count
	// completed trials.
	StageABMTrials = "abm/trials"
)

// Event is one solver progress checkpoint. Fields beyond Stage and Step
// are stage-specific; unused ones are zero. Events are values — receivers
// may retain them.
//
// Event is also the checkpoint's one serialized form: a lease relays it
// from a worker, GET /v1/jobs/{id} serves it as the job's progress and
// the journal records it, all under these JSON keys, with zero fields
// omitted.
type Event struct {
	// Stage identifies the emitting loop (Stage* constants).
	Stage string `json:"stage,omitempty"`
	// Step is the unit count reached: accepted ODE steps, FBSM
	// iterations, ABM time steps, completed trials.
	Step int `json:"step,omitempty"`
	// Total is the known unit total, or 0 when open-ended.
	Total int `json:"total,omitempty"`
	// T is the solver time reached, where meaningful.
	T float64 `json:"t,omitempty"`
	// Value is the stage's headline scalar: Θ(t) for ODE checkpoints,
	// the convergence residual for FBSM iterations, the infected
	// fraction for ABM steps.
	Value float64 `json:"value,omitempty"`
	// Cost is the FBSM objective J estimate (0 elsewhere).
	Cost float64 `json:"cost,omitempty"`
	// Elapsed is the wall time of the unit, where measured (ABM sweep
	// steps).
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// Grid names the level a multi-level solve reports from: the FBSM
	// grid's intervals on every FBSM stage (the quarter grid's sweeps, then
	// the requested grid's), the step count on the ode job's StageODE and
	// StageODELevel events. 0 elsewhere.
	Grid int `json:"grid,omitempty"`

	// MinI is the smallest per-group infected density at the checkpoint
	// (ODE and FBSM-forward events): negative values mean the integration
	// undershot the I_i >= 0 bound. internal/obs/invariant watches it.
	MinI float64 `json:"min_i,omitempty"`
	// MassErr is the checkpoint's worst mass-conservation excess: for ODE
	// and FBSM-forward events max_i(S_i+I_i - (1+alpha*t)) — System (1)'s
	// inflow alpha bounds d(S+I)/dt, so values above ~roundoff mean the
	// integration is leaking mass; for ABM steps |S+I+R - 1|, which the
	// exact compartment counts keep at 0. Non-positive values are healthy.
	MassErr float64 `json:"mass_err,omitempty"`
}

// Progress receives solver checkpoints. A nil Progress means "no
// instrumentation" and costs one branch per cadence window in the solver
// hot loops. Implementations must be safe for concurrent use: fan-outs
// (ABM trials, sharded sweeps) report from multiple goroutines, and must
// be fast — solvers call them inline.
type Progress func(Event)

// Emit calls p with ev when p is non-nil; solvers use it so emission sites
// stay one-liners.
func (p Progress) Emit(ev Event) {
	if p != nil {
		p(ev)
	}
}
