package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rumornet/internal/abm"
	"rumornet/internal/control"
	"rumornet/internal/core"
	"rumornet/internal/degreedist"
	"rumornet/internal/graph"
	"rumornet/internal/obs"
	"rumornet/internal/ode"
)

// JobType selects the computation a job performs.
type JobType string

// Job types.
const (
	// JobODE integrates System (1) and returns the population-weighted
	// infected trajectory.
	JobODE JobType = "ode"
	// JobThreshold runs the critical-condition analysis (Theorems 1–5):
	// r0, verdict, equilibria and threshold sensitivities.
	JobThreshold JobType = "threshold"
	// JobABM cross-validates the mean field with the agent-based
	// Monte-Carlo model on a realized configuration graph.
	JobABM JobType = "abm"
	// JobFBSM computes the Section IV optimal countermeasure schedule via
	// the forward–backward sweep method.
	JobFBSM JobType = "fbsm"
)

func validJobType(t JobType) bool {
	switch t {
	case JobODE, JobThreshold, JobABM, JobFBSM:
		return true
	}
	return false
}

// Params is the union of scenario parameters across job types; unused
// fields are ignored by the executor for the given type. Zero values mean
// "use the documented default"; rumorsim and rumorctl read their flag
// defaults from WithDefaults.
type Params struct {
	// Shared epidemic parameters.
	Alpha   float64 `json:"alpha,omitempty"`   // default 0.01
	Eps1    float64 `json:"eps1,omitempty"`    // default 0.2 (fbsm: 0.05)
	Eps2    float64 `json:"eps2,omitempty"`    // default 0.05 (fbsm: 0.02)
	R0      float64 `json:"r0,omitempty"`      // calibrate λ(k)=scale·k to this threshold (0: use Lambda0)
	Lambda0 float64 `json:"lambda0,omitempty"` // λ(k) = Lambda0·k when R0 == 0; default 0.001
	I0      float64 `json:"i0,omitempty"`      // default 0.1
	Tf      float64 `json:"tf,omitempty"`      // default 150 (fbsm: 100)
	Groups  int     `json:"groups,omitempty"`  // truncate to lowest-degree groups (0: all)
	Points  int     `json:"points,omitempty"`  // max trajectory samples returned; default 500
	Seed    int64   `json:"seed,omitempty"`    // default 1

	// ABM-only.
	Trials int     `json:"trials,omitempty"` // required >= 1 for abm jobs
	Nodes  int     `json:"nodes,omitempty"`  // default 20000
	Dt     float64 `json:"dt,omitempty"`     // default 0.5

	// FBSM-only.
	C1     float64 `json:"c1,omitempty"`      // default 5
	C2     float64 `json:"c2,omitempty"`      // default 10
	EpsMax float64 `json:"eps_max,omitempty"` // default 0.8; at most 1
	Grid   int     `json:"grid,omitempty"`    // default 1000
	Target float64 `json:"target,omitempty"`  // terminal infection target (0: plain objective)
}

// WithDefaults resolves zero fields to the documented defaults so that an
// explicit default and an omitted field canonicalize to the same cache key.
func (p Params) WithDefaults(t JobType) Params {
	if p.Alpha == 0 {
		p.Alpha = 0.01
	}
	if p.Eps1 == 0 {
		if t == JobFBSM {
			p.Eps1 = 0.05
		} else {
			p.Eps1 = 0.2
		}
	}
	if p.Eps2 == 0 {
		if t == JobFBSM {
			p.Eps2 = 0.02
		} else {
			p.Eps2 = 0.05
		}
	}
	if p.R0 == 0 && p.Lambda0 == 0 {
		if t == JobFBSM {
			p.R0 = 2.1661 // the paper's Fig. 4 epidemic scenario
		} else {
			p.Lambda0 = 0.001
		}
	}
	if p.I0 == 0 {
		p.I0 = 0.1
	}
	if p.Tf == 0 {
		if t == JobFBSM {
			p.Tf = 100
		} else {
			p.Tf = 150
		}
	}
	if p.Points == 0 {
		p.Points = 500
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if t == JobABM {
		if p.Nodes == 0 {
			p.Nodes = 20000
		}
		if p.Dt == 0 {
			p.Dt = 0.5
		}
	}
	if t == JobFBSM {
		if p.C1 == 0 {
			p.C1 = 5
		}
		if p.C2 == 0 {
			p.C2 = 10
		}
		if p.EpsMax == 0 {
			p.EpsMax = 0.8
		}
		if p.Grid == 0 {
			p.Grid = 1000
		}
	}
	return p
}

// Validate rejects out-of-range parameters with actionable messages; it
// runs after WithDefaults, at submission time, so bad requests fail with
// 400 before consuming a queue slot.
func (p Params) Validate(t JobType) error {
	for _, v := range []float64{p.Alpha, p.Eps1, p.Eps2, p.R0, p.Lambda0, p.I0, p.Tf, p.Dt, p.C1, p.C2, p.EpsMax, p.Target} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("parameters must be finite, got %g", v)
		}
	}
	switch {
	case p.Alpha < 0:
		return fmt.Errorf("alpha = %g must be non-negative", p.Alpha)
	case p.Eps1 <= 0 || p.Eps2 <= 0:
		return fmt.Errorf("eps1 = %g and eps2 = %g must be positive", p.Eps1, p.Eps2)
	case p.R0 < 0:
		return fmt.Errorf("r0 = %g must be non-negative", p.R0)
	case p.R0 == 0 && p.Lambda0 <= 0:
		return fmt.Errorf("lambda0 = %g must be positive when r0 is unset", p.Lambda0)
	case p.I0 <= 0 || p.I0 >= 1:
		return fmt.Errorf("i0 = %g outside (0, 1)", p.I0)
	case p.Tf <= 0:
		return fmt.Errorf("tf = %g must be positive", p.Tf)
	case p.Groups < 0:
		return fmt.Errorf("groups = %d must be non-negative", p.Groups)
	case p.Points < 2:
		return fmt.Errorf("points = %d must be at least 2", p.Points)
	}
	if t == JobABM {
		switch {
		case p.Trials < 1:
			return fmt.Errorf("trials = %d must be at least 1 for abm jobs", p.Trials)
		case p.Nodes < 2:
			return fmt.Errorf("nodes = %d must be at least 2", p.Nodes)
		case p.Dt <= 0:
			return fmt.Errorf("dt = %g must be positive", p.Dt)
		}
	}
	if t == JobFBSM {
		switch {
		case p.C1 <= 0 || p.C2 <= 0:
			return fmt.Errorf("c1 = %g and c2 = %g must be positive", p.C1, p.C2)
		case p.EpsMax <= 0:
			return fmt.Errorf("eps_max = %g must be positive", p.EpsMax)
		case p.EpsMax > 1:
			return fmt.Errorf("eps_max = %g must be at most 1", p.EpsMax)
		case p.Grid < 1:
			return fmt.Errorf("grid = %d must be at least 1", p.Grid)
		case p.Target < 0:
			return fmt.Errorf("target = %g must be non-negative", p.Target)
		}
	}
	return nil
}

// Class is a job's admission-priority class (DESIGN.md §15). The service
// runs one bounded queue per class; workers and cluster leases always drain
// interactive work first, and the saturation detector sheds batch
// submissions before interactive ones.
type Class string

// Admission classes.
const (
	// ClassInteractive is the default: latency-sensitive work (direct
	// submissions, /v1/query fallbacks) that must never sit behind a sweep.
	ClassInteractive Class = "interactive"
	// ClassBatch marks throughput work — surface-construction sweeps tag
	// their grid-point jobs batch — that yields to interactive traffic and
	// is shed first under saturation.
	ClassBatch Class = "batch"
)

// withDefault resolves the empty class to interactive, so pre-existing
// clients (and pre-PR-10 WAL records) keep their latency semantics.
func (c Class) withDefault() Class {
	if c == "" {
		return ClassInteractive
	}
	return c
}

func validClass(c Class) bool {
	return c == "" || c == ClassInteractive || c == ClassBatch
}

// classIndex maps a class onto its queue slot (0 = interactive, 1 = batch).
func classIndex(c Class) int {
	if c == ClassBatch {
		return 1
	}
	return 0
}

// Request is the body of POST /v1/jobs.
type Request struct {
	Type     JobType `json:"type"`
	Scenario string  `json:"scenario,omitempty"` // default BuiltinScenario
	Params   Params  `json:"params"`
	// Class is the admission-priority class (default interactive). It is
	// deliberately excluded from the cache key: the result of a computation
	// does not depend on how politely it queued.
	Class Class `json:"class,omitempty"`
	// TimeoutSec is the per-job wall-clock budget in seconds (0: server
	// default). Values above the server cap are clamped.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// resultVersion is the version of the bytes a job type's result
// serializes to. Bump a type's version with any change that moves those
// bytes, so results stored by older code become cache misses instead of
// being served as fresh answers; the other types keep their keys.
func resultVersion(t JobType) int {
	switch t {
	case JobFBSM:
		return 3 // coarse-grid warm start (2: safeguarded Anderson update)
	case JobODE:
		return 2 // step-doubled to a stated tolerance, err_est and steps
	case JobABM:
		return 2 // counter-based configuration-model arcs, fixed-point pressure
	}
	return 1
}

// cacheKey content-addresses a request: SHA-256 over the job type, the
// scenario table fingerprint, the type's result version (above 1 only)
// and the canonicalized (defaults-resolved) parameters. The timeout is
// deliberately excluded — it bounds the computation, it does not change
// the result.
func cacheKey(t JobType, scenarioFingerprint string, p Params) string {
	blob, err := json.Marshal(p)
	if err != nil { // Params is plain numbers; cannot happen
		panic(fmt.Sprintf("service: marshal params: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", t, scenarioFingerprint)
	if v := resultVersion(t); v > 1 {
		fmt.Fprintf(h, "v%d\x00", v)
	}
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusSucceeded Status = "succeeded"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusSucceeded || s == StatusFailed || s == StatusCancelled
}

func validStatus(s Status) bool {
	switch s {
	case StatusQueued, StatusRunning, StatusSucceeded, StatusFailed, StatusCancelled:
		return true
	}
	return false
}

// Job is the API view of a submitted job. Result is populated only in
// StatusSucceeded; Error only in StatusFailed/StatusCancelled.
type Job struct {
	ID       string  `json:"id"`
	Type     JobType `json:"type"`
	Scenario string  `json:"scenario"`
	Status   Status  `json:"status"`
	// Class is the admission-priority class the job queued under.
	Class Class `json:"class,omitempty"`
	// TraceID is the W3C trace the job belongs to: the client's traceparent
	// trace when the submission carried one, else a server-generated one.
	// Grep the logs or the journal for it to correlate across layers.
	TraceID  string `json:"trace_id,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Worker is the cluster worker currently executing the job (coordinator
	// mode only; cleared on requeue, retained on completion).
	Worker      string          `json:"worker,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	// ElapsedMS is the execution latency (start to finish) in
	// milliseconds; 0 for cache hits.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Latency attributes the end-to-end latency to queue-wait/execute/
	// serialize segments (latency.go); populated on terminal statuses of
	// executed jobs, nil for cache hits and while running.
	Latency *JobLatency `json:"latency,omitempty"`
	// Progress is the latest solver checkpoint of a running job; the final
	// checkpoint is retained once the job finishes. Nil for cache hits,
	// queued jobs, and job types that finished before the first checkpoint.
	Progress *JobProgress `json:"progress,omitempty"`
}

// JobProgress is the API view of a job's latest solver checkpoint: the
// obs.Event itself (for FBSM jobs Value is the per-iteration relative
// control change, the convergence residual, and Cost the objective J of
// the swept schedule; for ODE and ABM jobs Value is Θ(t) and the infected
// fraction respectively) and when it arrived.
type JobProgress struct {
	obs.Event
	UpdatedAt time.Time `json:"updated_at"`
}

// ODEResult is the payload of a succeeded JobODE.
type ODEResult struct {
	R0      float64   `json:"r0"`
	Verdict string    `json:"verdict"`
	T       []float64 `json:"t"`
	MeanI   []float64 `json:"mean_i"` // population-weighted infected fraction
	PeakT   float64   `json:"peak_t"`
	PeakI   float64   `json:"peak_i"`
	FinalI  float64   `json:"final_i"`
	// ErrEst is the answer's error estimate (DESIGN.md §5): an estimate of
	// the largest absolute error in the fields it covers, in their units.
	// Here it is the step-doubling estimate max_j |Δ mean_i[j]| / 15
	// between the returned level and the level before it, which covers
	// every mean_i sample, peak_i and final_i. At most 1e-9 unless the
	// step rule reached its ceiling.
	ErrEst float64 `json:"err_est"`
	// Steps is the returned level's RK4 step count.
	Steps int `json:"steps"`
}

// ThresholdResult is the payload of a succeeded JobThreshold.
type ThresholdResult struct {
	R0      float64 `json:"r0"`
	Verdict string  `json:"verdict"`
	// S0 is the susceptible density of the rumor-free equilibrium E0
	// (α/ε1) and E0Physical whether E0 lies in the state space Ω.
	S0         float64 `json:"s0"`
	E0Physical bool    `json:"e0_physical"`
	// ThetaPlus is the equilibrium infectivity Θ+ of E+ when r0 > 1.
	ThetaPlus *float64 `json:"theta_plus,omitempty"`
	// Elasticities of r0 (d ln r0 / d ln p): the planner's levers.
	ElastAlpha float64 `json:"elast_alpha"`
	ElastEps1  float64 `json:"elast_eps1"`
	ElastEps2  float64 `json:"elast_eps2"`
	// RequiredEps1/2 drive r0 to 1 holding the other control fixed.
	RequiredEps1 float64 `json:"required_eps1"`
	RequiredEps2 float64 `json:"required_eps2"`
}

// ABMResult is the payload of a succeeded JobABM.
type ABMResult struct {
	Trials int       `json:"trials"`
	Nodes  int       `json:"nodes"`
	T      []float64 `json:"t"`
	I      []float64 `json:"i"`
	PeakI  float64   `json:"peak_i"`
	FinalI float64   `json:"final_i"`
}

// FBSMResult is the payload of a succeeded JobFBSM.
type FBSMResult struct {
	Converged  bool `json:"converged"`
	Iterations int  `json:"iterations"`
	// CoarseIterations counts the sweeps on the quarter grid that ran
	// before the requested one (control.Policy.CoarseIterations).
	CoarseIterations int       `json:"coarse_iterations"`
	Terminal         float64   `json:"terminal"`
	Running          float64   `json:"running"`
	Total            float64   `json:"total"`
	T                []float64 `json:"t"`
	Eps1             []float64 `json:"eps1"`
	Eps2             []float64 `json:"eps2"`
}

// BuildModel assembles the mean-field model for a scenario + params pair:
// the model every executor runs, and the one rumorctl's -load-json and
// -compare-heuristic hand to internal/control.
func BuildModel(sc *Scenario, p Params) (*core.Model, *degreedist.Dist, error) {
	dist := sc.Dist()
	if p.Groups > 0 {
		var err error
		if dist, err = dist.Truncate(p.Groups); err != nil {
			return nil, nil, err
		}
	}
	omega := degreedist.OmegaSaturating(0.5, 0.5)
	var (
		m   *core.Model
		err error
	)
	if p.R0 > 0 {
		m, err = core.CalibratedModel(dist, p.Alpha, p.Eps1, p.Eps2, p.R0, omega)
	} else {
		m, err = core.NewModel(dist, core.Params{
			Alpha:  p.Alpha,
			Eps1:   p.Eps1,
			Eps2:   p.Eps2,
			Lambda: degreedist.LambdaLinear(p.Lambda0),
			Omega:  omega,
		})
	}
	if err != nil {
		return nil, nil, err
	}
	return m, dist, nil
}

// execute runs one job to completion (or cancellation via ctx) and returns
// the JSON-marshalable result payload. innerWorkers bounds an abm job's
// fan-out across trials. prog, when non-nil, receives the solver's
// progress checkpoints (threshold jobs finish in microseconds and emit
// none).
func execute(ctx context.Context, sc *Scenario, req Request, innerWorkers int, prog obs.Progress) (any, error) {
	p := req.Params
	switch req.Type {
	case JobODE:
		return executeODE(ctx, sc, p, prog)
	case JobThreshold:
		return executeThreshold(sc, p)
	case JobABM:
		return executeABM(ctx, sc, p, innerWorkers, prog)
	case JobFBSM:
		return executeFBSM(ctx, sc, p, prog)
	default:
		return nil, fmt.Errorf("unknown job type %q", req.Type)
	}
}

// The ode job's step rule (DESIGN.md §5, "ODE job step rule"). The job
// answers its mean_i samples, and so peak_i and final_i, to odeTol
// absolute. It solves on levels of S−1, 2(S−1), 4(S−1), … RK4 steps, S the
// samples it returns, and returns the first level whose samples differ
// from the level before it by at most odeRichardson·odeTol: RK4's error
// falls 16-fold when the step halves, so that difference is about 15
// times the finer level's own error. A level whose state goes non-finite
// is discarded, and the next one has no level before it. No level is
// finer than odeMaxSteps: past it the job returns the finest level with
// its err_est above odeTol, or fails when that level has no estimate.
const (
	odeTol        = 1e-9
	odeRichardson = 15
	odeMaxSteps   = 1 << 15
	// odeMaxSamples caps the samples an ode answer returns (Params.Points).
	odeMaxSamples = 2001
)

func executeODE(ctx context.Context, sc *Scenario, p Params, prog obs.Progress) (any, error) {
	m, _, err := BuildModel(sc, p)
	if err != nil {
		return nil, err
	}
	ic, err := m.UniformIC(p.I0)
	if err != nil {
		return nil, err
	}
	sol, err := solveODE(ctx, m, ic, p.Tf, min(p.Points, odeMaxSamples), prog)
	if err != nil {
		return nil, err
	}
	peak := core.PeakOf(sol.tr.T, sol.mean)
	return &ODEResult{
		R0:      m.R0(),
		Verdict: m.Classify().String(),
		T:       sol.tr.T,
		MeanI:   sol.mean,
		PeakT:   peak.Time,
		PeakI:   peak.Value,
		FinalI:  sol.mean[len(sol.mean)-1],
		ErrEst:  sol.errEst,
		Steps:   sol.steps,
	}, nil
}

// odeLevel is the level the ode job's step rule returns.
type odeLevel struct {
	tr     *core.Trajectory
	mean   []float64 // tr's mean_i samples
	steps  int
	errEst float64
}

// solveODE runs the ode job's step rule for samples samples of m from ic
// over (0, tf]. Every level records exactly samples samples, the first at
// 0 and the last at tf, into one trajectory's storage. prog receives one
// StageODELevel event per level and, after the returned level's, that
// level's StageODE checkpoints; a discarded level's checkpoints are
// dropped.
func solveODE(ctx context.Context, m *core.Model, ic []float64, tf float64, samples int, prog obs.Progress) (odeLevel, error) {
	tr := m.NewTrajectory(samples - 1)
	var (
		prev []float64   // the level before's mean_i samples; nil when it was not finite
		held []obs.Event // this level's StageODE checkpoints
	)
	for level, n := 1, samples-1; n <= odeMaxSteps; level, n = level+1, 2*n {
		opts := &core.SimOptions{
			Step:   ode.FitStep(tf/float64(n), tf, n),
			Record: n / (samples - 1),
			Reuse:  tr,
		}
		if prog != nil {
			held = held[:0]
			opts.Progress = func(ev obs.Event) {
				ev.Grid = n
				held = append(held, ev)
			}
		}
		var nonFinite *ode.NonFiniteError
		if _, err := m.SimulateCtx(ctx, ic, tf, opts); errors.As(err, &nonFinite) {
			prev = nil
			prog.Emit(obs.Event{Stage: obs.StageODELevel, Step: level, Grid: n, T: nonFinite.T})
			continue
		} else if err != nil {
			return odeLevel{}, err
		}
		mean := tr.MeanISeries()
		est := -1.0 // no level before to compare with
		if prev != nil {
			var diff float64
			for j, v := range mean {
				diff = math.Max(diff, math.Abs(v-prev[j]))
			}
			est = diff / odeRichardson
		}
		prev = mean
		prog.Emit(obs.Event{Stage: obs.StageODELevel, Step: level, Grid: n, T: tf, Value: max(est, 0)})
		if est >= 0 && (est <= odeTol || 2*n > odeMaxSteps) {
			for _, ev := range held {
				prog(ev)
			}
			return odeLevel{tr: tr, mean: mean, steps: n, errEst: est}, nil
		}
	}
	return odeLevel{}, fmt.Errorf("ode: no two consecutive levels up to %d steps stayed finite", odeMaxSteps)
}

func executeThreshold(sc *Scenario, p Params) (any, error) {
	m, _, err := BuildModel(sc, p)
	if err != nil {
		return nil, err
	}
	eq, err := m.Analyze()
	if err != nil {
		return nil, err
	}
	sens := m.Sensitivity()
	req1, err := m.RequiredEps1(1)
	if err != nil {
		return nil, err
	}
	req2, err := m.RequiredEps2(1)
	if err != nil {
		return nil, err
	}
	res := &ThresholdResult{
		R0:           eq.R0,
		Verdict:      eq.Verdict.String(),
		S0:           m.S(eq.Zero.Y, 0),
		E0Physical:   eq.Zero.Physical,
		ElastAlpha:   sens.ElastAlpha,
		ElastEps1:    sens.ElastEps1,
		ElastEps2:    sens.ElastEps2,
		RequiredEps1: req1,
		RequiredEps2: req2,
	}
	if eq.Positive != nil {
		theta := eq.Positive.Theta
		res.ThetaPlus = &theta
	}
	return res, nil
}

func executeABM(ctx context.Context, sc *Scenario, p Params, workers int, prog obs.Progress) (any, error) {
	_, dist, err := BuildModel(sc, p) // validates the scenario/params pair
	if err != nil {
		return nil, err
	}
	omega := degreedist.OmegaSaturating(0.5, 0.5)
	lamScale := p.Lambda0
	if p.R0 > 0 {
		if lamScale, err = core.CalibrateLambdaScale(dist, p.Alpha, p.Eps1, p.Eps2, p.R0, omega); err != nil {
			return nil, err
		}
	}
	// The configuration model is drawn on demand: the run redraws a node's
	// arcs each time it pushes pressure along them, so no arc is stored.
	rng := rand.New(rand.NewSource(p.Seed))
	g, err := graph.ConfigurationModelOnDemand(dist.Sample(p.Nodes, rng), rng)
	if err != nil {
		return nil, err
	}
	steps := int(p.Tf / p.Dt)
	if steps < 1 {
		steps = 1
	}
	res, err := abm.MeanRunCtx(ctx, g, abm.Config{
		Lambda:   degreedist.LambdaLinear(lamScale),
		Omega:    omega,
		Eps1:     p.Eps1,
		Eps2:     p.Eps2,
		I0:       p.I0,
		Dt:       p.Dt,
		Steps:    steps,
		Mode:     abm.ModeQuenched,
		Workers:  workers,
		Progress: prog,
	}, p.Trials, rng)
	if err != nil {
		return nil, err
	}
	return &ABMResult{
		Trials: p.Trials,
		Nodes:  g.NumNodes(),
		T:      res.T,
		I:      res.I,
		PeakI:  res.PeakI(),
		FinalI: res.FinalI(),
	}, nil
}

func executeFBSM(ctx context.Context, sc *Scenario, p Params, prog obs.Progress) (any, error) {
	m, _, err := BuildModel(sc, p)
	if err != nil {
		return nil, err
	}
	ic, err := m.UniformIC(p.I0)
	if err != nil {
		return nil, err
	}
	opts := control.Options{
		Grid:     p.Grid,
		MaxIter:  250,
		Eps1Max:  p.EpsMax,
		Eps2Max:  p.EpsMax,
		Cost:     control.Cost{C1: p.C1, C2: p.C2},
		Progress: prog,
	}
	var pol *control.Policy
	if p.Target > 0 {
		pol, err = control.OptimizeToTargetCtx(ctx, m, ic, p.Tf, p.Target, opts)
	} else {
		pol, err = control.OptimizeCtx(ctx, m, ic, p.Tf, opts)
	}
	if err != nil {
		return nil, err
	}
	return &FBSMResult{
		Converged:        pol.Converged,
		Iterations:       pol.Iterations,
		CoarseIterations: pol.CoarseIterations,
		Terminal:         pol.Cost.Terminal,
		Running:          pol.Cost.Running,
		Total:            pol.Cost.Total,
		T:                pol.Schedule.T,
		Eps1:             pol.Schedule.Eps1,
		Eps2:             pol.Schedule.Eps2,
	}, nil
}
