// Package ode implements initial-value-problem solvers for systems of
// ordinary differential equations, written from scratch on the standard
// library (Go has no mature scientific stack).
//
// It provides the classic fixed-step Runge–Kutta family (Euler, Heun, RK4)
// and an adaptive Dormand–Prince 5(4) pair with a PI step-size controller.
// The package is the numeric substrate for the heterogeneous SIR rumor model
// (internal/core) and the Pontryagin forward–backward sweep solver
// (internal/control).
//
// Concurrency: Stepper implementations carry per-call scratch buffers and
// are NOT safe for concurrent use. Steppers are cheap to construct — when
// fanning integrations across goroutines (see internal/par and
// internal/experiments), create one Stepper per goroutine rather than
// sharing one.
package ode

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rumornet/internal/floats"
)

// Func is the right-hand side of an ODE system y' = f(t, y). Implementations
// must write the derivative into dydt (which has len(y) elements) and must
// not retain either slice.
type Func func(t float64, y []float64, dydt []float64)

// Solution is a sampled trajectory of an ODE system. T holds the sample
// times in increasing order and Y[i] the state at T[i]. Each Y[i] is an
// independent copy; callers may mutate them freely.
type Solution struct {
	T []float64
	Y [][]float64
}

// Len returns the number of samples in the trajectory.
func (s *Solution) Len() int { return len(s.T) }

// Last returns the final time and state of the trajectory.
// It panics if the solution is empty.
func (s *Solution) Last() (t float64, y []float64) {
	if len(s.T) == 0 {
		panic("ode: Last on empty Solution")
	}
	return s.T[len(s.T)-1], s.Y[len(s.Y)-1]
}

// At returns the state at time t by linear interpolation between the two
// bracketing samples. Times outside the sampled range clamp to the nearest
// endpoint.
func (s *Solution) At(t float64) []float64 {
	if len(s.T) == 0 {
		panic("ode: At on empty Solution")
	}
	out := make([]float64, len(s.Y[0]))
	s.AtInto(t, out)
	return out
}

// AtInto is At without the allocation: it writes the interpolated state
// into dst, which must have the state dimension. Hot loops that evaluate a
// trajectory at many times — the FBSM co-state sweep above all — call this
// with a reused buffer so interpolation costs no allocation per call.
func (s *Solution) AtInto(t float64, dst []float64) {
	n := len(s.T)
	if n == 0 {
		panic("ode: AtInto on empty Solution")
	}
	if len(dst) != len(s.Y[0]) {
		panic(fmt.Sprintf("ode: AtInto dst dimension %d, want %d", len(dst), len(s.Y[0])))
	}
	if t <= s.T[0] {
		copy(dst, s.Y[0])
		return
	}
	if t >= s.T[n-1] {
		copy(dst, s.Y[n-1])
		return
	}
	// Binary search for the bracketing interval.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.T[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	span := s.T[hi] - s.T[lo]
	w := 0.0
	if span > 0 {
		w = (t - s.T[lo]) / span
	}
	ylo, yhi := s.Y[lo], s.Y[hi]
	for i := range dst {
		dst[i] = ylo[i] + w*(yhi[i]-ylo[i])
	}
}

// Series extracts component j of the state as a time series aligned with T.
func (s *Solution) Series(j int) []float64 {
	out := make([]float64, len(s.Y))
	for i, y := range s.Y {
		out[i] = y[j]
	}
	return out
}

// Options configures an integration run. The zero value is usable: it means
// "no projection, no stop condition, default step limits".
type Options struct {
	// Project, if non-nil, is applied to the state after every accepted
	// step. It is used by the SIR model to keep densities inside the
	// simplex against round-off drift.
	Project func(y []float64)

	// Ctx, if non-nil, is polled during the integration; once it is
	// cancelled the solver abandons the run and returns the partial
	// solution together with an error wrapping ctx.Err(). This is how job
	// timeouts reach the innermost loops of long simulations and FBSM
	// sweeps without the solvers importing any service machinery.
	//
	// Fixed-step solvers poll every 256 accepted steps and additionally
	// before the final (possibly partial) step, so cancellation latency is
	// bounded by 256 steps everywhere, including just short of tf.
	Ctx context.Context

	// Stop, if non-nil, terminates the integration early when it returns
	// true. The sample at which it fired is included in the solution.
	Stop func(t float64, y []float64) bool

	// MaxSteps bounds the number of accepted steps (default 10_000_000).
	MaxSteps int

	// Record decides how many accepted steps to skip between retained
	// samples for fixed-step methods (default 1: keep every step).
	Record int

	// Progress, if non-nil, is called every ProgressEvery accepted steps
	// (and once at the final step) with the step index, the total step
	// count (0 when open-ended, as in SolveAdaptive), the time reached
	// and the current state. The state slice is reused by the solver and
	// is only valid during the call. Keeping the hook at a coarse cadence
	// keeps its overhead well under the ~5% instrumentation budget (see
	// BENCH_PR3.json); the package stays free of any observability
	// dependency — internal/core adapts this callback onto obs.Progress.
	Progress func(step, total int, t float64, y []float64)

	// ProgressEvery is the number of accepted steps between Progress
	// calls (default 256, matching the context-poll cadence).
	ProgressEvery int
}

func (o *Options) maxSteps() int {
	if o == nil || o.MaxSteps <= 0 {
		return 10_000_000
	}
	return o.MaxSteps
}

func (o *Options) record() int {
	if o == nil || o.Record <= 0 {
		return 1
	}
	return o.Record
}

func (o *Options) project(y []float64) {
	if o != nil && o.Project != nil {
		o.Project(y)
	}
}

func (o *Options) stop(t float64, y []float64) bool {
	return o != nil && o.Stop != nil && o.Stop(t, y)
}

// ctxPollInterval is how many fixed steps pass between context polls: rare
// enough that the check is free next to the RHS evaluations, frequent
// enough that cancellation lands within a fraction of a millisecond.
const ctxPollInterval = 256

func (o *Options) progressEvery() int {
	if o == nil || o.ProgressEvery <= 0 {
		return ctxPollInterval
	}
	return o.ProgressEvery
}

// progress reports a checkpoint when a Progress hook is set and the step
// lands on the cadence (or is the final step).
func (o *Options) progress(step, total int, t float64, y []float64) {
	if o == nil || o.Progress == nil {
		return
	}
	if step%o.progressEvery() == 0 || step == total {
		o.Progress(step, total, t, y)
	}
}

func (o *Options) cancelled(t float64) error {
	if o == nil || o.Ctx == nil {
		return nil
	}
	if err := o.Ctx.Err(); err != nil {
		return fmt.Errorf("ode: integration cancelled at t=%g: %w", t, err)
	}
	return nil
}

// Stepper advances an ODE state by one fixed step. Implementations keep
// internal scratch buffers and are therefore not safe for concurrent use;
// create one Stepper per goroutine.
//
// The provided steppers (Euler, Heun, RK4) size their scratch once — at
// construction via NewEuler/NewHeun/NewRK4, or lazily on the first Step —
// and the hot path performs no allocation afterwards: the only per-step
// sizing cost is a length compare that re-allocates solely when the system
// dimension changes. SolveFixed pre-sizes the stepper before entering its
// loop, so a fixed-step solve does zero allocations per step.
type Stepper interface {
	// Step writes the state at t+h into dst given the state y at t.
	// dst and y must not alias.
	Step(f Func, t float64, y []float64, h float64, dst []float64)
	// Order returns the classical convergence order of the method.
	Order() int
	// Name returns a short human-readable method name.
	Name() string
}

// Statically verify the steppers satisfy the interface.
var (
	_ Stepper = (*Euler)(nil)
	_ Stepper = (*Heun)(nil)
	_ Stepper = (*RK4)(nil)
)

// Euler is the first-order explicit Euler method. Cheap and inaccurate;
// provided mainly as a baseline for convergence tests.
type Euler struct {
	k []float64
}

// Resize sizes the scratch for dimension-n systems; it is a no-op when the
// stepper is already sized for n.
func (e *Euler) Resize(n int) {
	if len(e.k) != n {
		e.k = make([]float64, n)
	}
}

// NewEuler returns an Euler stepper with scratch preallocated for
// dimension-n systems.
func NewEuler(n int) *Euler {
	e := &Euler{}
	e.Resize(n)
	return e
}

// Step implements Stepper.
func (e *Euler) Step(f Func, t float64, y []float64, h float64, dst []float64) {
	if len(e.k) != len(y) { // cold path: unsized or re-dimensioned stepper
		e.Resize(len(y))
	}
	f(t, y, e.k)
	copy(dst, y)
	floats.AddScaled(dst, h, e.k)
}

// Order implements Stepper.
func (e *Euler) Order() int { return 1 }

// Name implements Stepper.
func (e *Euler) Name() string { return "euler" }

// Heun is the second-order explicit trapezoidal (improved Euler) method.
type Heun struct {
	k1, k2, tmp []float64
}

// Resize sizes the scratch for dimension-n systems; it is a no-op when the
// stepper is already sized for n. The stage buffers are carved from one
// contiguous arena so the stages stream through adjacent cache lines.
func (hn *Heun) Resize(n int) {
	if len(hn.k1) == n {
		return
	}
	buf := make([]float64, 3*n)
	hn.k1 = buf[0*n : 1*n : 1*n]
	hn.k2 = buf[1*n : 2*n : 2*n]
	hn.tmp = buf[2*n : 3*n : 3*n]
}

// NewHeun returns a Heun stepper with scratch preallocated for dimension-n
// systems.
func NewHeun(n int) *Heun {
	hn := &Heun{}
	hn.Resize(n)
	return hn
}

// Step implements Stepper.
func (hn *Heun) Step(f Func, t float64, y []float64, h float64, dst []float64) {
	if len(hn.k1) != len(y) { // cold path: unsized or re-dimensioned stepper
		hn.Resize(len(y))
	}

	f(t, y, hn.k1)
	copy(hn.tmp, y)
	floats.AddScaled(hn.tmp, h, hn.k1)
	f(t+h, hn.tmp, hn.k2)

	copy(dst, y)
	floats.AddScaled(dst, h/2, hn.k1)
	floats.AddScaled(dst, h/2, hn.k2)
}

// Order implements Stepper.
func (hn *Heun) Order() int { return 2 }

// Name implements Stepper.
func (hn *Heun) Name() string { return "heun" }

// RK4 is the classic fourth-order Runge–Kutta method; the workhorse for the
// SIR simulations and the forward–backward sweep.
type RK4 struct {
	k1, k2, k3, k4, tmp []float64
}

// Resize sizes the scratch for dimension-n systems; it is a no-op when the
// stepper is already sized for n. The four stage buffers and the trial
// state share one contiguous arena so a step streams through adjacent
// cache lines instead of five scattered allocations.
func (r *RK4) Resize(n int) {
	if len(r.k1) == n {
		return
	}
	buf := make([]float64, 5*n)
	r.k1 = buf[0*n : 1*n : 1*n]
	r.k2 = buf[1*n : 2*n : 2*n]
	r.k3 = buf[2*n : 3*n : 3*n]
	r.k4 = buf[3*n : 4*n : 4*n]
	r.tmp = buf[4*n : 5*n : 5*n]
}

// NewRK4 returns an RK4 stepper with scratch preallocated for dimension-n
// systems.
func NewRK4(n int) *RK4 {
	r := &RK4{}
	r.Resize(n)
	return r
}

// Step implements Stepper.
//
// Each stage build and the final combination is one fused pass over
// sub-slices capped to len(y), so the compiler drops the bounds checks.
// Every element sees the same operations in the same order as a
// copy-then-axpy sequence — tmp = y + c·k, and
// dst = ((((y + h/6·k1) + h/3·k2) + h/3·k3) + h/6·k4) — so the result is
// bit-identical to it (see TestRK4StepMatchesReference).
func (r *RK4) Step(f Func, t float64, y []float64, h float64, dst []float64) {
	n := len(y)
	if len(r.k1) != n { // cold path: unsized or re-dimensioned stepper
		r.Resize(n)
	}
	k1, k2, k3, k4, tmp := r.k1[:n:n], r.k2[:n:n], r.k3[:n:n], r.k4[:n:n], r.tmp[:n:n]
	dst = dst[:n:n]

	f(t, y, k1)
	stage(tmp, y, h/2, k1)
	f(t+h/2, tmp, k2)
	stage(tmp, y, h/2, k2)
	f(t+h/2, tmp, k3)
	stage(tmp, y, h, k3)
	f(t+h, tmp, k4)

	h6, h3 := h/6, h/3
	for i, v := range y {
		dst[i] = v + h6*k1[i] + h3*k2[i] + h3*k3[i] + h6*k4[i]
	}
}

// stage writes tmp = y + c·k, the trial state of one Runge–Kutta stage.
// All three slices have len(y).
func stage(tmp, y []float64, c float64, k []float64) {
	tmp = tmp[:len(y)]
	k = k[:len(y)]
	for i, v := range y {
		tmp[i] = v + c*k[i]
	}
}

// Order implements Stepper.
func (r *RK4) Order() int { return 4 }

// Name implements Stepper.
func (r *RK4) Name() string { return "rk4" }

// SolveFixed integrates y' = f(t, y) from (t0, y0) to tf with constant step
// h using the given stepper, returning the sampled trajectory. The final
// step is shortened so the trajectory ends exactly at tf. y0 is not
// modified.
//
// The step loop is allocation-free: the stepper is pre-sized before the
// loop, the double-buffered state is reused across steps, and every
// retained sample is a row of one flat backing array sized up front from
// the step count and Record cadence. The total allocation count of a solve
// is therefore a small constant, independent of the number of steps (see
// TestSolveFixedStepLoopZeroAlloc).
func SolveFixed(f Func, y0 []float64, t0, tf, h float64, st Stepper, opts *Options) (*Solution, error) {
	if err := checkSpan(t0, tf, h); err != nil {
		return nil, err
	}
	n := len(y0)
	if st == nil {
		st = NewRK4(n)
	} else if rs, ok := st.(interface{ Resize(int) }); ok {
		// Size the scratch now so the loop below never hits a stepper's
		// lazy-allocation path.
		rs.Resize(n)
	}
	steps := int(math.Ceil((tf - t0) / h))
	if ms := opts.maxSteps(); steps > ms {
		return nil, fmt.Errorf("ode: %d steps exceed MaxSteps=%d", steps, ms)
	}
	rec := opts.record()

	// Exact sample budget: the initial state, every rec-th step, the final
	// step, and at most one extra off-cadence Stop sample.
	maxSamples := steps/rec + 3
	sol := &Solution{
		T: make([]float64, 0, maxSamples),
		Y: make([][]float64, 0, maxSamples),
	}
	backing := make([]float64, maxSamples*n)
	record := func(t float64, y []float64) {
		j := len(sol.Y)
		var row []float64
		if j < maxSamples {
			row = backing[j*n : (j+1)*n : (j+1)*n]
			copy(row, y)
		} else {
			row = floats.Clone(y) // unreachable by construction; stay safe
		}
		sol.T = append(sol.T, t)
		sol.Y = append(sol.Y, row)
	}

	y := floats.Clone(y0)
	next := make([]float64, n)
	t := t0
	record(t, y)

	// Hoist the hook presence checks so an uninstrumented run pays only a
	// registered-boolean branch per step.
	hook := opts != nil && opts.Progress != nil
	every := opts.progressEvery()

	for i := 0; i < steps; i++ {
		// Poll on the cadence boundary and before the final (possibly
		// partial) step, so cancellation latency stays bounded near tf too.
		if i%ctxPollInterval == 0 || i == steps-1 {
			if err := opts.cancelled(t); err != nil {
				return sol, err
			}
		}
		step := h
		if t+step > tf {
			step = tf - t
		}
		st.Step(f, t, y, step, next)
		y, next = next, y
		t += step
		if i == steps-1 {
			t = tf
		}
		opts.project(y)
		if !floats.AllFinite(y) {
			return sol, fmt.Errorf("ode: state became non-finite at t=%g", t)
		}
		if hook && ((i+1)%every == 0 || i == steps-1) {
			opts.Progress(i+1, steps, t, y)
		}
		if (i+1)%rec == 0 || i == steps-1 {
			record(t, y)
		}
		if opts.stop(t, y) {
			if sol.T[len(sol.T)-1] != t {
				record(t, y)
			}
			return sol, nil
		}
	}
	return sol, nil
}

// ErrStepUnderflow is returned by SolveAdaptive when the error controller
// drives the step size below the representable minimum, which usually means
// the problem is too stiff for an explicit method at the requested tolerance.
var ErrStepUnderflow = errors.New("ode: adaptive step size underflow")

// AdaptiveOptions configures SolveAdaptive on top of Options.
type AdaptiveOptions struct {
	Options

	// AbsTol and RelTol are the per-component absolute and relative error
	// tolerances (defaults 1e-9 and 1e-6).
	AbsTol, RelTol float64

	// InitialStep is the first trial step (default: span/100).
	InitialStep float64

	// MaxStep caps the step size (default: the full span).
	MaxStep float64
}

func (a *AdaptiveOptions) absTol() float64 {
	if a == nil || a.AbsTol <= 0 {
		return 1e-9
	}
	return a.AbsTol
}

func (a *AdaptiveOptions) relTol() float64 {
	if a == nil || a.RelTol <= 0 {
		return 1e-6
	}
	return a.RelTol
}

// Dormand–Prince 5(4) Butcher tableau.
var (
	dpC = [7]float64{0, 1. / 5, 3. / 10, 4. / 5, 8. / 9, 1, 1}
	dpA = [7][6]float64{
		{},
		{1. / 5},
		{3. / 40, 9. / 40},
		{44. / 45, -56. / 15, 32. / 9},
		{19372. / 6561, -25360. / 2187, 64448. / 6561, -212. / 729},
		{9017. / 3168, -355. / 33, 46732. / 5247, 49. / 176, -5103. / 18656},
		{35. / 384, 0, 500. / 1113, 125. / 192, -2187. / 6784, 11. / 84},
	}
	// 5th-order solution weights (same as the last A row: FSAL property).
	dpB5 = [7]float64{35. / 384, 0, 500. / 1113, 125. / 192, -2187. / 6784, 11. / 84, 0}
	// 4th-order embedded weights.
	dpB4 = [7]float64{5179. / 57600, 0, 7571. / 16695, 393. / 640, -92097. / 339200, 187. / 2100, 1. / 40}
)

// SolveAdaptive integrates y' = f(t, y) from (t0, y0) to tf with the
// Dormand–Prince 5(4) embedded pair and a PI step-size controller. Every
// accepted step is recorded in the returned Solution. y0 is not modified.
func SolveAdaptive(f Func, y0 []float64, t0, tf float64, opts *AdaptiveOptions) (*Solution, error) {
	span := tf - t0
	if span <= 0 {
		return nil, fmt.Errorf("ode: non-positive time span [%g, %g]", t0, tf)
	}
	n := len(y0)
	if n == 0 {
		return nil, errors.New("ode: empty initial state")
	}

	atol, rtol := opts.absTol(), opts.relTol()
	h := span / 100
	if opts != nil && opts.InitialStep > 0 {
		h = opts.InitialStep
	}
	hMax := span
	if opts != nil && opts.MaxStep > 0 {
		hMax = opts.MaxStep
	}
	var optBase *Options
	if opts != nil {
		optBase = &opts.Options
	}
	maxSteps := optBase.maxSteps()

	k := make([][]float64, 7)
	for i := range k {
		k[i] = make([]float64, n)
	}
	y := floats.Clone(y0)
	ytmp := make([]float64, n)
	y5 := make([]float64, n)
	y4 := make([]float64, n)

	sol := &Solution{T: []float64{t0}, Y: [][]float64{floats.Clone(y)}}
	t := t0

	const (
		safety   = 0.9
		minScale = 0.2
		maxScale = 5.0
		beta     = 0.04 // PI controller damping
	)
	errPrev := 1.0
	accepted := 0

	for t < tf {
		if err := optBase.cancelled(t); err != nil {
			return sol, err
		}
		if h > hMax {
			h = hMax
		}
		if t+h > tf {
			h = tf - t
		}
		if h <= math.Nextafter(t, math.Inf(1))-t {
			return sol, fmt.Errorf("%w at t=%g", ErrStepUnderflow, t)
		}

		// Evaluate the seven stages.
		f(t, y, k[0])
		for s := 1; s < 7; s++ {
			copy(ytmp, y)
			for j := 0; j < s; j++ {
				if a := dpA[s][j]; a != 0 {
					floats.AddScaled(ytmp, h*a, k[j])
				}
			}
			f(t+dpC[s]*h, ytmp, k[s])
		}

		// 5th- and 4th-order candidates.
		copy(y5, y)
		copy(y4, y)
		for s := 0; s < 7; s++ {
			if dpB5[s] != 0 {
				floats.AddScaled(y5, h*dpB5[s], k[s])
			}
			if dpB4[s] != 0 {
				floats.AddScaled(y4, h*dpB4[s], k[s])
			}
		}

		// Weighted RMS error norm.
		var errNorm float64
		for i := 0; i < n; i++ {
			sc := atol + rtol*math.Max(math.Abs(y[i]), math.Abs(y5[i]))
			e := (y5[i] - y4[i]) / sc
			errNorm += e * e
		}
		errNorm = math.Sqrt(errNorm / float64(n))

		if errNorm <= 1 || h <= hMax*1e-12 {
			// Accept.
			t += h
			copy(y, y5)
			optBase.project(y)
			if !floats.AllFinite(y) {
				return sol, fmt.Errorf("ode: state became non-finite at t=%g", t)
			}
			sol.T = append(sol.T, t)
			sol.Y = append(sol.Y, floats.Clone(y))
			accepted++
			optBase.progress(accepted, 0, t, y)
			if accepted > maxSteps {
				return sol, fmt.Errorf("ode: exceeded MaxSteps=%d", maxSteps)
			}
			if optBase.stop(t, y) {
				return sol, nil
			}
			errPrev = math.Max(errNorm, 1e-10)
		}

		// PI step-size update (applies to both accepted and rejected steps).
		scale := safety * math.Pow(errNorm+1e-16, -0.2+beta) * math.Pow(errPrev, beta)
		scale = floats.Clamp(scale, minScale, maxScale)
		h *= scale
		if !(h > 0) || math.IsInf(h, 0) || math.IsNaN(h) {
			return sol, fmt.Errorf("%w (h=%g) at t=%g", ErrStepUnderflow, h, t)
		}
	}
	return sol, nil
}

func checkSpan(t0, tf, h float64) error {
	if tf <= t0 {
		return fmt.Errorf("ode: non-positive time span [%g, %g]", t0, tf)
	}
	if h <= 0 {
		return fmt.Errorf("ode: non-positive step size %g", h)
	}
	return nil
}
