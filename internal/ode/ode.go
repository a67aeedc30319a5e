// Package ode integrates initial-value problems for systems of ordinary
// differential equations at a fixed step, written from scratch on the
// standard library (Go has no mature scientific stack).
//
// SolveFixed owns the step loop: the time grid, cancellation, the
// finiteness check, progress, stop conditions and the recorded
// trajectory. It advances the state through a Step, one fixed-size step of
// some integrator. The classic fourth-order Runge–Kutta method, RK4, is the
// package's only integrator: RK4.Bind turns any right-hand side into a
// Step, and the Daley–Kendall mean field (internal/classic) and the spatial
// model (internal/spatial) integrate that way. The two hot systems bring
// their own RK4 step kernels instead — System (1) in internal/core and its
// co-state in internal/control — which fuse the four stages into one pass
// each over the groups and stay bit-identical to RK4 over their plain
// right-hand sides (DESIGN.md §11). Every system here is smooth and
// non-stiff at the paper's parameter scales.
//
// Concurrency: an RK4 stepper carries per-call scratch buffers and is NOT
// safe for concurrent use, and neither is a Step bound to one. Steppers are
// cheap to construct — when fanning integrations across goroutines (see
// internal/par and internal/experiments), create one per goroutine rather
// than sharing one.
package ode

import (
	"context"
	"fmt"
	"math"

	"rumornet/internal/floats"
)

// Func is the right-hand side of an ODE system y' = f(t, y). Implementations
// must write the derivative into dydt (which has len(y) elements) and must
// not retain either slice.
type Func func(t float64, y []float64, dydt []float64)

// Step advances a system by one fixed step: it writes into dst the state
// at t+h given the state y at t, and reports whether every element of dst
// is finite. dst and y have the same length and do not alias. A Step may
// keep scratch between calls, so it is not safe for concurrent use.
//
// A Step may also carry a value from one call to the next: a sum over dst
// that its last pass computes anyway, which the next call reuses instead
// of summing again when its y is that same dst. SolveFixed passes each
// step's dst, untouched, as the next step's y; a Step that outlives one
// integration must drop its carry before the next starts, since that one
// may begin from the same slice holding a new state.
type Step func(t float64, y []float64, h float64, dst []float64) bool

// Solution is a sampled trajectory of an ODE system. T holds the sample
// times in increasing order and Y[i] the state at T[i]. Each Y[i] is an
// independent copy; callers may mutate them freely.
type Solution struct {
	T []float64
	Y [][]float64

	buf []float64 // SolveFixed's backing array: the rows, then two state buffers
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
// trajectory at many times call this with a reused buffer so
// interpolation costs no allocation per call.
func (s *Solution) AtInto(t float64, dst []float64) {
	if len(s.T) == 0 {
		panic("ode: AtInto on empty Solution")
	}
	if len(dst) != len(s.Y[0]) {
		panic(fmt.Sprintf("ode: AtInto dst dimension %d, want %d", len(dst), len(s.Y[0])))
	}
	lo, hi, w := s.Bracket(t)
	if lo == hi {
		copy(dst, s.Y[lo])
		return
	}
	ylo, yhi := s.Y[lo], s.Y[hi]
	for i := range dst {
		dst[i] = ylo[i] + w*(yhi[i]-ylo[i])
	}
}

// Bracket locates t among the samples for linear interpolation: the state
// at t is Y[lo] + w·(Y[hi] − Y[lo]), with hi = lo+1 inside the sampled
// range. A time outside it clamps to the nearest endpoint, reported as
// lo == hi and w == 0; the state there is Y[lo] itself.
func (s *Solution) Bracket(t float64) (lo, hi int, w float64) {
	n := len(s.T)
	if n == 0 {
		panic("ode: Bracket on empty Solution")
	}
	if t <= s.T[0] {
		return 0, 0, 0
	}
	if t >= s.T[n-1] {
		return n - 1, n - 1, 0
	}
	// Binary search for the bracketing interval.
	lo, hi = 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.T[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	if span := s.T[hi] - s.T[lo]; span > 0 {
		w = (t - s.T[lo]) / span
	}
	return lo, hi, w
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
// "no stop condition, default step limits".
type Options struct {
	// Ctx, if non-nil, is polled during the integration; once it is
	// cancelled the solver abandons the run and returns the partial
	// solution together with an error wrapping ctx.Err(). This is how job
	// timeouts reach the innermost loops of long simulations and FBSM
	// sweeps without the solvers importing any service machinery.
	//
	// SolveFixed polls every 256 steps and additionally before the final
	// (possibly partial) step, so cancellation latency is bounded by 256
	// steps everywhere, including just short of tf.
	Ctx context.Context

	// Stop, if non-nil, terminates the integration early when it returns
	// true. The sample at which it fired is included in the solution. It
	// must not modify y, which the next step reads as it is.
	Stop func(t float64, y []float64) bool

	// MaxSteps bounds the number of steps (default 10_000_000).
	MaxSteps int

	// Record decides how many steps to skip between retained samples
	// (default 1: keep every step).
	Record int

	// Progress, if non-nil, is called every ProgressEvery steps (and once
	// at the final step) with the step index, the total step count, the
	// time reached and the current state. The state slice is reused by the
	// solver and is only valid during the call; the hook must not modify
	// it, since the next step reads it as it is. Keeping the hook at a
	// coarse cadence keeps its overhead well under the ~5% instrumentation
	// budget (BenchmarkSolveFixedProgressOff/On); the package stays free of
	// any observability dependency — internal/core adapts this callback
	// onto obs.Progress.
	Progress func(step, total int, t float64, y []float64)

	// ProgressEvery is the number of steps between Progress calls
	// (default 256, matching the context-poll cadence).
	ProgressEvery int

	// Reuse, if non-nil, is a Solution returned by an earlier SolveFixed
	// whose storage this run overwrites and returns when it is large
	// enough, so a caller that integrates the same grid over and over (the
	// FBSM sweeps) allocates its trajectory once. The earlier solution's
	// samples are invalid afterwards.
	Reuse *Solution
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

// reuse returns Options.Reuse emptied for a run of maxSamples samples of
// dimension n, or nil when there is none or it is too small.
func (o *Options) reuse(maxSamples, n int) *Solution {
	if o == nil || o.Reuse == nil {
		return nil
	}
	s := o.Reuse
	if cap(s.T) < maxSamples || cap(s.Y) < maxSamples || len(s.buf) < (maxSamples+2)*n {
		return nil
	}
	s.T, s.Y = s.T[:0], s.Y[:0]
	return s
}

// sampleBudget is how many samples a SolveFixed run of steps steps at
// Record cadence rec can record: the initial state, every rec-th step, the
// final step, and at most one extra off-cadence Stop sample.
func sampleBudget(steps, rec int) int { return steps/rec + 3 }

// newSolution returns an empty Solution with room for maxSamples samples of
// dimension n and the two state buffers after them.
func newSolution(maxSamples, n int) *Solution {
	return &Solution{
		T:   make([]float64, 0, maxSamples),
		Y:   make([][]float64, 0, maxSamples),
		buf: make([]float64, (maxSamples+2)*n),
	}
}

// NewSolution returns an empty Solution with the storage a SolveFixed run
// of steps steps at Record 1 over states of dimension n needs, for
// Options.Reuse: a caller that integrates several grids through one
// Solution (the FBSM's coarse and fine levels) sizes it for the largest
// first, so the smaller runs allocate nothing.
func NewSolution(steps, n int) *Solution {
	return newSolution(sampleBudget(steps, 1), n)
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

func (o *Options) cancelled(t float64) error {
	if o == nil || o.Ctx == nil {
		return nil
	}
	if err := o.Ctx.Err(); err != nil {
		return fmt.Errorf("ode: integration cancelled at t=%g: %w", t, err)
	}
	return nil
}

// RK4 is the classic fourth-order Runge–Kutta method, the package's only
// integrator. It sizes its scratch once — at construction via NewRK4, or
// lazily on the first Step — and the hot path performs no allocation
// afterwards: the only per-step sizing cost is a length compare that
// re-allocates solely when the system dimension changes. A stepper built
// with NewRK4 for the system's dimension therefore steps a whole solve
// without allocating.
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

// Step writes the state at t+h into dst given the state y at t. dst and y
// must not alias.
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

// Bind returns the Step that advances y' = f(t, y) with this stepper. Its
// finiteness report is one more pass over dst.
func (r *RK4) Bind(f Func) Step {
	return func(t float64, y []float64, h float64, dst []float64) bool {
		r.Step(f, t, y, h, dst)
		return floats.AllFinite(dst)
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

// FitStep returns the step that crosses span in exactly steps steps of
// SolveFixed, which takes ceil(span/h) of them: h itself, or h raised by at
// most a few ulps when span/h rounds above steps (at span 20, h = 20/61
// does). A caller that needs a sample at every grid node, or exactly
// steps/Record + 1 samples, passes its nominal step through FitStep. A
// step no such nudge aligns is returned unchanged.
func FitStep(h, span float64, steps int) float64 {
	for up, i := h, 0; i < 4; i, up = i+1, math.Nextafter(up, span) {
		if math.Ceil(span/up) <= float64(steps) {
			return up
		}
	}
	return h
}

// NonFiniteError is SolveFixed's error when the state leaves the finite
// floats: T is the time of the first non-finite state. A caller that
// retries on a finer step, as rumord's ode job does, tells it apart from
// cancellation with errors.As.
type NonFiniteError struct {
	T float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("ode: state became non-finite at t=%g", e.T)
}

// SolveFixed integrates from (t0, y0) to tf with constant step h,
// advancing the state with step, and returns the sampled trajectory. The
// final step is shortened so the trajectory ends exactly at tf. y0 is not
// modified.
//
// The step loop is allocation-free: the double-buffered state and every
// retained sample are rows of one flat backing array sized up front from
// the step count and Record cadence, and step is expected to keep its own
// scratch (RK4 sized by NewRK4 does). The total allocation count of a
// solve is therefore a small constant, independent of the number of steps
// (see TestSolveFixedStepLoopZeroAlloc), and zero bytes of trajectory when
// Options.Reuse supplies the storage. With Record 1 every step is a
// sample, so each step writes straight into its sample's row and nothing
// is copied. The finiteness check is the step's own report, which the
// step kernels fold into their last pass; a non-finite state ends the run
// with a *NonFiniteError and the samples before it.
func SolveFixed(step Step, y0 []float64, t0, tf, h float64, opts *Options) (*Solution, error) {
	if tf <= t0 {
		return nil, fmt.Errorf("ode: non-positive time span [%g, %g]", t0, tf)
	}
	if h <= 0 {
		return nil, fmt.Errorf("ode: non-positive step size %g", h)
	}
	n := len(y0)
	steps := int(math.Ceil((tf - t0) / h))
	if ms := opts.maxSteps(); steps > ms {
		return nil, fmt.Errorf("ode: %d steps exceed MaxSteps=%d", steps, ms)
	}
	rec := opts.record()

	// Exact sample budget (sampleBudget). Two more rows of the backing
	// array hold the current and next state.
	maxSamples := sampleBudget(steps, rec)
	sol := opts.reuse(maxSamples, n)
	if sol == nil {
		sol = newSolution(maxSamples, n)
	}
	backing := sol.buf
	// direct: every step is a sample, so y is always the newest row.
	direct := rec == 1
	record := func(t float64, y []float64) {
		j := len(sol.Y)
		row := y
		if !direct {
			if j < maxSamples {
				row = backing[j*n : (j+1)*n : (j+1)*n]
				copy(row, y)
			} else {
				row = floats.Clone(y) // unreachable by construction; stay safe
			}
		}
		sol.T = append(sol.T, t)
		sol.Y = append(sol.Y, row)
	}

	// The state double-buffers in the two rows after the samples, or, when
	// direct, moves from row to row.
	y := backing[maxSamples*n : (maxSamples+1)*n : (maxSamples+1)*n]
	next := backing[(maxSamples+1)*n : (maxSamples+2)*n : (maxSamples+2)*n]
	if direct {
		y = backing[:n:n]
	}
	copy(y, y0)
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
		dt := h
		if t+dt > tf {
			dt = tf - t
		}
		if direct {
			next = backing[(i+1)*n : (i+2)*n : (i+2)*n]
		}
		finite := step(t, y, dt, next)
		y, next = next, y
		t += dt
		if i == steps-1 {
			t = tf
		}
		if !finite {
			return sol, &NonFiniteError{T: t}
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
