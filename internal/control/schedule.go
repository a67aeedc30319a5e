// Package control implements Section IV of the paper: optimized
// countermeasures via Pontryagin's maximum principle. The two controls are
// ε1(t) (spreading truth to immunize susceptibles, unit cost c1) and ε2(t)
// (blocking infected spreaders, unit cost c2); the objective (13) is
//
//	J = Σ_i I_i(tf) + ∫_0^tf Σ_i (c1 ε1²(t) S_i²(t) + c2 ε2²(t) I_i²(t)) dt.
//
// The solver is the standard forward–backward sweep method (FBSM): iterate
// a forward state integration, a backward co-state integration with the
// transversality conditions ψ_i(tf) = 0, φ_i(tf) = 1, and the clamped
// stationary-point control update of Equations (18)–(19), accelerated by
// safeguarded Anderson mixing over successive sweeps.
//
// The package also provides the paper's comparison baseline: a heuristic
// feedback controller that reacts only to the current infection state
// (Fig. 4(c)).
package control

import (
	"errors"
	"fmt"
	"math"

	"rumornet/internal/floats"
)

// Schedule is a pair of piecewise-linear control signals sampled on a
// uniform time grid over [0, tf].
type Schedule struct {
	// T is the uniform grid, T[0] = 0 and T[len-1] = tf.
	T []float64
	// Eps1 and Eps2 are the control values at the grid nodes.
	Eps1, Eps2 []float64
}

// NewConstantSchedule builds a schedule with n+1 nodes holding constant
// controls (the FBSM initial guess).
func NewConstantSchedule(tf float64, n int, eps1, eps2 float64) (*Schedule, error) {
	if tf <= 0 {
		return nil, fmt.Errorf("control: non-positive horizon %g", tf)
	}
	if n < 1 {
		return nil, fmt.Errorf("control: need at least 1 grid interval, got %d", n)
	}
	if eps1 < 0 || eps2 < 0 {
		return nil, fmt.Errorf("control: negative control (%g, %g)", eps1, eps2)
	}
	s := &Schedule{
		T:    floats.Linspace(0, tf, n+1),
		Eps1: make([]float64, n+1),
		Eps2: make([]float64, n+1),
	}
	floats.Fill(s.Eps1, eps1)
	floats.Fill(s.Eps2, eps2)
	return s, nil
}

// Validate checks the structural invariants of the schedule.
func (s *Schedule) Validate() error {
	if len(s.T) < 2 {
		return errors.New("control: schedule needs at least 2 nodes")
	}
	if len(s.Eps1) != len(s.T) || len(s.Eps2) != len(s.T) {
		return fmt.Errorf("control: schedule lengths T=%d eps1=%d eps2=%d",
			len(s.T), len(s.Eps1), len(s.Eps2))
	}
	// NaN compares false against everything, so the monotonicity and sign
	// checks below would silently pass a NaN-poisoned schedule; reject
	// non-finite values explicitly first.
	for i, t := range s.T {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("control: non-finite grid time %g at node %d", t, i)
		}
	}
	for i := 1; i < len(s.T); i++ {
		if s.T[i] <= s.T[i-1] {
			return fmt.Errorf("control: grid not increasing at node %d", i)
		}
	}
	for i := range s.Eps1 {
		if math.IsNaN(s.Eps1[i]) || math.IsInf(s.Eps1[i], 0) ||
			math.IsNaN(s.Eps2[i]) || math.IsInf(s.Eps2[i], 0) {
			return fmt.Errorf("control: non-finite control (ε1=%g, ε2=%g) at node %d",
				s.Eps1[i], s.Eps2[i], i)
		}
		if s.Eps1[i] < 0 || s.Eps2[i] < 0 {
			return fmt.Errorf("control: negative control at node %d", i)
		}
	}
	return nil
}

// Horizon returns tf.
func (s *Schedule) Horizon() float64 { return s.T[len(s.T)-1] }

// Eps1At returns ε1(t) by linear interpolation (clamped at the endpoints).
func (s *Schedule) Eps1At(t float64) float64 { return s.interp(s.Eps1, t) }

// Eps2At returns ε2(t) by linear interpolation (clamped at the endpoints).
func (s *Schedule) Eps2At(t float64) float64 { return s.interp(s.Eps2, t) }

func (s *Schedule) interp(vals []float64, t float64) float64 {
	n := len(s.T)
	if t <= s.T[0] {
		return vals[0]
	}
	if t >= s.T[n-1] {
		return vals[n-1]
	}
	// The grid is uniform; index directly, then bracket t against the
	// nodes themselves: the quotient can land one segment off when t sits
	// within rounding of a node, and w must stay in [0, 1] so the value
	// stays between its two node values.
	h := (s.T[n-1] - s.T[0]) / float64(n-1)
	j := int((t - s.T[0]) / h)
	if j >= n-1 {
		j = n - 2
	}
	if t < s.T[j] {
		j--
	} else if t >= s.T[j+1] && j < n-2 {
		j++
	}
	w := (t - s.T[j]) / (s.T[j+1] - s.T[j])
	return vals[j]*(1-w) + vals[j+1]*w
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{
		T:    floats.Clone(s.T),
		Eps1: floats.Clone(s.Eps1),
		Eps2: floats.Clone(s.Eps2),
	}
}
