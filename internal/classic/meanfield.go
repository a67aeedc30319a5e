package classic

import (
	"fmt"

	"rumornet/internal/ode"
)

// DKMeanField is the deterministic (mean-field) Daley–Kendall system over
// population fractions x (ignorant), y (spreader), z (stifler):
//
//	dx/dt = −β x y
//	dy/dt =  β x y − γ y (y + z)
//	dz/dt =  γ y (y + z)
//
// the N → ∞ limit of the Gillespie process in RunDK with Variant
// DaleyKendall (pair rates scaled by N).
type DKMeanField struct {
	// Beta is the spreading contact rate.
	Beta float64
	// GammaStifle is the stifling contact rate.
	GammaStifle float64
}

// RHS implements ode.Func over the state [x, y, z].
func (d DKMeanField) RHS(_ float64, s, ds []float64) {
	x, y, z := s[0], s[1], s[2]
	spread := d.Beta * x * y
	stifle := d.GammaStifle * y * (y + z)
	ds[0] = -spread
	ds[1] = spread - stifle
	ds[2] = stifle
}

// Solve integrates the mean field from an initial spreader fraction y0
// (x = 1 − y0, z = 0) until the spreader fraction falls below 10⁻⁸ or tMax
// elapses, returning the trajectory.
func (d DKMeanField) Solve(y0, tMax float64) (*ode.Solution, error) {
	if d.Beta <= 0 || d.GammaStifle <= 0 {
		return nil, fmt.Errorf("classic: mean field needs positive rates (β=%g, γ=%g)",
			d.Beta, d.GammaStifle)
	}
	if y0 <= 0 || y0 >= 1 {
		return nil, fmt.Errorf("classic: initial spreader fraction %g outside (0, 1)", y0)
	}
	if tMax <= 0 {
		return nil, fmt.Errorf("classic: non-positive horizon %g", tMax)
	}
	ic := []float64{1 - y0, y0, 0}
	opts := &ode.Options{
		Stop: func(_ float64, s []float64) bool { return s[1] < 1e-8 },
	}
	sol, err := ode.SolveFixed(ode.NewRK4(len(ic)).Bind(d.RHS), ic, 0, tMax, tMax/200000, opts)
	if err != nil {
		return nil, fmt.Errorf("classic: mean field: %w", err)
	}
	return sol, nil
}

// FinalIgnorant integrates the mean field to extinction and returns the
// final ignorant fraction x(∞). With β = γ and y0 → 0 it converges to the
// classical fixed point θ = e^(−2(1−θ)) ≈ 0.2032 (see DKFinalSize).
func (d DKMeanField) FinalIgnorant(y0 float64) (float64, error) {
	sol, err := d.Solve(y0, 1e4)
	if err != nil {
		return 0, err
	}
	_, s := sol.Last()
	if s[1] >= 1e-6 {
		return 0, fmt.Errorf("classic: spreaders did not die out (y = %g)", s[1])
	}
	return s[0], nil
}
