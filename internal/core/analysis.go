package core

import (
	"errors"
	"fmt"
)

// R0Sensitivity holds the partial derivatives of the threshold with respect
// to the operational parameters — the levers a countermeasure planner can
// actually pull. Since r0 = α·Σλφ/(⟨k⟩ ε1 ε2):
//
//	∂r0/∂α  =  r0/α,   ∂r0/∂ε1 = −r0/ε1,   ∂r0/∂ε2 = −r0/ε2.
type R0Sensitivity struct {
	R0     float64
	DAlpha float64 // ∂r0/∂α
	DEps1  float64 // ∂r0/∂ε1
	DEps2  float64 // ∂r0/∂ε2
	// Elasticities (d ln r0 / d ln p): +1 for α, −1 for ε1 and ε2 — the
	// threshold responds equally (and oppositely) to relative changes in
	// either countermeasure, so the cheaper one should be scaled first.
	ElastAlpha, ElastEps1, ElastEps2 float64
}

// Sensitivity returns the closed-form threshold sensitivities at the
// model's parameters.
func (m *Model) Sensitivity() R0Sensitivity {
	r0 := m.R0()
	s := R0Sensitivity{
		R0:         r0,
		ElastAlpha: 1,
		ElastEps1:  -1,
		ElastEps2:  -1,
	}
	if m.p.Alpha > 0 {
		s.DAlpha = r0 / m.p.Alpha
	}
	s.DEps1 = -r0 / m.p.Eps1
	s.DEps2 = -r0 / m.p.Eps2
	return s
}

// RequiredEps2 returns the smallest blocking rate ε2 that drives the
// threshold to targetR0 while keeping ε1 fixed — the "how hard must we
// block" planning query. It returns an error if targetR0 is not positive.
func (m *Model) RequiredEps2(targetR0 float64) (float64, error) {
	if targetR0 <= 0 {
		return 0, fmt.Errorf("core: target r0 = %g must be positive", targetR0)
	}
	// r0 ∝ 1/ε2 ⇒ ε2* = ε2 · r0/target.
	return m.p.Eps2 * m.R0() / targetR0, nil
}

// RequiredEps1 is the ε1 counterpart of RequiredEps2.
func (m *Model) RequiredEps1(targetR0 float64) (float64, error) {
	if targetR0 <= 0 {
		return 0, fmt.Errorf("core: target r0 = %g must be positive", targetR0)
	}
	return m.p.Eps1 * m.R0() / targetR0, nil
}

// SweepVerdicts classifies every (ε1, ε2) combination by Theorem 5,
// returning verdicts[i][j] for eps1s[i] × eps2s[j] — the extinction-
// frontier map of the threshold example.
func (m *Model) SweepVerdicts(eps1s, eps2s []float64) ([][]Verdict, error) {
	if len(eps1s) == 0 || len(eps2s) == 0 {
		return nil, errors.New("core: empty sweep axes")
	}
	out := make([][]Verdict, len(eps1s))
	for i, e1 := range eps1s {
		if e1 <= 0 {
			return nil, fmt.Errorf("core: sweep ε1 = %g must be positive", e1)
		}
		out[i] = make([]Verdict, len(eps2s))
		for j, e2 := range eps2s {
			if e2 <= 0 {
				return nil, fmt.Errorf("core: sweep ε2 = %g must be positive", e2)
			}
			if m.R0At(e1, e2) <= 1 {
				out[i][j] = VerdictExtinct
			} else {
				out[i][j] = VerdictEpidemic
			}
		}
	}
	return out, nil
}

// PeakInfo describes the maximum of the population-weighted infected
// fraction along a trajectory.
type PeakInfo struct {
	Time  float64
	Value float64
}

// Peak returns the time and value of the maximum population-weighted
// infected fraction.
func (tr *Trajectory) Peak() PeakInfo { return PeakOf(tr.T, tr.MeanISeries()) }

// PeakOf is Peak over a mean infected series already computed: the first
// sample of the largest value in mean, whose times are t.
func PeakOf(t, mean []float64) PeakInfo {
	best := PeakInfo{Time: t[0], Value: mean[0]}
	for j, v := range mean {
		if v > best.Value {
			best = PeakInfo{Time: t[j], Value: v}
		}
	}
	return best
}

// ErrNotExtinct is returned by TimeToExtinction when the infection never
// falls below the threshold within the trajectory.
var ErrNotExtinct = errors.New("core: infection did not fall below the threshold")

// TimeToExtinction returns the first time the population-weighted infected
// fraction falls (and stays, for the remainder of the trajectory) below
// threshold.
func (tr *Trajectory) TimeToExtinction(threshold float64) (float64, error) {
	if threshold <= 0 {
		return 0, fmt.Errorf("core: threshold %g must be positive", threshold)
	}
	mean := tr.MeanISeries()
	// Scan backwards for the last sample at or above the threshold.
	last := -1
	for j := len(mean) - 1; j >= 0; j-- {
		if mean[j] >= threshold {
			last = j
			break
		}
	}
	switch {
	case last == len(mean)-1:
		return 0, ErrNotExtinct
	case last < 0:
		return tr.T[0], nil // below threshold from the start
	default:
		return tr.T[last+1], nil
	}
}
