package control

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"rumornet/internal/core"
)

// Hamiltonian evaluates the paper's Hamiltonian (Equation (14)) at one
// instant:
//
//	H = Σ_i [c1 ε1² S_i² + c2 ε2² I_i²]
//	  + Σ_i ψ_i (α − λ_i S_i Θ − ε1 S_i)
//	  + Σ_i φ_i (λ_i S_i Θ − ε2 I_i).
func Hamiltonian(m *core.Model, y, psi, phi []float64, e1, e2 float64, cost Cost) float64 {
	n := m.N()
	theta := m.Theta(y)
	alpha := m.Params().Alpha
	var h float64
	for i := 0; i < n; i++ {
		s, inf := y[i], y[n+i]
		force := m.Lambda(i) * s * theta
		h += cost.C1*e1*e1*s*s + cost.C2*e2*e2*inf*inf
		h += psi[i] * (alpha - force - e1*s)
		h += phi[i] * (force - e2*inf)
	}
	return h
}

// HamiltonianSeries recomputes the state and co-state trajectories under a
// policy's final schedule and returns H(t) on the schedule grid. Along an
// exact Pontryagin extremal of this autonomous problem H is constant in
// time; the flatness of the returned series is therefore a direct
// optimality diagnostic for the FBSM output.
func HamiltonianSeries(m *core.Model, ic []float64, pol *Policy, opts Options) ([]float64, error) {
	if pol == nil || pol.Schedule == nil {
		return nil, errors.New("control: nil policy")
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	sched := pol.Schedule
	ctx := context.Background()
	tr, err := simulateOnGrid(ctx, m, ic, sched, nil, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("control: hamiltonian forward pass: %w", err)
	}
	psi, phi, err := backwardSweep(ctx, m, tr, sched, opts, newSweepArena(m, len(sched.T)))
	if err != nil {
		return nil, fmt.Errorf("control: hamiltonian backward pass: %w", err)
	}
	hs := make([]float64, len(sched.T))
	for j := range sched.T {
		hs[j] = Hamiltonian(m, tr.Y[j], psi[j], phi[j], sched.Eps1[j], sched.Eps2[j], opts.Cost)
	}
	return hs, nil
}

// scheduleJSON is the serialized form of a Schedule.
type scheduleJSON struct {
	T    []float64 `json:"t"`
	Eps1 []float64 `json:"eps1"`
	Eps2 []float64 `json:"eps2"`
}

// WriteJSON serializes the schedule as JSON ({"t": [...], "eps1": [...],
// "eps2": [...]}), suitable for handing to an operations dashboard.
func (s *Schedule) WriteJSON(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(scheduleJSON{T: s.T, Eps1: s.Eps1, Eps2: s.Eps2}); err != nil {
		return fmt.Errorf("control: encode schedule: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("control: flush schedule: %w", err)
	}
	return nil
}

// ReadScheduleJSON parses a schedule previously written by WriteJSON and
// validates it.
func ReadScheduleJSON(r io.Reader) (*Schedule, error) {
	var dto scheduleJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&dto); err != nil {
		return nil, fmt.Errorf("control: decode schedule: %w", err)
	}
	s := &Schedule{T: dto.T, Eps1: dto.Eps1, Eps2: dto.Eps2}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
