// Package core implements the paper's primary contribution: the
// heterogeneous-network SIR rumor-propagation model (System (1)), its
// epidemic threshold r0, the equilibrium solutions E0/E+ of Theorem 1 and
// the stability results of Theorems 2–5.
//
// Users are partitioned into n degree groups. The model state is the vector
// [S_1..S_n, I_1..I_n]; the recovered densities are derived as
// R_i = 1 − S_i − I_i (the paper's state space Ω; see DESIGN.md for why the
// third rate equation is redundant under this normalization).
package core

import (
	"errors"
	"fmt"
	"math"

	"rumornet/internal/degreedist"
)

// Params holds the epidemic and countermeasure rates of System (1)
// (Table I of the paper).
type Params struct {
	// Alpha is the rate at which new (susceptible) individuals begin to
	// concern about the rumor.
	Alpha float64
	// Eps1 is the immunization rate on susceptible individuals
	// (spreading truth).
	Eps1 float64
	// Eps2 is the blocking rate on infected individuals.
	Eps2 float64
	// Lambda is the rumor acceptance rate λ(k) ≥ 0. (The paper's prose
	// bounds λ in (0, 1), but its own evaluation uses λ(k_i) = k_i, a
	// transition rate; the model accepts any non-negative rate.)
	Lambda degreedist.KFunc
	// Omega is the infectivity ω(k) of an infected individual.
	Omega degreedist.KFunc
}

func (p Params) validate() error {
	switch {
	case p.Alpha < 0:
		return fmt.Errorf("core: Alpha = %g must be non-negative", p.Alpha)
	case p.Eps1 <= 0:
		return fmt.Errorf("core: Eps1 = %g must be positive (E0 has S = α/ε1)", p.Eps1)
	case p.Eps2 <= 0:
		return fmt.Errorf("core: Eps2 = %g must be positive", p.Eps2)
	case p.Lambda == nil:
		return errors.New("core: Lambda function is required")
	case p.Omega == nil:
		return errors.New("core: Omega function is required")
	}
	return nil
}

// Model is the heterogeneous SIR system over a fixed degree distribution.
// It is immutable after construction and safe for concurrent use.
type Model struct {
	dist  *degreedist.Dist
	p     Params
	n     int
	meanK float64

	lambda []float64 // λ(k_i)
	varphi []float64 // φ(k_i) = ω(k_i) P(k_i)
	// lamphi interleaves the two rate tables as (λ(k_i), φ(k_i)) pairs so
	// the fused RHS sweep reads one sequential stream instead of gathering
	// from two parallel arrays; see DESIGN.md §11 "Hot-loop layout".
	lamphi []float64
	sumLV  float64 // Σ λ(k_i) φ(k_i)
}

// NewModel validates the parameters and precomputes the per-group rates.
func NewModel(dist *degreedist.Dist, p Params) (*Model, error) {
	if dist == nil {
		return nil, errors.New("core: nil degree distribution")
	}
	if err := dist.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid distribution: %w", err)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := dist.N()
	m := &Model{
		dist:   dist,
		p:      p,
		n:      n,
		meanK:  dist.MeanDegree(),
		lambda: make([]float64, n),
		varphi: make([]float64, n),
		lamphi: make([]float64, 2*n),
	}
	for i := 0; i < n; i++ {
		k := float64(dist.Degree(i))
		lam := p.Lambda(k)
		if lam < 0 {
			return nil, fmt.Errorf("core: λ(%g) = %g negative", k, lam)
		}
		om := p.Omega(k)
		if om < 0 {
			return nil, fmt.Errorf("core: ω(%g) = %g negative", k, om)
		}
		m.lambda[i] = lam
		m.varphi[i] = om * dist.Prob(i)
		m.lamphi[2*i] = lam
		m.lamphi[2*i+1] = m.varphi[i]
		m.sumLV += lam * m.varphi[i]
	}
	if m.meanK <= 0 {
		return nil, errors.New("core: mean degree must be positive")
	}
	return m, nil
}

// N returns the number of degree groups.
func (m *Model) N() int { return m.n }

// Dist returns the model's degree distribution.
func (m *Model) Dist() *degreedist.Dist { return m.dist }

// Params returns the model parameters.
func (m *Model) Params() Params { return m.p }

// MeanDegree returns ⟨k⟩.
func (m *Model) MeanDegree() float64 { return m.meanK }

// Lambda returns λ(k_i) for group i.
func (m *Model) Lambda(i int) float64 { return m.lambda[i] }

// Varphi returns φ(k_i) = ω(k_i) P(k_i) for group i.
func (m *Model) Varphi(i int) float64 { return m.varphi[i] }

// StateDim returns the dimension of the packed ODE state, 2n.
func (m *Model) StateDim() int { return 2 * m.n }

// S returns S_i from a packed state vector.
func (m *Model) S(y []float64, i int) float64 { return y[i] }

// I returns I_i from a packed state vector.
func (m *Model) I(y []float64, i int) float64 { return y[m.n+i] }

// R returns the derived recovered density R_i = 1 − S_i − I_i.
func (m *Model) R(y []float64, i int) float64 { return 1 - y[i] - y[m.n+i] }

// Theta computes the average rumor infectivity
// Θ = (1/⟨k⟩) Σ φ(k_i) I_i — the coupling term of System (1).
func (m *Model) Theta(y []float64) float64 {
	var sum float64
	is := y[m.n : 2*m.n]
	for i, phi := range m.varphi {
		sum += phi * is[i]
	}
	return sum / m.meanK
}

// RHS writes the time derivative of the packed state under the model's
// constant countermeasures (Eps1, Eps2). It implements ode.Func.
func (m *Model) RHS(t float64, y, dydt []float64) {
	m.rhs(y, dydt, m.p.Eps1, m.p.Eps2)
}

// rhs is the fused hot loop of System (1): a first sweep accumulates the Θ
// numerator while stashing the Θ-independent factor λ_i·S_i in dydt, and a
// second sweep applies the now-known coupling. The interleaved (λ, φ) table
// and the capped sub-slices keep every access sequential and bounds-check
// free. The arithmetic evaluates in exactly the order of the pre-fusion
// Theta-then-loop formulation, so trajectories are bit-identical to it (the
// golden test in core_test.go pins this).
func (m *Model) rhs(y, dydt []float64, e1, e2 float64) {
	n := m.n
	ss := y[:n:n]
	is := y[n : 2*n : 2*n]
	ds := dydt[:n:n]
	di := dydt[n : 2*n : 2*n]
	lp := m.lamphi[: 2*n : 2*n]

	var acc float64
	j := 0
	for i := 0; i < n; i++ {
		ds[i] = lp[j] * ss[i] // stash λ_i·S_i
		acc += lp[j+1] * is[i]
		j += 2
	}
	theta := acc / m.meanK
	alpha := m.p.Alpha
	for i := 0; i < n; i++ {
		force := ds[i] * theta
		ds[i] = alpha - force - e1*ss[i]
		di[i] = force - e2*is[i]
	}
}

// R0 returns the paper's epidemic threshold
//
//	r0 = (α/⟨k⟩) Σ λ(k_i) φ(k_i) / (ε1 ε2)
//
// under the model's constant countermeasures. The rumor becomes extinct iff
// r0 ≤ 1 (Theorem 5).
func (m *Model) R0() float64 { return m.R0At(m.p.Eps1, m.p.Eps2) }

// R0At returns the threshold under hypothetical countermeasure rates; used
// to track r0(t) along an optimal-control schedule (Fig. 4(b)).
func (m *Model) R0At(eps1, eps2 float64) float64 {
	if eps1 <= 0 || eps2 <= 0 {
		return math.Inf(1)
	}
	return m.p.Alpha * m.sumLV / (m.meanK * eps1 * eps2)
}

// EffectiveR0 returns the instantaneous stability indicator of Theorem 2,
//
//	r_eff(t) = Γ(t)/ε2 with Γ(t) = (1/⟨k⟩) Σ λ(k_i) φ(k_i) S_i(t):
//
// the infection grows at time t iff r_eff(t) > 1 (the sign of the critical
// eigenvalue χ3 = Γ − ε2). Unlike the nominal r0 it reflects the current
// susceptible pool, which is what an operator tracking a live outbreak sees
// (used for Fig. 4(b)).
func (m *Model) EffectiveR0(y []float64, eps2 float64) float64 {
	if eps2 <= 0 {
		return math.Inf(1)
	}
	var gamma float64
	for i := 0; i < m.n; i++ {
		gamma += m.lambda[i] * m.varphi[i] * y[i]
	}
	return gamma / (m.meanK * eps2)
}

// Verdict is the propagation outcome determined by the critical conditions.
type Verdict int

// Verdict values (Theorem 5).
const (
	// VerdictExtinct: r0 ≤ 1, the infection is no longer epidemic and the
	// rumor will be extinct (E0 globally asymptotically stable).
	VerdictExtinct Verdict = iota + 1
	// VerdictEpidemic: r0 > 1, the rumor continuously propagates and the
	// infected densities converge to a positive stable level (E+ globally
	// asymptotically stable).
	VerdictEpidemic
)

// String returns a short human-readable verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictExtinct:
		return "extinct"
	case VerdictEpidemic:
		return "epidemic"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Classify applies Theorem 5 to the model's countermeasure level.
func (m *Model) Classify() Verdict {
	if m.R0() <= 1 {
		return VerdictExtinct
	}
	return VerdictEpidemic
}
