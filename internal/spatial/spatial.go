// Package spatial extends the rumor model with temporal–spatial dynamics:
// a one-dimensional reaction–diffusion SIR system over a lattice of
// patches, the PDE lineage the paper's related work builds on (refs [28],
// [29] — the latter, "Reaction-diffusion modeling of malware propagation",
// is by the same authors). Rumors both react locally (the SIR rates of
// System (1), homogeneous within a patch) and diffuse between neighboring
// patches as users move or cross-post:
//
//	∂S/∂t = α − λ S I − ε1 S + D_S ∂²S/∂x²
//	∂I/∂t = λ S I − ε2 I + D_I ∂²I/∂x²
//
// discretized by the method of lines (central differences in space, this
// repository's ODE integrators in time).
package spatial

import (
	"errors"
	"fmt"
	"math"

	"rumornet/internal/ode"
)

// Boundary selects the spatial boundary condition.
type Boundary int

// Boundary conditions.
const (
	// Neumann (reflecting): no flux through the domain ends; diffusion
	// conserves mass.
	Neumann Boundary = iota + 1
	// Periodic: the domain is a ring.
	Periodic
)

// Config parameterizes the reaction–diffusion model.
type Config struct {
	// Patches is the number of spatial cells (≥ 3).
	Patches int
	// Length is the physical domain length (> 0); the cell width is
	// Length/Patches.
	Length float64
	// Alpha, Lambda, Eps1, Eps2 are the local SIR rates (λ here is the
	// mass-action acceptance rate within a patch).
	Alpha, Lambda, Eps1, Eps2 float64
	// DS and DI are the diffusion coefficients of susceptible and
	// infected individuals (≥ 0).
	DS, DI float64
	// Boundary selects reflecting or periodic ends (default Neumann).
	Boundary Boundary
}

func (c Config) validate() error {
	switch {
	case c.Patches < 3:
		return fmt.Errorf("spatial: need >= 3 patches, got %d", c.Patches)
	case c.Length <= 0:
		return fmt.Errorf("spatial: Length = %g must be positive", c.Length)
	case c.Alpha < 0:
		return fmt.Errorf("spatial: Alpha = %g must be non-negative", c.Alpha)
	case c.Lambda < 0:
		return fmt.Errorf("spatial: Lambda = %g must be non-negative", c.Lambda)
	case c.Eps1 < 0 || c.Eps2 < 0:
		return fmt.Errorf("spatial: negative countermeasure rates (%g, %g)", c.Eps1, c.Eps2)
	case c.DS < 0 || c.DI < 0:
		return fmt.Errorf("spatial: negative diffusion (%g, %g)", c.DS, c.DI)
	case c.Boundary != 0 && c.Boundary != Neumann && c.Boundary != Periodic:
		return fmt.Errorf("spatial: unknown boundary %d", int(c.Boundary))
	}
	return nil
}

// Model is the discretized reaction–diffusion system. The packed state is
// [S_0..S_{P-1}, I_0..I_{P-1}].
type Model struct {
	cfg Config
	h2  float64 // cell width squared
}

// New validates the configuration and builds the model.
func New(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Boundary == 0 {
		cfg.Boundary = Neumann
	}
	h := cfg.Length / float64(cfg.Patches)
	return &Model{cfg: cfg, h2: h * h}, nil
}

// Patches returns the number of spatial cells.
func (m *Model) Patches() int { return m.cfg.Patches }

// StateDim returns the packed state dimension, 2·Patches.
func (m *Model) StateDim() int { return 2 * m.cfg.Patches }

// Position returns the center coordinate of patch p.
func (m *Model) Position(p int) float64 {
	h := m.cfg.Length / float64(m.cfg.Patches)
	return (float64(p) + 0.5) * h
}

// RHS implements ode.Func for the method-of-lines system.
func (m *Model) RHS(_ float64, y, dydt []float64) {
	p := m.cfg.Patches
	s := y[:p]
	in := y[p : 2*p]
	c := m.cfg
	for i := 0; i < p; i++ {
		force := c.Lambda * s[i] * in[i]
		dydt[i] = c.Alpha - force - c.Eps1*s[i] + c.DS*m.laplacian(s, i)
		dydt[p+i] = force - c.Eps2*in[i] + c.DI*m.laplacian(in, i)
	}
}

func (m *Model) laplacian(u []float64, i int) float64 {
	p := len(u)
	var left, right float64
	switch m.cfg.Boundary {
	case Periodic:
		left = u[(i-1+p)%p]
		right = u[(i+1)%p]
	default: // Neumann: mirror the boundary cell
		if i == 0 {
			left = u[0]
		} else {
			left = u[i-1]
		}
		if i == p-1 {
			right = u[p-1]
		} else {
			right = u[i+1]
		}
	}
	return (left - 2*u[i] + right) / m.h2
}

// SeedCenter builds an initial condition with susceptible density s0
// everywhere and infected density i0 concentrated in the center patch —
// the localized outbreak whose spreading front the experiments track.
func (m *Model) SeedCenter(s0, i0 float64) ([]float64, error) {
	if s0 < 0 || i0 <= 0 {
		return nil, fmt.Errorf("spatial: need s0 >= 0 and i0 > 0 (got %g, %g)", s0, i0)
	}
	y := make([]float64, m.StateDim())
	p := m.cfg.Patches
	for i := 0; i < p; i++ {
		y[i] = s0
	}
	y[p+p/2] = i0
	return y, nil
}

// Simulate integrates the system over (0, tf] with fixed-step RK4. The
// step must satisfy the diffusion stability bound h²/(2·max(DS, DI)); it
// is clamped to half that bound when too large.
func (m *Model) Simulate(ic []float64, tf, step float64) (*ode.Solution, error) {
	if len(ic) != m.StateDim() {
		return nil, fmt.Errorf("spatial: state dimension %d, want %d", len(ic), m.StateDim())
	}
	if tf <= 0 || step <= 0 {
		return nil, fmt.Errorf("spatial: need positive tf and step (got %g, %g)", tf, step)
	}
	if dmax := math.Max(m.cfg.DS, m.cfg.DI); dmax > 0 {
		if stable := m.h2 / (2 * dmax); step > stable/2 {
			step = stable / 2
		}
	}
	rec := 1
	if total := int(tf / step); total > 2000 {
		rec = total / 2000
	}
	sol, err := ode.SolveFixed(ode.NewRK4(len(ic)).Bind(m.RHS), ic, 0, tf, step, &ode.Options{Record: rec})
	if err != nil {
		return nil, fmt.Errorf("spatial: simulate: %w", err)
	}
	return sol, nil
}

// TotalI returns the spatially integrated infected mass Σ_p I_p·h at each
// sample of the solution.
func (m *Model) TotalI(sol *ode.Solution) []float64 {
	p := m.cfg.Patches
	h := m.cfg.Length / float64(p)
	out := make([]float64, len(sol.Y))
	for j, y := range sol.Y {
		var sum float64
		for i := 0; i < p; i++ {
			sum += y[p+i]
		}
		out[j] = sum * h
	}
	return out
}

// ErrNoFront is returned when a patch never exceeds the threshold.
var ErrNoFront = errors.New("spatial: infection front never reached the patch")

// FrontArrivalTimes returns, for each patch, the first time its infected
// density reaches threshold. Patches never reached report ErrNoFront via
// NaN entries and the returned count of reached patches.
func (m *Model) FrontArrivalTimes(sol *ode.Solution, threshold float64) (times []float64, reached int, err error) {
	if threshold <= 0 {
		return nil, 0, fmt.Errorf("spatial: threshold %g must be positive", threshold)
	}
	p := m.cfg.Patches
	times = make([]float64, p)
	for i := range times {
		times[i] = math.NaN()
	}
	for j, y := range sol.Y {
		for i := 0; i < p; i++ {
			if math.IsNaN(times[i]) && y[p+i] >= threshold {
				times[i] = sol.T[j]
				reached++
			}
		}
	}
	return times, reached, nil
}

// FisherSpeed returns the classical front-propagation speed of the
// linearized system, c* = 2·sqrt(DI·r) with local growth rate
// r = λ·S0 − ε2; the measured front speed of a pulled wave converges to it
// from below on a discrete lattice. It returns 0 when the medium is
// subcritical (r ≤ 0).
func (m *Model) FisherSpeed(s0 float64) float64 {
	r := m.cfg.Lambda*s0 - m.cfg.Eps2
	if r <= 0 || m.cfg.DI == 0 {
		return 0
	}
	return 2 * math.Sqrt(m.cfg.DI*r)
}

// MeasureFrontSpeed fits the arrival time of the rightward-moving front as
// a function of distance from the seed and returns distance/time slope.
// It needs at least five reached patches strictly right of the center.
func (m *Model) MeasureFrontSpeed(sol *ode.Solution, threshold float64) (float64, error) {
	times, _, err := m.FrontArrivalTimes(sol, threshold)
	if err != nil {
		return 0, err
	}
	p := m.cfg.Patches
	center := p / 2
	var xs, ts []float64
	for i := center + 1; i < p; i++ {
		if math.IsNaN(times[i]) {
			break
		}
		xs = append(xs, m.Position(i)-m.Position(center))
		ts = append(ts, times[i])
	}
	if len(xs) < 5 {
		return 0, fmt.Errorf("%w (only %d patches reached right of center)", ErrNoFront, len(xs))
	}
	// Least squares x = c·t + b ⇒ slope c is the speed. Skip the first few
	// patches where the front is still forming.
	skip := len(xs) / 4
	xs, ts = xs[skip:], ts[skip:]
	var st, sx, stt, stx float64
	for i := range xs {
		st += ts[i]
		sx += xs[i]
		stt += ts[i] * ts[i]
		stx += ts[i] * xs[i]
	}
	n := float64(len(xs))
	den := stt - st*st/n
	if den <= 0 {
		return 0, errors.New("spatial: degenerate front fit")
	}
	return (stx - st*sx/n) / den, nil
}
