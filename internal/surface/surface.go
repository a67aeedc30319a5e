// Package surface implements precomputed response surfaces: dense grids
// of solver outputs over a small parameter box (r0, ε1, ε2, horizon …),
// folded into packed float64 tensors and answered by multilinear
// interpolation in microseconds (DESIGN.md §15). A surface is a
// first-class scientific artifact — the parameter-plane maps of
// Moreno et al. and Singh & Singh are exactly this shape — and doubles
// as rumord's serving tier for interactive what-if queries.
//
// The package is deliberately free of service dependencies: a Spec
// carries the job type, scenario fingerprint and base parameters as
// opaque strings/JSON, so the interpolation kernel and codec can be
// tested against analytic functions with no daemon in sight.
package surface

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// MaxPoints caps a single surface's grid size. Construction fans every
// grid point out as an ordinary batch job, so the cap bounds how much
// sweep work one POST /v1/surfaces can enqueue; 4096 points at 4 axes is
// an 8^4 box, far beyond what interactive coverage needs.
const MaxPoints = 4096

// MaxAxes bounds the dimensionality. Eval gathers 2^axes corners per
// query; 8 axes = 256 corners is still microseconds, and no physical
// sweep in this repo has more than 4 free parameters.
const MaxAxes = 8

// ErrOutOfHull reports a query outside the covered region (or off the
// exact coordinate of a degenerate single-point axis). Callers fall back
// to the exact async job path.
var ErrOutOfHull = errors.New("surface: query outside covered region")

// Axis is one grid dimension: a named parameter and its strictly
// increasing sample coordinates.
type Axis struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Spec identifies a surface: which job type and scenario it sweeps,
// the axes and their grids, the output fields extracted from each
// result, and the base parameters shared by every grid point (axis
// values override the matching base fields). Base must already be in
// canonical form (sorted keys, defaulted) when identity matters: Key()
// hashes the marshaled Spec verbatim.
type Spec struct {
	JobType string `json:"job_type"`
	// ResultVersion is the job type's result version when above 1, and 0
	// (omitted) at 1, so that version 1 keys stay put while any bump
	// moves the key of every surface built from the type's results.
	ResultVersion int             `json:"result_version,omitempty"`
	Scenario      string          `json:"scenario,omitempty"`
	Fingerprint   string          `json:"fingerprint,omitempty"`
	Axes          []Axis          `json:"axes"`
	Fields        []string        `json:"fields"`
	Base          json.RawMessage `json:"base,omitempty"`
}

// Validate checks structural invariants: at least one axis and field,
// unique names, strictly increasing finite axis values whose span is
// finite, and the grid within MaxPoints.
func (sp *Spec) Validate() error {
	if sp.JobType == "" {
		return errors.New("surface: spec has no job type")
	}
	if len(sp.Axes) == 0 {
		return errors.New("surface: spec has no axes")
	}
	if len(sp.Axes) > MaxAxes {
		return fmt.Errorf("surface: %d axes exceeds the maximum %d", len(sp.Axes), MaxAxes)
	}
	names := make(map[string]bool, len(sp.Axes))
	points := 1
	for _, ax := range sp.Axes {
		if ax.Name == "" {
			return errors.New("surface: axis with empty name")
		}
		if names[ax.Name] {
			return fmt.Errorf("surface: duplicate axis %q", ax.Name)
		}
		names[ax.Name] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("surface: axis %q has no values", ax.Name)
		}
		for i, v := range ax.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("surface: axis %q value %d is not finite", ax.Name, i)
			}
			if i > 0 && v <= ax.Values[i-1] {
				return fmt.Errorf("surface: axis %q values not strictly increasing at %d", ax.Name, i)
			}
		}
		// Eval divides by cell widths; a span beyond the float64 range
		// would make them infinite and the answers NaN.
		if span := ax.Values[len(ax.Values)-1] - ax.Values[0]; math.IsInf(span, 0) {
			return fmt.Errorf("surface: axis %q spans more than the float64 range", ax.Name)
		}
		// Checked per axis, so the product cannot overflow and wrap back
		// under the cap.
		if points *= len(ax.Values); points > MaxPoints {
			return fmt.Errorf("surface: grid has more than %d points", MaxPoints)
		}
	}
	if len(sp.Fields) == 0 {
		return errors.New("surface: spec has no output fields")
	}
	fields := make(map[string]bool, len(sp.Fields))
	for _, f := range sp.Fields {
		if f == "" {
			return errors.New("surface: empty field name")
		}
		if fields[f] {
			return fmt.Errorf("surface: duplicate field %q", f)
		}
		fields[f] = true
	}
	return nil
}

// Points is the total grid size: the product of the axis lengths.
func (sp *Spec) Points() int {
	n := 1
	for _, ax := range sp.Axes {
		n *= len(ax.Values)
	}
	return n
}

// Coords decomposes a row-major grid index (last axis fastest) into the
// axis coordinates of that point. It is the construction side's
// enumeration order and must match the tensor layout New expects.
func (sp *Spec) Coords(i int) []float64 {
	c := make([]float64, len(sp.Axes))
	for a := len(sp.Axes) - 1; a >= 0; a-- {
		n := len(sp.Axes[a].Values)
		c[a] = sp.Axes[a].Values[i%n]
		i /= n
	}
	return c
}

// Key is the surface's content address: the sha256 of the marshaled
// spec. Two requests for the same sweep hash identically, making
// construction idempotent and the blob store content-addressed.
func (sp *Spec) Key() (string, error) {
	raw, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Surface is a completed grid: the spec plus one packed row-major
// float64 tensor per output field, and precomputed per-field
// interpolation error bounds (see bound.go).
type Surface struct {
	Spec    Spec
	tensors [][]float64 // aligned with Spec.Fields
	bounds  []float64   // global per-field multilinear error bound
}

// New assembles a surface from a spec and per-field tensors (row-major,
// last axis fastest, one value per grid point). Tensors must be finite:
// a NaN would silently poison every interpolated answer touching its
// cell, so construction fails loudly instead.
func New(spec Spec, fields map[string][]float64) (*Surface, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	points := spec.Points()
	s := &Surface{Spec: spec, tensors: make([][]float64, len(spec.Fields))}
	for i, name := range spec.Fields {
		t, ok := fields[name]
		if !ok {
			return nil, fmt.Errorf("surface: field %q missing from tensors", name)
		}
		if len(t) != points {
			return nil, fmt.Errorf("surface: field %q has %d values, grid has %d points", name, len(t), points)
		}
		for j, v := range t {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("surface: field %q point %d is not finite", name, j)
			}
		}
		s.tensors[i] = t
	}
	s.bounds = make([]float64, len(s.tensors))
	for i, t := range s.tensors {
		s.bounds[i] = errorBound(t, spec.Axes)
	}
	return s, nil
}

// Field returns the packed tensor for one output field (nil if absent).
// Exposed for golden tests; serving goes through Eval.
func (s *Surface) Field(name string) []float64 {
	for i, f := range s.Spec.Fields {
		if f == name {
			return s.tensors[i]
		}
	}
	return nil
}

// Bounds returns the per-field global error bounds, aligned with
// Spec.Fields.
func (s *Surface) Bounds() []float64 {
	out := make([]float64, len(s.bounds))
	copy(out, s.bounds)
	return out
}

// degenerateMatch decides whether a query coordinate sits on a
// single-point axis's only sample: a relative 1e-9 tolerance absorbs
// decimal-parse jitter without covering any physically distinct value.
func degenerateMatch(v, sample float64) bool {
	scale := math.Abs(sample)
	if scale < 1 {
		scale = 1
	}
	return math.Abs(v-sample) <= 1e-9*scale
}

// Eval answers a query by multilinear interpolation: locate the grid
// cell containing coords on every axis, gather the 2^axes corner values
// and blend them by the fractional offsets. Returns the interpolated
// value and the global error bound per field, aligned with Spec.Fields.
// Queries outside the hull (or off a degenerate axis's coordinate)
// return ErrOutOfHull.
func (s *Surface) Eval(coords []float64) (values, bounds []float64, err error) {
	axes := s.Spec.Axes
	if len(coords) != len(axes) {
		return nil, nil, fmt.Errorf("surface: got %d coordinates, spec has %d axes", len(coords), len(axes))
	}
	var lo [MaxAxes]int
	var frac [MaxAxes]float64
	for a, ax := range axes {
		v := coords[a]
		if math.IsNaN(v) {
			return nil, nil, fmt.Errorf("surface: coordinate %q is NaN", ax.Name)
		}
		vals := ax.Values
		if len(vals) == 1 {
			if !degenerateMatch(v, vals[0]) {
				return nil, nil, fmt.Errorf("%w: %s=%g not on the single covered value %g", ErrOutOfHull, ax.Name, v, vals[0])
			}
			lo[a], frac[a] = 0, 0
			continue
		}
		if v < vals[0] || v > vals[len(vals)-1] {
			return nil, nil, fmt.Errorf("%w: %s=%g outside [%g, %g]", ErrOutOfHull, ax.Name, v, vals[0], vals[len(vals)-1])
		}
		i := sort.SearchFloat64s(vals, v)
		if i == len(vals) || (i > 0 && vals[i] != v) {
			i--
		}
		if i == len(vals)-1 {
			i-- // v == max: interpolate from the last cell with frac 1
		}
		lo[a] = i
		frac[a] = (v - vals[i]) / (vals[i+1] - vals[i])
	}
	n := len(axes)
	values = make([]float64, len(s.tensors))
	for f, t := range s.tensors {
		acc := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w := 1.0
			idx := 0
			for a := 0; a < n; a++ {
				i := lo[a]
				if mask>>a&1 == 1 {
					w *= frac[a]
					if len(axes[a].Values) > 1 {
						i++
					}
				} else {
					w *= 1 - frac[a]
				}
				idx = idx*len(axes[a].Values) + i
			}
			if w != 0 {
				acc += w * t[idx]
			}
		}
		values[f] = acc
	}
	return values, s.Bounds(), nil
}
