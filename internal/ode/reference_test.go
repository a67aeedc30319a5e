package ode_test

import (
	"math"
	"math/rand"
	"testing"

	"rumornet/internal/core"
	"rumornet/internal/degreedist"
	"rumornet/internal/digg"
	"rumornet/internal/floats"
	"rumornet/internal/ode"
)

// referenceRK4 is RK4.Step before its stage builds and final combination
// were fused into single passes: a copy then one axpy per term, kept
// verbatim as the golden reference.
type referenceRK4 struct {
	k1, k2, k3, k4, tmp []float64
}

func newReferenceRK4(n int) *referenceRK4 {
	return &referenceRK4{
		k1: make([]float64, n), k2: make([]float64, n), k3: make([]float64, n),
		k4: make([]float64, n), tmp: make([]float64, n),
	}
}

func (r *referenceRK4) Step(f ode.Func, t float64, y []float64, h float64, dst []float64) {
	f(t, y, r.k1)

	copy(r.tmp, y)
	floats.AddScaled(r.tmp, h/2, r.k1)
	f(t+h/2, r.tmp, r.k2)

	copy(r.tmp, y)
	floats.AddScaled(r.tmp, h/2, r.k2)
	f(t+h/2, r.tmp, r.k3)

	copy(r.tmp, y)
	floats.AddScaled(r.tmp, h, r.k3)
	f(t+h, r.tmp, r.k4)

	copy(dst, y)
	floats.AddScaled(dst, h/6, r.k1)
	floats.AddScaled(dst, h/3, r.k2)
	floats.AddScaled(dst, h/3, r.k3)
	floats.AddScaled(dst, h/6, r.k4)
}

// TestRK4StepMatchesReference integrates the 1 696-dimensional System (1)
// on the Digg2009 scenario at the paper's 848 groups with both steppers
// and requires every component of every step to agree bit for bit. A
// time-dependent forcing term makes the stage times t+h/2 and t+h matter,
// and the step size varies so the h/2, h/3 and h/6 weights take many
// values.
func TestRK4StepMatchesReference(t *testing.T) {
	d, err := digg.Dist(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if d, err = d.Truncate(digg.PaperGroups); err != nil {
		t.Fatal(err)
	}
	m, err := core.NewModel(d, core.Params{
		Alpha:  0.01,
		Eps1:   0.2,
		Eps2:   0.05,
		Lambda: degreedist.LambdaLinear(0.02),
		Omega:  degreedist.OmegaSaturating(0.5, 0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	dim := m.StateDim()
	if dim != 1696 {
		t.Fatalf("state dimension %d, want 1696", dim)
	}
	f := func(t float64, y, dydt []float64) {
		m.RHS(t, y, dydt)
		dydt[0] += 1e-3 * math.Sin(t)
		dydt[dim-1] -= 1e-3 * math.Cos(3*t)
	}
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, want := floats.Clone(ic), floats.Clone(ic)
	gotNext, wantNext := make([]float64, dim), make([]float64, dim)
	st, ref := ode.NewRK4(dim), newReferenceRK4(dim)
	tm := 0.0
	for step := 0; step < 600; step++ {
		h := 0.05 * (1 + 0.37*float64(step%7))
		st.Step(f, tm, got, h, gotNext)
		ref.Step(f, tm, want, h, wantNext)
		for i := range wantNext {
			if math.Float64bits(gotNext[i]) != math.Float64bits(wantNext[i]) {
				t.Fatalf("step %d (t=%g, h=%g): y[%d] = %x, reference %x (not bit-identical)",
					step, tm, h, i, gotNext[i], wantNext[i])
			}
		}
		got, gotNext = gotNext, got
		want, wantNext = wantNext, want
		tm += h
	}
	if !floats.AllFinite(got) {
		t.Fatal("state left the finite range; the comparison proved nothing")
	}
}
