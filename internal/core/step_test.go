package core

import (
	"math"
	"testing"

	"rumornet/internal/floats"
	"rumornet/internal/floats/floatstest"
	"rumornet/internal/ode"
)

// pwlSchedule is a piecewise-linear control through values at nodes spaced
// dt apart from t = 0, clamped at both ends: the shape of an FBSM schedule.
func pwlSchedule(dt float64, values ...float64) func(float64) float64 {
	return func(t float64) float64 {
		if t <= 0 {
			return values[0]
		}
		j := int(t / dt)
		if j >= len(values)-1 {
			return values[len(values)-1]
		}
		w := (t - float64(j)*dt) / dt
		return values[j]*(1-w) + values[j+1]*w
	}
}

// TestModelStepMatchesRK4 integrates the Digg-scale model for 2000 steps
// with the model's step kernel and with ode.RK4 over the plain right-hand
// side, and requires every sample to agree bit for bit: under constant
// countermeasures, under a piecewise-linear schedule of both, and under a
// schedule of one with the other constant. The horizon is not a multiple
// of the step, so the final step is shortened.
func TestModelStepMatchesRK4(t *testing.T) {
	m := diggScaleModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	const h, steps = 0.05, 2000
	tf := h * (steps - 0.4)
	eps1 := pwlSchedule(7.3, 0.3, 0.05, 0.2, 0.25, 0.1, 0.2, 0.15, 0, 0.05, 0.25, 0.1, 0.15, 0.2, 0.05)
	eps2 := pwlSchedule(4.1, 0.02, 0.06, 0.01, 0.03, 0.05, 0.005, 0.025, 0.045, 0.015, 0.035, 0.06, 0.02,
		0.01, 0.04, 0.03, 0.005, 0.055, 0.02, 0.01, 0.06, 0.025, 0.035, 0.015, 0.05, 0.03)
	for _, tc := range []struct {
		name   string
		e1, e2 func(float64) float64
	}{
		{"constant", nil, nil},
		{"scheduled", eps1, eps2},
		{"eps1-only", eps1, nil},
	} {
		e1, e2 := tc.e1, tc.e2
		rhs := func(tt float64, y, dydt []float64) {
			a, b := m.p.Eps1, m.p.Eps2
			if e1 != nil {
				a = e1(tt)
			}
			if e2 != nil {
				b = e2(tt)
			}
			m.rhs(y, dydt, a, b)
		}
		if e1 == nil && e2 == nil {
			rhs = m.RHS
		}
		want, err := ode.SolveFixed(ode.NewRK4(m.StateDim()).Bind(rhs), ic, 0, tf, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := m.newStepper(e1, e2, nil)
		t.Logf("%s: AVX bodies: %v", tc.name, st.avx)
		got, err := ode.SolveFixed(st.step, ic, 0, tf, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != steps+1 || want.Len() != steps+1 {
			t.Fatalf("%s: %d and %d samples, want %d", tc.name, got.Len(), want.Len(), steps+1)
		}
		for j := range want.Y {
			if got.T[j] != want.T[j] {
				t.Fatalf("%s: sample %d at t=%g, reference t=%g", tc.name, j, got.T[j], want.T[j])
			}
			for i, w := range want.Y[j] {
				if math.Float64bits(got.Y[j][i]) != math.Float64bits(w) {
					t.Fatalf("%s: sample %d (t=%g) y[%d] = %x, RK4 %x (not bit-identical)",
						tc.name, j, want.T[j], i, got.Y[j][i], w)
				}
			}
		}
		if _, yf := got.Last(); yf[m.N()] < 1e-6 {
			t.Fatalf("%s: the rumor died out (I_1(tf) = %g); the comparison proved little", tc.name, yf[m.N()])
		}
	}
}

// goStepper is the model's step kernel with its Go loops only.
func goStepper(m *Model) *stepper {
	st := m.newStepper(nil, nil, nil)
	st.avx = false
	return st
}

// TestModelStepZeroAlloc pins the kernel's steady state: a step allocates
// nothing, scheduled controls included.
func TestModelStepZeroAlloc(t *testing.T) {
	m := diggScaleModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, m.StateDim())
	st := m.newStepper(pwlSchedule(1, 0.1, 0.3), pwlSchedule(1, 0.2, 0.05), nil)
	if allocs := testing.AllocsPerRun(100, func() { st.step(0.3, ic, 0.05, dst) }); allocs != 0 {
		t.Errorf("step allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkModelStep times one RK4 step of the 995-group model under
// constant controls: "kernel" is the fused step SimulateCtx runs (its AVX
// bodies where the host has AVX), "generic" the same kernel with its Go
// loops only, and "rk4" the generic ode.RK4 over Model.RHS it replaced.
func BenchmarkModelStep(b *testing.B) {
	m := diggScaleModel(b)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, m.StateDim())
	for _, bc := range []struct {
		name string
		step ode.Step
	}{
		{"kernel", m.newStepper(nil, nil, nil).step},
		{"generic", goStepper(m).step},
		{"rk4", ode.NewRK4(m.StateDim()).Bind(m.RHS)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.step(0, ic, 0.05, dst)
			}
		})
	}
}

// FuzzStageKernels runs each stage pass of the model's step kernel with its
// Go loop alone and with its AVX body plus the Go tail, on the same inputs,
// and requires the same bits in every output and returned Θ sum. n runs
// from 1 to 64 groups, so every tail length and the bodies with no group of
// four are covered; guard words after each output catch a write past it.
func FuzzStageKernels(f *testing.F) {
	for _, n := range []uint8{1, 2, 3, 4, 5, 7} {
		f.Add(n-1, uint64(n), []byte(nil))
	}
	for i, v := range floatstest.Specials {
		for _, at := range []int{1, 9, 58, 71} { // y's S_2 and I_3, λ_3, Θ
			f.Add(uint8(6), uint64(i), floatstest.Patch(at, v))
		}
	}
	f.Fuzz(func(t *testing.T, n8 uint8, seed uint64, patch []byte) {
		if !floats.HasAVX() {
			t.Skip("no AVX on this host: the stage passes run their Go loops only")
		}
		n := 1 + int(n8)%64
		v := floatstest.Vectors(seed, patch, 2*n, 2*n, 2*n, 2*n, n, n, 7)
		y, k1, k2, k3, lam, phi := v[0], v[1], v[2], v[3], v[4], v[5]
		alpha, theta, e1, e2, c, cn, h := v[6][0], v[6][1], v[6][2], v[6][3], v[6][4], v[6][5], v[6][6]
		run := func(avx bool) []float64 {
			buf, out := floatstest.Outputs(3, 2*n)
			s1 := stageFirst(avx, y, out[0], lam, phi, alpha, theta, e1, e2, cn)
			s2 := stageNext(avx, y, k1, out[1], lam, phi, c, alpha, theta, e1, e2, cn)
			stageLast(avx, y, k1, k2, k3, out[2], lam, h, alpha, theta, e1, e2)
			if j := floatstest.Overrun(buf, 2*n); j >= 0 {
				t.Fatalf("avx=%v, n=%d: output %d written past its end", avx, n, j)
			}
			return append(buf, s1, s2)
		}
		want, got := run(false), run(true)
		for i := range want {
			if !floatstest.Same(got[i], want[i]) {
				t.Fatalf("n=%d: word %d of the outputs [stage 1 | stages 2–3 | stage 4], each 2n values and %d guard words, then the sums: AVX %x, Go %x",
					n, i, floatstest.Guard, got[i], want[i])
			}
		}
	})
}
