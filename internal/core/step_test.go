package core

import (
	"math"
	"strings"
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
// Each step starts from the previous step's result, as in SolveFixed, so
// the kernels open with the Θ numerator their last pass carried.
func BenchmarkModelStep(b *testing.B) {
	m := diggScaleModel(b)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		step ode.Step
	}{
		{"kernel", m.newStepper(nil, nil, nil).step},
		{"generic", goStepper(m).step},
		{"rk4", ode.NewRK4(m.StateDim()).Bind(m.RHS)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			y, dst := floats.Clone(ic), make([]float64, len(ic))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.step(0, y, 0.05, dst)
				y, dst = dst, y
			}
		})
	}
}

// FuzzStageKernels runs each stage pass of the model's step kernel with its
// Go loop alone and with its AVX body plus the Go tail, on the same inputs,
// and requires the same bits in every output and returned Θ sum. Each run
// also requires stage 4's carried Θ numerator to be the opening pass's sum
// over its output, bit for bit, and its finiteness report to be
// floats.AllFinite's. n runs from 1 to 64 groups, so every tail length and
// the bodies with no group of four are covered; guard words after each
// output catch a write past it.
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
			s3, finite := stageLast(avx, y, k1, k2, k3, out[2], lam, phi, h, alpha, theta, e1, e2)
			if j := floatstest.Overrun(buf, 2*n); j >= 0 {
				t.Fatalf("avx=%v, n=%d: output %d written past its end", avx, n, j)
			}
			if finite != floats.AllFinite(out[2]) {
				t.Fatalf("avx=%v, n=%d: stage 4 reports finite=%v, AllFinite of its output %v",
					avx, n, finite, !finite)
			}
			if opener := thetaNumerator(out[2], phi); !floatstest.Same(s3, opener) {
				t.Fatalf("avx=%v, n=%d: stage 4's carried Θ numerator %x, the opening pass over its output %x",
					avx, n, s3, opener)
			}
			return append(buf, s1, s2, s3)
		}
		want, got := run(false), run(true)
		for i := range want {
			if !floatstest.Same(got[i], want[i]) {
				t.Fatalf("n=%d: word %d of the outputs [stage 1 | stages 2–3 | stage 4], each 2n values and %d guard words, then the three sums: AVX %x, Go %x",
					n, i, floatstest.Guard, got[i], want[i])
			}
		}
	})
}

// clampSimplex is SimulateCtx's projection without the stepper: S_i into
// [0, 1] and I_i into [0, 1 − S_i].
func clampSimplex(n int) func(y []float64) {
	return func(y []float64) {
		for i := 0; i < n; i++ {
			y[i] = floats.Clamp(y[i], 0, 1)
			y[n+i] = floats.Clamp(y[n+i], 0, 1-y[i])
		}
	}
}

// TestSimulateProjectMatchesRK4 starts SimulateCtx with Project outside
// the simplex (S_i + I_i = 1.3), so the clamp changes the state, and
// requires every sample to match ode.RK4 over Model.RHS followed by the
// same clamp, bit for bit, at Record 1 (each step writes its sample's row)
// and Record 3 (the state double-buffers). The kernel's last pass sums the
// next step's Θ numerator before the clamp runs, so a step that kept that
// sum instead of the clamped state's would open the next step with the Θ
// of the unclamped state.
func TestSimulateProjectMatchesRK4(t *testing.T) {
	m := diggScaleModel(t)
	n := m.N()
	ic := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ic[i], ic[n+i] = 0.7, 0.6
	}
	const tf, h = 10.0, 0.05
	for _, rec := range []int{1, 3} {
		clamped := 0
		clamp, rk := clampSimplex(n), ode.NewRK4(2*n)
		ref := func(tt float64, y []float64, h float64, dst []float64) bool {
			rk.Step(m.RHS, tt, y, h, dst)
			before := floats.Clone(dst)
			clamp(dst)
			for i := range dst {
				if dst[i] != before[i] {
					clamped++
					break
				}
			}
			return floats.AllFinite(dst)
		}
		want, err := ode.SolveFixed(ref, ic, 0, tf, h, &ode.Options{Record: rec})
		if err != nil {
			t.Fatal(err)
		}
		if clamped == 0 {
			t.Fatal("the clamp never changed the state; the comparison proved little")
		}
		got, err := m.Simulate(ic, tf, &SimOptions{Step: h, Record: rec, Project: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("Record %d: %d samples, RK4 %d", rec, got.Len(), want.Len())
		}
		for j := range want.Y {
			for i, w := range want.Y[j] {
				if math.Float64bits(got.Y[j][i]) != math.Float64bits(w) {
					t.Fatalf("Record %d: sample %d (t=%g) y[%d] = %x, RK4 and clamp %x (not bit-identical)",
						rec, j, want.T[j], i, got.Y[j][i], w)
				}
			}
		}
		t.Logf("Record %d: the clamp changed the state after %d of %d steps", rec, clamped, int(tf/h))
	}
}

// TestModelStepNonFinite injects a NaN countermeasure rate from t = 3 on
// and requires the model's step kernel, its Go loops alone and ode.RK4
// over the same right-hand side to stop with the same error at the same t,
// with the same partial trajectory: the kernel's finiteness report, folded
// into its last pass, stands in for floats.AllFinite.
func TestModelStepNonFinite(t *testing.T) {
	m := diggScaleModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	eps1 := func(tt float64) float64 {
		if tt > 3 {
			return math.NaN()
		}
		return 0.1
	}
	rhs := func(tt float64, y, dydt []float64) { m.rhs(y, dydt, eps1(tt), m.p.Eps2) }
	want, wantErr := ode.SolveFixed(ode.NewRK4(m.StateDim()).Bind(rhs), ic, 0, 10, 0.05, nil)
	if wantErr == nil || !strings.Contains(wantErr.Error(), "non-finite at t=") {
		t.Fatalf("RK4: error %v, want a non-finite state", wantErr)
	}
	generic := m.newStepper(eps1, nil, nil)
	generic.avx = false
	for _, st := range []*stepper{m.newStepper(eps1, nil, nil), generic} {
		got, err := ode.SolveFixed(st.step, ic, 0, 10, 0.05, nil)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("avx=%v: error %v, RK4 %v", st.avx, err, wantErr)
		}
		if got.Len() != want.Len() {
			t.Fatalf("avx=%v: %d samples before the error, RK4 %d", st.avx, got.Len(), want.Len())
		}
	}
	t.Log(wantErr)
}
