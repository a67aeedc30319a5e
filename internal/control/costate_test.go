package control

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"rumornet/internal/floats"
	"rumornet/internal/floats/floatstest"
	"rumornet/internal/ode"
)

// benchFBSMOptions are the solve benchmark's FBSM job options on
// diggControlModel (tf 20, UniformIC(0.1)).
func benchFBSMOptions() Options {
	return Options{Grid: 120, Eps1Max: 0.6, Eps2Max: 0.6, Cost: Cost{C1: 5, C2: 10}}
}

// wavySchedule is a non-constant schedule over the grid, so the co-state
// terms differ at every stage time.
func wavySchedule(tb testing.TB, tf float64, grid int) *Schedule {
	tb.Helper()
	sched, err := NewConstantSchedule(tf, grid, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for j, t := range sched.T {
		sched.Eps1[j] = 0.3 + 0.25*math.Sin(0.7*t+0.3*float64(j%5))
		sched.Eps2[j] = 0.2 + 0.15*math.Cos(1.3*t)
	}
	return sched
}

// TestCostateStepMatchesRK4 integrates the co-state of the solve
// benchmark's FBSM job under a non-constant schedule with the co-state
// kernel and with ode.RK4 over referenceCostateRHS, for both adjoints and
// two terminal weights, and requires every sample to agree bit for bit.
// One run uses a step that does not divide tf, so its final step is
// shortened.
func TestCostateStepMatchesRK4(t *testing.T) {
	m := diggControlModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	const tf, grid = 20.0, 120
	sched := wavySchedule(t, tf, grid)
	tr, err := simulateOnGrid(context.Background(), m, ic, sched, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := m.N()
	k := newCostateStep(m)
	for _, adj := range []Adjoint{AdjointExact, AdjointDiagonal} {
		for _, tc := range []struct {
			weight, h float64
		}{
			{1, sched.T[1] - sched.T[0]},
			{8, tf / (grid - 0.3)},
		} {
			opts := benchFBSMOptions()
			opts.Adjoint, opts.TerminalWeight = adj, tc.weight
			opts = opts.withDefaults()
			z0 := make([]float64, 2*n)
			for i := 0; i < n; i++ {
				z0[n+i] = tc.weight
			}
			want, err := ode.SolveFixed(ode.NewRK4(2*n).Bind(referenceCostateRHS(m, tr, sched, opts)), z0, 0, tf, tc.h, nil)
			if err != nil {
				t.Fatal(err)
			}
			k.reset(tr, sched, opts)
			t.Logf("adjoint %d, w=%g: AVX bodies: %v", adj, tc.weight, k.avx)
			got, err := ode.SolveFixed(k.step, z0, 0, tf, tc.h, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("adjoint %d, w=%g: %d samples, reference %d", adj, tc.weight, got.Len(), want.Len())
			}
			for j := range want.Y {
				for i, w := range want.Y[j] {
					if math.Float64bits(got.Y[j][i]) != math.Float64bits(w) {
						t.Fatalf("adjoint %d, w=%g: sample %d (τ=%g) z[%d] = %x, RK4 %x (not bit-identical)",
							adj, tc.weight, j, want.T[j], i, got.Y[j][i], w)
					}
				}
			}
		}
	}
}

// TestCostateStepZeroAlloc pins the kernel's steady state: a step
// allocates nothing.
func TestCostateStepZeroAlloc(t *testing.T) {
	m := diggControlModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	sched := wavySchedule(t, 20, 120)
	tr, err := simulateOnGrid(context.Background(), m, ic, sched, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := newCostateStep(m)
	k.reset(tr, sched, benchFBSMOptions().withDefaults())
	z, dst := make([]float64, m.StateDim()), make([]float64, m.StateDim())
	if allocs := testing.AllocsPerRun(100, func() { k.step(3.1, z, 1.0/6, dst) }); allocs != 0 {
		t.Errorf("co-state step allocates %v times per call, want 0", allocs)
	}
}

// TestOptimizeAllocFlat shows the sweeps reuse their trajectories: an
// Optimize run of the solve benchmark's FBSM job allocates about the same
// whether it stops after 2 sweeps or runs the 12 it takes to converge.
func TestOptimizeAllocFlat(t *testing.T) {
	m := diggControlModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(maxIter int) (uint64, int) {
		opts := benchFBSMOptions()
		opts.MaxIter = maxIter
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pol, err := Optimize(m, ic, 20, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, pol.Iterations
	}
	alloc(2) // warm up anything allocated once per process
	short, shortIters := alloc(2)
	long, longIters := alloc(12)
	t.Logf("%d sweeps: %d B, %d sweeps: %d B", shortIters, short, longIters, long)
	if shortIters != 2 || longIters <= 2 {
		t.Fatalf("ran %d and %d sweeps, want 2 and more", shortIters, longIters)
	}
	if long > short+64<<10 {
		t.Errorf("%d sweeps allocate %d B, %d sweeps %d B: %d B more, want < 64 KiB",
			longIters, long, shortIters, short, long-short)
	}
}

// BenchmarkCostateStep times one RK4 step of the solve benchmark's FBSM
// co-state (848 groups, exact adjoint): "kernel" is the fused step the
// backward sweep runs (its AVX bodies where the host has AVX), "generic"
// the same kernel with its Go loops only, and "reference" ode.RK4 over
// referenceCostateRHS, which recomputes the t-only terms at every stage.
// Each step starts from the previous step's result at the previous step's
// end time, as in a sweep, so the kernels open with the coupling sum their
// last pass carried; when τ wraps, the co-state restarts from its initial
// value, as a sweep does, and the step sums its opening coupling (the
// hand-off never spans the wrap, so neither does the carry).
// BenchmarkBackwardSweep times a whole sweep.
func BenchmarkCostateStep(b *testing.B) {
	m := diggControlModel(b)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		b.Fatal(err)
	}
	sched := wavySchedule(b, 20, 120)
	tr, err := simulateOnGrid(context.Background(), m, ic, sched, nil, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchFBSMOptions().withDefaults()
	k, g := newCostateStep(m), newCostateStep(m)
	k.reset(tr, sched, opts)
	g.reset(tr, sched, opts)
	g.avx = false
	z0 := make([]float64, m.StateDim())
	for i := range z0 {
		z0[i] = 0.5 + 0.001*float64(i%17)
	}
	h := sched.T[1] - sched.T[0]
	for _, bc := range []struct {
		name string
		step ode.Step
	}{
		{"kernel", k.step},
		{"generic", g.step},
		{"reference", ode.NewRK4(m.StateDim()).Bind(referenceCostateRHS(m, tr, sched, opts))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			z, dst := floats.Clone(z0), make([]float64, len(z0))
			b.ReportAllocs()
			tau := 0.0
			for i := 0; i < b.N; i++ {
				bc.step(tau, z, h, dst)
				z, dst = dst, z
				if tau += h; tau > 19 {
					tau = 0
					copy(z, z0)
				}
			}
		})
	}
}

// FuzzCostateKernels runs each co-state pass that has an AVX body — the
// interpolation in fill and the exact adjoint's first, middle and last
// stage passes — with its Go loop alone and with its AVX body plus the Go
// tail, on the same inputs, and requires the same bits in every output and
// returned sum. Each run also requires the last stage's carried coupling to
// be the opening pass's sum over its output, bit for bit, and its
// finiteness report to be floats.AllFinite's. n runs from 1 to 64 groups,
// so every tail length and the bodies with no group of four are covered;
// guard words after each output catch a write past it.
func FuzzCostateKernels(f *testing.F) {
	for _, n := range []uint8{1, 2, 3, 4, 5, 7} {
		f.Add(n-1, uint64(n), []byte(nil))
	}
	for i, v := range floatstest.Specials {
		for _, at := range []int{1, 9, 128, 149} { // z's ψ_2 and φ_3, λ_3, Θ
			f.Add(uint8(6), uint64(i), floatstest.Patch(at, v))
		}
	}
	f.Fuzz(func(t *testing.T, n8 uint8, seed uint64, patch []byte) {
		if !floats.HasAVX() {
			t.Skip("no AVX on this host: the co-state passes run their Go loops only")
		}
		n := 1 + int(n8)%64
		v := floatstest.Vectors(seed, patch, 2*n, 2*n, 2*n, 2*n, 2*n, 2*n, 2*n, 2*n, 2*n, n, n, n, 10)
		z, kp, y, ns, ylo, yhi, k1, k2, k3 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8]
		lam, kphi, phi, sc := v[9], v[10], v[11], v[12]
		at := stageTerms{y: y, e1: sc[0], e2: sc[1], theta: sc[2], a1: sc[3], a2: sc[4]}
		coupling, c, cn, h, w := sc[5], sc[6], sc[7], sc[8], sc[9]
		next := stageTerms{y: ns}
		run := func(avx bool) []float64 {
			k := &costateStep{n: n, exact: true, avx: avx, lam: lam, kphi: kphi, k1: k1, k2: k2, k3: k3}
			buf, out := floatstest.Outputs(4, 2*n)
			s0 := interp(avx, out[0], ylo, yhi, phi, w)
			s1 := k.pass(z, nil, 0, &at, coupling, out[1], cn, &next)
			s2 := k.pass(z, kp, c, &at, coupling, out[2], cn, &next)
			s3, finite := k.last(z, h, &at, coupling, out[3])
			if j := floatstest.Overrun(buf, 2*n); j >= 0 {
				t.Fatalf("avx=%v, n=%d: output %d written past its end", avx, n, j)
			}
			if finite != floats.AllFinite(out[3]) {
				t.Fatalf("avx=%v, n=%d: the last stage reports finite=%v, AllFinite of its output %v",
					avx, n, finite, !finite)
			}
			if opener := openingCoupling(out[3], y, lam); !floatstest.Same(s3, opener) {
				t.Fatalf("avx=%v, n=%d: the last stage's carried coupling %x, the opening pass over its output %x",
					avx, n, s3, opener)
			}
			return append(buf, s0, s1, s2, s3)
		}
		want, got := run(false), run(true)
		for i := range want {
			if !floatstest.Same(got[i], want[i]) {
				t.Fatalf("n=%d: word %d of the outputs [interpolation | first stage | middle stage | last stage], each 2n values and %d guard words, then the four sums: AVX %x, Go %x",
					n, i, floatstest.Guard, got[i], want[i])
			}
		}
	})
}

// TestCostateStepNonFinite puts a NaN into the schedule's ε1 at one grid
// node mid-horizon and requires the co-state kernel (AVX bodies where the
// host has them, and Go loops alone) and ode.RK4 over referenceCostateRHS
// to stop with the same error at the same τ, with the same partial
// trajectory, for both adjoints: the kernel's finiteness report, folded
// into its last pass, stands in for floats.AllFinite.
func TestCostateStepNonFinite(t *testing.T) {
	m := diggControlModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	const tf, grid = 20.0, 120
	sched := wavySchedule(t, tf, grid)
	tr, err := simulateOnGrid(context.Background(), m, ic, sched, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.Eps1[grid/3] = math.NaN()
	n := m.N()
	h := sched.T[1] - sched.T[0]
	for _, adj := range []Adjoint{AdjointExact, AdjointDiagonal} {
		opts := benchFBSMOptions()
		opts.Adjoint = adj
		opts = opts.withDefaults()
		z0 := make([]float64, 2*n)
		for i := 0; i < n; i++ {
			z0[n+i] = opts.TerminalWeight
		}
		want, wantErr := ode.SolveFixed(ode.NewRK4(2*n).Bind(referenceCostateRHS(m, tr, sched, opts)), z0, 0, tf, h, nil)
		if wantErr == nil || !strings.Contains(wantErr.Error(), "non-finite at t=") {
			t.Fatalf("adjoint %d: RK4 error %v, want a non-finite state", adj, wantErr)
		}
		for _, avx := range []bool{floats.HasAVX(), false} {
			k := newCostateStep(m)
			k.reset(tr, sched, opts)
			k.avx = avx
			got, err := ode.SolveFixed(k.step, z0, 0, tf, h, nil)
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("adjoint %d, avx=%v: error %v, RK4 %v", adj, avx, err, wantErr)
			}
			if got.Len() != want.Len() {
				t.Fatalf("adjoint %d, avx=%v: %d samples before the error, RK4 %d", adj, avx, got.Len(), want.Len())
			}
		}
		t.Logf("adjoint %d: %v", adj, wantErr)
	}
}
