package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rumornet/internal/degreedist"
	"rumornet/internal/obs"
)

// testDist returns a small truncated power-law distribution for fast tests.
func testDist(t testing.TB) *degreedist.Dist {
	t.Helper()
	d, err := degreedist.TruncatedPowerLaw(1.5, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// extinctModel returns a calibrated model with r0 = 0.722 (paper Fig. 2).
func extinctModel(t testing.TB) *Model {
	t.Helper()
	m, err := CalibratedModel(testDist(t), 0.01, 0.2, 0.05, 0.722, degreedist.OmegaSaturating(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// epidemicModel returns a calibrated model with r0 = 2.1661 (paper Fig. 3).
func epidemicModel(t testing.TB) *Model {
	t.Helper()
	m, err := CalibratedModel(testDist(t), 0.01, 0.05, 0.01, 2.1661, degreedist.OmegaSaturating(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	d := testDist(t)
	good := Params{
		Alpha:  0.01,
		Eps1:   0.1,
		Eps2:   0.05,
		Lambda: degreedist.LambdaLinear(0.01),
		Omega:  degreedist.OmegaSaturating(0.5, 0.5),
	}
	if _, err := NewModel(d, good); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}

	cases := []struct {
		name   string
		dist   *degreedist.Dist
		mutate func(*Params)
	}{
		{"nil dist", nil, func(*Params) {}},
		{"negative alpha", d, func(p *Params) { p.Alpha = -1 }},
		{"zero eps1", d, func(p *Params) { p.Eps1 = 0 }},
		{"zero eps2", d, func(p *Params) { p.Eps2 = 0 }},
		{"nil lambda", d, func(p *Params) { p.Lambda = nil }},
		{"nil omega", d, func(p *Params) { p.Omega = nil }},
		{"negative lambda", d, func(p *Params) { p.Lambda = func(float64) float64 { return -0.1 } }},
		{"negative omega", d, func(p *Params) { p.Omega = func(float64) float64 { return -1 } }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			p := good
			tt.mutate(&p)
			if _, err := NewModel(tt.dist, p); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestThetaHandComputed(t *testing.T) {
	// Two groups: k = {2, 4}, P = {0.5, 0.5}, ω(k) = k.
	d, err := degreedist.Uniform([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(d, Params{
		Alpha:  0.01,
		Eps1:   0.1,
		Eps2:   0.1,
		Lambda: degreedist.LambdaLinear(0.1),
		Omega:  degreedist.OmegaLinear(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// ⟨k⟩ = 3, φ = {1, 2}. With I = {0.1, 0.2}:
	// Θ = (1·0.1 + 2·0.2)/3 = 0.5/3.
	y := []float64{0.9, 0.8, 0.1, 0.2}
	want := 0.5 / 3
	if got := m.Theta(y); math.Abs(got-want) > 1e-15 {
		t.Errorf("Theta = %v, want %v", got, want)
	}
}

func TestRHSHandComputed(t *testing.T) {
	d, err := degreedist.Uniform([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	const (
		alpha = 0.01
		e1    = 0.1
		e2    = 0.2
	)
	m, err := NewModel(d, Params{
		Alpha:  alpha,
		Eps1:   e1,
		Eps2:   e2,
		Lambda: degreedist.LambdaLinear(0.1), // λ = {0.2, 0.4}
		Omega:  degreedist.OmegaLinear(),
	})
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{0.9, 0.8, 0.1, 0.2}
	theta := m.Theta(y)
	dydt := make([]float64, 4)
	m.RHS(0, y, dydt)

	wantS0 := alpha - 0.2*0.9*theta - e1*0.9
	wantI1 := 0.4*0.8*theta - e2*0.2
	if math.Abs(dydt[0]-wantS0) > 1e-15 {
		t.Errorf("dS_0 = %v, want %v", dydt[0], wantS0)
	}
	if math.Abs(dydt[3]-wantI1) > 1e-15 {
		t.Errorf("dI_1 = %v, want %v", dydt[3], wantI1)
	}
}

func TestR0HandComputed(t *testing.T) {
	d, err := degreedist.Uniform([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(d, Params{
		Alpha:  0.02,
		Eps1:   0.1,
		Eps2:   0.05,
		Lambda: degreedist.LambdaLinear(0.1),
		Omega:  degreedist.OmegaLinear(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Σ λφ = 0.2·1 + 0.4·2 = 1.0; r0 = α·Σ/( ⟨k⟩ ε1 ε2 ) = 0.02/(3·0.005).
	want := 0.02 * 1.0 / (3 * 0.1 * 0.05)
	if got := m.R0(); math.Abs(got-want) > 1e-12 {
		t.Errorf("R0 = %v, want %v", got, want)
	}
	if got := m.R0At(0.2, 0.05); math.Abs(got-want/2) > 1e-12 {
		t.Errorf("R0At(2ε1) = %v, want %v", got, want/2)
	}
	if !math.IsInf(m.R0At(0, 0.1), 1) {
		t.Error("R0At(0, ·) should be +Inf")
	}
}

func TestCalibration(t *testing.T) {
	for _, target := range []float64{0.722, 1.0, 2.1661} {
		m, err := CalibratedModel(testDist(t), 0.01, 0.1, 0.05, target, degreedist.OmegaSaturating(0.5, 0.5))
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		if got := m.R0(); math.Abs(got-target) > 1e-9 {
			t.Errorf("calibrated R0 = %v, want %v", got, target)
		}
	}
	if _, err := CalibrateLambdaScale(testDist(t), -1, 1, 1, 1, degreedist.OmegaLinear()); err == nil {
		t.Error("negative alpha: want error")
	}
	if _, err := CalibrateLambdaScale(nil, 1, 1, 1, 1, degreedist.OmegaLinear()); err == nil {
		t.Error("nil dist: want error")
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictExtinct.String() != "extinct" || VerdictEpidemic.String() != "epidemic" {
		t.Error("verdict strings wrong")
	}
	if Verdict(99).String() == "" {
		t.Error("unknown verdict should still format")
	}
}

func TestZeroEquilibrium(t *testing.T) {
	m := extinctModel(t)
	e0 := m.ZeroEquilibrium()
	wantS := m.Params().Alpha / m.Params().Eps1 // 0.05
	for i := 0; i < m.N(); i++ {
		if got := m.S(e0.Y, i); math.Abs(got-wantS) > 1e-15 {
			t.Errorf("S0_%d = %v, want %v", i, got, wantS)
		}
		if got := m.I(e0.Y, i); got != 0 {
			t.Errorf("I0_%d = %v, want 0", i, got)
		}
		if got := m.R(e0.Y, i); math.Abs(got-(1-wantS)) > 1e-15 {
			t.Errorf("R0_%d = %v, want %v", i, got, 1-wantS)
		}
	}
	if !e0.Physical {
		t.Error("E0 with S = 0.05 should be physical")
	}
	if e0.Theta != 0 {
		t.Errorf("Θ at E0 = %v, want 0", e0.Theta)
	}
	// RHS vanishes at E0 in the (S, I) subsystem.
	dydt := make([]float64, m.StateDim())
	m.RHS(0, e0.Y, dydt)
	for i, v := range dydt {
		if math.Abs(v) > 1e-14 {
			t.Errorf("RHS[%d] at E0 = %v, want 0", i, v)
		}
	}
}

func TestPositiveEquilibriumExists(t *testing.T) {
	m := epidemicModel(t)
	ep, err := m.PositiveEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Theta <= 0 {
		t.Fatalf("Θ+ = %v, want > 0", ep.Theta)
	}
	if got := m.FTheta(ep.Theta); math.Abs(got) > 1e-9 {
		t.Errorf("F(Θ+) = %v, want 0", got)
	}
	// Self-consistency: Θ recomputed from the equilibrium state equals Θ+.
	if got := m.Theta(ep.Y); math.Abs(got-ep.Theta) > 1e-9 {
		t.Errorf("Theta(E+) = %v, want %v", got, ep.Theta)
	}
	// The RHS vanishes at E+.
	dydt := make([]float64, m.StateDim())
	m.RHS(0, ep.Y, dydt)
	for i, v := range dydt {
		if math.Abs(v) > 1e-12 {
			t.Errorf("RHS[%d] at E+ = %v, want 0", i, v)
		}
	}
	for i := 0; i < m.N(); i++ {
		if m.I(ep.Y, i) <= 0 || m.S(ep.Y, i) <= 0 {
			t.Errorf("group %d: E+ not strictly positive (S=%v, I=%v)",
				i, m.S(ep.Y, i), m.I(ep.Y, i))
		}
	}
}

func TestPositiveEquilibriumAbsentWhenSubcritical(t *testing.T) {
	m := extinctModel(t)
	if _, err := m.PositiveEquilibrium(); !errors.Is(err, ErrNoPositiveEquilibrium) {
		t.Errorf("error = %v, want ErrNoPositiveEquilibrium", err)
	}
}

func TestFThetaShape(t *testing.T) {
	m := epidemicModel(t)
	// F(0) = 1 − r0 < 0 and F is strictly increasing.
	if got := m.FTheta(0); math.Abs(got-(1-m.R0())) > 1e-12 {
		t.Errorf("F(0) = %v, want %v", got, 1-m.R0())
	}
	prev := m.FTheta(0)
	for _, theta := range []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10} {
		cur := m.FTheta(theta)
		if cur <= prev {
			t.Errorf("F not increasing at Θ=%v: %v <= %v", theta, cur, prev)
		}
		prev = cur
	}
}

func TestAnalyze(t *testing.T) {
	ext, err := extinctModel(t).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if ext.Verdict != VerdictExtinct || ext.Positive != nil || ext.Zero == nil {
		t.Errorf("extinct Analyze = %+v", ext)
	}
	epi, err := epidemicModel(t).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if epi.Verdict != VerdictEpidemic || epi.Positive == nil {
		t.Errorf("epidemic Analyze = %+v", epi)
	}
}

// TestTheorem3GlobalStabilityE0 is the numeric counterpart of Theorem 3:
// for r0 < 1 every trajectory converges to E0.
func TestTheorem3GlobalStabilityE0(t *testing.T) {
	m := extinctModel(t)
	e0 := m.ZeroEquilibrium()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		ic, err := m.RandomIC(0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		// The linear decay rate near E0 is ε2(1 − r0) ≈ 1/72, so allow a
		// horizon of several time constants.
		tr, err := m.Simulate(ic, 800, nil)
		if err != nil {
			t.Fatal(err)
		}
		dist := tr.DistTo(e0)
		final := dist[len(dist)-1]
		if final > 1e-3 {
			t.Errorf("trial %d: Dist0(tf) = %v, want → 0", trial, final)
		}
		if dist[0] < final {
			t.Errorf("trial %d: distance grew from %v to %v", trial, dist[0], final)
		}
	}
}

// TestTheorem4GlobalStabilityEPlus is the numeric counterpart of Theorem 4:
// for r0 > 1 every trajectory converges to E+.
func TestTheorem4GlobalStabilityEPlus(t *testing.T) {
	m := epidemicModel(t)
	ep, err := m.PositiveEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		ic, err := m.RandomIC(0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := m.Simulate(ic, 3000, nil)
		if err != nil {
			t.Fatal(err)
		}
		dist := tr.DistTo(ep)
		final := dist[len(dist)-1]
		if final > 1e-2 {
			t.Errorf("trial %d: Dist+(tf) = %v, want → 0", trial, final)
		}
	}
}

func TestLyapunovV0EventuallyDecreasing(t *testing.T) {
	m := extinctModel(t)
	ic, err := m.UniformIC(0.3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Simulate(ic, 400, nil)
	if err != nil {
		t.Fatal(err)
	}
	// V0 = Θ/ε2 must be non-negative everywhere and strictly decreasing on
	// the second half of the trajectory (after S has fallen below α/ε1).
	var vs []float64
	for _, y := range tr.Y {
		v := m.LyapunovV0(y)
		if v < 0 {
			t.Fatalf("V0 = %v < 0", v)
		}
		vs = append(vs, v)
	}
	for j := len(vs) / 2; j+1 < len(vs); j++ {
		if vs[j+1] > vs[j]+1e-15 {
			t.Fatalf("V0 increased at sample %d: %v → %v", j, vs[j], vs[j+1])
		}
	}
}

func TestLyapunovVPlusProperties(t *testing.T) {
	m := epidemicModel(t)
	ep, err := m.PositiveEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	// V+ vanishes at the equilibrium itself.
	v0, err := m.LyapunovVPlus(ep.Y, ep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v0) > 1e-12 {
		t.Errorf("V+(E+) = %v, want 0", v0)
	}
	// V+ is positive away from the equilibrium and decreases along the flow.
	ic, err := m.UniformIC(0.2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Simulate(ic, 2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = math.Inf(1)
	for j, y := range tr.Y {
		v, err := m.LyapunovVPlus(y, ep)
		if err != nil {
			t.Fatalf("sample %d: %v", j, err)
		}
		if v < -1e-12 {
			t.Fatalf("V+ = %v < 0 at sample %d", v, j)
		}
		if j > len(tr.Y)/10 && v > prev+1e-9 {
			t.Fatalf("V+ increased at sample %d: %v → %v", j, prev, v)
		}
		prev = v
	}
	// Error paths.
	if _, err := m.LyapunovVPlus(ep.Y, nil); err == nil {
		t.Error("nil equilibrium: want error")
	}
	zero := make([]float64, m.StateDim())
	if _, err := m.LyapunovVPlus(zero, ep); err == nil {
		t.Error("Θ = 0 state: want error")
	}
}

func TestICBuilders(t *testing.T) {
	m := extinctModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.N(); i++ {
		if m.S(ic, i) != 0.9 || m.I(ic, i) != 0.1 || math.Abs(m.R(ic, i)) > 1e-15 {
			t.Fatalf("UniformIC group %d = (%v, %v, %v)", i, m.S(ic, i), m.I(ic, i), m.R(ic, i))
		}
	}
	if _, err := m.UniformIC(0); err == nil {
		t.Error("i0=0: want error")
	}
	if _, err := m.UniformIC(1); err == nil {
		t.Error("i0=1: want error")
	}

	rng := rand.New(rand.NewSource(1))
	ric, err := m.RandomIC(0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.N(); i++ {
		inf := m.I(ric, i)
		if inf <= 0 || inf > 0.2 {
			t.Fatalf("RandomIC I_%d = %v outside (0, 0.2]", i, inf)
		}
		if math.Abs(m.S(ric, i)+inf-1) > 1e-15 {
			t.Fatalf("RandomIC group %d: S+I != 1", i)
		}
	}
	if _, err := m.RandomIC(0.5, nil); err == nil {
		t.Error("nil rng: want error")
	}
	if _, err := m.RandomIC(2, rng); err == nil {
		t.Error("maxI0=2: want error")
	}
}

func TestSimulateValidation(t *testing.T) {
	m := extinctModel(t)
	if _, err := m.Simulate([]float64{1}, 10, nil); err == nil {
		t.Error("wrong dimension: want error")
	}
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Simulate(ic, -1, nil); err == nil {
		t.Error("negative horizon: want error")
	}
}

func TestTrajectoryAccessors(t *testing.T) {
	m := extinctModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Simulate(ic, 10, &SimOptions{Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Len()
	s0 := tr.SSeries(0)
	i0 := tr.ISeries(0)
	r0 := tr.RSeries(0)
	if len(s0) != n || len(i0) != n || len(r0) != n {
		t.Fatal("series length mismatch")
	}
	for j := 0; j < n; j++ {
		if math.Abs(s0[j]+i0[j]+r0[j]-1) > 1e-12 {
			t.Fatalf("S+I+R != 1 at sample %d", j)
		}
	}
	ti := tr.TotalISeries()
	mi := tr.MeanISeries()
	th := tr.ThetaSeries()
	if len(ti) != n || len(mi) != n || len(th) != n {
		t.Fatal("aggregate series length mismatch")
	}
	if ti[0] <= mi[0] {
		t.Errorf("TotalI %v should exceed population-weighted MeanI %v", ti[0], mi[0])
	}
	if th[0] <= 0 {
		t.Errorf("Θ(0) = %v, want > 0", th[0])
	}
}

func TestSimulateWithProjection(t *testing.T) {
	m := epidemicModel(t)
	ic, err := m.UniformIC(0.3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Simulate(ic, 100, &SimOptions{Project: true})
	if err != nil {
		t.Fatal(err)
	}
	for j, y := range tr.Y {
		for i := 0; i < m.N(); i++ {
			s, inf := m.S(y, i), m.I(y, i)
			if s < 0 || inf < 0 || s+inf > 1+1e-12 {
				t.Fatalf("sample %d group %d outside Ω: S=%v I=%v", j, i, s, inf)
			}
		}
	}
}

// Property: the threshold separates growth from decay — for random
// calibrated models, the early-time aggregate infection derivative at the
// zero equilibrium's neighborhood has the sign of r0 − 1.
func TestQuickThresholdSeparatesRegimes(t *testing.T) {
	d := testDist(t)
	f := func(seedRaw uint16, super bool) bool {
		target := 0.2 + float64(seedRaw)/65535*0.7 // r0 in [0.2, 0.9]
		if super {
			target = 1.2 + float64(seedRaw)/65535*2 // r0 in [1.2, 3.2]
		}
		m, err := CalibratedModel(d, 0.01, 0.1, 0.05, target, degreedist.OmegaSaturating(0.5, 0.5))
		if err != nil {
			return false
		}
		ic, err := m.UniformIC(1e-3)
		if err != nil {
			return false
		}
		tr, err := m.Simulate(ic, 600, nil)
		if err != nil {
			return false
		}
		final := tr.MeanISeries()[tr.Len()-1]
		if super {
			return final > 1e-3 // persists
		}
		return final < 1e-3 // dies out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: S_i stays positive along any simulated trajectory (α inflow
// prevents extinction of the susceptible pool).
func TestQuickSusceptiblesStayPositive(t *testing.T) {
	d := testDist(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := CalibratedModel(d, 0.01, 0.1, 0.05, 0.5+rng.Float64()*2, degreedist.OmegaSaturating(0.5, 0.5))
		if err != nil {
			return false
		}
		ic, err := m.RandomIC(0.9, rng)
		if err != nil {
			return false
		}
		tr, err := m.Simulate(ic, 200, nil)
		if err != nil {
			return false
		}
		for _, y := range tr.Y {
			for i := 0; i < m.N(); i++ {
				if m.S(y, i) <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRHSDiggScale times the fused-Θ RHS sweep on the 848-group
// Digg-scale state; allocs/op must stay 0 (TestRHSZeroAlloc asserts it).
func BenchmarkRHSDiggScale(b *testing.B) {
	m := diggScaleModel(b)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		b.Fatal(err)
	}
	dydt := make([]float64, m.StateDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RHS(0, ic, dydt)
	}
}

func BenchmarkSimulateFig2Scale(b *testing.B) {
	d, err := degreedist.TruncatedPowerLaw(1.5, 1, 995)
	if err != nil {
		b.Fatal(err)
	}
	m, err := CalibratedModel(d, 0.01, 0.2, 0.05, 0.722, degreedist.OmegaSaturating(0.5, 0.5))
	if err != nil {
		b.Fatal(err)
	}
	ic, err := m.UniformIC(0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Simulate(ic, 150, &SimOptions{Step: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEffectiveR0(t *testing.T) {
	m := extinctModel(t)
	// At the zero equilibrium S = α/ε1, Γ/ε2 equals the nominal r0.
	e0 := m.ZeroEquilibrium()
	if got := m.EffectiveR0(e0.Y, m.Params().Eps2); math.Abs(got-m.R0()) > 1e-12 {
		t.Errorf("EffectiveR0(E0) = %v, want nominal r0 %v", got, m.R0())
	}
	// With a fuller susceptible pool (S = 1) it exceeds the nominal r0.
	full := make([]float64, m.StateDim())
	for i := 0; i < m.N(); i++ {
		full[i] = 1
	}
	if got := m.EffectiveR0(full, m.Params().Eps2); got <= m.R0() {
		t.Errorf("EffectiveR0(S=1) = %v, want > %v", got, m.R0())
	}
	if !math.IsInf(m.EffectiveR0(full, 0), 1) {
		t.Error("EffectiveR0 with eps2=0 should be +Inf")
	}
}

// The progress checkpoints must carry healthy invariant fields on a clean
// run: MinI stays non-negative and MassErr below roundoff, so
// internal/obs/invariant's monitors stay silent on good trajectories.
func TestSimulateProgressInvariantFields(t *testing.T) {
	m := epidemicModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	_, err = m.Simulate(ic, 50, &SimOptions{
		Progress:      func(ev obs.Event) { events = append(events, ev) },
		ProgressEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	for _, ev := range events {
		if ev.Stage != obs.StageODE {
			t.Fatalf("stage %q, want %q", ev.Stage, obs.StageODE)
		}
		if ev.Value < 0 || ev.Value > 1 {
			t.Errorf("Θ = %v outside [0, 1] at t=%v", ev.Value, ev.T)
		}
		if ev.MinI < 0 {
			t.Errorf("MinI = %v negative at t=%v on a healthy run", ev.MinI, ev.T)
		}
		if ev.MassErr > 1e-9 {
			t.Errorf("MassErr = %v above roundoff at t=%v", ev.MassErr, ev.T)
		}
	}
}

// diggScaleModel builds the 848-group Digg-scale model the RHS hot-loop
// benchmarks and equivalence tests share.
func diggScaleModel(tb testing.TB) *Model {
	tb.Helper()
	d, err := degreedist.TruncatedPowerLaw(1.5, 1, 995)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := CalibratedModel(d, 0.01, 0.2, 0.05, 0.722, degreedist.OmegaSaturating(0.5, 0.5))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// referenceRHS is the pre-fusion formulation of System (1)'s right-hand
// side — Theta() first, then the derivative loop — kept verbatim as the
// golden reference for the fused sweep in Model.rhs.
func referenceRHS(m *Model, y, dydt []float64, e1, e2 float64) {
	n := m.N()
	theta := m.Theta(y)
	alpha := m.Params().Alpha
	for i := 0; i < n; i++ {
		s, inf := y[i], y[n+i]
		force := m.Lambda(i) * s * theta
		dydt[i] = alpha - force - e1*s
		dydt[n+i] = force - e2*inf
	}
}

// TestRHSMatchesReference pins the fused-Θ RHS to the pre-refactor
// Theta-then-loop path bit for bit: same states, same controls, byte-equal
// derivatives. Any reordering of the Θ accumulation or the force
// arithmetic shows up here as an exact-inequality failure.
func TestRHSMatchesReference(t *testing.T) {
	m := diggScaleModel(t)
	dim := m.StateDim()
	rng := rand.New(rand.NewSource(17))
	y := make([]float64, dim)
	got := make([]float64, dim)
	want := make([]float64, dim)
	for trial := 0; trial < 25; trial++ {
		for i := 0; i < m.N(); i++ {
			y[m.N()+i] = rng.Float64()
			y[i] = (1 - y[m.N()+i]) * rng.Float64()
		}
		e1 := m.Params().Eps1 * (0.5 + rng.Float64())
		e2 := m.Params().Eps2 * (0.5 + rng.Float64())
		m.rhs(y, got, e1, e2)
		referenceRHS(m, y, want, e1, e2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: dydt[%d] = %x, reference %x (not bit-identical)",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestRHSZeroAlloc tracks the 0-alloc claim on the Digg-scale RHS: the
// fused sweep must not allocate, or every RK4 stage of every step pays it.
func TestRHSZeroAlloc(t *testing.T) {
	m := diggScaleModel(t)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	dydt := make([]float64, m.StateDim())
	if allocs := testing.AllocsPerRun(100, func() {
		m.RHS(0, ic, dydt)
	}); allocs != 0 {
		t.Errorf("RHS allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m.Theta(ic)
	}); allocs != 0 {
		t.Errorf("Theta allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkTheta tracks the coupling accessor on its own: it is the half
// of the pre-fusion RHS that the fused sweep absorbed, and it still runs
// standalone in trajectory post-processing (ThetaSeries, progress hooks).
func BenchmarkTheta(b *testing.B) {
	m := diggScaleModel(b)
	ic, err := m.UniformIC(0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.Theta(ic)
	}
	_ = sink
}
