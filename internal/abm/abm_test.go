package abm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rumornet/internal/core"
	"rumornet/internal/degreedist"
	"rumornet/internal/graph"
)

// testGraph builds a 10k-node configuration-model graph with a power-law
// out-degree sequence on [1, 20].
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	seq, err := graph.PowerLawDegreeSequence(10000, 1.8, 1, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ConfigurationModel(seq, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testConfig(mode Mode) Config {
	return Config{
		Lambda: degreedist.LambdaLinear(0.02),
		Omega:  degreedist.OmegaSaturating(0.5, 0.5),
		Eps1:   0.005,
		Eps2:   0.05,
		I0:     0.05,
		Dt:     0.5,
		Steps:  100,
		Mode:   mode,
	}
}

func TestConfigValidation(t *testing.T) {
	g := testGraph(t)
	rng := rand.New(rand.NewSource(1))
	good := testConfig(ModeAnnealed)
	if _, err := Run(g, good, rng); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil lambda", func(c *Config) { c.Lambda = nil }},
		{"nil omega", func(c *Config) { c.Omega = nil }},
		{"negative eps1", func(c *Config) { c.Eps1 = -1 }},
		{"bad I0 low", func(c *Config) { c.I0 = 0 }},
		{"bad I0 high", func(c *Config) { c.I0 = 1 }},
		{"bad dt", func(c *Config) { c.Dt = 0 }},
		{"bad steps", func(c *Config) { c.Steps = 0 }},
		{"bad mode", func(c *Config) { c.Mode = 0 }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			c := good
			tt.mutate(&c)
			if _, err := Run(g, c, rng); err == nil {
				t.Error("want error")
			}
		})
	}
	if _, err := Run(nil, good, rng); err == nil {
		t.Error("nil graph: want error")
	}
	if _, err := Run(g, good, nil); err == nil {
		t.Error("nil rng: want error")
	}
	if _, err := Run(graph.New(0), good, rng); err == nil {
		t.Error("empty graph: want error")
	}
}

func TestFractionsSumToOne(t *testing.T) {
	g := testGraph(t)
	res, err := Run(g, testConfig(ModeQuenched), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.T {
		sum := res.S[j] + res.I[j] + res.R[j]
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("sample %d: S+I+R = %v", j, sum)
		}
	}
	if res.T[0] != 0 || res.I[0] < 0.04 || res.I[0] > 0.06 {
		t.Errorf("initial sample wrong: t=%v I=%v", res.T[0], res.I[0])
	}
}

func TestRecoveredMonotone(t *testing.T) {
	g := testGraph(t)
	res, err := Run(g, testConfig(ModeAnnealed), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(res.R); j++ {
		if res.R[j] < res.R[j-1]-1e-12 {
			t.Fatalf("R decreased at sample %d: %v → %v", j, res.R[j-1], res.R[j])
		}
	}
}

func TestStrongBlockingExtinguishes(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeQuenched)
	cfg.Eps2 = 2.0 // block aggressively
	res, err := Run(g, cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalI() > 0.001 {
		t.Errorf("final infected fraction %v despite aggressive blocking", res.FinalI())
	}
}

// TestAnnealedMatchesODE is the mean-field validation: the annealed
// agent-based process must track the ODE's population-weighted infected
// fraction.
func TestAnnealedMatchesODE(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeAnnealed)

	dist, err := degreedist.FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewModel(dist, core.Params{
		Alpha:  0, // the agent population is closed
		Eps1:   cfg.Eps1,
		Eps2:   cfg.Eps2,
		Lambda: cfg.Lambda,
		Omega:  cfg.Omega,
	})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := m.UniformIC(cfg.I0)
	if err != nil {
		t.Fatal(err)
	}
	tf := cfg.Dt * float64(cfg.Steps)
	tr, err := m.Simulate(ic, tf, &core.SimOptions{Step: 0.05})
	if err != nil {
		t.Fatal(err)
	}

	res, err := MeanRun(g, cfg, 5, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}

	// Zero-degree nodes participate in the ABM but are dropped from the
	// degree distribution; their fraction is tiny at these parameters.
	var worst float64
	for j, tj := range res.T {
		// Locate the matching ODE sample by interpolation.
		y := tr.At(tj)
		var odeAt float64
		for i := 0; i < m.N(); i++ {
			odeAt += m.Dist().Prob(i) * m.I(y, i)
		}
		if d := math.Abs(odeAt - res.I[j]); d > worst {
			worst = d
		}
	}
	if worst > 0.02 {
		t.Errorf("max |ODE − ABM| infected fraction = %v, want ≤ 0.02", worst)
	}
}

// TestQuenchedBelowAnnealed: on a sparse quenched network the epidemic
// cannot exceed its annealed (fully mixed) counterpart by much; typically
// local depletion of susceptibles slows it down.
func TestQuenchedCloseToAnnealed(t *testing.T) {
	g := testGraph(t)
	ann, err := MeanRun(g, testConfig(ModeAnnealed), 3, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	que, err := MeanRun(g, testConfig(ModeQuenched), 3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ann.PeakI()-que.PeakI()) > 0.15 {
		t.Errorf("annealed peak %v vs quenched peak %v: unexpectedly far apart",
			ann.PeakI(), que.PeakI())
	}
}

func TestMeanRunValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := MeanRun(g, testConfig(ModeAnnealed), 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero trials: want error")
	}
}

func TestResultAccessors(t *testing.T) {
	r := &Result{T: []float64{0, 1}, S: []float64{0.9, 0.5}, I: []float64{0.1, 0.4}, R: []float64{0, 0.1}}
	if r.FinalI() != 0.4 {
		t.Errorf("FinalI = %v", r.FinalI())
	}
	if r.PeakI() != 0.4 {
		t.Errorf("PeakI = %v", r.PeakI())
	}
}

// Property: across random seeds, compartment fractions remain in [0, 1] and
// conserve mass.
func TestQuickMassConservation(t *testing.T) {
	g := testGraph(t)
	f := func(seed int64, quenched bool) bool {
		mode := ModeAnnealed
		if quenched {
			mode = ModeQuenched
		}
		cfg := testConfig(mode)
		cfg.Steps = 20
		res, err := Run(g, cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		for j := range res.T {
			if res.S[j] < 0 || res.S[j] > 1 || res.I[j] < 0 || res.I[j] > 1 || res.R[j] < 0 || res.R[j] > 1 {
				return false
			}
			if math.Abs(res.S[j]+res.I[j]+res.R[j]-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRunQuenched(b *testing.B) {
	g := testGraph(b)
	cfg := testConfig(ModeQuenched)
	cfg.Steps = 50
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBlockedNodesStayRecovered(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeQuenched)
	blocked, err := g.TopKByOutDegree(500)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Blocked = blocked
	res, err := Run(g, cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	// Blocked users count as recovered from the start.
	if res.R[0] < float64(len(blocked))/float64(g.NumNodes())-1e-9 {
		t.Errorf("initial R = %v, want at least the blocked fraction %v",
			res.R[0], float64(len(blocked))/float64(g.NumNodes()))
	}
}

func TestBlockedHubsSuppressOutbreak(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeQuenched)
	cfg.Lambda = degreedist.LambdaLinear(0.15) // strongly supercritical
	cfg.Eps1 = 0.0005
	cfg.Eps2 = 0.02
	base, err := MeanRun(g, cfg, 3, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	hubs, err := g.TopKByOutDegree(g.NumNodes() / 50)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Blocked = hubs
	targeted, err := MeanRun(g, cfg, 3, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if targeted.PeakI() >= base.PeakI() {
		t.Errorf("hub blocking peak %v not below baseline %v", targeted.PeakI(), base.PeakI())
	}
}

func TestBlockedValidation(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeAnnealed)
	cfg.Blocked = []int{-1}
	if _, err := Run(g, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("out-of-range blocked node: want error")
	}
	// Block everyone: nothing to seed.
	small := graph.New(3)
	for u := 0; u < 3; u++ {
		if err := small.AddEdge(u, (u+1)%3); err != nil {
			t.Fatal(err)
		}
	}
	cfg = testConfig(ModeAnnealed)
	cfg.Blocked = []int{0, 1, 2}
	if _, err := Run(small, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("all blocked: want error")
	}
}

func TestExplicitSeeds(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeQuenched)
	cfg.Seeds = []int{0, 1, 2, 1} // duplicate is harmless
	res, err := Run(g, cfg, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0 / float64(g.NumNodes())
	if math.Abs(res.I[0]-want) > 1e-12 {
		t.Errorf("initial I = %v, want exactly %v (3 explicit seeds)", res.I[0], want)
	}
}

func TestExplicitSeedsValidation(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeQuenched)
	cfg.Seeds = []int{-5}
	if _, err := Run(g, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("out-of-range seed: want error")
	}
	// Every seed blocked → nothing to seed.
	cfg = testConfig(ModeQuenched)
	cfg.Seeds = []int{0}
	cfg.Blocked = []int{0}
	if _, err := Run(g, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("all seeds blocked: want error")
	}
}

// TestStopBoundAbovePStop checks the premise of the quenched step's exp
// skip: for every infection exponent x ≥ 0 and immunization probability
// pRec1, the computed pStop lies below stopBound(x, pRec1), so a draw at or
// above the bound leaves the node susceptible whatever exp returns. It
// runs edge values of both and a million random pairs, log-uniform and
// uniform.
func TestStopBoundAbovePStop(t *testing.T) {
	edges := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 1e-17, 1e-16, 1.1102230246251565e-16,
		1e-9, 1e-3, 0.1, 0.5, 1 - 1e-9, math.Nextafter(1, 0), 1, 2, 700, 1e300, math.Inf(1)}
	check := func(x, pRec1 float64) {
		if _, pStop := thresholds(x, pRec1); !(pStop < stopBound(x, pRec1)) {
			t.Fatalf("x=%g, pRec1=%g: pStop %v not below the bound %v", x, pRec1, pStop, stopBound(x, pRec1))
		}
	}
	for _, x := range edges {
		for _, p := range edges {
			if p <= 1 {
				check(x, p)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1_000_000; i++ {
		x, p := rng.Float64(), rng.Float64()
		if i%2 == 0 {
			x, p = math.Pow(10, -20*rng.Float64()), math.Pow(10, -20*rng.Float64())
		}
		check(x, p)
	}
}

// TestRatesOncePerDegree checks that a run evaluates λ and ω once per
// distinct out-degree of its graph, not once per node.
func TestRatesOncePerDegree(t *testing.T) {
	g := testGraph(t)
	degrees := map[float64]bool{}
	for u := 0; u < g.NumNodes(); u++ {
		degrees[float64(g.OutDegree(u))] = true
	}
	cfg := testConfig(ModeQuenched)
	cfg.Steps, cfg.Workers = 2, 1
	calls := map[string]map[float64]int{"λ": {}, "ω": {}}
	count := func(name string, f degreedist.KFunc) degreedist.KFunc {
		return func(k float64) float64 {
			calls[name][k]++
			return f(k)
		}
	}
	cfg.Lambda, cfg.Omega = count("λ", cfg.Lambda), count("ω", cfg.Omega)
	if _, err := Run(g, cfg, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	for name, byK := range calls {
		if len(byK) != len(degrees) {
			t.Errorf("%s evaluated at %d degrees, graph has %d", name, len(byK), len(degrees))
		}
		for k, c := range byK {
			if !degrees[k] || c != 1 {
				t.Errorf("%s(%g) evaluated %d times (degree present: %v), want once", name, k, c, degrees[k])
			}
		}
	}
}
