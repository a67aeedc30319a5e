package rumornet

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func facadeModel(t testing.TB) *Model {
	t.Helper()
	dist, err := PowerLawDegreeDist(1.5, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewCalibratedModel(dist, 0.01, 0.1, 0.05, 0.722, OmegaSaturating(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFacadeModelLifecycle(t *testing.T) {
	m := facadeModel(t)
	if got := m.R0(); math.Abs(got-0.722) > 1e-9 {
		t.Errorf("R0 = %v, want 0.722", got)
	}
	if m.Classify() != VerdictExtinct {
		t.Errorf("verdict = %v, want extinct", m.Classify())
	}
	eq, err := m.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if eq.Positive != nil {
		t.Error("subcritical model has a positive equilibrium")
	}
	ic, err := m.UniformIC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Simulate(ic, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 100 {
		t.Errorf("trajectory too short: %d samples", tr.Len())
	}
}

func TestFacadeGraphToModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := "0 1\n1 2\n2 0\n0 2\n"
	g, _, err := LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModelFromGraph(g, Params{
		Alpha:  0.01,
		Eps1:   0.1,
		Eps2:   0.1,
		Lambda: LambdaLinear(0.05),
		Omega:  OmegaConstant(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.N() < 1 {
		t.Error("no degree groups")
	}
	_ = rng
}

func TestFacadeSyntheticDiggDist(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, err := SyntheticDiggDist(rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxDegree() != 995 || d.MinDegree() != 1 {
		t.Errorf("support [%d, %d], want [1, 995]", d.MinDegree(), d.MaxDegree())
	}
}

func TestFacadeControlRoundTrip(t *testing.T) {
	dist, err := PowerLawDegreeDist(1.5, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewCalibratedModel(dist, 0.01, 0.05, 0.05, 2.5, OmegaSaturating(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ic, err := m.UniformIC(0.05)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := OptimizeCountermeasures(m, ic, 20, ControlOptions{
		Grid:    100,
		Eps1Max: 0.5,
		Eps2Max: 0.5,
		Cost:    ControlCost{C1: 5, C2: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	bd, _, err := EvaluatePolicyCost(m, ic, pol.Schedule, ControlCost{C1: 5, C2: 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bd.Total-pol.Cost.Total) > 1e-9 {
		t.Errorf("re-evaluated J = %v vs policy J = %v", bd.Total, pol.Cost.Total)
	}
}

func TestFacadeHomogenize(t *testing.T) {
	h, err := Homogenize(facadeModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 1 {
		t.Errorf("homogenized N = %d, want 1", h.N())
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 12 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	res, err := RunExperiment("tabD", ExperimentConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "tabD" {
		t.Errorf("result ID = %q", res.ID)
	}
}

func TestFacadeDiggLoader(t *testing.T) {
	in := "0,123,10,20\n1,124,20,30\n"
	g, ids, err := LoadDiggFriends(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || len(ids) != 3 {
		t.Errorf("nodes = %d ids = %d", g.NumNodes(), len(ids))
	}
}

func TestFacadeSpatial(t *testing.T) {
	m, err := NewSpatialModel(SpatialConfig{
		Patches: 51, Length: 51, Lambda: 1, Eps2: 0.2, DI: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := m.SeedCenter(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Simulate(ic, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Len() < 10 {
		t.Errorf("spatial solution too short: %d samples", sol.Len())
	}
	if m.FisherSpeed(1) <= 0 {
		t.Error("supercritical medium reports zero Fisher speed")
	}
}

func TestFacadeVotes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := NewBarabasiAlbert(500, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	votes, err := SampleVotes(g, 4, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	idx := IndexVotes(votes)
	if len(idx.Stories()) != 4 {
		t.Errorf("stories = %d, want 4", len(idx.Stories()))
	}
	in := "100,1,2\n200,3,2\n"
	loaded, err := LoadDiggVotes(strings.NewReader(in))
	if err != nil || len(loaded) != 2 {
		t.Errorf("LoadDiggVotes: %v, %v", loaded, err)
	}
}

func TestFacadeDaleyKendall(t *testing.T) {
	res, err := RunDaleyKendall(DKConfig{
		N: 200, Spreaders0: 2, Beta: 1, GammaStifle: 1, Variant: DaleyKendall,
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Extinct {
		t.Error("DK run did not go extinct")
	}
	if _, err := RunDaleyKendall(DKConfig{
		N: 200, Spreaders0: 2, Beta: 1, GammaStifle: 1, Variant: MakiThompson,
	}, rand.New(rand.NewSource(3))); err != nil {
		t.Errorf("MT variant: %v", err)
	}
}

func TestFacadeTargeting(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := NewBarabasiAlbert(300, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	hubs, err := g.TopKByOutDegree(10)
	if err != nil || len(hubs) != 10 {
		t.Fatalf("TopKByOutDegree: %v, %v", hubs, err)
	}
	if _, err := RunABM(g, ABMConfig{
		Lambda: LambdaLinear(0.05), Omega: OmegaConstant(1),
		Eps1: 0.01, Eps2: 0.05, I0: 0.05, Dt: 0.5, Steps: 20,
		Mode: ABMQuenched, Blocked: hubs,
	}, rng); err != nil {
		t.Errorf("targeted ABM: %v", err)
	}
	if _, err := RunABM(nil, ABMConfig{
		Lambda: LambdaLinear(0.05), Omega: OmegaConstant(1),
		Eps1: 0.01, Eps2: 0.05, I0: 0.05, Dt: 0.5, Steps: 20, Mode: ABMQuenched,
	}, rng); err == nil {
		t.Error("ABM on a nil graph: want error")
	}
}

func TestFacadeGraphConstructors(t *testing.T) {
	g := NewGraph(4)
	if g.NumNodes() != 4 {
		t.Errorf("NewGraph nodes = %d", g.NumNodes())
	}
	rng := rand.New(rand.NewSource(8))
	cg, err := NewConfigurationGraph([]int{2, 1, 0, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DegreeDistFromGraph(cg)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() < 2 {
		t.Errorf("degree groups = %d", d.N())
	}
}

func TestFacadeControlBaselines(t *testing.T) {
	dist, err := PowerLawDegreeDist(1.5, 1, 15)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewCalibratedModel(dist, 0.01, 0.05, 0.05, 2.5, OmegaSaturating(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ic, err := m.UniformIC(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cost := ControlCost{C1: 5, C2: 10}
	heur, err := HeuristicCountermeasures(m, ic, 15, 3, 80, 0.5, 0.5, cost)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Cost.Running <= 0 {
		t.Error("heuristic with positive gain has zero running cost")
	}
	cal, err := CalibrateHeuristic(m, ic, 15, 5e-3, 80, 0.8, 0.8, cost)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimizeToTarget(m, ic, 15, 5e-3, ControlOptions{
		Grid: 80, MaxIter: 200, Eps1Max: 0.8, Eps2Max: 0.8, Cost: cost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost.Running >= cal.Cost.Running {
		t.Errorf("optimized running cost %v not below heuristic %v",
			opt.Cost.Running, cal.Cost.Running)
	}
	hs, err := HamiltonianSeries(m, ic, opt, ControlOptions{
		Grid: 80, Eps1Max: 0.8, Eps2Max: 0.8, Cost: cost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) == 0 {
		t.Error("empty Hamiltonian series")
	}
}

func TestFacadeSyntheticDiggGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("71k-node generation in -short mode")
	}
	rng := rand.New(rand.NewSource(4))
	g, err := SyntheticDigg(rng)
	if err != nil {
		t.Fatal(err)
	}
	s := SummarizeDigg(g)
	if ok, why := s.MatchesPaper(); !ok {
		t.Errorf("synthetic Digg mismatch: %s", why)
	}
}
