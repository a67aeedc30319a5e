package abm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rumornet/internal/graph"
	"rumornet/internal/splitmix"
)

// TestRunWorkerInvariance is the determinism regression for the sharded
// sweep: the sampled trajectory must be bit-identical for every worker
// count, in both contact modes, with and without blocking.
func TestRunWorkerInvariance(t *testing.T) {
	g := testGraph(t)
	for _, mode := range []Mode{ModeAnnealed, ModeQuenched} {
		cfg := testConfig(mode)
		cfg.Steps = 40
		blocked, err := g.TopKByOutDegree(200)
		if err != nil {
			t.Fatal(err)
		}
		for _, withBlocked := range []bool{false, true} {
			cfg.Blocked = nil
			if withBlocked {
				cfg.Blocked = blocked
			}
			var want *Result
			for _, workers := range []int{1, 3, 8} {
				cfg.Workers = workers
				got, err := Run(g, cfg, rand.New(rand.NewSource(42)))
				if err != nil {
					t.Fatalf("mode=%d workers=%d: %v", mode, workers, err)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("mode=%d blocked=%v: workers=%d trajectory diverges from workers=1",
						mode, withBlocked, workers)
				}
			}
		}
	}
}

// TestMeanRunWorkerInvariance: concurrent trials must average to the exact
// serial result.
func TestMeanRunWorkerInvariance(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeQuenched)
	cfg.Steps = 30
	cfg.Workers = 1
	want, err := MeanRun(g, cfg, 4, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	got, err := MeanRun(g, cfg, 4, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("MeanRun workers=8 diverges from workers=1")
	}
}

// TestPairedRuns: runs that differ only in their Blocked set share every
// per-node draw, so a node untouched by the epidemic in both runs follows
// the same fate — the property the targeting ablation's paired comparison
// relies on.
func TestPairedRuns(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeQuenched)
	cfg.Steps = 20
	base, err := Run(g, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Blocked = []int{0} // one node: trajectories must stay almost identical
	one, err := Run(g, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for j := range base.I {
		if d := base.I[j] - one.I[j]; d > worst {
			worst = d
		} else if -d > worst {
			worst = -d
		}
	}
	// Unpaired streams would decorrelate the runs entirely; paired draws
	// bound the gap by the single blocked node's sphere of influence.
	if worst > 0.02 {
		t.Errorf("blocking one node moved I(t) by %v: draws not paired", worst)
	}
}

func TestMeanRunTrialMismatch(t *testing.T) {
	if !errors.Is(ErrTrialMismatch, ErrTrialMismatch) {
		t.Fatal("sentinel must match itself")
	}
	// The guard cannot trigger through the public API (all trials share
	// cfg.Steps), so exercise the error path directly.
	runs := []*Result{
		{T: []float64{0, 1}, S: []float64{1, 1}, I: []float64{0, 0}, R: []float64{0, 0}, Theta: []float64{0, 0}},
		{T: []float64{0}, S: []float64{1}, I: []float64{0}, R: []float64{0}, Theta: []float64{0}},
	}
	if err := checkTrialAlignment(runs); !errors.Is(err, ErrTrialMismatch) {
		t.Errorf("misaligned trials: err = %v, want ErrTrialMismatch", err)
	}
}

// referenceTransitionRand is the per-node transition draw before its step
// term was hoisted into stepKey, kept verbatim for referenceRun.
func referenceTransitionRand(base uint64, step, node int) float64 {
	x := base ^ splitmix.Mix(uint64(step)*0xA24BAED4963EE407)
	x = splitmix.Mix(x + uint64(node)*0x9FB21C651E98DF25)
	return float64(x>>11) * 0x1p-53
}

func TestTransitionRandRange(t *testing.T) {
	var sum float64
	const draws = 200000
	for i := 0; i < draws; i++ {
		u := transitionRand(stepKey(12345, i%97), i)
		if u < 0 || u >= 1 {
			t.Fatalf("draw %d out of [0,1): %v", i, u)
		}
		sum += u
	}
	if mean := sum / draws; mean < 0.49 || mean > 0.51 {
		t.Errorf("mean of %d draws = %v, want ≈ 0.5", draws, mean)
	}
}

func benchmarkRun(b *testing.B, workers, steps int) {
	g := testGraph(b)
	cfg := testConfig(ModeQuenched)
	cfg.Steps = steps
	cfg.Workers = workers
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkABMQuenchedStep times the quenched transition sweep (the Digg
// cross-validation hot path) serial vs parallel.
func BenchmarkABMQuenchedStep(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchmarkRun(b, 1, 50) })
	b.Run("parallel", func(b *testing.B) { benchmarkRun(b, 0, 50) })
}

func benchmarkMeanRun(b *testing.B, workers int) {
	g := testGraph(b)
	cfg := testConfig(ModeQuenched)
	cfg.Steps = 30
	cfg.Workers = workers
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeanRun(g, cfg, 4, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeanRun times the Monte-Carlo trial fan-out serial vs parallel.
func BenchmarkMeanRun(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchmarkMeanRun(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchmarkMeanRun(b, 0) })
}

// referenceRun is the pre-refactor transition sweep, kept as the golden
// reference for the degree-bucketed path and the incremental quenched
// pressure: one serial pass in node order, per-node λ/ω lookups and exp()
// calls, the quenched fixed-point pressure recounted from scratch over
// InNeighbors at every step, deltas accumulated inline. Run must
// reproduce it byte for byte — neither the bucketed visit order nor the
// incremental pressure may change a single draw, branch outcome, or the
// Θ summation order.
func referenceRun(t testing.TB, g *graph.Graph, cfg Config, rng *rand.Rand) *Result {
	t.Helper()
	n := g.NumNodes()
	nf := float64(n)

	lambda := make([]float64, n)
	omegaNode := make([]float64, n)
	omegaOverDeg := make([]float64, n)
	var meanK, sumOmega float64
	for u := 0; u < n; u++ {
		k := float64(g.OutDegree(u))
		meanK += k
		lambda[u] = cfg.Lambda(k)
		om := cfg.Omega(k)
		if k > 0 {
			omegaOverDeg[u] = om / k
			sumOmega += om
		}
		omegaNode[u] = om
	}
	meanK /= nf
	// The fixed-point unit 2^−shift, written out here rather than taken
	// from abm.go: the largest shift with 2^shift·Σω < 2^61, capped at
	// 1022; a weight is ω/k rounded to the nearest unit, at least one unit
	// when positive.
	_, e := math.Frexp(sumOmega)
	shift := min(61-e, 1022)
	weight := make([]int64, n)
	for u, w := range omegaOverDeg {
		weight[u] = int64(math.Round(math.Ldexp(w, shift)))
		if weight[u] == 0 && w > 0 {
			weight[u] = 1
		}
	}
	pressUnit := math.Ldexp(cfg.Dt/meanK, -shift)

	state := make([]State, n)
	for u := range state {
		state[u] = Susceptible
	}
	for _, u := range cfg.Blocked {
		state[u] = Recovered
	}
	seeded := 0
	if len(cfg.Seeds) > 0 {
		for _, u := range cfg.Seeds {
			if state[u] == Recovered {
				continue
			}
			if state[u] != Infected {
				state[u] = Infected
				seeded++
			}
		}
	} else {
		seeds := int(math.Round(cfg.I0 * nf))
		if seeds < 1 {
			seeds = 1
		}
		for _, u := range rng.Perm(n) {
			if seeded == seeds {
				break
			}
			if state[u] == Recovered {
				continue
			}
			state[u] = Infected
			seeded++
		}
	}
	baseSeed := rng.Uint64()

	res := &Result{
		T:     make([]float64, 0, cfg.Steps+1),
		S:     make([]float64, 0, cfg.Steps+1),
		I:     make([]float64, 0, cfg.Steps+1),
		R:     make([]float64, 0, cfg.Steps+1),
		Theta: make([]float64, 0, cfg.Steps+1),
	}
	pRec1 := 1 - math.Exp(-cfg.Eps1*cfg.Dt)
	pRec2 := 1 - math.Exp(-cfg.Eps2*cfg.Dt)
	next := make([]State, n)

	var sCnt, iCnt, rCnt int
	var thetaSum float64
	for u, st := range state {
		switch st {
		case Susceptible:
			sCnt++
		case Infected:
			iCnt++
			thetaSum += omegaNode[u]
		case Recovered:
			rCnt++
		}
	}
	record := func(tt float64) {
		res.T = append(res.T, tt)
		res.S = append(res.S, float64(sCnt)/nf)
		res.I = append(res.I, float64(iCnt)/nf)
		res.R = append(res.R, float64(rCnt)/nf)
		res.Theta = append(res.Theta, thetaSum/(nf*meanK))
	}
	record(0)

	type delta struct {
		dS, dI, dR int
		dTheta     float64
	}
	numShards := (n + shardSize - 1) / shardSize
	deltas := make([]delta, numShards)

	for step := 1; step <= cfg.Steps; step++ {
		var theta float64
		if cfg.Mode == ModeAnnealed {
			theta = thetaSum / (nf * meanK)
		}
		for shard := 0; shard < numShards; shard++ {
			lo := shard * shardSize
			hi := min(lo+shardSize, n)
			var d delta
			for v := lo; v < hi; v++ {
				st := state[v]
				next[v] = st
				switch st {
				case Susceptible:
					var x float64 // force·Δt
					if cfg.Mode == ModeAnnealed {
						x = lambda[v] * theta * cfg.Dt
					} else {
						var local int64
						for _, u := range g.InNeighbors(v) {
							if state[u] == Infected {
								local += weight[u]
							}
						}
						x = lambda[v] * float64(local) * pressUnit
					}
					pInf := 1 - math.Exp(-x)
					switch u := referenceTransitionRand(baseSeed, step, v); {
					case u < pInf:
						next[v] = Infected
						d.dS--
						d.dI++
						d.dTheta += omegaNode[v]
					case u < pInf+(1-pInf)*pRec1:
						next[v] = Recovered
						d.dS--
						d.dR++
					}
				case Infected:
					if referenceTransitionRand(baseSeed, step, v) < pRec2 {
						next[v] = Recovered
						d.dI--
						d.dR++
						d.dTheta -= omegaNode[v]
					}
				}
			}
			deltas[shard] = d
		}
		for s := range deltas {
			sCnt += deltas[s].dS
			iCnt += deltas[s].dI
			rCnt += deltas[s].dR
			thetaSum += deltas[s].dTheta
			deltas[s] = delta{}
		}
		state, next = next, state
		record(float64(step) * cfg.Dt)
	}
	return res
}

// TestBucketedSweepMatchesReference is the golden equivalence regression
// for the degree-bucketed annealed sweep and the incremental quenched
// pressure: same graph, same seeds → byte-equal trajectories against the
// per-node path, which recounts each node's pressure over InNeighbors at
// every step, in both contact modes, with and without a blocked set, at
// every worker count.
func TestBucketedSweepMatchesReference(t *testing.T) {
	ba, err := graph.BarabasiAlbert(10000, 3, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"configuration-model", testGraph(t)}, {"barabasi-albert", ba}} {
		g := gc.g
		blocked, err := g.TopKByOutDegree(150)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeAnnealed, ModeQuenched} {
			cfg := testConfig(mode)
			cfg.Steps = 40
			for _, withBlocked := range []bool{false, true} {
				cfg.Blocked = nil
				if withBlocked {
					cfg.Blocked = blocked
				}
				want := referenceRun(t, g, cfg, rand.New(rand.NewSource(314)))
				for _, workers := range []int{1, 4} {
					cfg.Workers = workers
					got, err := Run(g, cfg, rand.New(rand.NewSource(314)))
					if err != nil {
						t.Fatalf("%s mode=%d workers=%d: %v", gc.name, mode, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s mode=%d blocked=%v workers=%d: trajectory diverges from the pre-refactor reference",
							gc.name, mode, withBlocked, workers)
					}
				}
			}
		}
	}
}

// TestIncrementalPressureMatchesRecount checks the quenched pressure after
// every step of a run: updated only from the step's flips, each node's
// integer pressure must equal the recount of its infected in-arcs' weights,
// exactly. It covers a configuration-model, a Barabási–Albert and an
// edge-list graph (with self-loops and parallel arcs), each with and
// without a blocked set, and requires recoveries to have happened, so a
// lost I→R update cannot hide.
func TestIncrementalPressureMatchesRecount(t *testing.T) {
	defer func() { afterStep = nil }()
	ba, err := graph.BarabasiAlbert(5000, 3, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	var list strings.Builder
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&list, "%d %d\n", rng.Intn(2000), rng.Intn(2000))
	}
	el, _, err := graph.ReadEdgeList(strings.NewReader(list.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"configuration-model", testGraph(t)}, {"barabasi-albert", ba}, {"edge-list", el}} {
		g := gc.g
		blocked, err := g.TopKByOutDegree(100)
		if err != nil {
			t.Fatal(err)
		}
		for _, withBlocked := range []bool{false, true} {
			cfg := testConfig(ModeQuenched)
			cfg.Steps, cfg.Workers = 40, 4
			if withBlocked {
				cfg.Blocked = blocked
			}
			steps, recoveries := 0, 0
			var prev []State
			afterStep = func(state []State, press, weight []int64) {
				steps++
				for v := range state {
					if prev != nil && prev[v] == Infected && state[v] == Recovered {
						recoveries++
					}
					var want int64
					for _, u := range g.InNeighbors(v) {
						if state[u] == Infected {
							want += weight[u]
						}
					}
					if press[v] != want {
						t.Fatalf("%s blocked=%v step %d node %d: pressure %d, recount %d",
							gc.name, withBlocked, steps, v, press[v], want)
					}
				}
				prev = append(prev[:0], state...)
			}
			if _, err := Run(g, cfg, rand.New(rand.NewSource(5))); err != nil {
				t.Fatal(err)
			}
			if steps != cfg.Steps {
				t.Fatalf("%s: the hook saw %d steps, want %d", gc.name, steps, cfg.Steps)
			}
			if recoveries == 0 {
				t.Fatalf("%s blocked=%v: no I→R flip after step 1, so no subtraction was checked", gc.name, withBlocked)
			}
			t.Logf("%s blocked=%v: %d I→R flips checked", gc.name, withBlocked, recoveries)
		}
	}
}

// TestPressureScale checks the fixed-point unit: a sum of every arc's
// weight stays below 2⁶² at extreme Σω, and a positive weight never rounds
// to zero.
func TestPressureScale(t *testing.T) {
	for _, sum := range []float64{1e-300, 1e-9, 0.5, 1, 3, 1e4, 7.5e5, 1e15, 1e300} {
		shift := pressureScale(sum)
		// Every node's k arcs carry at most ω·2^shift + k units.
		if total := math.Ldexp(sum, shift); total >= 1<<61 {
			t.Errorf("Σω = %g: 2^shift·Σω = %g, want < 2^61", sum, total)
		}
		if w := pressureWeight(sum*1e-20, shift); w < 1 {
			t.Errorf("Σω = %g: a tiny positive weight rounds to %d units", sum, w)
		}
	}
	if w := pressureWeight(0, pressureScale(1)); w != 0 {
		t.Errorf("zero weight = %d units", w)
	}
}

// TestOnDemandMatchesMaterialized runs MeanRunCtx on a configuration model
// drawn on demand and on the one ConfigurationModel builds from the same
// rng state: the results must be equal, at 1, 2 and 8 workers, for 1 and
// 3 trials. Under -race the trials share the on-demand graph.
func TestOnDemandMatchesMaterialized(t *testing.T) {
	seq, err := graph.PowerLawDegreeSequence(6000, 1.8, 1, 40, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	for _, trials := range []int{1, 3} {
		for _, workers := range []int{1, 2, 8} {
			cfg := testConfig(ModeQuenched)
			cfg.Steps, cfg.Workers = 30, workers
			rng := rand.New(rand.NewSource(22))
			g, err := graph.ConfigurationModel(seq, rng)
			if err != nil {
				t.Fatal(err)
			}
			want, err := MeanRunCtx(context.Background(), g, cfg, trials, rng)
			if err != nil {
				t.Fatal(err)
			}
			rng = rand.New(rand.NewSource(22))
			od, err := graph.ConfigurationModelOnDemand(seq, rng)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MeanRunCtx(context.Background(), od, cfg, trials, rng)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("trials=%d workers=%d: the on-demand run differs from the materialized one", trials, workers)
			}
		}
	}
}
