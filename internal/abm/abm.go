// Package abm cross-validates the mean-field ODE model with an agent-based
// Monte-Carlo SIR simulation on an explicit social graph.
//
// Two contact modes are provided:
//
//   - ModeAnnealed reproduces the mean-field assumption exactly: every
//     susceptible agent feels the global infectivity Θ(t); the ODE system
//     is the N → ∞ limit of this process, so trajectories must agree.
//   - ModeQuenched uses the actual graph edges: agent v is pressured only
//     by its infected in-neighbors, with per-edge weight ω(k_u)/outdeg(u)
//     chosen so that the expected force over a configuration-model graph
//     equals the mean-field force λ(k_v)·Θ (see DESIGN.md). Differences
//     from the ODE quantify the quenched-network correction the paper's
//     model ignores. The pressure is an integer fixed-point sum, pushed
//     along out-lists once from the initially infected nodes and then
//     only from the nodes that flip S→I (+) or I→R (−), so the run never
//     reads an in-list and walks each node's arcs at most twice.
//
// A run reads its graph through Network, which a stored *graph.Graph and
// a *graph.OnDemand configuration model, whose arcs are redrawn on each
// read, both satisfy. The per-step transition sweep is sharded across
// worker goroutines (Config.Workers); each shard records its flips, and
// the pressure updates they imply are applied serially after the barrier.
// Every Monte-Carlo transition draw comes from a
// counter-based generator keyed by (run seed, step, node) rather than a
// shared sequential stream, so a run's output is bit-identical for every
// worker count — and runs that differ only in their Blocked set stay
// perfectly paired, node by node. See DESIGN.md, "Concurrency &
// determinism".
package abm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"rumornet/internal/degreedist"
	"rumornet/internal/obs"
	"rumornet/internal/par"
	"rumornet/internal/splitmix"
)

// Network is the graph a run walks: its node count, out-degrees and
// out-lists. Implementations must allow concurrent reads, since MeanRun's
// trials share one.
type Network interface {
	NumNodes() int
	OutDegree(u int) int
	// AppendOut appends the targets of u's out-arcs to dst and returns the
	// extended slice.
	AppendOut(dst []int, u int) []int
}

// Mode selects the contact structure.
type Mode int

// Modes.
const (
	ModeAnnealed Mode = iota + 1
	ModeQuenched
)

// State is an agent's compartment.
type State uint8

// Agent states.
const (
	Susceptible State = iota + 1
	Infected
	Recovered
)

// Config parameterizes a simulation run.
type Config struct {
	// Lambda and Omega are the acceptance and infectivity functions of the
	// mean-field model (evaluated on out-degrees).
	Lambda, Omega degreedist.KFunc
	// Eps1 and Eps2 are the immunization and blocking rates.
	Eps1, Eps2 float64
	// I0 is the initial infected fraction (seeded uniformly at random).
	I0 float64
	// Dt is the time step; transition probabilities are 1 − exp(−rate·Dt).
	Dt float64
	// Steps is the number of time steps.
	Steps int
	// Mode selects annealed (mean-field) or quenched (graph-edge) contact.
	Mode Mode
	// Blocked lists nodes recovered at t = 0 before the rumor starts — the
	// "block rumors at influential users" countermeasure of the paper's
	// introduction. Blocked nodes are never seeded and never infected.
	// Nodes out of range cause an error.
	Blocked []int
	// Seeds, when non-empty, is the explicit set of initially infected
	// nodes (e.g. the early voters of a Digg story) and overrides the
	// random I0 seeding. Blocked nodes among the seeds are skipped.
	Seeds []int
	// Workers bounds the goroutines used for the per-step transition sweep
	// (and, in MeanRun, the concurrent trials). Zero or negative selects
	// runtime.NumCPU(); 1 runs fully serial. The sampled trajectory is
	// bit-identical for every value.
	Workers int
	// Progress, if non-nil, receives StageABM checkpoints every
	// ProgressEvery steps: steps done, total, simulated time, the infected
	// fraction (Value) and the wall time of that step's transition sweep
	// (Elapsed). MeanRun additionally emits one StageABMTrials event per
	// completed trial and forwards per-step checkpoints only for a single
	// trial, so concurrent trials never interleave step streams. The
	// callback may run from worker goroutines and must be concurrency-safe
	// and cheap; it never changes the sampled trajectory.
	Progress obs.Progress
	// ProgressEvery is the step cadence of Progress (default 16 — ABM steps
	// sweep the whole graph, so they are orders of magnitude heavier than
	// ODE steps).
	ProgressEvery int
}

func (c Config) validate() error {
	switch {
	case c.Lambda == nil || c.Omega == nil:
		return errors.New("abm: Lambda and Omega are required")
	case c.Eps1 < 0 || c.Eps2 < 0:
		return fmt.Errorf("abm: negative countermeasure rates (%g, %g)", c.Eps1, c.Eps2)
	case c.I0 <= 0 || c.I0 >= 1:
		return fmt.Errorf("abm: I0 = %g outside (0, 1)", c.I0)
	case c.Dt <= 0:
		return fmt.Errorf("abm: Dt = %g must be positive", c.Dt)
	case c.Steps < 1:
		return fmt.Errorf("abm: Steps = %d must be positive", c.Steps)
	case c.Mode != ModeAnnealed && c.Mode != ModeQuenched:
		return fmt.Errorf("abm: unknown mode %d", int(c.Mode))
	}
	return nil
}

// Result holds the sampled fractions of each compartment over time.
type Result struct {
	// T[j] is the time of sample j (T[0] = 0).
	T []float64
	// S, I, R are the population fractions at each sample.
	S, I, R []float64
	// Theta is the realized average infectivity at each sample.
	Theta []float64
}

// FinalI returns the final infected fraction.
func (r *Result) FinalI() float64 { return r.I[len(r.I)-1] }

// PeakI returns the maximum infected fraction over the run.
func (r *Result) PeakI() float64 {
	var m float64
	for _, v := range r.I {
		if v > m {
			m = v
		}
	}
	return m
}

// shardSize is the fixed number of nodes per transition-sweep shard. It
// depends only on this constant — never on the worker count — so per-shard
// Θ deltas summed in shard order are bit-identical at any parallelism.
const shardSize = 2048

// sweepPlan is the precomputed per-run geometry of the annealed transition
// sweep: a degree-bucketed visit order per shard for the draw phase. The
// quenched sweep needs no plan — it walks its shard in node order and reads
// each node's pressure from press.
//
// The plan depends only on the graph, never on the worker count or the RNG,
// so it cannot perturb the deterministic trajectory. Determinism of the
// *values* is preserved separately: the draw phase may visit nodes in any
// order (each node's transition is a pure function of (seed, step, node)
// plus the frozen state array), and the Θ delta is accumulated in a
// second, node-ordered pass so its floating-point summation order is
// exactly that of the pre-bucketing sweep. See DESIGN.md §11.
type sweepPlan struct {
	// deg[v] is the out-degree of v — the argument of λ and ω, shared by
	// every node of a bucket.
	deg []int32
	// order holds, shard by shard, the shard's nodes sorted by (degree,
	// id). Consecutive equal-degree nodes form a bucket: they share the
	// λ(k) lookup and one 1−exp(−λ(k)Θ·Δt) infection probability, so the
	// annealed sweep pays one exp per (bucket, step) instead of one per
	// (node, step).
	order []int32
}

func newSweepPlan(g Network) *sweepPlan {
	n := g.NumNodes()
	p := &sweepPlan{deg: make([]int32, n), order: make([]int32, n)}
	for v := 0; v < n; v++ {
		p.deg[v] = int32(g.OutDegree(v))
		p.order[v] = int32(v)
	}
	for lo := 0; lo < n; lo += shardSize {
		hi := min(lo+shardSize, n)
		seg := p.order[lo:hi]
		sort.Slice(seg, func(a, b int) bool {
			da, db := p.deg[seg[a]], p.deg[seg[b]]
			if da != db {
				return da < db
			}
			return seg[a] < seg[b]
		})
	}
	return p
}

// pressureBits is the number of bits the quenched pressure's fixed-point
// sums may reach: pressureScale keeps every sum below 2⁶² (see there).
const pressureBits = 61

// pressureScale returns the base-2 exponent of the quenched pressure's
// fixed-point unit, 2^−shift, for a network whose per-node infectivities
// sum to sumOmega. A node's weight ω(k_u)/k_u becomes round(ω(k_u)/k_u ·
// 2^shift) units, at least 1 when positive, so the k_u arcs of u carry at
// most ω(k_u)·2^shift + k_u units. With 2^shift·Σω < 2^61 no pressure,
// which sums a subset of all arcs' weights, can reach 2^61 + m < 2^62: no
// int64 sum overflows, whatever the order of its terms. The exponent is
// capped at 1022 so that the unit itself stays a normal float64.
func pressureScale(sumOmega float64) int {
	_, e := math.Frexp(sumOmega) // sumOmega < 2^e
	return min(pressureBits-e, 1022)
}

// pressureWeight returns ω/k in fixed-point units of 2^−shift: rounded to
// the nearest unit, and never below one unit when positive, so a pressure
// is zero exactly when none of its arcs comes from an infected node with
// positive weight.
func pressureWeight(omegaOverDeg float64, shift int) int64 {
	w := int64(math.Round(math.Ldexp(omegaOverDeg, shift)))
	if w == 0 && omegaOverDeg > 0 {
		w = 1
	}
	return w
}

// afterStep, when non-nil, sees every quenched step's new states, pressures
// and per-node weights once the step's flips are applied. Tests set it to
// recount the pressure from in-lists; it must not keep the slices.
var afterStep func(state []State, press, weight []int64)

// thresholds returns a susceptible node's transition thresholds for one
// step with infection exponent x = force·Δt and immunization probability
// pRec1: a draw below pInf = 1 − e^−x infects it, one below
// pStop = pInf + (1 − pInf)·pRec1 immunizes it.
func thresholds(x, pRec1 float64) (pInf, pStop float64) {
	pInf = 1 - math.Exp(-x)
	return pInf, pInf + (1-pInf)*pRec1
}

// stopBound is a bound on thresholds' pStop that needs no exp, so a
// quenched step can leave a node whose draw is at or above it susceptible
// without computing its thresholds. For x ≥ 0, pStop ≤ pInf + pRec1 ≤
// x + pRec1 in exact arithmetic, since 1 − e^−x ≤ x. A draw is below 1,
// so the bound only decides anything where x + pRec1 < 1; there math.Exp's
// error under 1 ulp and the roundings of pInf and pStop add under 1e-15 to
// pStop, and the two roundings of x + pRec1 take under 3e-16 off the sum.
// The 1e-9 margin covers both by six orders of magnitude
// (TestStopBoundAbovePStop).
func stopBound(x, pRec1 float64) float64 {
	return x + pRec1 + 1e-9
}

// stepKey returns the part of a transition draw's key that a whole step
// shares: the run's base seed mixed with the step number. The sweep
// computes it once per step, not once per node.
func stepKey(base uint64, step int) uint64 {
	return base ^ splitmix.Mix(uint64(step)*0xA24BAED4963EE407)
}

// transitionRand returns the uniform [0, 1) variate for node's transition
// at the step whose stepKey is key, as a pure function of (base, step,
// node). Keying per node (not per shard) makes the draw independent of
// shard geometry and keeps paired comparisons (same seed, different
// Blocked sets) aligned per node.
func transitionRand(key uint64, node int) float64 {
	x := splitmix.Mix(key + uint64(node)*0x9FB21C651E98DF25)
	return float64(x>>11) * 0x1p-53
}

// Run simulates the agent-based process on g. Agents with zero out-degree
// still participate (they can be infected; they simply contribute no
// infectivity). The trajectory is a deterministic function of (g, cfg, rng
// state) and does not depend on cfg.Workers.
func Run(g Network, cfg Config, rng *rand.Rand) (*Result, error) {
	return RunCtx(context.Background(), g, cfg, rng)
}

// RunCtx is Run with cancellation: ctx is polled once per time step, so a
// long Monte-Carlo run aborts promptly when its job times out or is
// cancelled. Cancellation does not perturb the deterministic trajectory of
// runs that complete.
func RunCtx(ctx context.Context, g Network, cfg Config, rng *rand.Rand) (*Result, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, errors.New("abm: empty graph")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("abm: nil rand source")
	}
	n := g.NumNodes()
	nf := float64(n)

	// Precompute per-node rates, so the per-step loops call no KFunc. The
	// rates depend on the out-degree alone, so λ(k), ω(k) and ω(k)/k are
	// evaluated once per distinct degree (OmegaSaturating calls math.Pow),
	// at the first node of that degree, and copied to every other. The
	// quenched weights ω(k)/k are turned into fixed-point units below, once
	// Σω fixes the unit.
	maxDeg := 0
	for u := 0; u < n; u++ {
		maxDeg = max(maxDeg, g.OutDegree(u))
	}
	first := make([]int32, maxDeg+1) // 1 + the first node of each degree; 0 until seen
	lambda := make([]float64, n)
	omegaNode := make([]float64, n)    // ω(k_u)
	omegaOverDeg := make([]float64, n) // ω(k_u)/outdeg(u), 0 for isolated
	var meanK, sumOmega float64        // sumOmega: Σ ω(k_u) over nodes with arcs
	for u := 0; u < n; u++ {
		d := g.OutDegree(u)
		k := float64(d)
		meanK += k
		if f := first[d] - 1; f >= 0 {
			lambda[u], omegaNode[u], omegaOverDeg[u] = lambda[f], omegaNode[f], omegaOverDeg[f]
			if d > 0 {
				sumOmega += omegaNode[u]
			}
			continue
		}
		first[d] = int32(u) + 1
		lambda[u] = cfg.Lambda(k)
		if lambda[u] < 0 {
			return nil, fmt.Errorf("abm: λ(%g) negative", k)
		}
		om := cfg.Omega(k)
		if k > 0 {
			if !(om >= 0) || math.IsInf(om, 1) {
				return nil, fmt.Errorf("abm: ω(%g) = %g is negative or not finite", k, om)
			}
			omegaOverDeg[u] = om / k
			sumOmega += om
		}
		omegaNode[u] = om
	}
	meanK /= nf
	if meanK <= 0 {
		return nil, errors.New("abm: graph has no edges")
	}

	// Pre-block the targeted users, then seed the infection among the rest.
	state := make([]State, n)
	for u := range state {
		state[u] = Susceptible
	}
	for _, u := range cfg.Blocked {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("abm: blocked node %d out of range [0, %d)", u, n)
		}
		state[u] = Recovered
	}
	seeded := 0
	if len(cfg.Seeds) > 0 {
		for _, u := range cfg.Seeds {
			if u < 0 || u >= n {
				return nil, fmt.Errorf("abm: seed node %d out of range [0, %d)", u, n)
			}
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
	if seeded == 0 {
		return nil, errors.New("abm: nothing to seed (all candidates blocked)")
	}

	// All per-step randomness derives from this one draw; the sequential
	// rng is not consulted again, so the sweep can shard freely.
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

	// Incremental compartment counters replace the O(n) per-sample rescan:
	// one initial scan, then per-shard deltas applied in shard order.
	var sCnt, iCnt, rCnt int
	var thetaSum float64 // Σ_{u infected} ω(k_u)
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
	record := func(t float64) {
		res.T = append(res.T, t)
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
	workers := par.Default(cfg.Workers)
	deltas := make([]delta, par.NumShards(n, shardSize))
	var (
		plan *sweepPlan
		// Quenched: press[v] is Σ weight[u] over v's arcs from infected u,
		// weight[u] being ω(k_u)/k_u in fixed-point units of 2^−shift, and
		// a node's force·Δt is λ(k_v)·press[v]·pressUnit. flips[s] lists
		// shard s's transitions of the step: u for S→I, ^u for I→R.
		press, weight []int64
		pressUnit     float64
		flips         [][]int32
		arcs          []int
	)
	// push adds w to the pressure on every out-neighbour of u.
	push := func(u int, w int64) {
		arcs = g.AppendOut(arcs[:0], u)
		for _, v := range arcs {
			press[v] += w
		}
	}
	if cfg.Mode == ModeAnnealed {
		plan = newSweepPlan(g)
	} else {
		shift := pressureScale(sumOmega)
		pressUnit = math.Ldexp(cfg.Dt/meanK, -shift)
		weight = make([]int64, n)
		for u, w := range omegaOverDeg {
			weight[u] = pressureWeight(w, shift)
		}
		press = make([]int64, n)
		for u, st := range state {
			if st == Infected {
				push(u, weight[u])
			}
		}
		flips = make([][]int32, len(deltas))
	}

	// Hoist the progress decision out of the step loop; the hook path costs
	// nothing when no one is listening.
	hook := cfg.Progress != nil
	every := cfg.ProgressEvery
	if every <= 0 {
		every = 16
	}

	for step := 1; step <= cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("abm: run cancelled at step %d: %w", step, err)
		}
		var sweepStart time.Time
		if hook {
			sweepStart = time.Now()
		}
		// Global Θ for the annealed mode, from the running counter.
		var theta float64
		if cfg.Mode == ModeAnnealed {
			theta = thetaSum / (nf * meanK)
		}

		key := stepKey(baseSeed, step)
		err := par.ForEachShard(workers, n, shardSize, func(shard, lo, hi int) error {
			var d delta
			if cfg.Mode == ModeAnnealed {
				// Phase 1 — draws, in degree-bucket order. Every transition
				// is a pure function of (baseSeed, step, node) plus the
				// frozen state array, so this phase may visit the shard's
				// nodes in any order; bucketing lets every equal-degree run
				// share one λ(k) lookup and one 1−exp(−λ(k)Θ·Δt) — the
				// sweep's dominant cost drops from one exp per node to one
				// per (bucket, step).
				ord := plan.order[lo:hi]
				for j := 0; j < len(ord); {
					v0 := int(ord[j])
					d0 := plan.deg[v0]
					// Identical bits to the per-node path: force and pInf
					// depend only on the degree, frozen Θ and Δt.
					pInf, pStop := thresholds(lambda[v0]*theta*cfg.Dt, pRec1)
					for ; j < len(ord); j++ {
						v := int(ord[j])
						if plan.deg[v] != d0 {
							break
						}
						st := state[v]
						next[v] = st
						switch st {
						case Susceptible:
							// Competing risks: infection at rate force,
							// immunization at rate ε1.
							switch u := transitionRand(key, v); {
							case u < pInf:
								next[v] = Infected
							case u < pStop:
								next[v] = Recovered
							}
						case Infected:
							if transitionRand(key, v) < pRec2 {
								next[v] = Recovered
							}
						}
					}
				}
				// Phase 2 — fold the shard's deltas in node order. The Θ
				// delta is a float sum, so this pass reproduces the exact
				// summation order of the pre-bucketing sweep (ascending node
				// id within the shard); the compartment counts are integers
				// and would be order-free anyway.
				for v := lo; v < hi; v++ {
					was, now := state[v], next[v]
					if was == now {
						continue
					}
					switch {
					case was == Susceptible && now == Infected:
						d.dS--
						d.dI++
						d.dTheta += omegaNode[v]
					case was == Susceptible: // immunized
						d.dS--
						d.dR++
					default: // Infected → Recovered
						d.dI--
						d.dR++
						d.dTheta -= omegaNode[v]
					}
				}
			} else {
				// Quenched: the force is per-node (each v reads its own
				// pressure), so there is nothing for a degree bucket to
				// share; a single node-ordered pass keeps the state[] and
				// press[] accesses sequential.
				f := flips[shard][:0]
				for v := lo; v < hi; v++ {
					st := state[v]
					next[v] = st
					switch st {
					case Susceptible:
						u := transitionRand(key, v)
						pInf, pStop := 0.0, pRec1
						if p := press[v]; p != 0 {
							// p == 0 needs no exp: 1−exp(0) is exactly 0,
							// so pInf = 0 and the immunization threshold
							// reduces to pRec1 — bit-identical to computing
							// it. Nor does a draw at or above stopBound,
							// which the node survives whatever exp returns.
							x := lambda[v] * float64(p) * pressUnit
							if u >= stopBound(x, pRec1) {
								break
							}
							pInf, pStop = thresholds(x, pRec1)
						}
						switch {
						case u < pInf:
							next[v] = Infected
							d.dS--
							d.dI++
							d.dTheta += omegaNode[v]
							f = append(f, int32(v))
						case u < pStop:
							next[v] = Recovered
							d.dS--
							d.dR++
						}
					case Infected:
						if transitionRand(key, v) < pRec2 {
							next[v] = Recovered
							d.dI--
							d.dR++
							d.dTheta -= omegaNode[v]
							f = append(f, ^int32(v))
						}
					}
				}
				flips[shard] = f
			}
			deltas[shard] = d
			return nil
		})
		if err != nil {
			return nil, err
		}
		for s := range deltas {
			sCnt += deltas[s].dS
			iCnt += deltas[s].dI
			rCnt += deltas[s].dR
			thetaSum += deltas[s].dTheta
			deltas[s] = delta{}
		}
		// The step's flips move the pressure. Integer sums do not depend
		// on the order of their terms, so applying them shard by shard
		// gives the same pressure at every worker count.
		for _, f := range flips {
			for _, x := range f {
				if x >= 0 {
					push(int(x), weight[x])
				} else {
					push(int(^x), -weight[^x])
				}
			}
		}
		state, next = next, state
		if afterStep != nil && press != nil {
			afterStep(state, press, weight)
		}
		record(float64(step) * cfg.Dt)
		if hook && (step%every == 0 || step == cfg.Steps) {
			cfg.Progress(obs.Event{
				Stage:   obs.StageABM,
				Step:    step,
				Total:   cfg.Steps,
				T:       float64(step) * cfg.Dt,
				Value:   float64(iCnt) / nf,
				Elapsed: time.Since(sweepStart),
				// The compartments partition the node set exactly, so any
				// non-zero MassErr means the shard deltas corrupted a count
				// (internal/obs/invariant treats it as a hard violation).
				MassErr: math.Abs(float64(sCnt+iCnt+rCnt)-nf) / nf,
			})
		}
	}
	return res, nil
}

// ErrTrialMismatch reports that a trial produced a trajectory whose length
// diverges from the other trials' — MeanRun cannot average misaligned
// samples.
var ErrTrialMismatch = errors.New("abm: trial trajectory length mismatch")

// checkTrialAlignment verifies every trial sampled the same number of
// points as the first, so the sample-by-sample average below cannot index
// past a shorter trajectory.
func checkTrialAlignment(runs []*Result) error {
	for _, r := range runs[1:] {
		if len(r.T) != len(runs[0].T) {
			return fmt.Errorf("%w: %d vs %d samples", ErrTrialMismatch, len(r.T), len(runs[0].T))
		}
	}
	return nil
}

// MeanRun averages trials independent runs sample-by-sample, reducing Monte
// Carlo noise for comparisons against the deterministic ODE. Each trial
// runs from its own RNG derived from rng up front in trial order, so trials
// execute concurrently (up to cfg.Workers at once) while the averaged
// result stays bit-identical for every worker count.
func MeanRun(g Network, cfg Config, trials int, rng *rand.Rand) (*Result, error) {
	return MeanRunCtx(context.Background(), g, cfg, trials, rng)
}

// MeanRunCtx is MeanRun with cancellation threaded into every trial; the
// first trial to observe the cancelled context aborts the whole fan-out.
func MeanRunCtx(ctx context.Context, g Network, cfg Config, trials int, rng *rand.Rand) (*Result, error) {
	if trials < 1 {
		return nil, fmt.Errorf("abm: trials = %d must be positive", trials)
	}
	if rng == nil {
		return nil, errors.New("abm: nil rand source")
	}
	trialSeeds := make([]int64, trials)
	for t := range trialSeeds {
		trialSeeds[t] = rng.Int63()
	}

	// Split the budget: prefer trial-level parallelism (perfectly
	// independent work), give leftover workers to each trial's sweep.
	workers := par.Default(cfg.Workers)
	trialWorkers := min(workers, trials)
	inner := cfg
	inner.Workers = max(1, workers/trialWorkers)
	// Per-step checkpoints only make sense as a single ordered stream;
	// with concurrent trials, report trial completions instead.
	if trials > 1 {
		inner.Progress = nil
	}

	var done atomic.Int64
	runs, err := par.Map(trialWorkers, trials, func(t int) (*Result, error) {
		r, rerr := RunCtx(ctx, g, inner, rand.New(rand.NewSource(trialSeeds[t])))
		if rerr == nil && cfg.Progress != nil {
			cfg.Progress(obs.Event{
				Stage: obs.StageABMTrials,
				Step:  int(done.Add(1)),
				Total: trials,
			})
		}
		return r, rerr
	})
	if err != nil {
		return nil, err
	}

	if err := checkTrialAlignment(runs); err != nil {
		return nil, err
	}
	acc := runs[0]
	for _, r := range runs[1:] {
		for j := range acc.T {
			acc.S[j] += r.S[j]
			acc.I[j] += r.I[j]
			acc.R[j] += r.R[j]
			acc.Theta[j] += r.Theta[j]
		}
	}
	inv := 1 / float64(trials)
	for j := range acc.T {
		acc.S[j] *= inv
		acc.I[j] *= inv
		acc.R[j] *= inv
		acc.Theta[j] *= inv
	}
	return acc, nil
}
