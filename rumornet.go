// Package rumornet is a Go implementation of "Modeling Propagation Dynamics
// and Developing Optimized Countermeasures for Rumor Spreading in Online
// Social Networks" (He, Cai, Wang — ICDCS 2015).
//
// It provides:
//
//   - the heterogeneous-network SIR rumor model (degree-grouped ODE system
//     with countermeasure rates ε1 "spread truth" and ε2 "block rumors");
//   - the epidemic threshold r0 and the equilibrium/stability analysis of
//     Theorems 1–5 (extinct vs endemic verdicts);
//   - optimized countermeasures via Pontryagin's maximum principle, solved
//     with a forward–backward sweep, plus the heuristic feedback baseline;
//   - the Digg2009 evaluation substrate: a loader for the original dataset
//     format and a calibrated synthetic generator matching its published
//     statistics;
//   - baselines (homogeneous mixing, Daley–Kendall, Maki–Thompson) and an
//     agent-based Monte-Carlo validator;
//   - every figure and table of the paper's evaluation as a reproducible
//     experiment (see cmd/figgen and EXPERIMENTS.md).
//
// This package is the public facade: it re-exports the library's types and
// constructors so downstream users never import internal packages. See
// examples/ for runnable walkthroughs, starting with examples/quickstart.
package rumornet

import (
	"fmt"
	"io"
	"math/rand"

	"rumornet/internal/abm"
	"rumornet/internal/classic"
	"rumornet/internal/control"
	"rumornet/internal/core"
	"rumornet/internal/degreedist"
	"rumornet/internal/digg"
	"rumornet/internal/experiments"
	"rumornet/internal/graph"
	"rumornet/internal/spatial"
)

// Core model types.
type (
	// Model is the heterogeneous SIR rumor-propagation model.
	Model = core.Model
	// Params holds the epidemic and countermeasure rates of System (1).
	Params = core.Params
	// Equilibrium is a fixed point of the model (E0 or E+).
	Equilibrium = core.Equilibrium
	// Equilibria bundles the full Theorem 1 analysis.
	Equilibria = core.Equilibria
	// Verdict is the Theorem 5 outcome: extinct or epidemic.
	Verdict = core.Verdict
	// Trajectory is a simulated solution with model-aware accessors.
	Trajectory = core.Trajectory
	// SimOptions configures Model.Simulate.
	SimOptions = core.SimOptions
)

// Verdict values.
const (
	VerdictExtinct  = core.VerdictExtinct
	VerdictEpidemic = core.VerdictEpidemic
)

// Degree-distribution types and rate families.
type (
	// DegreeDist is a discrete degree distribution P(k) over degree groups.
	DegreeDist = degreedist.Dist
	// KFunc maps a degree to a rate or weight (λ(k), ω(k)).
	KFunc = degreedist.KFunc
)

// Acceptance and infectivity families from the paper.
var (
	// LambdaLinear is λ(k) = max(0, scale·k), the paper's λ(k_i) = k_i
	// family with a calibration knob.
	LambdaLinear = degreedist.LambdaLinear
	// OmegaSaturating is ω(k) = k^β/(1+k^γ), the paper's preferred
	// non-linear infectivity (the evaluation uses β = γ = 0.5).
	OmegaSaturating = degreedist.OmegaSaturating
	// OmegaLinear is ω(k) = k.
	OmegaLinear = degreedist.OmegaLinear
	// OmegaConstant is ω(k) = c.
	OmegaConstant = degreedist.OmegaConstant
)

// Graph types.
type (
	// Graph is a directed social-network graph.
	Graph = graph.Graph
	// DiggStats summarizes a Digg-like graph with the paper's statistics.
	DiggStats = digg.Stats
)

// Control types.
type (
	// ControlOptions configures the Pontryagin FBSM solver.
	ControlOptions = control.Options
	// ControlPolicy is an optimized (or heuristic) countermeasure policy.
	ControlPolicy = control.Policy
	// ControlSchedule is a pair of time-varying controls ε1(t), ε2(t).
	ControlSchedule = control.Schedule
	// ControlCost holds the unit costs c1 (spread truth), c2 (block).
	ControlCost = control.Cost
)

// Adjoint variants for the FBSM backward sweep.
const (
	// AdjointExact keeps the full cross-group Θ coupling (default).
	AdjointExact = control.AdjointExact
	// AdjointDiagonal is the paper's simplified Equation (16).
	AdjointDiagonal = control.AdjointDiagonal
)

// NewModel builds a heterogeneous SIR model over a degree distribution.
func NewModel(dist *DegreeDist, p Params) (*Model, error) {
	return core.NewModel(dist, p)
}

// NewCalibratedModel builds a model whose threshold equals targetR0 using
// the linear acceptance family λ(k) = scale·k (the calibration recipe the
// reproduced experiments use; see DESIGN.md).
func NewCalibratedModel(dist *DegreeDist, alpha, eps1, eps2, targetR0 float64, omega KFunc) (*Model, error) {
	return core.CalibratedModel(dist, alpha, eps1, eps2, targetR0, omega)
}

// NewModelFromGraph builds a model from a graph's out-degree distribution.
func NewModelFromGraph(g *Graph, p Params) (*Model, error) {
	dist, err := degreedist.FromGraph(g)
	if err != nil {
		return nil, fmt.Errorf("rumornet: degree distribution: %w", err)
	}
	return core.NewModel(dist, p)
}

// DegreeDistFromGraph extracts the out-degree distribution of g.
func DegreeDistFromGraph(g *Graph) (*DegreeDist, error) {
	return degreedist.FromGraph(g)
}

// PowerLawDegreeDist builds the analytic truncated power law
// P(k) ∝ k^-gamma on [kmin, kmax].
func PowerLawDegreeDist(gamma float64, kmin, kmax int) (*DegreeDist, error) {
	return degreedist.TruncatedPowerLaw(gamma, kmin, kmax)
}

// SyntheticDigg generates a Digg2009-scale directed follower graph matching
// the statistics published in the paper (71,367 users, ~1.73 M links,
// degrees in [1, 995], ⟨k⟩ ≈ 24, ≈ 848 degree groups).
func SyntheticDigg(rng *rand.Rand) (*Graph, error) {
	return digg.Generate(rng)
}

// SyntheticDiggDist samples only the degree distribution of a synthetic
// Digg2009 network — all the ODE experiments need, and much faster than
// materializing the graph.
func SyntheticDiggDist(rng *rand.Rand) (*DegreeDist, error) {
	return digg.Dist(rng)
}

// SummarizeDigg computes the paper's dataset statistics for g.
func SummarizeDigg(g *Graph) DiggStats {
	return digg.Summarize(g)
}

// LoadDiggFriends parses the original Digg2009 "digg_friends.csv" format
// (mutual, friend_date, user_id, friend_id). It returns the directed
// follower graph and the original user ids indexed by dense node id.
func LoadDiggFriends(r io.Reader) (*Graph, []int64, error) {
	return digg.LoadFriendsCSV(r)
}

// LoadEdgeList parses a whitespace-separated "u v" edge list with '#'
// comments, remapping sparse ids densely.
func LoadEdgeList(r io.Reader) (*Graph, []int64, error) {
	return graph.ReadEdgeList(r)
}

// NewGraph returns an empty directed graph on n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewConfigurationGraph realizes a directed graph with the given out-degree
// sequence via the configuration model. Every node gets exactly its
// requested out-degree, and each arc's target is uniform over the other
// n − 1 nodes: no self-loops, parallel arcs kept. All arcs derive from one
// rng.Uint64() key, so the graph is a pure function of the rng state. (The
// graph drawn for a given seed changed when per-stub draws with self-loop
// redraws gave way to this rule.)
func NewConfigurationGraph(outDegrees []int, rng *rand.Rand) (*Graph, error) {
	return graph.ConfigurationModel(outDegrees, rng)
}

// NewBarabasiAlbert generates an undirected preferential-attachment graph
// (stored symmetrically) — a standard scale-free benchmark topology.
func NewBarabasiAlbert(n, mAttach int, rng *rand.Rand) (*Graph, error) {
	return graph.BarabasiAlbert(n, mAttach, rng)
}

// OptimizeCountermeasures runs the Pontryagin forward–backward sweep for
// the minimum-cost countermeasure problem over (0, tf].
func OptimizeCountermeasures(m *Model, ic []float64, tf float64, opts ControlOptions) (*ControlPolicy, error) {
	return control.Optimize(m, ic, tf, opts)
}

// OptimizeToTarget finds the cheapest policy driving the population-
// weighted infected density below target by tf.
func OptimizeToTarget(m *Model, ic []float64, tf, target float64, opts ControlOptions) (*ControlPolicy, error) {
	return control.OptimizeToTarget(m, ic, tf, target, opts)
}

// HeuristicCountermeasures builds the paper's feedback-only baseline: the
// controls react proportionally (gain) to the current infected density.
func HeuristicCountermeasures(m *Model, ic []float64, tf, gain float64, grid int, eps1Max, eps2Max float64, cost ControlCost) (*ControlPolicy, error) {
	return control.HeuristicPolicy(m, ic, tf, gain, grid, eps1Max, eps2Max, cost)
}

// CalibrateHeuristic finds the smallest feedback gain meeting the terminal
// infection target — the fair comparator of Fig. 4(c).
func CalibrateHeuristic(m *Model, ic []float64, tf, target float64, grid int, eps1Max, eps2Max float64, cost ControlCost) (*ControlPolicy, error) {
	return control.CalibrateHeuristic(m, ic, tf, target, grid, eps1Max, eps2Max, cost)
}

// EvaluatePolicyCost evaluates the paper's objective (13) for an arbitrary
// control schedule.
func EvaluatePolicyCost(m *Model, ic []float64, sched *ControlSchedule, cost ControlCost) (control.Breakdown, *Trajectory, error) {
	return control.EvaluateCost(m, ic, sched, cost)
}

// Homogenize collapses a model onto a single group at the mean degree — the
// "ignore network heterogeneity" baseline.
func Homogenize(m *Model) (*Model, error) {
	return classic.Homogenize(m)
}

// Agent-based validation types.
type (
	// ABMConfig parameterizes the agent-based Monte-Carlo simulation.
	ABMConfig = abm.Config
	// ABMResult holds its sampled compartment fractions.
	ABMResult = abm.Result
)

// ABM contact modes.
const (
	// ABMAnnealed applies the mean-field contact assumption.
	ABMAnnealed = abm.ModeAnnealed
	// ABMQuenched uses the actual graph edges.
	ABMQuenched = abm.ModeQuenched
)

// RunABM simulates the agent-based SIR process on g.
func RunABM(g *Graph, cfg ABMConfig, rng *rand.Rand) (*ABMResult, error) {
	if g == nil { // a nil *Graph would be a non-nil abm.Network
		return abm.Run(nil, cfg, rng)
	}
	return abm.Run(g, cfg, rng)
}

// HamiltonianSeries evaluates the Hamiltonian (Eq. 14) along a policy — a
// Pontryagin optimality diagnostic: along an exact extremal of this
// autonomous problem H(t) is constant.
func HamiltonianSeries(m *Model, ic []float64, pol *ControlPolicy, opts ControlOptions) ([]float64, error) {
	return control.HamiltonianSeries(m, ic, pol, opts)
}

// ReadScheduleJSON parses a control schedule previously serialized with
// ControlSchedule.WriteJSON.
func ReadScheduleJSON(r io.Reader) (*ControlSchedule, error) {
	return control.ReadScheduleJSON(r)
}

// Vote traces (the dataset's second file, digg_votes).
type (
	// Vote is a single story vote (vote_date, voter_id, story_id).
	Vote = digg.Vote
	// StoryIndex groups votes by story in time order.
	StoryIndex = digg.StoryIndex
)

// LoadDiggVotes parses the original digg_votes CSV format, returning votes
// sorted by time.
func LoadDiggVotes(r io.Reader) ([]Vote, error) {
	return digg.LoadVotesCSV(r)
}

// IndexVotes groups a time-sorted vote list by story.
func IndexVotes(votes []Vote) StoryIndex {
	return digg.IndexVotes(votes)
}

// SampleVotes synthesizes vote traces by running independent cascades on g
// — a stand-in for the original digg_votes file.
func SampleVotes(g *Graph, nStories int, edgeProb float64, rng *rand.Rand) ([]Vote, error) {
	return digg.SampleVotes(g, nStories, edgeProb, rng)
}

// Classical baselines.
type (
	// DKConfig parameterizes the stochastic Daley–Kendall/Maki–Thompson
	// rumor models.
	DKConfig = classic.DKConfig
	// DKResult is one stochastic realization.
	DKResult = classic.DKResult
	// DKMeanField is the deterministic Daley–Kendall limit.
	DKMeanField = classic.DKMeanField
)

// Stochastic rumor-model variants.
const (
	// DaleyKendall: spreader–spreader contact stifles both.
	DaleyKendall = classic.DaleyKendall
	// MakiThompson: only the initiating spreader is stifled.
	MakiThompson = classic.MakiThompson
)

// RunDaleyKendall simulates one realization of the classical rumor process
// with the Gillespie algorithm.
func RunDaleyKendall(cfg DKConfig, rng *rand.Rand) (*DKResult, error) {
	return classic.RunDK(cfg, rng)
}

// Spatial (reaction–diffusion) extension.
type (
	// SpatialConfig parameterizes the 1-D reaction–diffusion rumor medium.
	SpatialConfig = spatial.Config
	// SpatialModel is the discretized reaction–diffusion system.
	SpatialModel = spatial.Model
)

// Spatial boundary conditions.
const (
	// SpatialNeumann reflects at the domain ends (mass-conserving).
	SpatialNeumann = spatial.Neumann
	// SpatialPeriodic wraps the domain into a ring.
	SpatialPeriodic = spatial.Periodic
)

// NewSpatialModel builds a reaction–diffusion rumor medium.
func NewSpatialModel(cfg SpatialConfig) (*SpatialModel, error) {
	return spatial.New(cfg)
}

// Experiment reproduction.
type (
	// ExperimentConfig controls experiment fidelity and seeding.
	ExperimentConfig = experiments.Config
	// ExperimentResult is the output of one reproduced figure or table.
	ExperimentResult = experiments.Result
)

// ExperimentIDs lists every reproducible artifact (fig2a…fig4c, tabD,
// ablations, validations).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's figures or tables.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiments.Run(id, cfg)
}
