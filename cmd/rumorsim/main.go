// Command rumorsim simulates rumor propagation under the heterogeneous SIR
// model and reports the critical-condition analysis (Theorems 1–5).
//
// Usage:
//
//	rumorsim [flags]
//
// The network is either the calibrated synthetic Digg2009 distribution
// (default), an analytic power law (-gamma/-kmin/-kmax), or a degree
// distribution read from an edge-list file (-edges).
//
// Examples:
//
//	rumorsim -alpha 0.01 -eps1 0.2 -eps2 0.05 -r0 0.722 -tf 150
//	rumorsim -gamma 2.1 -kmax 200 -lambda0 0.002 -tf 300
//	rumorsim -edges follows.txt -lambda0 0.001
//	rumorsim -r0 2.1661 -tf 80 -abm-trials 4 -workers 4
//
// With -abm-trials > 0 the mean-field prediction is cross-validated against
// an agent-based Monte-Carlo simulation on an explicit graph realized from
// the same degree distribution; -workers bounds the goroutines used for the
// trial fan-out and the per-step transition sweep (the sampled trajectories
// are bit-identical for every worker count).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"

	"rumornet/internal/abm"
	"rumornet/internal/cli"
	"rumornet/internal/core"
	"rumornet/internal/degreedist"
	"rumornet/internal/digg"
	"rumornet/internal/graph"
	"rumornet/internal/obs"
	"rumornet/internal/plot"
)

func main() {
	os.Exit(cli.Exit("rumorsim", run(os.Args[1:])))
}

func run(args []string) error {
	fs := flag.NewFlagSet("rumorsim", flag.ContinueOnError)
	var (
		alpha   = fs.Float64("alpha", 0.01, "rate of new individuals entering the network")
		eps1    = fs.Float64("eps1", 0.2, "immunization (spread-truth) rate")
		eps2    = fs.Float64("eps2", 0.05, "blocking rate")
		r0      = fs.Float64("r0", 0, "calibrate λ(k) = scale·k so the threshold equals this value (0: use -lambda0)")
		lambda0 = fs.Float64("lambda0", 0.001, "acceptance-rate scale λ(k) = lambda0·k (ignored when -r0 is set)")
		i0      = fs.Float64("i0", 0.1, "initial infected density per group")
		tf      = fs.Float64("tf", 150, "simulation horizon")
		seed    = fs.Int64("seed", 1, "random seed")

		gamma = fs.Float64("gamma", 0, "power-law exponent (0: synthetic Digg2009)")
		kmin  = fs.Int("kmin", 1, "minimum degree for -gamma")
		kmax  = fs.Int("kmax", 100, "maximum degree for -gamma")
		edges = fs.String("edges", "", "edge-list file to derive the degree distribution from")

		abmTrials = fs.Int("abm-trials", 0, "agent-based Monte-Carlo trials cross-validating the ODE (0: skip)")
		abmNodes  = fs.Int("abm-nodes", 20000, "agents in the synthetic validation graph for -abm-trials")
		workers   = fs.Int("workers", 0, "worker goroutines for the ABM fan-out (0: all CPUs, 1: serial; output is identical for any value)")
	)
	lf := cli.AddLogFlags(fs)
	if err := cli.WrapParse(fs.Parse(args)); err != nil {
		return err
	}
	lg, err := lf.Logger(os.Stderr)
	if err != nil {
		return err
	}
	switch {
	case *tf <= 0:
		return cli.Usagef("-tf = %g must be positive", *tf)
	case *i0 <= 0 || *i0 >= 1:
		return cli.Usagef("-i0 = %g must be in (0, 1)", *i0)
	case *workers < 0:
		return cli.Usagef("-workers = %d must be non-negative", *workers)
	case *abmTrials < 0:
		return cli.Usagef("-abm-trials = %d must be non-negative", *abmTrials)
	case *abmTrials > 0 && *abmNodes < 2:
		return cli.Usagef("-abm-nodes = %d must be at least 2", *abmNodes)
	}

	rng := rand.New(rand.NewSource(*seed))
	dist, source, err := buildDist(*edges, *gamma, *kmin, *kmax, rng)
	if err != nil {
		return err
	}
	lg.Debug("network built", "source", source, "groups", dist.N(), "mean_degree", dist.MeanDegree())
	fmt.Printf("network: %s (%d degree groups, ⟨k⟩ = %.2f, k ∈ [%d, %d])\n",
		source, dist.N(), dist.MeanDegree(), dist.MinDegree(), dist.MaxDegree())

	omega := degreedist.OmegaSaturating(0.5, 0.5)
	var m *core.Model
	if *r0 > 0 {
		m, err = core.CalibratedModel(dist, *alpha, *eps1, *eps2, *r0, omega)
	} else {
		m, err = core.NewModel(dist, core.Params{
			Alpha:  *alpha,
			Eps1:   *eps1,
			Eps2:   *eps2,
			Lambda: degreedist.LambdaLinear(*lambda0),
			Omega:  omega,
		})
	}
	if err != nil {
		return err
	}

	eq, err := m.Analyze()
	if err != nil {
		return err
	}
	fmt.Printf("threshold: r0 = %.4f → verdict: %s\n", eq.R0, eq.Verdict)
	fmt.Printf("zero equilibrium E0: S = %.4f, R = %.4f (physical: %v)\n",
		m.S(eq.Zero.Y, 0), m.R(eq.Zero.Y, 0), eq.Zero.Physical)
	if eq.Positive != nil {
		fmt.Printf("positive equilibrium E+: Θ+ = %.4g (physical: %v)\n",
			eq.Positive.Theta, eq.Positive.Physical)
	}

	ic, err := m.UniformIC(*i0)
	if err != nil {
		return err
	}
	tr, err := m.Simulate(ic, *tf, &core.SimOptions{
		Progress: logProgress(lg), ProgressEvery: 200,
	})
	if err != nil {
		return err
	}
	mean := tr.MeanISeries()
	fmt.Printf("infected fraction: start %.4f, peak %.4f, final %.4g\n",
		mean[0], peak(mean), mean[len(mean)-1])

	chart, err := plot.ASCII("population-weighted infected fraction over time", 72, 14,
		plot.Series{Name: "mean I(t)", X: tr.T, Y: mean})
	if err != nil {
		return err
	}
	fmt.Println(chart)

	if *abmTrials > 0 {
		lamScale := *lambda0
		if *r0 > 0 {
			lamScale, err = core.CalibrateLambdaScale(dist, *alpha, *eps1, *eps2, *r0, omega)
			if err != nil {
				return fmt.Errorf("abm calibration: %w", err)
			}
		}
		return crossValidateABM(dist, lamScale, omega, *eps1, *eps2, *i0, *tf,
			*abmTrials, *abmNodes, *workers, *alpha, rng, lg)
	}
	return nil
}

// logProgress adapts the solver progress stream onto debug-level log
// records, so -log-level debug traces long runs without changing stdout.
func logProgress(lg *slog.Logger) obs.Progress {
	return func(ev obs.Event) {
		lg.Debug("progress", "stage", ev.Stage, "step", ev.Step, "total", ev.Total,
			"t", ev.T, "value", ev.Value)
	}
}

// crossValidateABM realizes a configuration-model graph from the degree
// distribution and compares the agent-based Monte-Carlo mean against the
// ODE prediction printed above.
func crossValidateABM(dist *degreedist.Dist, lamScale float64, omega degreedist.KFunc,
	eps1, eps2, i0, tf float64, trials, nodes, workers int, alpha float64,
	rng *rand.Rand, lg *slog.Logger) error {
	if nodes < 2 {
		return fmt.Errorf("abm-nodes = %d too small", nodes)
	}
	seq := dist.Sample(nodes, rng)
	g, err := graph.ConfigurationModel(seq, rng)
	if err != nil {
		return fmt.Errorf("abm graph: %w", err)
	}
	const dt = 0.5
	steps := int(tf / dt)
	if steps < 1 {
		steps = 1
	}
	res, err := abm.MeanRun(g, abm.Config{
		Lambda:   degreedist.LambdaLinear(lamScale),
		Omega:    omega,
		Eps1:     eps1,
		Eps2:     eps2,
		I0:       i0,
		Dt:       dt,
		Steps:    steps,
		Mode:     abm.ModeQuenched,
		Workers:  workers,
		Progress: logProgress(lg),
	}, trials, rng)
	if err != nil {
		return fmt.Errorf("abm: %w", err)
	}
	fmt.Printf("ABM cross-validation: %d quenched trials on a %d-node configuration graph\n",
		trials, g.NumNodes())
	fmt.Printf("  ABM infected fraction: start %.4f, peak %.4f, final %.4g\n",
		res.I[0], res.PeakI(), res.FinalI())
	if alpha != 0 {
		fmt.Println("  note: the ABM population is closed (α is ignored); expect the gap " +
			"to the ODE to grow with α·tf")
	}
	chart, err := plot.ASCII("agent-based infected fraction over time", 72, 14,
		plot.Series{Name: "ABM mean I(t)", X: res.T, Y: res.I})
	if err != nil {
		return err
	}
	fmt.Println(chart)
	return nil
}

func buildDist(edges string, gamma float64, kmin, kmax int, rng *rand.Rand) (*degreedist.Dist, string, error) {
	switch {
	case edges != "":
		f, err := os.Open(edges)
		if err != nil {
			return nil, "", fmt.Errorf("open edge list: %w", err)
		}
		defer f.Close()
		g, _, err := graph.ReadEdgeList(f)
		if err != nil {
			return nil, "", err
		}
		d, err := degreedist.FromGraph(g)
		if err != nil {
			return nil, "", err
		}
		return d, "edge list " + edges, nil
	case gamma > 0:
		d, err := degreedist.TruncatedPowerLaw(gamma, kmin, kmax)
		if err != nil {
			return nil, "", err
		}
		return d, fmt.Sprintf("power law γ=%.2f", gamma), nil
	default:
		d, err := digg.Dist(rng)
		if err != nil {
			return nil, "", err
		}
		return d, "synthetic Digg2009", nil
	}
}

func peak(xs []float64) float64 {
	var m float64
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}
