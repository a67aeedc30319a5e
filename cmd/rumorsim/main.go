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
//
// The flags are the parameters of rumord's threshold, ode and abm jobs,
// with the same defaults, and each computation runs as that job through
// service.ExecuteRequest: the numbers printed are the ones rumord returns
// for the same request.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"runtime"

	"rumornet/internal/cli"
	"rumornet/internal/degreedist"
	"rumornet/internal/digg"
	"rumornet/internal/graph"
	"rumornet/internal/obs"
	"rumornet/internal/plot"
	"rumornet/internal/service"
)

func main() {
	os.Exit(cli.Exit("rumorsim", run(os.Args[1:], os.Stdout)))
}

func run(args []string, out io.Writer) error {
	// The flags fill threshold, ode and abm requests; their defaults are
	// the service's.
	fs := flag.NewFlagSet("rumorsim", flag.ContinueOnError)
	p := service.Params{}.WithDefaults(service.JobABM)
	fs.Float64Var(&p.Alpha, "alpha", p.Alpha, "rate of new individuals entering the network")
	fs.Float64Var(&p.Eps1, "eps1", p.Eps1, "immunization (spread-truth) rate")
	fs.Float64Var(&p.Eps2, "eps2", p.Eps2, "blocking rate")
	fs.Float64Var(&p.R0, "r0", p.R0, "calibrate λ(k) = scale·k so the threshold equals this value (0: use -lambda0)")
	fs.Float64Var(&p.Lambda0, "lambda0", p.Lambda0, "acceptance-rate scale λ(k) = lambda0·k (ignored when -r0 is set)")
	fs.Float64Var(&p.I0, "i0", p.I0, "initial infected density per group")
	fs.Float64Var(&p.Tf, "tf", p.Tf, "simulation horizon")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "random seed")
	fs.IntVar(&p.Trials, "abm-trials", p.Trials, "agent-based Monte-Carlo trials cross-validating the ODE (0: skip)")
	fs.IntVar(&p.Nodes, "abm-nodes", p.Nodes, "agents in the synthetic validation graph for -abm-trials")
	var (
		gamma = fs.Float64("gamma", 0, "power-law exponent (0: synthetic Digg2009)")
		kmin  = fs.Int("kmin", 1, "minimum degree for -gamma")
		kmax  = fs.Int("kmax", 100, "maximum degree for -gamma")
		edges = fs.String("edges", "", "edge-list file to derive the degree distribution from")

		workers = fs.Int("workers", 0, "worker goroutines for the ABM fan-out (0: all CPUs, 1: serial; output is identical for any value)")
	)
	lf := cli.AddLogFlags(fs)
	if err := cli.WrapParse(fs.Parse(args)); err != nil {
		return err
	}
	lg, err := lf.Logger(os.Stderr)
	if err != nil {
		return err
	}
	if *workers < 0 {
		return cli.Usagef("-workers = %d must be non-negative", *workers)
	}
	checked := service.JobODE
	if p.Trials != 0 {
		checked = service.JobABM
	}
	if err := p.Validate(checked); err != nil {
		return cli.Usagef("%s request: %v", checked, err)
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	sc, err := scenario(*edges, *gamma, *kmin, *kmax, p.Seed)
	if err != nil {
		return err
	}
	lg.Debug("network built", "source", sc.Source, "groups", sc.Groups, "mean_degree", sc.MeanDegree)
	fmt.Fprintf(out, "network: %s (%d degree groups, ⟨k⟩ = %.2f, k ∈ [%d, %d])\n",
		sc.Source, sc.Groups, sc.MeanDegree, sc.MinDegree, sc.MaxDegree)
	execute := func(t service.JobType, res any) error {
		raw, err := service.ExecuteRequest(context.Background(), sc,
			service.Request{Type: t, Params: p}, *workers, logProgress(lg))
		if err != nil {
			return err
		}
		return json.Unmarshal(raw, res)
	}

	var th service.ThresholdResult
	if err := execute(service.JobThreshold, &th); err != nil {
		return err
	}
	fmt.Fprintf(out, "threshold: r0 = %.4f → verdict: %s\n", th.R0, th.Verdict)
	fmt.Fprintf(out, "zero equilibrium E0: S = %.4f (physical: %v)\n", th.S0, th.E0Physical)
	if th.ThetaPlus != nil {
		fmt.Fprintf(out, "positive equilibrium E+: Θ+ = %.4g\n", *th.ThetaPlus)
	}

	var ode service.ODEResult
	if err := execute(service.JobODE, &ode); err != nil {
		return err
	}
	fmt.Fprintf(out, "infected fraction: start %.4f, peak %.4f, final %.4g\n",
		ode.MeanI[0], ode.PeakI, ode.FinalI)
	chart, err := plot.ASCII("population-weighted infected fraction over time", 72, 14,
		plot.Series{Name: "mean I(t)", X: ode.T, Y: ode.MeanI})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, chart)

	if p.Trials == 0 {
		return nil
	}
	// Cross-validate against the agent-based Monte-Carlo mean on a
	// configuration-model graph realized from the same distribution.
	var abm service.ABMResult
	if err := execute(service.JobABM, &abm); err != nil {
		return fmt.Errorf("abm: %w", err)
	}
	fmt.Fprintf(out, "ABM cross-validation: %d quenched trials on a %d-node configuration graph\n",
		abm.Trials, abm.Nodes)
	fmt.Fprintf(out, "  ABM infected fraction: start %.4f, peak %.4f, final %.4g\n",
		abm.I[0], abm.PeakI, abm.FinalI)
	if p.Alpha != 0 {
		fmt.Fprintln(out, "  note: the ABM population is closed (α is ignored); expect the gap "+
			"to the ODE to grow with α·tf")
	}
	chart, err = plot.ASCII("agent-based infected fraction over time", 72, 14,
		plot.Series{Name: "ABM mean I(t)", X: abm.T, Y: abm.I})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, chart)
	return nil
}

// logProgress adapts the solver progress stream onto debug-level log
// records, so -log-level debug traces long runs without changing stdout.
func logProgress(lg *slog.Logger) obs.Progress {
	return func(ev obs.Event) {
		lg.Debug("progress", "stage", ev.Stage, "step", ev.Step, "total", ev.Total,
			"grid", ev.Grid, "t", ev.T, "value", ev.Value)
	}
}

// scenario builds the degree distribution the flags select and wraps it
// as the scenario every request runs against.
func scenario(edges string, gamma float64, kmin, kmax int, seed int64) (*service.Scenario, error) {
	switch {
	case edges != "":
		f, err := os.Open(edges)
		if err != nil {
			return nil, fmt.Errorf("open edge list: %w", err)
		}
		defer f.Close()
		g, _, err := graph.ReadEdgeList(f)
		if err != nil {
			return nil, err
		}
		d, err := degreedist.FromGraph(g)
		if err != nil {
			return nil, err
		}
		return service.NewScenario("edges", "edge list "+edges, d)
	case gamma > 0:
		d, err := degreedist.TruncatedPowerLaw(gamma, kmin, kmax)
		if err != nil {
			return nil, err
		}
		return service.NewScenario("powerlaw", fmt.Sprintf("power law γ=%.2f", gamma), d)
	default:
		d, err := digg.Dist(rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		return service.NewScenario(service.BuiltinScenario, "synthetic Digg2009", d)
	}
}
