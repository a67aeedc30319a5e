// Command rumorctl computes the optimized countermeasure policy of
// Section IV: the time-varying immunization rate ε1(t) (spread truth) and
// blocking rate ε2(t) that restrain a rumor by the deadline at minimum
// cost, via Pontryagin's maximum principle.
//
// Usage:
//
//	rumorctl [flags]
//	rumorctl events [-addr URL] [-follow] <job-id>
//	rumorctl jobs [-addr URL] [-limit N] [-status S]
//	rumorctl workers [-addr URL]
//	rumorctl top [-addr URL] [-watch INTERVAL]
//	rumorctl surfaces [-addr URL] [-build -axis name=min:max:points ...]
//	rumorctl query [-addr URL] -type T [-p name=value ...]
//
// Without a subcommand the flags are the parameters of rumord's fbsm job,
// with the same defaults, and the policy is computed as that job through
// service.ExecuteRequest: the schedule is the one rumord returns for the
// same request.
//
// Examples:
//
//	rumorctl -tf 100 -c1 5 -c2 10
//	rumorctl -tf 50 -target 1e-4 -epsmax 0.8
//	rumorctl -tf 60 -compare-heuristic
//	rumorctl events -addr http://localhost:8080 -follow j-000001
//	rumorctl jobs -status failed -limit 20
//	rumorctl workers -addr http://localhost:8080
//	rumorctl top -addr http://localhost:8080 -watch 2s
//	rumorctl surfaces -build -type threshold -axis eps1=0.1:0.4:5 -axis eps2=0.02:0.1:5 -wait
//	rumorctl query -type threshold -p eps1=0.17 -p eps2=0.05
//
// The events subcommand tails a rumord job's flight recorder: it replays
// the recorded lifecycle, solver-checkpoint and invariant-violation
// entries and, with -follow, streams new ones live over SSE until the job
// finishes — against a clustered coordinator the stream transparently
// includes the entries the executing worker relayed back. The jobs
// subcommand lists the daemon's retained jobs newest first, optionally
// filtered by status. The workers subcommand lists the worker nodes
// registered with a clustered coordinator — lease counts, liveness, and
// each node's health sample (current stage, invariant violations, heap,
// uptime). The top subcommand aggregates the same registry into a fleet
// dashboard, redrawn every -watch interval like top(1). The surfaces
// subcommand lists the daemon's precomputed response surfaces or, with
// -build, sweeps a parameter grid into a new one; the query subcommand asks
// /v1/query for an interpolated answer with an explicit error bound, falling
// back to an exact job when the question leaves the covered region.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"rumornet/internal/cli"
	"rumornet/internal/control"
	"rumornet/internal/core"
	"rumornet/internal/digg"
	"rumornet/internal/obs"
	"rumornet/internal/plot"
	"rumornet/internal/service"
)

func main() {
	os.Exit(cli.Exit("rumorctl", run(os.Args[1:], os.Stdout)))
}

// evaluateSaved replays a previously exported schedule and reports its
// cost and terminal infection on the current scenario.
func evaluateSaved(out io.Writer, m *core.Model, ic []float64, path string, cost control.Cost) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	sched, err := control.ReadScheduleJSON(f)
	if err != nil {
		return err
	}
	bd, tr, err := control.EvaluateCost(m, ic, sched, cost)
	if err != nil {
		return err
	}
	_, yf := tr.Last()
	var terminal float64
	for i := 0; i < m.N(); i++ {
		terminal += m.Dist().Prob(i) * m.I(yf, i)
	}
	fmt.Fprintf(out, "replayed schedule %s over (0, %g]\n", path, sched.Horizon())
	fmt.Fprintf(out, "objective J = %.5g (terminal ΣI = %.4g, running cost = %.5g)\n",
		bd.Total, bd.Terminal, bd.Running)
	fmt.Fprintf(out, "terminal population-weighted infection: %.4g\n", terminal)
	return nil
}

// execute runs one request through the service's executor and decodes
// its result into res.
func execute(sc *service.Scenario, t service.JobType, p service.Params, prog obs.Progress, res any) error {
	raw, err := service.ExecuteRequest(context.Background(), sc, service.Request{Type: t, Params: p}, 1, prog)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, res)
}

// controlModel builds the model an fbsm job runs, for the control calls no
// job type makes (-load-json, -compare-heuristic).
func controlModel(sc *service.Scenario, p service.Params) (*core.Model, []float64, error) {
	m, _, err := service.BuildModel(sc, p)
	if err != nil {
		return nil, nil, err
	}
	ic, err := m.UniformIC(p.I0)
	return m, ic, err
}

func run(args []string, out io.Writer) error {
	// Subcommand dispatch: a leading non-flag argument selects a verb; bare
	// flags keep the original optimize-a-policy behavior.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "events":
			return runEvents(args[1:], out)
		case "jobs":
			return runJobs(args[1:], out)
		case "workers":
			return runWorkers(args[1:], out)
		case "top":
			return runTop(args[1:], out)
		case "surfaces":
			return runSurfaces(args[1:], out)
		case "query":
			return runQuery(args[1:], out)
		default:
			return cli.Usagef("unknown subcommand %q (supported: events, jobs, workers, top, surfaces, query)", args[0])
		}
	}
	// The flags fill an fbsm request; their defaults are the service's.
	fs := flag.NewFlagSet("rumorctl", flag.ContinueOnError)
	p := service.Params{}.WithDefaults(service.JobFBSM)
	fs.Float64Var(&p.Alpha, "alpha", p.Alpha, "rate of new individuals entering")
	fs.Float64Var(&p.Eps1, "eps1", p.Eps1, "baseline immunization rate (pre-control)")
	fs.Float64Var(&p.Eps2, "eps2", p.Eps2, "baseline blocking rate (pre-control)")
	fs.Float64Var(&p.R0, "r0", p.R0, "calibrated epidemic threshold of the uncontrolled rumor")
	fs.Float64Var(&p.I0, "i0", p.I0, "initial infected density per group")
	fs.Float64Var(&p.Tf, "tf", p.Tf, "deadline: the expected time period (0, tf]")
	fs.Float64Var(&p.C1, "c1", p.C1, "unit cost of spreading truth")
	fs.Float64Var(&p.C2, "c2", p.C2, "unit cost of blocking rumors")
	fs.Float64Var(&p.EpsMax, "epsmax", p.EpsMax, "upper bound for both controls")
	fs.IntVar(&p.Grid, "grid", p.Grid, "time-grid intervals for the sweep")
	fs.Float64Var(&p.Target, "target", p.Target, "terminal infected-density target (0: plain objective)")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "random seed")
	fs.IntVar(&p.Groups, "groups", p.Groups, "truncate the distribution to this many lowest-degree groups (0: all)")
	var (
		compareHeuristic = fs.Bool("compare-heuristic", false, "also calibrate the feedback heuristic and compare costs")
		saveJSON         = fs.String("save-json", "", "write the optimized schedule as JSON to this file")
		loadJSON         = fs.String("load-json", "", "skip optimization; evaluate a saved schedule against the scenario")
	)
	lf := cli.AddLogFlags(fs)
	if err := cli.WrapParse(fs.Parse(args)); err != nil {
		return err
	}
	lg, err := lf.Logger(os.Stderr)
	if err != nil {
		return err
	}
	if err := p.Validate(service.JobFBSM); err != nil {
		return cli.Usagef("%s request: %v", service.JobFBSM, err)
	}

	dist, err := digg.Dist(rand.New(rand.NewSource(p.Seed)))
	if err != nil {
		return err
	}
	sc, err := service.NewScenario(service.BuiltinScenario, "builtin", dist)
	if err != nil {
		return err
	}
	var th service.ThresholdResult
	if err := execute(sc, service.JobThreshold, p, nil, &th); err != nil {
		return err
	}
	fmt.Fprintf(out, "uncontrolled threshold r0 = %.4f (%s); deadline tf = %g; costs c1 = %g, c2 = %g\n",
		th.R0, th.Verdict, p.Tf, p.C1, p.C2)

	cost := control.Cost{C1: p.C1, C2: p.C2}
	if *loadJSON != "" {
		m, ic, err := controlModel(sc, p)
		if err != nil {
			return err
		}
		return evaluateSaved(out, m, ic, *loadJSON, cost)
	}

	// Per-sweep convergence trace at debug level: residual + objective,
	// the fastest way to see why a run has not converged.
	prog := func(ev obs.Event) {
		if ev.Stage != obs.StageFBSM {
			return
		}
		lg.Debug("fbsm sweep", "grid", ev.Grid, "iter", ev.Step, "max_iter", ev.Total,
			"residual", ev.Value, "cost", ev.Cost)
	}
	var pol service.FBSMResult
	if err := execute(sc, service.JobFBSM, p, prog, &pol); err != nil {
		return err
	}
	fmt.Fprintf(out, "FBSM: converged=%v after %d sweeps (%d before them on the quarter grid)\n",
		pol.Converged, pol.Iterations, pol.CoarseIterations)
	fmt.Fprintf(out, "objective J = %.5g (terminal ΣI = %.4g, running cost = %.5g)\n",
		pol.Total, pol.Terminal, pol.Running)

	chart, err := plot.ASCII("optimized countermeasures", 72, 14,
		plot.Series{Name: "ε1(t) spread truth", X: pol.T, Y: pol.Eps1},
		plot.Series{Name: "ε2(t) block rumors", X: pol.T, Y: pol.Eps2},
	)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, chart)

	// Decision-reference table: the real-time implementation proportions.
	fmt.Fprintln(out, "policy summary (decision reference):")
	fmt.Fprintf(out, "  %8s  %10s  %10s  %10s\n", "t", "ε1", "ε2", "dominant")
	n := len(pol.T)
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		j := int(frac * float64(n-1))
		e1, e2 := pol.Eps1[j], pol.Eps2[j]
		dom := "spread truth"
		if e2 > e1 {
			dom = "block rumors"
		}
		fmt.Fprintf(out, "  %8.1f  %10.4f  %10.4f  %10s\n", pol.T[j], e1, e2, dom)
	}

	if *saveJSON != "" {
		f, err := os.Create(*saveJSON)
		if err != nil {
			return fmt.Errorf("create %s: %w", *saveJSON, err)
		}
		sched := control.Schedule{T: pol.T, Eps1: pol.Eps1, Eps2: pol.Eps2}
		werr := sched.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("save schedule: %w", werr)
		}
		fmt.Fprintf(out, "schedule written to %s\n", *saveJSON)
	}

	if *compareHeuristic {
		tgt := p.Target
		if tgt <= 0 {
			tgt = 1e-4
		}
		m, ic, err := controlModel(sc, p)
		if err != nil {
			return err
		}
		heur, err := control.CalibrateHeuristic(m, ic, p.Tf, tgt, p.Grid, p.EpsMax, p.EpsMax, cost)
		if err != nil {
			return err
		}
		opt := pol.Running
		if p.Target <= 0 {
			var res service.FBSMResult
			pt := p
			pt.Target = tgt
			if err := execute(sc, service.JobFBSM, pt, prog, &res); err != nil {
				return err
			}
			opt = res.Running
		}
		fmt.Fprintf(out, "\ncost comparison at equal terminal infection (≤ %g):\n", tgt)
		fmt.Fprintf(out, "  heuristic feedback: running cost %.5g\n", heur.Cost.Running)
		fmt.Fprintf(out, "  optimized policy:   running cost %.5g  (%.2fx cheaper)\n",
			opt, heur.Cost.Running/opt)
	}
	return nil
}
