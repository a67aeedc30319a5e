package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"rumornet/internal/cli"
	"rumornet/internal/cluster"
	"rumornet/internal/service"
)

// runTop implements `rumorctl top`: a fleet-level dashboard over the
// coordinator's worker registry. One shot by default; -watch re-fetches and
// redraws at the given cadence until interrupted, like top(1) for the
// cluster. The numbers come from each worker's health sample, which the
// coordinator reads off the registry snapshot the worker piggybacks on its
// lease polls, heartbeats and result uploads, so the dashboard needs no
// access to the workers themselves.
func runTop(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rumorctl top", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the rumord coordinator")
	watch := fs.Duration("watch", 0, "redraw every interval (0: print once and exit)")
	if err := cli.WrapParse(fs.Parse(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("usage: rumorctl top [flags]")
	}
	if *watch < 0 {
		return cli.Usagef("-watch = %s must be non-negative", *watch)
	}

	for {
		workers, err := fetchWorkers(*addr)
		if err != nil {
			return err
		}
		lat := fetchLatency(*addr)
		surf := fetchSurfaceStats(*addr)
		if *watch > 0 {
			fmt.Fprint(out, "\033[H\033[2J") // home + clear, terminal redraw
		}
		if err := renderTop(out, workers, lat, surf); err != nil {
			return err
		}
		if *watch <= 0 {
			return nil
		}
		time.Sleep(*watch)
	}
}

// renderTop writes the fleet summary line followed by the per-worker table.
func renderTop(out io.Writer, workers []cluster.WorkerInfo, lat latencySummary, surf *service.SurfaceStats) error {
	var (
		live      int
		leases    int
		completed int64
		executed  int64
		inv       int64
		heap      uint64
		gor       int
		sampled   int
	)
	for _, w := range workers {
		if w.Live {
			live++
		}
		leases += w.LeasesHeld
		completed += w.JobsCompleted
		if t := w.Telemetry; t != nil {
			sampled++
			executed += t.JobsExecuted
			inv += t.InvariantViolations
			heap += t.HeapAllocBytes
			gor += t.Goroutines
		}
	}
	fmt.Fprintf(out, "fleet: %d workers (%d live)  leases %d  completed %d\n",
		len(workers), live, leases, completed)
	if sampled > 0 {
		fmt.Fprintf(out, "telemetry: executed %d  invariant violations %d  goroutines %d  heap %s (%d/%d reporting)\n",
			executed, inv, gor, fmtBytes(heap), sampled, len(workers))
	} else {
		fmt.Fprintln(out, "telemetry: no samples yet (workers report with their first lease poll)")
	}
	renderLatency(out, lat)
	renderSurfaceStats(out, surf)
	if len(workers) == 0 {
		fmt.Fprintln(out, "no workers registered (no worker has polled this coordinator yet)")
		return nil
	}
	fmt.Fprintln(out)
	return renderWorkers(out, workers)
}
