package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"rumornet/internal/cli"
	"rumornet/internal/cluster"
)

// fetchWorkers retrieves the coordinator's worker registry
// (GET /v1/workers); the workers and top subcommands share it.
func fetchWorkers(addr string) ([]cluster.WorkerInfo, error) {
	body, err := call(strings.TrimRight(addr, "/")+"/v1/workers", nil)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var page struct {
		Workers []cluster.WorkerInfo `json:"workers"`
		Count   int                  `json:"count"`
	}
	if err := json.NewDecoder(body).Decode(&page); err != nil {
		return nil, fmt.Errorf("decode worker registry: %w", err)
	}
	return page.Workers, nil
}

// runWorkers implements `rumorctl workers`: it fetches the coordinator's
// worker registry (GET /v1/workers) and renders one table row per worker,
// including each remote worker's health sample, which the coordinator
// reads off the registry snapshot the worker relays.
// Against a standalone daemon it lists the in-process workers, which relay
// no telemetry.
func runWorkers(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rumorctl workers", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the rumord coordinator")
	if err := cli.WrapParse(fs.Parse(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("usage: rumorctl workers [flags]")
	}

	workers, err := fetchWorkers(*addr)
	if err != nil {
		return err
	}
	if len(workers) == 0 {
		fmt.Fprintln(out, "no workers registered (no worker has polled this coordinator yet)")
		return nil
	}
	return renderWorkers(out, workers)
}

// renderWorkers writes the per-worker table. Telemetry columns render "-"
// until a worker's first registry snapshot arrives.
func renderWorkers(out io.Writer, workers []cluster.WorkerInfo) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tSTATE\tLEASES\tLEASE AGE\tCOMPLETED\tSTAGE\tINV\tGOROUT\tHEAP\tUPTIME\tLAST SEEN")
	for _, w := range workers {
		state := "live"
		if !w.Live {
			state = "lost"
		}
		age := "-"
		if w.OldestLeaseAgeMS > 0 {
			age = fmtDuration(time.Duration(w.OldestLeaseAgeMS * float64(time.Millisecond)))
		}
		stage, inv, gor, heap, up := "-", "-", "-", "-", "-"
		if t := w.Telemetry; t != nil {
			if t.Stage != "" {
				stage = t.Stage
			} else {
				stage = "idle"
			}
			inv = fmt.Sprintf("%d", t.InvariantViolations)
			gor = fmt.Sprintf("%d", t.Goroutines)
			heap = fmtBytes(t.HeapAllocBytes)
			up = fmtDuration(time.Duration(t.UptimeSeconds * float64(time.Second)))
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s ago\n",
			w.ID, state, w.LeasesHeld, age, w.JobsCompleted,
			stage, inv, gor, heap, up,
			time.Since(w.LastSeen).Round(time.Millisecond))
	}
	return tw.Flush()
}

// fmtBytes renders a byte count with a binary unit, one decimal.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// fmtDuration rounds a duration to a human-scannable precision.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return d.Round(time.Minute).String()
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(100 * time.Millisecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}
