package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// latencySummary is the slice of a daemon's /metrics page the top
// dashboard renders: the queue-wait sample count, and the saturation
// detector's windowed queue-wait p99 — computed server-side from its HDR
// window — and verdict.
type latencySummary struct {
	ok        bool    // scrape succeeded and carried the queue-wait count
	count     int64   // queue-wait observations since start
	detector  bool    // the windowed p99 gauge exists: detector enabled
	p99       float64 // windowed queue-wait p99, seconds
	saturated bool    // rumor_saturated gauge
}

// fetchLatency scrapes addr's /metrics. Failures degrade to a zero
// summary — the dashboard's primary data is the worker registry.
func fetchLatency(addr string) latencySummary {
	body, err := call(strings.TrimSuffix(addr, "/")+"/metrics", nil)
	if err != nil {
		return latencySummary{}
	}
	defer body.Close()
	raw, err := io.ReadAll(body)
	if err != nil {
		return latencySummary{}
	}
	return parseLatency(string(raw))
}

func parseLatency(text string) latencySummary {
	var s latencySummary
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "rumor_queue_wait_seconds_count":
			s.ok, s.count = true, int64(v)
		case "rumor_queue_wait_window_p99_seconds":
			s.detector, s.p99 = true, v
		case "rumor_saturated":
			s.saturated = v != 0
		}
	}
	return s
}

// renderLatency writes the dashboard's latency line.
func renderLatency(out io.Writer, s latencySummary) {
	switch {
	case !s.ok:
		fmt.Fprintln(out, "latency: no queue-wait metrics (metrics unreachable)")
	case !s.detector:
		fmt.Fprintf(out, "latency: queue-wait p99 unavailable: saturation detector disabled (%d jobs)\n", s.count)
	case s.count == 0:
		fmt.Fprintln(out, "latency: no jobs executed yet")
	default:
		line := fmt.Sprintf("latency: queue-wait p99 %s over the detector window (%d jobs)", fmtSeconds(s.p99), s.count)
		if s.saturated {
			line += "  [SATURATED]"
		}
		fmt.Fprintln(out, line)
	}
}

// fmtSeconds renders a duration bound compactly: sub-second values in
// milliseconds, the rest in seconds.
func fmtSeconds(v float64) string {
	if v < 1 {
		return strconv.FormatFloat(v*1e3, 'g', 3, 64) + "ms"
	}
	return strconv.FormatFloat(v, 'g', 3, 64) + "s"
}
