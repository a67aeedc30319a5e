package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Spans of one request share
// Req; Parent 0 marks the request's root. Background spans (job polls) are
// kept in the trace but are off the request's critical path, so the ledger
// attributes no time to them.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	BG     bool   `json:"bg,omitempty"`
}

// tracer keeps every finished request's spans in memory until the run
// writes them out.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// reqSpans collects one request's spans; a nil *reqSpans (untraced) makes
// every method a no-op.
type reqSpans struct {
	t     *tracer
	req   string
	class string
	root  span
	spans []span
}

func (t *tracer) begin(class string, start time.Time) *reqSpans {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &reqSpans{t: t, req: fmt.Sprintf("req-%d", id), class: class,
		root: span{ID: id, Name: "request", Class: class, Start: start.UnixNano()}}
}

func (rs *reqSpans) rootID() int64 {
	if rs == nil {
		return 0
	}
	return rs.root.ID
}

func (rs *reqSpans) add(parent int64, name string, start, end time.Time, bg bool) int64 {
	if rs == nil {
		return 0
	}
	id := rs.t.ids.Add(1)
	rs.spans = append(rs.spans, span{ID: id, Parent: parent, Name: name, Req: rs.req,
		Class: rs.class, Start: start.UnixNano(), End: end.UnixNano(), BG: bg})
	return id
}

// lag records how late the generator sent the request after its schedule.
func (rs *reqSpans) lag(sched, sent time.Time) {
	if rs != nil && sent.After(sched) {
		rs.add(rs.root.ID, "loadgen.lag", sched, sent, false)
	}
}

// http records one round trip: the client-side interval as transport.<route>
// and, inside it, the handler interval as service.<route>.
func (rs *reqSpans) http(parent int64, route string, ex *exchange, bg bool) {
	if rs == nil {
		return
	}
	id := rs.add(parent, "transport."+route, ex.start, ex.end, bg)
	if !ex.server.start.IsZero() {
		rs.add(id, "service."+route, ex.server.start, ex.server.end, bg)
	}
}

func (rs *reqSpans) finish(end time.Time) {
	if rs == nil {
		return
	}
	rs.root.Req = rs.req
	rs.root.End = end.UnixNano()
	rs.t.mu.Lock()
	rs.t.spans = append(rs.t.spans, rs.root)
	rs.t.spans = append(rs.t.spans, rs.spans...)
	rs.t.mu.Unlock()
}

// writeTrace writes the spans to path as JSON lines.
func writeTrace(t *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes splits one request's root interval among its foreground spans:
// each instant goes to the deepest span active then (the latest-started on
// a tie), and instants no child covers stay with the root as client-side
// time. The parts therefore sum to the request's duration.
func selfTimes(spans []span) map[string]float64 {
	depth := map[int64]int{}
	var root *span
	for i := range spans {
		if spans[i].Parent == 0 {
			root = &spans[i]
		}
	}
	if root == nil {
		return nil
	}
	byID := map[int64]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var depthOf func(s *span) int
	depthOf = func(s *span) int {
		if d, ok := depth[s.ID]; ok {
			return d
		}
		d := 0
		if p := byID[s.Parent]; p != nil {
			d = depthOf(p) + 1
		}
		depth[s.ID] = d
		return d
	}
	var fg []*span
	cuts := []int64{root.Start, root.End}
	for i := range spans {
		s := &spans[i]
		if s.BG || s.Parent == 0 {
			continue
		}
		fg = append(fg, s)
		cuts = append(cuts, clamp(s.Start, root.Start, root.End), clamp(s.End, root.Start, root.End))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]float64{}
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		var best *span
		for _, s := range fg {
			if s.Start <= a && s.End >= b {
				if best == nil || depthOf(s) > depthOf(best) ||
					(depthOf(s) == depthOf(best) && s.Start > best.Start) {
					best = s
				}
			}
		}
		name := "client"
		if best != nil {
			name = best.Name
		}
		out[name] += float64(b-a) / 1e6
	}
	return out
}

func clamp(v, lo, hi int64) int64 { return max(lo, min(v, hi)) }

// ledgerRow is one request class's layer breakdown, in ms.
type ledgerRow struct {
	class    string
	n        int
	untraced [2]float64 // e2e mean and median of the untraced window
	traced   [2]float64 // e2e mean and median of the traced window
	// layers holds each layer's mean and median self time. The means sum
	// to the traced mean, since each request's self times partition it.
	layers map[string][2]float64
}

// ledger groups the traced spans by request and class and takes, per class
// and layer, the mean and median self time across that class's requests.
// untraced maps a class to its untraced e2e samples.
func ledger(t *tracer, untraced map[string][]float64) []ledgerRow {
	byReq := map[string][]span{}
	for _, s := range t.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	perClass := map[string][]map[string]float64{}
	e2e := map[string][]float64{}
	for _, spans := range byReq {
		st := selfTimes(spans)
		if st == nil {
			continue
		}
		for _, s := range spans {
			if s.Parent == 0 {
				perClass[s.Class] = append(perClass[s.Class], st)
				e2e[s.Class] = append(e2e[s.Class], float64(s.End-s.Start)/1e6)
			}
		}
	}
	var rows []ledgerRow
	for class, reqs := range perClass {
		names := map[string]bool{}
		for _, st := range reqs {
			for n := range st {
				names[n] = true
			}
		}
		u := untraced[class]
		row := ledgerRow{class: class, n: len(reqs),
			untraced: [2]float64{mean(u), quantile(u, 0.5)},
			traced:   [2]float64{mean(e2e[class]), quantile(e2e[class], 0.5)},
			layers:   map[string][2]float64{}}
		for n := range names {
			vals := make([]float64, len(reqs))
			for i, st := range reqs {
				vals[i] = st[n] // a request without the layer spent 0 in it
			}
			row.layers[n] = [2]float64{mean(vals), quantile(vals, 0.5)}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].class < rows[j].class })
	return rows
}

// printLedger writes the per-class ledger: each layer's mean and median
// self time, their sum, and the end-to-end time of the traced and the
// untraced windows. The "client" layer is the remainder no span explains;
// the tracing overhead is the traced minus the untraced end-to-end time.
func printLedger(w io.Writer, workload string, rows []ledgerRow, notes map[string][]string) {
	fmt.Fprintf(w, "ledger %s: self time per layer, ms (client = time no layer span covers)\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "  class %-6s n=%-6d %12s %10s\n", r.class, r.n, "mean", "p50")
		names := make([]string, 0, len(r.layers))
		for n := range r.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		var sum float64
		for _, n := range names {
			sum += r.layers[n][0]
			fmt.Fprintf(w, "    %-26s %10.4f %10.4f\n", n, r.layers[n][0], r.layers[n][1])
		}
		for _, note := range notes[r.class] {
			fmt.Fprintf(w, "    %s\n", note)
		}
		fmt.Fprintf(w, "    %-26s %10.4f\n", "sum of layers", sum)
		fmt.Fprintf(w, "    %-26s %10.4f %10.4f\n", "traced e2e", r.traced[0], r.traced[1])
		fmt.Fprintf(w, "    %-26s %10.4f %10.4f\n", "untraced e2e", r.untraced[0], r.untraced[1])
		fmt.Fprintf(w, "    %-26s %10.4f %10.4f\n", "tracing overhead", r.traced[0]-r.untraced[0], r.traced[1]-r.untraced[1])
	}
	fmt.Fprintln(w, strings.Repeat("-", 60))
}
