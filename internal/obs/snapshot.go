package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file is the registry snapshot/merge codec used by the cluster
// telemetry relay (DESIGN.md §13): a worker node serializes its registry
// into a compact JSON-able Snapshot, piggybacks it on heartbeats, and the
// coordinator re-renders the snapshot on its own /metrics under renamed
// families with a worker label — plus fleet-level aggregates merged
// across workers. The wire form is decoupled from the registry's internal
// types so the two processes only share this codec, not live metrics.

// HistogramSnapshot is the wire form of one HDR series: its nonzero
// buckets as (index, count) pairs in ascending index order, plus the
// values the buckets cannot carry. The count is implied by the buckets,
// and every HDR shares one layout, so snapshots merge losslessly
// bucket-by-bucket. The form is sparse, so a decoded snapshot costs
// memory in proportion to what was sent.
type HistogramSnapshot struct {
	Buckets [][2]int64 `json:"buckets,omitempty"`
	Under   int64      `json:"under,omitempty"` // observations below 2^-20 s
	Sum     float64    `json:"sum"`
	Min     float64    `json:"min"`
	Max     float64    `json:"max"`
}

// SeriesSnapshot is one sampled series. Exactly one of Counter, Gauge or
// Histogram is set, matching the family type. Gauge-funcs are sampled at
// snapshot time and travel as plain gauges.
type SeriesSnapshot struct {
	Labels    []Label            `json:"labels,omitempty"`
	Counter   *int64             `json:"counter,omitempty"`
	Gauge     *float64           `json:"gauge,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// FamilySnapshot is one sampled metric family.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is a point-in-time sample of a whole registry, families sorted
// by name and series by label signature (the same order WritePrometheus
// renders), so snapshots are byte-stable run to run.
type Snapshot []FamilySnapshot

// Snapshot samples every registered series. Values are read atomically
// per series; like a scrape, the whole snapshot is near-consistent rather
// than a single atomic cut.
func (r *Registry) Snapshot() Snapshot {
	fams := r.families()
	snap := make(Snapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		for _, s := range f.series {
			ss := SeriesSnapshot{Labels: append([]Label(nil), s.labels...)}
			switch {
			case s.c != nil:
				v := s.c.Value()
				ss.Counter = &v
			case s.gf != nil:
				v := s.gf()
				ss.Gauge = &v
			case s.g != nil:
				v := s.g.Value()
				ss.Gauge = &v
			case s.h != nil:
				ss.Histogram = s.h.snapshot()
			default:
				continue // a GaugeFunc registered with a nil fn; nothing to sample
			}
			fs.Series = append(fs.Series, ss)
		}
		if len(fs.Series) > 0 {
			snap = append(snap, fs)
		}
	}
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format. rename (nil for identity) maps each family name — the
// coordinator uses it to re-export a worker's rumor_* families as
// rumor_worker_*. extra labels are appended to every series — the
// coordinator attaches worker="<id>". The caller interleaves this with a
// live registry render, so HELP/TYPE dedup across calls is the caller's
// concern; within one snapshot each family emits its pair once.
//
// A snapshot arrives from another process, so nothing in it reaches the
// page unchecked: a family with a name outside the Prometheus charset or
// a type other than counter, gauge or histogram is skipped, as is a
// series whose label names fail validLabels or whose value does not match
// the family type.
func (snap Snapshot) WritePrometheus(w io.Writer, rename func(string) string, extra ...Label) error {
	bw := bufio.NewWriter(w)
	for _, f := range snap {
		name := f.Name
		if rename != nil {
			name = rename(name)
		}
		if checkName(name) != nil || !validType(f.Type) {
			continue
		}
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, f.Type)
		for _, s := range f.Series {
			labels := mergeLabels(s.Labels, extra)
			if !validLabels(labels) {
				continue
			}
			switch {
			case f.Type == "counter" && s.Counter != nil:
				fmt.Fprintf(bw, "%s%s %d\n", name, labelString(labels, nil), *s.Counter)
			case f.Type == "gauge" && s.Gauge != nil:
				fmt.Fprintf(bw, "%s%s %s\n", name, labelString(labels, nil), formatFloat(*s.Gauge))
			case f.Type == "histogram" && s.Histogram != nil:
				writeHistogram(bw, name, labels, s.Histogram)
			}
		}
	}
	return bw.Flush()
}

// validType reports whether a relayed family type is one the registry
// renders.
func validType(typ string) bool {
	return typ == "counter" || typ == "gauge" || typ == "histogram"
}

// validLabels reports whether every relayed label name passes
// checkLabelName, none repeats, and none is le — the renderer's own
// histogram bucket label.
func validLabels(labels []Label) bool {
	for i, l := range labels {
		if checkLabelName(l.Name) != nil || l.Name == "le" {
			return false
		}
		for _, prev := range labels[:i] {
			if prev.Name == l.Name {
				return false
			}
		}
	}
	return true
}

// WithLabel returns a deep-enough copy of the snapshot with extra appended
// to every series' label set (series that already carry a label of the
// same name keep their own value). The coordinator uses it to stamp each
// worker's snapshot with worker="<id>" before merging the fleet into one
// rendering.
func (snap Snapshot) WithLabel(extra ...Label) Snapshot {
	out := make(Snapshot, len(snap))
	for i, f := range snap {
		nf := FamilySnapshot{Name: f.Name, Help: f.Help, Type: f.Type,
			Series: make([]SeriesSnapshot, len(f.Series))}
		for j, s := range f.Series {
			ns := cloneSeries(s)
			ns.Labels = mergeLabels(ns.Labels, extra)
			nf.Series[j] = ns
		}
		out[i] = nf
	}
	return out
}

// mergeLabels appends extra after the series' own labels, skipping extras
// whose name a series label already uses (the series' value wins — a
// worker must not spoof the coordinator-assigned worker label).
func mergeLabels(own, extra []Label) []Label {
	if len(extra) == 0 {
		return own
	}
	out := append([]Label(nil), own...)
next:
	for _, e := range extra {
		for _, l := range own {
			if l.Name == e.Name {
				continue next
			}
		}
		out = append(out, e)
	}
	return out
}

// MergeSnapshots folds snapshots from several processes into fleet-level
// aggregates: counters and gauges sum, and histograms merge losslessly
// bucket-by-bucket, so a fleet quantile equals the quantile of one histogram
// fed every process's samples. Series are merged by family name plus
// label signature; families must agree on type or the later snapshot's
// family is skipped, and families and series that WritePrometheus would
// refuse are dropped here too. Gauges sum because the fleet aggregate of
// goroutines, heap bytes or queue depths is a total, not an average —
// per-worker values stay visible on the re-exported rumor_worker_* form.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	type key struct {
		fam string
		sig string
	}
	fams := make(map[string]*FamilySnapshot)
	order := make([]string, 0)
	idx := make(map[key]int) // index into fams[fam].Series
	for _, snap := range snaps {
		for _, f := range snap {
			if checkName(f.Name) != nil || !validType(f.Type) {
				continue
			}
			mf := fams[f.Name]
			if mf == nil {
				fams[f.Name] = &FamilySnapshot{Name: f.Name, Help: f.Help, Type: f.Type}
				mf = fams[f.Name]
				order = append(order, f.Name)
			} else if mf.Type != f.Type {
				continue
			}
			for _, s := range f.Series {
				if !validLabels(s.Labels) {
					continue
				}
				k := key{fam: f.Name, sig: labelSignature(s.Labels)}
				i, ok := idx[k]
				if !ok {
					idx[k] = len(mf.Series)
					mf.Series = append(mf.Series, cloneSeries(s))
					continue
				}
				mergeSeries(&mf.Series[i], s)
			}
		}
	}
	sort.Strings(order)
	out := make(Snapshot, 0, len(order))
	for _, name := range order {
		out = append(out, *fams[name])
	}
	return out
}

func cloneSeries(s SeriesSnapshot) SeriesSnapshot {
	out := SeriesSnapshot{Labels: append([]Label(nil), s.Labels...)}
	switch {
	case s.Counter != nil:
		v := *s.Counter
		out.Counter = &v
	case s.Gauge != nil:
		v := *s.Gauge
		out.Gauge = &v
	case s.Histogram != nil:
		h := *s.Histogram
		h.Buckets = append([][2]int64(nil), s.Histogram.Buckets...)
		out.Histogram = &h
	}
	return out
}

func mergeSeries(dst *SeriesSnapshot, src SeriesSnapshot) {
	switch {
	case dst.Counter != nil && src.Counter != nil:
		*dst.Counter += *src.Counter
	case dst.Gauge != nil && src.Gauge != nil:
		*dst.Gauge += *src.Gauge
	case dst.Histogram != nil && src.Histogram != nil:
		dst.Histogram.merge(src.Histogram)
	}
}

// snapshot samples h in Record's reverse write order, so the underflow
// stays within bucket 0 and the extremes cover every bucket read.
func (h *HDR) snapshot() *HistogramSnapshot {
	hs := &HistogramSnapshot{Under: h.under.Load()}
	for i := range h.counts {
		if n := h.counts[i].Load(); n != 0 {
			hs.Buckets = append(hs.Buckets, [2]int64{int64(i), n})
		}
	}
	if len(hs.Buckets) > 0 {
		hs.Sum, hs.Min, hs.Max = h.sum.load(), h.vmin.load(), h.vmax.load()
	}
	return hs
}

// maxRelayCount bounds the observations one decoded histogram may claim.
// Far above any real worker's count, it keeps every sum the coordinator
// forms from relayed histograms — across buckets, series and workers —
// inside int64.
const maxRelayCount = 1 << 40

// UnmarshalJSON decodes the wire form. A snapshot comes from another
// process, so malformed parts are dropped rather than trusted: pairs
// whose index is out of range or not above the previous pair's, pairs
// with a non-positive count, counts past maxRelayCount, and an underflow
// above the first bucket's count.
func (hs *HistogramSnapshot) UnmarshalJSON(b []byte) error {
	type wire HistogramSnapshot // the same fields without this method
	var w wire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*hs = HistogramSnapshot{Sum: w.Sum, Min: w.Min, Max: w.Max}
	var n, first int64
	next := int64(0)
	for _, p := range w.Buckets {
		i, c := p[0], p[1]
		if i < next || i >= hdrBuckets || c <= 0 || c > maxRelayCount-n {
			continue
		}
		hs.Buckets = append(hs.Buckets, p)
		n += c
		next = i + 1
		if i == 0 {
			first = c
		}
	}
	hs.Under = max(0, min(w.Under, first))
	return nil
}

// merge adds o into hs: a merge-join of the two ascending bucket lists.
func (hs *HistogramSnapshot) merge(o *HistogramSnapshot) {
	if len(o.Buckets) == 0 {
		return
	}
	if len(hs.Buckets) == 0 {
		hs.Min, hs.Max = o.Min, o.Max
	} else {
		hs.Min, hs.Max = min(hs.Min, o.Min), max(hs.Max, o.Max)
	}
	a, b := hs.Buckets, o.Buckets
	out := make([][2]int64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0][0] < b[0][0]:
			out, a = append(out, a[0]), a[1:]
		case a[0][0] > b[0][0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, [2]int64{a[0][0], a[0][1] + b[0][1]}), a[1:], b[1:]
		}
	}
	hs.Buckets = append(append(out, a...), b...)
	hs.Under += o.Under
	hs.Sum += o.Sum
}
