// Package obs is the repository's dependency-free observability layer:
//
//   - a metrics Registry of atomic counters, gauges and HDR histograms
//     (hdr.go), exported in the Prometheus text exposition format
//     (expfmt.go) and scraped by rumord's GET /metrics;
//   - log/slog constructors with a shared -log-level/-log-format flag
//     vocabulary and context propagation, so a request or job id attached
//     at the HTTP edge correlates every log line it causes (log.go);
//   - a solver progress vocabulary (Event/Progress in progress.go) threaded
//     through internal/ode, internal/core, internal/control and
//     internal/abm, surfaced live on rumord's GET /v1/jobs/{id}.
//
// The package deliberately depends only on the standard library; solver
// packages may import it without pulling in any service machinery. All
// metric types are safe for concurrent use and their hot paths
// (Counter.Inc, Gauge.Set, HDR.Record) are lock-free.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series. Series are
// registered with a fixed label set — cardinality is decided at
// registration time, never at observation time (see DESIGN.md §8 for the
// cardinality rules).
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry. Registration
// takes a mutex; observations on the returned metrics are lock-free.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family groups every series registered under one metric name; HELP/TYPE
// lines are emitted once per family.
type family struct {
	name, help string
	typ        string // "counter", "gauge", "histogram"
	series     []*series
}

// series is one (name, labels) time series.
type series struct {
	labels []Label
	sig    string // canonical label signature, for dedup and sort

	c  *Counter
	g  *Gauge
	gf func() float64
	h  *HDR
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter registers (or returns the existing) counter series under name
// with the given labels. It panics on a malformed name or a type conflict
// with a previously registered family — both programmer errors caught at
// startup.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	var c *Counter
	r.register(name, help, "counter", labels, func(s *series) {
		if s.c == nil {
			s.c = &Counter{}
		}
		c = s.c
	})
	return c
}

// Gauge registers (or returns the existing) settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	var g *Gauge
	r.register(name, help, "gauge", labels, func(s *series) {
		if s.g == nil {
			s.g = &Gauge{}
		}
		g = s.g
	})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
// fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, func(s *series) { s.gf = fn })
}

// Histogram registers (or returns the existing) histogram series. Every
// histogram shares the HDR layout; /metrics renders it at the layout's
// power-of-two boundaries.
func (r *Registry) Histogram(name, help string, labels ...Label) *HDR {
	var h *HDR
	r.register(name, help, "histogram", labels, func(s *series) {
		if s.h == nil {
			s.h = NewHDR()
		}
		h = s.h
	})
	return h
}

// register finds or creates the (name, labels) series and runs set on it
// with r.mu held, so the instrument exists before any render can reach
// the series: renders copy the series under the same lock (families).
func (r *Registry) register(name, help, typ string, labels []Label, set func(*series)) {
	if err := checkName(name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	for _, l := range labels {
		if err := checkLabelName(l.Name); err != nil {
			panic(fmt.Sprintf("obs: label of %s: %v", name, err))
		}
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	sig := labelSignature(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, typ, f.typ))
	}
	for _, s := range f.series {
		if s.sig == sig {
			set(s)
			return
		}
	}
	s := &series{labels: sorted, sig: sig}
	set(s)
	f.series = append(f.series, s)
}

// familyCopy is one family as a render sees it: its series copied by
// value, sorted by label signature.
type familyCopy struct {
	name, help, typ string
	series          []series
}

// families copies every family under r.mu, sorted by name with series
// sorted by label signature so renders are byte-stable run to run. The
// copies own their series headers, so a render never reads a field that
// a concurrent registration is writing; the instruments they point at
// are safe for concurrent use.
func (r *Registry) families() []familyCopy {
	r.mu.Lock()
	fams := make([]familyCopy, 0, len(r.fams))
	for _, f := range r.fams {
		fc := familyCopy{name: f.name, help: f.help, typ: f.typ, series: make([]series, len(f.series))}
		for i, s := range f.series {
			fc.series[i] = *s
		}
		fams = append(fams, fc)
	}
	r.mu.Unlock()

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].sig < f.series[j].sig })
	}
	return fams
}

// checkName enforces the Prometheus metric name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) error {
	if !validName(name, true) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	return nil
}

// checkLabelName enforces the Prometheus label name charset
// [a-zA-Z_][a-zA-Z0-9_]*: a metric name's, less the ':'.
func checkLabelName(name string) error {
	if !validName(name, false) {
		return fmt.Errorf("invalid label name %q", name)
	}
	return nil
}

func validName(name string, colon bool) bool {
	for i, c := range name {
		ok := c == '_' || (colon && c == ':') ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return name != ""
}

func labelSignature(sorted []Label) string {
	if len(sorted) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Name)
		b.WriteByte('\x00')
		b.WriteString(l.Value)
		b.WriteByte('\x00')
	}
	return b.String()
}

// Counter is a monotonically increasing integer metric. The zero value is
// usable; all methods are lock-free and safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative increments are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that may go up and down. The zero value is
// usable; all methods are lock-free and safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (use a negative delta to subtract).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// atomicFloat is a float64 with lock-free add, min and max, stored as bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (a *atomicFloat) storeMax(v float64) {
	for {
		old := a.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (a *atomicFloat) storeMin(v float64) {
	for {
		old := a.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
