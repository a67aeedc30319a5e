package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// buildRegistry populates a registry the way a worker node does: counters
// with and without labels, a gauge, a gauge-func and a histogram.
func buildRegistry(jobs int64, goroutines float64, obs ...float64) *Registry {
	r := NewRegistry()
	r.Counter("rumor_jobs_executed_total", "jobs").Add(jobs)
	r.Counter("rumor_invariant_violations_total", "trips", L("check", "theta_range")).Add(2)
	r.Gauge("rumor_queue_depth", "depth").Set(3)
	r.GaugeFunc("rumor_runtime_goroutines", "goroutines", func() float64 { return goroutines })
	h := r.Histogram("rumor_abm_step_seconds", "steps")
	for _, v := range obs {
		h.Record(v)
	}
	return r
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := buildRegistry(5, 7, 0.05, 0.5, 2).Snapshot()

	// The snapshot is JSON-able: the relay ships it inside heartbeat bodies.
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := back.WritePrometheus(&sb, nil); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# TYPE rumor_jobs_executed_total counter",
		"rumor_jobs_executed_total 5",
		`rumor_invariant_violations_total{check="theta_range"} 2`,
		"rumor_queue_depth 3",
		"rumor_runtime_goroutines 7", // gauge-funcs travel as plain gauges
		`rumor_abm_step_seconds_bucket{le="0.0625"} 1`,
		`rumor_abm_step_seconds_bucket{le="1"} 2`,
		`rumor_abm_step_seconds_bucket{le="2"} 2`,
		`rumor_abm_step_seconds_bucket{le="4"} 3`,
		`rumor_abm_step_seconds_bucket{le="+Inf"} 3`,
		"rumor_abm_step_seconds_count 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendered snapshot missing %q:\n%s", want, got)
		}
	}
}

func TestSnapshotRename(t *testing.T) {
	snap := buildRegistry(1, 1).Snapshot()
	var sb strings.Builder
	rename := func(name string) string { return "rumor_worker_" + strings.TrimPrefix(name, "rumor_") }
	if err := snap.WritePrometheus(&sb, rename, L("worker", "w-1")); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`rumor_worker_jobs_executed_total{worker="w-1"} 1`,
		// The extra label lands after the series' own labels.
		`rumor_worker_invariant_violations_total{check="theta_range",worker="w-1"} 2`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("renamed render missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "rumor_jobs_executed_total") {
		t.Error("rename left an un-prefixed family behind")
	}
}

// TestSnapshotLabelAntiSpoof: a series that already carries a label of the
// injected name keeps its own value — a worker cannot impersonate another
// by pre-labelling its series worker="other".
func TestSnapshotLabelAntiSpoof(t *testing.T) {
	r := NewRegistry()
	r.Counter("rumor_sneaky_total", "spoof", L("worker", "other")).Add(9)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb, nil, L("worker", "w-real")); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, `{worker="other"}`) || strings.Contains(got, "w-real") {
		t.Errorf("injected label overrode the series' own:\n%s", got)
	}
}

// TestSnapshotRenameRejectsInvalidNames: a hostile relay cannot corrupt the
// scrape with a family name outside the Prometheus charset.
func TestSnapshotRenameRejectsInvalidNames(t *testing.T) {
	snap := Snapshot{{Name: `bad"name{}`, Type: "counter",
		Series: []SeriesSnapshot{{Counter: ptrInt64(1)}}}}
	var sb strings.Builder
	if err := snap.WritePrometheus(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("invalid family rendered anyway:\n%s", sb.String())
	}
}

func ptrInt64(v int64) *int64 { return &v }

func TestMergeSnapshots(t *testing.T) {
	a := buildRegistry(5, 7, 0.05).Snapshot()
	b := buildRegistry(3, 4, 0.5, 2).Snapshot()
	merged := MergeSnapshots(a, b)

	var sb strings.Builder
	if err := merged.WritePrometheus(&sb, nil); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"rumor_jobs_executed_total 8", // counters sum
		"rumor_queue_depth 6",         // gauges sum too: fleet totals
		"rumor_runtime_goroutines 11",
		`rumor_abm_step_seconds_bucket{le="+Inf"} 3`, // histograms bucket-merge
		"rumor_abm_step_seconds_count 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("merged render missing %q:\n%s", want, got)
		}
	}

	// Max takes the max across workers.
	for _, f := range merged {
		if f.Name == "rumor_abm_step_seconds" {
			if max := f.Series[0].Histogram.Max; max != 2 {
				t.Errorf("merged histogram max = %g, want 2", max)
			}
		}
	}
}

// TestMergeSnapshotsLossless is the fleet merge: two workers' snapshots,
// each through the relay's JSON wire form, merge into a histogram with the
// same quantiles as one HDR fed both workers' samples.
func TestMergeSnapshotsLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b []float64
	for i := 0; i < 5000; i++ {
		a = append(a, 1e-3*math.Exp(rng.NormFloat64()))
		b = append(b, 5e-2*math.Exp(0.5*rng.NormFloat64()))
	}
	single := NewHDR()
	for _, v := range append(append([]float64(nil), a...), b...) {
		single.Record(v)
	}
	wire := func(samples []float64) Snapshot {
		blob, err := json.Marshal(buildRegistry(1, 1, samples...).Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		return back
	}
	var fleet *HDR
	for _, f := range MergeSnapshots(wire(a), wire(b)) {
		if f.Name == "rumor_abm_step_seconds" {
			fleet = hdrOf(f.Series[0].Histogram)
		}
	}
	if fleet == nil || fleet.Count() != single.Count() {
		t.Fatalf("fleet histogram %v, want %d samples", fleet, single.Count())
	}
	for _, p := range quantilePoints {
		if got, want := fleet.Quantile(p), single.Quantile(p); got != want {
			t.Errorf("p=%g: fleet %g, single %g", p, got, want)
		}
	}
}

// hdrOf rebuilds the HDR a histogram snapshot describes, so tests can read
// its quantiles.
func hdrOf(hs *HistogramSnapshot) *HDR {
	h := NewHDR()
	for _, p := range hs.Buckets {
		h.counts[p[0]].Add(p[1])
		h.total.Add(p[1])
	}
	if h.total.Load() > 0 {
		h.under.Store(hs.Under)
		h.sum.store(hs.Sum)
		h.vmin.store(hs.Min)
		h.vmax.store(hs.Max)
	}
	return h
}

// TestHistogramSnapshotWire: the relay's JSON form carries a histogram
// exactly, and the decoder drops what another process must not be trusted
// with — out-of-range or non-ascending indices, non-positive counts,
// counts past maxRelayCount, and an underflow above bucket 0's count.
func TestHistogramSnapshotWire(t *testing.T) {
	h := NewHDR()
	for _, v := range []float64{0, 3e-7, 1e-4, 0.02, 0.02, 1.5, 5000} {
		h.Record(v)
	}
	blob, err := json.Marshal(h.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var hs HistogramSnapshot
	if err := json.Unmarshal(blob, &hs); err != nil {
		t.Fatal(err)
	}
	back := hdrOf(&hs)
	if back.Count() != h.Count() || back.Sum() != h.Sum() || back.Min() != h.Min() ||
		back.Max() != h.Max() || back.Underflow() != 2 || back.Overflow() != 1 {
		t.Fatalf("round trip: count/sum/min/max/under/over %d/%g/%g/%g/%d/%d, want %d/%g/%g/%g/2/1",
			back.Count(), back.Sum(), back.Min(), back.Max(), back.Underflow(), back.Overflow(),
			h.Count(), h.Sum(), h.Min(), h.Max())
	}
	for _, p := range quantilePoints {
		if back.Quantile(p) != h.Quantile(p) {
			t.Errorf("p=%g: decoded %g, want %g", p, back.Quantile(p), h.Quantile(p))
		}
	}

	hostile := `{"buckets":[[-1,5],[4096,5],[99999,1],[10,-3],[11,0],[12,2],[12,7],[5,1],` +
		`[13,1099511627775]],"under":9,"sum":1,"min":0,"max":1}`
	if err := json.Unmarshal([]byte(hostile), &hs); err != nil {
		t.Fatal(err)
	}
	if len(hs.Buckets) != 1 || hs.Buckets[0] != [2]int64{12, 2} || hs.Under != 0 {
		t.Errorf("hostile decode = %+v, want only the first [12,2] pair and no underflow", hs)
	}
}

// TestHistogramQuantileEdges: a relayed histogram keeps the distribution
// edges exact — after a snapshot, the JSON wire form and a fleet merge
// with an empty peer, every quantile of an empty histogram, a single
// observation, all mass in one bucket and an overflowed sample equals the
// recording histogram's own.
func TestHistogramQuantileEdges(t *testing.T) {
	for name, samples := range map[string][]float64{
		"empty":                  nil,
		"single":                 {0.0042},
		"all-mass-one-bucket":    {0.001, 0.001, 0.001, 0.001},
		"overflow-clamps-to-max": {0.5, 5000},
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("rumor_h_seconds", "h")
			for _, v := range samples {
				h.Record(v)
			}
			blob, err := json.Marshal(r.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var wire Snapshot
			if err := json.Unmarshal(blob, &wire); err != nil {
				t.Fatal(err)
			}
			peer := NewRegistry()
			peer.Histogram("rumor_h_seconds", "h") // registered, never recorded
			merged := MergeSnapshots(peer.Snapshot(), wire)
			var relayed *HDR
			for _, f := range merged {
				if f.Name == "rumor_h_seconds" {
					relayed = hdrOf(f.Series[0].Histogram)
				}
			}
			if relayed == nil {
				t.Fatal("histogram family lost in the relay")
			}
			for _, p := range quantilePoints {
				if got, want := relayed.Quantile(p), h.Quantile(p); got != want {
					t.Errorf("p=%g: relayed %g, recorded %g", p, got, want)
				}
			}
			if relayed.Count() != h.Count() || relayed.Max() != h.Max() {
				t.Errorf("relayed count/max %d/%g, recorded %d/%g",
					relayed.Count(), relayed.Max(), h.Count(), h.Max())
			}
		})
	}
}

// TestSnapshotRelayValidation: a relayed snapshot cannot inject samples
// or break the page through its family type or label names — the
// offending family or series is skipped on render and on merge.
func TestSnapshotRelayValidation(t *testing.T) {
	snap := Snapshot{
		{Name: "rumor_x_total", Type: "counter\nrumor_injected 42",
			Series: []SeriesSnapshot{{Counter: ptrInt64(1)}}},
		{Name: "rumor_y", Type: "gauge", Series: []SeriesSnapshot{
			{Labels: []Label{{Name: `a"}b`, Value: "v"}}, Gauge: ptrFloat64(1)},
			{Labels: []Label{{Name: "a", Value: "1"}, {Name: "a", Value: "2"}}, Gauge: ptrFloat64(2)},
			{Labels: []Label{{Name: "ok", Value: "v"}}, Gauge: ptrFloat64(3)},
			{Labels: []Label{{Name: "kind", Value: "counter"}}, Counter: ptrInt64(4)},
			{Labels: []Label{{Name: "a:b", Value: "v"}}, Gauge: ptrFloat64(5)},
		}},
	}
	for name, s := range map[string]Snapshot{"render": snap, "merge": MergeSnapshots(snap)} {
		var sb strings.Builder
		if err := s.WritePrometheus(&sb, nil, L("worker", "w")); err != nil {
			t.Fatal(err)
		}
		want := "# TYPE rumor_y gauge\n" + `rumor_y{ok="v",worker="w"} 3` + "\n"
		if got := sb.String(); got != want {
			t.Errorf("%s: got\n%s\nwant\n%s", name, got, want)
		}
	}
}

func ptrFloat64(v float64) *float64 { return &v }

func TestSnapshotWithLabel(t *testing.T) {
	orig := buildRegistry(1, 1).Snapshot()
	labelled := orig.WithLabel(L("worker", "w-9"))

	// The original is untouched (deep-enough copy).
	for _, f := range orig {
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Name == "worker" {
					t.Fatalf("WithLabel mutated the source snapshot: %+v", s.Labels)
				}
			}
		}
	}
	for _, f := range labelled {
		for _, s := range f.Series {
			found := false
			for _, l := range s.Labels {
				found = found || (l.Name == "worker" && l.Value == "w-9")
			}
			if !found {
				t.Errorf("family %s series %v missing the injected label", f.Name, s.Labels)
			}
		}
	}
}
