package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("jobs_total", "jobs"); again != c {
		t.Error("re-registration did not return the existing counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 8} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 14 {
		t.Errorf("sum = %g, want 14", h.Sum())
	}
	if h.Max() != 8 {
		t.Errorf("max = %g, want 8", h.Max())
	}
	// le-semantics: 1.0 lands in the le="1" bucket.
	wantCounts := []int64{2, 1, 1, 1} // (≤1], (1,2], (2,4], +Inf
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d count = %d, want %d", i, got, want)
		}
	}
	// Median rank 2.5 falls in the first bucket ((0,1], 2 samples span
	// ranks 0–2) — no: cumulative 2 < 2.5, so it interpolates in (1,2].
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("p50 = %g, want within (1, 2]", q)
	}
	// p99 rank 4.95 is in the overflow bucket -> clamps to the max.
	if q := h.Quantile(0.99); q != 8 {
		t.Errorf("p99 = %g, want 8 (observed max)", q)
	}
	if q := NewHistogram(nil).Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", q)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	h := NewHistogram(nil)
	if len(h.upper) != len(DefBuckets) {
		t.Fatalf("default buckets: %d, want %d", len(h.upper), len(DefBuckets))
	}
	h.Observe(math.Inf(1))
	if got := h.counts[len(h.upper)].Load(); got != 1 {
		t.Errorf("+Inf observation not in overflow bucket")
	}
}

func TestRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_name", "")
	for name, fn := range map[string]func(){
		"bad metric name": func() { r.Counter("1bad", "") },
		"bad label name":  func() { r.Counter("ok2", "", L("le$", "x")) },
		"type conflict":   func() { r.Gauge("ok_name", "") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

// TestConcurrentScrape hammers every metric type from many goroutines
// while scrapes run concurrently; under -race (tier 2) this is the
// data-race gate for the registry, and it sanity-checks the final totals.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "hits", L("kind", "a"))
	g := r.Gauge("temp", "gauge under churn")
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1}, L("op", "x"))
	r.GaugeFunc("derived", "computed at scrape", func() float64 { return float64(c.Value()) })

	const (
		writers = 8
		perG    = 2000
		scrapes = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	if got := c.Value(); got != writers*perG {
		t.Errorf("counter = %d, want %d", got, writers*perG)
	}
	if got := h.Count(); got != writers*perG {
		t.Errorf("histogram count = %d, want %d", got, writers*perG)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `hits_total{kind="a"} 16000`) {
		t.Errorf("final scrape missing settled counter:\n%s", sb.String())
	}
}

// TestValidateBuckets is the registration-time layout gate: non-monotonic,
// empty and non-finite bucket slices must be rejected with a clear error
// before any observation can be misbinned, while nil stays the DefBuckets
// shorthand.
func TestValidateBuckets(t *testing.T) {
	cases := []struct {
		name    string
		buckets []float64
		ok      bool
	}{
		{"nil selects defaults", nil, true},
		{"single bucket", []float64{1}, true},
		{"ascending", []float64{0.01, 0.1, 1, 10}, true},
		{"negative bounds ascending", []float64{-5, -1, 0, 2}, true},
		{"empty non-nil", []float64{}, false},
		{"descending", []float64{1, 0.1}, false},
		{"duplicate bound", []float64{1, 1, 2}, false},
		{"plateau mid-slice", []float64{0.1, 5, 5, 9}, false},
		{"explicit +Inf", []float64{1, 2, math.Inf(1)}, false},
		{"-Inf bound", []float64{math.Inf(-1), 0, 1}, false},
		{"NaN bound", []float64{1, math.NaN(), 3}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateBuckets(tc.buckets)
			if tc.ok && err != nil {
				t.Errorf("ValidateBuckets(%v) = %v, want nil", tc.buckets, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("ValidateBuckets(%v) accepted a malformed layout", tc.buckets)
			}
		})
	}
}

func TestNewHistogramRejectsBadBuckets(t *testing.T) {
	for name, buckets := range map[string][]float64{
		"empty":        {},
		"non-monotone": {2, 1},
		"infinite":     {1, math.Inf(1)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected a registration panic")
				}
			}()
			NewHistogram(buckets)
		})
	}
}

// TestConcurrentFirstRegistration is the race gate for lazily registered
// series, the way the HTTP middleware registers a route's counter on its
// first request: many goroutines register the same new labelled series at
// once while scrapes and snapshots render the registry. Every caller must
// get the one shared instrument, and no render may see a half-built series.
func TestConcurrentFirstRegistration(t *testing.T) {
	r := NewRegistry()
	const (
		routes  = 8
		callers = 16
	)
	stop := make(chan struct{})
	var renders sync.WaitGroup
	renders.Add(1)
	go func() {
		defer renders.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			_ = r.Snapshot()
		}
	}()

	var wg sync.WaitGroup
	got := make([][]*Counter, routes)
	for route := 0; route < routes; route++ {
		got[route] = make([]*Counter, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(route, c int) {
				defer wg.Done()
				lbl := L("route", fmt.Sprintf("/r%d", route))
				ctr := r.Counter("requests_total", "requests", lbl, L("code", "200"))
				ctr.Inc()
				got[route][c] = ctr
				r.Gauge("inflight", "in flight", lbl).Add(1)
				r.Histogram("latency_seconds", "latency", nil, lbl).Observe(0.01)
				r.GaugeFunc("route_up", "route registered", func() float64 { return 1 }, lbl)
			}(route, c)
		}
	}
	wg.Wait()
	close(stop)
	renders.Wait()

	for route, ctrs := range got {
		for c, ctr := range ctrs {
			if ctr != ctrs[0] {
				t.Fatalf("route %d caller %d got a second counter instance", route, c)
			}
		}
		if v := ctrs[0].Value(); v != callers {
			t.Errorf("route %d counter = %d, want %d", route, v, callers)
		}
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for route := 0; route < routes; route++ {
		want := fmt.Sprintf(`requests_total{code="200",route="/r%d"} %d`, route, callers)
		if !strings.Contains(out, want) {
			t.Errorf("final scrape missing %s", want)
		}
		want = fmt.Sprintf(`latency_seconds_count{route="/r%d"} %d`, route, callers)
		if !strings.Contains(out, want) {
			t.Errorf("final scrape missing %s", want)
		}
	}
}
