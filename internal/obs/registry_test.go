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

// TestHistogramBucketsAndQuantiles: a registered histogram renders
// cumulative counts at power-of-two le bounds ([lo, hi) buckets, so a
// sample exactly at a power of two counts toward the next bound) and
// reads quantiles within the layout's relative error.
func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency")
	for _, v := range []float64{0.5, 1, 1.5, 3, 8} {
		h.Record(v)
	}
	if h.Count() != 5 || h.Sum() != 14 || h.Min() != 0.5 || h.Max() != 8 {
		t.Fatalf("count/sum/min/max = %d/%g/%g/%g, want 5/14/0.5/8",
			h.Count(), h.Sum(), h.Min(), h.Max())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_seconds_bucket{le="0.5"} 0`,
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="2"} 3`,
		`lat_seconds_bucket{le="4"} 4`,
		`lat_seconds_bucket{le="8"} 4`,
		`lat_seconds_bucket{le="16"} 5`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 14`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	// Rank ceil(0.5·5) = 3 is the 1.5; rank 5 is the exact max.
	if q := h.Quantile(0.5); math.Abs(q-1.5)/1.5 > h.RelativeError() {
		t.Errorf("p50 = %g, want 1.5 within %g", q, h.RelativeError())
	}
	if q := h.Quantile(0.99); q != 8 {
		t.Errorf("p99 = %g, want 8 (observed max)", q)
	}
}

// TestHistogramDefaultBuckets: every histogram renders the one layout —
// 32 finite le bounds, 2^-20 … 2^11 s, then +Inf.
func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	r.Histogram("a_seconds", "a").Record(math.Inf(1))
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var les []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if i := strings.Index(line, `le="`); i >= 0 {
			les = append(les, line[i+len(`le="`):strings.LastIndexByte(line, '"')])
		}
	}
	if len(les) != 33 || les[0] != formatFloat(math.Ldexp(1, -20)) || les[31] != "2048" || les[32] != "+Inf" {
		t.Fatalf("le bounds = %v, want 2^-20 … 2048 then +Inf", les)
	}
	for i := 1; i < 32; i++ {
		if want := formatFloat(math.Ldexp(1, i-20)); les[i] != want {
			t.Errorf("le[%d] = %s, want %s", i, les[i], want)
		}
	}
	if !strings.Contains(sb.String(), "a_seconds_overflow_total 1\n") {
		t.Errorf("+Inf observation not counted as overflow:\n%s", sb.String())
	}
}

func TestRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_name", "")
	for name, fn := range map[string]func(){
		"bad metric name": func() { r.Counter("1bad", "") },
		"bad label name":  func() { r.Counter("ok2", "", L("le$", "x")) },
		"colon in label":  func() { r.Counter("ok3", "", L("a:b", "x")) },
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
	h := r.Histogram("lat_seconds", "latency", L("op", "x"))
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
				h.Record(float64(i%100) / 100)
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
				r.Histogram("latency_seconds", "latency", lbl).Record(0.01)
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
