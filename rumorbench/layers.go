package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"rumornet/internal/core"
	"rumornet/internal/degreedist"
	"rumornet/internal/digg"
	"rumornet/internal/service"
	"rumornet/internal/surface"
)

// scrape reads /metrics into series -> value, keyed by the series text
// before the value (name plus labels), and returns the body size.
func scrape(r *rig) (map[string]float64, int, error) {
	code, raw, err := r.plain(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	if code != http.StatusOK {
		return nil, 0, fmt.Errorf("/metrics status %d", code)
	}
	return parseMetrics(raw), len(raw), nil
}

func parseMetrics(raw []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sumPrefix adds every series whose text starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// scraper polls /metrics once a second, as Prometheus would, through the
// workload's client, recording each scrape's round trip and size.
func scraper(ctx context.Context, r *rig, ph *phase) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			ph.add("rss_mb", rssMB())
			ex, err := r.send(ctx, http.MethodGet, "/metrics", nil, false)
			if err != nil || ex.code != http.StatusOK {
				continue // the scrape is a background observer, not an attempt
			}
			ph.add("scrape_ms", ms(ex.rtt()))
			ph.add("scrape_bytes", float64(len(ex.body)))
		}
	}()
	return func() { cancel(); wg.Wait() }
}

// rtSample is a reading of the Go runtime's own accounting.
type rtSample struct {
	pauseNs, totalAlloc uint64
	sched               *metrics.Float64Histogram
}

func readRuntime() rtSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var h *metrics.Float64Histogram
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h = s[0].Value.Float64Histogram()
	}
	return rtSample{pauseNs: m.PauseTotalNs, totalAlloc: m.TotalAlloc, sched: h}
}

// schedP99 is the 99th percentile, in microseconds, of the goroutine
// scheduling latencies observed between a and b (bucket upper bounds).
func schedP99(a, b rtSample) float64 {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0
	}
	delta := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range delta {
		delta[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank {
			hi := b.sched.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.sched.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// rssMB is the process's current resident set (VmRSS), falling back to
// the runtime's own view of memory obtained from the OS.
func rssMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// direct holds the per-layer numbers the benchmark measures by calling a
// layer's public functions on an idle service after the window.
type direct struct {
	queryCallUS float64 // Service.Query on the walk's points
	evalNS      float64 // surface Eval of the decoded served artifact
	rhsNS       float64 // core Model.RHS on the Digg model
	distMS      float64 // digg.Dist, the scenario build inside service.New
}

func measureDirect(r *rig, seed int64) (*direct, error) {
	const points = 64
	walk := make([]queryPoint, points)
	for i := range walk {
		walk[i] = inHull(seed, i)
	}
	d := &direct{}

	calls := make([]float64, 0, 1000)
	for i := 0; i < cap(calls); i++ {
		q := walk[i%points]
		start := time.Now()
		res, err := r.svc.Query(service.Query{Type: service.JobThreshold,
			Params: service.Params{Eps1: q.eps1, Eps2: q.eps2}})
		calls = append(calls, us(time.Since(start)))
		if err != nil || res.Source != "surface" {
			return nil, fmt.Errorf("direct Service.Query at (%g, %g): %v %s", q.eps1, q.eps2, err, res.Source)
		}
	}
	d.queryCallUS = quantile(calls, 0.5)

	blob, ok := r.rstore.GetSurface(r.surfKey)
	if !ok {
		return nil, fmt.Errorf("served surface %s not in the store", r.surfKey)
	}
	surf, err := surface.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("decode served surface: %w", err)
	}
	coords := make([][]float64, points)
	for i, q := range walk {
		coords[i] = []float64{q.eps1, q.eps2}
	}
	d.evalNS = perOp(2000, func(i int) {
		if _, _, err := surf.Eval(coords[i%points]); err != nil {
			panic(err) // walk points are inside the hull by construction
		}
	})

	sc, err := r.svc.Scenario(service.BuiltinScenario)
	if err != nil {
		return nil, err
	}
	m, err := core.NewModel(sc.Dist(), core.Params{Alpha: 0.01, Eps1: 0.2, Eps2: 0.05,
		Lambda: degreedist.LambdaLinear(0.02), Omega: degreedist.OmegaSaturating(0.5, 0.5)})
	if err != nil {
		return nil, fmt.Errorf("digg model: %w", err)
	}
	y, err := m.UniformIC(0.1)
	if err != nil {
		return nil, err
	}
	dydt := make([]float64, len(y))
	d.rhsNS = perOp(1000, func(int) { m.RHS(0, y, dydt) })

	start := time.Now()
	if _, err := digg.Dist(rand.New(rand.NewSource(1))); err != nil {
		return nil, fmt.Errorf("digg dist: %w", err)
	}
	d.distMS = ms(time.Since(start))
	return d, nil
}

// perOp times fn in 15 batches of n calls and returns the median batch's
// nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	batches := make([]float64, 15)
	for b := range batches {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		batches[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return quantile(batches, 0.5)
}
