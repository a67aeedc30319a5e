// Package loadgen is rumord's open-loop load generator (DESIGN.md §14):
// it offers requests to the POST /v1/jobs → poll API at a constant
// configured rate — on a schedule fixed before the server's behaviour is
// known — and measures every latency from the request's *scheduled* send
// time, not the moment the client got around to sending it.
//
// The open-loop discipline is the whole point. A closed-loop driver (N
// workers, each submitting the moment the previous response lands) slows
// its own offered rate exactly when the server stalls, so the stall
// swallows the requests that would have recorded it — Gil Tene's
// "coordinated omission". Measuring from the scheduled tick instead means
// a request that spent 900ms waiting for an in-flight slot plus 100ms on
// the wire reports one second, which is precisely what a user arriving at
// that tick would have experienced. Past saturation the measured latency
// then grows without bound — the signal the saturation detector and the
// BENCH_PR9 sweep exist to capture — instead of plateauing at a
// comfortable lie.
//
// Latencies land in obs.HDR histograms (bounded relative error at every
// scale, lossless merge), one per endpoint: the submit round trip, the
// end-to-end submit→terminal path, and the three server-attributed
// segments relayed back on the terminal job record.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rumornet/internal/obs"
)

// Endpoint names recorded per phase. "submit" is the POST round trip,
// "e2e" scheduled-send→terminal-status, "query" the GET /v1/query round
// trip (surface hits answer inside it; fallbacks additionally ride the
// e2e histogram), and the segment: entries are the server's own
// attribution relayed on the terminal job record.
const (
	EndpointSubmit = "submit"
	EndpointE2E    = "e2e"
	EndpointQuery  = "query"
	SegQueueWait   = "segment:queue_wait"
	SegExecute     = "segment:execute"
	SegSerialize   = "segment:serialize"
)

var endpoints = []string{EndpointSubmit, EndpointE2E, EndpointQuery, SegQueueWait, SegExecute, SegSerialize}

// Query-surface grid bounds: BuildQuerySurface constructs the threshold
// eps1 x eps2 surface over exactly this hull, and queryURL samples inside
// it (hits) or far outside it (forced fallbacks).
const (
	querySurfEps1Min, querySurfEps1Max = 0.10, 0.40
	querySurfEps2Min, querySurfEps2Max = 0.02, 0.10
	querySurfPoints                    = 4
)

// MixEntry weights one job type in the offered traffic.
type MixEntry struct {
	Type   string // "ode", "threshold", "abm", "fbsm"
	Weight int
}

// Phase is one constant-rate segment of the sweep.
type Phase struct {
	Name     string        // artifact label, e.g. "r25"
	Rate     float64       // offered requests per second
	Duration time.Duration // dispatch window (completions may drain past it)
}

// Config parameterizes a run. The zero value is not usable; fill BaseURL
// (or drive an httptest server) and call Run.
type Config struct {
	// BaseURL is the rumord root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client (default: http.DefaultClient with
	// sensible connection reuse left to the transport).
	Client *http.Client
	// Mix weights the offered job types (default: 100% ode).
	Mix []MixEntry
	// Scenario is the scenario name every request targets. Empty targets
	// the server's built-in Digg2009 scenario — heavyweight jobs; register
	// and point at a small one for high-rate sweeps (see EnsureScenario).
	Scenario string
	// HotFraction of requests draw their seed from a small hot set of
	// HotKeys distinct values, so they hit the result cache after first
	// touch; the rest get a unique seed and always execute (cache-cold).
	HotFraction float64
	// HotKeys is the size of the hot key set (default 8).
	HotKeys int
	// QueryFraction routes this share of scheduled requests to the
	// GET /v1/query interpolated-answer path instead of submit→poll; call
	// BuildQuerySurface first or every query falls back to an exact job.
	QueryFraction float64
	// QueryFallbackFraction of the query requests aim outside the covered
	// region on purpose, so a sweep prices the fallback path alongside the
	// hits. The rest sample strictly inside the surface hull.
	QueryFallbackFraction float64
	// MaxInFlight bounds concurrently outstanding requests (default 512).
	// A request that had to wait for a slot still measures from its
	// scheduled tick — the wait IS latency, not an excuse.
	MaxInFlight int
	// PollInterval is the GET /v1/jobs/{id} poll cadence (default 2ms).
	PollInterval time.Duration
	// Progress, when non-nil, receives one human-readable line per phase.
	Progress io.Writer
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if len(c.Mix) == 0 {
		c.Mix = []MixEntry{{Type: "ode", Weight: 1}}
	}
	if c.HotKeys <= 0 {
		c.HotKeys = 8
	}
	if c.HotFraction < 0 {
		c.HotFraction = 0
	} else if c.HotFraction > 1 {
		c.HotFraction = 1
	}
	if c.QueryFraction < 0 {
		c.QueryFraction = 0
	} else if c.QueryFraction > 1 {
		c.QueryFraction = 1
	}
	if c.QueryFallbackFraction < 0 {
		c.QueryFallbackFraction = 0
	} else if c.QueryFallbackFraction > 1 {
		c.QueryFallbackFraction = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 512
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Millisecond
	}
	return c
}

// EndpointStats is one endpoint's latency summary within a phase, all in
// milliseconds. RelErrPct bounds the quantile estimation error inherited
// from the HDR bucket width (the extremes are exact).
type EndpointStats struct {
	Endpoint  string  `json:"endpoint"`
	Count     int64   `json:"count"`
	MeanMS    float64 `json:"mean_ms"`
	P50MS     float64 `json:"p50_ms"`
	P90MS     float64 `json:"p90_ms"`
	P99MS     float64 `json:"p99_ms"`
	P999MS    float64 `json:"p999_ms"`
	MaxMS     float64 `json:"max_ms"`
	RelErrPct float64 `json:"rel_err_pct"`
}

// PhaseResult is one phase's outcome: offered vs achieved rate, outcome
// counts, the server's saturation verdict, and per-endpoint quantiles.
// Rejected counts submissions the server shed with 503 (queue full or
// draining) — deliberate admission control under overload, reported apart
// from Errors so a sweep past saturation doesn't read as broken.
type PhaseResult struct {
	Phase       string  `json:"phase"`
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	DurationS   float64 `json:"duration_s"` // dispatch window
	DrainS      float64 `json:"drain_s"`    // dispatch start -> last completion
	Requests    int64   `json:"requests"`
	Completed   int64   `json:"completed"`
	CacheHits   int64   `json:"cache_hits"`
	// SurfaceHits / SurfaceFallbacks split the query-mix traffic: answered
	// by interpolation vs routed to the exact-job fallback.
	SurfaceHits      int64           `json:"surface_hits"`
	SurfaceFallbacks int64           `json:"surface_fallbacks"`
	Rejected         int64           `json:"rejected"`
	Errors           int64           `json:"errors"`
	Saturated        bool            `json:"saturated"` // rumor_saturated seen 1 during the phase
	Endpoints        []EndpointStats `json:"endpoints"`
}

// Result is a whole sweep.
type Result struct {
	Target string        `json:"target"`
	Phases []PhaseResult `json:"phases"`
}

// recorders hold one HDR per endpoint; the map is fixed at construction
// and HDR recording is lock-free, so request goroutines share it directly.
type recorders struct {
	hdrs map[string]*obs.HDR
}

func newRecorders() *recorders {
	r := &recorders{hdrs: make(map[string]*obs.HDR, len(endpoints))}
	for _, ep := range endpoints {
		r.hdrs[ep] = obs.NewHDR()
	}
	return r
}

func (r *recorders) record(endpoint string, d time.Duration) {
	r.hdrs[endpoint].Record(d.Seconds())
}

func (r *recorders) stats() []EndpointStats {
	out := make([]EndpointStats, 0, len(endpoints))
	for _, ep := range endpoints {
		h := r.hdrs[ep]
		if h.Count() == 0 {
			continue
		}
		out = append(out, EndpointStats{
			Endpoint:  ep,
			Count:     h.Count(),
			MeanMS:    h.Mean() * 1e3,
			P50MS:     h.Quantile(0.50) * 1e3,
			P90MS:     h.Quantile(0.90) * 1e3,
			P99MS:     h.Quantile(0.99) * 1e3,
			P999MS:    h.Quantile(0.999) * 1e3,
			MaxMS:     h.Max() * 1e3,
			RelErrPct: h.RelativeError() * 100,
		})
	}
	return out
}

// Generator runs sweeps against one target.
type Generator struct {
	cfg  Config
	cold atomic.Int64 // unique-seed counter across the whole run
}

// New builds a Generator after applying Config defaults.
func New(cfg Config) *Generator {
	return &Generator{cfg: cfg.withDefaults()}
}

// EnsureScenario registers a deliberately small scenario (600-node degree
// mix) under the configured name so high-rate sweeps measure the serving
// stack, not 71k-user solves. Safe to call against a server that already
// has it (409 is success); a no-op when Config.Scenario is empty.
func (g *Generator) EnsureScenario(ctx context.Context) error {
	if g.cfg.Scenario == "" {
		return nil
	}
	body := fmt.Sprintf(`{"name":%q,"degrees":[2,4,8],"probs":[0.5,0.3,0.2]}`, g.cfg.Scenario)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		g.cfg.BaseURL+"/v1/scenarios", strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: register scenario: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("loadgen: register scenario: unexpected status %d", resp.StatusCode)
	}
	return nil
}

// Run executes the phases in order and returns the sweep result. Phases
// share the generator's cold-key counter (a cold key never repeats across
// phases) but record into fresh histograms each.
func (g *Generator) Run(ctx context.Context, phases []Phase) (*Result, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("loadgen: no phases")
	}
	res := &Result{Target: g.cfg.BaseURL}
	for _, ph := range phases {
		pr, err := g.runPhase(ctx, ph)
		if err != nil {
			return res, err
		}
		res.Phases = append(res.Phases, *pr)
		if w := g.cfg.Progress; w != nil {
			fmt.Fprintf(w, "phase %-8s offered %7.1f rps  achieved %7.1f rps  p99 %s  shed %d  errors %d  saturated=%v\n",
				pr.Phase, pr.OfferedRPS, pr.AchievedRPS, p99String(pr), pr.Rejected, pr.Errors, pr.Saturated)
		}
	}
	return res, nil
}

func p99String(pr *PhaseResult) string {
	for _, ep := range pr.Endpoints {
		if ep.Endpoint == EndpointE2E {
			return fmt.Sprintf("%.1fms", ep.P99MS)
		}
	}
	return "n/a"
}

func (g *Generator) runPhase(ctx context.Context, ph Phase) (*PhaseResult, error) {
	if ph.Rate <= 0 || ph.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: phase %q needs positive rate and duration", ph.Name)
	}
	n := int(math.Round(ph.Rate * ph.Duration.Seconds()))
	if n < 1 {
		n = 1
	}
	rec := newRecorders()
	pr := &PhaseResult{
		Phase:      ph.Name,
		OfferedRPS: ph.Rate,
		DurationS:  ph.Duration.Seconds(),
		Requests:   int64(n),
	}
	var (
		completed atomic.Int64
		cacheHits atomic.Int64
		surfHits  atomic.Int64
		surfFalls atomic.Int64
		rejected  atomic.Int64
		errs      atomic.Int64
		saturated atomic.Bool
		wg        sync.WaitGroup
	)
	sem := make(chan struct{}, g.cfg.MaxInFlight)
	interval := time.Duration(float64(time.Second) / ph.Rate)
	qi := 0 // query-request index, advanced only on query dispatches
	start := time.Now()

	// Saturation sampler: the gauge can flip mid-phase and (with a short
	// window) flip back before the drain ends, so poll while dispatching.
	samplerCtx, stopSampler := context.WithCancel(ctx)
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-samplerCtx.Done():
				return
			case <-t.C:
				if g.scrapeSaturated(samplerCtx) {
					saturated.Store(true)
				}
			}
		}
	}()

	for i := 0; i < n; i++ {
		scheduled := start.Add(time.Duration(i) * interval)
		if d := time.Until(scheduled); d > 0 {
			select {
			case <-ctx.Done():
				stopSampler()
				samplerWG.Wait()
				return nil, ctx.Err()
			case <-time.After(d):
			}
		}
		// Dispatch never blocks on the in-flight bound: the goroutine
		// acquires its slot itself, and the wait is part of the measured
		// latency because the clock started at `scheduled`.
		if g.isQuery(i) {
			u := g.queryURL(qi)
			qi++
			wg.Add(1)
			go func(scheduled time.Time, u string) {
				defer wg.Done()
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					errs.Add(1)
					return
				}
				defer func() { <-sem }()
				o, err := g.queryOne(ctx, scheduled, u, rec)
				switch {
				case err != nil:
					errs.Add(1)
				case o == outcomeSurfaceHit:
					surfHits.Add(1)
					completed.Add(1)
				case o == outcomeShed:
					rejected.Add(1)
				default:
					surfFalls.Add(1)
					completed.Add(1)
				}
			}(scheduled, u)
			continue
		}
		body := g.requestBody(i)
		wg.Add(1)
		go func(scheduled time.Time, body []byte) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs.Add(1)
				return
			}
			defer func() { <-sem }()
			o, err := g.one(ctx, scheduled, body, rec)
			switch {
			case err != nil:
				errs.Add(1)
			case o == outcomeHit:
				cacheHits.Add(1)
				completed.Add(1)
			case o == outcomeShed:
				rejected.Add(1)
			default:
				completed.Add(1)
			}
		}(scheduled, body)
	}
	wg.Wait()
	drain := time.Since(start)
	// One final scrape after the drain: with a generous window the gauge
	// holds its verdict well past the burst that caused it.
	if g.scrapeSaturated(ctx) {
		saturated.Store(true)
	}
	stopSampler()
	samplerWG.Wait()

	pr.DrainS = drain.Seconds()
	pr.Completed = completed.Load()
	pr.CacheHits = cacheHits.Load()
	pr.SurfaceHits = surfHits.Load()
	pr.SurfaceFallbacks = surfFalls.Load()
	pr.Rejected = rejected.Load()
	pr.Errors = errs.Load()
	pr.Saturated = saturated.Load()
	if drain > 0 {
		pr.AchievedRPS = float64(pr.Completed) / drain.Seconds()
	}
	pr.Endpoints = rec.stats()
	return pr, nil
}

// requestBody builds the i-th request deterministically: the mix rotates
// by cumulative weight, and the hot/cold split interleaves evenly (request
// i is hot iff the running hot quota crosses an integer at i).
func (g *Generator) requestBody(i int) []byte {
	total := 0
	for _, m := range g.cfg.Mix {
		total += m.Weight
	}
	slot := i % total
	var typ string
	for _, m := range g.cfg.Mix {
		if slot < m.Weight {
			typ = m.Type
			break
		}
		slot -= m.Weight
	}

	hot := int(float64(i+1)*g.cfg.HotFraction) > int(float64(i)*g.cfg.HotFraction)
	var seed int64
	if hot {
		seed = int64(i%g.cfg.HotKeys) + 1
	} else {
		seed = 1_000_000 + g.cold.Add(1) // disjoint from the hot range
	}

	var b bytes.Buffer
	b.WriteString(`{"type":"`)
	b.WriteString(typ)
	b.WriteString(`"`)
	if g.cfg.Scenario != "" {
		fmt.Fprintf(&b, `,"scenario":%q`, g.cfg.Scenario)
	}
	// Small fixed parameter sets per type, so the cache key varies only
	// with the seed: hot seeds repeat (hits), cold seeds never do.
	switch typ {
	case "threshold":
		fmt.Fprintf(&b, `,"params":{"r0":1.6,"tf":30,"seed":%d}}`, seed)
	case "abm":
		fmt.Fprintf(&b, `,"params":{"lambda0":0.05,"tf":10,"trials":1,"nodes":400,"seed":%d}}`, seed)
	case "fbsm":
		fmt.Fprintf(&b, `,"params":{"lambda0":0.05,"tf":20,"grid":120,"eps_max":0.6,"seed":%d}}`, seed)
	default: // ode
		fmt.Fprintf(&b, `,"params":{"lambda0":0.02,"tf":40,"points":50,"seed":%d}}`, seed)
	}
	return b.Bytes()
}

// jobView is the slice of the job record the generator reads back.
type jobView struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error"`
	Latency  *struct {
		QueueWaitMS float64 `json:"queue_wait_ms"`
		ExecuteMS   float64 `json:"execute_ms"`
		SerializeMS float64 `json:"serialize_ms"`
	} `json:"latency"`
}

func terminal(status string) bool {
	switch status {
	case "succeeded", "failed", "cancelled":
		return true
	}
	return false
}

// outcome classifies one completed request.
type outcome int

const (
	outcomeDone       outcome = iota // executed to terminal success
	outcomeHit                       // answered synchronously from the result cache
	outcomeShed                      // shed by admission control (503: queue full / draining / saturated)
	outcomeSurfaceHit                // answered by surface interpolation
	outcomeFallback                  // query fell back to the exact job path
)

// isQuery decides whether the i-th scheduled request goes to the query
// endpoint, interleaving evenly at QueryFraction (same integer-crossing
// trick as the hot/cold split).
func (g *Generator) isQuery(i int) bool {
	f := g.cfg.QueryFraction
	return int(float64(i+1)*f) > int(float64(i)*f)
}

// queryURL builds the qi-th query deterministically: fallbacks interleave
// at QueryFallbackFraction and aim far outside the grid; the rest take a
// golden-ratio low-discrepancy walk strictly inside the hull, so hits
// sample the whole surface instead of one cell.
func (g *Generator) queryURL(qi int) string {
	f := g.cfg.QueryFallbackFraction
	fallback := int(float64(qi+1)*f) > int(float64(qi)*f)
	var eps1, eps2 float64
	if fallback {
		eps1, eps2 = 0.9, 0.05 // eps1 far above the grid max: uncovered
	} else {
		u := math.Mod(float64(qi)*0.6180339887498949, 1)
		v := math.Mod(float64(qi)*0.7548776662466927, 1)
		eps1 = querySurfEps1Min + (0.02+0.96*u)*(querySurfEps1Max-querySurfEps1Min)
		eps2 = querySurfEps2Min + (0.02+0.96*v)*(querySurfEps2Max-querySurfEps2Min)
	}
	var b strings.Builder
	b.WriteString(g.cfg.BaseURL)
	b.WriteString("/v1/query?type=threshold")
	if g.cfg.Scenario != "" {
		b.WriteString("&scenario=")
		b.WriteString(url.QueryEscape(g.cfg.Scenario))
	}
	fmt.Fprintf(&b, "&eps1=%.6f&eps2=%.6f", eps1, eps2)
	return b.String()
}

// queryOne drives one GET /v1/query: a surface hit answers inside the
// round trip; a fallback envelope carries the exact job, which is polled
// to terminal so the e2e histogram prices the full fallback path.
func (g *Generator) queryOne(ctx context.Context, scheduled time.Time, rawURL string, rec *recorders) (outcome, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return outcomeDone, err
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return outcomeDone, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcomeDone, err
	}
	rec.record(EndpointQuery, time.Since(scheduled))

	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusServiceUnavailable:
		return outcomeShed, nil
	default:
		return outcomeDone, fmt.Errorf("loadgen: query status %d: %s", resp.StatusCode, raw)
	}
	var env struct {
		Source string   `json:"source"`
		Job    *jobView `json:"job"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return outcomeDone, fmt.Errorf("loadgen: decode query response: %w", err)
	}
	if env.Source == "surface" {
		return outcomeSurfaceHit, nil
	}
	if env.Job == nil {
		return outcomeDone, fmt.Errorf("loadgen: fallback envelope carries no job")
	}
	job := *env.Job
	if err := g.pollJob(ctx, &job, rec); err != nil {
		return outcomeDone, err
	}
	rec.record(EndpointE2E, time.Since(scheduled))
	if job.Status != "succeeded" {
		return outcomeDone, fmt.Errorf("loadgen: fallback job %s %s: %s", job.ID, job.Status, job.Error)
	}
	return outcomeFallback, nil
}

// one drives a single request: submit, then poll to terminal. Every
// latency is measured from scheduled.
func (g *Generator) one(ctx context.Context, scheduled time.Time, body []byte, rec *recorders) (outcome, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		g.cfg.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return outcomeDone, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return outcomeDone, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcomeDone, err
	}
	submitDone := time.Now()
	rec.record(EndpointSubmit, submitDone.Sub(scheduled))

	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusServiceUnavailable:
		// Deliberate load shedding, the server's last defense past
		// saturation — an expected sweep outcome, not a failure. The 503
		// round trip stays in the submit histogram.
		return outcomeShed, nil
	default:
		return outcomeDone, fmt.Errorf("loadgen: submit status %d: %s", resp.StatusCode, raw)
	}

	var job jobView
	if err := json.Unmarshal(raw, &job); err != nil {
		return outcomeDone, fmt.Errorf("loadgen: decode submit response (%d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode == http.StatusOK { // cache hit: terminal synchronously
		rec.record(EndpointE2E, submitDone.Sub(scheduled))
		return outcomeHit, nil
	}

	if err := g.pollJob(ctx, &job, rec); err != nil {
		return outcomeDone, err
	}
	rec.record(EndpointE2E, time.Since(scheduled))
	if job.Status != "succeeded" {
		return outcomeDone, fmt.Errorf("loadgen: job %s %s: %s", job.ID, job.Status, job.Error)
	}
	return outcomeDone, nil
}

// pollJob drives GET /v1/jobs/{id} until the job settles, then records the
// server-attributed segments from the terminal record.
func (g *Generator) pollJob(ctx context.Context, job *jobView, rec *recorders) error {
	for !terminal(job.Status) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(g.cfg.PollInterval):
		}
		preq, err := http.NewRequestWithContext(ctx, http.MethodGet,
			g.cfg.BaseURL+"/v1/jobs/"+job.ID, nil)
		if err != nil {
			return err
		}
		presp, err := g.cfg.Client.Do(preq)
		if err != nil {
			return err
		}
		praw, err := io.ReadAll(presp.Body)
		presp.Body.Close()
		if err != nil {
			return err
		}
		if presp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: poll status %d: %s", presp.StatusCode, praw)
		}
		if err := json.Unmarshal(praw, job); err != nil {
			return fmt.Errorf("loadgen: decode poll response: %w", err)
		}
	}
	if job.Latency != nil {
		rec.record(SegQueueWait, time.Duration(job.Latency.QueueWaitMS*float64(time.Millisecond)))
		rec.record(SegExecute, time.Duration(job.Latency.ExecuteMS*float64(time.Millisecond)))
		rec.record(SegSerialize, time.Duration(job.Latency.SerializeMS*float64(time.Millisecond)))
	}
	return nil
}

// BuildQuerySurface asks the server to construct the threshold response
// surface the query mix targets (eps1 x eps2 over the documented grid on
// Config.Scenario) and blocks until it is ready, so a sweep prices
// serving, not construction. Idempotent: an identical resident or
// persisted surface comes back ready immediately.
func (g *Generator) BuildQuerySurface(ctx context.Context) error {
	scenario := ""
	if g.cfg.Scenario != "" {
		scenario = fmt.Sprintf(",\"scenario\":%q", g.cfg.Scenario)
	}
	body := fmt.Sprintf(
		`{"type":"threshold"%s,"axes":[{"name":"eps1","min":%g,"max":%g,"points":%d},{"name":"eps2","min":%g,"max":%g,"points":%d}]}`,
		scenario,
		querySurfEps1Min, querySurfEps1Max, querySurfPoints,
		querySurfEps2Min, querySurfEps2Max, querySurfPoints)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		g.cfg.BaseURL+"/v1/surfaces", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: build surface: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("loadgen: build surface: status %d: %s", resp.StatusCode, raw)
	}
	var info struct {
		Key    string `json:"key"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(raw, &info); err != nil {
		return fmt.Errorf("loadgen: decode surface response: %w", err)
	}
	for info.Status == "building" {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
		lreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
			g.cfg.BaseURL+"/v1/surfaces", nil)
		if err != nil {
			return err
		}
		lresp, err := g.cfg.Client.Do(lreq)
		if err != nil {
			return err
		}
		lraw, err := io.ReadAll(lresp.Body)
		lresp.Body.Close()
		if err != nil {
			return err
		}
		if lresp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: list surfaces: status %d: %s", lresp.StatusCode, lraw)
		}
		var list struct {
			Surfaces []struct {
				Key    string `json:"key"`
				Status string `json:"status"`
				Error  string `json:"error"`
			} `json:"surfaces"`
		}
		if err := json.Unmarshal(lraw, &list); err != nil {
			return fmt.Errorf("loadgen: decode surface list: %w", err)
		}
		found := false
		for _, s := range list.Surfaces {
			if s.Key == info.Key {
				info.Status, info.Error = s.Status, s.Error
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("loadgen: surface %s vanished mid-build", info.Key)
		}
	}
	if info.Status != "ready" {
		return fmt.Errorf("loadgen: surface build %s: %s", info.Status, info.Error)
	}
	return nil
}

// scrapeSaturated reads the rumor_saturated gauge off /metrics; any
// failure reads as "not saturated" (the sweep must not die because a
// scrape raced a restart).
func (g *Generator) scrapeSaturated(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.cfg.BaseURL+"/metrics", nil)
	if err != nil {
		return false
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "rumor_saturated ") {
			return strings.TrimSpace(strings.TrimPrefix(line, "rumor_saturated ")) != "0"
		}
	}
	return false
}
