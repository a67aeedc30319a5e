package loadgen

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rumornet/internal/service"
)

// newTestTarget stands up an in-process rumord (the same handler stack the
// daemon serves) with a 1µs saturation budget, below any real queue
// hand-off, so the very first executed job's queue wait flips the gauge —
// the smoke then proves the whole submit→poll→scrape pipeline without
// betting on this box's real capacity (the full tier-1 suite may be
// compiling the rest of the repo on the same CPU, slowing jobs 10x).
func newTestTarget(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := service.New(service.Config{
		Workers:          1,
		SaturationBudget: time.Microsecond,
		SaturationWindow: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// TestSmokeSweep is the tier-2 loadgen smoke (scripts/verify.sh): a short
// two-phase sweep against an in-process rumord on the sub-millisecond
// "loadtiny" scenario. Deliberately timing-robust — it asserts the
// pipeline (scheduled-tick dispatch, submit→poll, cache-hit accounting,
// segment relay, saturation scrape, artifact schema), not this box's
// capacity: the micro saturation budget guarantees the flip, and cache
// hits are asserted on the second phase only, whose hot keys the fully
// drained first phase has already cached. The real past-capacity story
// (achieved < offered, queue-wait collapse) is recorded in BENCH_PR9.json
// and proven deterministically in internal/service's saturation E2E.
func TestSmokeSweep(t *testing.T) {
	ts := newTestTarget(t)
	g := New(Config{
		BaseURL:     ts.URL,
		Client:      ts.Client(),
		HotFraction: 0.5,
		Scenario:    "loadtiny",
		Mix:         []MixEntry{{Type: "ode", Weight: 1}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := g.EnsureScenario(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := g.Run(ctx, []Phase{
		{Name: "warm", Rate: 50, Duration: 500 * time.Millisecond},
		{Name: "burst", Rate: 100, Duration: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(res.Phases))
	}
	for _, ph := range res.Phases {
		if ph.Errors > 0 {
			t.Errorf("phase %s: %d errors", ph.Phase, ph.Errors)
		}
		if ph.Completed != ph.Requests {
			t.Errorf("phase %s: completed %d of %d", ph.Phase, ph.Completed, ph.Requests)
		}
		if ph.AchievedRPS <= 0 {
			t.Errorf("phase %s: achieved rate not self-reported", ph.Phase)
		}
		for _, ep := range ph.Endpoints {
			if ep.Count == 0 || ep.P50MS <= 0 || ep.P99MS <= 0 || ep.P999MS < ep.P99MS {
				t.Errorf("phase %s endpoint %s: degenerate quantiles %+v", ph.Phase, ep.Endpoint, ep)
			}
		}
		// Segment endpoints must be present: the server attributed
		// latency on every executed job.
		found := map[string]bool{}
		for _, ep := range ph.Endpoints {
			found[ep.Endpoint] = true
		}
		for _, want := range []string{EndpointSubmit, EndpointE2E, SegQueueWait, SegExecute, SegSerialize} {
			if !found[want] {
				t.Errorf("phase %s: endpoint %q missing", ph.Phase, want)
			}
		}
	}
	past := res.Phases[1]
	if past.CacheHits == 0 {
		t.Error("second phase repeated the warmed hot keys but saw no cache hits")
	}
	if !past.Saturated {
		t.Error("micro saturation budget did not flip the gauge: the scrape path is broken")
	}

	// The artifact must be valid JSON carrying the sweep.
	var sb strings.Builder
	if err := WriteArtifact(&sb, "smoke", "", "ode=1", 0.5, res); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Suite  string `json:"suite"`
		Target string `json:"target"`
		Phases []struct {
			Phase     string  `json:"phase"`
			Offered   float64 `json:"offered_rps"`
			Achieved  float64 `json:"achieved_rps"`
			Saturated bool    `json:"saturated"`
		} `json:"phases"`
		Latency []struct {
			Phase    string  `json:"phase"`
			Endpoint string  `json:"endpoint"`
			P99MS    float64 `json:"p99_ms"`
		} `json:"latency"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("artifact is not valid JSON: %v\n%s", err, sb.String())
	}
	if parsed.Suite != "smoke" || len(parsed.Phases) != 2 {
		t.Fatalf("artifact header drifted: %+v", parsed)
	}
	if !parsed.Phases[1].Saturated {
		t.Error("artifact lost the saturation verdict")
	}
	if len(parsed.Latency) != len(res.Phases[0].Endpoints)+len(res.Phases[1].Endpoints) {
		t.Errorf("artifact flattened %d latency entries, want %d",
			len(parsed.Latency), len(res.Phases[0].Endpoints)+len(res.Phases[1].Endpoints))
	}
	for _, l := range parsed.Latency {
		if l.P99MS <= 0 {
			t.Errorf("artifact entry %s/%s has zero p99", l.Phase, l.Endpoint)
		}
	}
}

// TestSurfaceSmoke is the tier-2 response-surface smoke (scripts/verify.sh):
// build the tiny threshold surface on loadtiny over HTTP, then run a mixed
// phase where half the requests are queries — most inside the hull
// (interpolated hits), a quarter aimed outside it (forced exact-job
// fallbacks) — and check the hit/fallback split, the query endpoint's
// histogram, and the artifact schema. Timing-robust by design: it asserts
// the pipeline, not this box's speed (BENCH_PR10.json records that).
func TestSurfaceSmoke(t *testing.T) {
	// Not newTestTarget: its micro saturation budget latches the server
	// saturated, which (correctly) sheds the batch grid jobs a surface
	// build submits — this smoke needs construction to complete.
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	g := New(Config{
		BaseURL:               ts.URL,
		Client:                ts.Client(),
		Scenario:              "loadtiny",
		QueryFraction:         0.5,
		QueryFallbackFraction: 0.25,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := g.EnsureScenario(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.BuildQuerySurface(ctx); err != nil {
		t.Fatal(err)
	}
	// Idempotent: the same spec resolves to the same content key and
	// answers ready without re-running a grid point.
	if err := g.BuildQuerySurface(ctx); err != nil {
		t.Fatalf("rebuild of an existing surface: %v", err)
	}

	res, err := g.Run(ctx, []Phase{{Name: "mix", Rate: 100, Duration: 500 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases[0]
	if ph.Errors > 0 {
		t.Errorf("%d errors in the mixed phase", ph.Errors)
	}
	if ph.Completed != ph.Requests {
		t.Errorf("completed %d of %d", ph.Completed, ph.Requests)
	}
	if ph.SurfaceHits == 0 {
		t.Error("no surface hits: in-hull queries did not interpolate")
	}
	if ph.SurfaceFallbacks == 0 {
		t.Error("no fallbacks: out-of-hull queries did not reach the exact path")
	}
	if ph.SurfaceHits <= ph.SurfaceFallbacks {
		t.Errorf("hit/fallback split %d/%d: expected hits to dominate at fallback fraction 0.25",
			ph.SurfaceHits, ph.SurfaceFallbacks)
	}
	found := map[string]int64{}
	for _, ep := range ph.Endpoints {
		found[ep.Endpoint] = ep.Count
	}
	if found[EndpointQuery] != ph.SurfaceHits+ph.SurfaceFallbacks {
		t.Errorf("query endpoint recorded %d samples, want %d",
			found[EndpointQuery], ph.SurfaceHits+ph.SurfaceFallbacks)
	}
	if found[EndpointE2E] == 0 {
		t.Error("e2e endpoint empty: submit-path and fallback jobs both missing")
	}

	var sb strings.Builder
	if err := WriteArtifact(&sb, "surface-smoke", "", "ode=1", 0.5, res); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Phases []struct {
			SurfaceHits      int64 `json:"surface_hits"`
			SurfaceFallbacks int64 `json:"surface_fallbacks"`
		} `json:"phases"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("artifact is not valid JSON: %v\n%s", err, sb.String())
	}
	if parsed.Phases[0].SurfaceHits != ph.SurfaceHits ||
		parsed.Phases[0].SurfaceFallbacks != ph.SurfaceFallbacks {
		t.Errorf("artifact lost the hit/fallback split: %+v", parsed.Phases[0])
	}
}

// TestEnsureScenario covers the high-rate-sweep setup path: registering
// the small scenario succeeds (201) and is idempotent (409 = ok).
func TestEnsureScenario(t *testing.T) {
	ts := newTestTarget(t)
	g := New(Config{BaseURL: ts.URL, Client: ts.Client(), Scenario: "loadtiny"})
	ctx := context.Background()
	if err := g.EnsureScenario(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.EnsureScenario(ctx); err != nil {
		t.Fatalf("re-registering an existing scenario must be a no-op: %v", err)
	}
	// The registered scenario is actually usable.
	res, err := g.Run(ctx, []Phase{{Name: "tiny", Rate: 50, Duration: 200 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if ph := res.Phases[0]; ph.Errors > 0 || ph.Completed != ph.Requests {
		t.Fatalf("tiny-scenario phase failed: %+v", ph)
	}
}

// TestRequestBodyMixAndKeys pins the deterministic mix rotation and
// hot/cold interleave.
func TestRequestBodyMixAndKeys(t *testing.T) {
	g := New(Config{
		BaseURL:     "http://unused",
		Mix:         []MixEntry{{Type: "ode", Weight: 2}, {Type: "abm", Weight: 1}},
		HotFraction: 0.5,
		HotKeys:     4,
	})
	types := map[string]int{}
	hot, cold := 0, 0
	for i := 0; i < 300; i++ {
		var req struct {
			Type   string `json:"type"`
			Params struct {
				Seed int64 `json:"seed"`
			} `json:"params"`
		}
		if err := json.Unmarshal(g.requestBody(i), &req); err != nil {
			t.Fatalf("request %d is not valid JSON: %v", i, err)
		}
		types[req.Type]++
		if req.Params.Seed >= 1_000_000 {
			cold++
		} else {
			hot++
			if req.Params.Seed < 1 || req.Params.Seed > 4 {
				t.Fatalf("hot seed %d outside the 4-key hot set", req.Params.Seed)
			}
		}
	}
	if types["ode"] != 200 || types["abm"] != 100 {
		t.Errorf("mix rotation drifted: %v", types)
	}
	if hot != 150 || cold != 150 {
		t.Errorf("hot/cold split %d/%d, want 150/150 at fraction 0.5", hot, cold)
	}
}
