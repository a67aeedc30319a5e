package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"rumornet/internal/obs"
	"rumornet/internal/service"
)

// checkResult is what the output checks measured on the way: the sampled
// jobs' replays through service.ExecuteRequest on an idle service, and the
// surface bound coverage.
type checkResult struct {
	byType   map[service.JobType][]float64 // ms per ExecuteRequest call
	sweeps   int                           // FBSM sweeps of the first replayed FBSM job
	forward  []float64                     // ms per FBSM forward sweep
	backward []float64                     // ms per FBSM backward sweep
	// boundRatio is the surface check's worst |error| / reported bound.
	boundRatio float64
}

// checkOutputs runs every output check after the timed window and returns
// the name and detail of the first that fails. invBefore is the
// rumor_invariant_violations_total sum scraped before the window.
func checkOutputs(ctx context.Context, r *rig, ph *phase, seed int64, invBefore float64) (*checkResult, error) {
	sc, err := r.svc.Scenario(service.BuiltinScenario)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	rt, err := checkByteIdentity(ctx, sc, ph)
	if err != nil {
		return nil, fmt.Errorf("check byte_identity: %w", err)
	}
	if rt.boundRatio, err = checkSurface(ctx, r, sc, seed); err != nil {
		return nil, fmt.Errorf("check %w", err)
	}
	m, _, err := scrape(r)
	if err != nil {
		return nil, fmt.Errorf("check invariants: %w", err)
	}
	if after := sumPrefix(m, "rumor_invariant_violations_total"); after != invBefore {
		return nil, fmt.Errorf("check invariants: rumor_invariant_violations_total went from %g to %g", invBefore, after)
	}
	return rt, nil
}

// checkByteIdentity replays the sampled jobs of every type through
// service.ExecuteRequest and requires the served result bytes.
func checkByteIdentity(ctx context.Context, sc *service.Scenario, ph *phase) (*checkResult, error) {
	rt := &checkResult{byType: map[service.JobType][]float64{}}
	types := make([]string, 0, len(ph.samples))
	for t := range ph.samples {
		types = append(types, string(t))
	}
	sort.Strings(types)
	for _, t := range types {
		for _, js := range ph.samples[service.JobType(t)] {
			req := js.req
			req.Scenario = service.BuiltinScenario
			var ft fbsmTimer
			start := time.Now()
			ft.last = start
			got, err := service.ExecuteRequest(ctx, sc, req, 1, ft.sink)
			if err != nil {
				return nil, fmt.Errorf("replay %s seed %d: %w", t, req.Params.Seed, err)
			}
			rt.byType[req.Type] = append(rt.byType[req.Type], ms(time.Since(start)))
			if !bytes.Equal(got, js.result) {
				return nil, fmt.Errorf("%s seed %d: served result differs from ExecuteRequest (%d vs %d bytes)",
					t, req.Params.Seed, len(js.result), len(got))
			}
			if req.Type == service.JobFBSM && rt.sweeps == 0 {
				rt.sweeps = ft.sweeps
				rt.forward, rt.backward = ft.forward, ft.backward
			}
		}
	}
	return rt, nil
}

// fbsmTimer splits FBSM wall time between forward and backward sweeps at
// the last forward checkpoint of each iteration.
type fbsmTimer struct {
	last, lastFwd     time.Time
	sweeps            int
	forward, backward []float64
}

func (f *fbsmTimer) sink(ev obs.Event) {
	now := time.Now()
	switch ev.Stage {
	case obs.StageFBSMForward:
		f.lastFwd = now
	case obs.StageFBSM:
		f.sweeps++
		if f.lastFwd.After(f.last) {
			f.forward = append(f.forward, ms(f.lastFwd.Sub(f.last)))
			f.backward = append(f.backward, ms(now.Sub(f.lastFwd)))
		}
		f.last = now
	}
}

// surfaceAnswer is the /v1/query envelope of a surface hit.
type surfaceAnswer struct {
	Source     string             `json:"source"`
	Values     map[string]float64 `json:"values"`
	ErrorBound map[string]float64 `json:"error_bound"`
}

func (r *rig) surfaceQuery(q queryPoint) (*surfaceAnswer, error) {
	code, raw, err := r.plain(http.MethodGet, q.path(), nil)
	if err != nil {
		return nil, err
	}
	var a surfaceAnswer
	if code != http.StatusOK {
		return nil, fmt.Errorf("query %s: status %d: %s", q.path(), code, raw)
	}
	if err := json.Unmarshal(raw, &a); err != nil || a.Source != "surface" {
		return nil, fmt.Errorf("query %s: not a surface answer: %s", q.path(), raw)
	}
	return &a, nil
}

// exactFields runs the threshold analysis at q and decodes its scalars.
func exactFields(ctx context.Context, sc *service.Scenario, q queryPoint) (map[string]float64, error) {
	req := q.request()
	req.Scenario = service.BuiltinScenario
	raw, err := service.ExecuteRequest(ctx, sc, req, 1, nil)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// checkSurface requires a query at every grid node to return exactly the
// exact threshold result, and sampled off-grid answers to equal the
// multilinear blend of the exact results at their cell's corners. It
// returns the largest |answer - exact| / reported bound over the off-grid
// samples: the coverage of the surface tier's error bound, which is
// measured rather than required (above 1 the bound does not hold).
func checkSurface(ctx context.Context, r *rig, sc *service.Scenario, seed int64) (float64, error) {
	e1s := gridValues(surfEps1Min, surfEps1Max, surfPoints)
	e2s := gridValues(surfEps2Min, surfEps2Max, surfPoints)
	nodes := make([][]map[string]float64, len(e1s))
	for i, e1 := range e1s {
		nodes[i] = make([]map[string]float64, len(e2s))
		for j, e2 := range e2s {
			q := queryPoint{eps1: e1, eps2: e2}
			a, err := r.surfaceQuery(q)
			if err != nil {
				return 0, fmt.Errorf("grid_nodes: %w", err)
			}
			exact, err := exactFields(ctx, sc, q)
			if err != nil {
				return 0, fmt.Errorf("grid_nodes: %w", err)
			}
			for f, v := range a.Values {
				if ev, ok := exact[f]; !ok || ev != v {
					return 0, fmt.Errorf("grid_nodes: (%g, %g) field %s: surface %v, exact %v", e1, e2, f, v, ev)
				}
			}
			nodes[i][j] = exact
		}
	}
	worst := 0.0
	for qi := 0; qi < offGridSamples; qi++ {
		q := inHull(seed, qi)
		a, err := r.surfaceQuery(q)
		if err != nil {
			return 0, fmt.Errorf("off_grid: %w", err)
		}
		exact, err := exactFields(ctx, sc, q)
		if err != nil {
			return 0, fmt.Errorf("off_grid: %w", err)
		}
		i, t := cell(e1s, q.eps1)
		j, u := cell(e2s, q.eps2)
		for f, v := range a.Values {
			blend := (1-t)*(1-u)*nodes[i][j][f] + t*(1-u)*nodes[i+1][j][f] +
				(1-t)*u*nodes[i][j+1][f] + t*u*nodes[i+1][j+1][f]
			if math.Abs(v-blend) > 1e-9*math.Max(1, math.Abs(blend)) {
				return 0, fmt.Errorf("off_grid: (%g, %g) field %s: surface %v, multilinear blend of exact corners %v",
					q.eps1, q.eps2, f, v, blend)
			}
			if b := a.ErrorBound[f]; b > 0 {
				worst = math.Max(worst, math.Abs(v-exact[f])/b)
			}
		}
	}
	return worst, nil
}

// cell locates x in the grid: the lower node index and the fraction of the
// way to the next node.
func cell(vals []float64, x float64) (int, float64) {
	i := sort.SearchFloat64s(vals, x)
	if i > 0 && (i == len(vals) || vals[i] != x) {
		i--
	}
	if i == len(vals)-1 {
		i--
	}
	return i, (x - vals[i]) / (vals[i+1] - vals[i])
}

// offGridSamples is how many points of the seed's query walk the surface
// check solves exactly.
const offGridSamples = 12
