package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"rumornet/internal/service"
)

// Every request carries fully specified parameters — each field at the
// value the service's defaults resolver would give it — so the submitted
// request is its own canonical form and service.ExecuteRequest, which
// applies no defaults, can replay it byte for byte.

// hotODE is the k-th key of the cache-hot ODE set (internal/loadgen's ODE
// parameter set).
func hotODE(k int) service.Request {
	return odeReq(int64(k) + 1)
}

func odeReq(seed int64) service.Request {
	return service.Request{Type: service.JobODE, Params: service.Params{
		Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, Lambda0: 0.02, I0: 0.1, Tf: 40,
		Points: 50, Seed: seed,
	}}
}

// coldThreshold is serve's write-path job: queue, a ~0.3 ms analysis, WAL
// append and blob put. The seed changes only the cache key.
func coldThreshold(seed int64) service.Request {
	return service.Request{Type: service.JobThreshold, Params: service.Params{
		Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, R0: 1.6, I0: 0.1, Tf: 30,
		Points: 500, Seed: seed,
	}}
}

// abmReq is internal/loadgen's ABM set at 20 000 nodes.
func abmReq(seed int64) service.Request {
	return service.Request{Type: service.JobABM, Params: service.Params{
		Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, Lambda0: 0.05, I0: 0.1, Tf: 10,
		Points: 500, Seed: seed, Trials: 1, Nodes: 20000, Dt: 0.5,
	}}
}

// fbsmReq is internal/loadgen's FBSM set.
func fbsmReq(seed int64, class service.Class) service.Request {
	return service.Request{Type: service.JobFBSM, Class: class, Params: service.Params{
		Alpha: 0.01, Eps1: 0.05, Eps2: 0.02, Lambda0: 0.05, I0: 0.1, Tf: 20,
		Points: 500, Seed: seed, C1: 5, C2: 10, EpsMax: 0.6, Grid: 120,
	}}
}

// batchFBSM is contended's batch job: FBSM with a horizon that cycles
// through 6..14 by seed, so the two closed-loop clients' jobs do not stay
// in phase and the fallbacks queued behind them see the same mix of waits
// on every run.
func batchFBSM(seed int64) service.Request {
	req := fbsmReq(seed, service.ClassBatch)
	req.Params.Tf, req.Params.Grid = float64(6+2*(seed%5)), 60
	return req
}

// thresholdAt is the canonical threshold request at one (eps1, eps2) point
// with every other parameter at its default: the request a surface query
// at that point resolves to.
func thresholdAt(eps1, eps2 float64, seed int64) service.Request {
	return service.Request{Type: service.JobThreshold, Params: service.Params{
		Alpha: 0.01, Eps1: eps1, Eps2: eps2, Lambda0: 0.001, I0: 0.1, Tf: 150,
		Points: 500, Seed: seed,
	}}
}

func jobBody(req service.Request) []byte {
	b, err := json.Marshal(req)
	if err != nil { // plain numbers and strings; cannot happen
		panic(err)
	}
	return b
}

// queryPoint is one /v1/query coordinate, kept as the exact floats the
// server parses from the URL.
type queryPoint struct {
	eps1, eps2 float64
	seed       int64 // 0: the surface's base seed (a hit); else a fallback
}

func (q queryPoint) path() string {
	v := url.Values{}
	v.Set("type", "threshold")
	v.Set("eps1", strconv.FormatFloat(q.eps1, 'g', -1, 64))
	v.Set("eps2", strconv.FormatFloat(q.eps2, 'g', -1, 64))
	if q.seed != 0 {
		v.Set("seed", strconv.FormatInt(q.seed, 10))
	}
	return "/v1/query?" + v.Encode()
}

func (q queryPoint) request() service.Request {
	seed := q.seed
	if seed == 0 {
		seed = 1
	}
	return thresholdAt(q.eps1, q.eps2, seed)
}

// inHull is the qi-th point of the seed's query walk: a golden-ratio
// low-discrepancy sequence strictly inside the surface hull, offset by the
// seed, rounded to six decimals as a client would send it.
func inHull(seed int64, qi int) queryPoint {
	off := math.Mod(float64(seed)*0.1234567, 1)
	u := math.Mod(off+float64(qi)*0.6180339887498949, 1)
	v := math.Mod(off+float64(qi)*0.7548776662466927, 1)
	return queryPoint{
		eps1: round6(surfEps1Min + (0.02+0.96*u)*(surfEps1Max-surfEps1Min)),
		eps2: round6(surfEps2Min + (0.02+0.96*v)*(surfEps2Max-surfEps2Min)),
	}
}

// outOfHull is a fallback query: eps1 above the grid and a unique seed, so
// it runs as a cold interactive exact job.
func outOfHull(seed int64, qi int) queryPoint {
	u := math.Mod(float64(qi)*0.6180339887498949, 1)
	return queryPoint{eps1: round6(0.5 + 0.4*u), eps2: 0.05, seed: seed}
}

func round6(x float64) float64 {
	v, err := strconv.ParseFloat(fmt.Sprintf("%.6f", x), 64)
	if err != nil {
		panic(err)
	}
	return v
}

// gridValues reproduces the surface tier's axis expansion (min + j*step,
// exact endpoint), so node queries hit the stored samples exactly.
func gridValues(lo, hi float64, n int) []float64 {
	vals := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for j := range vals {
		vals[j] = lo + float64(j)*step
	}
	vals[n-1] = hi
	return vals
}
