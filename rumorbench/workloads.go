package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rumornet/internal/service"
)

// Offered load. serveRate sits at about half the knee measured on a 2-CPU
// host; contendedRate is well under it, since every worker is busy with
// batch FBSM jobs there.
const (
	serveRate     = 400.0
	contendedRate = 150.0
)

// serveMix interleaves serve's request kinds over 20 slots: 14 surface
// queries (70%), 3 cache-hot ODE submits (15%), 3 cold threshold jobs (15%).
const serveMix = "QQHQQCQQQHQQCQQQHQQC"

// closedLoopBackoff is how long a closed-loop client waits after a failed
// job before submitting the next.
const closedLoopBackoff = 100 * time.Millisecond

// contendedFallbackEvery makes every tenth contended query an out-of-hull
// fallback.
const contendedFallbackEvery = 10

// batchWindow is how many batch jobs each contended client keeps
// outstanding. With one queued behind each running job, a worker never
// idles while its client learns of a completion, so batch throughput is
// the workers' own and not the poll loop's.
const batchWindow = 2

// solveType is the type (0 ode, 1 abm, 2 fbsm) of client c's j-th job.
// Each client runs every type once per round of three, in an order drawn
// afresh each round from the seed: the types stay equally frequent, while
// which jobs overlap on the workers keeps changing. A fixed cycle locks
// the clients' phases at start-up, and that phase then sets the medians.
func solveType(seed int64, c, j int) int {
	round := rand.New(rand.NewSource(seed*1_000_003 + int64(c)*10_007 + int64(j/3)))
	return round.Perm(3)[j%3]
}

// workload is a traffic generator run against a rig for one phase.
type workload struct {
	name string
	why  string
	// open-loop rate (0 for none) and closed-loop client count.
	rate    float64
	clients int
	// head is the headline series p50_ms reports, second the series
	// second_p50_ms reports, and jobs the classes jobs_per_s counts.
	head   string
	second string
	jobs   []string
	// run drives the phase until deadline and returns once every request it
	// started has finished.
	run func(ctx context.Context, g *gen, ph *phase, deadline time.Time)
}

func workloads(nproc int) map[string]*workload {
	return map[string]*workload{
		"serve": {
			name: "serve", rate: serveRate,
			head: "query", second: "hit", jobs: []string{"exact"},
			why: "open loop at half the knee: surface queries, cache-hot submits and cold threshold jobs load transport, handlers, cache, surface and store writes",
			run: func(ctx context.Context, g *gen, ph *phase, deadline time.Time) {
				var qi, hi atomic.Int64
				openLoop(ctx, serveRate, deadline, ph, func(i int, sched time.Time) {
					switch serveMix[i%len(serveMix)] {
					case 'Q':
						g.query(ctx, ph, inHull(g.seed, int(qi.Add(1)-1)), sched)
					case 'H':
						g.hit(ctx, ph, int(hi.Add(1)-1)%hotKeys, sched)
					default:
						g.job(ctx, ph, "exact", coldThreshold(g.coldSeed()), sched)
					}
				})
			},
		},
		"solve": {
			name: "solve", clients: nproc,
			head: "job", second: "ode", jobs: []string{"ode", "abm", "fbsm"},
			why: "closed loop, one cold ode/abm/fbsm job outstanding per client: the solver layers, where request-path cost is under 1%",
			run: func(ctx context.Context, g *gen, ph *phase, deadline time.Time) {
				closedLoop(nproc, deadline, func(c, j int) bool {
					var req service.Request
					switch solveType(g.seed, c, j) {
					case 0:
						req = odeReq(g.coldSeed())
					case 1:
						req = abmReq(g.coldSeed())
					default:
						req = fbsmReq(g.coldSeed(), "")
					}
					return g.job(ctx, ph, string(req.Type), req, time.Now())
				})
			},
		},
		"contended": {
			name: "contended", rate: contendedRate, clients: nproc,
			head: "query", second: "exact", jobs: []string{"batch"},
			why: "open-loop queries with 10% exact fallbacks while every worker runs batch FBSM: serving under CPU contention and class-priority queueing",
			run: func(ctx context.Context, g *gen, ph *phase, deadline time.Time) {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					closedLoop(nproc*batchWindow, deadline, func(int, int) bool {
						return g.job(ctx, ph, "batch", batchFBSM(g.coldSeed()), time.Now())
					})
				}()
				var qi atomic.Int64
				openLoop(ctx, contendedRate, deadline, ph, func(i int, sched time.Time) {
					n := int(qi.Add(1) - 1)
					if i%contendedFallbackEvery == contendedFallbackEvery-1 {
						g.fallback(ctx, ph, outOfHull(g.coldSeed(), n), sched)
						return
					}
					g.query(ctx, ph, inHull(g.seed, n), sched)
				})
				wg.Wait()
			},
		},
	}
}

// openLoop dispatches fn at a fixed rate until deadline, each call on its
// own goroutine so a stall delays no later send; fn measures from sched.
// It returns once every dispatched call has finished.
func openLoop(ctx context.Context, rate float64, deadline time.Time, ph *phase, fn func(i int, sched time.Time)) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if !sched.Before(deadline) || ctx.Err() != nil {
			break
		}
		sleepUntil(sched)
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			ph.add("lag", ms(time.Since(sched)))
			fn(i, sched)
		}(i, sched)
	}
	wg.Wait()
}

// sleepUntil sleeps to within two milliseconds of t on the Go timer, which
// can wake up to a millisecond late on Linux, then to within spinWindow in
// one precise sleep (see preciseSleep), and yields the processor for the
// rest. Otherwise the generator's own lateness would be added to every
// sub-millisecond round trip.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t) - spinWindow; d > 0 {
		preciseSleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinWindow covers the time a goroutine takes to get a processor back
// after a precise sleep.
const spinWindow = 150 * time.Microsecond

// closedLoop runs n clients, each calling fn back to back until deadline.
// A client whose call failed (a shed, say) backs off before the next.
func closedLoop(n int, deadline time.Time, fn func(client, iter int) bool) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				if !fn(c, j) {
					time.Sleep(closedLoopBackoff)
				}
			}
		}(c)
	}
	wg.Wait()
}

// gen issues the benchmark's requests and records what each one saw.
type gen struct {
	r    *rig
	seed int64
	cold atomic.Int64 // unique-seed counter for cold keys
}

// coldSeed returns a cache key seed no other request in the run uses.
func (g *gen) coldSeed() int64 {
	return g.seed*10_000_000 + 1_000_000 + g.cold.Add(1)
}

// call sends one request and, traced, records its transport and handler
// spans and self times under route.
func (g *gen) call(ctx context.Context, ph *phase, rs *reqSpans, parent int64, route, method, path string, body []byte, bg bool) (*exchange, error) {
	ex, err := g.r.send(ctx, method, path, body, ph.traced)
	if err != nil {
		return nil, err
	}
	if ph.traced {
		rs.http(parent, route, ex, bg)
		if !ex.server.start.IsZero() {
			ph.add("handler_"+route, us(ex.server.end.Sub(ex.server.start)))
			ph.add("transport_self_"+route, us(ex.rtt()-ex.server.end.Sub(ex.server.start)))
		}
		ph.add("conn_wait", us(ex.connWait))
	}
	return ex, nil
}

// query is one in-hull GET /v1/query, which must come back from the surface.
func (g *gen) query(ctx context.Context, ph *phase, q queryPoint, sched time.Time) {
	rs := ph.tr.begin("query", sched)
	ph.attempt("query")
	ex, err := g.call(ctx, ph, rs, rs.rootID(), "query", http.MethodGet, q.path(), nil, false)
	if err != nil {
		ph.fail("query", err, false)
		return
	}
	rs.lag(sched, ex.start)
	if ex.code != http.StatusOK {
		ph.fail("query", statusErr(ex), ex.code != http.StatusServiceUnavailable)
		return
	}
	var res struct {
		Source string             `json:"source"`
		Values map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal(ex.body, &res); err != nil || res.Source != "surface" || len(res.Values) == 0 {
		ph.fail("query", fmt.Errorf("in-hull query not answered by the surface: %s", ex.body), true)
		return
	}
	ph.count("surface_hit", 1)
	ph.count("queries", 1)
	ph.add("query", ms(ex.end.Sub(sched)))
	rs.finish(ex.end)
}

// hit is one cache-hot ODE submission, answered synchronously.
func (g *gen) hit(ctx context.Context, ph *phase, k int, sched time.Time) {
	rs := ph.tr.begin("hit", sched)
	ph.attempt("hit")
	ex, err := g.call(ctx, ph, rs, rs.rootID(), "submit", http.MethodPost, "/v1/jobs", jobBody(hotODE(k)), false)
	if err != nil {
		ph.fail("hit", err, false)
		return
	}
	rs.lag(sched, ex.start)
	if ex.code != http.StatusOK {
		ph.fail("hit", statusErr(ex), ex.code != http.StatusServiceUnavailable)
		return
	}
	var jv jobView
	if err := json.Unmarshal(ex.body, &jv); err != nil || !jv.CacheHit || jv.Status != "succeeded" {
		ph.fail("hit", fmt.Errorf("hot submit not a cache hit: %.200s", ex.body), true)
		return
	}
	ph.count("submits", 1)
	ph.count("cache_hits", 1)
	ph.add("hit", ms(ex.end.Sub(sched)))
	rs.finish(ex.end)
}

// job submits one cold request and polls it to a terminal status,
// reporting whether it succeeded.
func (g *gen) job(ctx context.Context, ph *phase, class string, req service.Request, sched time.Time) bool {
	rs := ph.tr.begin(class, sched)
	ph.attempt(class)
	ex, err := g.call(ctx, ph, rs, rs.rootID(), "submit", http.MethodPost, "/v1/jobs", jobBody(req), false)
	if err != nil {
		ph.fail(class, err, false)
		return false
	}
	rs.lag(sched, ex.start)
	if ex.code != http.StatusAccepted {
		ph.fail(class, statusErr(ex), ex.code != http.StatusServiceUnavailable)
		return false
	}
	ph.count("submits", 1)
	var jv jobView
	if err := json.Unmarshal(ex.body, &jv); err != nil {
		ph.fail(class, err, true)
		return false
	}
	return g.await(ctx, ph, rs, class, req, jv, sched)
}

// fallback is one out-of-hull query: the envelope carries a cold exact job,
// polled to terminal.
func (g *gen) fallback(ctx context.Context, ph *phase, q queryPoint, sched time.Time) {
	rs := ph.tr.begin("exact", sched)
	ph.attempt("exact")
	ex, err := g.call(ctx, ph, rs, rs.rootID(), "query", http.MethodGet, q.path(), nil, false)
	if err != nil {
		ph.fail("exact", err, false)
		return
	}
	rs.lag(sched, ex.start)
	if ex.code != http.StatusAccepted {
		ph.fail("exact", statusErr(ex), ex.code != http.StatusServiceUnavailable)
		return
	}
	var env struct {
		Source string   `json:"source"`
		Job    *jobView `json:"job"`
	}
	if err := json.Unmarshal(ex.body, &env); err != nil || env.Source != "job" || env.Job == nil {
		ph.fail("exact", fmt.Errorf("out-of-hull query did not fall back: %.200s", ex.body), true)
		return
	}
	ph.count("queries", 1)
	g.await(ctx, ph, rs, "exact", q.request(), *env.Job, sched)
}

// await polls a submitted job to terminal and records its end-to-end time,
// the server's segment attribution and, for a deterministic subset, the
// result bytes the output checks replay.
func (g *gen) await(ctx context.Context, ph *phase, rs *reqSpans, class string, req service.Request, jv jobView, sched time.Time) bool {
	polls, every := 0, pollInterval
	if req.Class == service.ClassBatch {
		every = batchPollInterval
	}
	for !terminal(jv.Status) {
		time.Sleep(every)
		// Polls are background spans, off the critical path: the job ends
		// at the server's terminal timestamp, below.
		ex, err := g.call(ctx, ph, rs, rs.rootID(), "poll", http.MethodGet, "/v1/jobs/"+jv.ID, nil, true)
		if err != nil {
			ph.fail(class, err, false)
			return false
		}
		polls++
		ph.add("poll", ms(ex.rtt()))
		if ex.code != http.StatusOK {
			ph.fail(class, statusErr(ex), true)
			return false
		}
		if err := json.Unmarshal(ex.body, &jv); err != nil {
			ph.fail(class, err, true)
			return false
		}
	}
	ph.count("polls", int64(polls))
	ph.count("polled_jobs", 1)
	if jv.Status != "succeeded" {
		ph.fail(class, fmt.Errorf("job %s %s: %s", jv.ID, jv.Status, jv.Error), true)
		return false
	}
	// The job ends at the server's terminal timestamp (same process, same
	// clock), so the client's poll cadence does not quantize its latency.
	end := time.Now()
	if jv.FinishedAt != nil {
		end = *jv.FinishedAt
	}
	e2e := ms(end.Sub(sched))
	ph.add(class, e2e)
	if class == string(req.Type) {
		ph.add("job", e2e) // solve's per-type classes together
	}
	ph.count("done_"+class, 1)
	if l := jv.Latency; l != nil {
		qc := "interactive"
		if req.Class == service.ClassBatch {
			qc = "batch"
		}
		ph.add("queue_"+qc, l.QueueWaitMS)
		ph.add("execute_"+string(req.Type), l.ExecuteMS)
		ph.add("serialize", l.SerializeMS)
		if jv.StartedAt != nil && jv.FinishedAt != nil {
			exec := jv.StartedAt.Add(time.Duration(l.ExecuteMS * float64(time.Millisecond)))
			rs.add(rs.rootID(), "service.queue", jv.SubmittedAt, *jv.StartedAt, false)
			rs.add(rs.rootID(), "service.execute", *jv.StartedAt, exec, false)
			rs.add(rs.rootID(), "service.serialize", exec, *jv.FinishedAt, false)
		}
	}
	ph.sample(req, jv.Result)
	rs.finish(end)
	return true
}

func statusErr(ex *exchange) error {
	if ex.code == http.StatusServiceUnavailable {
		return errShed
	}
	return fmt.Errorf("status %d: %.200s", ex.code, ex.body)
}

// phase is one measured window: samples by series, per-class attempt and
// failure counts, counters, the spans of a traced phase, and the result
// bytes the output checks replay.
type phase struct {
	traced bool
	tr     *tracer // nil when untraced
	start  time.Time
	end    time.Time

	mu        sync.Mutex
	series    map[string][]float64
	counts    map[string]int64
	attempted map[string]int64
	failed    map[string]int64
	invalid   int64
	firstErr  string
	// rt brackets the window with runtime readings; prog holds deltas of
	// program-reported /metrics series over it.
	rt      [2]rtSample
	prog    map[string]float64
	samples map[service.JobType][]jobSample
}

// jobSample is one completed job's request and result bytes.
type jobSample struct {
	req    service.Request
	result []byte
}

// samplesPerType is how many completed jobs of each type the byte-identity
// check replays: those with the lowest cold seeds.
const samplesPerType = 2

func newPhase(traced bool) *phase {
	ph := &phase{
		traced:    traced,
		series:    map[string][]float64{},
		counts:    map[string]int64{},
		attempted: map[string]int64{},
		failed:    map[string]int64{},
		samples:   map[service.JobType][]jobSample{},
		prog:      map[string]float64{},
	}
	if traced {
		ph.tr = &tracer{}
	}
	return ph
}

func (ph *phase) add(series string, v float64) {
	ph.mu.Lock()
	ph.series[series] = append(ph.series[series], v)
	ph.mu.Unlock()
}

func (ph *phase) count(name string, n int64) {
	ph.mu.Lock()
	ph.counts[name] += n
	ph.mu.Unlock()
}

func (ph *phase) attempt(class string) {
	ph.mu.Lock()
	ph.attempted[class]++
	ph.mu.Unlock()
}

// fail counts a failed attempt; invalid marks a wrong answer (as opposed to
// a shed or a transport error), which makes the run incorrect.
func (ph *phase) fail(class string, err error, invalid bool) {
	ph.mu.Lock()
	ph.failed[class]++
	if invalid {
		ph.invalid++
	}
	if ph.firstErr == "" {
		ph.firstErr = class + ": " + err.Error()
	}
	ph.mu.Unlock()
}

func (ph *phase) sample(req service.Request, result []byte) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	s := ph.samples[req.Type]
	js := jobSample{req, append([]byte(nil), result...)}
	if len(s) < samplesPerType {
		ph.samples[req.Type] = append(s, js)
		return
	}
	// Keep the lowest seeds, so the sample does not depend on the order
	// in which jobs happened to finish.
	hi := 0
	for i := range s {
		if s[i].req.Params.Seed > s[hi].req.Params.Seed {
			hi = i
		}
	}
	if req.Params.Seed < s[hi].req.Params.Seed {
		s[hi] = js
	}
}

func (ph *phase) totals() (attempted, failed int64) {
	for _, n := range ph.attempted {
		attempted += n
	}
	for _, n := range ph.failed {
		failed += n
	}
	return attempted, failed
}

// perSec is the number of completions of the given classes per second of
// the phase, from its first dispatch until its last request finished.
func (ph *phase) perSec(classes ...string) float64 {
	var n int64
	for _, c := range classes {
		n += ph.counts["done_"+c]
	}
	return float64(n) / ph.end.Sub(ph.start).Seconds()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile is the nearest-rank quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
