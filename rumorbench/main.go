// Command rumorbench is rumornet's benchmark: it starts rumord in process
// (service.New plus Service.Handler() on a loopback listener, over a fresh
// durable store), drives one workload through a single HTTP client capped
// at nproc connections, checks the answers, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// is split into an untraced and a traced half and the metrics are the
// per-layer set, with a per-class ledger printed above them. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	setups   int
	warmup   time.Duration
	out      string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("rumorbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: serve, solve or contended")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (cold keys and the query walk)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds (split in half with -trace 1)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: untraced + traced halves, per-layer metrics")
	fs.IntVar(&o.setups, "setups", 9, "set-ups per run; setup_s is their median")
	fs.DurationVar(&o.warmup, "warmup", time.Second, "unmeasured traffic before the window")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the store and the trace file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seed < 1 || o.seconds <= 0 || o.setups < 1 || (o.trace != 0 && o.trace != 1) {
		return o, fmt.Errorf("need -seed >= 1, -seconds > 0, -setups >= 1 and -trace 0 or 1")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rumorbench:", err)
		return 2
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	w, ok := workloads(nproc)[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "rumorbench: unknown workload %q (want serve, solve or contended)\n", o.workload)
		return 2
	}
	res, err := bench(o, w, nproc, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "rumorbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "rumorbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(o options, w *workload, nproc int, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Set-up: service start (with its Digg scenario build), surface build
	// and cache warm-up, repeated so setup_s is a median. The last rig
	// serves the run.
	var setups []float64
	var r *rig
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		nr, err := newRig(o.out, nproc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if r != nil {
			r.close()
		}
		r = nr
	}
	defer r.close()
	g := &gen{r: r, seed: o.seed}

	runPhase(ctx, r, g, w, o.warmup, false)
	m0, _, err := scrape(r)
	if err != nil {
		return nil, err
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		window /= 2
	}
	phases := []*phase{runPhase(ctx, r, g, w, window, false)}
	if o.trace == 1 {
		phases = append(phases, runPhase(ctx, r, g, w, window, true))
	}
	up, last := phases[0], phases[len(phases)-1]

	for _, ph := range phases {
		if ph.invalid > 0 {
			return nil, fmt.Errorf("check responses: %d wrong answers, first: %s", ph.invalid, ph.firstErr)
		}
	}
	for _, ph := range phases[1:] { // replay the lowest seeds of the whole run
		for _, s := range ph.samples {
			for _, js := range s {
				up.sample(js.req, js.result)
			}
		}
	}
	replay, err := checkOutputs(ctx, r, up, o.seed, sumPrefix(m0, "rumor_invariant_violations_total"))
	if err != nil {
		return nil, err
	}

	valid, why := validity(w, up)
	printMeta(stdout, o, w, nproc, phases, valid, why, replay.boundRatio)
	for _, ph := range phases {
		printClasses(stdout, ph)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, ph := range phases {
		a, f := ph.totals()
		res.Attempted += a
		res.Failed += f
	}
	if o.trace == 0 {
		res.Metrics = endToEnd(w, up, setups)
		return res, nil
	}
	d, err := measureDirect(r, o.seed)
	if err != nil {
		return nil, err
	}
	rows := ledger(last.tr, up.series)
	printLedger(stdout, w.name, rows, ledgerNotes(last, d))
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
	if err := writeTrace(last.tr, path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(stdout, "trace: %d spans in %s\n", len(last.tr.spans), path)
	res.Metrics = perLayer(w, r, up, last, replay, d)
	return res, nil
}

// runPhase drives the workload for one window and records the program-
// and runtime-reported counters around it.
func runPhase(ctx context.Context, r *rig, g *gen, w *workload, window time.Duration, traced bool) *phase {
	ph := newPhase(traced)
	runtime.GC() // every window starts from the same heap state
	r.timer.on.Store(traced)
	r.reader.on.Store(traced)
	before, _, _ := scrape(r)
	rt0 := readRuntime()
	stop := scraper(ctx, r, ph)
	ph.start = time.Now()
	w.run(ctx, g, ph, ph.start.Add(window))
	ph.end = time.Now()
	ph.add("rss_mb", rssMB()) // at least one sample however short the window
	stop()
	ph.rt = [2]rtSample{rt0, readRuntime()}
	after, _, _ := scrape(r)
	for _, k := range []string{"rumor_wal_append_seconds_sum", "rumor_wal_append_seconds_count", "rumor_wal_fsync_seconds_count"} {
		ph.prog[k] = after[k] - before[k]
	}
	r.timer.on.Store(false)
	r.reader.on.Store(false)
	if gets := r.reader.drain(); len(gets) > 0 {
		ph.series["get_result"] = gets
	}
	return ph
}

// validity flags a run whose generator, not the program, set the latency:
// the open loop's send lag p90 exceeds a quarter of the headline p90.
func validity(w *workload, ph *phase) (bool, string) {
	if w.rate == 0 {
		return true, ""
	}
	lag := quantile(ph.series["lag"], 0.9)
	tail := quantile(ph.series[w.head], 0.9)
	if lag > 0.25*tail {
		return false, fmt.Sprintf("send lag p90 %.3f ms exceeds a quarter of the %s p90 %.3f ms", lag, w.head, tail)
	}
	return true, ""
}

func printMeta(out io.Writer, o options, w *workload, nproc int, phases []*phase, valid bool, why string, boundRatio float64) {
	type phaseMeta struct {
		Traced    bool             `json:"traced"`
		WindowS   float64          `json:"window_s"`
		Attempted map[string]int64 `json:"attempted"`
		Succeeded map[string]int64 `json:"succeeded"`
		Failed    map[string]int64 `json:"failed"`
		FirstErr  string           `json:"first_error,omitempty"`
	}
	meta := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"cpus": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"offered_rps": w.rate, "closed_loop_clients": w.clients, "max_conns": nproc,
		"setups": o.setups, "valid": valid,
		// Above 1 the surface tier's reported error bound did not hold.
		"surface_err_over_bound_max": boundRatio,
	}
	if why != "" {
		meta["invalid_reason"] = why
	}
	var pm []phaseMeta
	for _, ph := range phases {
		m := phaseMeta{Traced: ph.traced, WindowS: ph.end.Sub(ph.start).Seconds(),
			Attempted: ph.attempted, Failed: ph.failed, Succeeded: map[string]int64{}, FirstErr: ph.firstErr}
		for c, n := range ph.attempted {
			m.Succeeded[c] = n - ph.failed[c]
		}
		pm = append(pm, m)
	}
	meta["phases"] = pm
	b, _ := json.Marshal(map[string]any{"meta": meta}) // plain maps and numbers
	fmt.Fprintln(out, string(b))
}

// printClasses prints every latency series of a phase with its sample
// count, median and the highest percentile that has ten samples beyond it.
func printClasses(out io.Writer, ph *phase) {
	label := "untraced"
	if ph.traced {
		label = "traced"
	}
	names := make([]string, 0, len(ph.series))
	for n := range ph.series {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s window %.2fs\n", label, ph.end.Sub(ph.start).Seconds())
	for _, n := range names {
		xs := ph.series[n]
		tailName, tail := "max", quantile(xs, 1)
		switch {
		case len(xs) >= 1000:
			tailName, tail = "p99", quantile(xs, 0.99)
		case len(xs) >= 100:
			tailName, tail = "p90", quantile(xs, 0.90)
		}
		fmt.Fprintf(out, "  %-24s n=%-6d p50=%-10.4f %s=%.4f\n", n, len(xs), quantile(xs, 0.5), tailName, tail)
	}
}

func ledgerNotes(ph *phase, d *direct) map[string][]string {
	get := quantile(ph.series["get_result"], 0.5)
	wal := 0.0
	if n := ph.prog["rumor_wal_append_seconds_count"]; n > 0 {
		wal = ph.prog["rumor_wal_append_seconds_sum"] / n * 1e6
	}
	jobNote := []string{
		fmt.Sprintf("(in the submitting handler: store.get_result p50 %.2f us)", get),
		fmt.Sprintf("(in service.serialize: WAL append mean %.2f us, program-reported)", wal),
	}
	return map[string][]string{
		"query": {fmt.Sprintf("(in service.query: Service.Query direct p50 %.2f us, of which surface Eval %.0f ns)", d.queryCallUS, d.evalNS)},
		"exact": jobNote, "ode": jobNote, "abm": jobNote, "fbsm": jobNote, "batch": jobNote,
	}
}

func endToEnd(w *workload, ph *phase, setups []float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {quantile(setups, 0.5), "s"},
		"rss_mb":        {quantile(ph.series["rss_mb"], 0.5), "MB"},
		"p50_ms":        {quantile(ph.series[w.head], 0.5), "ms"},
		"second_p50_ms": {quantile(ph.series[w.second], 0.5), "ms"},
		"jobs_per_s":    {ph.perSec(w.jobs...), "1/s"},
	}
}

func perLayer(w *workload, r *rig, up, tp *phase, rt *checkResult, d *direct) map[string]metric {
	p50 := func(ph *phase, s string) float64 { return quantile(ph.series[s], 0.5) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var executed float64
	for k, n := range tp.counts {
		if len(k) > 5 && k[:5] == "done_" {
			executed += float64(n)
		}
	}
	attempted, _ := up.totals()
	return map[string]metric{
		"transport.query_self_us":           {p50(tp, "transport_self_query"), "us"},
		"transport.submit_self_us":          {p50(tp, "transport_self_submit"), "us"},
		"transport.poll_self_us":            {p50(tp, "transport_self_poll"), "us"},
		"transport.conn_wait_us":            {mean(tp.series["conn_wait"]), "us"},
		"transport.polls_per_job":           {ratio(float64(tp.counts["polls"]), float64(tp.counts["polled_jobs"])), "count"},
		"service.handler_query_us":          {p50(tp, "handler_query"), "us"},
		"service.handler_query_p99_us":      {quantile(tp.series["handler_query"], 0.99), "us"},
		"service.handler_submit_us":         {p50(tp, "handler_submit"), "us"},
		"service.handler_submit_p99_us":     {quantile(tp.series["handler_submit"], 0.99), "us"},
		"service.handler_poll_us":           {p50(tp, "handler_poll"), "us"},
		"service.query_call_us":             {d.queryCallUS, "us"},
		"service.queue_wait_interactive_ms": {p50(tp, "queue_interactive"), "ms"},
		"service.queue_wait_batch_ms":       {p50(tp, "queue_batch"), "ms"},
		"service.execute_ode_ms":            {p50(tp, "execute_ode"), "ms"},
		"service.execute_abm_ms":            {p50(tp, "execute_abm"), "ms"},
		"service.execute_fbsm_ms":           {p50(tp, "execute_fbsm"), "ms"},
		"service.execute_threshold_ms":      {p50(tp, "execute_threshold"), "ms"},
		"service.serialize_ms":              {p50(tp, "serialize"), "ms"},
		"service.cache_hit_frac":            {ratio(float64(tp.counts["cache_hits"]), float64(tp.counts["submits"])), "ratio"},
		"surface.eval_ns":                   {d.evalNS, "ns"},
		"surface.hit_frac":                  {ratio(float64(tp.counts["surface_hit"]), float64(tp.counts["queries"])), "ratio"},
		"surface.build_s":                   {r.surfBuild.Seconds(), "s"},
		"surface.err_over_bound_max":        {rt.boundRatio, "ratio"},
		"store.get_result_us":               {p50(tp, "get_result"), "us"},
		"store.wal_append_us":               {ratio(tp.prog["rumor_wal_append_seconds_sum"], tp.prog["rumor_wal_append_seconds_count"]) * 1e6, "us"},
		"store.fsyncs_per_job":              {ratio(tp.prog["rumor_wal_fsync_seconds_count"], executed), "count"},
		"control.fbsm_sweeps":               {float64(rt.sweeps), "count"},
		"control.forward_ms":                {quantile(rt.forward, 0.5), "ms"},
		"control.backward_ms":               {quantile(rt.backward, 0.5), "ms"},
		"ode.solve_ms":                      {quantile(rt.byType["ode"], 0.5), "ms"},
		"abm.run_ms":                        {quantile(rt.byType["abm"], 0.5), "ms"},
		"core.rhs_ns":                       {d.rhsNS, "ns"},
		"runtime.sched_latency_p99_us":      {schedP99(up.rt[0], up.rt[1]), "us"},
		"runtime.gc_pause_total_ms":         {float64(up.rt[1].pauseNs-up.rt[0].pauseNs) / 1e6, "ms"},
		"runtime.alloc_bytes_per_op":        {ratio(float64(up.rt[1].totalAlloc-up.rt[0].totalAlloc), float64(attempted)), "B"},
		"obs.scrape_ms":                     {p50(up, "scrape_ms"), "ms"},
		"obs.scrape_bytes":                  {mean(up.series["scrape_bytes"]), "B"},
		"loadgen.send_lag_p99_ms":           {quantile(up.series["lag"], 0.99), "ms"},
		"digg.dist_ms":                      {d.distMS, "ms"},
		"trace.overhead_ms":                 {p50(tp, w.head) - p50(up, w.head), "ms"},
	}
}
