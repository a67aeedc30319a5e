// Command rumord serves rumor-propagation simulations over a JSON HTTP API.
//
// Usage:
//
//	rumord [flags]
//
// The daemon keeps the calibrated synthetic Digg2009 scenario resident,
// accepts uploaded degree-distribution tables, and executes ODE, threshold,
// agent-based and FBSM control-optimization jobs asynchronously on a bounded
// worker pool with a content-addressed result cache:
//
//	rumord -addr :8080 &
//	curl -s localhost:8080/v1/scenarios | jq
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"type":"ode","params":{"r0":0.7,"tf":150}}' | jq -r .id
//	curl -s localhost:8080/v1/jobs/j-000001 | jq
//
// SIGINT/SIGTERM stop intake and let queued and running jobs finish, bounded
// by -drain-grace; jobs still running after the grace period are cancelled.
//
// Observability: GET /metrics serves Prometheus text exposition on the API
// listener; -log-level/-log-format configure the structured log stream; and
// -debug-addr starts a second, opt-in listener with net/http/pprof profiles,
// a /metrics mirror and a /debug/events flight-recorder dump:
//
//	rumord -addr :8080 -debug-addr 127.0.0.1:6060 -log-format json &
//	curl -s localhost:8080/metrics | grep rumor_queue_depth
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//	curl -s http://127.0.0.1:6060/debug/events | jq .spans
//
// Every job records its lifecycle, solver checkpoints and invariant
// violations into a per-job ring (-journal entries deep, optionally mirrored
// as JSON lines to -journal-file, rotated at -journal-max-bytes);
// GET /v1/jobs/{id}/events replays the ring and follows live over
// Server-Sent Events with -sse-heartbeat keep-alives. Incoming W3C
// traceparent headers parent the request/job/stage spans dumped at
// /debug/events.
//
// Persistence: -data-dir makes the daemon durable. Accepted jobs are logged
// to a write-ahead log (-wal-sync selects the fsync policy) and completed
// results persisted to a content-addressed store bounded by
// -store-max-bytes; a restart over the same directory re-enqueues the jobs
// a crash interrupted and serves completed results without recomputing:
//
//	rumord -addr :8080 -data-dir /var/lib/rumord &
//	curl -s localhost:8080/v1/stats | jq .store
//
// Clustering: every job runs under a lease (grant, heartbeats, completion).
// -mode standalone (the default) leases to -workers in-process workers;
// -mode coordinator (public API, queue, WAL, result store; no in-process
// workers) leases to stateless -mode worker processes over its internal
// API, which heartbeat progress back and upload results. Both run each job
// through the same runner:
//
//	rumord -mode coordinator -addr :8080 -data-dir /var/lib/rumord &
//	rumord -mode worker -coordinator http://localhost:8080 &
//	rumord -mode worker -coordinator http://localhost:8080 &
//	curl -s localhost:8080/v1/workers | jq
//
// A worker killed mid-job is harmless: its lease expires (-lease-ttl) and
// the coordinator requeues the job (at most -max-attempts grants, counted
// across restarts) onto a surviving worker. A SIGTERM'd worker finishes its
// leased job, uploads the result, deregisters and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rumornet/internal/cli"
	"rumornet/internal/cluster/worker"
	"rumornet/internal/obs"
	"rumornet/internal/par"
	"rumornet/internal/service"
	"rumornet/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(cli.Exit("rumord", run(ctx, os.Args[1:], os.Stdout, nil)))
}

// run starts the daemon and blocks until ctx is cancelled or the listener
// fails. The optional ready callback receives the bound address once the
// server is listening (tests use it to learn an ephemeral port).
func run(ctx context.Context, args []string, out io.Writer, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("rumord", flag.ContinueOnError)
	var (
		mode         = fs.String("mode", "standalone", `"standalone" (lease jobs to in-process workers), "coordinator" (serve API, lease jobs to remote workers) or "worker" (execute jobs for -coordinator)`)
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "job-executing goroutines (0: all CPUs)")
		innerWorkers = fs.Int("inner-workers", 1, "per-job fan-out goroutines for ABM trials (0: all CPUs)")
		queueDepth   = fs.Int("queue", 64, "bounded job-queue depth; submissions beyond it get 503")
		cacheSize    = fs.Int("cache", 256, "result-cache entries (-1 disables caching)")
		timeout      = fs.Duration("timeout", 60*time.Second, "default per-job timeout")
		maxTimeout   = fs.Duration("max-timeout", 10*time.Minute, "cap on client-requested per-job timeouts")
		drainGrace   = fs.Duration("drain-grace", 30*time.Second, "how long shutdown waits for in-flight jobs")
		seed         = fs.Int64("seed", 1, "seed for the built-in synthetic Digg2009 scenario")
		debugAddr    = fs.String("debug-addr", "", "optional second listener serving /debug/pprof/, /metrics and /debug/events (empty: disabled)")
		progEvery    = fs.Int("progress-log-every", 25, "solver progress events between debug-level log records per job (0: disable)")
		journalSize  = fs.Int("journal", 256, "per-job flight-recorder ring capacity in entries")
		journalFile  = fs.String("journal-file", "", "append every journal entry as a JSON line to this file (empty: disabled)")
		journalMax   = fs.Int64("journal-max-bytes", 64<<20, "rotate -journal-file to .1 once it would exceed this size (0: never rotate)")
		sseHeartbeat = fs.Duration("sse-heartbeat", 15*time.Second, "idle keep-alive cadence of the /v1/jobs/{id}/events stream")
		dataDir      = fs.String("data-dir", "", "durable store directory: job WAL + result blobs, replayed on restart (empty: in-memory only)")
		satBudget    = fs.Duration("saturation-budget", 2*time.Second, "queue-wait p99 budget: exceeding it over -saturation-window flips /readyz degraded and rumor_saturated (0: disable)")
		satWindow    = fs.Duration("saturation-window", 30*time.Second, "sliding window the saturation detector evaluates the queue-wait p99 over")
		walSync      = fs.String("wal-sync", "100ms", `WAL durability with -data-dir: "always", "none", or a batched-fsync interval`)
		storeMax     = fs.Int64("store-max-bytes", 1<<30, "result-store size bound, oldest blobs evicted first (0: unbounded)")

		// Lease flags (standalone and coordinator).
		leaseTTL       = fs.Duration("lease-ttl", 15*time.Second, "lease duration; a worker silent this long forfeits its job")
		maxAttempts    = fs.Int("max-attempts", 3, "lease grants per job, counted across restarts, before it fails terminally (poison-job guard)")
		workerLiveness = fs.Duration("worker-liveness", 0, "window within which a remote worker must poll or heartbeat to count as live (0: 3x -lease-ttl)")

		// Worker-mode flags.
		coordinator = fs.String("coordinator", "", "worker: coordinator base URL, e.g. http://host:8080 (required in -mode worker)")
		workerID    = fs.String("worker-id", "", "worker: registry name (default: w-<hostname>-<pid>)")
		heartbeat   = fs.Duration("heartbeat", 0, "worker: lease-renewal cadence (0: a third of the granted TTL)")
		pollMin     = fs.Duration("poll-min", 50*time.Millisecond, "worker: minimum lease-poll backoff on an empty queue")
		pollMax     = fs.Duration("poll-max", 2*time.Second, "worker: maximum lease-poll backoff on an empty queue")
	)
	lf := cli.AddLogFlags(fs)
	if err := cli.WrapParse(fs.Parse(args)); err != nil {
		return err
	}
	lg, err := lf.Logger(out)
	if err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	switch *mode {
	case "standalone", "coordinator", "worker":
	default:
		return cli.Usagef(`-mode = %q must be "standalone", "coordinator" or "worker"`, *mode)
	}
	if *mode == "worker" && *coordinator == "" {
		return cli.Usagef("-mode worker requires -coordinator")
	}
	if *mode != "worker" && *coordinator != "" {
		return cli.Usagef("-coordinator only applies in -mode worker")
	}
	switch {
	case *workers < 0:
		return cli.Usagef("-workers = %d must be non-negative", *workers)
	case *innerWorkers < 0:
		return cli.Usagef("-inner-workers = %d must be non-negative", *innerWorkers)
	case *queueDepth < 1:
		return cli.Usagef("-queue = %d must be at least 1", *queueDepth)
	case *timeout <= 0:
		return cli.Usagef("-timeout = %s must be positive", *timeout)
	case *maxTimeout <= 0:
		return cli.Usagef("-max-timeout = %s must be positive", *maxTimeout)
	case *timeout > *maxTimeout:
		return cli.Usagef("-timeout = %s exceeds -max-timeout = %s", *timeout, *maxTimeout)
	case *drainGrace < 0:
		return cli.Usagef("-drain-grace = %s must be non-negative", *drainGrace)
	case *progEvery < 0:
		return cli.Usagef("-progress-log-every = %d must be non-negative", *progEvery)
	case *journalSize < 1:
		return cli.Usagef("-journal = %d must be at least 1", *journalSize)
	case *journalMax < 0:
		return cli.Usagef("-journal-max-bytes = %d must be non-negative", *journalMax)
	case *sseHeartbeat <= 0:
		return cli.Usagef("-sse-heartbeat = %s must be positive", *sseHeartbeat)
	case *storeMax < 0:
		return cli.Usagef("-store-max-bytes = %d must be non-negative", *storeMax)
	case *satBudget < 0:
		return cli.Usagef("-saturation-budget = %s must be non-negative", *satBudget)
	case *satWindow <= 0:
		return cli.Usagef("-saturation-window = %s must be positive", *satWindow)
	case *leaseTTL <= 0:
		return cli.Usagef("-lease-ttl = %s must be positive", *leaseTTL)
	case *maxAttempts < 1:
		return cli.Usagef("-max-attempts = %d must be at least 1", *maxAttempts)
	case *workerLiveness < 0:
		return cli.Usagef("-worker-liveness = %s must be non-negative", *workerLiveness)
	case *heartbeat < 0:
		return cli.Usagef("-heartbeat = %s must be non-negative", *heartbeat)
	case *pollMin <= 0:
		return cli.Usagef("-poll-min = %s must be positive", *pollMin)
	case *pollMax < *pollMin:
		return cli.Usagef("-poll-max = %s must be at least -poll-min = %s", *pollMax, *pollMin)
	}

	// -inner-workers 0 means all CPUs in every mode; resolve it once.
	inner := par.Default(*innerWorkers)

	// A worker node is a client, not a server: no API listener, no store,
	// no queue. It loops leasing jobs from the coordinator until ctx
	// cancels, then finishes its current job, deregisters and exits. Its
	// registry (solver histograms, runtime gauges) is relayed to the
	// coordinator on heartbeats; -debug-addr additionally serves the same
	// registry and pprof locally for on-node debugging.
	if *mode == "worker" {
		reg := obs.NewRegistry()
		if *debugAddr != "" {
			dln, err := net.Listen("tcp", *debugAddr)
			if err != nil {
				return fmt.Errorf("debug listen: %w", err)
			}
			dsrv := &http.Server{Handler: debugMux(obs.Handler(reg), nil)}
			defer dsrv.Close()
			fmt.Fprintf(out, "rumord: debug listener on %s (pprof + metrics)\n", dln.Addr())
			go dsrv.Serve(dln)
		}
		fmt.Fprintf(out, "rumord: worker polling %s (inner-workers %d)\n", *coordinator, inner)
		if ready != nil {
			ready(nil)
		}
		err := worker.Run(ctx, worker.Options{
			Coordinator:  *coordinator,
			ID:           *workerID,
			InnerWorkers: inner,
			PollMin:      *pollMin,
			PollMax:      *pollMax,
			Heartbeat:    *heartbeat,
			Logger:       lg,
			Registry:     reg,
		})
		if err == nil {
			fmt.Fprintln(out, "rumord: bye")
		}
		return err
	}
	syncMode, syncInterval, err := store.ParseSyncMode(*walSync)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	logEvery := *progEvery
	if logEvery == 0 {
		logEvery = -1 // Config treats 0 as "use the default"; negative disables.
	}
	budget := *satBudget
	if budget == 0 {
		budget = -1 // same flag-zero-disables convention as -progress-log-every
	}

	// The journal mirror appends across restarts (history extends, never
	// truncates) and rotates to .1 at the size cap so a chatty daemon
	// cannot fill the disk.
	var journalSink io.Writer
	if *journalFile != "" {
		w, err := store.NewRotatingWriter(*journalFile, *journalMax)
		if err != nil {
			return fmt.Errorf("journal file: %w", err)
		}
		defer w.Close()
		journalSink = w
	}

	resultMax := *storeMax
	if resultMax == 0 {
		resultMax = -1 // flag 0 = unbounded; store.Options 0 = default bound
	}
	svc, err := service.New(service.Config{
		Workers:          *workers,
		InnerWorkers:     inner,
		QueueDepth:       *queueDepth,
		CacheEntries:     *cacheSize,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		Seed:             *seed,
		Logger:           lg,
		ProgressLogEvery: logEvery,
		JournalEntries:   *journalSize,
		JournalSink:      journalSink,
		SSEHeartbeat:     *sseHeartbeat,
		StoreDir:         *dataDir,
		SaturationBudget: budget,
		SaturationWindow: *satWindow,
		StoreOptions: store.Options{
			SyncMode:       syncMode,
			SyncInterval:   syncInterval,
			ResultMaxBytes: resultMax,
		},
		Cluster: service.ClusterConfig{
			Enabled:        *mode == "coordinator",
			LeaseTTL:       *leaseTTL,
			MaxAttempts:    *maxAttempts,
			WorkerLiveness: *workerLiveness,
		},
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	defer ln.Close() // no-op once Serve/Shutdown owns it; closes it on early error returns
	srv := &http.Server{Handler: svc.Handler()}
	if *mode == "coordinator" {
		fmt.Fprintf(out, "rumord: coordinator listening on %s (lease-ttl %s, max-attempts %d, queue %d, cache %d)\n",
			ln.Addr(), *leaseTTL, *maxAttempts, *queueDepth, *cacheSize)
	} else {
		fmt.Fprintf(out, "rumord: listening on %s (%d workers, queue %d, cache %d)\n",
			ln.Addr(), svc.Stats().Workers, *queueDepth, *cacheSize)
	}

	// The debug listener is opt-in and meant to stay private (bind it to
	// loopback): pprof exposes heap contents and /metrics skips the API
	// middleware. It shuts down abruptly with the process — profiles are
	// diagnostics, not clients worth draining for.
	var dsrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listen: %w", err)
		}
		dsrv = &http.Server{Handler: debugMux(svc.MetricsHandler(), svc.EventsDumpHandler())}
		defer dsrv.Close()
		fmt.Fprintf(out, "rumord: debug listener on %s (pprof + metrics + events)\n", dln.Addr())
		go dsrv.Serve(dln)
	}

	if ready != nil {
		ready(ln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop intake, finish queued and in-flight jobs, then
	// stop the HTTP server; cancel whatever is left when the grace expires.
	fmt.Fprintf(out, "rumord: shutting down, draining for up to %s\n", *drainGrace)
	grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := svc.Drain(grace); err != nil {
		fmt.Fprintf(out, "rumord: %v; cancelling remaining jobs\n", err)
	}
	if err := srv.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(out, "rumord: bye")
	return nil
}

// debugMux wires the pprof handlers onto an explicit mux (avoiding the
// package's http.DefaultServeMux side registration) next to a mirror of
// the Prometheus endpoint and, when events is non-nil (not on a worker),
// the flight-recorder/span dump.
func debugMux(metrics, events http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", metrics)
	if events != nil {
		mux.Handle("/debug/events", events)
	}
	return mux
}
