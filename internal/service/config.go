package service

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"rumornet/internal/obs"
	"rumornet/internal/store"
)

// Config parameterizes a Service. The zero value is not usable directly;
// New applies the documented defaults first and then validates.
type Config struct {
	// Workers is the number of goroutines executing jobs (default:
	// runtime.NumCPU via par.Default). Each job additionally fans its own
	// inner work (ABM trials, transition-sweep shards) across
	// InnerWorkers goroutines.
	Workers int
	// InnerWorkers bounds the per-job fan-out handed to internal/par
	// (default 1: with Workers jobs in flight, per-job parallelism is
	// usually counterproductive; raise it for a lightly loaded daemon).
	InnerWorkers int
	// QueueDepth bounds the number of queued-but-not-running jobs per
	// admission class at submission (default 64). Submissions beyond the
	// bound are rejected so a burst degrades into fast 503s instead of
	// unbounded memory growth; a requeued or recovered job is never
	// refused.
	QueueDepth int
	// CacheEntries is the capacity of the content-addressed result cache
	// (default 256; negative disables caching).
	CacheEntries int
	// MaxJobs bounds the number of job records retained for polling
	// (default 4096); the oldest finished jobs are evicted first.
	MaxJobs int
	// DefaultTimeout applies to jobs that do not request one
	// (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-job timeout a client may request
	// (default 10m).
	MaxTimeout time.Duration
	// Seed drives the built-in synthetic Digg2009 scenario construction
	// (default 1, matching the CLIs).
	Seed int64
	// Logger receives the service's structured records: job lifecycle at
	// info, HTTP requests and solver progress at debug. Nil discards
	// everything, so tests and embedders that don't care stay silent.
	Logger *slog.Logger
	// ProgressLogEvery logs every Nth solver progress event of a job at
	// debug level (default 25; progress is still always visible on
	// GET /v1/jobs/{id} regardless). Negative disables progress logging.
	ProgressLogEvery int
	// JournalEntries is the maximum number of flight-recorder entries
	// retained per job (default 256). A job's ring grows with the entries
	// it writes; once a job has emitted more, the oldest are overwritten
	// and GET /v1/jobs/{id}/events replays only the tail, revealed by gaps
	// in the seq numbers.
	JournalEntries int
	// JournalSink, when non-nil, additionally receives every journal entry
	// as one JSON line (rumord's -journal-file). Writes happen inline on
	// the emitting goroutine; hand in a buffered or async writer for slow
	// destinations.
	JournalSink io.Writer
	// SSEHeartbeat is the idle keep-alive cadence of the
	// GET /v1/jobs/{id}/events stream (default 15s): a comment line that
	// defeats idle-connection timeouts in proxies without waking clients.
	SSEHeartbeat time.Duration
	// StoreDir, when non-empty, opens (creating if needed) the durable job
	// store rooted there: every accepted job is logged to a write-ahead log
	// and every result persisted to a content-addressed blob store, so a
	// restarted daemon re-enqueues unfinished jobs and serves completed
	// results without recomputing them (rumord's -data-dir). Empty keeps
	// the service fully in-memory.
	StoreDir string
	// StoreOptions tunes the store when StoreDir is set (sync policy,
	// segment sizing, result retention). The Logger defaults to Config.
	// Logger and the Hooks are always overridden to feed the service's
	// metrics registry.
	StoreOptions store.Options
	// StoreReader, when non-nil, overrides the read-only persistence seam
	// the serving paths use (cache-miss result reads, response-surface
	// artifacts). Defaults to the store StoreDir opened; tests inject a
	// double here to prove the serving tier never reaches around the seam,
	// and a shared or remote content-addressed tier can slot in the same
	// way. Writes still go to the local store when one is configured.
	StoreReader store.Reader
	// Cluster, when Enabled, runs the service as a coordinator: no local
	// worker pool, jobs execute on remote worker nodes under fenced leases
	// (see cluster.go and DESIGN.md §12).
	Cluster ClusterConfig
	// SaturationBudget is the queue-wait p99 budget: when the p99 dwell
	// time over the sliding SaturationWindow exceeds it, the service
	// reports saturated (rumor_saturated gauge, /readyz degraded reason)
	// so load balancers shed before timeouts pile up (default 2s;
	// negative disables the detector). See DESIGN.md §14.
	SaturationBudget time.Duration
	// SaturationWindow is the sliding window the saturation detector
	// evaluates over (default 30s). Implemented as two rotating epochs, so
	// the visible history spans between half and the full window.
	SaturationWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.InnerWorkers <= 0 {
		c.InnerWorkers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	} else if c.CacheEntries < 0 {
		c.CacheEntries = 0 // explicit disable
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.ProgressLogEvery == 0 {
		c.ProgressLogEvery = 25
	} else if c.ProgressLogEvery < 0 {
		c.ProgressLogEvery = 0 // explicit disable
	}
	if c.JournalEntries <= 0 {
		c.JournalEntries = 256
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	if c.SaturationBudget == 0 {
		c.SaturationBudget = 2 * time.Second
	} else if c.SaturationBudget < 0 {
		c.SaturationBudget = 0 // explicit disable
	}
	if c.SaturationWindow <= 0 {
		c.SaturationWindow = 30 * time.Second
	}
	c.Cluster = c.Cluster.withDefaults()
	return c
}

func (c Config) validate() error {
	if c.DefaultTimeout > c.MaxTimeout {
		return fmt.Errorf("service: default timeout %s exceeds max timeout %s",
			c.DefaultTimeout, c.MaxTimeout)
	}
	return nil
}
