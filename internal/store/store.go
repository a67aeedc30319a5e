// Package store is rumord's crash-safe persistence subsystem: an
// append-only write-ahead log of job lifecycle records (length-prefixed,
// CRC32-C-checksummed, fsync-batched, replayed tolerantly on open) plus a
// content-addressed on-disk result store keyed by the service's
// canonicalized cache keys (atomic temp-file+rename writes,
// checksum-verified reads, size/age retention). Opening a store replays
// the log, so a restarted daemon re-enqueues the jobs that never finished
// and re-serves the results that did — without recomputing either. The
// log is compacted automatically: once enough segments accumulate, the
// live state is snapshotted into a fresh segment and the history dropped.
// See DESIGN.md §10 for the formats and recovery semantics.
//
// The package depends only on the standard library; rumord owns the
// single writer (the store takes no cross-process lock). The store owns its
// directory: it indexes the results and surfaces trees at Open and
// trusts those indexes afterwards, so a result another process adds while
// it is open is not served until the next Open. Surfaces alone are read by
// path, so a second Store on the directory reads the first one's.
package store

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncMode selects when WAL appends reach stable storage.
type SyncMode int

const (
	// SyncBatch fsyncs on a timer (Options.SyncInterval): appends are one
	// buffered-by-the-OS write, and at most one interval of acknowledged
	// records is lost to a power failure. The default.
	SyncBatch SyncMode = iota
	// SyncAlways fsyncs every append: nothing acknowledged is ever lost,
	// at the cost of one fsync per record.
	SyncAlways
	// SyncNone never fsyncs: durability is whatever the OS page cache
	// provides. Survives process crashes (the kernel has the data), not
	// power loss.
	SyncNone
)

// ParseSyncMode maps the rumord -wal-sync flag onto a mode: "always",
// "none"/"off", or a Go duration selecting batched fsync at that interval.
func ParseSyncMode(v string) (SyncMode, time.Duration, error) {
	switch v {
	case "always":
		return SyncAlways, 0, nil
	case "none", "off":
		return SyncNone, 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, 0, fmt.Errorf("store: -wal-sync %q: want \"always\", \"none\" or a duration like 100ms", v)
	}
	if d <= 0 {
		return 0, 0, fmt.Errorf("store: -wal-sync interval %s must be positive", d)
	}
	return SyncBatch, d, nil
}

// Hooks are optional latency observers wired to the metrics registry by
// the service; nil fields are skipped on the hot path.
type Hooks struct {
	// OnAppend receives the wall time of each WAL append (excluding
	// batched fsyncs, including inline ones under SyncAlways).
	OnAppend func(time.Duration)
	// OnFsync receives the wall time of each segment fsync.
	OnFsync func(time.Duration)
}

// Options parameterizes Open. The zero value selects the documented
// defaults.
type Options struct {
	// SyncMode and SyncInterval set the WAL durability policy (default
	// SyncBatch every 100ms).
	SyncMode     SyncMode
	SyncInterval time.Duration
	// SegmentMaxBytes bounds one WAL segment before rotation (default 4 MiB).
	SegmentMaxBytes int64
	// CompactSegments is the segment count at which rotation compacts
	// instead: the live state is snapshotted into a fresh segment and all
	// older segments dropped (default 4, minimum 2).
	CompactSegments int
	// ResultMaxBytes bounds the total size of the result store; the oldest
	// blobs are removed first (default 1 GiB; negative disables the bound).
	ResultMaxBytes int64
	// ResultMaxAge, when positive, removes result blobs older than this
	// regardless of size (default 0: no age bound).
	ResultMaxAge time.Duration
	// Logger receives recovery, compaction and GC records (nil: discard).
	Logger *slog.Logger
	// Hooks are the optional latency observers.
	Hooks Hooks

	hooks Hooks // resolved copy used internally
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 4 << 20
	}
	if o.CompactSegments == 0 {
		o.CompactSegments = 4
	}
	if o.CompactSegments < 2 {
		o.CompactSegments = 2
	}
	if o.ResultMaxBytes == 0 {
		o.ResultMaxBytes = 1 << 30
	} else if o.ResultMaxBytes < 0 {
		o.ResultMaxBytes = 0 // explicit disable
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	o.hooks = o.Hooks
	return o
}

// Stats is a point-in-time snapshot of the store's counters and sizes.
type Stats struct {
	Dir         string `json:"dir"`
	WALSegments int    `json:"wal_segments"`
	WALBytes    int64  `json:"wal_bytes"`
	// Appends and Fsyncs count WAL operations since Open.
	Appends int64 `json:"appends"`
	Fsyncs  int64 `json:"fsyncs"`
	// ReplayRecords is how many intact records the opening replay applied;
	// ReplayTruncations how many corruption points (bad tail records plus
	// dropped later segments) it tolerated.
	ReplayRecords     int64 `json:"replay_records"`
	ReplayTruncations int64 `json:"replay_truncations"`
	Compactions       int64 `json:"compactions"`
	// PendingJobs is the number of logged-but-unfinished jobs.
	PendingJobs int `json:"pending_jobs"`
	// Scenarios is the number of persisted uploaded scenario tables.
	Scenarios int `json:"scenarios"`
	// Results and ResultBytes size the content-addressed result store;
	// ResultEvictions counts retention-GC removals and BadBlobs quarantined
	// checksum failures.
	Results         int   `json:"results"`
	ResultBytes     int64 `json:"result_bytes"`
	ResultEvictions int64 `json:"result_evictions"`
	BadBlobs        int64 `json:"bad_blobs"`
	// Surfaces and SurfaceBytes size the response-surface namespace
	// (exempt from result GC; see surface.go).
	Surfaces     int   `json:"surfaces"`
	SurfaceBytes int64 `json:"surface_bytes"`
}

// Store is an open persistence directory. All methods are safe for
// concurrent use; there must be at most one Store per directory per
// machine (rumord owns it for the life of the process).
type Store struct {
	dir    string
	walDir string
	opts   Options

	mu            sync.Mutex // WAL state: segment file, pending jobs, stats
	seg           *os.File
	segIdx        uint64
	segSize       int64
	segCount      int
	dirty         bool
	closed        bool
	pending       map[string]*JobState
	pendingOrder  []string
	scenarios     map[string]ScenarioState
	scenarioOrder []string
	maxSeq        uint64
	stats         Stats

	results   namespace // under the retention GC
	surfaces  namespace // exempt from it
	evictions atomic.Int64

	flushStop chan struct{}
	flushDone chan struct{}
}

// Open creates (if needed) the store layout under dir, replays the WAL to
// rebuild the live job state, indexes the result blobs, applies retention
// GC, and arms the batched-fsync flusher. The returned store is ready for
// appends; read PendingJobs for recovery.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		dir:       dir,
		walDir:    filepath.Join(dir, walDirName),
		opts:      opts,
		pending:   make(map[string]*JobState),
		scenarios: make(map[string]ScenarioState),
		results: namespace{kind: "result", dir: filepath.Join(dir, resultsDirName),
			log: opts.Logger, index: make(map[string]blobInfo)},
		surfaces: namespace{kind: "surface", dir: filepath.Join(dir, surfacesDirName),
			log: opts.Logger, index: make(map[string]blobInfo)},
		flushStop: make(chan struct{}),
		flushDone: make(chan struct{}),
	}
	for _, d := range []string{dir, s.walDir, s.results.dir, s.surfaces.dir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: mkdir %s: %w", d, err)
		}
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	for _, ns := range []*namespace{&s.results, &s.surfaces} {
		if err := ns.scan(); err != nil {
			s.seg.Close()
			return nil, err
		}
	}
	if _, err := s.GC(); err != nil {
		s.seg.Close()
		return nil, err
	}
	if opts.SyncMode == SyncBatch {
		go s.flusher()
	} else {
		close(s.flushDone)
	}
	s.stats.Dir = dir
	opts.Logger.Info("store opened", "dir", dir,
		"replayed_records", s.stats.ReplayRecords,
		"pending_jobs", len(s.pending),
		"results", len(s.results.index), "result_bytes", s.results.bytes)
	return s, nil
}

// flusher is the SyncBatch background loop: every SyncInterval it fsyncs
// the active segment if anything was appended since the last sync.
func (s *Store) flusher() {
	defer close(s.flushDone)
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
			s.mu.Lock()
			if s.dirty && !s.closed {
				if err := s.fsyncLocked(); err != nil {
					s.opts.Logger.Warn("wal flush failed", "error", err.Error())
				}
			}
			s.mu.Unlock()
		}
	}
}

// Close stops the flusher, fsyncs any batched appends and closes the
// active segment. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.flushStop)
	<-s.flushDone

	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.dirty {
		start := time.Now()
		if serr := s.seg.Sync(); serr != nil {
			err = fmt.Errorf("store: close fsync: %w", serr)
		} else {
			s.stats.Fsyncs++
			if s.opts.hooks.OnFsync != nil {
				s.opts.hooks.OnFsync(time.Since(start))
			}
		}
		s.dirty = false
	}
	if cerr := s.seg.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("store: close segment: %w", cerr)
	}
	return err
}

// AppendSubmitted logs a job's submission (the full request rides along so
// recovery can re-enqueue it).
func (s *Store) AppendSubmitted(js JobState) error {
	return s.appendRecord(walRecord{
		Op: opSubmitted, JobID: js.ID, Seq: js.Seq, Request: js.Request,
		Key: js.Key, TraceID: js.TraceID, SubmittedAt: js.SubmittedAt,
		Class: js.Class,
	})
}

// AppendFinished logs a job's terminal outcome (succeeded, failed or
// cancelled); the job will not be re-enqueued by recovery.
func (s *Store) AppendFinished(id, status string) error {
	return s.appendRecord(walRecord{Op: opFinished, JobID: id, Status: status})
}

// AppendAttempt logs a job's cumulative lease-grant count. The clustered
// coordinator writes one per lease so the poison-job attempt budget
// survives a restart; recovery surfaces the count via JobState.Attempts.
func (s *Store) AppendAttempt(id string, attempt int) error {
	return s.appendRecord(walRecord{Op: opAttempt, JobID: id, Attempt: attempt})
}

// AppendScenario logs an uploaded scenario table so recovery can
// re-register it before re-enqueueing the jobs that reference it.
func (s *Store) AppendScenario(sc ScenarioState) error {
	return s.appendRecord(walRecord{Op: opScenario, Scenario: &sc})
}

// Scenarios returns the persisted scenario tables in registration order —
// the re-register set for recovery.
func (s *Store) Scenarios() []ScenarioState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ScenarioState, 0, len(s.scenarioOrder))
	for _, name := range s.scenarioOrder {
		out = append(out, s.scenarios[name])
	}
	return out
}

// Compact forces a snapshot-and-drop compaction regardless of segment
// count (rotation triggers it automatically at CompactSegments).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.compactLocked()
}

// PendingJobs returns the jobs that were submitted but never reached a
// terminal record, in submission order — the re-enqueue set for recovery.
func (s *Store) PendingJobs() []JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobState, 0, len(s.pendingOrder))
	for _, id := range s.pendingOrder {
		out = append(out, *s.pending[id])
	}
	return out
}

// MaxSeq returns the highest job sequence number the log has seen; the
// service resumes id allocation above it.
func (s *Store) MaxSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxSeq
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Snapshot returns the current Stats.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	st := s.stats
	st.Dir = s.dir
	st.WALSegments = s.segCount
	st.WALBytes = s.walBytesLocked()
	st.PendingJobs = len(s.pending)
	st.Scenarios = len(s.scenarios)
	s.mu.Unlock()
	s.results.mu.Lock()
	st.Results, st.ResultBytes = len(s.results.index), s.results.bytes
	s.results.mu.Unlock()
	s.surfaces.mu.Lock()
	st.Surfaces, st.SurfaceBytes = len(s.surfaces.index), s.surfaces.bytes
	s.surfaces.mu.Unlock()
	st.ResultEvictions = s.evictions.Load()
	st.BadBlobs = s.results.bad.Load() + s.surfaces.bad.Load()
	return st
}
