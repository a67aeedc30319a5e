// Package cluster holds the lease state machine of rumord: a lease table
// handing queued jobs to workers under fenced, TTL-bounded leases, and a
// worker registry tracking liveness and throughput per worker.
// internal/service owns the job queue and threads every job through this
// table, leased by an in-process worker or by a remote node
// (internal/cluster/worker). See DESIGN.md §12 for the lease state machine
// and why fencing tokens make duplicate result uploads safe.
//
// The package depends only on the standard library and is deliberately
// ignorant of jobs' contents: a lease is (job id, worker id, token,
// deadline). The clock is injectable so expiry tests are deterministic.
package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Lease errors, mapped onto HTTP statuses by internal/service: a stale
// token (the lease expired and was re-granted, or the coordinator
// restarted) must be rejected with a conflict so a dead worker's late
// heartbeat or result upload cannot corrupt a job another worker now owns.
var (
	// ErrNotLeased marks an operation on a job that holds no active lease.
	ErrNotLeased = errors.New("cluster: job not leased")
	// ErrStaleToken marks a token that does not match the job's current
	// lease — the fencing failure.
	ErrStaleToken = errors.New("cluster: stale lease token")
)

// Lease is one active (or just-expired/just-released) claim of a job by a
// worker. Values are snapshots; the table owns the live state.
type Lease struct {
	JobID  string
	Worker string
	// Token fences the lease: it embeds the attempt number and 8 random
	// bytes, is minted fresh on every grant, and must accompany every
	// heartbeat and result upload. A requeue (or coordinator restart)
	// invalidates it.
	Token string
	// Attempt counts lease grants for this job, 1-based.
	Attempt  int
	Deadline time.Time
	// Cancel reports that the coordinator wants the job stopped; workers
	// read it from heartbeat acknowledgements.
	Cancel bool
}

// Telemetry is a remote worker's health sample on GET /v1/workers: what
// it is doing right now plus a few Go runtime vitals. internal/service
// reads it off the registry snapshot the worker last relayed, and the
// stage off its own job table; rumorctl workers/top render it.
type Telemetry struct {
	// Stage is the stage of the newest checkpoint among the jobs the
	// worker runs (ode/fbsm/abm/...), empty when it runs none.
	Stage string `json:"stage,omitempty"`
	// InvariantViolations counts invariant-monitor trips on the worker
	// since it started, across all jobs it executed.
	InvariantViolations int64 `json:"invariant_violations"`
	// JobsExecuted counts jobs the worker ran to a terminal status,
	// whether or not the upload was accepted.
	JobsExecuted int64 `json:"jobs_executed"`
	// Go runtime vitals, as of the worker's last snapshot.
	Goroutines          int     `json:"goroutines"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
	HeapAllocBytes      uint64  `json:"heap_alloc_bytes"`
	GCPauseSecondsTotal float64 `json:"gc_pause_seconds_total"`
	// UptimeSeconds is how long the worker process has been running.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// WorkerInfo is the registry's view of one worker node, served by
// GET /v1/workers.
type WorkerInfo struct {
	ID string `json:"id"`
	// Live reports an in-process worker, or a lease poll or heartbeat
	// within the liveness window.
	Live       bool `json:"live"`
	LeasesHeld int  `json:"leases_held"`
	// JobsCompleted counts result uploads accepted from this worker.
	JobsCompleted int64     `json:"jobs_completed"`
	LastSeen      time.Time `json:"last_seen"`
	// OldestLeaseAgeMS is how long ago the oldest lease this worker still
	// holds was granted or last extended, in milliseconds — a growing value
	// against a short heartbeat interval means the worker stopped
	// heartbeating and the lease is drifting toward expiry. Zero when the
	// worker holds no leases.
	OldestLeaseAgeMS float64 `json:"oldest_lease_age_ms,omitempty"`
	// Telemetry is the worker's health sample, nil for an in-process
	// worker and until a remote worker's first registry snapshot.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

type workerState struct {
	lastSeen  time.Time
	completed int64
	// resident marks an in-process worker: it lives as long as the table,
	// so it is live without polling.
	resident bool
}

// Table is the lease table plus worker registry. All methods are safe for
// concurrent use; the zero value is not usable, call New.
type Table struct {
	ttl      time.Duration
	liveness time.Duration
	now      func() time.Time

	mu      sync.Mutex
	leases  map[string]*Lease // by job id
	workers map[string]*workerState
}

// New returns a table granting leases of the given TTL and considering a
// worker live within the liveness window of its last poll or heartbeat.
// now is the clock (nil: time.Now).
func New(ttl, liveness time.Duration, now func() time.Time) *Table {
	if now == nil {
		now = time.Now
	}
	return &Table{
		ttl:      ttl,
		liveness: liveness,
		now:      now,
		leases:   make(map[string]*Lease),
		workers:  make(map[string]*workerState),
	}
}

// TTL returns the lease duration granted by this table.
func (t *Table) TTL() time.Duration { return t.ttl }

// Touch records that a worker was seen (lease poll, heartbeat or upload),
// registering it on first contact.
func (t *Table) Touch(workerID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touchLocked(workerID)
}

func (t *Table) touchLocked(workerID string) *workerState {
	w := t.workers[workerID]
	if w == nil {
		w = &workerState{}
		t.workers[workerID] = w
	}
	w.lastSeen = t.now()
	return w
}

// Resident registers an in-process worker, which counts as live for the
// table's whole life.
func (t *Table) Resident(workerID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touchLocked(workerID).resident = true
}

// Grant leases jobID to workerID under a fresh fenced token. Any previous
// lease of the job is superseded (its token goes stale). attempt is the
// 1-based grant count the caller tracks.
func (t *Table) Grant(jobID, workerID string, attempt int) Lease {
	var buf [8]byte
	rand.Read(buf[:]) // crypto/rand.Read never fails on supported platforms
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touchLocked(workerID)
	l := &Lease{
		JobID:    jobID,
		Worker:   workerID,
		Token:    fmt.Sprintf("%s.a%d.%s", jobID, attempt, hex.EncodeToString(buf[:])),
		Attempt:  attempt,
		Deadline: t.now().Add(t.ttl),
	}
	t.leases[jobID] = l
	return *l
}

// check validates a (job, token) pair. Callers hold t.mu.
func (t *Table) checkLocked(jobID, token string) (*Lease, error) {
	l, ok := t.leases[jobID]
	if !ok {
		return nil, ErrNotLeased
	}
	if l.Token != token {
		return nil, ErrStaleToken
	}
	return l, nil
}

// Extend validates the token and pushes the lease deadline out by one TTL,
// returning the refreshed snapshot (including the cancel flag). It also
// touches the owning worker.
func (t *Table) Extend(jobID, token string) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.checkLocked(jobID, token)
	if err != nil {
		return Lease{}, err
	}
	l.Deadline = t.now().Add(t.ttl)
	t.touchLocked(l.Worker)
	return *l, nil
}

// Release validates the token and removes the lease — the result-upload
// path. The owning worker's completion count is bumped and it is touched.
func (t *Table) Release(jobID, token string) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.checkLocked(jobID, token)
	if err != nil {
		return Lease{}, err
	}
	delete(t.leases, jobID)
	t.touchLocked(l.Worker).completed++
	return *l, nil
}

// RequestCancel marks a leased job for cancellation; the flag rides back
// on the next heartbeat acknowledgement. Reports whether a lease was held.
func (t *Table) RequestCancel(jobID string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[jobID]
	if ok {
		l.Cancel = true
	}
	return ok
}

// Expired pops and returns every lease whose deadline has passed, oldest
// deadline first. The popped tokens are thereby invalidated: a worker that
// went silent past the TTL can no longer heartbeat or upload against them.
func (t *Table) Expired() []Lease {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Lease
	for id, l := range t.leases {
		if now.After(l.Deadline) {
			out = append(out, *l)
			delete(t.leases, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Deadline.Before(out[j].Deadline) })
	return out
}

// Active returns the number of live leases.
func (t *Table) Active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.leases)
}

// Leased returns the active lease of jobID, if any.
func (t *Table) Leased(jobID string) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[jobID]
	if !ok {
		return Lease{}, false
	}
	return *l, true
}

// Deregister removes a worker from the registry (the SIGTERM-drain
// goodbye). Leases it still holds are untouched — they expire normally,
// which is the safe default if a "draining" worker in fact died mid-job.
func (t *Table) Deregister(workerID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.workers, workerID)
}

// LiveWorkers counts workers seen within the liveness window.
func (t *Table) LiveWorkers() int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, w := range t.workers {
		if w.resident || now.Sub(w.lastSeen) <= t.liveness {
			n++
		}
	}
	return n
}

// Workers snapshots the registry sorted by worker id.
func (t *Table) Workers() []WorkerInfo {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	held := make(map[string]int, len(t.workers))
	oldest := make(map[string]time.Duration, len(t.workers))
	for _, l := range t.leases {
		held[l.Worker]++
		// Deadline was set to (grant-or-extend time + ttl), so the time
		// since the lease was last refreshed is now − (deadline − ttl).
		if age := now.Sub(l.Deadline.Add(-t.ttl)); age > oldest[l.Worker] {
			oldest[l.Worker] = age
		}
	}
	out := make([]WorkerInfo, 0, len(t.workers))
	for id, w := range t.workers {
		out = append(out, WorkerInfo{
			ID:               id,
			Live:             w.resident || now.Sub(w.lastSeen) <= t.liveness,
			LeasesHeld:       held[id],
			JobsCompleted:    w.completed,
			LastSeen:         w.lastSeen,
			OldestLeaseAgeMS: float64(oldest[id]) / float64(time.Millisecond),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
