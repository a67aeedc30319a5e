// Package journal is a per-job flight recorder: a bounded ring buffer of
// timestamped events for every job the service runs, with replay,
// live subscription (backing rumord's SSE endpoint), an optional JSONL
// sink for durable capture, and explicit removal so evicted jobs leave no
// payload behind. See DESIGN.md §9 for the retention rules.
//
// Entries are plain values, so publishing one to a subscriber never races
// with the writer.
package journal

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rumornet/internal/obs"
)

// Entry kinds.
const (
	// KindLifecycle marks submission/start/finish transitions.
	KindLifecycle = "lifecycle"
	// KindProgress mirrors one solver progress checkpoint (obs.Event).
	KindProgress = "progress"
	// KindInvariant records a numerical-invariant violation
	// (internal/obs/invariant).
	KindInvariant = "invariant"
	// KindLease records cluster lease transitions — grant, expiry, requeue
	// — so a job's journal shows it migrating between workers.
	KindLease = "lease"
)

// Entry is one recorded event of a job. Entries are immutable once
// appended; Seq increases by one per job starting at 1, so a replay gap
// (ring overwrite) is visible to consumers as a Seq jump.
type Entry struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	JobID   string    `json:"job_id"`
	TraceID string    `json:"trace_id,omitempty"`
	Kind    string    `json:"kind"`
	// Msg is the lifecycle transition or invariant description; empty for
	// progress entries.
	Msg string `json:"msg,omitempty"`
	// Check names the violated invariant (KindInvariant only).
	Check string `json:"check,omitempty"`
	// Final marks the job's last entry; streams close after sending it.
	Final bool `json:"final,omitempty"`

	// Event is the solver checkpoint (KindProgress), or the one that
	// tripped the invariant (KindInvariant); zero on other kinds.
	obs.Event
}

// subscriber is one live listener on a job's entry stream.
type subscriber struct {
	ch     chan Entry
	closed bool
}

// jobLog is the per-job ring plus its live subscribers.
type jobLog struct {
	ring []Entry // grows by append up to perJob entries, then filled circularly
	next int     // write position once len(ring) == perJob
	seq  uint64
	subs map[*subscriber]struct{} // nil until the first Subscribe
}

// Journal is the service-wide flight recorder. The zero value is not
// usable; call New. All methods are safe for concurrent use.
type Journal struct {
	perJob int
	sink   io.Writer // optional JSONL sink, nil to disable

	mu      sync.Mutex
	jobs    map[string]*jobLog
	dropped atomic.Int64 // live entries dropped on slow subscribers
}

// subBuffer is the per-subscriber channel depth. Sends beyond it are
// dropped (and counted) rather than blocking the job's worker: the journal
// must never backpressure a solver.
const subBuffer = 256

// New returns a journal retaining up to perJob entries per job (minimum 8;
// smaller values are raised). A job's ring grows with the entries it is
// given, so a short job holds only what it wrote. sink, when non-nil,
// additionally receives every entry as one JSON line; writes are
// serialized under the journal lock and errors are ignored (the sink is
// best-effort capture, the ring is the source of truth).
func New(perJob int, sink io.Writer) *Journal {
	if perJob < 8 {
		perJob = 8
	}
	return &Journal{perJob: perJob, sink: sink, jobs: make(map[string]*jobLog)}
}

func (j *Journal) logFor(id string) *jobLog {
	l := j.jobs[id]
	if l == nil {
		l = &jobLog{}
		j.jobs[id] = l
	}
	return l
}

// Append records one entry for e.JobID, stamping Seq (per job) and Time
// (when zero), writes it to the JSONL sink, and fans it out to live
// subscribers. Slow subscribers lose entries rather than block.
func (j *Journal) Append(e Entry) {
	if e.JobID == "" {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	j.mu.Lock()
	l := j.logFor(e.JobID)
	l.seq++
	e.Seq = l.seq
	if len(l.ring) < j.perJob {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next = (l.next + 1) % j.perJob
	}
	if j.sink != nil {
		if blob, err := json.Marshal(e); err == nil {
			j.sink.Write(append(blob, '\n'))
		}
	}
	for s := range l.subs {
		select {
		case s.ch <- e:
		default:
			j.dropped.Add(1)
		}
	}
	j.mu.Unlock()
}

// replayLocked returns the retained entries oldest-first. Once the ring
// has wrapped, l.next is its oldest entry; before, l.next is 0 and the ring
// is already in order. Callers hold j.mu.
func (l *jobLog) replayLocked() []Entry {
	out := make([]Entry, 0, len(l.ring))
	if l.next > 0 {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
	}
	return out
}

// Replay returns the retained entries of a job, oldest first (nil for an
// unknown job).
func (j *Journal) Replay(jobID string) []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	l := j.jobs[jobID]
	if l == nil {
		return nil
	}
	return l.replayLocked()
}

// Subscribe atomically snapshots a job's history and registers a live
// listener, so the caller sees every entry exactly once: first the
// returned history, then the channel, with no gap in between. The channel
// closes when cancel is called or the job is removed. cancel is idempotent
// and must be called to release the subscription.
func (j *Journal) Subscribe(jobID string) (history []Entry, ch <-chan Entry, cancel func()) {
	s := &subscriber{ch: make(chan Entry, subBuffer)}
	j.mu.Lock()
	l := j.logFor(jobID)
	history = l.replayLocked()
	if l.subs == nil {
		l.subs = make(map[*subscriber]struct{})
	}
	l.subs[s] = struct{}{}
	j.mu.Unlock()

	cancel = func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if s.closed {
			return
		}
		s.closed = true
		close(s.ch)
		if l := j.jobs[jobID]; l != nil {
			delete(l.subs, s)
		}
	}
	return history, s.ch, cancel
}

// Remove drops every retained entry of a job and closes its live
// subscriptions — called when the job's record or cached result is
// evicted, so the journal never outlives the payload it describes.
func (j *Journal) Remove(jobID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	l := j.jobs[jobID]
	if l == nil {
		return
	}
	delete(j.jobs, jobID)
	for s := range l.subs {
		if !s.closed {
			s.closed = true
			close(s.ch)
		}
	}
}

// Len returns the number of retained entries for a job.
func (j *Journal) Len(jobID string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if l := j.jobs[jobID]; l != nil {
		return len(l.ring)
	}
	return 0
}

// TotalLen returns the number of retained entries across all jobs.
func (j *Journal) TotalLen() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	var n int
	for _, l := range j.jobs {
		n += len(l.ring)
	}
	return n
}

// Subscribers returns the number of live subscriptions on a job.
func (j *Journal) Subscribers(jobID string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if l := j.jobs[jobID]; l != nil {
		return len(l.subs)
	}
	return 0
}

// Dropped returns how many live entries were discarded because a
// subscriber's buffer was full.
func (j *Journal) Dropped() int64 { return j.dropped.Load() }

// WriteJSON dumps the recorder as one JSON object — jobs sorted by id,
// entries oldest first — for /debug/events.
func (j *Journal) WriteJSON(w io.Writer) error {
	j.mu.Lock()
	ids := make([]string, 0, len(j.jobs))
	for id := range j.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	dump := make(map[string][]Entry, len(ids))
	for _, id := range ids {
		dump[id] = j.jobs[id].replayLocked()
	}
	dropped := j.dropped.Load()
	j.mu.Unlock()

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"jobs":            dump,
		"job_count":       len(ids),
		"dropped_entries": dropped,
	}); err != nil {
		return fmt.Errorf("journal: dump: %w", err)
	}
	return nil
}
