package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// walDirName is the subdirectory of the store holding the log segments.
const walDirName = "wal"

// segmentName formats the file name of segment idx; the fixed-width index
// makes lexical order equal replay order.
func segmentName(idx uint64) string { return fmt.Sprintf("wal-%08d.log", idx) }

// listSegments returns the segment indices present in walDir, ascending.
func listSegments(walDir string) ([]uint64, error) {
	entries, err := os.ReadDir(walDir)
	if err != nil {
		return nil, fmt.Errorf("store: read wal dir: %w", err)
	}
	var idxs []uint64
	for _, e := range entries {
		var idx uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &idx); err == nil {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// replay rebuilds the live state from the segments on disk. It stops at
// the first bad frame — a torn tail write, an implausible length or a
// checksum mismatch — truncates that segment back to its intact prefix,
// and discards any later segments (they depend on state the bad record
// failed to deliver). Everything before the bad frame is the durable
// prefix and is applied. Called once from Open, before the appender is
// armed; no locking needed.
func (s *Store) replay() error {
	idxs, err := listSegments(s.walDir)
	if err != nil {
		return err
	}
	for n, idx := range idxs {
		path := filepath.Join(s.walDir, segmentName(idx))
		good, bad, err := s.replaySegment(path)
		if err != nil {
			return err
		}
		if bad {
			s.stats.ReplayTruncations++
			s.opts.Logger.Warn("wal segment truncated at first bad record",
				"segment", path, "good_bytes", good)
			if err := os.Truncate(path, good); err != nil {
				return fmt.Errorf("store: truncate %s: %w", path, err)
			}
			for _, later := range idxs[n+1:] {
				dropped := filepath.Join(s.walDir, segmentName(later))
				s.opts.Logger.Warn("dropping wal segment after corruption point", "segment", dropped)
				if err := os.Remove(dropped); err != nil {
					return fmt.Errorf("store: drop %s: %w", dropped, err)
				}
				s.stats.ReplayTruncations++
			}
			idxs = idxs[:n+1]
			break
		}
	}
	if len(idxs) == 0 {
		s.segIdx = 1
		return s.openSegment(true)
	}
	s.segIdx = idxs[len(idxs)-1]
	s.segCount = len(idxs)
	return s.openSegment(false)
}

// replaySegment applies the intact prefix of one segment and reports the
// byte offset of the first bad frame (bad == true) or a clean end.
func (s *Store) replaySegment(path string) (good int64, bad bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("store: open segment: %w", err)
	}
	defer f.Close()
	for {
		rec, n, err := readRecord(f)
		if err == io.EOF {
			return good, false, nil
		}
		if errors.Is(err, errBadFrame) {
			s.opts.Logger.Warn("bad wal record", "segment", path, "offset", good, "detail", err.Error())
			return good, true, nil
		}
		if err != nil {
			return good, false, fmt.Errorf("store: replay %s: %w", path, err)
		}
		s.apply(rec)
		good += n
		s.stats.ReplayRecords++
	}
}

// apply folds one record into the live pending-job state.
func (s *Store) apply(rec walRecord) {
	switch rec.Op {
	case opSubmitted:
		if rec.JobID == "" {
			return // defensively skip: the service never logs anonymous jobs
		}
		if rec.Seq > s.maxSeq {
			s.maxSeq = rec.Seq
		}
		s.addPending(JobState{
			ID: rec.JobID, Seq: rec.Seq, Request: rec.Request, Key: rec.Key,
			TraceID: rec.TraceID, SubmittedAt: rec.SubmittedAt, Class: rec.Class,
		})
	case opFinished:
		s.dropPending(rec.JobID)
	case opAttempt:
		if js, ok := s.pending[rec.JobID]; ok {
			js.Attempts = rec.Attempt
		}
	case opScenario:
		if rec.Scenario != nil {
			s.addScenario(*rec.Scenario)
		}
	case opSnapshot:
		s.pending = make(map[string]*JobState)
		s.pendingOrder = s.pendingOrder[:0]
		for _, js := range rec.Jobs {
			js := js
			s.addPending(js)
		}
		s.scenarios = make(map[string]ScenarioState)
		s.scenarioOrder = s.scenarioOrder[:0]
		for _, sc := range rec.Scenarios {
			s.addScenario(sc)
		}
		if rec.MaxSeq > s.maxSeq {
			s.maxSeq = rec.MaxSeq
		}
	}
}

// addScenario records one persisted scenario table, first registration
// wins — mirroring the service registry's append-only semantics.
func (s *Store) addScenario(sc ScenarioState) {
	if _, dup := s.scenarios[sc.Name]; dup {
		return
	}
	s.scenarios[sc.Name] = sc
	s.scenarioOrder = append(s.scenarioOrder, sc.Name)
}

func (s *Store) addPending(js JobState) {
	if _, dup := s.pending[js.ID]; dup {
		return
	}
	cp := js
	s.pending[js.ID] = &cp
	s.pendingOrder = append(s.pendingOrder, js.ID)
}

func (s *Store) dropPending(id string) {
	if _, ok := s.pending[id]; !ok {
		return
	}
	delete(s.pending, id)
	for i, jid := range s.pendingOrder {
		if jid == id {
			s.pendingOrder = append(s.pendingOrder[:i], s.pendingOrder[i+1:]...)
			break
		}
	}
}

// openSegment opens the active segment (s.segIdx) for appending, creating
// it when fresh is true.
func (s *Store) openSegment(fresh bool) error {
	path := filepath.Join(s.walDir, segmentName(s.segIdx))
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat segment %s: %w", path, err)
	}
	s.seg = f
	s.segSize = st.Size()
	if fresh {
		s.segCount = 1
	}
	return nil
}

// appendRecord frames and writes one record to the active segment under
// s.mu, rotating (or compacting, once enough segments accumulated) first
// when the append would cross the segment bound, and applying the sync
// policy after the write.
func (s *Store) appendRecord(rec walRecord) error {
	frame, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	start := time.Now()
	if s.segSize > 0 && s.segSize+int64(len(frame)) > s.opts.SegmentMaxBytes {
		if s.segCount >= s.opts.CompactSegments {
			err := s.compactLocked()
			if errors.Is(err, errRecordTooLarge) {
				// The pending set outgrew one snapshot record; keep the
				// history as plain segments until it shrinks.
				err = s.rotateLocked()
			}
			if err != nil {
				return err
			}
		} else if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := s.seg.Write(frame)
	s.segSize += int64(n)
	if err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	s.apply(rec)
	s.stats.Appends++
	if s.opts.hooks.OnAppend != nil {
		s.opts.hooks.OnAppend(time.Since(start))
	}
	switch s.opts.SyncMode {
	case SyncAlways:
		return s.fsyncLocked()
	case SyncBatch:
		s.dirty = true
	}
	return nil
}

// fsyncLocked syncs the active segment, timing the call. Callers hold s.mu.
func (s *Store) fsyncLocked() error {
	start := time.Now()
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	s.dirty = false
	s.stats.Fsyncs++
	if s.opts.hooks.OnFsync != nil {
		s.opts.hooks.OnFsync(time.Since(start))
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one. Callers
// hold s.mu.
func (s *Store) rotateLocked() error {
	if err := s.fsyncLocked(); err != nil {
		return err
	}
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	s.segIdx++
	s.segCount++
	path := filepath.Join(s.walDir, segmentName(s.segIdx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment %s: %w", path, err)
	}
	s.seg = f
	s.segSize = 0
	return syncDir(s.walDir)
}

// compactLocked snapshots the live state into a brand-new segment and
// deletes every older one: the snapshot record supersedes the whole
// history, so the log's size tracks the number of *live* jobs, not the
// number ever run. Callers hold s.mu.
func (s *Store) compactLocked() error {
	snap := walRecord{Op: opSnapshot, MaxSeq: s.maxSeq}
	for _, id := range s.pendingOrder {
		snap.Jobs = append(snap.Jobs, *s.pending[id])
	}
	for _, name := range s.scenarioOrder {
		snap.Scenarios = append(snap.Scenarios, s.scenarios[name])
	}
	frame, err := encodeRecord(snap)
	if err != nil {
		return err
	}

	newIdx := s.segIdx + 1
	path := filepath.Join(s.walDir, segmentName(newIdx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact open %s: %w", path, err)
	}
	n, err := f.Write(frame)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("store: compact write %s: %w", path, err)
	}

	// The snapshot is durable; retire the history. Close the old active
	// segment first so its handle is not leaked.
	s.seg.Close()
	s.seg = f
	s.segSize = int64(n)
	s.segIdx = newIdx
	s.dirty = false
	idxs, err := listSegments(s.walDir)
	if err != nil {
		return err
	}
	for _, idx := range idxs {
		if idx >= newIdx {
			continue
		}
		old := filepath.Join(s.walDir, segmentName(idx))
		if err := os.Remove(old); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: compact drop %s: %w", old, err)
		}
	}
	s.segCount = 1
	s.stats.Compactions++
	s.opts.Logger.Info("wal compacted", "live_jobs", len(snap.Jobs), "segment", path)
	return syncDir(s.walDir)
}

// walBytesLocked sums the on-disk size of all segments. Callers hold s.mu.
func (s *Store) walBytesLocked() int64 {
	idxs, err := listSegments(s.walDir)
	if err != nil {
		return s.segSize
	}
	var total int64
	for _, idx := range idxs {
		if st, err := os.Stat(filepath.Join(s.walDir, segmentName(idx))); err == nil {
			total += st.Size()
		}
	}
	return total
}
