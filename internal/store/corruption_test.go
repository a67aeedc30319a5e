package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// seg1 returns the path of the first WAL segment of dir.
func seg1(dir string) string {
	return filepath.Join(dir, walDirName, segmentName(1))
}

// writeThree populates a store with three submitted jobs and closes it.
func writeThree(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, Options{SyncMode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		submitJob(t, s, seq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayTruncatedTail chops bytes off the last record — the torn-write
// shape a crash mid-append leaves — and expects replay to keep the intact
// prefix and truncate the file back to it.
func TestReplayTruncatedTail(t *testing.T) {
	for _, chop := range []int64{1, 5, 11} {
		t.Run(fmt.Sprintf("chop%d", chop), func(t *testing.T) {
			dir := t.TempDir()
			writeThree(t, dir)
			st, err := os.Stat(seg1(dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg1(dir), st.Size()-chop); err != nil {
				t.Fatal(err)
			}

			r := openTest(t, dir, Options{})
			pending := r.PendingJobs()
			if len(pending) != 2 {
				t.Fatalf("pending = %d, want 2 (the intact prefix)", len(pending))
			}
			snap := r.Snapshot()
			if snap.ReplayTruncations != 1 || snap.ReplayRecords != 2 {
				t.Errorf("replay stats: %+v", snap)
			}
			// The file must have been truncated back so new appends are clean.
			submitJob(t, r, 9)
			r.Close()
			r2 := openTest(t, dir, Options{})
			if got := len(r2.PendingJobs()); got != 3 {
				t.Errorf("pending after repair+append+reopen = %d, want 3", got)
			}
			if s2 := r2.Snapshot(); s2.ReplayTruncations != 0 {
				t.Errorf("second replay saw corruption again: %+v", s2)
			}
		})
	}
}

// TestReplayFlippedCRCByte flips one payload byte of the middle record;
// replay must stop there, keeping only the records before it.
func TestReplayFlippedCRCByte(t *testing.T) {
	dir := t.TempDir()
	writeThree(t, dir)
	raw, err := os.ReadFile(seg1(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Frame 1 spans [0, L1); flip a byte inside frame 2's payload.
	l1 := int(raw[0]) | int(raw[1])<<8 | int(raw[2])<<16 | int(raw[3])<<24
	idx := frameHeader + l1 + frameHeader + 4
	raw[idx] ^= 0xFF
	if err := os.WriteFile(seg1(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	pending := r.PendingJobs()
	if len(pending) != 1 || pending[0].ID != "j-000001" {
		t.Fatalf("pending = %+v, want only j-000001", pending)
	}
	if snap := r.Snapshot(); snap.ReplayRecords != 1 || snap.ReplayTruncations != 1 {
		t.Errorf("replay stats: %+v", snap)
	}
}

// TestReplayCorruptLengthField blasts the length field of the first record
// to an absurd value; replay must treat it as corruption, not an
// allocation request.
func TestReplayCorruptLengthField(t *testing.T) {
	dir := t.TempDir()
	writeThree(t, dir)
	raw, err := os.ReadFile(seg1(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[3] = 0xFF // length |= 0xFF000000: > maxRecordBytes
	if err := os.WriteFile(seg1(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{})
	if got := len(r.PendingJobs()); got != 0 {
		t.Errorf("pending = %d, want 0 (corruption at record 1)", got)
	}
}

// TestReplayZeroLengthFile opens over an empty (freshly created, never
// written) segment: a legal state after a crash between create and append.
func TestReplayZeroLengthFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg1(dir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{})
	if got := len(r.PendingJobs()); got != 0 {
		t.Fatalf("pending = %d, want 0", got)
	}
	if snap := r.Snapshot(); snap.ReplayRecords != 0 || snap.ReplayTruncations != 0 {
		t.Errorf("replay stats for empty file: %+v", snap)
	}
	// And the store must be writable afterwards.
	submitJob(t, r, 1)
	r.Close()
	r2 := openTest(t, dir, Options{})
	if got := len(r2.PendingJobs()); got != 1 {
		t.Errorf("pending after reopen = %d, want 1", got)
	}
}

// TestReplayDropsSegmentsAfterCorruption corrupts segment 1 of a
// multi-segment log; segments after the corruption point must be dropped
// (their records depend on state the bad record failed to deliver).
func TestReplayDropsSegmentsAfterCorruption(t *testing.T) {
	dir := t.TempDir()
	// ~260-byte records: two fit per 600-byte segment, so truncating the
	// tail of segment 1 leaves exactly one intact record before the
	// corruption point.
	s, err := Open(dir, Options{SyncMode: SyncNone, SegmentMaxBytes: 600, CompactSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 12; seq++ {
		submitJob(t, s, seq)
	}
	if s.Snapshot().WALSegments < 3 {
		t.Fatalf("test needs ≥ 3 segments, got %d", s.Snapshot().WALSegments)
	}
	s.Close()

	// Corrupt the tail of segment 1.
	st, err := os.Stat(seg1(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg1(dir), st.Size()-3); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	snap := r.Snapshot()
	if snap.WALSegments != 1 {
		t.Errorf("segments after corruption recovery = %d, want 1", snap.WALSegments)
	}
	if snap.ReplayTruncations < 2 {
		t.Errorf("want the tail truncation plus ≥ 1 dropped segment counted, got %d", snap.ReplayTruncations)
	}
	// Only the intact prefix of segment 1 survives.
	pending := r.PendingJobs()
	if len(pending) == 0 || len(pending) >= 12 {
		t.Errorf("pending = %d, want the partial prefix (0 < n < 12)", len(pending))
	}
	for i, js := range pending {
		if want := fmt.Sprintf("j-%06d", i+1); js.ID != want {
			t.Errorf("pending[%d] = %s, want %s", i, js.ID, want)
		}
	}
}

// TestGetResultCorruptBlob flips a payload byte on disk; the read must
// fail closed (miss + quarantine), never return corrupt bytes.
func TestGetResultCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	key := fmt.Sprintf("%064d", 7)
	if err := s.PutResult(key, []byte(`{"final_i":0.123}`)); err != nil {
		t.Fatal(err)
	}
	path := s.results.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if payload, ok := s.GetResult(key); ok {
		t.Fatalf("corrupt blob served: %q", payload)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt blob not quarantined")
	}
	if st := s.Snapshot(); st.BadBlobs != 1 {
		t.Errorf("bad blob counter = %d, want 1", st.BadBlobs)
	}
}
