package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func submitJob(t *testing.T, s *Store, seq uint64) JobState {
	t.Helper()
	js := JobState{
		ID:          fmt.Sprintf("j-%06d", seq),
		Seq:         seq,
		Request:     json.RawMessage(fmt.Sprintf(`{"type":"ode","params":{"seed":%d}}`, seq)),
		Key:         fmt.Sprintf("%064d", seq),
		TraceID:     "0123456789abcdef0123456789abcdef",
		SubmittedAt: time.Now().UTC().Truncate(time.Millisecond),
	}
	if err := s.AppendSubmitted(js); err != nil {
		t.Fatal(err)
	}
	return js
}

// TestRecoveryRoundtrip is the core contract: after a non-drained close,
// reopening the directory yields exactly the jobs that never finished, in
// submission order, with their requests intact, and id allocation resumes
// above the highest sequence ever logged.
func TestRecoveryRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SyncMode: SyncNone})

	j1 := submitJob(t, s, 1) // will finish
	j2 := submitJob(t, s, 2) // started, never finished
	j3 := submitJob(t, s, 3) // queued, never started
	if err := s.AppendStarted(j1.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFinished(j1.ID, "succeeded"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendStarted(j2.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	pending := r.PendingJobs()
	if len(pending) != 2 {
		t.Fatalf("pending = %d jobs, want 2: %+v", len(pending), pending)
	}
	if pending[0].ID != j2.ID || pending[1].ID != j3.ID {
		t.Errorf("pending order: %s, %s; want %s, %s", pending[0].ID, pending[1].ID, j2.ID, j3.ID)
	}
	if !pending[0].Started {
		t.Error("j2 lost its started flag")
	}
	if pending[1].Started {
		t.Error("j3 gained a started flag")
	}
	if string(pending[0].Request) != string(j2.Request) {
		t.Errorf("request round-trip: %s != %s", pending[0].Request, j2.Request)
	}
	if !pending[1].SubmittedAt.Equal(j3.SubmittedAt) {
		t.Errorf("submitted_at round-trip: %v != %v", pending[1].SubmittedAt, j3.SubmittedAt)
	}
	if r.MaxSeq() != 3 {
		t.Errorf("max seq = %d, want 3", r.MaxSeq())
	}
	if st := r.Snapshot(); st.ReplayRecords != 6 || st.ReplayTruncations != 0 {
		t.Errorf("replay stats: %+v", st)
	}
}

// TestRotationAndCompaction drives enough records through a tiny segment
// bound to force several rotations and then a compaction, and verifies the
// compacted log still recovers the exact live set.
func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{
		SyncMode:        SyncNone,
		SegmentMaxBytes: 512,
		CompactSegments: 3,
	})
	// Many finished jobs (dead records) plus a few live ones.
	for seq := uint64(1); seq <= 40; seq++ {
		js := submitJob(t, s, seq)
		if seq%10 != 0 { // every 10th stays pending
			if err := s.AppendFinished(js.ID, "succeeded"); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Snapshot()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 80 records over 512-byte segments: %+v", st)
	}
	if st.WALSegments >= 3 {
		t.Errorf("compaction left %d segments, want < 3", st.WALSegments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	pending := r.PendingJobs()
	if len(pending) != 4 {
		t.Fatalf("pending after compaction = %d, want 4", len(pending))
	}
	for i, js := range pending {
		if want := fmt.Sprintf("j-%06d", (i+1)*10); js.ID != want {
			t.Errorf("pending[%d] = %s, want %s", i, js.ID, want)
		}
	}
	if r.MaxSeq() != 40 {
		t.Errorf("max seq survived compaction: %d, want 40", r.MaxSeq())
	}
}

// TestExplicitCompact checks the manual trigger drops history immediately.
func TestExplicitCompact(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SyncMode: SyncNone, SegmentMaxBytes: 256, CompactSegments: 100})
	for seq := uint64(1); seq <= 20; seq++ {
		js := submitJob(t, s, seq)
		if err := s.AppendFinished(js.ID, "failed"); err != nil {
			t.Fatal(err)
		}
	}
	live := submitJob(t, s, 21)
	before := s.Snapshot()
	if before.WALSegments < 2 {
		t.Fatalf("want multiple segments before compaction, got %d", before.WALSegments)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Snapshot()
	if after.WALSegments != 1 {
		t.Errorf("segments after compact = %d, want 1", after.WALSegments)
	}
	if after.WALBytes >= before.WALBytes {
		t.Errorf("compaction did not shrink the log: %d -> %d bytes", before.WALBytes, after.WALBytes)
	}
	s.Close()

	r := openTest(t, dir, Options{})
	if p := r.PendingJobs(); len(p) != 1 || p[0].ID != live.ID {
		t.Errorf("pending after compact+reopen: %+v", p)
	}
}

// TestSyncModes exercises all three durability policies end to end; batch
// mode must become durable within the interval without an explicit sync.
func TestSyncModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"always", Options{SyncMode: SyncAlways}},
		{"batch", Options{SyncMode: SyncBatch, SyncInterval: 5 * time.Millisecond}},
		{"none", Options{SyncMode: SyncNone}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, tc.opts)
			submitJob(t, s, 1)
			if tc.opts.SyncMode == SyncBatch {
				// Give the flusher a couple of intervals to pick it up.
				deadline := time.Now().Add(2 * time.Second)
				for s.Snapshot().Fsyncs == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if s.Snapshot().Fsyncs == 0 {
					t.Error("batched flusher never synced")
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r := openTest(t, dir, Options{})
			if len(r.PendingJobs()) != 1 {
				t.Errorf("pending = %d, want 1", len(r.PendingJobs()))
			}
		})
	}
}

// TestParseSyncMode covers the flag grammar.
func TestParseSyncMode(t *testing.T) {
	cases := []struct {
		in       string
		mode     SyncMode
		interval time.Duration
		wantErr  bool
	}{
		{"always", SyncAlways, 0, false},
		{"none", SyncNone, 0, false},
		{"off", SyncNone, 0, false},
		{"100ms", SyncBatch, 100 * time.Millisecond, false},
		{"2s", SyncBatch, 2 * time.Second, false},
		{"0s", 0, 0, true},
		{"-5ms", 0, 0, true},
		{"sometimes", 0, 0, true},
		{"", 0, 0, true},
	}
	for _, tc := range cases {
		mode, interval, err := ParseSyncMode(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseSyncMode(%q): err = %v, wantErr = %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && (mode != tc.mode || interval != tc.interval) {
			t.Errorf("ParseSyncMode(%q) = (%v, %s), want (%v, %s)", tc.in, mode, interval, tc.mode, tc.interval)
		}
	}
}

// TestHooksFire verifies the latency observers see appends and fsyncs.
func TestHooksFire(t *testing.T) {
	var mu sync.Mutex
	var appends, fsyncs int
	dir := t.TempDir()
	s := openTest(t, dir, Options{
		SyncMode: SyncAlways,
		Hooks: Hooks{
			OnAppend: func(time.Duration) { mu.Lock(); appends++; mu.Unlock() },
			OnFsync:  func(time.Duration) { mu.Lock(); fsyncs++; mu.Unlock() },
		},
	})
	submitJob(t, s, 1)
	if err := s.AppendFinished("j-000001", "succeeded"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if appends != 2 || fsyncs != 2 {
		t.Errorf("hooks: %d appends, %d fsyncs; want 2, 2", appends, fsyncs)
	}
}

// TestConcurrentAppends hammers the WAL and blob store from many
// goroutines; under -race this is the subsystem's data-race gate.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SyncMode: SyncBatch, SyncInterval: time.Millisecond, SegmentMaxBytes: 2048})
	const n = 8
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				seq := uint64(w*100 + i + 1)
				js := JobState{
					ID:          fmt.Sprintf("j-%06d", seq),
					Seq:         seq,
					Request:     json.RawMessage(`{"type":"threshold"}`),
					Key:         fmt.Sprintf("%064d", seq),
					SubmittedAt: time.Now(),
				}
				if err := s.AppendSubmitted(js); err != nil {
					t.Error(err)
					return
				}
				if err := s.PutResult(js.Key, []byte(`{"r0":1.5}`)); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.GetResult(js.Key); !ok {
					t.Errorf("result %s vanished", js.Key)
					return
				}
				if i%2 == 0 {
					if err := s.AppendFinished(js.ID, "succeeded"); err != nil {
						t.Error(err)
						return
					}
				}
				s.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	if got := len(r.PendingJobs()); got != n*10 {
		t.Errorf("pending = %d, want %d", got, n*10)
	}
	if got := r.Snapshot().Results; got != n*20 {
		t.Errorf("results = %d, want %d", got, n*20)
	}
}

// TestCloseIdempotent double-closes and appends after close.
func TestCloseIdempotent(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	submitJob(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.AppendStarted("j-000001"); err == nil {
		t.Error("append after close should fail")
	}
}

// TestOpenCreatesLayout checks the directory skeleton appears.
func TestOpenCreatesLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	s := openTest(t, dir, Options{})
	_ = s
	for _, sub := range []string{walDirName, resultsDirName} {
		if _, err := os.Stat(filepath.Join(dir, sub)); err != nil {
			t.Errorf("missing %s: %v", sub, err)
		}
	}
}

// TestCompactionFallsBackWhenSnapshotTooLarge drives the pending set past
// the single-record bound: compaction cannot snapshot it, so the append
// must fall back to plain rotation and keep every record — never fail, and
// never lose pending jobs.
func TestCompactionFallsBackWhenSnapshotTooLarge(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{
		SyncMode: SyncNone, SegmentMaxBytes: 1 << 20, CompactSegments: 1,
	})
	// Each request is ~7 MiB — an individual record fits the 16 MiB bound,
	// but three pending jobs (~21 MiB) no longer fit one snapshot record.
	pad := make([]byte, 7<<20)
	for i := range pad {
		pad[i] = 'x'
	}
	big := json.RawMessage(`{"pad":"` + string(pad) + `"}`)
	for i := 1; i <= 4; i++ {
		js := JobState{
			ID: fmt.Sprintf("j-%06d", i), Seq: uint64(i), Request: big,
			Key: fmt.Sprintf("%064d", i), SubmittedAt: time.Now(),
		}
		if err := s.AppendSubmitted(js); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{SyncMode: SyncNone})
	if got := len(s2.PendingJobs()); got != 4 {
		t.Errorf("pending after fallback rotation = %d, want all 4", got)
	}
}
