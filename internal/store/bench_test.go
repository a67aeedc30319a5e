package store

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// populateWAL writes a log of n submitted+finished pairs plus a handful of
// live jobs — the shape a busy daemon leaves behind.
func populateWAL(b *testing.B, dir string, n int) {
	b.Helper()
	s, err := Open(dir, Options{SyncMode: SyncNone, CompactSegments: 1 << 30, SegmentMaxBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	req := json.RawMessage(`{"type":"ode","params":{"lambda0":0.02,"tf":40,"points":50}}`)
	for i := 1; i <= n/2; i++ {
		js := JobState{
			ID: fmt.Sprintf("j-%06d", i), Seq: uint64(i), Request: req,
			Key: fmt.Sprintf("%064d", i), SubmittedAt: time.Now(),
		}
		if err := s.AppendSubmitted(js); err != nil {
			b.Fatal(err)
		}
		if i%16 != 0 { // most jobs finished; every 16th stays live
			if err := s.AppendFinished(js.ID, "succeeded"); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecovery1k measures cold-start replay of a 1k-record WAL — the
// restart cost a durable rumord pays before it serves.
func BenchmarkRecovery1k(b *testing.B) {
	dir := b.TempDir()
	populateWAL(b, dir, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{SyncMode: SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		if s.Snapshot().ReplayRecords == 0 {
			b.Fatal("nothing replayed")
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkWALAppend measures one submitted-record append under each sync
// policy; the batch/none-to-always gap is the price of per-record fsync.
func BenchmarkWALAppend(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"Batch", Options{SyncMode: SyncBatch, SyncInterval: 100 * time.Millisecond}},
		{"None", Options{SyncMode: SyncNone}},
		{"Always", Options{SyncMode: SyncAlways}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			req := json.RawMessage(`{"type":"ode","params":{"seed":1}}`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				js := JobState{
					ID: fmt.Sprintf("j-%06d", i+1), Seq: uint64(i + 1),
					Request: req, Key: fmt.Sprintf("%064d", i+1), SubmittedAt: time.Now(),
				}
				if err := s.AppendSubmitted(js); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPutResult measures the atomic write+rename blob path.
func BenchmarkPutResult(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PutResult(fmt.Sprintf("%064d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	os.RemoveAll(s.Dir())
}
