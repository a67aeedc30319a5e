package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzWALReplay feeds arbitrary bytes to the segment replayer: whatever
// the file contains, replay must neither panic nor error — corruption is
// a truncation point, not a failure — and the store that results must be
// consistent enough to accept new appends and survive a reopen.
func FuzzWALReplay(f *testing.F) {
	// Seed 1: a well-formed log (submit ×2, start, finish). The started
	// record is one that earlier builds wrote and replay now skips.
	var good bytes.Buffer
	for _, rec := range []walRecord{
		{Op: opSubmitted, JobID: "j-000001", Seq: 1, Key: "00aa", Request: json.RawMessage(`{"type":"ode"}`), SubmittedAt: time.Unix(1700000000, 0)},
		{Op: opSubmitted, JobID: "j-000002", Seq: 2, Key: "00bb", Request: json.RawMessage(`{"type":"abm"}`)},
		{Op: "started", JobID: "j-000001"},
		{Op: opFinished, JobID: "j-000001", Status: "succeeded"},
	} {
		frame, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		good.Write(frame)
	}
	f.Add(good.Bytes())
	// Seed 2: the same log with a torn tail.
	f.Add(good.Bytes()[:good.Len()-7])
	// Seed 3: a snapshot record followed by garbage.
	snap, err := encodeRecord(walRecord{Op: opSnapshot, MaxSeq: 9, Jobs: []JobState{{ID: "j-000009", Seq: 9}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte{}, snap...), 0xDE, 0xAD, 0xBE, 0xEF))
	// Seed 4: pure garbage and the empty file.
	f.Add([]byte("not a wal at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walDirName, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{SyncMode: SyncNone})
		if err != nil {
			t.Fatalf("Open over fuzzed segment: %v", err)
		}
		// Whatever was recovered, the store must keep working.
		pending := s.PendingJobs()
		for _, js := range pending {
			if js.ID == "" {
				t.Errorf("recovered job with empty id: %+v", js)
			}
		}
		if err := s.AppendSubmitted(JobState{
			ID: "j-fuzz", Seq: s.MaxSeq() + 1,
			Request: json.RawMessage(`{"type":"threshold"}`), Key: "00cc",
		}); err != nil {
			t.Fatalf("append after fuzzed replay: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Reopen: the repaired log must now replay cleanly.
		s2, err := Open(dir, Options{SyncMode: SyncNone})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if s2.Snapshot().ReplayTruncations != 0 {
			t.Error("corruption persisted across the repairing replay")
		}
		if got := len(s2.PendingJobs()); got != len(pending)+1 {
			t.Errorf("pending changed across reopen: %d -> %d", len(pending), got)
		}
		s2.Close()
	})
}

// FuzzBlobFrame feeds arbitrary bytes to decodeBlob, the decoder of every
// result file read back from disk. Nothing may panic; any payload survives
// its own frame; an accepted frame is exactly encodeBlob of its payload;
// and flipping any single bit of an accepted frame makes it fail, since
// the magic, the length and CRC32-C together catch every 1-bit error.
// Seeds: testdata/fuzz.
func FuzzBlobFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := decodeBlob(encodeBlob(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %d bytes: %v", len(data), err)
		}
		payload, err := decodeBlob(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeBlob(payload), data) {
			t.Fatalf("accepted frame %x is not the encoding of its payload", data)
		}
		flipped := bytes.Clone(data)
		for bit := 0; bit < 8*len(data); bit++ {
			flipped[bit/8] ^= 1 << (bit % 8)
			if _, err := decodeBlob(flipped); err == nil {
				t.Fatalf("frame with bit %d flipped was accepted", bit)
			}
			flipped[bit/8] ^= 1 << (bit % 8)
		}
	})
}
