package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// WAL framing: every record is
//
//	uint32 little-endian payload length
//	uint32 little-endian CRC32-C (Castagnoli) of the payload
//	payload bytes (JSON-encoded walRecord)
//
// The frame is deliberately minimal: length-prefix + checksum is enough to
// detect both torn tail writes (short frame) and bit rot (CRC mismatch),
// and replay stops at the first bad frame, treating everything before it
// as the durable prefix. See DESIGN.md §10.
const frameHeader = 8

// maxRecordBytes bounds a single WAL payload. A frame whose length field
// exceeds it is treated as corruption rather than an allocation request —
// a flipped bit in the length must not make replay try to read gigabytes.
const maxRecordBytes = 16 << 20

// castagnoli is the CRC32-C table shared by the WAL and the blob store.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WAL record operations (the Op field of a walRecord).
const (
	opSubmitted = "submitted"
	opFinished  = "finished"
	opAttempt   = "attempt"
	opScenario  = "scenario"
	opSnapshot  = "snapshot"
)

// walRecord is the JSON payload of one WAL frame. Submitted records carry
// the full request so recovery can re-enqueue the job; terminal records
// carry only the id and outcome. Snapshot records open a compacted segment
// and carry the entire live state, making every older segment obsolete.
type walRecord struct {
	Op    string `json:"op"`
	JobID string `json:"job_id,omitempty"`
	// Seq is the numeric job sequence the service allocated for JobID;
	// recovery resumes id allocation above the maximum seen.
	Seq uint64 `json:"seq,omitempty"`
	// Status is the terminal outcome of an opFinished record
	// (succeeded/failed/cancelled).
	Status string `json:"status,omitempty"`
	// Attempt is the cumulative lease-grant count of an opAttempt record;
	// recovery restores it so a poison job's budget survives a coordinator
	// restart instead of resetting.
	Attempt int `json:"attempt,omitempty"`
	// Request, Key, TraceID, SubmittedAt and Class describe an
	// opSubmitted job. Class is the admission priority (interactive/
	// batch) so recovery re-enqueues a job into the queue class it was
	// admitted under.
	Request     json.RawMessage `json:"request,omitempty"`
	Key         string          `json:"key,omitempty"`
	TraceID     string          `json:"trace_id,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at,omitempty"`
	Class       string          `json:"class,omitempty"`

	// Scenario is the uploaded degree-distribution table of an opScenario
	// record; recovery re-registers it so recovered jobs that reference it
	// no longer fail with "unknown scenario".
	Scenario *ScenarioState `json:"scenario,omitempty"`

	// Snapshot payload (opSnapshot).
	Jobs      []JobState      `json:"jobs,omitempty"`
	Scenarios []ScenarioState `json:"scenarios,omitempty"`
	MaxSeq    uint64          `json:"max_seq,omitempty"`
}

// ScenarioState is the persisted form of one uploaded scenario table: the
// registration name plus the degree distribution verbatim. Registration is
// append-only service-side, so the WAL never needs update or delete ops
// for it, and snapshots carry the full set.
type ScenarioState struct {
	Name    string    `json:"name"`
	Source  string    `json:"source,omitempty"`
	Degrees []int     `json:"degrees"`
	Probs   []float64 `json:"probs"`
}

// JobState is the recovered view of a job that was submitted but had not
// reached a terminal status when the process stopped.
type JobState struct {
	ID          string          `json:"id"`
	Seq         uint64          `json:"seq"`
	Request     json.RawMessage `json:"request"`
	Key         string          `json:"key"`
	TraceID     string          `json:"trace_id,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	// Class is the admission priority class recorded at submission
	// (empty for pre-PR-10 records: the service defaults it).
	Class string `json:"class,omitempty"`
	// Attempts is the lease-grant count a clustered coordinator recorded
	// for the job (zero for standalone jobs). It rides snapshots so
	// compaction preserves the poison-job budget.
	Attempts int `json:"attempts,omitempty"`
}

// encodeRecord frames one record: header + JSON payload.
func encodeRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: marshal wal record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("%w: %d bytes exceeds the %d-byte bound",
			errRecordTooLarge, len(payload), maxRecordBytes)
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeader:], payload)
	return buf, nil
}

// errBadFrame marks a frame replay must stop at: torn tail, implausible
// length, or checksum mismatch. It is internal — replay converts it into a
// truncation point, never an error for the caller.
var errBadFrame = errors.New("store: bad wal frame")

// errRecordTooLarge marks an encode rejected by maxRecordBytes. Compaction
// checks for it: a snapshot of an enormous pending set falls back to plain
// rotation instead of failing the triggering append.
var errRecordTooLarge = errors.New("store: wal record too large")

// readRecord decodes the next frame from r. It returns io.EOF at a clean
// end of the stream and errBadFrame (wrapped with detail) for anything
// that cannot be a whole, intact record.
func readRecord(r io.Reader) (walRecord, int64, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return walRecord{}, 0, io.EOF
		}
		// A partial header is a torn write at the tail.
		return walRecord{}, 0, fmt.Errorf("%w: torn header: %v", errBadFrame, err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxRecordBytes {
		return walRecord{}, 0, fmt.Errorf("%w: implausible length %d", errBadFrame, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return walRecord{}, 0, fmt.Errorf("%w: torn payload: %v", errBadFrame, err)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return walRecord{}, 0, fmt.Errorf("%w: checksum mismatch", errBadFrame)
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return walRecord{}, 0, fmt.Errorf("%w: undecodable payload: %v", errBadFrame, err)
	}
	return rec, int64(frameHeader + int(length)), nil
}
