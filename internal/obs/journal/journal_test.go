package journal

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAppendReplay(t *testing.T) {
	j := New(16, nil)
	j.Append(Entry{JobID: "j-1", Kind: KindLifecycle, Msg: "queued"})
	j.Append(Entry{JobID: "j-1", Kind: KindProgress, Stage: "ode", Step: 256})
	j.Append(Entry{JobID: "j-2", Kind: KindLifecycle, Msg: "queued"})

	got := j.Replay("j-1")
	if len(got) != 2 {
		t.Fatalf("replay = %d entries, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("seqs %d, %d — want 1, 2", got[0].Seq, got[1].Seq)
	}
	if got[0].Time.IsZero() {
		t.Error("append did not stamp Time")
	}
	if got[1].Stage != "ode" || got[1].Step != 256 {
		t.Errorf("progress entry mangled: %+v", got[1])
	}
	if j.Replay("j-2")[0].Seq != 1 {
		t.Error("per-job seq not independent")
	}
	if j.Replay("unknown") != nil {
		t.Error("unknown job should replay nil")
	}
	if j.TotalLen() != 3 {
		t.Errorf("TotalLen = %d, want 3", j.TotalLen())
	}
}

// TestRingWraparound is the satellite's replay-order case: a ring of 8
// holding 20 appends must replay the last 8 entries oldest-first, with the
// Seq jump making the overwritten prefix visible.
func TestRingWraparound(t *testing.T) {
	j := New(8, nil)
	const total = 20
	for i := 1; i <= total; i++ {
		j.Append(Entry{JobID: "j-1", Kind: KindProgress, Step: i})
	}
	got := j.Replay("j-1")
	if len(got) != 8 {
		t.Fatalf("replay = %d entries, want the ring bound 8", len(got))
	}
	for i, e := range got {
		wantSeq := uint64(total - 8 + 1 + i)
		if e.Seq != wantSeq || e.Step != int(wantSeq) {
			t.Fatalf("entry %d: Seq=%d Step=%d, want %d (oldest-first)", i, e.Seq, e.Step, wantSeq)
		}
	}
	// A second full lap keeps the order straight.
	for i := total + 1; i <= total+8; i++ {
		j.Append(Entry{JobID: "j-1", Step: i})
	}
	got = j.Replay("j-1")
	if got[0].Seq != total+1 || got[7].Seq != total+8 {
		t.Fatalf("after second lap: first Seq=%d last Seq=%d", got[0].Seq, got[7].Seq)
	}
}

func TestSubscribeReplayThenLive(t *testing.T) {
	j := New(16, nil)
	j.Append(Entry{JobID: "j-1", Msg: "queued", Kind: KindLifecycle})
	history, ch, cancel := j.Subscribe("j-1")
	defer cancel()
	if len(history) != 1 || history[0].Msg != "queued" {
		t.Fatalf("history: %+v", history)
	}
	j.Append(Entry{JobID: "j-1", Kind: KindProgress, Step: 5})
	select {
	case e := <-ch:
		if e.Step != 5 || e.Seq != 2 {
			t.Errorf("live entry: %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live entry never arrived")
	}
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Error("channel still open after cancel")
	}
	if j.Subscribers("j-1") != 0 {
		t.Errorf("subscribers = %d after cancel", j.Subscribers("j-1"))
	}
}

func TestRemoveClosesSubscribers(t *testing.T) {
	j := New(16, nil)
	j.Append(Entry{JobID: "j-1", Msg: "queued"})
	_, ch, cancel := j.Subscribe("j-1")
	defer cancel()
	j.Remove("j-1")
	select {
	case _, ok := <-ch:
		if ok {
			t.Error("expected a closed channel after Remove")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed by Remove")
	}
	if j.Len("j-1") != 0 || j.Replay("j-1") != nil {
		t.Error("entries retained after Remove")
	}
	cancel() // must not panic on an already-removed subscription
	j.Remove("j-1")
}

func TestSlowSubscriberDrops(t *testing.T) {
	j := New(8, nil)
	_, ch, cancel := j.Subscribe("j-1")
	defer cancel()
	for i := 0; i < subBuffer+10; i++ {
		j.Append(Entry{JobID: "j-1", Step: i})
	}
	if j.Dropped() != 10 {
		t.Errorf("dropped = %d, want 10", j.Dropped())
	}
	if len(ch) != subBuffer {
		t.Errorf("buffered = %d, want %d", len(ch), subBuffer)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf strings.Builder
	j := New(8, &syncWriter{w: &buf})
	j.Append(Entry{JobID: "j-1", Kind: KindLifecycle, Msg: "queued", TraceID: "abc"})
	j.Append(Entry{JobID: "j-1", Kind: KindInvariant, Check: "mass_conservation", Value: 0.2})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink lines = %d, want 2", len(lines))
	}
	var e Entry
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if e.Check != "mass_conservation" || e.Seq != 2 || e.TraceID != "" {
		t.Errorf("sink entry: %+v", e)
	}
}

func TestWriteJSONDump(t *testing.T) {
	j := New(8, nil)
	j.Append(Entry{JobID: "j-2", Msg: "queued"})
	j.Append(Entry{JobID: "j-1", Msg: "queued"})
	var buf strings.Builder
	if err := j.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Jobs     map[string][]Entry `json:"jobs"`
		JobCount int                `json:"job_count"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.JobCount != 2 || len(dump.Jobs["j-1"]) != 1 {
		t.Errorf("dump: %+v", dump)
	}
}

// syncWriter guards a strings.Builder for the sink test.
type syncWriter struct {
	mu sync.Mutex
	w  *strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestConcurrentAppendSubscribe(t *testing.T) {
	j := New(64, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("j-%d", w%2)
			for i := 0; i < 200; i++ {
				j.Append(Entry{JobID: id, Step: i})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			id := fmt.Sprintf("j-%d", r%2)
			history, ch, cancel := j.Subscribe(id)
			var last uint64
			for _, e := range history {
				if e.Seq <= last {
					t.Errorf("history out of order: %d after %d", e.Seq, last)
				}
				last = e.Seq
			}
			for i := 0; i < 20; i++ {
				select {
				case e, ok := <-ch:
					if !ok {
						cancel()
						return
					}
					if e.Seq <= last {
						t.Errorf("live entry out of order: %d after %d", e.Seq, last)
					}
					last = e.Seq
				case <-time.After(time.Second):
					i = 20
				}
			}
			cancel()
		}(r)
	}
	wg.Wait()
	if j.Len("j-0") != 64 {
		t.Errorf("ring len = %d, want 64", j.Len("j-0"))
	}
}

// TestRingGrowsWithUse pins the growing ring at a depth that is not a
// power of two, where append overshoots the depth: the ring still keeps
// exactly perJob entries and replays them oldest-first, and a short job
// holds only about what it wrote.
func TestRingGrowsWithUse(t *testing.T) {
	j := New(10, nil)
	const total = 25
	for i := 1; i <= total; i++ {
		j.Append(Entry{JobID: "long", Kind: KindProgress, Step: i})
	}
	if n := j.Len("long"); n != 10 {
		t.Fatalf("Len = %d, want the depth 10", n)
	}
	got := j.Replay("long")
	if len(got) != 10 {
		t.Fatalf("replay = %d entries, want 10", len(got))
	}
	for i, e := range got {
		wantSeq := uint64(total - 10 + 1 + i)
		if e.Seq != wantSeq || e.Step != int(wantSeq) {
			t.Fatalf("entry %d: Seq=%d Step=%d, want %d (oldest-first)", i, e.Seq, e.Step, wantSeq)
		}
	}

	for i := 1; i <= 3; i++ {
		j.Append(Entry{JobID: "short", Kind: KindLifecycle, Step: i})
	}
	j.mu.Lock()
	short := j.jobs["short"]
	ringCap, subs := cap(short.ring), short.subs
	j.mu.Unlock()
	if ringCap > 8 {
		t.Errorf("3-entry ring has capacity %d, want ≤ 8", ringCap)
	}
	if subs != nil {
		t.Error("a job nobody subscribed to allocated a subscriber map")
	}
	if got := j.Replay("short"); len(got) != 3 || got[0].Seq != 1 || got[2].Seq != 3 {
		t.Errorf("short replay: %+v", got)
	}
}
