package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rumornet/internal/cluster"
	"rumornet/internal/obs"
	"rumornet/internal/obs/invariant"
	"rumornet/internal/obs/journal"
)

// lineSink collects the journal's JSON-lines mirror.
type lineSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *lineSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// entries decodes every mirrored entry, oldest first.
func (s *lineSink) entries(t *testing.T) []journal.Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []journal.Entry
	for _, line := range strings.Split(strings.TrimSpace(s.buf.String()), "\n") {
		if line == "" {
			continue
		}
		var e journal.Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

// relayState is what one relay request may change.
type relayState struct {
	entries  int
	finished int64 // spans the tracer ring received, overwritten ones included
	job      Job
	workers  []cluster.WorkerInfo // time-varying fields zeroed
	snap     obs.Snapshot
}

func observeRelay(t *testing.T, s *Service, sink *lineSink, id string) relayState {
	job, _ := s.Job(id)
	ws := s.Workers()
	for i := range ws {
		ws[i].LastSeen, ws[i].OldestLeaseAgeMS = time.Time{}, 0
	}
	s.telMu.Lock()
	snap := s.workerSnaps["w-fuzz"]
	s.telMu.Unlock()
	return relayState{
		entries:  len(sink.entries(t)),
		finished: int64(len(s.tracer.Finished())) + s.tracer.Dropped(),
		job:      job,
		workers:  ws,
		snap:     snap,
	}
}

// FuzzWorkerRelay feeds arbitrary JSON as a HeartbeatRequest and then a
// ResultRequest body — decoded as the internal API decodes them — for a job
// that holds a valid lease. With useToken the live lease token replaces
// whatever token the body carried. Nothing may panic; every journal entry a
// request adds carries the leased job's JobID and TraceID, and the job's
// journal holds at most one Final entry; a request adds at most one
// progress entry per event, one entry per invariant check and the Final; a
// request whose token is stale or empty changes nothing. Once the job has
// settled it has at most one stage span per known stage, each starting
// within [StartedAt, settle]. Seeds: testdata/fuzz.
func FuzzWorkerRelay(f *testing.F) {
	sink := &lineSink{}
	s, err := New(Config{JournalSink: sink, MaxJobs: 64, JournalEntries: 64,
		Cluster: ClusterConfig{Enabled: true, LeaseTTL: time.Hour}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	if _, err := s.RegisterScenario("tiny", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2}); err != nil {
		f.Fatal(err)
	}
	var seed int64
	decode := func(body []byte, dst any) error {
		return decodeBody(httptest.NewRequest("POST", "/", bytes.NewReader(body)), dst)
	}

	f.Fuzz(func(t *testing.T, beat, result []byte, useToken bool) {
		sink.mu.Lock()
		sink.buf.Reset()
		sink.mu.Unlock()
		seed++
		job, err := s.Submit(Request{Type: JobODE, Scenario: "tiny", Params: Params{Lambda0: 0.02, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		lj, err := s.LeaseNext("w-fuzz")
		if err != nil || lj == nil || lj.JobID != job.ID {
			t.Fatalf("lease: %+v, %v", lj, err)
		}

		relay := func(token string, events int, call func()) {
			before := observeRelay(t, s, sink, job.ID)
			call()
			after := observeRelay(t, s, sink, job.ID)
			if token != lj.LeaseToken {
				if !reflect.DeepEqual(before, after) {
					t.Fatalf("a request with token %q changed state:\n before %+v\n after  %+v", token, before, after)
				}
				return
			}
			all := sink.entries(t)
			added := all[before.entries:]
			for _, e := range added {
				if e.JobID != job.ID || e.TraceID != job.TraceID {
					t.Fatalf("entry %+v escaped job %s / trace %s", e, job.ID, job.TraceID)
				}
			}
			// A request adds one progress entry per event, latch-once
			// invariant entries and the Final.
			if limit := events + len(invariant.Checks()) + 1; len(added) > limit {
				t.Fatalf("one request added %d entries, bound %d", len(added), limit)
			}
			finals := 0
			for _, e := range all {
				if e.Final {
					finals++
				}
			}
			if finals > 1 {
				t.Fatalf("job journal holds %d Final entries", finals)
			}
		}

		var hb HeartbeatRequest
		if decode(beat, &hb) == nil {
			if useToken {
				hb.LeaseToken = lj.LeaseToken
			}
			relay(hb.LeaseToken, len(hb.Events), func() { s.ExtendLease(job.ID, hb) })
		}
		var res ResultRequest
		if decode(result, &res) == nil {
			if useToken {
				res.LeaseToken = lj.LeaseToken
			}
			relay(res.LeaseToken, len(res.Events), func() { s.CompleteLease(job.ID, res) })
		}
		// Leave no lease behind for the next input.
		if j, _ := s.Job(job.ID); !j.Status.Terminal() {
			if _, err := s.CompleteLease(job.ID, ResultRequest{LeaseToken: lj.LeaseToken,
				Status: string(StatusFailed), Error: "fuzz cleanup"}); err != nil {
				t.Fatal(err)
			}
		}
		settled, _ := s.Job(job.ID)
		seen := map[string]bool{}
		for _, sp := range s.tracer.Finished() {
			if sp.TraceID != job.TraceID || !strings.HasPrefix(sp.Name, "stage.") {
				continue
			}
			if seen[sp.Name] || !knownStages[strings.TrimPrefix(sp.Name, "stage.")] {
				t.Fatalf("stage span %q is a duplicate or names no known stage", sp.Name)
			}
			seen[sp.Name] = true
			if sp.Start.Before(*settled.StartedAt) || sp.Start.After(*settled.FinishedAt) {
				t.Fatalf("stage span %q starts at %v, outside [%v, %v]", sp.Name, sp.Start, *settled.StartedAt, *settled.FinishedAt)
			}
		}
	})
}
