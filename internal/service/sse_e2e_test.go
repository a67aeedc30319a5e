package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rumornet/internal/obs"
	"rumornet/internal/obs/journal"
)

// sseEvent is one parsed frame of a Server-Sent-Events stream. Heartbeat
// comments surface with event == "comment".
type sseEvent struct {
	id    string
	event string
	data  string
}

// entry decodes the frame's data as a journal entry.
func (ev sseEvent) entry(t *testing.T) journal.Entry {
	t.Helper()
	var e journal.Entry
	if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
		t.Fatalf("undecodable SSE data %q: %v", ev.data, err)
	}
	return e
}

// openSSE starts a streaming GET against the events endpoint and parses
// frames into a channel, closed when the server ends the stream or cancel
// is called.
func (e *testServer) openSSE(path string) (<-chan sseEvent, context.CancelFunc) {
	e.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.ts.URL+path, nil)
	if err != nil {
		cancel()
		e.t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		cancel()
		e.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		e.t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		e.t.Errorf("content type %q, want text/event-stream", ct)
	}
	ch := make(chan sseEvent, 1024)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev != (sseEvent{}) {
					ch <- ev
					ev = sseEvent{}
				}
			case strings.HasPrefix(line, ": "):
				ch <- sseEvent{event: "comment", data: strings.TrimPrefix(line, ": ")}
			case strings.HasPrefix(line, "id: "):
				ev.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				ev.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	return ch, cancel
}

// nextSSE receives the next frame matching pred, failing after timeout.
func nextSSE(t *testing.T, ch <-chan sseEvent, timeout time.Duration, pred func(sseEvent) bool) sseEvent {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("SSE stream closed before the expected frame")
			}
			if pred(ev) {
				return ev
			}
		case <-deadline:
			t.Fatal("timed out waiting for an SSE frame")
		}
	}
}

// TestE2ETraceSSEAndInvariantInjection is the PR's acceptance path: a
// client submits a parked FBSM job with a W3C traceparent; the job adopts
// the client's trace id (visible on the snapshot, the response header and
// every journal entry); GET /v1/jobs/{id}/events replays the lifecycle
// history and then streams live sweep checkpoints; an injected
// mass-conservation violation shows up on the stream and in
// rumor_invariant_violations_total; cancellation delivers the terminal
// entry and ends the stream.
func TestE2ETraceSSEAndInvariantInjection(t *testing.T) {
	// A parked forward sweep emits thousands of checkpoints; a deep ring
	// keeps the early lifecycle entries replayable for the whole test.
	e := newE2E(t, Config{Workers: 1, JournalEntries: 1 << 16})

	const clientTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/v1/jobs",
		strings.NewReader(`{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":120}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+clientTrace+"-00f067aa0ba902b7-01")
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if job.TraceID != clientTrace {
		t.Fatalf("job trace id %q, want the client's %q", job.TraceID, clientTrace)
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, clientTrace) {
		t.Errorf("response traceparent %q does not carry the client trace", tp)
	}

	// Wait until the worker parks inside the first forward sweep.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur Job
		e.do(http.MethodGet, "/v1/jobs/"+job.ID, "", http.StatusOK, &cur)
		if cur.Status == StatusRunning {
			break
		}
		if cur.Status.Terminal() {
			t.Fatalf("job settled prematurely: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ch, cancel := e.openSSE("/v1/jobs/" + job.ID + "/events")
	defer cancel()

	// Replay: the queued and started lifecycle entries, in order, all on
	// the client's trace.
	first := nextSSE(t, ch, 10*time.Second, func(ev sseEvent) bool { return ev.event != "comment" })
	if en := first.entry(t); en.Kind != journal.KindLifecycle || en.Msg != "queued" {
		t.Fatalf("first replayed entry %+v, want the queued lifecycle record", en)
	} else if en.TraceID != clientTrace {
		t.Fatalf("journal entry trace id %q, want %q", en.TraceID, clientTrace)
	}
	started := nextSSE(t, ch, 10*time.Second, func(ev sseEvent) bool { return ev.event == string(journal.KindLifecycle) })
	if en := started.entry(t); en.Msg != "started" {
		t.Fatalf("second lifecycle entry %+v, want started", en)
	}

	// Live streaming: forward-sweep checkpoints keep arriving while the
	// job runs.
	prog := nextSSE(t, ch, 30*time.Second, func(ev sseEvent) bool { return ev.event == string(journal.KindProgress) })
	if en := prog.entry(t); !strings.HasPrefix(en.Stage, obs.StageFBSM) {
		t.Fatalf("live progress stage %q, want an fbsm stage", en.Stage)
	} else if en.TraceID != clientTrace {
		t.Fatalf("progress entry trace id %q, want %q", en.TraceID, clientTrace)
	}

	// Inject a mass-conservation violation through the job's real progress
	// sink — the same pipeline a leaking integration would take.
	e.svc.mu.Lock()
	sink := e.svc.jobs[job.ID].sink
	e.svc.mu.Unlock()
	if sink == nil {
		t.Fatal("running job has no progress sink")
	}
	sink(obs.Event{Stage: obs.StageODE, Step: 1, T: 1, Value: 0.5, MassErr: 1})

	viol := nextSSE(t, ch, 10*time.Second, func(ev sseEvent) bool { return ev.event == string(journal.KindInvariant) })
	en := viol.entry(t)
	if en.Check != "mass_conservation" {
		t.Fatalf("violation check %q, want mass_conservation", en.Check)
	}
	if en.TraceID != clientTrace || en.Msg == "" {
		t.Errorf("violation entry lacks trace or message: %+v", en)
	}
	metrics, _ := e.getRaw("/metrics")
	if !strings.Contains(metrics, `rumor_invariant_violations_total{check="mass_conservation"} 1`) {
		t.Error("violation counter not incremented")
	}
	if !strings.Contains(metrics, "rumor_sse_clients 1") {
		t.Error("open stream not reflected in rumor_sse_clients")
	}

	// Cancellation delivers the terminal entry and the server closes the
	// stream.
	e.do(http.MethodDelete, "/v1/jobs/"+job.ID, "", http.StatusOK, nil)
	e.wait(job.ID)
	fin := nextSSE(t, ch, 10*time.Second, func(ev sseEvent) bool {
		return ev.event != "comment" && ev.event != string(journal.KindProgress)
	})
	if en := fin.entry(t); !en.Final || !strings.Contains(en.Msg, "cancelled") {
		t.Fatalf("terminal entry %+v, want a final cancelled record", en)
	}
	select {
	case _, open := <-ch:
		for open {
			_, open = <-ch
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream not closed after the terminal entry")
	}
}

// TestE2ESSEHeartbeat opens a stream on a queued job — nothing flows, so
// only heartbeats keep the connection alive — then cancels the job and
// expects the terminal entry to end the stream.
func TestE2ESSEHeartbeat(t *testing.T) {
	e := newE2E(t, Config{Workers: 1, SSEHeartbeat: 30 * time.Millisecond})
	park := e.post("/v1/jobs",
		`{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":120}`,
		http.StatusAccepted)
	queued := e.post("/v1/jobs", `{"type":"threshold","scenario":"tiny"}`, http.StatusAccepted)

	ch, cancel := e.openSSE("/v1/jobs/" + queued.ID + "/events")
	defer cancel()
	nextSSE(t, ch, 10*time.Second, func(ev sseEvent) bool {
		return ev.event == "comment" && ev.data == "heartbeat"
	})

	e.do(http.MethodDelete, "/v1/jobs/"+queued.ID, "", http.StatusOK, nil)
	fin := nextSSE(t, ch, 10*time.Second, func(ev sseEvent) bool {
		return ev.event == string(journal.KindLifecycle) && ev.data != "" && strings.Contains(ev.data, "finished")
	})
	if en := fin.entry(t); !en.Final {
		t.Fatalf("cancel entry not final: %+v", en)
	}

	e.do(http.MethodDelete, "/v1/jobs/"+park.ID, "", http.StatusOK, nil)
	e.wait(park.ID)
}

// TestE2ESSEReplayOnly: ?follow=0 returns the full history of a finished
// job and closes immediately; unknown jobs 404.
func TestE2ESSEReplayOnly(t *testing.T) {
	e := newE2E(t, Config{Workers: 1})
	job := e.submitAndWait(`{"type":"threshold","scenario":"tiny"}`)
	mustSucceed(t, job)

	ch, cancel := e.openSSE("/v1/jobs/" + job.ID + "/events?follow=0")
	defer cancel()
	var msgs []string
	for ev := range ch {
		msgs = append(msgs, ev.entry(t).Msg)
	}
	if len(msgs) != 3 || msgs[0] != "queued" || msgs[1] != "started" || !strings.Contains(msgs[2], "succeeded") {
		t.Fatalf("replayed lifecycle = %v", msgs)
	}

	var errResp struct {
		Error string `json:"error"`
	}
	e.do(http.MethodGet, "/v1/jobs/j-424242/events", "", http.StatusNotFound, &errResp)
	if errResp.Error == "" {
		t.Error("404 error envelope missing")
	}

	// Cache hits replay instantly too: submitted + final, no execution.
	hit := e.post("/v1/jobs", `{"type":"threshold","scenario":"tiny"}`, http.StatusOK)
	if !hit.CacheHit {
		t.Fatalf("expected a cache hit: %+v", hit)
	}
	hch, hcancel := e.openSSE("/v1/jobs/" + hit.ID + "/events")
	defer hcancel()
	var hmsgs []string
	for ev := range hch {
		hmsgs = append(hmsgs, ev.entry(t).Msg)
	}
	if len(hmsgs) != 2 || hmsgs[0] != "submitted" || !strings.Contains(hmsgs[1], "cache hit") {
		t.Fatalf("cache-hit replay = %v", hmsgs)
	}
}

// TestE2ECacheEvictionTrimsJournal is the retention hardening: evicting a
// cached result also releases the journal entries of every job that
// produced or was served from it.
func TestE2ECacheEvictionTrimsJournal(t *testing.T) {
	e := newE2E(t, Config{Workers: 1, CacheEntries: 1})
	a := e.submitAndWait(`{"type":"threshold","scenario":"tiny","params":{"seed":1}}`)
	mustSucceed(t, a)
	if n := e.svc.journal.Len(a.ID); n == 0 {
		t.Fatal("job A has no journal entries before eviction")
	}

	b := e.submitAndWait(`{"type":"threshold","scenario":"tiny","params":{"seed":2}}`)
	mustSucceed(t, b)
	if n := e.svc.journal.Len(a.ID); n != 0 {
		t.Fatalf("job A retains %d journal entries after its cache entry was evicted", n)
	}
	if n := e.svc.journal.Len(b.ID); n == 0 {
		t.Fatal("job B journal trimmed although its result is resident")
	}

	// The events endpoint now replays nothing for A but still 200s: the
	// job record itself is retained for polling.
	ch, cancel := e.openSSE("/v1/jobs/" + a.ID + "/events?follow=0")
	defer cancel()
	if ev, open := <-ch; open {
		t.Fatalf("trimmed job replayed %+v", ev)
	}
}

// TestE2EDebugEventsDump exercises the /debug/events payload: journal
// entries grouped by job plus finished trace spans with parent/child
// links.
func TestE2EDebugEventsDump(t *testing.T) {
	e := newE2E(t, Config{Workers: 1})
	job := e.submitAndWait(`{"type":"ode","scenario":"tiny","params":{"lambda0":0.02,"tf":40,"points":50}}`)
	mustSucceed(t, job)

	srv := httptest.NewServer(e.svc.EventsDumpHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Journal struct {
			Jobs     map[string][]journal.Entry `json:"jobs"`
			JobCount int                        `json:"job_count"`
		} `json:"journal"`
		Spans []struct {
			Name     string `json:"name"`
			TraceID  string `json:"trace_id"`
			ParentID string `json:"parent_span_id"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	entries := dump.Journal.Jobs[job.ID]
	if len(entries) < 3 {
		t.Fatalf("dump has %d entries for %s, want the full lifecycle", len(entries), job.ID)
	}
	var jobSpan, stageSpan bool
	for _, sp := range dump.Spans {
		switch sp.Name {
		case "job.ode":
			jobSpan = sp.TraceID == job.TraceID
		case "stage." + obs.StageODE:
			stageSpan = sp.TraceID == job.TraceID && sp.ParentID != ""
		}
	}
	if !jobSpan || !stageSpan {
		t.Errorf("span dump missing job/stage spans on trace %s: job=%v stage=%v",
			job.TraceID, jobSpan, stageSpan)
	}
}

// TestSettleFinalEntryWithStatus pins settle's ordering on a tight loop:
// a poller that sees a job's terminal status gets the Final entry in the
// journal replay that ?follow=0 serves, and a follower that reads the
// Final entry finds the job terminal. With the Final entry appended after
// the status published, the replay could come back without it — the
// cause of TestE2ESSEReplayOnly's rare three-versus-two flake.
func TestSettleFinalEntryWithStatus(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	tinyScenario(t, s)
	for i := 1; i <= 200; i++ {
		job, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny", Params: Params{Seed: int64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		id := job.ID
		history, ch, cancel := s.journal.Subscribe(id)
		followed := make(chan Status, 1)
		go func() {
			final := func(e journal.Entry) bool {
				if e.Final {
					got, _ := s.Job(id)
					followed <- got.Status
				}
				return e.Final
			}
			for _, e := range history {
				if final(e) {
					return
				}
			}
			for e := range ch {
				if final(e) {
					return
				}
			}
			followed <- ""
		}()
		for !job.Status.Terminal() {
			job, _ = s.Job(id)
		}
		if replay := s.journal.Replay(id); len(replay) == 0 || !replay[len(replay)-1].Final {
			t.Fatalf("job %d: %s, but its replay has no Final entry: %+v", i, job.Status, replay)
		}
		if st := <-followed; !st.Terminal() {
			t.Fatalf("job %d: follower read the Final entry while the job was %q", i, st)
		}
		cancel()
	}
}

// TestSSEFollowWhileSettling opens a following stream the moment each job
// is submitted, so some subscriptions land while the job settles: every
// stream must still end with the Final entry.
func TestSSEFollowWhileSettling(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	tinyScenario(t, s)
	h := s.Handler()
	for i := 1; i <= 300; i++ {
		job, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny", Params: Params{Seed: int64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil))
		if !strings.Contains(rec.Body.String(), `"final":true`) {
			t.Fatalf("job %d: stream ended without the Final entry:\n%s", i, rec.Body.String())
		}
	}
}
