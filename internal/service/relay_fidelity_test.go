package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"rumornet/internal/obs"
	"rumornet/internal/obs/journal"
)

// fullEvent returns an obs.Event with every field non-zero, set by
// reflection so that a field added to obs.Event later is covered too; k
// tells events apart. Integer fields get 1500 + 1000k + i, so Elapsed
// holds a nanosecond count that no whole number of microseconds carries.
func fullEvent(t *testing.T, k int) obs.Event {
	t.Helper()
	var ev obs.Event
	v := reflect.ValueOf(&ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("stage-%d", k))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1500 + 1000*k + i))
		case reflect.Float64:
			f.SetFloat(0.125*float64(i+1) + float64(k))
		default:
			t.Fatalf("obs.Event.%s: no non-zero filler for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return ev
}

// TestRelayKeepsEveryField emits events with every field set through an
// in-process runner's transport and, as a remote worker sends them, in a
// heartbeat and a result body over the internal HTTP API. The
// coordinator's sink, the job's progress on GET /v1/jobs/{id} and its
// journal entries must each carry every event unchanged.
func TestRelayKeepsEveryField(t *testing.T) {
	lines := &lineSink{}
	s := newTestService(t, Config{JournalSink: lines, Cluster: ClusterConfig{Enabled: true, LeaseTTL: time.Hour}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tinyScenario(t, s)

	// lease grants a fresh job to w-1 and records what its sink receives.
	var mu sync.Mutex
	var sunk []obs.Event
	lease := func(seed int64) (*LeasedJob, eventSink) {
		t.Helper()
		if _, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny", Params: Params{Lambda0: 0.02, Seed: seed}}); err != nil {
			t.Fatal(err)
		}
		lj, err := s.LeaseNext("w-1")
		if err != nil || lj == nil {
			t.Fatalf("lease: %+v, %v", lj, err)
		}
		mu.Lock()
		sunk = nil
		mu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		r := s.jobs[lj.JobID]
		inner := r.sink
		r.sink = func(ev obs.Event, at time.Time) {
			mu.Lock()
			sunk = append(sunk, ev)
			mu.Unlock()
			inner(ev, at)
		}
		return lj, r.sink
	}
	check := func(id string, want ...obs.Event) {
		t.Helper()
		mu.Lock()
		got := append([]obs.Event(nil), sunk...)
		mu.Unlock()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sink received\n %+v\nwant\n %+v", got, want)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil || job.Progress == nil || !reflect.DeepEqual(job.Progress.Event, want[len(want)-1]) {
			t.Errorf("GET progress = %+v (%v), want %+v", job.Progress, err, want[len(want)-1])
		}
		got = nil
		for _, e := range lines.entries(t) {
			if e.JobID == id && e.Kind == journal.KindProgress {
				got = append(got, e.Event)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("journal progress entries\n %+v\nwant\n %+v", got, want)
		}
	}
	post := func(path string, body any) {
		t.Helper()
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d", path, resp.StatusCode)
		}
	}
	first, last := fullEvent(t, 1), fullEvent(t, 2)

	t.Run("in-process", func(t *testing.T) {
		lj, sink := lease(1)
		tr := localTransport{s: s, id: lj.JobID, sink: sink}
		tr.Progress(first)
		check(lj.JobID, first)
		tr.Progress(last)
		tr.Complete(ResultRequest{WorkerID: "w-1", LeaseToken: lj.LeaseToken, Status: string(StatusFailed), Error: "relay fidelity"})
		check(lj.JobID, first, last)
	})
	t.Run("http", func(t *testing.T) {
		lj, _ := lease(2)
		base := "/v1/internal/jobs/" + lj.JobID
		post(base+"/heartbeat", HeartbeatRequest{WorkerID: "w-1", LeaseToken: lj.LeaseToken,
			Events: []RelayedEvent{{AtUS: 1, Event: first}}})
		check(lj.JobID, first)
		post(base+"/result", ResultRequest{WorkerID: "w-1", LeaseToken: lj.LeaseToken,
			Status: string(StatusFailed), Error: "relay fidelity", Events: []RelayedEvent{{AtUS: 2, Event: last}}})
		check(lj.JobID, first, last)
	})
}
