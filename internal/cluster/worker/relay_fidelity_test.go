package worker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rumornet/internal/obs"
	"rumornet/internal/obs/journal"
	"rumornet/internal/service"
)

// fullEvent returns an obs.Event with every field non-zero, set by
// reflection so that a field added to obs.Event later is covered too; k
// tells events apart. Integer fields get 1500 + 1000k + i, so Elapsed
// holds a nanosecond count that no whole number of microseconds carries.
// internal/service's TestRelayKeepsEveryField fills its events the same way.
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

// lockedBuffer is a journal sink safe to read while the service writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWorkerRelayKeepsEveryField sends events with every field set through
// a worker's own lease transport — one on a heartbeat, one on the result
// upload — to a coordinator over HTTP. The job's progress on
// GET /v1/jobs/{id} and its journal entries must carry each event
// unchanged.
func TestWorkerRelayKeepsEveryField(t *testing.T) {
	lines := &lockedBuffer{}
	svc, err := service.New(service.Config{JournalSink: lines,
		Cluster: service.ClusterConfig{Enabled: true, LeaseTTL: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if _, err := svc.RegisterScenario("tiny", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2}); err != nil {
		t.Fatal(err)
	}
	job, err := svc.Submit(service.Request{Type: service.JobThreshold, Scenario: "tiny", Params: service.Params{Lambda0: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	lj, err := svc.LeaseNext("w-fid")
	if err != nil || lj == nil {
		t.Fatalf("lease: %+v, %v", lj, err)
	}

	check := func(want ...obs.Event) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got service.Job
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || got.Progress == nil || !reflect.DeepEqual(got.Progress.Event, want[len(want)-1]) {
			t.Errorf("GET progress = %+v (%v), want %+v", got.Progress, err, want[len(want)-1])
		}
		var journaled []obs.Event
		for _, line := range strings.Split(strings.TrimSpace(lines.String()), "\n") {
			var e journal.Entry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("journal line %q: %v", line, err)
			}
			if e.Kind == journal.KindProgress {
				journaled = append(journaled, e.Event)
			}
		}
		if !reflect.DeepEqual(journaled, want) {
			t.Errorf("journal progress entries\n %+v\nwant\n %+v", journaled, want)
		}
	}

	first, last := fullEvent(t, 1), fullEvent(t, 2)
	rt := newNode(Options{Coordinator: ts.URL, ID: "w-fid"}.withDefaults()).newRemote(lj, obs.NopLogger())
	rt.Progress(first)
	if _, lost := rt.Heartbeat(service.HeartbeatRequest{WorkerID: "w-fid", LeaseToken: lj.LeaseToken}); lost {
		t.Fatal("heartbeat lost the lease")
	}
	check(first)
	rt.Progress(last)
	rt.Complete(service.ResultRequest{WorkerID: "w-fid", LeaseToken: lj.LeaseToken,
		Status: string(service.StatusFailed), Error: "relay fidelity"})
	check(first, last)
}
