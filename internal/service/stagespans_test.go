package service

import (
	"testing"
	"time"

	"rumornet/internal/obs"
	"rumornet/internal/obs/trace"
)

// leaseOne submits a job to a coordinator with no workers and leases it to
// w-1, returning the job as granted and its lease token.
func leaseOne(t *testing.T, s *Service) (Job, string) {
	t.Helper()
	tinyScenario(t, s)
	sub, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny", Params: Params{Lambda0: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	lj, err := s.LeaseNext("w-1")
	if err != nil || lj == nil || lj.JobID != sub.ID {
		t.Fatalf("lease: %+v, %v", lj, err)
	}
	job, _ := s.Job(sub.ID)
	return job, lj.LeaseToken
}

// jobStageSpans returns the job's finished stage spans by name.
func jobStageSpans(s *Service, job Job) map[string]trace.SpanData {
	out := map[string]trace.SpanData{}
	for _, sp := range s.tracer.Finished() {
		if sp.TraceID == job.TraceID && sp.Name != "job."+string(job.Type) {
			out[sp.Name] = sp
		}
	}
	return out
}

// TestRelayedStageSpanTiming: the coordinator opens a remote job's stage
// spans at StartedAt + at_us, clamped to [StartedAt, arrival], so a job
// whose events all ride its result still gets spans with their own start
// times.
func TestRelayedStageSpanTiming(t *testing.T) {
	s := newTestService(t, Config{Cluster: ClusterConfig{Enabled: true, LeaseTTL: time.Hour}})
	job, token := leaseOne(t, s)
	time.Sleep(5 * time.Millisecond) // arrival well past StartedAt+1ms

	before := time.Now()
	if _, err := s.CompleteLease(job.ID, ResultRequest{WorkerID: "w-1", LeaseToken: token,
		Status: string(StatusFailed), Error: "relay timing", Events: []RelayedEvent{
			{AtUS: 1000, Event: obs.Event{Stage: obs.StageODE}},
			{AtUS: -5, Event: obs.Event{Stage: obs.StageFBSM}},
			{AtUS: 1_000_000_000_000, Event: obs.Event{Stage: obs.StageABM}},
		}}); err != nil {
		t.Fatal(err)
	}
	after := time.Now()

	started := *job.StartedAt
	spans := jobStageSpans(s, job)
	if len(spans) != 3 {
		t.Fatalf("stage spans = %v, want ode, fbsm and abm", spans)
	}
	if got, want := spans["stage.ode"].Start, started.Add(time.Millisecond); !got.Equal(want) {
		t.Errorf("at_us 1000 opened at %v, want StartedAt+1ms %v", got, want)
	}
	if got := spans["stage.fbsm"].Start; !got.Equal(started) {
		t.Errorf("at_us -5 opened at %v, want StartedAt %v", got, started)
	}
	if got := spans["stage.abm"].Start; got.Before(before) || got.After(after) {
		t.Errorf("at_us 1e12 opened at %v, want the arrival, within [%v, %v]", got, before, after)
	}
	for name, sp := range spans {
		if sp.Attrs["worker"] != "w-1" || sp.Attrs["job_id"] != job.ID || sp.Attrs["status"] != string(StatusFailed) {
			t.Errorf("%s attrs = %v, want worker, job_id and the settled status", name, sp.Attrs)
		}
	}
}

// TestRelayedUnknownStageOpensNoSpan: only the known obs.Stage* names open
// a stage span; anything else a worker sends lands in the journal but not
// in the trace.
func TestRelayedUnknownStageOpensNoSpan(t *testing.T) {
	s := newTestService(t, Config{Cluster: ClusterConfig{Enabled: true, LeaseTTL: time.Hour}})
	job, token := leaseOne(t, s)
	if _, err := s.ExtendLease(job.ID, HeartbeatRequest{WorkerID: "w-1", LeaseToken: token,
		Events: []RelayedEvent{{AtUS: 1, Event: obs.Event{Stage: "bogus"}}, {AtUS: 2, Event: obs.Event{Stage: obs.StageODE}}, {AtUS: 3, Event: obs.Event{Stage: "ode/extra"}}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompleteLease(job.ID, ResultRequest{WorkerID: "w-1", LeaseToken: token,
		Status: string(StatusFailed), Error: "unknown stages"}); err != nil {
		t.Fatal(err)
	}
	spans := jobStageSpans(s, job)
	if _, ok := spans["stage.ode"]; !ok || len(spans) != 1 {
		t.Errorf("stage spans = %v, want only stage.ode", spans)
	}
}

// TestRequeueEndsStageSpans: when the reaper requeues a job whose lease
// expired, the attempt's stage spans end with status "requeued", and the
// next attempt opens its own.
func TestRequeueEndsStageSpans(t *testing.T) {
	s := newTestService(t, Config{Cluster: ClusterConfig{Enabled: true,
		LeaseTTL: 40 * time.Millisecond, ReapInterval: 5 * time.Millisecond}})
	job, token := leaseOne(t, s)
	if _, err := s.ExtendLease(job.ID, HeartbeatRequest{WorkerID: "w-1", LeaseToken: token,
		Events: []RelayedEvent{{Event: obs.Event{Stage: obs.StageODE}}}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j, _ := s.Job(job.ID); j.Status != StatusQueued; j, _ = s.Job(job.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("job not requeued: %s", j.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	sp, ok := jobStageSpans(s, job)["stage.ode"]
	if !ok || sp.Attrs["status"] != "requeued" {
		t.Fatalf("requeued attempt's stage.ode = %+v (finished %v), want ended with status requeued", sp, ok)
	}
}
