package main

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rumornet/internal/cluster/worker"
	"rumornet/internal/service"
)

// TestEventsFollowClusterCoordinator drives `rumorctl events -follow`
// against a real clustered coordinator with a real worker node: the
// follower attaches while the job is still queued, so the lease grant and
// the progress the worker relays back must reach the client over the live
// SSE tail, ending with the terminal entry. The stream looks identical to a standalone daemon's: the
// relay is transparent to clients.
func TestEventsFollowClusterCoordinator(t *testing.T) {
	svc, err := service.New(service.Config{
		QueueDepth: 16,
		Cluster: service.ClusterConfig{
			Enabled:      true,
			LeaseTTL:     60 * time.Millisecond,
			ReapInterval: 5 * time.Millisecond,
			MaxAttempts:  3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	if _, err := svc.RegisterScenario("tiny", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2}); err != nil {
		t.Fatal(err)
	}
	job, err := svc.Submit(service.Request{Type: service.JobODE, Scenario: "tiny",
		Params: service.Params{Lambda0: 0.02, Tf: 40, Points: 50}})
	if err != nil {
		t.Fatal(err)
	}

	// Attach the follower before any worker exists; runEvents returns when
	// the terminal entry closes the stream.
	type followed struct {
		out string
		err error
	}
	resCh := make(chan followed, 1)
	go func() {
		var sb strings.Builder
		err := runEvents([]string{"-addr", ts.URL, "-follow", job.ID}, &sb)
		resCh <- followed{sb.String(), err}
	}()
	time.Sleep(20 * time.Millisecond) // let the subscription attach first

	ctx, cancel := context.WithCancel(context.Background())
	wdone := make(chan error, 1)
	go func() {
		wdone <- worker.Run(ctx, worker.Options{
			Coordinator: ts.URL,
			ID:          "w-tail",
			PollMin:     2 * time.Millisecond,
			PollMax:     20 * time.Millisecond,
		})
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-wdone; err != nil {
			t.Errorf("worker: %v", err)
		}
	})

	var res followed
	select {
	case res = <-resCh:
	case <-time.After(60 * time.Second):
		t.Fatal("follow stream did not close on the terminal entry")
	}
	if res.err != nil {
		t.Fatalf("runEvents -follow: %v\n%s", res.err, res.out)
	}
	for _, want := range []string{
		"queued",
		`lease granted to worker "w-tail"`,
		"progress   ode", // relayed solver checkpoints
		"finished: succeeded",
	} {
		if !strings.Contains(res.out, want) {
			t.Errorf("followed stream missing %q:\n%s", want, res.out)
		}
	}
	if strings.Index(res.out, "lease granted to worker") > strings.Index(res.out, "finished: succeeded") {
		t.Errorf("the lease grant arrived after the terminal entry:\n%s", res.out)
	}

	// On the wire, every frame of the job's stream carries its trace id —
	// the entries derived from relayed progress belong to the same trace.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		frames++
		if !strings.Contains(line, `"trace_id":"`+job.TraceID+`"`) {
			t.Errorf("frame not correlated to trace %s: %s", job.TraceID, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if frames < 4 {
		t.Errorf("replay holds %d frames, want the full history", frames)
	}
}
