package worker_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rumornet/internal/cluster/worker"
	"rumornet/internal/service"
)

// Cluster throughput benchmarks: sustained job throughput of a clustered
// coordinator at 1/2/4 in-process worker nodes against the standalone
// in-process pool at the same widths (jobs/sec = 1e9 / ns_per_op), plus a
// near-zero-compute threshold pair that isolates the per-job coordinator
// overhead — the lease, heartbeat and result-upload round trips a remote
// job pays that an in-process job does not.

// startCluster boots a coordinator with n worker nodes attached over real
// HTTP, polling tightly so the queue, not the backoff, paces the run.
func startCluster(b *testing.B, n int) *service.Service {
	b.Helper()
	svc, err := service.New(service.Config{
		QueueDepth: 64,
		Cluster:    service.ClusterConfig{Enabled: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker.Run(ctx, worker.Options{
				Coordinator: ts.URL,
				ID:          fmt.Sprintf("bw-%d", i),
				PollMin:     time.Millisecond,
				PollMax:     5 * time.Millisecond,
			})
		}(i)
	}
	b.Cleanup(func() {
		cancel()
		wg.Wait()
		ts.Close()
		svc.Close()
	})
	return svc
}

func startStandalone(b *testing.B, workers int) *service.Service {
	b.Helper()
	svc, err := service.New(service.Config{Workers: workers, QueueDepth: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	return svc
}

func benchWait(b *testing.B, s *service.Service, id string) {
	b.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := s.Job(id)
		if !ok {
			b.Fatalf("job %s disappeared", id)
		}
		if job.Status.Terminal() {
			if job.Status != service.StatusSucceeded {
				b.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatalf("job %s did not settle", id)
}

// benchThroughput drives the standard workload — Digg2009 ODE integrations,
// a distinct cache key per iteration — in waves that keep every worker
// saturated, the way real clients drive a daemon.
func benchThroughput(b *testing.B, svc *service.Service, req service.Request) {
	const wave = 16 // well under the queue depth
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(wave, b.N-done)
		ids := make([]string, 0, n)
		for j := 0; j < n; j++ {
			req.Params.Seed = int64(done + j + 1)
			job, err := svc.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, job.ID)
		}
		for _, id := range ids {
			benchWait(b, svc, id)
		}
		done += n
	}
}

var odeReq = service.Request{Type: service.JobODE,
	Params: service.Params{Lambda0: 0.02, Tf: 150, Points: 150}}

func BenchmarkClusterODE(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", n), func(b *testing.B) {
			benchThroughput(b, startCluster(b, n), odeReq)
		})
	}
}

func BenchmarkStandaloneODE(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", n), func(b *testing.B) {
			benchThroughput(b, startStandalone(b, n), odeReq)
		})
	}
}

// The threshold job computes in microseconds, so the pair's ns_per_op
// difference is almost entirely the coordinator's per-job overhead.
var thresholdReq = service.Request{Type: service.JobThreshold,
	Params: service.Params{Lambda0: 0.02}}

func BenchmarkClusterThreshold(b *testing.B) {
	benchThroughput(b, startCluster(b, 1), thresholdReq)
}

func BenchmarkStandaloneThreshold(b *testing.B) {
	benchThroughput(b, startStandalone(b, 1), thresholdReq)
}

// BenchmarkClusterThresholdRelayOn prices the telemetry relay: the
// near-zero-compute threshold workload through one worker node with the
// heartbeat forced fast, so relay payloads actually ride heartbeats
// mid-job, not just the result upload — journal entries, finished spans
// and the health sample per send, plus the registry snapshot on its 250ms
// throttle window. Against BenchmarkClusterThreshold it prices the relay
// together with the faster heartbeat.
func startClusterRelay(b *testing.B) *service.Service {
	b.Helper()
	svc, err := service.New(service.Config{
		QueueDepth: 64,
		Cluster:    service.ClusterConfig{Enabled: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		worker.Run(ctx, worker.Options{
			Coordinator: ts.URL,
			ID:          "bw-relay",
			PollMin:     time.Millisecond,
			PollMax:     5 * time.Millisecond,
			Heartbeat:   2 * time.Millisecond,
		})
	}()
	b.Cleanup(func() {
		cancel()
		<-done
		ts.Close()
		svc.Close()
	})
	return svc
}

func BenchmarkClusterThresholdRelayOn(b *testing.B) {
	benchThroughput(b, startClusterRelay(b), thresholdReq)
}
