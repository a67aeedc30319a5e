package service

import (
	"context"
	"testing"
	"time"

	"rumornet/internal/obs"
)

func benchService(b *testing.B) *Service {
	b.Helper()
	s, err := New(Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	if _, err := s.RegisterScenario("tiny", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2}); err != nil {
		b.Fatal(err)
	}
	return s
}

func benchWait(b *testing.B, s *Service, id string) Job {
	b.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := s.Job(id)
		if !ok {
			b.Fatalf("job %s disappeared", id)
		}
		if job.Status.Terminal() {
			if job.Status != StatusSucceeded {
				b.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
			}
			return job
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatalf("job %s did not settle", id)
	return Job{}
}

// BenchmarkJobColdODE measures the full submit→execute→poll cost of an ODE
// job that misses the cache (the seed changes every iteration, so each
// submission is a distinct cache key).
func BenchmarkJobColdODE(b *testing.B) {
	s := benchService(b)
	req := Request{Type: JobODE, Scenario: "tiny", Params: Params{Lambda0: 0.02, Tf: 40, Points: 50}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Params.Seed = int64(i + 1)
		job, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		benchWait(b, s, job.ID)
	}
}

// BenchmarkJobCacheHit measures the same request resolved from the result
// cache: Submit completes synchronously, no queue, no solver. The ratio to
// BenchmarkJobColdODE is the headline number for the PR's caching claim.
func BenchmarkJobCacheHit(b *testing.B) {
	s := benchService(b)
	req := Request{Type: JobODE, Scenario: "tiny", Params: Params{Lambda0: 0.02, Tf: 40, Points: 50}}
	job, err := s.Submit(req)
	if err != nil {
		b.Fatal(err)
	}
	benchWait(b, s, job.ID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if !hit.CacheHit {
			b.Fatal("expected a cache hit")
		}
	}
}

// benchJobThroughput measures sustained job throughput on the standard
// workload — ODE integrations over the built-in Digg2009 scenario, the job
// the paper's experiments submit (~tens of ms each; a distinct cache key
// every iteration, so each one executes). Jobs are submitted in waves that
// keep the worker pool saturated, the way real clients drive a daemon, so
// the store's per-job filesystem work overlaps other jobs' compute instead
// of being measured as serial latency.
func benchJobThroughput(b *testing.B, cfg Config) {
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	req := Request{Type: JobODE, Params: Params{Lambda0: 0.02, Tf: 150, Points: 150}}
	const wave = 16 // well under the default queue depth
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(wave, b.N-done)
		ids := make([]string, 0, n)
		for j := 0; j < n; j++ {
			req.Params.Seed = int64(done + j + 1)
			job, err := s.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, job.ID)
		}
		for _, id := range ids {
			benchWait(b, s, id)
		}
		done += n
	}
}

// BenchmarkJobThroughputWALOff/On price durability: the durable store
// (batched fsync, the default policy) must hold job throughput within a
// few percent of the in-memory service.
func BenchmarkJobThroughputWALOff(b *testing.B) {
	benchJobThroughput(b, Config{Workers: 2})
}

func BenchmarkJobThroughputWALOn(b *testing.B) {
	benchJobThroughput(b, Config{Workers: 2, StoreDir: b.TempDir()})
}

// BenchmarkSubmitReject measures the fast-fail path for invalid requests:
// the cost of a 400 before any queue or solver work.
func BenchmarkSubmitReject(b *testing.B) {
	s := benchService(b)
	req := Request{Type: JobType("bogus")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(req); err == nil {
			b.Fatal("want error")
		}
	}
}

// BenchmarkODERequest, BenchmarkABMRequest and BenchmarkFBSMRequest are
// the solve benchmark's three requests (rumorbench/requests.go) through
// ExecuteRequest on the built-in Digg2009 scenario, with a no-op progress
// hook as rumord runs every job: each type's per-request cost, without the
// service around it. The seed varies per op, as the benchmark's does; only
// the abm job reads it.
func BenchmarkODERequest(b *testing.B)  { benchRequest(b, JobODE, versionODEParams) }
func BenchmarkABMRequest(b *testing.B)  { benchRequest(b, JobABM, versionABMParams) }
func BenchmarkFBSMRequest(b *testing.B) { benchRequest(b, JobFBSM, versionFBSMParams) }

func benchRequest(b *testing.B, typ JobType, p Params) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	sc, err := s.Scenario(BuiltinScenario)
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Type: typ, Params: p}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Params.Seed = int64(i + 1)
		if _, err := ExecuteRequest(context.Background(), sc, req, 1, func(obs.Event) {}); err != nil {
			b.Fatal(err)
		}
	}
}
