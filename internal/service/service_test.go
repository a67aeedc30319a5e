package service

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// tinyScenario registers a 3-group degree table that keeps jobs cheap.
func tinyScenario(t *testing.T, s *Service) *Scenario {
	t.Helper()
	sc, err := s.RegisterScenario("tiny", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitTerminal polls until the job settles; jobs in these tests finish in
// milliseconds, so the deadline only guards against hangs.
func waitTerminal(t *testing.T, s *Service, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if job.Status.Terminal() {
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return Job{}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers < 1 || c.InnerWorkers != 1 || c.QueueDepth != 64 {
		t.Errorf("worker/queue defaults wrong: %+v", c)
	}
	if c.CacheEntries != 256 {
		t.Errorf("CacheEntries default = %d, want 256", c.CacheEntries)
	}
	if got := (Config{CacheEntries: -1}).withDefaults().CacheEntries; got != 0 {
		t.Errorf("CacheEntries(-1) = %d, want 0 (disabled)", got)
	}
	if err := (Config{DefaultTimeout: time.Hour, MaxTimeout: time.Minute}).withDefaults().validate(); err == nil {
		t.Error("default timeout above max: want error")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.put("a", json.RawMessage(`1`))
	c.put("b", json.RawMessage(`2`))
	if _, ok := c.get("a"); !ok { // a becomes MRU
		t.Fatal("a missing")
	}
	c.put("c", json.RawMessage(`3`)) // evicts b (LRU)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.get("a"); !ok || string(v) != `1` {
		t.Errorf("a = %s, %v; want 1, true", v, ok)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}

	off := newResultCache(0)
	off.put("x", json.RawMessage(`9`))
	if _, ok := off.get("x"); ok || off.len() != 0 {
		t.Error("disabled cache stored an entry")
	}
}

// TestCacheKeyCanonicalization: omitting a parameter and spelling out its
// default must land on the same cache entry; changing any parameter or the
// scenario must not.
func TestCacheKeyCanonicalization(t *testing.T) {
	omitted := Params{}.WithDefaults(JobODE)
	explicit := Params{Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, Lambda0: 0.001,
		I0: 0.1, Tf: 150, Points: 500, Seed: 1}.WithDefaults(JobODE)
	if cacheKey(JobODE, "fp", omitted) != cacheKey(JobODE, "fp", explicit) {
		t.Error("explicit defaults and omitted fields should share a cache key")
	}
	perturbed := omitted
	perturbed.Tf = 151
	if cacheKey(JobODE, "fp", omitted) == cacheKey(JobODE, "fp", perturbed) {
		t.Error("different tf should change the cache key")
	}
	if cacheKey(JobODE, "fp", omitted) == cacheKey(JobThreshold, "fp", omitted) {
		t.Error("different job type should change the cache key")
	}
	if cacheKey(JobODE, "fp", omitted) == cacheKey(JobODE, "fp2", omitted) {
		t.Error("different scenario fingerprint should change the cache key")
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		typ  JobType
		mut  func(*Params)
		ok   bool
	}{
		{"ode defaults", JobODE, func(p *Params) {}, true},
		{"negative alpha", JobODE, func(p *Params) { p.Alpha = -1 }, false},
		{"negative tf", JobODE, func(p *Params) { p.Tf = -3 }, false},
		{"i0 too big", JobODE, func(p *Params) { p.I0 = 2 }, false},
		{"one point", JobODE, func(p *Params) { p.Points = 1 }, false},
		{"abm needs trials", JobABM, func(p *Params) {}, false},
		{"abm ok", JobABM, func(p *Params) { p.Trials = 2 }, true},
		{"abm tiny graph", JobABM, func(p *Params) { p.Trials = 1; p.Nodes = 1 }, false},
		{"fbsm defaults", JobFBSM, func(p *Params) {}, true},
		{"fbsm negative target", JobFBSM, func(p *Params) { p.Target = -1 }, false},
		{"fbsm eps_max one", JobFBSM, func(p *Params) { p.EpsMax = 1 }, true},
		{"fbsm eps_max above one", JobFBSM, func(p *Params) { p.EpsMax = 1.5 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{}
			tc.mut(&p)
			p = p.WithDefaults(tc.typ)
			tc.mut(&p) // reapply so defaults don't paper over the mutation
			err := p.Validate(tc.typ)
			if (err == nil) != tc.ok {
				t.Errorf("validate(%s, %+v) = %v, want ok=%v", tc.typ, p, err, tc.ok)
			}
		})
	}
}

func TestScenarioRegistry(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	if _, err := s.Scenario(BuiltinScenario); err != nil {
		t.Fatalf("built-in scenario missing: %v", err)
	}
	sc := tinyScenario(t, s)
	if sc.Groups != 3 || sc.MinDegree != 2 || sc.MaxDegree != 8 {
		t.Errorf("tiny scenario summary wrong: %+v", sc)
	}
	if len(sc.Fingerprint) != 64 {
		t.Errorf("fingerprint %q is not a sha256 hex digest", sc.Fingerprint)
	}

	if _, err := s.RegisterScenario("tiny", []int{1}, []float64{1}); !errors.Is(err, errDuplicate) {
		t.Errorf("duplicate name: got %v, want errDuplicate", err)
	}
	if _, err := s.RegisterScenario("bad name!", []int{1}, []float64{1}); err == nil {
		t.Error("invalid name accepted")
	}
	if _, err := s.RegisterScenario("negprob", []int{1, 2}, []float64{0.5, -0.5}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative probability: got %v, want ErrBadRequest", err)
	}

	// Same table registered under a different name shares the fingerprint
	// (and therefore the cache namespace).
	sc2, err := s.RegisterScenario("tiny2", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Fingerprint != sc.Fingerprint {
		t.Error("identical tables should share a fingerprint")
	}

	names := make([]string, 0, 3)
	for _, got := range s.Scenarios() {
		names = append(names, got.Name)
	}
	if strings.Join(names, ",") != "digg2009,tiny,tiny2" {
		t.Errorf("Scenarios() = %v, want sorted [digg2009 tiny tiny2]", names)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown type", Request{Type: "quantum"}},
		{"unknown scenario", Request{Type: JobODE, Scenario: "nope"}},
		{"bad params", Request{Type: JobODE, Params: Params{Tf: -1}}},
		{"negative timeout", Request{Type: JobODE, TimeoutSec: -2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Submit(tc.req); !errors.Is(err, ErrBadRequest) {
				t.Errorf("Submit = %v, want ErrBadRequest", err)
			}
		})
	}
	st := s.Stats()
	if st.Jobs.Submitted != 0 {
		t.Errorf("rejected submissions counted as submitted: %+v", st.Jobs)
	}
}

// TestThresholdJobAndCache drives the whole engine without HTTP: a
// threshold job on the tiny scenario succeeds, and an identical second
// submission completes synchronously from the cache.
func TestThresholdJobAndCache(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	tinyScenario(t, s)
	req := Request{Type: JobThreshold, Scenario: "tiny", Params: Params{Lambda0: 0.02, Tf: 30}}

	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "j-000001" || job.CacheHit {
		t.Errorf("first submission: %+v", job)
	}
	done := waitTerminal(t, s, job.ID)
	if done.Status != StatusSucceeded {
		t.Fatalf("job failed: %s", done.Error)
	}
	var res ThresholdResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.R0 <= 0 || res.Verdict == "" {
		t.Errorf("threshold result looks empty: %+v", res)
	}

	again, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Status != StatusSucceeded {
		t.Fatalf("second submission should be a synchronous cache hit: %+v", again)
	}
	if string(again.Result) != string(done.Result) {
		t.Error("cached result differs from the original")
	}
	st := s.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.HitRate != 0.5 {
		t.Errorf("cache stats: %+v", st.Cache)
	}
	if st.Jobs.Submitted != 2 || st.Jobs.Completed != 2 {
		t.Errorf("job stats: %+v", st.Jobs)
	}
	if ls, ok := st.LatencyMS[string(JobThreshold)]; !ok || ls.Count != 1 {
		t.Errorf("latency should record exactly the one executed job: %+v", st.LatencyMS)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	tinyScenario(t, s)
	job, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Error("Ready() should be false after Drain")
	}
	// The queued job completed during the drain.
	if got, _ := s.Job(job.ID); got.Status != StatusSucceeded {
		t.Errorf("queued job after drain: %+v", got)
	}
	if _, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny", Params: Params{Seed: 9}}); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after drain = %v, want ErrDraining", err)
	}
	if s.Stats().Jobs.Rejected != 1 {
		t.Errorf("rejected counter: %+v", s.Stats().Jobs)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// No workers: submissions stay queued forever, so Cancel hits the
	// queued path deterministically.
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	tinyScenario(t, s)

	// Park the single worker on a long FBSM job, then cancel a queued one.
	slow := Request{Type: JobFBSM, Scenario: "tiny", Params: Params{Grid: 400000, Lambda0: 0.02}}
	parked, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusCancelled {
		t.Errorf("cancel queued: %+v", got)
	}
	// Cancelling again is a no-op returning the settled snapshot.
	if again, err := s.Cancel(queued.ID); err != nil || again.Status != StatusCancelled {
		t.Errorf("re-cancel: %+v, %v", again, err)
	}
	if _, err := s.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown job = %v, want ErrNotFound", err)
	}

	// Unpark: cancel the slow job too, and wait for it to settle so Close
	// does not race the worker.
	if _, err := s.Cancel(parked.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, parked.ID)
	if fin.Status != StatusCancelled && fin.Status != StatusSucceeded {
		t.Errorf("parked job settled as %s (%s)", fin.Status, fin.Error)
	}
}

func TestJobTimeout(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, DefaultTimeout: 20 * time.Millisecond})
	tinyScenario(t, s)
	// A 400k-interval FBSM sweep takes far longer than 20ms.
	job, err := s.Submit(Request{Type: JobFBSM, Scenario: "tiny", Params: Params{Grid: 400000, Lambda0: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s, job.ID)
	if done.Status != StatusFailed || !strings.Contains(done.Error, "timed out") {
		t.Errorf("want timeout failure, got %s (%s)", done.Status, done.Error)
	}
	if s.Stats().Jobs.Failed != 1 {
		t.Errorf("failed counter: %+v", s.Stats().Jobs)
	}
}

func TestJobRetentionEviction(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, MaxJobs: 3})
	tinyScenario(t, s)
	var last Job
	for i := 0; i < 5; i++ {
		job, err := s.Submit(Request{Type: JobThreshold, Scenario: "tiny", Params: Params{Seed: int64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		last = waitTerminal(t, s, job.ID)
	}
	if last.Status != StatusSucceeded {
		t.Fatalf("job failed: %s", last.Error)
	}
	if _, total := s.JobIndex(10, ""); total > 3 {
		t.Errorf("retained %d jobs, want <= 3", total)
	}
	if _, ok := s.Job("j-000001"); ok {
		t.Error("oldest job should have been evicted")
	}
	if _, ok := s.Job(last.ID); !ok {
		t.Error("newest job should be retained")
	}
}
