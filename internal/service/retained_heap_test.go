package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRetainedHeapPerJob bounds what a finished job keeps on the heap.
// It drives cold threshold jobs and cache-hit resubmits of the same
// requests through Handler(), far fewer than MaxJobs and CacheEntries so
// nothing is evicted, and charges the live-heap growth to the jobs. A
// flight-recorder ring preallocated at full depth (256 entries, 45 KB)
// per job fails the bound; rings that hold only the few entries each job
// wrote pass it with room to spare.
func TestRetainedHeapPerJob(t *testing.T) {
	const (
		n           = 150
		maxPerJob   = 16 << 10
		requestBody = `{"type":"threshold","scenario":"tiny","params":{"r0":1.6,"tf":30,"seed":%d}}`
	)
	svc, err := New(Config{Workers: 2, QueueDepth: 2 * n})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	serve := func(method, path, body string) (int, Job) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		var job Job
		if rec.Code < 300 {
			if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
		}
		return rec.Code, job
	}
	if _, err := svc.RegisterScenario("tiny", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2}); err != nil {
		t.Fatal(err)
	}
	wait := func(id string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if _, job := serve(http.MethodGet, "/v1/jobs/"+id, ""); job.Status.Terminal() {
				mustSucceed(t, job)
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("job %s did not settle", id)
	}
	// run submits seeds [from, to) cold, waits for them, then resubmits
	// each once as a cache hit.
	run := func(from, to int) {
		ids := make([]string, 0, to-from)
		for seed := from; seed < to; seed++ {
			code, job := serve(http.MethodPost, "/v1/jobs", fmt.Sprintf(requestBody, seed))
			if code != http.StatusAccepted {
				t.Fatalf("cold submit %d: status %d", seed, code)
			}
			ids = append(ids, job.ID)
		}
		for _, id := range ids {
			wait(id)
		}
		for seed := from; seed < to; seed++ {
			if code, _ := serve(http.MethodPost, "/v1/jobs", fmt.Sprintf(requestBody, seed)); code != http.StatusOK {
				t.Fatalf("resubmit %d: status %d, want a 200 cache hit", seed, code)
			}
		}
	}
	liveHeap := func() uint64 {
		// Two cycles: sync.Pool keeps its victim cache across one.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// A few warm-up jobs register the lazily created metric series and
	// pools, so the measured growth is per job, not per service.
	run(1, 5)
	before := liveHeap()
	run(5, 5+n)
	after := liveHeap()
	runtime.KeepAlive(svc)

	jobs := 2 * n
	perJob := (int64(after) - int64(before)) / int64(jobs)
	t.Logf("retained heap: %d B over %d jobs, %d B per job", int64(after)-int64(before), jobs, perJob)
	if perJob > maxPerJob {
		t.Errorf("each finished job retains %d B of heap, want at most %d", perJob, maxPerJob)
	}
}
