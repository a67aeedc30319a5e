package service

import (
	"net/http"
	"testing"
	"time"

	"rumornet/internal/cluster"
)

// TestInProcessWorkers: a standalone service leases every job to its own
// in-process workers. They share the service's life, so idling past the
// liveness window does not make them lost — /readyz stays ready with a job
// queued behind a running one — /v1/workers lists them with the running
// lease's age, and a client cancel stops the running job at once rather
// than at the next heartbeat (an hour's TTL puts that far away).
func TestInProcessWorkers(t *testing.T) {
	e := newE2E(t, Config{Workers: 1, Cluster: ClusterConfig{
		LeaseTTL: time.Hour, WorkerLiveness: 20 * time.Millisecond}})
	time.Sleep(60 * time.Millisecond) // idle past the liveness window

	slow := e.post("/v1/jobs", `{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":120}`, http.StatusAccepted)
	waitRunning(t, e.svc, slow.ID)
	queued := e.post("/v1/jobs", `{"type":"threshold","scenario":"tiny","params":{"lambda0":0.02}}`, http.StatusAccepted)
	time.Sleep(60 * time.Millisecond) // past the window again since the grant

	e.do(http.MethodGet, "/readyz", "", http.StatusOK, nil)
	if reasons := e.svc.DegradedReasons(); len(reasons) != 0 {
		t.Errorf("degraded with an idle in-process worker: %v", reasons)
	}
	var reg struct {
		Count   int                  `json:"count"`
		Workers []cluster.WorkerInfo `json:"workers"`
	}
	e.do(http.MethodGet, "/v1/workers", "", http.StatusOK, &reg)
	if reg.Count != 1 || reg.Workers[0].ID != "local-1" || !reg.Workers[0].Live || reg.Workers[0].LeasesHeld != 1 {
		t.Fatalf("workers = %+v, want one live in-process worker holding the running lease", reg)
	}
	if reg.Workers[0].OldestLeaseAgeMS <= 0 {
		t.Errorf("running in-process lease shows no age: %+v", reg.Workers[0])
	}
	if st := e.svc.Stats(); st.Cluster == nil || st.Cluster.Workers != 1 || st.Cluster.LeasesActive != 1 {
		t.Errorf("cluster stats = %+v, want 1 live worker and 1 active lease", st.Cluster)
	}

	start := time.Now()
	e.do(http.MethodDelete, "/v1/jobs/"+slow.ID, "", http.StatusOK, nil)
	if done := e.wait(slow.ID); done.Status != StatusCancelled || done.Worker != "local-1" {
		t.Errorf("cancelled job = %s on %q, want cancelled on local-1", done.Status, done.Worker)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancel took %s to stop the in-process job", d)
	}
	mustSucceed(t, e.wait(queued.ID))
}
