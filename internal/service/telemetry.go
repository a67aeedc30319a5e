package service

import (
	"io"
	"sort"
	"strings"

	"rumornet/internal/cluster"
	"rumornet/internal/obs"
)

// This file is the node half of the cluster telemetry relay (DESIGN.md
// §13). A lease relays one job-scoped record, its progress events, from
// which the attempt's sink derives the job's progress, journal and stage
// spans on every path (relayEvents, progressSink). What a worker relays
// about itself is one record too, its registry snapshot, riding the
// requests it already makes (lease polls, heartbeats and result uploads):
// stored per worker, re-exported on GET /metrics as
// rumor_worker_*{worker="..."} plus rumor_fleet_* aggregates, and read for
// the worker's health sample on GET /v1/workers.

// storeWorkerTelemetry records a worker's relayed registry snapshot.
func (s *Service) storeWorkerTelemetry(workerID string, snap obs.Snapshot) {
	if workerID == "" || len(snap) == 0 {
		return
	}
	s.telMu.Lock()
	if s.workerSnaps == nil {
		s.workerSnaps = make(map[string]obs.Snapshot)
	}
	s.workerSnaps[workerID] = snap
	s.telMu.Unlock()
}

// workerTelemetry reads a worker's health sample off its registry
// snapshot; stage is what the coordinator's job table says it runs.
func workerTelemetry(snap obs.Snapshot, stage string) *cluster.Telemetry {
	tel := &cluster.Telemetry{Stage: stage}
	for _, f := range snap {
		v := f.Total()
		switch f.Name {
		case "rumor_invariant_violations_total":
			tel.InvariantViolations = int64(v)
		case "rumor_jobs_executed_total":
			tel.JobsExecuted = int64(v)
		case "rumor_runtime_goroutines":
			tel.Goroutines = int(v)
		case "rumor_runtime_gomaxprocs":
			tel.GOMAXPROCS = int(v)
		case "rumor_runtime_heap_alloc_bytes":
			tel.HeapAllocBytes = uint64(v)
		case "rumor_runtime_gc_pause_seconds_total":
			tel.GCPauseSecondsTotal = v
		case "rumor_uptime_seconds":
			tel.UptimeSeconds = v
		}
	}
	return tel
}

// dropWorkerTelemetry forgets a worker's relayed snapshot — the deregister
// path, so a drained node's series age out of /metrics with it.
func (s *Service) dropWorkerTelemetry(workerID string) {
	s.telMu.Lock()
	delete(s.workerSnaps, workerID)
	s.telMu.Unlock()
}

// renameWorkerMetric maps a worker-registry family name onto the
// coordinator's re-export namespace: rumor_X → rumor_worker_X. The worker
// label distinguishes nodes; the rename keeps the series disjoint from the
// coordinator's own rumor_* families on the shared /metrics page.
func renameWorkerMetric(name string) string {
	return "rumor_worker_" + strings.TrimPrefix(name, "rumor_")
}

// renameFleetMetric maps onto the cluster-aggregate namespace:
// rumor_X → rumor_fleet_X.
func renameFleetMetric(name string) string {
	return "rumor_fleet_" + strings.TrimPrefix(name, "rumor_")
}

// writeWorkerMetrics renders the relayed per-worker snapshots after the
// coordinator's own registry on /metrics:
//
//   - each worker's families, renamed rumor_worker_* and labelled with its
//     id (all workers merged first, so HELP/TYPE appear once per family);
//   - the fleet aggregate, renamed rumor_fleet_*: counters and gauges
//     summed, histograms merged losslessly across workers.
//
// Standalone services (no snapshots) write nothing.
func (s *Service) writeWorkerMetrics(w io.Writer) error {
	s.telMu.Lock()
	ids := make([]string, 0, len(s.workerSnaps))
	for id := range s.workerSnaps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	labelled := make([]obs.Snapshot, 0, len(ids))
	raw := make([]obs.Snapshot, 0, len(ids))
	for _, id := range ids {
		snap := s.workerSnaps[id]
		labelled = append(labelled, snap.WithLabel(obs.L("worker", id)))
		raw = append(raw, snap)
	}
	s.telMu.Unlock()
	if len(raw) == 0 {
		return nil
	}
	perWorker := obs.MergeSnapshots(labelled...)
	if err := perWorker.WritePrometheus(w, renameWorkerMetric); err != nil {
		return err
	}
	fleet := obs.MergeSnapshots(raw...)
	return fleet.WritePrometheus(w, renameFleetMetric)
}
