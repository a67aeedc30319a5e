package service

import (
	"io"
	"sort"
	"strings"

	"rumornet/internal/cluster"
	"rumornet/internal/obs"
	"rumornet/internal/obs/journal"
	"rumornet/internal/obs/trace"
)

// This file is the coordinator side of the cluster telemetry relay
// (DESIGN.md §13). Workers piggyback three kinds of observability payload
// on the requests they already make (heartbeats and result uploads):
//
//   - journal entries: worker-local lifecycle events merged into the job's
//     flight recorder, so GET /v1/jobs/{id}/events replays one complete
//     stream whether the job ran locally or on a node;
//   - finished spans: imported into the coordinator's span ring, so
//     /debug/events shows the coordinator's http.request → job.<type>
//     chain and the worker's stage.* spans as one trace;
//   - a registry snapshot + health sample: stored per worker, re-exported
//     on GET /metrics as rumor_worker_*{worker="..."} plus rumor_fleet_*
//     aggregates, and served on GET /v1/workers.

// Relay bounds: a single heartbeat cannot grow the journal or span ring by
// more than this, no matter what a buggy (or hostile) worker sends. The
// truncation is head-biased for spans (newest kept: the tail of the upload
// is the most recent work) and tail-biased for journal entries (oldest
// kept: replay order stays causal).
const (
	maxRelayJournal = 256
	maxRelaySpans   = 256
)

// mergeWorkerRelay folds a worker's uploaded journal entries and finished
// spans into the coordinator's own observability state. Entry identity is
// restamped server-side — JobID and TraceID are forced to the leased job's
// values and Seq is reallocated by the journal — so a worker can annotate
// only the job it holds a valid lease for (the caller has already fenced
// the token). The Final mark is the coordinator's alone: a relayed one
// would close the job's event streams early.
func (s *Service) mergeWorkerRelay(jobID, traceID string, entries []journal.Entry, spans []trace.SpanData) {
	if len(entries) > maxRelayJournal {
		entries = entries[:maxRelayJournal]
	}
	for _, e := range entries {
		e.JobID = jobID
		e.TraceID = traceID
		e.Seq = 0
		e.Final = false
		s.journal.Append(e)
	}
	if len(spans) > maxRelaySpans {
		spans = spans[len(spans)-maxRelaySpans:]
	}
	s.tracer.Import(spans)
}

// storeWorkerTelemetry records a worker's relayed registry snapshot (for
// the /metrics re-export) and health sample (for GET /v1/workers).
func (s *Service) storeWorkerTelemetry(workerID string, snap obs.Snapshot, tel *cluster.Telemetry) {
	if workerID == "" {
		return
	}
	if len(snap) > 0 {
		s.telMu.Lock()
		if s.workerSnaps == nil {
			s.workerSnaps = make(map[string]obs.Snapshot)
		}
		s.workerSnaps[workerID] = snap
		s.telMu.Unlock()
	}
	if tel != nil {
		s.table.SetTelemetry(workerID, *tel)
	}
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
