package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rumornet/internal/obs"
	"rumornet/internal/obs/trace"
)

// Handler returns the service's JSON API:
//
//	GET    /healthz              — liveness (200 while the process runs)
//	GET    /readyz               — readiness (503 once draining)
//	GET    /metrics              — Prometheus text exposition
//	GET    /v1/stats             — queue depth, cache hit rate, latency
//	GET    /v1/scenarios         — list registered scenarios
//	POST   /v1/scenarios         — register an uploaded P(k) table
//	GET    /v1/scenarios/{name}  — one scenario's summary
//	GET    /v1/jobs              — bounded newest-first job index
//	                               (?limit=N&status=queued|running|...)
//	POST   /v1/jobs              — submit a job (202 + snapshot)
//	GET    /v1/jobs/{id}         — poll a job; result inline when done
//	GET    /v1/jobs/{id}/events  — replay the job's flight recorder, then
//	                               stream live events over SSE (?follow=0
//	                               for replay only)
//	DELETE /v1/jobs/{id}         — cancel a job
//	POST   /v1/surfaces          — build (or reload) a response surface
//	                               from a sweep spec (202 while building)
//	GET    /v1/surfaces          — list resident surfaces and their status
//	GET/POST /v1/query           — interpolated answer from a covering
//	                               surface (microseconds, with error bound),
//	                               falling back to an exact interactive job
//
// Every route runs behind the telemetry middleware: a request id (client
// X-Request-Id or generated) is echoed back, attached to the
// context logger, and the request is counted and timed in the metrics
// registry.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
			return
		}
		if reasons := s.DegradedReasons(); len(reasons) > 0 {
			// Degraded instances must not receive more submit traffic; load
			// balancers key off the 503 alone, while the body enumerates
			// every reason (no live workers, store errors, ...) for the
			// operator paged to find out why the instance dropped out.
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"status": "degraded", "reasons": reasons})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"scenarios": s.Scenarios()})
	})
	mux.HandleFunc("POST /v1/scenarios", s.handleRegisterScenario)
	mux.HandleFunc("GET /v1/scenarios/{name}", func(w http.ResponseWriter, r *http.Request) {
		sc, err := s.Scenario(r.PathValue("name"))
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, sc)
	})
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		ws := s.Workers()
		writeJSON(w, http.StatusOK, map[string]any{"workers": ws, "count": len(ws)})
	})
	if s.cfg.Cluster.Enabled {
		s.clusterRoutes(mux)
	}
	mux.HandleFunc("POST /v1/surfaces", s.handleBuildSurface)
	mux.HandleFunc("GET /v1/surfaces", s.handleSurfaceIndex)
	mux.HandleFunc("GET /v1/query", s.handleQueryGet)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/jobs", s.handleJobIndex)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("job %q not found", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	return s.telemetry(mux)
}

// handleMetrics serves GET /metrics: the service's own registry followed by
// the cluster telemetry re-export — each worker's relayed snapshot under
// rumor_worker_*{worker="..."} and the fleet aggregate under rumor_fleet_*.
// Standalone services have no snapshots and render exactly the registry.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.met.reg.WritePrometheus(w); err != nil {
		return // client went away mid-scrape
	}
	s.writeWorkerMetrics(w)
}

// MetricsHandler returns just the Prometheus exposition endpoint (including
// the cluster re-export), without the API routes or telemetry middleware.
// rumord mounts it on the opt-in -debug-addr listener so an operator can
// scrape a daemon whose API port is firewalled off.
func (s *Service) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}

// telemetry wraps the API mux with request-id and trace propagation,
// request logging and HTTP metrics. The request id is the client's
// X-Request-Id when given (so a caller can correlate across services) or
// generated; either way it is echoed in the response and attached to the
// context logger that handlers and the job runner retrieve via
// obs.LoggerFromContext. A W3C traceparent header, when present, parents
// the per-request span (and through it the job span a submission opens);
// either way the request's own traceparent is echoed in the response so
// un-instrumented clients can still grab the trace id.
func (s *Service) telemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = fmt.Sprintf("r-%06d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", rid)

		parent, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
		span := s.tracer.StartSpan("http.request", parent,
			obs.L("method", r.Method), obs.L("path", r.URL.Path),
			obs.L("request_id", rid))
		sc := span.Context()
		w.Header().Set("traceparent", sc.Traceparent())

		lg := s.cfg.Logger.With("request_id", rid, "trace_id", sc.TraceID.String())
		ctx := obs.ContextWithLogger(r.Context(), lg)
		ctx = trace.ContextWithSpanContext(ctx, sc)
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)

		elapsed := time.Since(start)
		span.SetAttr("status", httpCodeLabel(sw.code))
		span.End()
		s.met.httpObserve(r.Method, sw.code, elapsed)
		lg.Debug("http request",
			"method", r.Method, "path", r.URL.Path, "status", sw.code,
			"elapsed_ms", float64(elapsed)/float64(time.Millisecond))
	})
}

// statusWriter captures the response code for the telemetry middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so the SSE handler can stream
// through the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// scenarioUpload is the body of POST /v1/scenarios.
type scenarioUpload struct {
	Name    string    `json:"name"`
	Degrees []int     `json:"degrees"`
	Probs   []float64 `json:"probs"`
}

func (s *Service) handleRegisterScenario(w http.ResponseWriter, r *http.Request) {
	var up scenarioUpload
	if err := decodeBody(r, &up); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sc, err := s.RegisterScenario(up.Name, up.Degrees, up.Probs)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, sc)
}

// Bounds of the GET /v1/jobs index: the default page and the hard cap a
// client may raise it to (MaxJobs can retain thousands of records; the
// index stays one bounded response either way).
const (
	defaultJobIndexLimit = 100
	maxJobIndexLimit     = 1000
)

// handleJobIndex serves GET /v1/jobs: up to ?limit= retained jobs (default
// 100, capped at 1000), newest submission first, optionally filtered by
// ?status=. "total" counts every retained job matching the filter, so
// clients can tell a full page from the full set.
func (s *Service) handleJobIndex(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := defaultJobIndexLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("limit %q must be a positive integer", v))
			return
		}
		limit = n
	}
	if limit > maxJobIndexLimit {
		limit = maxJobIndexLimit
	}
	status := Status(q.Get("status"))
	if status != "" && !validStatus(status) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("status %q unknown (want queued, running, succeeded, failed or cancelled)", status))
		return
	}
	jobs, total := s.JobIndex(limit, status)
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs": jobs, "count": len(jobs), "total": total,
	})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.SubmitCtx(r.Context(), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	// A cache hit is already complete; report 200 so clients can skip the
	// poll loop entirely.
	code := http.StatusAccepted
	if job.Status.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, job)
}

// decodeBody strictly decodes a JSON body, rejecting unknown fields so
// typos like "epsmax" fail loudly instead of silently using defaults.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<22)) // 4 MiB
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decode request body: %w", err)
	}
	return nil
}

// writeServiceError maps the package's sentinel errors onto HTTP statuses.
func writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, errDuplicate), errors.Is(err, ErrStaleLease):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining), errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing more we can do than drop the conn.
		return
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
