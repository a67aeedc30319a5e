package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rumornet/internal/service"
	"rumornet/internal/store"
)

// The query surface every workload builds in set-up: threshold answers over
// an eps1 x eps2 grid with all other parameters at their defaults (the same
// hull internal/loadgen's query mix targets).
const (
	surfEps1Min, surfEps1Max = 0.10, 0.40
	surfEps2Min, surfEps2Max = 0.02, 0.10
	surfPoints               = 4
)

// hotKeys is the size of the cache-hot ODE set warmed in set-up.
const hotKeys = 8

// pollInterval is the client's GET /v1/jobs/{id} cadence.
const pollInterval = 2 * time.Millisecond

// batchPollInterval is the batch clients' cadence. Each has a second job
// queued (batchWindow), so a later poll costs no throughput, and fewer
// polls leave the processors to the serving path under test.
const batchPollInterval = 20 * time.Millisecond

// rig is one rumord under test — service.New plus Service.Handler() on a
// loopback listener — and the single HTTP client all traffic goes through.
type rig struct {
	svc     *service.Service
	srv     *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	reader  *timedReader
	rstore  *store.Store
	dir     string
	timer   *serverTimer
	surfKey string
	// surfBuild is the wall time from POST /v1/surfaces to ready.
	surfBuild time.Duration
}

// newRig starts a service over a fresh store directory under parent, builds
// the query surface and warms the hot ODE keys: everything setup_s times.
func newRig(parent string, conns int) (*rig, error) {
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	r := &rig{dir: dir, served: make(chan struct{})}
	// The timing reader wraps a second Store over the same directory. It
	// never appends (SyncNone, read-only use) and reads blobs by path, so it
	// sees every result and surface the service's own store writes.
	if r.rstore, err = store.Open(dir, store.Options{SyncMode: store.SyncNone}); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("reader store: %w", err)
	}
	r.reader = &timedReader{inner: r.rstore}
	if r.svc, err = service.New(service.Config{StoreDir: dir, StoreReader: r.reader}); err != nil {
		r.rstore.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.base = "http://" + ln.Addr().String()
	r.timer = &serverTimer{next: r.svc.Handler(), byID: make(map[string]serverSpan)}
	r.srv = &http.Server{Handler: r.timer}
	go func() {
		defer close(r.served)
		r.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	r.client = &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	if err := r.buildSurface(); err != nil {
		r.close()
		return nil, err
	}
	if err := r.warmHot(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) close() {
	if r.srv != nil {
		r.srv.Close()
		<-r.served
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	if r.svc != nil {
		r.svc.Close()
	}
	r.rstore.Close()
	os.RemoveAll(r.dir)
}

func (r *rig) buildSurface() error {
	start := time.Now()
	spec := fmt.Sprintf(`{"type":"threshold","axes":[{"name":"eps1","min":%g,"max":%g,"points":%d},{"name":"eps2","min":%g,"max":%g,"points":%d}]}`,
		surfEps1Min, surfEps1Max, surfPoints, surfEps2Min, surfEps2Max, surfPoints)
	code, raw, err := r.plain(http.MethodPost, "/v1/surfaces", []byte(spec))
	if err != nil {
		return fmt.Errorf("build surface: %w", err)
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return fmt.Errorf("build surface: status %d: %s", code, raw)
	}
	var info struct {
		Key, Status, Error string
	}
	if err := json.Unmarshal(raw, &info); err != nil {
		return fmt.Errorf("build surface: %w", err)
	}
	r.surfKey = info.Key
	for info.Status == "building" {
		time.Sleep(5 * time.Millisecond)
		si, ok := r.svc.Surface(r.surfKey)
		if !ok {
			return fmt.Errorf("surface %s vanished", r.surfKey)
		}
		info.Status, info.Error = si.Status, si.Error
	}
	if info.Status != "ready" {
		return fmt.Errorf("surface build %s: %s", info.Status, info.Error)
	}
	r.surfBuild = time.Since(start)
	return nil
}

// warmHot submits the hot ODE set and waits until every key is cached.
func (r *rig) warmHot() error {
	ids := make([]string, 0, hotKeys)
	for k := 0; k < hotKeys; k++ {
		code, raw, err := r.plain(http.MethodPost, "/v1/jobs", jobBody(hotODE(k)))
		if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
			return fmt.Errorf("warm hot key %d: status %d: %v %s", k, code, err, raw)
		}
		var jv jobView
		if err := json.Unmarshal(raw, &jv); err != nil {
			return fmt.Errorf("warm hot key %d: %w", k, err)
		}
		ids = append(ids, jv.ID)
	}
	for _, id := range ids {
		for {
			job, ok := r.svc.Job(id)
			if !ok {
				return fmt.Errorf("warm job %s vanished", id)
			}
			if job.Status.Terminal() {
				if job.Status != service.StatusSucceeded {
					return fmt.Errorf("warm job %s: %s: %s", id, job.Status, job.Error)
				}
				break
			}
			time.Sleep(pollInterval)
		}
	}
	return nil
}

// plain sends one untimed request (set-up and checks).
func (r *rig) plain(method, path string, body []byte) (int, []byte, error) {
	ex, err := r.send(context.Background(), method, path, body, false)
	if err != nil {
		return 0, nil, err
	}
	return ex.code, ex.body, nil
}

// exchange is one timed HTTP round trip as the client saw it.
type exchange struct {
	code     int
	body     []byte
	start    time.Time     // request handed to the transport
	end      time.Time     // response body fully read
	connWait time.Duration // GetConn -> GotConn (traced only)
	server   serverSpan    // handler interval (traced only)
}

func (e *exchange) rtt() time.Duration { return e.end.Sub(e.start) }

var reqSeq atomic.Int64

// send performs one timed round trip. With traced set, the request carries
// a benchmark request id the server-side timer keys its handler interval
// by, and httptrace measures the wait for one of the capped connections.
func (r *rig) send(ctx context.Context, method, path string, body []byte, traced bool) (*exchange, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	ex := &exchange{}
	var rid string
	if traced {
		rid = "b-" + strconv.FormatInt(reqSeq.Add(1), 10)
		req.Header.Set("X-Request-Id", rid)
		var getConn time.Time
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GetConn: func(string) { getConn = time.Now() },
			GotConn: func(httptrace.GotConnInfo) { ex.connWait = time.Since(getConn) },
		}))
	}
	ex.start = time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	ex.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.end = time.Now()
	if err != nil {
		return nil, err
	}
	ex.code = resp.StatusCode
	if traced {
		ex.server, _ = r.timer.take(rid)
	}
	return ex, nil
}

// serverSpan is the interval one request spent inside Service.Handler().
type serverSpan struct{ start, end time.Time }

// serverTimer wraps Handler() and, while on, records each request's handler
// interval under the client's X-Request-Id. Off, it adds one atomic load.
type serverTimer struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	byID map[string]serverSpan
}

func (t *serverTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, req)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, req)
	end := time.Now()
	if rid := req.Header.Get("X-Request-Id"); rid != "" {
		t.mu.Lock()
		t.byID[rid] = serverSpan{start, end}
		t.mu.Unlock()
	}
}

func (t *serverTimer) take(rid string) (serverSpan, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.byID[rid]
	delete(t.byID, rid)
	return sp, ok
}

// timedReader is the store.Reader injected as Config.StoreReader: it times
// every GetResult (the cache-miss read on the submit path) while on.
type timedReader struct {
	inner store.Reader
	on    atomic.Bool
	mu    sync.Mutex
	gets  []float64 // microseconds
}

func (t *timedReader) GetResult(key string) ([]byte, bool) {
	if !t.on.Load() {
		return t.inner.GetResult(key)
	}
	start := time.Now()
	b, ok := t.inner.GetResult(key)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.gets = append(t.gets, us)
	t.mu.Unlock()
	return b, ok
}

func (t *timedReader) GetSurface(key string) ([]byte, bool) { return t.inner.GetSurface(key) }
func (t *timedReader) SurfaceKeys() []string                { return t.inner.SurfaceKeys() }

func (t *timedReader) drain() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.gets
	t.gets = nil
	return out
}

// jobView is the slice of the job record the client reads back.
type jobView struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	CacheHit    bool            `json:"cache_hit"`
	Error       string          `json:"error"`
	Result      json.RawMessage `json:"result"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at"`
	FinishedAt  *time.Time      `json:"finished_at"`
	Latency     *struct {
		QueueWaitMS float64 `json:"queue_wait_ms"`
		ExecuteMS   float64 `json:"execute_ms"`
		SerializeMS float64 `json:"serialize_ms"`
	} `json:"latency"`
}

func terminal(status string) bool {
	return status == "succeeded" || status == "failed" || status == "cancelled"
}

var errShed = errors.New("shed (503)")
