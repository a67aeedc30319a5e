package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rumornet/internal/cli"
)

// syncBuffer serializes writes: the daemon's structured logger writes from
// worker goroutines while run() writes its own lifecycle lines, and the
// test reads the result.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"help", []string{"-h"}, 0},
		{"unknown flag", []string{"-nope"}, 2},
		{"positional args", []string{"extra"}, 2},
		{"negative workers", []string{"-workers", "-1"}, 2},
		{"negative inner workers", []string{"-inner-workers", "-1"}, 2},
		{"zero queue", []string{"-queue", "0"}, 2},
		{"zero timeout", []string{"-timeout", "0s"}, 2},
		{"timeout above cap", []string{"-timeout", "20m", "-max-timeout", "10m"}, 2},
		{"negative drain grace", []string{"-drain-grace", "-1s"}, 2},
		{"unparseable address", []string{"-addr", "999.999.999.999:1"}, 1},
		{"bad log level", []string{"-log-level", "loud"}, 2},
		{"bad log format", []string{"-log-format", "yaml"}, 2},
		{"negative progress log every", []string{"-progress-log-every", "-1"}, 2},
		{"zero journal", []string{"-journal", "0"}, 2},
		{"zero sse heartbeat", []string{"-sse-heartbeat", "0s"}, 2},
		{"negative journal max bytes", []string{"-journal-max-bytes", "-1"}, 2},
		{"negative store max bytes", []string{"-store-max-bytes", "-1"}, 2},
		{"bad wal sync", []string{"-wal-sync", "sometimes"}, 2},
		{"unknown mode", []string{"-mode", "leader"}, 2},
		{"worker without coordinator", []string{"-mode", "worker"}, 2},
		{"coordinator flag outside worker mode", []string{"-coordinator", "http://localhost:8080"}, 2},
		{"zero lease ttl", []string{"-mode", "coordinator", "-lease-ttl", "0s"}, 2},
		{"zero max attempts", []string{"-mode", "coordinator", "-max-attempts", "0"}, 2},
		{"negative worker liveness", []string{"-mode", "coordinator", "-worker-liveness", "-1s"}, 2},
		{"negative heartbeat", []string{"-mode", "worker", "-coordinator", "http://h", "-heartbeat", "-1s"}, 2},
		{"zero poll min", []string{"-mode", "worker", "-coordinator", "http://h", "-poll-min", "0s"}, 2},
		{"poll max below poll min", []string{"-mode", "worker", "-coordinator", "http://h", "-poll-min", "1s", "-poll-max", "10ms"}, 2},
		{"unwritable data dir", []string{"-addr", "127.0.0.1:0", "-data-dir", "/proc/no-such/data"}, 1},
		{"unwritable journal file", []string{"-addr", "127.0.0.1:0", "-journal-file", "/no/such/dir/journal.jsonl"}, 1},
		{"unparseable debug address", []string{"-addr", "127.0.0.1:0", "-debug-addr", "999.999.999.999:1"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, io.Discard, nil)
			if got := cli.Code(err); got != tc.code {
				t.Errorf("run(%v): exit code %d (err %v), want %d", tc.args, got, err, tc.code)
			}
		})
	}
}

// TestDaemonLifecycle boots the daemon on an ephemeral port, performs a
// submit→poll round trip over real TCP, then stops it via context
// cancellation (the same path SIGTERM takes) and checks the graceful exit.
func TestDaemonLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	var out syncBuffer
	journalFile := filepath.Join(t.TempDir(), "journal.jsonl")
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
			"-workers", "2", "-drain-grace", "10s", "-log-format", "json", "-log-level", "debug",
			"-journal-file", journalFile},
			&out, func(a net.Addr) { addrCh <- a })
	}()

	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-errCh:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}

	// Register a small scenario and run one job end to end.
	post := func(path, body string) (int, []byte) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	if code, raw := post("/v1/scenarios", `{"name":"tiny","degrees":[2,4,8],"probs":[0.5,0.3,0.2]}`); code != http.StatusCreated {
		t.Fatalf("register scenario: %d %s", code, raw)
	}
	code, raw := post("/v1/jobs", `{"type":"threshold","scenario":"tiny"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for job.Status != "succeeded" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q (%s)", job.Status, job.Error)
		}
		if job.Status == "failed" || job.Status == "cancelled" {
			t.Fatalf("job %s: %s", job.Status, job.Error)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
	}

	// The API listener exposes Prometheus metrics that now reflect the job.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `rumor_jobs_finished_total{status="succeeded"} 1`) {
		t.Errorf("/metrics missing finished-job count:\n%s", metrics)
	}

	// The -debug-addr listener (parsed from the startup line, since it binds
	// an ephemeral port too) serves pprof and a /metrics mirror.
	dbase := ""
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "rumord: debug listener on "); ok {
			dbase = "http://" + rest[:strings.Index(rest, " ")]
		}
	}
	if dbase == "" {
		t.Fatalf("no debug-listener line in output:\n%s", out.String())
	}
	for _, path := range []string{"/debug/pprof/cmdline", "/metrics", "/debug/events"} {
		resp, err := http.Get(dbase + path)
		if err != nil {
			t.Fatalf("debug %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("debug %s: status %d", path, resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// -journal-file mirrored the job's flight-recorder entries as JSON lines.
	if raw, err := os.ReadFile(journalFile); err != nil {
		t.Errorf("journal file: %v", err)
	} else if s := string(raw); !strings.Contains(s, `"queued"`) || !strings.Contains(s, "finished: succeeded") {
		t.Errorf("journal file missing lifecycle entries:\n%s", s)
	}
	logged := out.String()
	for _, want := range []string{"listening on", "bye", `"msg":"job started"`, `"msg":"job finished"`} {
		if !strings.Contains(logged, want) {
			t.Errorf("daemon output missing %q:\n%s", want, logged)
		}
	}
}

// bootDaemon starts run() with the given extra args on an ephemeral port and
// returns the base URL, the error channel, and the cancel that triggers the
// graceful-shutdown path.
func bootDaemon(t *testing.T, extra ...string) (string, chan error, context.CancelFunc) {
	t.Helper()
	return bootDaemonTo(t, io.Discard, extra...)
}

// bootDaemonTo is bootDaemon with the daemon's output sent to out.
func bootDaemonTo(t *testing.T, out io.Writer, extra ...string) (string, chan error, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-drain-grace", "10s"}, extra...)
	go func() {
		errCh <- run(ctx, args, out, func(a net.Addr) { addrCh <- a })
	}()
	select {
	case a := <-addrCh:
		return "http://" + a.String(), errCh, cancel
	case err := <-errCh:
		cancel()
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return "", nil, nil
}

// TestDaemonPersistenceRestart runs the durable-store path through the real
// binary wiring: a daemon with -data-dir completes a job, shuts down
// gracefully, and a second daemon over the same directory answers the same
// request synchronously (HTTP 200, cache_hit) from the recovered store.
func TestDaemonPersistenceRestart(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	const jobReq = `{"type":"threshold","params":{"lambda0":0.02}}`

	post := func(base, path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	stop := func(errCh chan error, cancel context.CancelFunc) {
		t.Helper()
		cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}

	base, errCh, cancel := bootDaemon(t, "-data-dir", dataDir, "-wal-sync", "none")
	code, raw := post(base, "/v1/jobs", jobReq)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	var job struct {
		ID       string `json:"id"`
		Status   string `json:"status"`
		Error    string `json:"error"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for job.Status != "succeeded" {
		if time.Now().After(deadline) || job.Status == "failed" {
			t.Fatalf("job stuck in %q (%s)", job.Status, job.Error)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
	}
	stop(errCh, cancel)

	base2, errCh2, cancel2 := bootDaemon(t, "-data-dir", dataDir, "-wal-sync", "none")
	code, raw = post(base2, "/v1/jobs", jobReq)
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	// 200, not 202: the handler reports terminal submissions as complete, and
	// the recovered store answers this one without recomputing.
	if code != http.StatusOK || !job.CacheHit || job.Status != "succeeded" {
		t.Fatalf("resubmit after restart: %d cache_hit=%v status=%s (%s), want 200 + cache hit",
			code, job.CacheHit, job.Status, raw)
	}

	// The stats surface confirms the store is live and recovered the result.
	resp, err := http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	statsRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Store *struct {
			RecoveredResults int64 `json:"recovered_results"`
		} `json:"store"`
	}
	if err := json.Unmarshal(statsRaw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil || stats.Store.RecoveredResults < 1 {
		t.Errorf("stats store section = %s, want recovered_results >= 1", statsRaw)
	}
	stop(errCh2, cancel2)
}

// TestJournalRotation forces the -journal-file sink over a tiny
// -journal-max-bytes so the daemon rotates it to .1 mid-run.
func TestJournalRotation(t *testing.T) {
	journalFile := filepath.Join(t.TempDir(), "journal.jsonl")
	base, errCh, cancel := bootDaemon(t,
		"-journal-file", journalFile, "-journal-max-bytes", "512", "-workers", "2")
	defer cancel()

	post := func(body string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Each job mirrors several journal lines; a handful blows past 512 bytes.
	for seed := 1; seed <= 8; seed++ {
		post(fmt.Sprintf(`{"type":"threshold","params":{"lambda0":0.02,"seed":%d}}`, seed))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(journalFile + ".1"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never rotated to .1")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	cur, err := os.ReadFile(journalFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) > 512+256 {
		t.Errorf("active journal grew to %d bytes despite the 512-byte cap", len(cur))
	}
}

// TestClusterLifecycle boots a coordinator and a worker through the real
// CLI wiring: the coordinator serves the public API without local execution,
// the worker leases the job over the internal API and uploads the result,
// and both drain gracefully on context cancellation (the SIGTERM path).
func TestClusterLifecycle(t *testing.T) {
	base, errCh, cancel := bootDaemon(t, "-mode", "coordinator", "-lease-ttl", "2s")
	defer cancel()

	// With no worker yet, a queued job must flip readiness to degraded.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"type":"threshold","params":{"lambda0":0.02}}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
		Worker string `json:"worker"`
	}
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	if resp, err = http.Get(base + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz with queued work and no workers: %d, want 503", resp.StatusCode)
	}

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	wErr := make(chan error, 1)
	go func() {
		wErr <- run(wctx, []string{"-mode", "worker", "-coordinator", base,
			"-worker-id", "w-cli", "-poll-min", "5ms", "-poll-max", "50ms"},
			io.Discard, nil)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for job.Status != "succeeded" {
		if time.Now().After(deadline) || job.Status == "failed" || job.Status == "cancelled" {
			t.Fatalf("job stuck in %q (%s)", job.Status, job.Error)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
	}
	if job.Worker != "w-cli" {
		t.Errorf("completed job carries worker %q, want %q", job.Worker, "w-cli")
	}

	// The registry lists the live worker, and readiness has recovered.
	if resp, err = http.Get(base + "/v1/workers"); err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var reg struct {
		Count   int `json:"count"`
		Workers []struct {
			ID            string `json:"id"`
			Live          bool   `json:"live"`
			JobsCompleted int64  `json:"jobs_completed"`
		} `json:"workers"`
	}
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Count != 1 || reg.Workers[0].ID != "w-cli" || !reg.Workers[0].Live || reg.Workers[0].JobsCompleted != 1 {
		t.Errorf("worker registry = %s, want one live w-cli with 1 completed job", raw)
	}
	if resp, err = http.Get(base + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz with a live worker: %d, want 200", resp.StatusCode)
	}

	wcancel()
	select {
	case err := <-wErr:
		if err != nil {
			t.Fatalf("worker shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not shut down")
	}
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("coordinator shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
}

func TestListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = run(context.Background(), []string{"-addr", ln.Addr().String()}, io.Discard, nil)
	if err == nil || cli.Code(err) != 1 {
		t.Fatalf("bind to occupied port: err %v, want runtime failure", err)
	}
}

// TestInnerWorkersZeroMeansAllCPUs pins "-inner-workers 0: all CPUs" in
// every mode: standalone and coordinator log the resolved fan-out in their
// JSON "service started" record, and a worker prints it on startup. The
// worker's -debug-addr listener serves pprof and its own /metrics but no
// /debug/events (a worker keeps no flight recorder).
func TestInnerWorkersZeroMeansAllCPUs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	want := runtime.GOMAXPROCS(0)
	var coordinator string
	for _, mode := range []string{"standalone", "coordinator"} {
		var out syncBuffer
		base, errCh, cancel := bootDaemonTo(t, &out, "-mode", mode, "-inner-workers", "0", "-log-format", "json")
		defer func() {
			cancel()
			if err := <-errCh; err != nil {
				t.Errorf("%s: shutdown: %v", mode, err)
			}
		}()
		if mode == "coordinator" {
			coordinator = base
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			rec := struct {
				Msg          string `json:"msg"`
				InnerWorkers int    `json:"inner_workers"`
			}{InnerWorkers: -1}
			if json.Unmarshal([]byte(line), &rec) != nil || rec.Msg != "service started" {
				continue
			}
			found = true
			if rec.InnerWorkers != want {
				t.Errorf("%s: service started with inner_workers %v, want %d (GOMAXPROCS)", mode, rec.InnerWorkers, want)
			}
		}
		if !found {
			t.Errorf("%s: no \"service started\" record in:\n%s", mode, out.String())
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	started := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-mode", "worker", "-coordinator", coordinator, "-inner-workers", "0",
			"-debug-addr", "127.0.0.1:0", "-poll-min", "5ms", "-poll-max", "50ms"},
			&out, func(net.Addr) { close(started) })
	}()
	defer func() {
		cancel()
		if err := <-errCh; err != nil {
			t.Errorf("worker: shutdown: %v", err)
		}
	}()
	select {
	case <-started:
	case err := <-errCh:
		t.Fatalf("worker exited before starting: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("worker never started")
	}
	logged := out.String()
	if wantLine := fmt.Sprintf("(inner-workers %d)", want); !strings.Contains(logged, wantLine) {
		t.Errorf("worker output missing %q:\n%s", wantLine, logged)
	}
	var debugAddr string
	i := strings.Index(logged, "debug listener on ")
	if i < 0 {
		t.Fatalf("worker debug listener address not printed:\n%s", logged)
	}
	if _, err := fmt.Sscanf(logged[i:], "debug listener on %s", &debugAddr); err != nil {
		t.Fatalf("worker debug listener address not printed: %v\n%s", err, logged)
	}
	for path, code := range map[string]int{
		"/metrics":             http.StatusOK,
		"/debug/pprof/cmdline": http.StatusOK,
		"/debug/events":        http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + debugAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("worker debug %s: status %d, want %d", path, resp.StatusCode, code)
		}
	}
}
