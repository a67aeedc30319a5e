#!/bin/sh
# verify.sh — the repository's verification gates (see ROADMAP.md).
#
#   tier 1: gofmt -l . (must print nothing), no direct solver call in
#           non-test cmd/ code, no runtime.ReadMemStats call outside
#           internal/obs/runtime.go, no fuzzer left out of tier 2,
#           go build ./... && go vet ./...
#           && go test ./..., go vet over the rumorbench module, and
#           GOARCH=arm64 go vet ./... for the Go-only kernel path
#   tier 2: go test -race ./..., the concurrent in-list test and the
#           job queue's concurrent lifecycle test under -race -count=10,
#           one iteration of every benchmark, the
#           rumorbench tests under -race, 10s of each decoder and kernel
#           fuzzer, the pinned result digests and the kernel fuzzers
#           (10s each) under GODEBUG=cpu.fma=off, and the full-fidelity
#           check of the FBSM's coarse-grid warm start (-tags fidelity):
#           Fig. 4(a) and the ten Fig. 4(c) horizons solved from the
#           quarter grid's answer and from the constant guess must agree
#           on J within 1e-6 relative, the optimized policy must win on
#           10 of 10 horizons, and it prints the sweeps run on each grid
#
# Tier 2 exists because the worker fan-out (internal/par, internal/abm,
# internal/experiments), the rumord service stack (internal/service job
# queue, result cache, concurrent E2E suite — including the SSE streaming
# tests, which exercise journal fan-out, live subscribers and mid-stream
# cancellation under the detector), the durable store (internal/store:
# WAL appends racing the batched-fsync flusher, concurrent blob Put/Get/GC,
# and the service's crash-recovery E2E) and the lease layer every job runs
# under (internal/cluster's lease table under concurrent
# grant/extend/expire; in-process workers leasing, heartbeating and
# completing against the service; and the crash matrix for remote workers
# in internal/cluster/worker — worker kill mid-job, coordinator restart
# with leased jobs, poison-job exhaustion, both drain directions — and the
# telemetry relay layered on it: the worker's event and snapshot buffers
# racing the heartbeat goroutine, the coordinator's relayed events opening
# stage spans and journal entries while /metrics scrapes and SSE followers
# read, and the rumorctl -follow live tail against a real cluster) and the response-surface tier (internal/service's construction
# fan-out racing Close, interpolated queries racing an in-flight build,
# and the two-class admission queue under concurrent submit/lease/cancel/
# shed/drain)
# must stay data-race free; -race
# roughly 10x-es the runtime, so it is a separate gate. Tier 2 also runs
# every Go benchmark for exactly one iteration — nothing else runs them,
# so they would bit-rot silently. Usage:
#
#   scripts/verify.sh         # tier 1 only
#   scripts/verify.sh -race   # tier 1 + tier 2
set -eu

cd "$(dirname "$0")/.."

echo "== tier 1: format + build + vet + test"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "verify: gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi
# One request path: rumorsim and rumorctl run their solves as service
# requests through service.ExecuteRequest, so no command builds a model, a
# configuration graph or an optimal policy itself. Print every non-test
# line under cmd/ that does.
direct=$(grep -rnE --include='*.go' 'core\.(NewModel|CalibratedModel|CalibrateLambdaScale)|graph\.ConfigurationModel|abm\.MeanRun|control\.Optimize' cmd | grep -v '_test\.go:' || true)
if [ -n "$direct" ]; then
	echo "verify: cmd/ calls a solver outside service.ExecuteRequest:" >&2
	echo "$direct" >&2
	exit 1
fi
# One MemStats sampler: runtime.ReadMemStats stops the world, so the root
# module's only non-test call is the cached sampler behind the Go runtime
# gauges (internal/obs/runtime.go); a worker's health sample is read off
# its registry snapshot. Print every other call. rumorbench is the
# benchmark's own module and samples its own process.
memstats=$(grep -rnE --include='*.go' --exclude-dir=rumorbench --exclude-dir=.git 'runtime\.ReadMemStats\(' . |
	grep -v -e '_test\.go:' -e '^\./internal/obs/runtime\.go:' || true)
if [ -n "$memstats" ]; then
	echo "verify: runtime.ReadMemStats outside internal/obs/runtime.go:" >&2
	echo "$memstats" >&2
	exit 1
fi
# Every fuzzer explored: tier 1 only replays each fuzzer's seeds, so print
# every func Fuzz... in the root module that no tier-2 -fuzz line below
# names.
unexplored=$(grep -rhoE --include='*_test.go' --exclude-dir=rumorbench --exclude-dir=.git '^func Fuzz[A-Za-z0-9_]+' . |
	sed 's/^func //' | sort -u | while read -r fuzzer; do
		grep -qF -- "-fuzz '^$fuzzer\$'" scripts/verify.sh || echo "$fuzzer"
	done)
if [ -n "$unexplored" ]; then
	echo "verify: fuzzers that tier 2 never explores:" >&2
	echo "$unexplored" >&2
	exit 1
fi
go build ./...
go vet ./...
go test ./...
# rumorbench is its own module (its go.mod replaces rumornet with ../), so
# the root ./... never compiles it, yet it calls service.New, Config and
# ExecuteRequest: vet it so an API change that breaks the benchmark fails
# here rather than at benchmark time.
(cd rumorbench && go vet ./...)
# The solver kernels have amd64 AVX bodies; every other architecture
# builds only their Go loops and the stubs beside them. Vet one such
# target, so a body declared for amd64 alone fails here, not on the first
# arm64 build.
GOARCH=arm64 go vet ./...

if [ "${1:-}" = "-race" ]; then
	echo "== tier 2: race + bench smoke"
	go test -race ./...
	# Configuration-model graphs lay out their in-lists on the first read,
	# under a sync.Once; run the test whose 8 goroutines make that first
	# read at once ten times, so a broken guard has ten chances to race.
	go test -race -count=10 -run '^TestConfigurationModelConcurrentInLists$' ./internal/graph
	# The job queue is one FIFO per class under the service lock: race
	# submits, in-process and LeaseNext pops and cancels of queued jobs
	# against Drain and Close ten times; every admitted job must settle
	# exactly once and no goroutine may outlive the service.
	go test -race -count=10 -run '^TestQueueConcurrentLifecycle$' ./internal/service
	go test -run '^$' -bench . -benchtime 1x ./... > /dev/null
	# rumorbench is its own module, so the -race sweep above never reaches
	# it. Its smoke runs each workload BENCHMARK.json gates for a second
	# against an in-process rumord — surface hits, cache-hot submits, cold
	# threshold/ODE/ABM/FBSM jobs — untraced and traced, and checks every
	# answer's bytes against service.ExecuteRequest. Under -race it is the
	# gate that found the registry's first-registration race.
	echo "== tier 2: rumorbench under -race"
	(cd rumorbench && go test -race -count 1 ./...)
	# The decoder fuzzers: arbitrary worker JSON through the coordinator's
	# decode/label/merge/render path against the exposition grammar,
	# split-and-merge HDR streams against one HDR fed the whole stream,
	# arbitrary heartbeat and result bodies against a leased job's
	# fencing, span and journal bounds, client traceparent headers
	# against the W3C shape, result-blob frames against their checksum,
	# surface artifacts (raw and re-framed with a valid CRC) against
	# their own round trip, control-schedule files (rumorctl -load-json)
	# against schedule validation, WAL segments against replay's
	# truncation rules, and edge lists and Digg friends/votes CSVs
	# against their loaders. Tier 1 replays their seeds (f.Add calls and
	# testdata/fuzz) and fails on a fuzzer not listed here; here each
	# explores for 10s. Go fuzzes one target per invocation.
	# -fuzzminimizetime 0 turns off minimizing: by default Go minimizes
	# each new-coverage input for up to 60s, and in 10s runs that left most
	# fuzzers minimizing instead of exploring (FuzzWorkerRelay and
	# FuzzWALReplay ran 9 and 8 execs). A failing input is still reported
	# and written to testdata/fuzz, unminimized; rerun it with the default
	# flags to minimize it.
	echo "== tier 2: decoder fuzzers"
	go test -run '^$' -fuzz '^FuzzSnapshotRelay$' -fuzztime 10s -fuzzminimizetime 0 ./internal/obs
	go test -run '^$' -fuzz '^FuzzHDRMerge$' -fuzztime 10s -fuzzminimizetime 0 ./internal/obs
	go test -run '^$' -fuzz '^FuzzWorkerRelay$' -fuzztime 10s -fuzzminimizetime 0 ./internal/service
	go test -run '^$' -fuzz '^FuzzTraceparent$' -fuzztime 10s -fuzzminimizetime 0 ./internal/obs/trace
	go test -run '^$' -fuzz '^FuzzBlobFrame$' -fuzztime 10s -fuzzminimizetime 0 ./internal/store
	go test -run '^$' -fuzz '^FuzzSurfaceDecode$' -fuzztime 10s -fuzzminimizetime 0 ./internal/surface
	go test -run '^$' -fuzz '^FuzzReadScheduleJSON$' -fuzztime 10s -fuzzminimizetime 0 ./internal/control
	go test -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 10s -fuzzminimizetime 0 ./internal/store
	go test -run '^$' -fuzz '^FuzzReadEdgeList$' -fuzztime 10s -fuzzminimizetime 0 ./internal/graph
	go test -run '^$' -fuzz '^FuzzLoadFriendsCSV$' -fuzztime 10s -fuzzminimizetime 0 ./internal/digg
	go test -run '^$' -fuzz '^FuzzLoadVotesCSV$' -fuzztime 10s -fuzzminimizetime 0 ./internal/digg
	# Go's amd64 math.Exp takes an FMA path on CPUs with FMA, and the
	# quenched ABM's probabilities go through it: the pinned result
	# digests must hold without that path too, as on a CPU without FMA.
	echo "== tier 2: result digests without FMA"
	GODEBUG=cpu.fma=off go test -count=1 -run '^TestResultDigestsPinned$' ./internal/service
	# The kernel fuzzers: each AVX body of the RK4 stage passes (System (1)
	# and its exact co-state) against its Go loop on the same inputs, bit
	# for bit. Tier 1 runs their seed corpus; both skip without AVX. They
	# run a second time without the FMA path, as the digests do above, so
	# the bodies must match their Go loops on a CPU without FMA too.
	echo "== tier 2: kernel fuzzers"
	go test -run '^$' -fuzz '^FuzzStageKernels$' -fuzztime 10s -fuzzminimizetime 0 ./internal/core
	go test -run '^$' -fuzz '^FuzzCostateKernels$' -fuzztime 10s -fuzzminimizetime 0 ./internal/control
	echo "== tier 2: kernel fuzzers without FMA"
	GODEBUG=cpu.fma=off go test -run '^$' -fuzz '^FuzzStageKernels$' -fuzztime 10s -fuzzminimizetime 0 ./internal/core
	GODEBUG=cpu.fma=off go test -run '^$' -fuzz '^FuzzCostateKernels$' -fuzztime 10s -fuzzminimizetime 0 ./internal/control
	# The FBSM solves every grid divisible by 4 on its quarter first and
	# starts from that answer. Tier 1 checks it on the benchmark's small
	# requests; this checks the paper's Fig. 4 at full fidelity (854
	# groups, grid 1000, about 25 s), printing each level's sweep totals.
	echo "== tier 2: FBSM warm start at full fidelity"
	fidelity=$(go test -tags fidelity -count=1 -run '^TestFidelity' -v ./internal/control 2>&1) || {
		echo "$fidelity" >&2
		exit 1
	}
	echo "$fidelity" | grep -E 'sweeps|wins|^ok'
fi

echo "verify: ok"
