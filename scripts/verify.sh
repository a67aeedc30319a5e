#!/bin/sh
# verify.sh — the repository's verification gates (see ROADMAP.md).
#
#   tier 1: gofmt -l . (must print nothing), go build ./... && go vet ./...
#           && go test ./..., and go vet over the rumorbench module
#   tier 2: go test -race ./..., one iteration of every
#           benchmark, the rumorbench tests under -race, and 10s of each
#           decoder fuzzer
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
# and the two-class admission queue under concurrent submit/lease/shed)
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
go build ./...
go vet ./...
go test ./...
# rumorbench is its own module (its go.mod replaces rumornet with ../), so
# the root ./... never compiles it, yet it calls service.New, Config and
# ExecuteRequest: vet it so an API change that breaks the benchmark fails
# here rather than at benchmark time.
(cd rumorbench && go vet ./...)

if [ "${1:-}" = "-race" ]; then
	echo "== tier 2: race + bench smoke"
	go test -race ./...
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
	# against the W3C shape, and result-blob frames against their
	# checksum. Tier 1 replays their checked-in seeds (testdata/fuzz under
	# internal/obs, internal/obs/trace, internal/service and
	# internal/store); here each explores for 10s. Go fuzzes one target
	# per invocation.
	echo "== tier 2: decoder fuzzers"
	go test -run '^$' -fuzz '^FuzzSnapshotRelay$' -fuzztime 10s ./internal/obs
	go test -run '^$' -fuzz '^FuzzHDRMerge$' -fuzztime 10s ./internal/obs
	go test -run '^$' -fuzz '^FuzzWorkerRelay$' -fuzztime 10s ./internal/service
	go test -run '^$' -fuzz '^FuzzTraceparent$' -fuzztime 10s ./internal/obs/trace
	go test -run '^$' -fuzz '^FuzzBlobFrame$' -fuzztime 10s ./internal/store
fi

echo "verify: ok"
