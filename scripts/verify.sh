#!/bin/sh
# verify.sh — the repository's verification gates (see ROADMAP.md).
#
#   tier 1: gofmt -l . (must print nothing), go build ./... && go test ./...
#   tier 2: go vet ./... && go test -race ./...
#
# Tier 2 exists because the worker fan-out (internal/par, internal/abm,
# internal/experiments), the rumord service stack (internal/service job
# queue, result cache, concurrent E2E suite — including the SSE streaming
# tests, which exercise journal fan-out, live subscribers and mid-stream
# cancellation under the detector), the durable store (internal/store:
# WAL appends racing the batched-fsync flusher, concurrent blob Put/Get/GC,
# and the service's crash-recovery E2E) and the cluster layer (internal/
# cluster's lease table under concurrent grant/extend/expire, plus the
# coordinator/worker crash matrix in internal/cluster/worker — worker
# kill mid-job, coordinator restart with leased jobs, poison-job
# exhaustion, both drain directions — and the telemetry relay layered on
# it: worker-side span/journal/snapshot buffers racing the heartbeat
# goroutine, the coordinator's relay merge racing /metrics scrapes and
# SSE followers, and the rumorctl -follow live tail against a real
# cluster) and the response-surface tier (internal/service's construction
# fan-out racing Close, interpolated queries racing an in-flight build,
# and the two-class admission queue under concurrent submit/lease/shed)
# must stay data-race free; -race
# roughly 10x-es the runtime, so it is a separate gate. Tier 2 also runs
# every benchmark for exactly one iteration — benchmarks bit-rot silently
# otherwise (the bench.sh suites only exercise their own subset). Usage:
#
#   scripts/verify.sh         # tier 1 only
#   scripts/verify.sh -race   # tier 1 + tier 2
set -eu

cd "$(dirname "$0")/.."

echo "== tier 1: format + build + test"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "verify: gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go build ./...
go test ./...

if [ "${1:-}" = "-race" ]; then
	echo "== tier 2: vet + race + bench smoke"
	go vet ./...
	go test -race ./...
	go test -run '^$' -bench . -benchtime 1x ./... > /dev/null
	# The rumorload smoke: a ~2s open-loop sweep against an in-process
	# rumord (one worker, the second phase offered past its capacity),
	# asserting the artifact schema, nonzero quantiles and the saturation
	# flip — the load-generator analogue of the E2E suite, kept explicit
	# here because it is the gate for the latency-SLO plane (DESIGN.md
	# §14) even though `go test -race ./...` already covers the package.
	echo "== tier 2: rumorload smoke"
	go test -race -count 1 -run 'TestSmokeSweep' ./internal/loadgen
	# The response-surface smoke: build a tiny threshold surface on the
	# loadtiny scenario over HTTP (grid points run as batch jobs, folded
	# and persisted), query it with an in-hull/out-of-hull mix, and check
	# the hit/fallback split — the explicit gate for the serving tier
	# (DESIGN.md §15); the service-side goroutine-leak and
	# query-during-construction races run under the package sweep above.
	echo "== tier 2: surface smoke"
	go test -race -count 1 -run 'TestSurfaceSmoke' ./internal/loadgen
fi

echo "verify: ok"
