#!/bin/sh
# loadgen.sh — record the open-loop latency artifacts (BENCH_PR9.json and,
# with the pr10 suite, BENCH_PR10.json).
#
# Runs the open-loop rumorload sweep against a selfhosted rumord: one
# worker, a 250ms queue-wait p99 budget, and a rate ladder whose top rungs
# sit well past one worker's capacity on the built-in Digg2009 ODE job
# (~38ms each, so ~26 jobs/s; half the offered keys are cache-cold). The
# artifact records, per phase, offered vs achieved rate, the saturation
# verdict, and p50/p90/p99/p999 for the submit round trip, the end-to-end
# path and the three server-attributed segments (queue wait / execute /
# serialize) — all latencies coordinated-omission-correct, measured from
# the scheduled send time. Diff two artifacts with
#
#   scripts/benchdiff.sh BENCH_PR9.json new.json
#
# which gates the per-phase p99s with the 5% threshold.
#
# The pr10 suite instead records the response-surface serving story
# (DESIGN.md §15): the same selfhosted single-worker daemon, but half the
# offered requests are GET /v1/query against a precomputed threshold
# surface (built before the sweep starts) with a slice aimed outside its
# hull to force the exact-job fallback. At the top rung the cold-solve
# path saturates — the detector sheds the batch submissions — while the
# interactive surface hits keep answering in microseconds; the artifact's
# per-phase "query" vs "e2e" p99s and the surface_hits/surface_fallbacks
# split are the PR 10 claim. Diff with the same gate:
#
#   scripts/benchdiff.sh BENCH_PR10.json new.json
#
# Usage:
#
#   scripts/loadgen.sh                 # -> BENCH_PR9.json
#   scripts/loadgen.sh out.json        # explicit output path
#   scripts/loadgen.sh pr10            # -> BENCH_PR10.json
#   scripts/loadgen.sh pr10 out.json   # pr10, explicit output path
#   RATES=20,60 DURATION=3s scripts/loadgen.sh   # smaller sweep
set -eu

cd "$(dirname "$0")/.."
suite=pr9
case "${1:-}" in
pr9 | pr10)
	suite="$1"
	shift
	;;
esac

if [ "$suite" = pr10 ]; then
	out="${1:-BENCH_PR10.json}"
	rates="${RATES:-5,100}"
	duration="${DURATION:-5s}"
	mix="${MIX:-fbsm=1}"
	go run ./cmd/rumorload -selfhost -selfhost-workers 1 \
		-selfhost-saturation-budget 250ms \
		-rates "$rates" -duration "$duration" -mix "$mix" -hot 0.5 \
		-query 0.5 -query-fallback 0.1 \
		-poll 25ms -suite pr10-surface \
		-note "surface serving sweep, selfhost 1 worker, built-in Digg2009 scenario; half the offered requests are /v1/query against a prebuilt threshold eps1 x eps2 surface (10% aimed out-of-hull to force the exact-job fallback), the rest cold FBSM optimizations (~265ms each => ~3.8 jobs/s capacity, so the top rung saturates, backs the queue up to its cap and sheds); claim: the query endpoint's p99 stays >= 100x below the cold-solve e2e p99 at the saturating rate" \
		-out "$out"
	echo "wrote $out"
	exit 0
fi

out="${1:-BENCH_PR9.json}"
rates="${RATES:-10,25,50,100}"
duration="${DURATION:-5s}"
mix="${MIX:-ode=1}"

go run ./cmd/rumorload -selfhost -selfhost-workers 1 \
	-selfhost-saturation-budget 250ms \
	-rates "$rates" -duration "$duration" -mix "$mix" -hot 0.5 \
	-poll 25ms -suite pr9-latency \
	-note "open-loop sweep, selfhost 1 worker, built-in Digg2009 scenario (~38ms/ODE job => ~26 jobs/s capacity), 250ms queue-wait p99 budget; latencies measured from scheduled send time (coordinated-omission-correct)" \
	-out "$out"

echo "wrote $out"
