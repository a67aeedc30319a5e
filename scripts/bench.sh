#!/bin/sh
# bench.sh — record a benchmark suite as JSON.
#
# Suites:
#   pr1 (default) — the parallel-ABM pairs introduced with internal/par:
#       internal/abm: BenchmarkABMQuenchedStep{Serial,Parallel},
#                     BenchmarkMeanRun{Serial,Parallel}
#       root:         BenchmarkValidationABM{Serial,Parallel}
#     speedup = serial ns_per_op / parallel ns_per_op of each pair.
#   pr2 — the rumord service-layer latencies (internal/service):
#       BenchmarkJobColdODE   full submit→execute→poll, cache miss
#       BenchmarkJobCacheHit  identical request served from the result cache
#       BenchmarkSubmitReject validation fast-fail
#     the cold/cache-hit ratio is the PR 2 caching claim.
#   pr3 — progress-hook overhead on the solver hot loops:
#       internal/ode: BenchmarkSolveFixedProgress{Off,On}
#       internal/abm: BenchmarkRunProgress{Off,On}
#     overhead = on ns_per_op / off ns_per_op - 1 per pair; the PR 3
#     claim is < 5% on the ODE step loop.
#   pr4 — flight-recorder hook overhead on the same hot loops:
#       internal/obs/journal: BenchmarkODEJournal{Off,On},
#                             BenchmarkABMJournal{Off,On}
#     On attaches the full per-checkpoint service path (stage-span
#     lookup, invariant monitor, journal ring append); the PR 4 claim
#     is < 5% overhead on both pairs.
#   pr5 — durable-store cost (internal/service, internal/store):
#       BenchmarkJobThroughputWAL{Off,On}  full job round trips, in-memory
#                                          vs -data-dir with batched fsync
#       BenchmarkRecovery1k                cold-start replay of a 1k-record
#                                          WAL into pending state
#       BenchmarkWALAppend, BenchmarkPutResult  raw store primitives
#     the PR 5 claim is WAL-on throughput within 5% of WAL-off.
#   pr7 — distributed-mode throughput (internal/cluster/worker):
#       BenchmarkClusterODE/w{1,2,4}     saturated Digg2009 ODE workload,
#                                        coordinator + N in-process worker
#                                        nodes over real HTTP
#       BenchmarkStandaloneODE/w{1,2,4}  the same workload on the in-process
#                                        pool at the same widths
#       Benchmark{Cluster,Standalone}Threshold  near-zero-compute pair whose
#                                        ns_per_op difference is the per-job
#                                        coordinator overhead (lease +
#                                        heartbeat + result round trips)
#     jobs/sec = 1e9 / ns_per_op; the PR 7 claim is that ODE throughput
#     scales with worker count while the per-job overhead stays small
#     against solver-bound jobs.
#   pr8 — telemetry-relay overhead (internal/cluster/worker):
#       BenchmarkClusterThresholdRelayOn  the near-zero-compute
#                                        threshold workload through one
#                                        worker node with a fast heartbeat
#                                        and the full relay (journal +
#                                        spans + registry snapshot +
#                                        health sample)
#     The relay is always on (its relay-off arm is gone), so the suite
#     records RelayOn next to the pr7 names. Gate against the PR 7
#     baseline with
#     scripts/benchdiff.sh BENCH_PR7.json BENCH_PR8.json (the shared
#     throughput names must not regress either).
#   pr6 — solver hot-loop kernels and multi-core scaling:
#       internal/core: BenchmarkTheta, BenchmarkRHSDiggScale   fused-Θ RHS
#       internal/ode:  BenchmarkStepCost/{heun,rk4},           zero-alloc
#                      BenchmarkSolveFixedDiggScale            steppers
#       internal/abm:  BenchmarkABMQuenchedStep{serial,parallel},
#                      BenchmarkMeanRun{serial,parallel} at -cpu 1,4,8
#     kernel benches are pinned to -cpu 1; the ABM pairs sweep
#     GOMAXPROCS (the -N name suffix; absent means 1) and the JSON gets
#     a "scaling" block: speedup = serial@1 ns / parallel@c ns,
#     efficiency = speedup / c. Meaningful speedups need real cores —
#     on a 1-cpu container every efficiency degenerates to ~1/c.
#
# Every suite records the machine ("cpus", "gomaxprocs") and every
# benchmark entry carries the GOMAXPROCS it ran at, parsed from the
# go-test name suffix.
#
# Usage:
#
#   scripts/bench.sh                 # pr1 -> BENCH_PR1.json
#   scripts/bench.sh pr2             # pr2 -> BENCH_PR2.json
#   scripts/bench.sh pr3             # pr3 -> BENCH_PR3.json
#   scripts/bench.sh pr4             # pr4 -> BENCH_PR4.json
#   scripts/bench.sh pr5             # pr5 -> BENCH_PR5.json
#   scripts/bench.sh pr6             # pr6 -> BENCH_PR6.json
#   scripts/bench.sh pr7             # pr7 -> BENCH_PR7.json
#   scripts/bench.sh pr8             # pr8 -> BENCH_PR8.json
#   scripts/bench.sh pr10            # pr10 -> BENCH_PR10.json (delegates
#                                      to scripts/loadgen.sh pr10: the
#                                      surface-hit / fallback / cold-solve
#                                      query-mix sweep)
#   scripts/bench.sh pr2 out.json    # explicit output path
set -eu

cd "$(dirname "$0")/.."
suite="${1:-pr1}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

case "$suite" in
pr1)
	out="${2:-BENCH_PR1.json}"
	note="speedup = serial ns_per_op / parallel ns_per_op of each pair; parallel gains require cpus > 1 and the outputs are bit-identical either way"
	go test -run '^$' -bench 'BenchmarkABMQuenchedStep|BenchmarkMeanRun' \
		-benchmem ./internal/abm | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkValidationABM(Serial|Parallel)$' \
		-benchmem . | tee -a "$tmp"
	;;
pr2)
	out="${2:-BENCH_PR2.json}"
	note="cold = submit->execute->poll of a cache-missing ODE job; cache hit = identical request completed synchronously from the result cache; their ns_per_op ratio is the caching speedup"
	go test -run '^$' -bench 'BenchmarkJob|BenchmarkSubmitReject' \
		-benchmem ./internal/service | tee -a "$tmp"
	;;
pr3)
	out="${2:-BENCH_PR3.json}"
	note="overhead = on ns_per_op / off ns_per_op - 1 per pair; Off runs the hot loop with no progress hook, On with a counting hook at the default cadence; the ODE pair must stay under 5%"
	go test -run '^$' -bench 'BenchmarkSolveFixedProgress(Off|On)$' \
		-benchmem ./internal/ode | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkRunProgress(Off|On)$' \
		-benchmem ./internal/abm | tee -a "$tmp"
	;;
pr4)
	out="${2:-BENCH_PR4.json}"
	note="overhead = on ns_per_op / off ns_per_op - 1 per pair; Off runs the solver hot loop bare, On attaches the service's per-checkpoint flight-recorder path (stage-span lookup, invariant monitor, journal append); both pairs must stay under 5%"
	go test -run '^$' -bench 'Benchmark(ODE|ABM)Journal(Off|On)$' \
		-benchmem ./internal/obs/journal | tee -a "$tmp"
	;;
pr5)
	out="${2:-BENCH_PR5.json}"
	note="WALOff runs the standard workload (Digg2009 ODE jobs, worker pool kept saturated) in-memory, WALOn adds the durable store with the default batched-fsync policy; their ns_per_op ratio is the durability cost (claim: < 5%). Recovery1k replays a 1000-record WAL cold"
	go test -run '^$' -bench 'BenchmarkJobThroughputWAL(Off|On)$' \
		-benchmem ./internal/service | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkRecovery1k$|BenchmarkWALAppend$|BenchmarkPutResult$' \
		-benchmem ./internal/store | tee -a "$tmp"
	;;
pr6)
	out="${2:-BENCH_PR6.json}"
	scaling=1
	note="kernel benches (core RHS/Theta, ode steppers) pinned to GOMAXPROCS=1; ABM serial/parallel pairs swept at -cpu 1,4,8; scaling lists speedup = ns@1 / ns@c and efficiency = speedup/c per pair — a 1-cpu host cannot show real speedup, rerun on multicore hardware for the scaling claim"
	go test -run '^$' -bench 'BenchmarkTheta$|BenchmarkRHSDiggScale$' \
		-benchmem -cpu 1 ./internal/core | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkStepCost|BenchmarkSolveFixedDiggScale$' \
		-benchmem -cpu 1 ./internal/ode | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkABMQuenchedStep|BenchmarkMeanRun' \
		-benchmem -cpu 1,4,8 ./internal/abm | tee -a "$tmp"
	;;
pr7)
	out="${2:-BENCH_PR7.json}"
	note="ClusterODE/wN runs the saturated Digg2009 ODE workload through a coordinator with N in-process worker nodes over real HTTP, StandaloneODE/wN the identical workload on the in-process pool; jobs/sec = 1e9 / ns_per_op and throughput should scale with N (needs real cores). The Threshold pair's ns_per_op difference is the measured per-job coordinator overhead: lease poll + heartbeat + result upload round trips"
	go test -run '^$' -bench 'Benchmark(Cluster|Standalone)ODE/|Benchmark(Cluster|Standalone)Threshold$' \
		-benchmem ./internal/cluster/worker | tee -a "$tmp"
	;;
pr8)
	out="${2:-BENCH_PR8.json}"
	note="RelayOn runs the near-zero-compute threshold workload through a 1-node cluster with the full telemetry relay (worker journal entries, finished stage spans and the health sample on every heartbeat and result upload; registry snapshots throttled to one per 250ms window across channels) at a forced-fast 2ms heartbeat; every name records the fastest of 3 runs to keep shared-host noise out of the comparison. Also re-records the pr7 throughput names so scripts/benchdiff.sh BENCH_PR7.json BENCH_PR8.json gates the relay against the pre-telemetry baseline"
	# -count 3 + the emitter's fastest-run-per-name rule: single samples on
	# a shared host swing by ±10%, which would drown a 5% comparison in noise.
	go test -run '^$' -bench 'BenchmarkClusterThresholdRelayOn$' \
		-benchmem -count 3 ./internal/cluster/worker | tee -a "$tmp"
	go test -run '^$' -bench 'Benchmark(Cluster|Standalone)ODE/|Benchmark(Cluster|Standalone)Threshold$' \
		-benchmem -count 3 ./internal/cluster/worker | tee -a "$tmp"
	;;
pr10)
	# The PR 10 artifact is an open-loop latency sweep, not a go-bench run:
	# delegate to loadgen.sh's pr10 suite (surface-hit vs fallback vs
	# cold-solve query mix on the selfhosted daemon -> BENCH_PR10.json).
	exec sh scripts/loadgen.sh pr10 "${2:-BENCH_PR10.json}"
	;;
*)
	echo "bench.sh: unknown suite '$suite' (want pr1, pr2, pr3, pr4, pr5, pr6, pr7, pr8 or pr10)" >&2
	exit 2
	;;
esac

ncpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)"
{
	printf '{\n'
	printf '  "suite": "%s",\n' "$suite"
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "goos": "%s",\n' "$(go env GOOS)"
	printf '  "goarch": "%s",\n' "$(go env GOARCH)"
	printf '  "cpus": %s,\n' "$ncpu"
	printf '  "gomaxprocs": %s,\n' "${GOMAXPROCS:-$ncpu}"
	printf '  "note": "%s",\n' "$note"
	# go test names benchmarks "Name-N" when GOMAXPROCS is N != 1 (the -cpu
	# sweep); a bare name means 1. The suffix becomes each entry's
	# "gomaxprocs". A name repeated by -count keeps its fastest run — the
	# minimum is the least noise-contaminated sample of a fixed workload.
	# With scaling=1, serial@1 / parallel@c pairs additionally produce a
	# "scaling" block.
	awk -v scaling="${scaling:-0}" '
	/^Benchmark/ {
		name = $1; gmp = 1; base = $1
		if (match(name, /-[0-9]+$/)) {
			gmp = substr(name, RSTART + 1) + 0
			base = substr(name, 1, RSTART - 1)
		}
		if (name in idx) {
			i = idx[name]
			if ($3 + 0 < ns[i] + 0) {
				iters[i] = $2; ns[i] = $3; bytes[i] = $5; allocs[i] = $7
				ns_at[base "@" gmp] = $3
			}
			next
		}
		i = ++cnt; idx[name] = i
		names[i] = name; bases[i] = base; gmps[i] = gmp
		iters[i] = $2; ns[i] = $3; bytes[i] = $5; allocs[i] = $7
		ns_at[base "@" gmp] = $3
	}
	END {
		printf "  \"benchmarks\": [\n"
		for (i = 1; i <= cnt; i++)
			printf "    {\"name\": \"%s\", \"gomaxprocs\": %d, \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
				names[i], gmps[i], iters[i], ns[i], bytes[i], allocs[i], (i < cnt ? "," : "")
		printf "  ]"
		if (scaling) {
			m = 0
			for (i = 1; i <= cnt; i++) {
				if (bases[i] !~ /\/parallel$/) continue
				serial = bases[i]; sub(/\/parallel$/, "/serial", serial)
				if (!((serial "@" 1) in ns_at)) continue
				sp = ns_at[serial "@" 1] / ns[i]
				buf[++m] = sprintf("    {\"name\": \"%s\", \"gomaxprocs\": %d, \"speedup\": %.3f, \"efficiency\": %.3f}", \
					bases[i], gmps[i], sp, sp / gmps[i])
			}
			if (m) {
				printf ",\n  \"scaling\": [\n"
				for (j = 1; j <= m; j++) printf "%s%s\n", buf[j], (j < m ? "," : "")
				printf "  ]"
			}
		}
		printf "\n"
	}' "$tmp"
	printf '}\n'
} > "$out"

echo "wrote $out"
