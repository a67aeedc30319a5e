#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash rumorbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
# Every build and run artifact stays under .bench_build in the working
# directory (Go build cache included); see rumorbench/README.md.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd rumorbench && go build -o "$out/rumorbench" .)
exec "$out/rumorbench" "$@"
