#!/usr/bin/env bash
# Builds the flowload benchmark from the checkout's own sources and runs
# it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload bigflow --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1993 -out report.json
#
# The build cache, the binary and every temporary file of the runs stay
# under .bench_build/ in the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C bench build -o "$out/flowload" ./flowload
exec "$out/flowload" "$@"
