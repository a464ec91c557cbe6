#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload drift-estimate --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1                # all four workloads, one after another
#
# The binary, the Go build cache, the compiler's temporary files and the go
# command's own configuration and telemetry directory all live under
# .bench_build/ in the checkout, so a run writes nothing outside it.
# Outside a full checkout (no go.mod one directory up) the build fails and
# the script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
go -C "$root/bench" build -o "$out/dophy-bench" .
exec "$out/dophy-bench" "$@"
