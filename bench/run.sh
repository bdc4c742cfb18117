#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash bench/run.sh --workload explore-resnet18 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, the go command's
# telemetry counters, traces) stays under .bench_build/ in the repository
# root. The build is offline: the module needs nothing beyond the standard
# library and the repository itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"
