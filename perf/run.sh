#!/usr/bin/env bash
# Builds the perf harness from source and runs it with the arguments given.
# Run from the repository root: `bash perf/run.sh --workload cold-read ...`.
# Everything the build leaves behind (binary, Go build cache, temporaries)
# goes under .bench_build/ in the checkout, so nothing outside it is touched.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters there.
(cd "$here" && GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off \
	go build -o "$build/perf" .)
exec "$build/perf" "$@"
