#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload cyclic-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs (binary and Go caches)
# go to .bench_build/ and run data to .bench_run/, both under the
# current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
