#!/usr/bin/env bash
# The benchmark's build-and-run step, as BENCHMARK.json's command: build
# ./bench from the checkout's own source, keeping the Go build cache and
# temporary files inside the checkout (.bench_build/), then hand the
# driver's arguments to the binary. Run it from the repository root.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
