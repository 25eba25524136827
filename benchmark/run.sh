#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ (binary, Go build cache and prep cache all live
# there, so nothing outside the checkout is written) and runs it with
# the caller's arguments. Run from the repository root.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/dimm-benchmark" .)
exec "$build/dimm-benchmark" "$@"
