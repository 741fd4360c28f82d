#!/usr/bin/env bash
# Builds the harness from source and runs it; BENCHMARK.json names this
# script as the benchmark's command. Everything the build and the run write
# stays inside the checkout: the build cache, the binary and all temporary
# files (spill runs, arena segments, DOT dumps, checkd job directories) go
# under .bench_build/ at its root, span files under benchsuite/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/benchsuite" .
exec "$build/benchsuite" "$@"
