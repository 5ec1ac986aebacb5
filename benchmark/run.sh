#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source into
# .bench_build at the repository root, Go build cache included so nothing
# is written outside the checkout, and runs it with the given arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/zlb-bench ./benchmark
exec .bench_build/zlb-bench "$@"
