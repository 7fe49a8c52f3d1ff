#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command BENCHMARK.json
# names. Everything the build writes — binary, Go build cache — stays under
# .bench_build in the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local

# With a warm cache this is a no-op of a few tenths of a second.
go build -o "$build/cryptonn-bench" ./benchmark
exec "$build/cryptonn-bench" "$@"
