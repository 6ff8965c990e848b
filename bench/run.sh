#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes — Go's build cache included —
# stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$build/tm2c-bench" .
exec "$build/tm2c-bench" "$@"
