#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# driver's arguments (--workload --seed --seconds --trace). Everything the
# build writes (binary, Go build cache, temp files) stays under .bench_build/
# in the checkout; nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -o "$build/crowdfill-bench" ./bench
exec "$build/crowdfill-bench" "$@"
