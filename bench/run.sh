#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout.
# Everything the build and the run write stays inside the checkout: the
# binary, Go's build cache and all temporaries go under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
# XDG_CONFIG_HOME is where the go command keeps its telemetry counters.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/pvr-bench" .
exec "$build/pvr-bench" "$@"
