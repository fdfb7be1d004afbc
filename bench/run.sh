#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload fanout --seed 3 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, its own
# counters) stays under .bench_build/ next to the bench directory, so a
# run touches nothing outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

go -C "$here" build -o "$build/skynet-bench" .
exec "$build/skynet-bench" "$@"
