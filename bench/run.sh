#!/bin/sh
# Builds the benchmark from this checkout and runs it. Run it from the
# repository root (see bench/README.md):
#
#   sh bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh bench/run.sh compare A/ B/
#
# The Go build cache, the binary and anything else the toolchain writes
# stay under .bench_build/ in the checkout.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
