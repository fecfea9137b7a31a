#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the root of the checkout:
#   bash benchmark/run.sh --workload mcf-cosmos --seed 42 --seconds 30 --trace 0
# Everything the build writes (binary, Go build cache, Go's own config)
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/benchmark" build -o "$out/benchmark" . >&2
exec "$out/benchmark" "$@"
