#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (compiler cache
# included, so nothing is written outside the checkout) and runs it from
# the root of the checkout:
#
#   bash bench/run.sh --workload live-tcp --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh                      # every workload, both modes
#   bash bench/run.sh -compare A.json B.json
#
# It fails, printing no result, where the repository's Go module is not
# next to bench/ — the benchmark measures that module and nothing else.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/greenbench" .
exec "$build/greenbench" "$@"
