#!/usr/bin/env bash
# Builds the ftperf benchmark from the checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash ftperf/run.sh --workload active3_busy --seed 1 --seconds 10 --trace 0
#
# The binary and every Go cache live in .bench_build/ under the root, so
# nothing is written outside the checkout. A failed build exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$(dirname "$0")" && go build -o "$out/ftperf" .)
exec "$out/ftperf" "$@"
