#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it with every argument passed through, e.g.
#
#   bash perfbench/run.sh --workload engine-n7 --seed 1 --seconds 10 --trace 0
#
# Build caches and temporary files stay inside .bench_build, so the run
# reads and writes nothing outside the checkout. A failed build exits
# non-zero before anything is printed on standard output.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
