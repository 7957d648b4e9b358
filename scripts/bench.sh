#!/usr/bin/env bash
# Run the per-beat cost benchmark (the simulator's throughput metric) and
# record it as BENCH_beat.json so the perf trajectory is comparable across
# PRs. Extra args are passed to `go test` (e.g. -benchtime=100x for a CI
# smoke run, -count=5 for a stable local measurement: benchjson records
# each benchmark's median with its ns/op min and max, and stores names
# without the -GOMAXPROCS suffix, keeping the core count as "procs").
#
#   ./scripts/bench.sh                 # default benchtime
#   ./scripts/bench.sh -benchtime=100x # CI smoke
#   ./scripts/bench.sh -count=5        # re-record BENCH_beat.json
#
# Regression gate: after recording, the fresh run is compared against the
# committed BENCH_beat.json (the previous PR's recorded run). A >15%
# ns/op regression, or a committed entry the fresh run no longer has,
# prints a warning locally and fails the script when BENCH_GATE=1 (the
# CI workflow sets it). Tune the threshold with
# BENCH_GATE_THRESHOLD=<percent>.
#
# The resident-memory series (BenchmarkResidentTenants, one iteration
# per shape by design — the iteration IS the live-heap measurement) runs
# ~20 minutes at T=1e5 and holds ~20 GB, so the default run does not
# re-measure it: the committed entries are carried forward verbatim
# (benchjson -merge) and still gated. Re-record with
# BENCH_RESIDENT=1 ./scripts/bench.sh on a big-RAM machine.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=""
baseline_tmp="$(mktemp)"
fresh_tmp="$(mktemp)"
trap 'rm -f "$baseline_tmp" "$fresh_tmp"' EXIT
if git show HEAD:BENCH_beat.json >"$baseline_tmp" 2>/dev/null; then
  baseline="$baseline_tmp"
fi

{
  go test -run=NONE -bench=BenchmarkBeat -benchmem "$@" .
  if [[ "${BENCH_RESIDENT:-0}" == "1" ]]; then
    go test -run=NONE -bench=BenchmarkResidentTenants -benchmem -benchtime=1x -timeout 60m .
  fi
} | go run ./cmd/benchjson > "$fresh_tmp"
if [[ -n "$baseline" ]]; then
  go run ./cmd/benchjson -merge -carry '^BenchmarkResidentTenants/' "$baseline" "$fresh_tmp" > BENCH_beat.json
else
  cp "$fresh_tmp" BENCH_beat.json
fi
echo "wrote BENCH_beat.json" >&2

if [[ -n "$baseline" ]]; then
  threshold="${BENCH_GATE_THRESHOLD:-15}"
  if ! go run ./cmd/benchjson -gate -threshold "$threshold" "$baseline" BENCH_beat.json; then
    if [[ "${BENCH_GATE:-0}" == "1" ]]; then
      echo "bench gate: regression beyond ${threshold}% vs committed BENCH_beat.json" >&2
      exit 1
    fi
    echo "bench gate: regression beyond ${threshold}% (warning only; set BENCH_GATE=1 to enforce)" >&2
  fi
else
  echo "bench gate: no committed BENCH_beat.json baseline; skipping comparison" >&2
fi
