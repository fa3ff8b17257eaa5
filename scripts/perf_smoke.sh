#!/usr/bin/env bash
# perfbench correctness smoke: every BENCHMARK.json workload once at
# seed 1 for 5 s (a 1 s ingest run has too few samples for its p99 and
# exits with an error). perfbench exits 0 even when its output is
# wrong, so each result line must read `"correct": true` with
# `"failed": 0`; anything else prints the output and exits 1.
set -eu
cd "$(dirname "$0")/.."

for workload in ingest check session; do
  out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 5 --trace 0)"
  if ! printf '%s\n' "$out" | grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,'; then
    printf '%s\n' "$out"
    echo "perfbench $workload: wrong output or failed ops"
    exit 1
  fi
done
