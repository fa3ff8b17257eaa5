#!/usr/bin/env bash
# Bench-regression gate: run the nine `repro` benchmark artifacts in
# fast deterministic --smoke mode (small populations, fixed seeds) and
# fail if any speedup drops below its floor or any agreement flag is
# false. CI runs this on every push; `just ci` runs it locally.
#
# The smoke artifacts are written as BENCH_*.smoke.json (gitignored) so
# the committed full-scale BENCH_*.json records are never disturbed.
#
# Floors are deliberately far below the measured values (graph ~1700x,
# logic sweep ~130x, hard CDCL-vs-DPLL ~3.5x at smoke scale,
# experiments ~25x, af SAT-vs-enumeration ~50x, af grounded CSR
# ~1000x, fol interned-vs-seed ~70x, ltl CSR-vs-trace ~17x, lint
# compile-once ~12x, service incremental ~7x) so the gate trips on
# regressions, not on machine noise. Exceptions: LINT_FLOOR and
# SERVICE_FLOOR are the issues' hard >=10x / >=5x acceptance criteria,
# enforced at their stated values; DSL_FLOOR is host-aware (see below)
# because the recovering frontend does strictly more work per defective
# file than the abort-at-first-error baseline it is measured against.
# Override via environment for experiments:
#   GRAPH_FLOOR, LOGIC_SWEEP_FLOOR, HARD_CDCL_FLOOR, EXPERIMENTS_FLOOR,
#   AF_FLOOR, AF_GROUNDED_FLOOR, AF_SCC_N_FLOOR, FOL_FLOOR, LTL_FLOOR,
#   LINT_FLOOR, SERVICE_FLOOR, THREAD_FLOOR, DSL_FLOOR, DSL_MBPS_FLOOR,
#   DSL_CLEAN_FLOOR
set -euo pipefail
cd "$(dirname "$0")/.."

GRAPH_FLOOR="${GRAPH_FLOOR:-50}"
LOGIC_SWEEP_FLOOR="${LOGIC_SWEEP_FLOOR:-10}"
HARD_CDCL_FLOOR="${HARD_CDCL_FLOOR:-2}"
EXPERIMENTS_FLOOR="${EXPERIMENTS_FLOOR:-3}"
AF_FLOOR="${AF_FLOOR:-10}"
AF_GROUNDED_FLOOR="${AF_GROUNDED_FLOOR:-50}"
# Smallest framework the decomposed AF engine must complete
# grounded/preferred/stable on in smoke mode.
AF_SCC_N_FLOOR="${AF_SCC_N_FLOOR:-20000}"
FOL_FLOOR="${FOL_FLOOR:-10}"
LTL_FLOOR="${LTL_FLOOR:-10}"
LINT_FLOOR="${LINT_FLOOR:-10}"
SERVICE_FLOOR="${SERVICE_FLOOR:-5}"

echo "==> building repro (release)"
cargo build --release -q -p casekit-bench --bin repro

echo "==> repro graph --smoke"
./target/release/repro graph --smoke > /dev/null
echo "==> repro logic --smoke"
./target/release/repro logic --smoke > /dev/null
echo "==> repro af --smoke"
./target/release/repro af --smoke > /dev/null
echo "==> repro fol --smoke"
./target/release/repro fol --smoke > /dev/null
echo "==> repro ltl --smoke"
./target/release/repro ltl --smoke > /dev/null
echo "==> repro experiments --smoke"
./target/release/repro experiments --smoke > /dev/null
echo "==> repro lint --smoke"
./target/release/repro lint --smoke > /dev/null
echo "==> repro service --smoke"
./target/release/repro service --smoke > /dev/null
echo "==> repro dsl --smoke"
./target/release/repro dsl --smoke > /dev/null

FAILURES=0

# json_number <file> <key> — the unique numeric value for "key" in a
# pretty-printed JSON artifact. Top-level fields (two-space indent) are
# preferred, so a key that also appears inside a nested block — the
# per-point `speedup` entries in the FOL/LTL artifacts — can never
# smuggle in the wrong value; a key with no top-level occurrence (the
# logic artifact's `dpll_over_cdcl`, inside its "hard" block) is
# accepted at any depth but must be unique in the file. Ambiguous keys
# yield no output, which require_floor reports as a failure.
json_number() {
  local top nested
  top="$(sed -n 's/^  "'"$2"'": \([0-9][0-9.eE+-]*\),\{0,1\}$/\1/p' "$1")"
  if [ -n "$top" ] && [ "$(printf '%s\n' "$top" | grep -c .)" -eq 1 ]; then
    printf '%s\n' "$top"
    return
  fi
  nested="$(sed -n 's/^ *"'"$2"'": \([0-9][0-9.eE+-]*\),\{0,1\}$/\1/p' "$1")"
  if [ -n "$nested" ] && [ "$(printf '%s\n' "$nested" | grep -c .)" -eq 1 ]; then
    printf '%s\n' "$nested"
  fi
}

# require_floor <file> <key> <floor> — numeric gate.
require_floor() {
  local file="$1" key="$2" floor="$3" value
  value="$(json_number "$file" "$key")"
  if [ -z "$value" ]; then
    echo "  FAIL  $file has no unique numeric \"$key\""
    FAILURES=$((FAILURES + 1))
    return
  fi
  if awk -v v="$value" -v f="$floor" 'BEGIN { exit !(v >= f) }'; then
    echo "  ok    $file $key = $value (floor $floor)"
  else
    echo "  FAIL  $file $key = $value is below floor $floor"
    FAILURES=$((FAILURES + 1))
  fi
}

# require_true <file> <key> [count] — boolean gate; the artifact must
# contain `"key": true` exactly `count` times (default 1) and never
# `"key": false`.
require_true() {
  local file="$1" key="$2" count="${3:-1}" trues
  trues="$(grep -c "\"$key\": true" "$file" || true)"
  if grep -q "\"$key\": false" "$file"; then
    echo "  FAIL  $file reports \"$key\": false"
    FAILURES=$((FAILURES + 1))
  elif [ "$trues" -ne "$count" ]; then
    echo "  FAIL  $file has $trues \"$key\": true entries, expected $count"
    FAILURES=$((FAILURES + 1))
  else
    echo "  ok    $file $key = true (x$count)"
  fi
}

echo "== bench gates =="
require_floor BENCH_graph.smoke.json speedup "$GRAPH_FLOOR"
require_true  BENCH_graph.smoke.json sweeps_agree

require_floor BENCH_logic.smoke.json speedup "$LOGIC_SWEEP_FLOOR"
require_floor BENCH_logic.smoke.json dpll_over_cdcl "$HARD_CDCL_FLOOR"
require_true  BENCH_logic.smoke.json verdicts_agree 2

require_floor BENCH_af.smoke.json sat_over_naive "$AF_FLOOR"
require_floor BENCH_af.smoke.json grounded_over_naive "$AF_GROUNDED_FLOOR"
require_true  BENCH_af.smoke.json extensions_agree
require_true  BENCH_af.smoke.json grounded_agree
# The SCC-decomposed engine: agreement with the monolithic encoding on
# every smoke instance and every cross-checked scenario (one size, two
# generators), plus a large-n completion floor only the decomposition
# can reach in smoke time.
require_true  BENCH_af.smoke.json scc_agree
require_true  BENCH_af.smoke.json agrees_with_monolithic 2
require_floor BENCH_af.smoke.json scc_largest_n "$AF_SCC_N_FLOOR"

# The FOL and LTL reports carry their report-level speedup at top
# level (json_number ignores the nested per-point `speedup` entries)
# and one `answers_agree` flag each; per-point flags are named `agree`
# so they never collide with the gate's count.
require_floor BENCH_fol.smoke.json speedup "$FOL_FLOOR"
require_true  BENCH_fol.smoke.json answers_agree
require_true  BENCH_fol.smoke.json chain_proved

require_floor BENCH_ltl.smoke.json speedup "$LTL_FLOOR"
require_true  BENCH_ltl.smoke.json answers_agree

require_floor BENCH_experiments.smoke.json speedup "$EXPERIMENTS_FLOOR"
require_true  BENCH_experiments.smoke.json reports_agree

# The lint engine must beat the one-tool-per-lint cost model by the
# issue's 10x acceptance floor, with byte-identical diagnostics across
# the naive loop, the serial engine, and every probed worker count.
require_floor BENCH_lint.smoke.json speedup "$LINT_FLOOR"
require_true  BENCH_lint.smoke.json diagnostics_agree

# The incremental case service must beat recompile-from-scratch under
# mixed edit/query traffic by the issue's 5x acceptance floor, with
# every incremental answer verdict-identical to a fresh batch
# compilation (checked against the stateless baseline and across
# worker counts 1, 2, and the full fleet).
require_floor BENCH_service.smoke.json speedup "$SERVICE_FLOOR"
require_true  BENCH_service.smoke.json answers_agree
# thread_speedup (serial-plan vs parallel-plan, identical work) is only
# a real speedup when the host has idle cores to farm to: on a
# multi-core host the parallel plan must win outright; on a single-core
# host the two plans are identical by design and the gate only rejects
# a real regression (scheduling overhead creeping back in).
HOST_PAR="$(json_number BENCH_experiments.smoke.json host_parallelism)"
if [ "${HOST_PAR:-1}" -gt 1 ]; then
  THREAD_FLOOR="${THREAD_FLOOR:-1.0}"
else
  THREAD_FLOOR="${THREAD_FLOOR:-0.95}"
fi
require_floor BENCH_experiments.smoke.json thread_speedup "$THREAD_FLOOR"

# The recovering DSL frontend must round-trip against the seed parser
# (clean files argument-identical, abort messages contained in the
# recovered streams) with byte-identical diagnostics at every worker
# count, and must not let recovery cost collapse ingestion throughput.
# The engine does strictly more work per defective file than the
# abort-at-first-error baseline, so its end-to-end speedup is only
# expected to exceed 1 when idle cores absorb the recovery cost; on a
# single-core host the floor just rejects a pathological slowdown.
if [ "${HOST_PAR:-1}" -gt 1 ]; then
  DSL_FLOOR="${DSL_FLOOR:-1.0}"
else
  DSL_FLOOR="${DSL_FLOOR:-0.3}"
fi
DSL_MBPS_FLOOR="${DSL_MBPS_FLOOR:-2}"
require_floor BENCH_dsl.smoke.json speedup "$DSL_FLOOR"
require_floor BENCH_dsl.smoke.json engine_mb_per_s "$DSL_MBPS_FLOOR"
# Same work, one thread each: on the clean files both parsers build the
# same arguments, so the recovering frontend must be at least as fast
# as the seed there.
DSL_CLEAN_FLOOR="${DSL_CLEAN_FLOOR:-1.0}"
require_floor BENCH_dsl.smoke.json clean_speedup "$DSL_CLEAN_FLOOR"
require_true  BENCH_dsl.smoke.json diagnostics_roundtrip

if [ "$FAILURES" -eq 0 ]; then
  echo "Bench gate passed."
else
  echo "Bench gate FAILED ($FAILURES gate(s))."
  exit 1
fi
