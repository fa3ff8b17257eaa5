#!/usr/bin/env bash
# Full local gate: format, lints, rustdoc with warnings denied, tests
# (the caselint CLI checks over examples/cases included), the perfbench
# package's own tests under --locked, benches, the nine benchmark
# artifacts, and the smoke bench gate. Mirrors what `just check` runs.
# Every floor and agreement flag lives in crates/bench/src/gate.rs: the
# artifact steps fail on a false flag, and `repro gate` judges the
# smoke floors.
#
# Every step runs even when an earlier one fails, each failure is
# recorded, and a per-step summary prints at the end. It runs every
# command the CI jobs run, except that CI also repeats the tests at
# RUNTIME_WORKERS=1 and 4 and runs the perfbench correctness smoke
# (`just perf-smoke`).
set -euo pipefail
cd "$(dirname "$0")/.."

STEP_NAMES=()
STEP_RESULTS=()

# run_step <name> <command...> — runs the command with failure captured
# (set -e stays on inside the command itself).
run_step() {
  local name="$1"
  shift
  echo "==> ${name}"
  local status=0
  "$@" || status=$?
  STEP_NAMES+=("$name")
  STEP_RESULTS+=("$status")
  if [ "$status" -ne 0 ]; then
    echo "FAIL: ${name} (exit ${status})"
  fi
}

run_step "cargo fmt --check" cargo fmt --all --check
run_step "cargo clippy -D warnings" cargo clippy --workspace --all-targets -- -D warnings
run_step "cargo doc -D warnings" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
run_step "cargo test" cargo test -q
run_step "perfbench tests (--locked)" \
  cargo test --release --locked --manifest-path perfbench/Cargo.toml
run_step "cargo bench (short measurement budget)" \
  env CASEKIT_BENCH_MS="${CASEKIT_BENCH_MS:-25}" cargo bench -q -p casekit-bench
# Each artefact step regenerates its committed BENCH_*.json, and
# `repro` exits 1 when an agreement flag of the report is false.
for artefact in graph logic af fol ltl experiments lint service dsl; do
  run_step "repro ${artefact} (writes BENCH_${artefact}.json)" \
    cargo run --release -q -p casekit-bench --bin repro "${artefact}"
done
run_step "repro gate (smoke floors and flags over five rounds)" \
  cargo run --release -q -p casekit-bench --bin repro -- gate

echo
echo "== step summary =="
overall=0
for i in "${!STEP_NAMES[@]}"; do
  if [ "${STEP_RESULTS[$i]}" -eq 0 ]; then
    printf '  ok    %s\n' "${STEP_NAMES[$i]}"
  else
    printf '  FAIL  %s (exit %s)\n' "${STEP_NAMES[$i]}" "${STEP_RESULTS[$i]}"
    overall=1
  fi
done
if [ "$overall" -eq 0 ]; then
  echo "All checks passed."
else
  echo "Some checks FAILED."
fi
exit "$overall"
