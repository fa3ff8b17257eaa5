# Developer entry points. `just check` is the full local gate;
# `just ci` mirrors the GitHub workflow jobs exactly; `just perf
# [workload] [seed]` runs one BENCHMARK.json workload end to end, then
# traced for its per-layer split.

# Format, lint, test, bench, regenerate every BENCH_*.json, and run
# the smoke bench gate.
check:
    ./scripts/check.sh

# Mirror the CI pipeline locally, in job order: fmt, clippy, rustdoc
# with warnings denied, release build + tests (the caselint CLI checks
# over examples/cases and the perfbench package's tests under --locked
# included), the smoke bench-regression gate, then the perfbench
# correctness smoke.
ci:
    cargo fmt --all --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    cargo build --release
    cargo test -q
    cargo test --release --locked --manifest-path perfbench/Cargo.toml
    cargo run --release -q -p casekit-bench --bin repro -- gate
    just perf-smoke

# Every BENCHMARK.json workload once at seed 1 for 5 s (a 1 s ingest
# run has too few samples for its p99): fails unless each result line
# reads `"correct": true` with `"failed": 0`.
perf-smoke:
    for workload in ingest check session; do \
      out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 5 --trace 0)"; \
      printf '%s\n' "$out" | grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,' \
        || { printf '%s\n' "$out"; echo "perfbench $workload: wrong output or failed ops"; exit 1; }; \
    done

# The smoke bench-regression gate alone: every floor on its median
# over five rounds, every agreement flag in every round.
bench-gate:
    cargo run --release -q -p casekit-bench --bin repro -- gate

# Format the workspace in place.
fmt:
    cargo fmt --all

# Clippy with warnings denied, all targets.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# CaseLint over the bundled example corpus, every lint at deny level,
# for reading. `cargo test` gates it, and the malformed fixtures under
# examples/cases/malformed/ (crates/analysis/tests/caselint_cli.rs).
lint:
    cargo run --release -q -p casekit-analysis --bin caselint -- --deny examples/cases/*.case

# The test suite (workspace defaults: every product crate).
test:
    cargo test -q

# Criterion benches with a short measurement budget.
bench:
    CASEKIT_BENCH_MS=25 cargo bench -q -p casekit-bench

# Graph-core speedup artifact (BENCH_graph.json).
graph-bench:
    cargo run --release -q -p casekit-bench --bin repro graph

# Logic-core speedup artifact (BENCH_logic.json).
bench-logic:
    cargo run --release -q -p casekit-bench --bin repro logic

# Argumentation-framework engine artifact (BENCH_af.json).
bench-af:
    cargo run --release -q -p casekit-bench --bin repro af

# FOL resolution-engine artifact (BENCH_fol.json).
bench-fol:
    cargo run --release -q -p casekit-bench --bin repro fol

# LTL bounded-checking artifact (BENCH_ltl.json).
bench-ltl:
    cargo run --release -q -p casekit-bench --bin repro ltl

# Experiment-runtime speedup artifact (BENCH_experiments.json).
bench-experiments:
    cargo run --release -q -p casekit-bench --bin repro experiments

# CaseLint engine-vs-standalone-tools artifact (BENCH_lint.json).
bench-lint:
    cargo run --release -q -p casekit-bench --bin repro lint

# CaseService incremental-vs-batch artifact (BENCH_service.json).
bench-service:
    cargo run --release -q -p casekit-bench --bin repro service

# DSL-frontend corpus-ingestion artifact (BENCH_dsl.json).
bench-dsl:
    cargo run --release -q -p casekit-bench --bin repro dsl

# One BENCHMARK.json workload (ingest, check or session) through the
# benchmark's own command and run length: the end-to-end metrics at
# `--trace 0`, then the per-layer split of the same inputs at
# `--trace 1`. Run it on the parent and on the change for a perf PR's
# before/after.
perf workload="ingest" seed="1":
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload {{workload}} --seed {{seed}} --seconds 20 --trace 0
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload {{workload}} --seed {{seed}} --seconds 20 --trace 1

# Rustdoc for the workspace with warnings denied (the CI docs job).
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Regenerate every paper artifact.
repro:
    cargo run --release -q -p casekit-bench --bin repro
