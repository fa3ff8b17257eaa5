# Developer entry points. `just check` is the full local gate;
# `just ci` mirrors the GitHub workflow jobs exactly; `just perf
# [workload] [seed]` runs one BENCHMARK.json workload end to end, then
# traced for its per-layer split; `just perf-pairs <parent> [workload]
# [pairs]` runs alternating parent/change pairs of one workload.

# Format, lint, test, regenerate every BENCH_*.json, run the smoke
# bench gate, then the perfbench correctness smoke.
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

# Every BENCHMARK.json workload once at seed 1 for 5 s: fails unless
# each result line reads `"correct": true` with `"failed": 0`.
perf-smoke:
    ./scripts/perf_smoke.sh

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

# Alternating parent/change pairs of one BENCHMARK.json workload at its
# run length, seeds 1001 onwards, the first side flipping every pair:
# prints each pair, then each end-to-end metric's parent median, change
# median, ratio and the pairs the change won. Fails on any result line
# that is not correct with zero failed ops.
perf-pairs parent workload="session" pairs="10":
    ./scripts/perf_pairs.sh {{parent}} {{workload}} {{pairs}}

# Rustdoc for the workspace with warnings denied (the CI docs job).
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Print the ten paper artifacts (table1 through exp-e); the output is
# deterministic, so a diff against another build shows any change. The
# benchmark arms run by name (`just bench-logic`, …).
repro:
    cargo run --release -q -p casekit-bench --bin repro
