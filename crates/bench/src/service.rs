//! CaseService benchmark harness: a fleet of live cases under mixed
//! edit/query traffic, measured incremental against the honest
//! recompile-from-scratch baseline.
//!
//! The baseline arm is [`naive_service_traffic`]: a serial loop that
//! replays every case's traffic statelessly — edits apply to the
//! in-memory argument, and every query pays the full batch bill
//! ([`casekit_service::batch_answers`]: one Tseitin compilation for
//! the machine check, another for the lint run, a third for the
//! probe, all passes from cold caches). That is the access pattern of
//! a stateless checking endpoint re-answering each request from
//! source. The service arm is [`CaseService::drive`]: each case keeps
//! its compiled session alive across the stream — a persistent CDCL
//! session whose learned clauses and payload literals survive edits,
//! a witness pool answering every solver question — step verdicts
//! included — from the models and UNSAT sets of earlier questions and
//! revisions, and an answer bundle that makes repeat queries free —
//! with the per-case streams sharded across `casekit-runtime` workers.
//!
//! `bench_service_json` emits the comparison as `BENCH_service.json`
//! (via `repro service`), with every incremental answer cross-checked
//! against a fresh batch compilation (`answers_agree`) — at every
//! step of every stream, for worker counts 1, 2, and the full fleet —
//! so the speedup is earned on verdict-identical output. `speedup` is
//! baseline/parallel; `thread_speedup` isolates the worker
//! contribution (≈1.0 on a single-core host, where the session reuse
//! supplies the whole win).

use casekit_core::dsl::parse_argument;
use casekit_core::{Argument, FormalPayload, Node, NodeKind};
use casekit_logic::prop::parse;
use casekit_runtime::Runtime;
use casekit_service::{batch_transcript, CaseAnswers, CaseOp, CaseService, EditOp};
use serde::Serialize;

/// Workload shape: `cases` live arguments, each driven through
/// `rounds` rounds of mixed edit/query traffic.
#[derive(Debug, Clone)]
pub struct ServiceBenchConfig {
    /// Number of concurrently live cases.
    pub cases: usize,
    /// Formalised branch goals per case (≥ 3), each a deductive step
    /// over its own premise chain.
    pub premises: usize,
    /// Implication-chain links per premise formula.
    pub width: usize,
    /// Edit/query rounds per case (each round ends in a query; some
    /// rounds are query-only, as real editing sessions are).
    pub rounds: usize,
}

/// The full-scale workload behind the committed `BENCH_service.json`:
/// thousands of live cases.
pub fn scaled_config() -> ServiceBenchConfig {
    ServiceBenchConfig {
        cases: 2_000,
        premises: 4,
        width: 6,
        rounds: 6,
    }
}

/// Builds the corpus the traffic runs over. Every case is a two-level
/// deduction: the top claim (the conjunction of every branch's chain
/// end) argued over a strategy over `premises` formalised *branch*
/// goals, each branch goal in turn argued from its own premise chain
/// (the [`crate::lint`] chain generator, so formula scale matches the
/// lint substrate). Each branch is its own deductive step, which is
/// what makes step reuse measurable: editing one premise re-verifies
/// one branch and answers the rest from the witness pool. Case `k`
/// additionally carries a light defect mix (duplicate
/// evidence, an undeveloped side claim) so the lint plane answers more
/// than a clean stream.
pub fn service_corpus(config: &ServiceBenchConfig) -> Vec<Argument> {
    use std::fmt::Write as _;
    assert!(config.premises >= 3, "at least three branches");
    (0..config.cases)
        .map(|k| {
            let n = config.premises;
            let w = config.width;
            let conclusion = (0..n)
                .map(|i| crate::lint::atom(i, w))
                .collect::<Vec<_>>()
                .join(" & ");
            let mut src = format!("argument \"case-{k}\" {{\n");
            let _ = writeln!(
                src,
                "  goal g0 \"top-level claim\" formal \"{conclusion}\" {{"
            );
            src.push_str("    strategy s0 \"argue per subsystem branch\" {\n");
            for i in 0..n {
                let _ = writeln!(
                    src,
                    "      goal b{i} \"branch {i} chain end\" formal \"{}\" {{",
                    crate::lint::atom(i, w)
                );
                let _ = writeln!(
                    src,
                    "        goal p{i} \"premise {i}\" formal \"{}\" {{",
                    crate::lint::premise_src(i, w)
                );
                let _ = writeln!(src, "          solution e{i} \"analysis report {i}\"");
                if i == 0 && k % 4 == 1 {
                    src.push_str("          solution d1 \"Stress test log\"\n");
                    src.push_str("          solution d2 \"stress  test log\"\n");
                }
                src.push_str("        }\n");
                src.push_str("      }\n");
            }
            if k % 4 == 3 {
                src.push_str("      goal u1 \"unargued side claim\"\n");
            }
            src.push_str("    }\n");
            src.push_str("  }\n");
            src.push_str("}\n");
            parse_argument(&src).expect("generated corpus parses")
        })
        .collect()
}

/// The deterministic mixed traffic stream for case `k`: an opening
/// query, then `rounds` rounds cycling through premise-breaking edits,
/// query-only rounds (the common case in live editing), premise
/// restores with a text touch-up, and structural add/remove toggles of
/// an extra supporting premise. Every round ends in a query, so every
/// revision's answers enter the agreement cross-check.
pub fn service_traffic(config: &ServiceBenchConfig) -> Vec<Vec<CaseOp>> {
    (0..config.cases)
        .map(|k| {
            let mut ops = vec![CaseOp::Query];
            let mut extra_live = false;
            for r in 0..config.rounds {
                let target_premise = (k + r) % config.premises;
                let target = casekit_core::NodeId::new(format!("p{target_premise}"));
                match (k + r) % 4 {
                    0 => {
                        // Sever the chain's last link: the conclusion
                        // loses this premise's chain end.
                        ops.push(CaseOp::Edit(EditOp::ReplaceFormula {
                            node: target,
                            formula: parse(&crate::lint::premise_src(
                                target_premise,
                                config.width - 1,
                            ))
                            .expect("generated formula parses"),
                        }));
                    }
                    1 => {
                        // Query-only round: served from the answer cache.
                    }
                    2 => {
                        // Restore the chain and touch the statement text.
                        ops.push(CaseOp::Edit(EditOp::ReplaceFormula {
                            node: target,
                            formula: parse(&crate::lint::premise_src(target_premise, config.width))
                                .expect("generated formula parses"),
                        }));
                        ops.push(CaseOp::Edit(EditOp::SetText {
                            node: "g0".into(),
                            text: format!("top-level claim, revision {r}"),
                        }));
                    }
                    _ => {
                        // Structural toggle of an extra supporting premise.
                        if extra_live {
                            ops.push(CaseOp::Edit(EditOp::RemoveNode { node: "w0".into() }));
                        } else {
                            ops.push(CaseOp::Edit(EditOp::AddSupport {
                                parent: "s0".into(),
                                node: Node::new("w0", NodeKind::Goal, "late-added premise")
                                    .with_formal(FormalPayload::Prop(
                                        parse(&crate::lint::atom(config.premises, 0))
                                            .expect("generated formula parses"),
                                    )),
                            }));
                        }
                        extra_live = !extra_live;
                    }
                }
                // Two queries per round: a service answers more reads
                // than writes (check panel, lint stream, dashboards all
                // ask again). The second read is served from the answer
                // bundle; the stateless baseline pays full price twice.
                ops.push(CaseOp::Query);
                ops.push(CaseOp::Query);
            }
            ops
        })
        .collect()
}

/// The baseline arm: serial, stateless — every query recompiles the
/// current revision from scratch, three times over (machine, lint,
/// probe), exactly as the pre-service library entry points do.
pub fn naive_service_traffic(
    corpus: &[Argument],
    traffic: &[Vec<CaseOp>],
    config: &casekit_analysis::LintConfig,
) -> Vec<Vec<CaseAnswers>> {
    corpus
        .iter()
        .zip(traffic)
        .map(|(argument, ops)| batch_transcript(argument, ops, config))
        .collect()
}

/// The service arm: live sessions, sharded across the runtime.
fn service_run(
    corpus: &[Argument],
    traffic: &[Vec<CaseOp>],
    runtime: &Runtime,
) -> (CaseService, Vec<Vec<CaseAnswers>>) {
    let mut service = CaseService::new();
    for argument in corpus {
        service.open(argument.clone());
    }
    let transcripts = service.drive(traffic, runtime);
    (service, transcripts)
}

/// The measured comparison, serialized into `BENCH_service.json`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServiceBenchReport {
    /// Concurrently live cases.
    pub cases: usize,
    /// Formalised premises per case.
    pub premises_per_case: usize,
    /// Implication-chain links per premise formula.
    pub chain_width: usize,
    /// Edit/query rounds per case.
    pub rounds_per_case: usize,
    /// Total edit ops across the fleet.
    pub edits: usize,
    /// Total queries across the fleet (each cross-checked).
    pub queries: usize,
    /// Worker threads used for the parallel run.
    pub workers: usize,
    /// Cores the host exposed during the measurement (bounds
    /// `thread_speedup`).
    pub host_parallelism: usize,
    /// Stateless recompile-from-scratch replay (serial), milliseconds,
    /// best of several runs.
    pub baseline_ms: f64,
    /// Live sessions with one worker, milliseconds, best of several
    /// runs.
    pub serial_ms: f64,
    /// Live sessions with the full worker count, milliseconds, best of
    /// several runs.
    pub parallel_ms: f64,
    /// baseline / parallel — the end-to-end win of keeping sessions
    /// alive.
    pub speedup: f64,
    /// serial / parallel — the worker contribution alone.
    pub thread_speedup: f64,
    /// Support-step verdicts paid to the solver across the serial run.
    pub steps_checked: u64,
    /// Step verdicts the witness pool answered without the solver.
    pub steps_reused: u64,
    /// Queries answered entirely from cached answer bundles.
    pub cached_answers: u64,
    /// Whole-theory invalidations (garbage compaction) triggered.
    pub full_rebuilds: u64,
    /// Sanity: the stateless baseline and the live service at workers
    /// 1, 2, and the full count produced identical transcripts —
    /// every incremental answer equals a fresh batch compilation.
    pub answers_agree: bool,
}

/// Runs the comparison on the full-scale workload.
pub fn run_service_bench(workers: usize) -> ServiceBenchReport {
    run_service_bench_with(&scaled_config(), workers)
}

/// Runs the comparison on an explicit workload shape (`repro gate` passes
/// its smoke-scale one).
pub fn run_service_bench_with(config: &ServiceBenchConfig, workers: usize) -> ServiceBenchReport {
    let corpus = service_corpus(config);
    let traffic = service_traffic(config);
    let lint_config = casekit_analysis::LintConfig::new();

    let (baseline_ms, baseline_answers) =
        crate::best_of_ms(3, || naive_service_traffic(&corpus, &traffic, &lint_config));
    let serial_runtime = Runtime::serial();
    let (serial_ms, (serial_service, serial_answers)) =
        crate::best_of_ms(3, || service_run(&corpus, &traffic, &serial_runtime));
    let runtime = Runtime::with_workers(workers);
    let (parallel_ms, (_, parallel_answers)) =
        crate::best_of_ms(3, || service_run(&corpus, &traffic, &runtime));

    // Transcript equality across the baseline and an unmeasured worker
    // count: every incremental answer, at every step, equals the
    // from-scratch answer.
    let (_, halfway) = service_run(&corpus, &traffic, &Runtime::with_workers(2));
    let answers_agree = baseline_answers == serial_answers
        && serial_answers == parallel_answers
        && serial_answers == halfway;

    let mut serial_service = serial_service;
    let stats: Vec<_> = serial_service
        .sessions_mut()
        .iter()
        .map(|s| s.stats())
        .collect();
    ServiceBenchReport {
        cases: corpus.len(),
        premises_per_case: config.premises,
        chain_width: config.width,
        rounds_per_case: config.rounds,
        edits: traffic
            .iter()
            .flatten()
            .filter(|op| matches!(op, CaseOp::Edit(_)))
            .count(),
        queries: traffic
            .iter()
            .flatten()
            .filter(|op| matches!(op, CaseOp::Query))
            .count(),
        workers: runtime.workers,
        host_parallelism: Runtime::host_parallelism(),
        baseline_ms,
        serial_ms,
        parallel_ms,
        speedup: baseline_ms / parallel_ms.max(1e-9),
        thread_speedup: serial_ms / parallel_ms.max(1e-9),
        steps_checked: stats.iter().map(|s| s.steps_checked).sum(),
        steps_reused: stats.iter().map(|s| s.steps_reused).sum(),
        cached_answers: stats.iter().map(|s| s.cached_answers).sum(),
        full_rebuilds: stats.iter().map(|s| s.full_rebuilds).sum(),
        answers_agree,
    }
}

/// Renders the report as JSON (the `BENCH_service.json` artifact).
pub fn bench_service_json(report: &ServiceBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Human-readable summary for the repro binary.
pub fn render_report(report: &ServiceBenchReport) -> String {
    format!(
        "case service over {} live cases ({} premises x {}-link chains, {} edits, {} queries)\n\
           baseline (recompile per query, serial):   {:>10.3} ms\n\
           service, 1 worker (live sessions):        {:>10.3} ms\n\
           service, {} workers ({} cores):           {:>10.3} ms\n\
           steps checked/reused: {}/{}   cached answers: {}   rebuilds: {}\n\
           speedup: {:.1}x (threads alone: {:.2}x)   answers agree: {}\n",
        report.cases,
        report.premises_per_case,
        report.chain_width,
        report.edits,
        report.queries,
        report.baseline_ms,
        report.serial_ms,
        report.workers,
        report.host_parallelism,
        report.parallel_ms,
        report.steps_checked,
        report.steps_reused,
        report.cached_answers,
        report.full_rebuilds,
        report.speedup,
        report.thread_speedup,
        report.answers_agree
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServiceBenchConfig {
        ServiceBenchConfig {
            cases: 6,
            premises: 3,
            width: 3,
            rounds: 5,
        }
    }

    #[test]
    fn traffic_covers_every_op_class_and_ends_rounds_with_queries() {
        let config = tiny();
        let traffic = service_traffic(&config);
        assert_eq!(traffic.len(), config.cases);
        let all: Vec<&CaseOp> = traffic.iter().flatten().collect();
        assert!(all
            .iter()
            .any(|op| matches!(op, CaseOp::Edit(EditOp::ReplaceFormula { .. }))));
        assert!(all
            .iter()
            .any(|op| matches!(op, CaseOp::Edit(EditOp::SetText { .. }))));
        assert!(all
            .iter()
            .any(|op| matches!(op, CaseOp::Edit(EditOp::AddSupport { .. }))));
        assert!(all
            .iter()
            .any(|op| matches!(op, CaseOp::Edit(EditOp::RemoveNode { .. }))));
        for stream in &traffic {
            assert!(matches!(stream.last(), Some(CaseOp::Query)));
        }
    }

    #[test]
    fn service_transcripts_match_the_stateless_baseline() {
        let config = tiny();
        let corpus = service_corpus(&config);
        let traffic = service_traffic(&config);
        let lint_config = casekit_analysis::LintConfig::new();
        let baseline = naive_service_traffic(&corpus, &traffic, &lint_config);
        for workers in [1, 3] {
            let (_, transcripts) = service_run(&corpus, &traffic, &Runtime::with_workers(workers));
            assert_eq!(baseline, transcripts, "workers = {workers}");
        }
    }

    #[test]
    fn report_json_has_the_gate_fields() {
        let report = run_service_bench_with(&tiny(), 2);
        assert!(report.answers_agree);
        assert!(report.steps_reused > 0);
        assert!(report.cached_answers > 0);
        let json = bench_service_json(&report);
        assert!(json.contains("\"answers_agree\": true"));
        assert!(json.contains("\"speedup\""));
        assert!(render_report(&report).contains("answers agree: true"));
    }
}
