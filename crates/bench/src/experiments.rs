//! Experiment-runtime benchmark harness: the §VI-A review study at
//! population scale, measured three ways over identical materials.
//!
//! The seed ran every simulated review serially off one shared RNG and
//! re-ran [`check_argument`] — a full Tseitin recompilation of the
//! argument's propositional payloads — once per treatment review.
//! [`legacy_exp_a`] reproduces that access pattern faithfully against
//! the new per-subject RNG streams (so its report is byte-identical and
//! the comparison is *only* about the execution strategy). The
//! replacement is `exp_a::run_with`: one compilation and one machine
//! check per argument for the whole population, the findings shared by
//! every review, subjects sharded across scoped worker threads.
//!
//! [`bench_experiments_json`] emits the comparison as
//! `BENCH_experiments.json` (via `repro experiments`), with all
//! engines' reports checked identical (`reports_agree`) — the
//! serial/parallel byte-equality guarantee, measured, not assumed.
//! `speedup` is the legacy-vs-runtime ratio, mirroring
//! `BENCH_graph.json` / `BENCH_logic.json`; `thread_speedup` isolates
//! the scoped-thread contribution (≈1.0 on a single-core host, where
//! the compile-once machine sweep supplies the whole win).

use casekit_experiments::exp_a;
use casekit_experiments::reviewer::{review, ReviewScope};
use casekit_experiments::runtime::{stream_rng, Runtime};
use casekit_experiments::stats::{describe, welch_t_test};
use casekit_fallacies::checker::check_argument;
use serde::Serialize;

/// The scaled-up population: 2 400 subjects (1 200 per arm) reviewing
/// six seeded arguments each — 14 400 reviews, 7 200 of them in the
/// machine-checked treatment arm.
pub fn scaled_config() -> exp_a::Config {
    exp_a::Config {
        per_arm: 1200,
        arguments: 6,
        hazards: 10,
        seed: 0x5CA1E,
    }
}

/// The pre-runtime measurement loop: one subject at a time, and every
/// treatment review pays a fresh [`check_argument`] compilation instead
/// of sharing one compilation per argument. Byte-identical output to
/// `exp_a::run_with` by construction — same materials
/// ([`exp_a::materials`]), same per-subject RNG streams, same
/// reduction.
pub fn legacy_exp_a(config: &exp_a::Config) -> exp_a::Report {
    let (pool, cases) = exp_a::materials(config).expect("benchmark config is valid");

    let mut minutes_control = Vec::new();
    let mut minutes_treatment = Vec::new();
    let mut human_formal_hits = 0usize;
    let mut human_formal_total = 0usize;
    let mut machine_formal_hits = 0usize;
    let mut machine_formal_total = 0usize;
    let mut informal_hits = (0usize, 0usize);
    let mut informal_total = (0usize, 0usize);

    for (i, subject) in pool.iter().enumerate() {
        let control = i % 2 == 0;
        let mut rng = stream_rng(config.seed, 0, i as u64);
        let scope = if control {
            ReviewScope::InformalAndFormal
        } else {
            ReviewScope::InformalOnly
        };
        let mut total_minutes = 0.0;
        for case in &cases {
            let outcome = review(subject, &case.case, &case.formal, scope, &mut rng);
            total_minutes += outcome.minutes;
            if control {
                human_formal_hits += outcome.formal_found.len();
                human_formal_total += case.formal.len();
                informal_hits.0 += outcome.informal_found.len();
                informal_total.0 += case.case.seeded.len();
            } else {
                informal_hits.1 += outcome.informal_found.len();
                informal_total.1 += case.case.seeded.len();
                // The legacy cost centre: recompile + re-check per review.
                let findings = check_argument(&case.case.argument).findings;
                for seeded in &case.formal {
                    machine_formal_total += 1;
                    if findings.iter().any(|f| seeded.matches(f)) {
                        machine_formal_hits += 1;
                    }
                }
            }
        }
        if control {
            minutes_control.push(total_minutes);
        } else {
            minutes_treatment.push(total_minutes);
        }
    }

    exp_a::Report {
        minutes_control: describe(&minutes_control).expect("control arm is non-empty"),
        minutes_treatment: describe(&minutes_treatment).expect("treatment arm is non-empty"),
        minutes_test: welch_t_test(&minutes_control, &minutes_treatment)
            .expect("arms have n \u{2265} 2"),
        formal_catch_human: human_formal_hits as f64 / human_formal_total.max(1) as f64,
        formal_catch_machine: machine_formal_hits as f64 / machine_formal_total.max(1) as f64,
        informal_catch: (
            informal_hits.0 as f64 / informal_total.0.max(1) as f64,
            informal_hits.1 as f64 / informal_total.1.max(1) as f64,
        ),
    }
}

/// The measured comparison, serialized into `BENCH_experiments.json`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ExperimentsBenchReport {
    /// Simulated subjects across both arms.
    pub subjects: usize,
    /// Generated arguments in the review set.
    pub arguments: usize,
    /// Total simulated reviews (subjects × arguments).
    pub reviews: usize,
    /// Worker threads used for the parallel run.
    pub workers: usize,
    /// Cores the host exposed during the measurement. `thread_speedup`
    /// is bounded by this: on a single-core host the parallel plan
    /// degrades to the serial plan and the honest ratio is ≈1.0.
    pub host_parallelism: usize,
    /// Legacy loop (serial, recompile + re-check per treatment review),
    /// milliseconds (best of several runs, like the other arms).
    pub legacy_ms: f64,
    /// Runtime with `workers = 1` (one machine check per argument,
    /// serial measurement loop), milliseconds (best of several runs).
    pub serial_ms: f64,
    /// Runtime with the full worker count, milliseconds (best of
    /// several runs).
    pub parallel_ms: f64,
    /// legacy / parallel — the end-to-end win of the runtime.
    pub speedup: f64,
    /// serial / parallel — the scoped-thread contribution alone
    /// (bounded by the host's core count).
    pub thread_speedup: f64,
    /// Sanity: legacy, serial, and every parallel worker count
    /// produced byte-identical reports.
    pub reports_agree: bool,
}

/// Runs the comparison on the scaled population with `workers` threads
/// for the parallel arm.
pub fn run_experiments_bench(workers: usize) -> ExperimentsBenchReport {
    run_experiments_bench_with(&scaled_config(), workers)
}

/// Runs the comparison on an explicit population configuration
/// (`repro gate` passes its smoke-scale one).
pub fn run_experiments_bench_with(
    config: &exp_a::Config,
    workers: usize,
) -> ExperimentsBenchReport {
    let config = config.clone();

    // Best-of-3 for every arm, legacy included: an asymmetric
    // single-sample legacy measurement would bias the published ratio.
    let (legacy_ms, legacy_report) = crate::best_of_ms(3, || legacy_exp_a(&config));
    let (serial_ms, serial_report) = crate::best_of_ms(3, || {
        exp_a::run_with(&config, &Runtime::serial()).expect("valid config")
    });
    let runtime = Runtime::with_workers(workers);
    let (parallel_ms, parallel_report) = crate::best_of_ms(3, || {
        exp_a::run_with(&config, &runtime).expect("valid config")
    });

    // Byte-equality across every execution strategy, including an
    // intermediate worker count not otherwise measured.
    let halfway = exp_a::run_with(&config, &Runtime::with_workers(2)).expect("valid config");
    let reports_agree = legacy_report == serial_report
        && serial_report == parallel_report
        && serial_report == halfway;

    ExperimentsBenchReport {
        subjects: config.per_arm * 2,
        arguments: config.arguments,
        reviews: config.per_arm * 2 * config.arguments,
        workers: runtime.workers,
        host_parallelism: Runtime::host_parallelism(),
        legacy_ms,
        serial_ms,
        parallel_ms,
        speedup: legacy_ms / parallel_ms.max(1e-9),
        thread_speedup: serial_ms / parallel_ms.max(1e-9),
        reports_agree,
    }
}

/// Renders the report as JSON (the `BENCH_experiments.json` artifact).
pub fn bench_experiments_json(report: &ExperimentsBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Human-readable summary for the repro binary.
pub fn render_report(report: &ExperimentsBenchReport) -> String {
    format!(
        "experiment runtime over {} subjects x {} arguments ({} reviews)\n\
           legacy serial (recompile + recheck per review):  {:>10.3} ms\n\
           runtime, 1 worker (one check per argument):      {:>10.3} ms\n\
           runtime, {} workers ({} cores):                  {:>10.3} ms\n\
           speedup: {:.1}x (threads alone: {:.2}x)   reports agree: {}\n",
        report.subjects,
        report.arguments,
        report.reviews,
        report.legacy_ms,
        report.serial_ms,
        report.workers,
        report.host_parallelism,
        report.parallel_ms,
        report.speedup,
        report.thread_speedup,
        report.reports_agree
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_loop_matches_runtime_byte_for_byte() {
        // Small scale: the full-size run lives in `repro experiments`.
        let config = exp_a::Config {
            per_arm: 12,
            arguments: 3,
            hazards: 6,
            seed: 0xBE,
        };
        let legacy = legacy_exp_a(&config);
        let runtime = exp_a::run_with(&config, &Runtime::serial()).unwrap();
        assert_eq!(legacy, runtime);
        let parallel = exp_a::run_with(&config, &Runtime::with_workers(4)).unwrap();
        assert_eq!(legacy, parallel);
    }

    #[test]
    fn report_json_has_the_gate_fields() {
        let report = ExperimentsBenchReport {
            subjects: 8,
            arguments: 2,
            reviews: 16,
            workers: 4,
            host_parallelism: 4,
            legacy_ms: 10.0,
            serial_ms: 2.0,
            parallel_ms: 1.0,
            speedup: 10.0,
            thread_speedup: 2.0,
            reports_agree: true,
        };
        let json = bench_experiments_json(&report);
        assert!(json.contains("\"reports_agree\": true"));
        assert!(json.contains("\"speedup\""));
        assert!(render_report(&report).contains("reports agree: true"));
    }
}
