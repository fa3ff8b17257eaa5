//! Experiment E (§VI-E): do evidence-sufficiency judgments get harder
//! under formalisation?
//!
//! Assessors must judge, per item of evidence, whether it is *critical*
//! to the top claim. Two procedures:
//!
//! * **graph tracing** — follow the GSN path from the leaf to the root
//!   (the judgment the notation is "thought to ease");
//! * **proof probing** — Rushby's what-if: remove the corresponding formal
//!   premise and re-run the checker.
//!
//! Ground truth comes from the *actual* probe
//! ([`casekit_core::semantics::probe_argument`]) over generated arguments
//! containing both critical and idle evidence. Accuracy under tracing
//! depends on diligence; under probing it additionally requires logic
//! skill (reading the counterexample). Probing costs more minutes per
//! judgment (proof re-runs). We report time and inter-assessor agreement
//! per §VI-E: "if they report very different values, at least some must
//! be wrong".

use crate::population::{generate as generate_pool, PoolConfig, Subject};
use crate::runtime::{stream_rng, Runtime};
use crate::stats::{describe, pairwise_agreement, Descriptives};
use crate::Error;
use casekit_core::semantics::probe_argument;
use casekit_core::{Argument, FormalPayload, Node, NodeKind};
use casekit_logic::prop::Formula;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Judgment procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Procedure {
    /// Trace the GSN graph.
    GraphTracing,
    /// Probe the formal proof (Rushby's what-if).
    ProofProbing,
}

/// Configuration for experiment E.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Assessors per procedure.
    pub per_arm: usize,
    /// Evidence leaves per argument (half critical, half idle).
    pub leaves: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            per_arm: 12,
            leaves: 10,
            seed: 0xE,
        }
    }
}

/// Results of experiment E.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Minutes per full assessment (tracing arm).
    pub minutes_tracing: Descriptives,
    /// Minutes per full assessment (probing arm).
    pub minutes_probing: Descriptives,
    /// Mean pairwise agreement among tracing assessors.
    pub agreement_tracing: f64,
    /// Mean pairwise agreement among probing assessors.
    pub agreement_probing: f64,
    /// Accuracy against ground truth (tracing, probing).
    pub accuracy: (f64, f64),
}

/// Builds the judgment argument: `leaves` evidence goals, half of which
/// (`p0..`) the root needs and half of which are formally idle. The
/// caller ([`run_with`]) has already validated the leaf count.
fn judgment_argument(leaves: usize) -> Argument {
    let needed = leaves / 2;
    let root = Formula::conj((0..needed).map(|i| Formula::atom(format!("p{i}"))));
    let mut builder = Argument::builder("sufficiency").node(
        Node::new("g_root", NodeKind::Goal, "Top claim").with_formal(FormalPayload::Prop(root)),
    );
    for i in 0..leaves {
        let gid = format!("g{i}");
        let eid = format!("e{i}");
        // First half: atoms the root needs. Second half: idle extras.
        let atom = if i < needed {
            format!("p{i}")
        } else {
            format!("extra{i}")
        };
        builder = builder
            .node(
                Node::new(gid.as_str(), NodeKind::Goal, format!("Claim {i}"))
                    .with_formal(FormalPayload::Prop(Formula::atom(atom))),
            )
            .supported_by("g_root", &gid)
            .add(&eid, NodeKind::Solution, &format!("Evidence {i}"))
            .supported_by(&gid, &eid);
    }
    builder.build().expect("generated ids unique")
}

fn judgment_accuracy(subject: &Subject, procedure: Procedure) -> f64 {
    match procedure {
        Procedure::GraphTracing => 0.70 + 0.25 * subject.diligence,
        Procedure::ProofProbing => 0.40 + 0.30 * subject.diligence + 0.25 * subject.logic_skill,
    }
}

fn judgment_minutes(procedure: Procedure, leaves: usize, subject: &Subject) -> f64 {
    match procedure {
        Procedure::GraphTracing => leaves as f64 * 1.0 * (220.0 / subject.reading_wpm),
        // Each probe: edit, re-run, interpret.
        Procedure::ProofProbing => leaves as f64 * (2.0 + 2.0 * (1.0 - subject.logic_skill)),
    }
}

/// Runs experiment E serially (equivalent to
/// [`run_with`]`(config, &Runtime::serial())`).
pub fn run(config: &Config) -> Result<Report, Error> {
    run_with(config, &Runtime::serial())
}

/// Runs experiment E on the given runtime. The ground truth is probed
/// once from the formal skeleton; assessors are sharded across the
/// workers on per-subject RNG streams, so the report is identical for
/// every worker count.
pub fn run_with(config: &Config, rt: &Runtime) -> Result<Report, Error> {
    if config.leaves < 2 || !config.leaves.is_multiple_of(2) {
        return Err(Error::InvalidConfig(format!(
            "experiment E needs an even evidence-leaf count \u{2265} 2 \
             (half critical, half idle), got {}",
            config.leaves
        )));
    }
    let argument = judgment_argument(config.leaves);
    let probe = probe_argument(&argument).expect("argument has a formal skeleton");
    assert!(probe.entailed, "root must be entailed");
    let truth: Vec<bool> = (0..config.leaves)
        .map(|i| probe.critical.contains(&i))
        .collect();

    let mut pool = generate_pool(&PoolConfig {
        per_background: (config.per_arm * 2).div_ceil(6).max(1),
        seed: config.seed ^ 0xE11E,
        ..PoolConfig::default()
    });
    pool.truncate(config.per_arm * 2);

    let assessments = rt.map(&pool, |i, subject| {
        let mut rng = stream_rng(config.seed, 0, i as u64);
        let procedure = if i % 2 == 0 {
            Procedure::GraphTracing
        } else {
            Procedure::ProofProbing
        };
        let acc = judgment_accuracy(subject, procedure).clamp(0.0, 1.0);
        let row: Vec<bool> = truth
            .iter()
            .map(|&actual| if rng.gen_bool(acc) { actual } else { !actual })
            .collect();
        let mins = judgment_minutes(procedure, config.leaves, subject);
        (procedure, row, mins)
    });

    let mut minutes = (Vec::new(), Vec::new());
    let mut judgments: (Vec<Vec<bool>>, Vec<Vec<bool>>) = (Vec::new(), Vec::new());
    let mut correct = (0usize, 0usize);
    let mut total = (0usize, 0usize);

    for (procedure, row, mins) in assessments {
        match procedure {
            Procedure::GraphTracing => {
                correct.0 += row.iter().zip(&truth).filter(|(a, b)| a == b).count();
                total.0 += truth.len();
                minutes.0.push(mins);
                judgments.0.push(row);
            }
            Procedure::ProofProbing => {
                correct.1 += row.iter().zip(&truth).filter(|(a, b)| a == b).count();
                total.1 += truth.len();
                minutes.1.push(mins);
                judgments.1.push(row);
            }
        }
    }

    Ok(Report {
        minutes_tracing: describe(&minutes.0)?,
        minutes_probing: describe(&minutes.1)?,
        agreement_tracing: pairwise_agreement(&judgments.0)?,
        agreement_probing: pairwise_agreement(&judgments.1)?,
        accuracy: (
            correct.0 as f64 / total.0.max(1) as f64,
            correct.1 as f64 / total.1.max(1) as f64,
        ),
    })
}

impl Report {
    /// Renders the results table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Experiment E: evidence-sufficiency judgments (§VI-E)");
        let _ = writeln!(
            out,
            "  minutes/assessment: tracing {:.1} ± {:.1}, probing {:.1} ± {:.1}",
            self.minutes_tracing.mean,
            self.minutes_tracing.ci95,
            self.minutes_probing.mean,
            self.minutes_probing.ci95
        );
        let _ = writeln!(
            out,
            "  inter-assessor agreement: tracing {:.2}, probing {:.2}",
            self.agreement_tracing, self.agreement_probing
        );
        let _ = writeln!(
            out,
            "  accuracy vs ground truth: tracing {:.2}, probing {:.2}",
            self.accuracy.0, self.accuracy.1
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_splits_half_and_half() {
        let argument = judgment_argument(10);
        let probe = probe_argument(&argument).unwrap();
        assert!(probe.entailed);
        assert_eq!(probe.critical.len(), 5);
        assert_eq!(probe.idle.len(), 5);
    }

    #[test]
    fn tracing_is_faster() {
        let r = run(&Config::default()).unwrap();
        assert!(r.minutes_tracing.mean < r.minutes_probing.mean);
    }

    #[test]
    fn tracing_agrees_more() {
        let r = run(&Config::default()).unwrap();
        assert!(
            r.agreement_tracing > r.agreement_probing,
            "tracing {} vs probing {}",
            r.agreement_tracing,
            r.agreement_probing
        );
    }

    #[test]
    fn accuracies_above_chance() {
        let r = run(&Config::default()).unwrap();
        assert!(r.accuracy.0 > 0.6);
        assert!(r.accuracy.1 > 0.5);
        assert!(r.accuracy.0 > r.accuracy.1);
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            run(&Config::default()).unwrap(),
            run(&Config::default()).unwrap()
        );
    }

    #[test]
    fn parallel_report_identical_to_serial() {
        let config = Config {
            per_arm: 8,
            leaves: 8,
            seed: 0xE3,
        };
        let serial = run(&config).unwrap();
        for workers in [2, 4, 8] {
            let parallel = run_with(&config, &Runtime::with_workers(workers)).unwrap();
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn odd_leaf_count_is_an_error() {
        let err = run(&Config {
            leaves: 7,
            ..Config::default()
        })
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("even"));
    }

    #[test]
    fn single_assessor_arm_surfaces_a_stats_error() {
        // One assessor per arm: pairwise agreement needs at least two.
        let err = run(&Config {
            per_arm: 1,
            ..Config::default()
        })
        .unwrap_err();
        assert!(matches!(
            err,
            Error::Stats(crate::stats::StatsError::TooFewRaters { .. })
        ));
    }

    #[test]
    fn render_shows_both_arms() {
        let text = run(&Config::default()).unwrap().render();
        assert!(text.contains("tracing"));
        assert!(text.contains("probing"));
        assert!(text.contains("agreement"));
    }
}
