//! The bench-regression gate behind `repro gate`: the one place that
//! decides which benchmark numbers block a merge.
//!
//! The gate runs the nine benchmark arms on small fixed-seed inputs for
//! [`ROUNDS`] round-robin rounds (round 1 runs every arm once, then
//! round 2, and so on, so a slow spell on the host spreads over every
//! arm instead of landing on one). It then judges the typed reports:
//! every floor on the median of its per-round values, so one noisy
//! round can neither sink nor rescue it, and every agreement flag of
//! [`Report::flags`] in every round. Floors and the round count are
//! constants; no option or environment variable moves them.
//!
//! Full-scale `repro <artefact>` runs are judged here too
//! ([`full_scale_holds`]): every agreement flag must hold.

use crate::af::AfBenchReport;
use crate::dsl::{DslBenchConfig, DslBenchReport};
use crate::experiments::ExperimentsBenchReport;
use crate::fol::FolBenchReport;
use crate::graph::GraphBenchReport;
use crate::lint::{LintBenchConfig, LintBenchReport};
use crate::logic::LogicBenchReport;
use crate::ltl::LtlBenchReport;
use crate::service::{ServiceBenchConfig, ServiceBenchReport};
use casekit_experiments::exp_a;

/// Rounds per gate run; every floor is judged on their median.
pub const ROUNDS: usize = 5;

/// The largest framework the full-scale `repro af` run decomposes.
pub const FULL_SCALE_AF_SCC_N: usize = 100_000;

/// One agreement flag: the invariant a report records, and whether it
/// held.
pub type Flag = (String, bool);

/// A benchmark report with agreement flags, which the gate requires in
/// every smoke round and `repro <artefact>` at full scale.
pub trait Report {
    /// Each flag, named after its report field.
    fn flags(&self) -> Vec<Flag>;
}

/// `plain_flags!(ReportType: field, nested.field; ...)`: [`Report`]
/// impls whose flags are `bool` fields, named after them.
macro_rules! plain_flags {
    ($($report:ty: $($($field:ident).+),+;)+) => {$(
        impl Report for $report {
            fn flags(&self) -> Vec<Flag> {
                vec![$((stringify!($($field).+).into(), self.$($field).+)),+]
            }
        }
    )+};
}

plain_flags! {
    GraphBenchReport: sweeps_agree;
    LogicBenchReport: verdicts_agree, hard.verdicts_agree;
    LtlBenchReport: answers_agree;
    ExperimentsBenchReport: reports_agree;
    LintBenchReport: diagnostics_agree;
    ServiceBenchReport: answers_agree;
    DslBenchReport: diagnostics_roundtrip;
}

/// The three engine agreements, the dialogue invariant at every SAT-path
/// size, and the monolithic cross-check of every decomposed scenario
/// that had one (at least one must).
impl Report for AfBenchReport {
    fn flags(&self) -> Vec<Flag> {
        let mut flags = vec![
            ("extensions_agree".into(), self.extensions_agree),
            ("grounded_agree".into(), self.grounded_agree),
            ("scc_agree".into(), self.scc_agree),
        ];
        for size in &self.sizes {
            let name = format!("sizes[n={}].deliberation_preferred_is_grounded", size.n);
            flags.push((name, size.deliberation_preferred_is_grounded));
        }
        let mut crosschecked = false;
        for scenario in &self.decomposed {
            if let Some(agrees) = scenario.agrees_with_monolithic {
                let (generator, n) = (&scenario.generator, scenario.n);
                flags.push((
                    format!("decomposed[{generator} n={n}].agrees_with_monolithic"),
                    agrees,
                ));
                crosschecked = true;
            }
        }
        flags.push(("decomposed cross-checked".into(), crosschecked));
        flags
    }
}

impl Report for FolBenchReport {
    fn flags(&self) -> Vec<Flag> {
        vec![
            ("answers_agree".into(), self.answers_agree),
            ("chain_proved".into(), self.chain_proved),
            ("chain_truncated == false".into(), !self.chain_truncated),
        ]
    }
}

/// One arm of a round: its name, its report, and its `BENCH_*.json`
/// writer.
type Arm<'a> = (&'static str, &'a dyn Report, fn(&Round) -> String);

/// One smoke round: each arm's typed report.
#[derive(Debug, Clone, Default)]
struct Round {
    graph: GraphBenchReport,
    logic: LogicBenchReport,
    af: AfBenchReport,
    fol: FolBenchReport,
    ltl: LtlBenchReport,
    experiments: ExperimentsBenchReport,
    lint: LintBenchReport,
    service: ServiceBenchReport,
    dsl: DslBenchReport,
}

impl Round {
    /// Runs the nine arms once each, in order, on the smoke inputs; the
    /// parallel arms use `workers` threads.
    fn run(workers: usize) -> Round {
        let experiments = exp_a::Config {
            per_arm: 150,
            arguments: 4,
            hazards: 8,
            seed: 0x5CA1E,
        };
        // Large enough that the compile-once ratio is stable.
        let lint = LintBenchConfig {
            arguments: 30,
            premises: 3,
            width: 18,
        };
        // Mixed enough that every op class and session cache runs.
        let service = ServiceBenchConfig {
            cases: 60,
            premises: 3,
            width: 10,
            rounds: 5,
        };
        // Every defect class appears over a hundred times.
        let dsl = DslBenchConfig {
            files: 960,
            nodes_per_file: 8,
        };
        Round {
            graph: crate::graph::run_graph_bench(2_000),
            logic: crate::logic::run_logic_bench(24, &crate::logic::hard_population_smoke()),
            // Decomposed scenarios to 20k arguments, cross-checked
            // against the monolithic encoding at 2k.
            af: crate::af::run_af_bench(12, 4, 120, &[12, 50], &[2_000, 20_000], 2_000),
            fol: crate::fol::run_fol_bench(&[100, 200], 4_000),
            ltl: crate::ltl::run_ltl_bench(&[(10, 30, 9)], (12, 36, 10)),
            experiments: crate::experiments::run_experiments_bench_with(&experiments, workers),
            lint: crate::lint::run_lint_bench_with(&lint, workers),
            service: crate::service::run_service_bench_with(&service, workers),
            dsl: crate::dsl::run_dsl_bench_with(&dsl, workers),
        }
    }

    /// Every arm's flags, named `arm.field`.
    fn flags(&self) -> Vec<Flag> {
        let mut flags = Vec::new();
        for (arm, report, _) in self.arms() {
            let named = report.flags().into_iter();
            flags.extend(named.map(|(field, holds)| (format!("{arm}.{field}"), holds)));
        }
        flags
    }

    /// Each arm's name, report, and `BENCH_*.json` writer.
    fn arms(&self) -> [Arm<'_>; 9] {
        use crate::{af, dsl, experiments, fol, graph, lint, logic, ltl, service};
        [
            ("graph", &self.graph, |r| graph::bench_graph_json(&r.graph)),
            ("logic", &self.logic, |r| logic::bench_logic_json(&r.logic)),
            ("af", &self.af, |r| af::bench_af_json(&r.af)),
            ("fol", &self.fol, |r| fol::bench_fol_json(&r.fol)),
            ("ltl", &self.ltl, |r| ltl::bench_ltl_json(&r.ltl)),
            ("experiments", &self.experiments, |r| {
                experiments::bench_experiments_json(&r.experiments)
            }),
            ("lint", &self.lint, |r| lint::bench_lint_json(&r.lint)),
            ("service", &self.service, |r| {
                service::bench_service_json(&r.service)
            }),
            ("dsl", &self.dsl, |r| dsl::bench_dsl_json(&r.dsl)),
        ]
    }
}

/// A floor: `(report field, reader, minimum)`.
type Floor = (&'static str, fn(&Round) -> f64, f64);

/// `floor!(arm.field >= minimum)`: a [`Floor`] on one report field.
macro_rules! floor {
    ($arm:ident $(. $field:ident)+ >= $min:expr) => {
        (stringify!($arm$(.$field)+), |r: &Round| r.$arm$(.$field)+ as f64, $min)
    };
}

/// Every smoke floor on a host with `host_parallelism` cores.
///
/// Most sit far below the measured values, so they trip on regressions
/// rather than noise; lint's 10x and service's 5x are their features'
/// acceptance criteria at the stated value. Two relax on one core,
/// where a parallel plan cannot beat the serial one: experiments
/// `thread_speedup` (the same work serially and on every core) and DSL
/// `speedup` (the recovering frontend does more work per defective file
/// than the seed parser, so it only wins when idle cores absorb the
/// recovery). `clean_speedup` compares the same work on one thread
/// each. `af.scc_largest_n` is a framework only the decomposed engine
/// reaches in smoke time.
fn floors(host_parallelism: usize) -> [Floor; 15] {
    let multi_core = host_parallelism > 1;
    [
        floor!(graph.speedup >= 50.0),
        floor!(logic.speedup >= 10.0),
        floor!(logic.hard.dpll_over_cdcl >= 2.0),
        floor!(af.sat_over_naive >= 10.0),
        floor!(af.grounded_over_naive >= 50.0),
        floor!(af.scc_largest_n >= 20_000.0),
        floor!(fol.speedup >= 10.0),
        floor!(ltl.speedup >= 10.0),
        floor!(experiments.speedup >= 3.0),
        floor!(experiments.thread_speedup >= if multi_core { 1.0 } else { 0.95 }),
        floor!(lint.speedup >= 10.0),
        floor!(service.speedup >= 5.0),
        floor!(dsl.speedup >= if multi_core { 1.0 } else { 0.3 }),
        floor!(dsl.engine_mb_per_s >= 2.0),
        floor!(dsl.clean_speedup >= 1.0),
    ]
}

/// One judged floor or flag: `arm.field`, the values shown for it,
/// and whether it passed.
type Check = (String, String, bool);

/// The median of an odd number of values (the upper median of an even
/// number). A NaN sorts last.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Judges `rounds`: every floor on its median, at the host parallelism
/// the experiments arm recorded, then every flag of the first round in
/// every round. A flag missing from a round fails.
fn judge(rounds: &[Round]) -> Vec<Check> {
    let mut checks = Vec::new();
    for (name, read, floor) in floors(rounds[0].experiments.host_parallelism) {
        let values: Vec<f64> = rounds.iter().map(read).collect();
        let median = median(&values);
        let shown: String = values.iter().map(|v| format!(" {v:>9.2}")).collect();
        let shown = format!("{shown}  median {median:>9.2}  floor {floor:>6}");
        checks.push((name.into(), shown, median >= floor));
    }
    let per_round: Vec<Vec<Flag>> = rounds.iter().map(Round::flags).collect();
    for (name, _) in &per_round[0] {
        let values: Vec<Option<bool>> = per_round
            .iter()
            .map(|round| round.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
            .collect();
        let shown = values
            .iter()
            .map(|v| v.map_or("missing".into(), |v| v.to_string()));
        let shown: String = shown.map(|v| format!(" {v:>9}")).collect();
        checks.push((name.clone(), shown, values.iter().all(|v| *v == Some(true))));
    }
    checks
}

/// `repro gate`: runs [`ROUNDS`] round-robin smoke rounds, writes the
/// last round's reports as `BENCH_*.smoke.json`, prints one line per
/// check, and returns whether every check passed. The parallel arms use
/// [`crate::experiments_bench_workers`] threads.
pub fn run() -> bool {
    let workers = crate::experiments_bench_workers();
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 1..=ROUNDS {
        let start = std::time::Instant::now();
        rounds.push(Round::run(workers));
        let secs = start.elapsed().as_secs_f64();
        eprintln!("round {round}/{ROUNDS}: nine arms in {secs:.2} s");
    }
    let last = &rounds[ROUNDS - 1];
    for (arm, _, json) in last.arms() {
        crate::write_artifact(&format!("BENCH_{arm}.smoke.json"), &json(last));
    }
    let checks = judge(&rounds);
    for (name, shown, ok) in &checks {
        println!("{name:<60}{shown}  {}", if *ok { "ok" } else { "FAIL" });
    }
    let failed = checks.iter().filter(|(_, _, ok)| !ok).count();
    let verdict = if failed == 0 { "passed" } else { "FAILED" };
    println!(
        "Bench gate {verdict}: {failed} of {} checks failed over {ROUNDS} rounds.",
        checks.len()
    );
    failed == 0
}

/// The full-scale `repro af` checks: its agreement flags, plus the
/// decomposed engine completing a [`FULL_SCALE_AF_SCC_N`]-argument
/// framework.
pub fn af_full_scale_flags(report: &AfBenchReport) -> Vec<Flag> {
    let mut flags = report.flags();
    let reached = report.scc_largest_n == FULL_SCALE_AF_SCC_N;
    flags.push((format!("scc_largest_n == {FULL_SCALE_AF_SCC_N}"), reached));
    flags
}

/// Judges a full-scale `repro <artefact>` run: prints each false flag to
/// stderr and returns whether all held. `repro` exits 1 when this is
/// false.
pub fn full_scale_holds(artefact: &str, flags: &[Flag]) -> bool {
    for (name, _) in flags.iter().filter(|(_, holds)| !holds) {
        eprintln!("FAIL: repro {artefact}: {name} is false");
    }
    flags.iter().all(|&(_, holds)| holds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::af::{AfSccSizeReport, AfSizeReport};

    /// Five default rounds: every floor reads 0 and every flag is false.
    fn rounds(host_parallelism: usize) -> Vec<Round> {
        let mut round = Round::default();
        round.experiments.host_parallelism = host_parallelism;
        vec![round; ROUNDS]
    }

    /// The values shown for the check named `name` on `rounds`, and
    /// whether it passes.
    fn check(rounds: &[Round], name: &str) -> (String, bool) {
        let (_, shown, ok) = judge(rounds).into_iter().find(|c| c.0 == name).expect(name);
        (shown, ok)
    }

    fn passes(rounds: &[Round], name: &str) -> bool {
        check(rounds, name).1
    }

    #[test]
    fn median_is_the_middle_value() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert!(median(&[1.0, f64::NAN, f64::NAN]).is_nan());
    }

    #[test]
    fn floors_are_judged_on_the_median_of_five() {
        // One high round does not rescue a low median...
        let mut rounds = rounds(2);
        for (round, speedup) in rounds.iter_mut().zip([9.0, 9.5, 9.9, 10.5, 400.0]) {
            round.lint.speedup = speedup;
        }
        let (shown, ok) = check(&rounds, "lint.speedup");
        assert!(!ok && shown.ends_with("400.00  median      9.90  floor     10"));
        // ...and one low round does not sink a high one.
        for (round, speedup) in rounds.iter_mut().zip([12.0, 0.5, 11.0, 13.0, 10.0]) {
            round.lint.speedup = speedup;
        }
        assert!(passes(&rounds, "lint.speedup"));
    }

    #[test]
    fn one_false_flag_in_one_round_fails_it() {
        let mut rounds = rounds(2);
        for round in &mut rounds {
            round.service.answers_agree = true;
            round.fol.chain_truncated = false;
            round.af.sizes = vec![AfSizeReport {
                n: 50,
                deliberation_preferred_is_grounded: true,
                ..Default::default()
            }];
            round.af.decomposed = vec![AfSccSizeReport {
                generator: "layered_debate".into(),
                n: 2_000,
                agrees_with_monolithic: Some(true),
                ..Default::default()
            }];
        }
        let names = [
            "service.answers_agree",
            "fol.chain_truncated == false",
            "af.sizes[n=50].deliberation_preferred_is_grounded",
            "af.decomposed[layered_debate n=2000].agrees_with_monolithic",
        ];
        assert!(names.iter().all(|name| passes(&rounds, name)));
        assert!(passes(&rounds, "af.decomposed cross-checked"));
        rounds[3].service.answers_agree = false;
        rounds[0].fol.chain_truncated = true;
        rounds[2].af.sizes[0].deliberation_preferred_is_grounded = false;
        // A flag missing from a round fails like a false one.
        rounds[4].af.decomposed.clear();
        assert!(names.iter().all(|name| !passes(&rounds, name)));
        assert!(!passes(&rounds, "af.decomposed cross-checked"));
    }

    #[test]
    fn every_floor_and_flag_is_judged() {
        // 15 floors, then the flags: graph 1, logic 2, af 4 (plus one
        // per size and cross-checked scenario), fol 3, and one each for
        // ltl, experiments, lint, service and dsl.
        assert_eq!(judge(&rounds(2)).len(), 15 + 15);
    }

    #[test]
    fn only_two_floors_relax_on_one_core() {
        let mut rounds = rounds(1);
        for round in &mut rounds {
            round.experiments.thread_speedup = 0.97;
            round.dsl.speedup = 0.5;
            round.lint.speedup = 9.9;
        }
        assert!(passes(&rounds, "experiments.thread_speedup") && passes(&rounds, "dsl.speedup"));
        assert!(!passes(&rounds, "lint.speedup"));
        for round in &mut rounds {
            round.experiments.host_parallelism = 2;
        }
        assert!(!passes(&rounds, "experiments.thread_speedup") && !passes(&rounds, "dsl.speedup"));
        let minimums = |host| floors(host).map(|(_, _, floor)| floor);
        let relaxed = (0..15)
            .filter(|&i| minimums(1)[i] != minimums(2)[i])
            .count();
        assert_eq!(relaxed, 2);
        assert_eq!((minimums(1)[9], minimums(8)[9]), (0.95, 1.0));
        assert_eq!((minimums(1)[12], minimums(8)[12]), (0.3, 1.0));
    }

    #[test]
    fn a_false_flag_fails_a_full_scale_run() {
        let mut graph = GraphBenchReport {
            sweeps_agree: true,
            ..Default::default()
        };
        assert!(full_scale_holds("graph", &graph.flags()));
        graph.sweeps_agree = false;
        assert!(!full_scale_holds("graph", &graph.flags()));
        // Full-scale af must also reach the 10^5-argument framework.
        let mut af = AfBenchReport {
            extensions_agree: true,
            grounded_agree: true,
            scc_agree: true,
            scc_largest_n: 20_000,
            decomposed: vec![AfSccSizeReport {
                agrees_with_monolithic: Some(true),
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(!full_scale_holds("af", &af_full_scale_flags(&af)));
        af.scc_largest_n = FULL_SCALE_AF_SCC_N;
        assert!(full_scale_holds("af", &af_full_scale_flags(&af)));
        af.scc_agree = false;
        assert!(!full_scale_holds("af", &af_full_scale_flags(&af)));
    }
}
