//! LTL benchmark harness: seeded Kripke-structure generators, the seed
//! checker ([`casekit_oracle::ltl::check_bounded`]) as the oracle, and
//! the CSR index plane (`Kripke::check_bounded`) as the measured path.
//!
//! The seed checker enumerates candidate lassos with `BTreeSet<Arc<str>>`
//! state labels, clones them into a [`Trace`] per lasso, and evaluates
//! the formula recursively with string hashing at every proposition
//! test. The CSR plane compiles the structure once — bitset labels over
//! an interned proposition universe, compressed-sparse-row out-edges —
//! and the formula to a hash-consed node arena, then evaluates each
//! lasso with a closure table of boolean rows. Both visit lassos in the
//! same order, so [`run_ltl_bench`] can cross-check them
//! result-for-result, counterexample paths included, and emit the
//! comparison as `BENCH_ltl.json` (via `repro ltl`).
//!
//! The generated structures are ring backbones (so every state stays
//! live and lassos exist at every depth) with seeded chord edges for
//! branching, and per-state labels drawn from a small proposition set.
//!
//! [`Trace`]: casekit_logic::ltl::Trace

use casekit_logic::ltl::{parse_ltl, CheckResult, CompiledLtl, CsrKripke, Kripke, Ltl};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// The formula family checked at every sweep point: invariance,
/// response, stabilisation, and fairness shapes over the first three
/// generated propositions, exercising every temporal operator the
/// closure table implements. The nested-response shapes at the end are
/// where the planes diverge hardest: the seed evaluator re-recurses
/// over the suffix at every position (O(len^depth) in the temporal
/// nesting depth), while the closure table fills one O(len) row per
/// subformula regardless of nesting.
pub fn formula_family() -> Vec<Ltl> {
    [
        // Mostly-violated shapes: check that counterexample paths match.
        "G p0",
        "G (p0 -> F p1)",
        "F (G p2)",
        "p0 U p1",
        "X (p1 U (p2 | G p0))",
        "(F p2) -> (p1 R p0)",
        // Holding shapes over the always-on `tick`: these force both
        // planes to enumerate the entire lasso space, and their nesting
        // is where the naive evaluator's cost compounds.
        "G tick",
        "G (p0 -> F (p1 | F tick))",
        "G (F (tick & X (tick U tick)))",
        "G ((p0 U tick) -> F (tick & X (F tick)))",
    ]
    .iter()
    .map(|src| parse_ltl(src).expect("formula family parses"))
    .collect()
}

/// A seeded Kripke structure: `n` states on a ring (`si → s(i+1) mod n`),
/// `chords` extra seeded edges, each state labelled with the always-on
/// proposition `tick` plus each of `n_props` propositions `p0…` with
/// probability 0.4, and state 0 initial.
pub fn random_kripke(n: usize, chords: usize, n_props: usize, seed: u64) -> Kripke {
    assert!(n >= 2, "a ring needs two states");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x17E1_0000_0000_0000);
    let mut k = Kripke::new();
    let props: Vec<String> = (0..n_props).map(|p| format!("p{p}")).collect();
    let states: Vec<_> = (0..n)
        .map(|_| {
            let mut labels = vec!["tick"];
            labels.extend(
                props
                    .iter()
                    .filter(|_| rng.gen_bool(0.4))
                    .map(String::as_str),
            );
            k.add_state(labels)
        })
        .collect();
    for i in 0..n {
        k.add_transition(states[i], states[(i + 1) % n])
            .expect("ring states exist");
    }
    for _ in 0..chords {
        let from = states[rng.gen_range(0..n)];
        let to = states[rng.gen_range(0..n)];
        k.add_transition(from, to).expect("chord states exist");
    }
    k.add_initial(states[0]).expect("state 0 exists");
    k
}

fn verdicts_naive(k: &Kripke, formulas: &[Ltl], bound: usize) -> Vec<CheckResult> {
    formulas
        .iter()
        .map(|f| casekit_oracle::ltl::check_bounded(k, f, bound).expect("initial state set"))
        .collect()
}

fn verdicts_csr(k: &Kripke, formulas: &[Ltl], bound: usize) -> Vec<CheckResult> {
    // Compile once per structure, inside the timed closure: the measured
    // win includes building the CSR graph and the formula arenas.
    let csr = CsrKripke::compile(k);
    formulas
        .iter()
        .map(|f| {
            let compiled = CompiledLtl::compile(f, &csr);
            csr.check_bounded(&compiled, bound)
                .expect("initial state set")
        })
        .collect()
}

/// Measured checker comparison at one (states, bound) point.
#[derive(Debug, Clone, Serialize)]
pub struct LtlSweepPoint {
    /// States in the generated structure.
    pub states: usize,
    /// Chord edges beyond the ring backbone.
    pub chords: usize,
    /// Lasso length bound.
    pub bound: usize,
    /// Formulas checked (the whole family).
    pub formulas: usize,
    /// Seed trace-based checker over all formulas, milliseconds (best of 3).
    pub naive_ms: f64,
    /// CSR closure-table checker (compile + all formulas), milliseconds
    /// (best of 3).
    pub csr_ms: f64,
    /// naive / csr.
    pub speedup: f64,
    /// Identical [`CheckResult`]s — counterexample paths included — on
    /// every formula at this point.
    pub agree: bool,
}

/// The measured comparison, serialized into `BENCH_ltl.json`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LtlBenchReport {
    /// Total naive time / total CSR time across the sweep.
    pub speedup: f64,
    /// Every swept check agreed result-for-result.
    pub answers_agree: bool,
    /// Per-point measurements.
    pub sweep: Vec<LtlSweepPoint>,
    /// States in the CSR-only deep scenario.
    pub large_states: usize,
    /// Bound of the CSR-only deep scenario.
    pub large_bound: usize,
    /// CSR checker over the family at the deep point, milliseconds
    /// (best of 3) — a lasso space the seed checker would take orders of
    /// magnitude longer to enumerate.
    pub large_ms: f64,
    /// How many of the family's formulas were violated at the deep point.
    pub large_violations: usize,
}

/// Runs the checker comparison: naive-vs-CSR sweeps at each
/// `(states, chords, bound)` point (cross-checked result-for-result),
/// then the CSR-only deep scenario at `large`.
pub fn run_ltl_bench(
    points: &[(usize, usize, usize)],
    large: (usize, usize, usize),
) -> LtlBenchReport {
    let formulas = formula_family();
    let mut sweep = Vec::with_capacity(points.len());
    let mut answers_agree = true;
    let mut total_naive = 0.0;
    let mut total_csr = 0.0;
    for &(n, chords, bound) in points {
        let k = random_kripke(n, chords, 3, n as u64);
        let (naive_ms, naive_verdicts) =
            crate::best_of_ms(3, || verdicts_naive(&k, &formulas, bound));
        let (csr_ms, csr_verdicts) = crate::best_of_ms(3, || verdicts_csr(&k, &formulas, bound));
        let agree = naive_verdicts == csr_verdicts;
        answers_agree &= agree;
        total_naive += naive_ms;
        total_csr += csr_ms;
        sweep.push(LtlSweepPoint {
            states: n,
            chords,
            bound,
            formulas: formulas.len(),
            naive_ms,
            csr_ms,
            speedup: naive_ms / csr_ms.max(1e-9),
            agree,
        });
    }

    let (large_n, large_chords, large_bound) = large;
    let k = random_kripke(large_n, large_chords, 3, large_n as u64);
    let (large_ms, large_verdicts) =
        crate::best_of_ms(3, || verdicts_csr(&k, &formulas, large_bound));

    LtlBenchReport {
        speedup: total_naive / total_csr.max(1e-9),
        answers_agree,
        sweep,
        large_states: large_n,
        large_bound,
        large_ms,
        large_violations: large_verdicts.iter().filter(|r| !r.holds()).count(),
    }
}

/// Renders the report as JSON (the `BENCH_ltl.json` artifact).
pub fn bench_ltl_json(report: &LtlBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Human-readable summary for the repro binary.
pub fn render_report(report: &LtlBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "LTL bounded checking, seed trace checker vs CSR closure-table checker\n\
         (speedup: {:.1}x   answers agree: {})",
        report.speedup, report.answers_agree,
    );
    for s in &report.sweep {
        let _ = writeln!(
            out,
            "  states={:<4} chords={:<4} bound={:<3} formulas={} \
             naive {:>10.3} ms   csr {:>9.3} ms   speedup {:>6.1}x   agree: {}",
            s.states, s.chords, s.bound, s.formulas, s.naive_ms, s.csr_ms, s.speedup, s.agree,
        );
    }
    let _ = writeln!(
        out,
        "csr-only deep point: states={}  bound={}  {:.3} ms  violations: {}",
        report.large_states, report.large_bound, report.large_ms, report.large_violations,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = random_kripke(10, 5, 3, 42);
        let b = random_kripke(10, 5, 3, 42);
        assert_eq!(a.len(), b.len());
        for s in 0..a.len() {
            assert_eq!(
                a.labels_of(s).collect::<Vec<_>>(),
                b.labels_of(s).collect::<Vec<_>>()
            );
            assert_eq!(a.successors_of(s), b.successors_of(s));
        }
        assert_eq!(a.initial_states(), b.initial_states());
    }

    #[test]
    fn planes_agree_on_small_structures() {
        let formulas = formula_family();
        for n in [4, 7] {
            let k = random_kripke(n, n / 2, 3, n as u64);
            assert_eq!(
                verdicts_naive(&k, &formulas, 6),
                verdicts_csr(&k, &formulas, 6),
                "n={n}"
            );
        }
    }

    #[test]
    fn report_is_sane_at_small_scale() {
        let report = run_ltl_bench(&[(4, 2, 5), (6, 3, 5)], (8, 4, 6));
        assert!(report.answers_agree);
        assert!(report.speedup > 0.0);
        assert_eq!(report.sweep.len(), 2);
        for s in &report.sweep {
            assert!(s.agree);
            assert_eq!(s.formulas, formula_family().len());
        }
        assert_eq!(report.large_states, 8);
        let json = bench_ltl_json(&report);
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"answers_agree\": true"));
        // The gate reads the FIRST "speedup" in the file: it must be the
        // report-level one, ahead of any per-point speedup.
        assert!(json.find("\"speedup\"").unwrap() < json.find("\"sweep\"").unwrap());
        assert!(render_report(&report).contains("answers agree: true"));
    }
}
