//! FOL benchmark harness: seeded Horn-program generators, the seed
//! recursive engine ([`casekit_oracle::fol::solve_with`]) as the oracle,
//! and the interned indexed engine (`InternedKb`) as the measured path.
//!
//! The seed engine scans every clause at every resolution step, deep
//! clones each candidate with freshly suffixed variable names, and
//! threads a `BTreeMap` substitution through the search. The interned
//! engine compiles the program once — hash-consed term arena,
//! first-argument clause index, bindings-slot trail — so each step
//! touches only the clauses that can match. [`run_fol_bench`]
//! cross-checks the two answer-for-answer (same solutions in the same
//! order, same truncation flag) on every swept query and emits the
//! comparison as `BENCH_fol.json` (via `repro fol`).
//!
//! The sweep uses reachability programs (a `c0 → c1 → …` backbone plus
//! seeded forward shortcuts, `tag/1` distractor facts, and the two
//! transitive-closure rules): every answer is ground, so answer parity
//! is exact, and the reachable set is large enough that the
//! `max_solutions` cap — not exhaustion — ends each query on both
//! engines. The deep-chain scenario runs the interned engine alone: its
//! derivation is tens of thousands of steps deep, which the seed
//! engine's call-stack recursion cannot survive.

use casekit_logic::fol::{parse_program, parse_query, InternedKb, KnowledgeBase, SolveConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Budgets for the swept queries: deep enough to reach the solution
/// cap, with a work budget no swept instance approaches — the engines
/// count work differently (the seed counts every scanned clause, the
/// indexed engine only candidates), so outcomes stay comparable only
/// while neither trips it.
fn sweep_config() -> SolveConfig {
    SolveConfig {
        max_depth: 32,
        max_work: 1_000_000_000,
        max_solutions: 8,
    }
}

/// A seeded reachability program over `n_consts` constants: backbone
/// edges `edge(ci, ci+1)`, `extra_edges` forward shortcuts spanning at
/// most 4 constants, one `tag(ci)` distractor fact per constant (clauses
/// the seed engine scans at every step and the index never touches),
/// and the two `path/2` transitive-closure rules.
pub fn reachability_program(n_consts: usize, extra_edges: usize, seed: u64) -> KnowledgeBase {
    assert!(n_consts >= 2, "a backbone needs two constants");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF01D_0000_0000_0000);
    let mut src = String::new();
    for i in 0..n_consts - 1 {
        src.push_str(&format!("edge(c{i}, c{}).\n", i + 1));
    }
    for _ in 0..extra_edges {
        let i = rng.gen_range(0..n_consts - 1);
        let span = rng.gen_range(1..=4.min(n_consts - 1 - i));
        src.push_str(&format!("edge(c{i}, c{}).\n", i + span));
    }
    for i in 0..n_consts {
        src.push_str(&format!("tag(c{i}).\n"));
    }
    src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n");
    parse_program(&src).expect("generated program parses")
}

/// A pure linear chain `edge(c0, c1). … edge(cn-2, cn-1).` with the
/// `path/2` rules — the deep-derivation stress shape.
pub fn chain_program(n_consts: usize) -> KnowledgeBase {
    assert!(n_consts >= 2, "a chain needs two constants");
    let mut src = String::new();
    for i in 0..n_consts - 1 {
        src.push_str(&format!("edge(c{i}, c{}).\n", i + 1));
    }
    src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n");
    parse_program(&src).expect("generated program parses")
}

/// Everything one engine reports about one query; both engines must
/// produce exactly this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryVerdict {
    /// The rendered solutions, in discovery order.
    pub answers: Vec<String>,
    /// Whether a budget cut the search off.
    pub truncated: bool,
}

/// The query starts swept at each program size: spread across the
/// backbone, each clamped far enough from the end that the solution cap
/// (not exhaustion) ends the query.
fn query_starts(n_consts: usize) -> [usize; 4] {
    let cap = n_consts.saturating_sub(10);
    [
        0,
        (n_consts / 4).min(cap),
        (n_consts / 2).min(cap),
        (3 * n_consts / 4).min(cap),
    ]
}

fn verdicts_seed(kb: &KnowledgeBase, queries: &[casekit_logic::fol::Term]) -> Vec<QueryVerdict> {
    queries
        .iter()
        .map(|q| {
            let out = casekit_oracle::fol::solve_with(kb, q, sweep_config());
            QueryVerdict {
                answers: out.solutions.iter().map(|s| s.to_string()).collect(),
                truncated: out.truncated,
            }
        })
        .collect()
}

fn verdicts_interned(
    kb: &KnowledgeBase,
    queries: &[casekit_logic::fol::Term],
) -> Vec<QueryVerdict> {
    // Compilation is timed along with the queries: the measured win
    // includes the cost of building the arena and the clause index.
    let mut interned = InternedKb::compile(kb);
    queries
        .iter()
        .map(|q| {
            let out = interned.solve_with(q, sweep_config());
            QueryVerdict {
                answers: out.solutions.iter().map(|s| s.to_string()).collect(),
                truncated: out.truncated,
            }
        })
        .collect()
}

/// Measured engine comparison at one program size.
#[derive(Debug, Clone, Serialize)]
pub struct FolSweepPoint {
    /// Constants in the reachability program.
    pub n_consts: usize,
    /// Total clauses (edges + distractors + rules).
    pub clauses: usize,
    /// Queries swept (`path(c_start, X)` at the spread starts).
    pub queries: usize,
    /// Seed recursive engine over all queries, milliseconds (best of 3).
    pub seed_ms: f64,
    /// Interned indexed engine (compile + all queries), milliseconds
    /// (best of 3).
    pub interned_ms: f64,
    /// seed / interned.
    pub speedup: f64,
    /// Identical answer lists (order included) and truncation flags on
    /// every query at this size.
    pub agree: bool,
}

/// The measured comparison, serialized into `BENCH_fol.json`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FolBenchReport {
    /// Total seed time / total interned time across the sweep.
    pub speedup: f64,
    /// Every swept query agreed answer-for-answer.
    pub answers_agree: bool,
    /// Per-size measurements.
    pub sweep: Vec<FolSweepPoint>,
    /// Chain length of the interned-only deep-derivation scenario.
    pub chain_n: usize,
    /// Interned engine proving `path(c0, c_last)` on the chain,
    /// milliseconds (best of 3) — a derivation `chain_n` steps deep,
    /// beyond the seed engine's call-stack ceiling.
    pub chain_ms: f64,
    /// The chain query was proved…
    pub chain_proved: bool,
    /// …without tripping any budget.
    pub chain_truncated: bool,
}

/// Runs the engine comparison: seed-vs-interned sweeps at each of
/// `sizes` constants (cross-checked answer-for-answer), then the
/// interned-only deep chain at `chain_n`.
pub fn run_fol_bench(sizes: &[usize], chain_n: usize) -> FolBenchReport {
    let mut sweep = Vec::with_capacity(sizes.len());
    let mut answers_agree = true;
    let mut total_seed = 0.0;
    let mut total_interned = 0.0;
    for &n in sizes {
        let kb = reachability_program(n, n / 2, n as u64);
        let queries: Vec<_> = query_starts(n)
            .iter()
            .map(|&s| parse_query(&format!("path(c{s}, X)")).expect("generated query parses"))
            .collect();
        let (seed_ms, seed_verdicts) = crate::best_of_ms(3, || verdicts_seed(&kb, &queries));
        let (interned_ms, interned_verdicts) =
            crate::best_of_ms(3, || verdicts_interned(&kb, &queries));
        let agree = seed_verdicts == interned_verdicts;
        answers_agree &= agree;
        total_seed += seed_ms;
        total_interned += interned_ms;
        sweep.push(FolSweepPoint {
            n_consts: n,
            clauses: kb.len(),
            queries: queries.len(),
            seed_ms,
            interned_ms,
            speedup: seed_ms / interned_ms.max(1e-9),
            agree,
        });
    }

    let chain = chain_program(chain_n);
    let goal = parse_query(&format!("path(c0, c{})", chain_n - 1)).expect("chain query parses");
    let chain_config = SolveConfig {
        max_depth: 3 * chain_n,
        max_work: 50 * chain_n,
        max_solutions: 1,
    };
    let (chain_ms, chain_out) = crate::best_of_ms(3, || {
        InternedKb::compile(&chain).solve_with(&goal, chain_config)
    });

    FolBenchReport {
        speedup: total_seed / total_interned.max(1e-9),
        answers_agree,
        sweep,
        chain_n,
        chain_ms,
        chain_proved: chain_out.succeeded(),
        chain_truncated: chain_out.truncated,
    }
}

/// Renders the report as JSON (the `BENCH_fol.json` artifact).
pub fn bench_fol_json(report: &FolBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Human-readable summary for the repro binary.
pub fn render_report(report: &FolBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "FOL resolution, seed clause-scan engine vs interned indexed engine\n\
         (speedup: {:.1}x   answers agree: {})",
        report.speedup, report.answers_agree,
    );
    for s in &report.sweep {
        let _ = writeln!(
            out,
            "  consts={:<6} clauses={:<6} queries={} \
             seed {:>10.3} ms   interned {:>9.3} ms   speedup {:>6.1}x   agree: {}",
            s.n_consts, s.clauses, s.queries, s.seed_ms, s.interned_ms, s.speedup, s.agree,
        );
    }
    let _ = writeln!(
        out,
        "interned-only deep chain: n={}  {:.3} ms  proved: {}  truncated: {}",
        report.chain_n, report.chain_ms, report.chain_proved, report.chain_truncated,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            reachability_program(20, 10, 7),
            reachability_program(20, 10, 7)
        );
        let kb = reachability_program(20, 10, 7);
        // 19 backbone + 10 shortcuts + 20 tags + 2 rules.
        assert_eq!(kb.len(), 51);
        assert_eq!(chain_program(5).len(), 6);
    }

    #[test]
    fn engines_agree_on_small_programs() {
        for n in [12, 30] {
            let kb = reachability_program(n, n / 2, n as u64);
            let queries: Vec<_> = query_starts(n)
                .iter()
                .map(|&s| parse_query(&format!("path(c{s}, X)")).unwrap())
                .collect();
            assert_eq!(
                verdicts_seed(&kb, &queries),
                verdicts_interned(&kb, &queries),
                "n={n}"
            );
        }
    }

    #[test]
    fn swept_queries_end_on_the_solution_cap() {
        // The comparison is only meaningful while both engines stop at
        // max_solutions rather than exhausting or truncating.
        let n = 30;
        let kb = reachability_program(n, n / 2, n as u64);
        for &s in &query_starts(n) {
            let q = parse_query(&format!("path(c{s}, X)")).unwrap();
            let out = kb.solve_with(&q, sweep_config());
            assert_eq!(out.solutions.len(), sweep_config().max_solutions, "c{s}");
        }
    }

    #[test]
    fn report_is_sane_at_small_scale() {
        let report = run_fol_bench(&[16, 40], 300);
        assert!(report.answers_agree);
        assert!(report.speedup > 0.0);
        assert_eq!(report.sweep.len(), 2);
        for s in &report.sweep {
            assert!(s.agree);
            assert_eq!(s.queries, 4);
        }
        assert_eq!(report.chain_n, 300);
        assert!(report.chain_proved);
        assert!(!report.chain_truncated);
        let json = bench_fol_json(&report);
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"answers_agree\": true"));
        assert!(json.contains("\"chain_proved\": true"));
        // The gate reads the FIRST "speedup" in the file: it must be the
        // report-level one, ahead of any per-point speedup.
        assert!(json.find("\"speedup\"").unwrap() < json.find("\"sweep\"").unwrap());
        assert!(render_report(&report).contains("answers agree: true"));
    }
}
