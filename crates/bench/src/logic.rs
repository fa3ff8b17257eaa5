//! Logic-core benchmark harness: seeded populations of formalised
//! arguments, the pre-interned per-query entailment path, and the
//! batch solver-session path that replaced it.
//!
//! The seed decided every entailment question by rebuilding a `Formula`
//! (cloning premises into a conjunction), Tseitin-converting it into
//! `BTreeSet` clauses keyed by string atoms, and recursively solving
//! with `BTreeMap` valuations — once per step check, once for the root,
//! and once per premise probed. [`LegacyEntailment`] reproduces that
//! access pattern faithfully against the preserved
//! [`legacy`] solver, so the speedup stays
//! measurable after the hot path moved on. [`interned_sweep`] is the
//! replacement: one [`ArgumentTheory`] compilation per argument, every
//! question an assume/check/retract round. [`bench_logic_json`] emits
//! the comparison as `BENCH_logic.json` (via `repro logic`), with both
//! engines' verdicts checked identical.

use casekit_core::semantics::{formal_conclusion, formal_premises, ArgumentTheory};
use casekit_core::{Argument, EdgeKind, FormalPayload, NodeIdx, NodeKind};
use casekit_experiments::generator::{generate, GeneratorConfig, SeededFormal};
use casekit_logic::prop::{
    Atom, Clause, ClauseSet, Formula, Literal, SatResult, Solver, Var, WitnessPool,
};
use casekit_oracle::{legacy, DpllSolver};
use serde::Serialize;

/// Generates a deterministic population of hazard-breakdown arguments
/// with formal payloads: a mix of clean, non-entailed (missing
/// support), and question-begging skeletons across a range of sizes.
pub fn seeded_population(count: usize, seed: u64) -> Vec<Argument> {
    (0..count)
        .map(|i| {
            let mut formal = Vec::new();
            if i % 3 == 1 {
                formal.push(SeededFormal::MissingSupport);
            }
            if i % 5 == 2 {
                formal.push(SeededFormal::Begging);
            }
            let config = GeneratorConfig {
                hazards: 8 + (i * 7) % 25,
                formal,
                informal: Vec::new(),
                seed: seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
            };
            generate(&config)
                .expect("seeded population configs are valid")
                .case
                .argument
        })
        .collect()
}

/// Every entailment verdict a sweep produces for one argument. Both
/// engines must return exactly this, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SweepVerdict {
    /// Per checkable support step, in arena order: is it deductive?
    pub steps: Vec<bool>,
    /// Do the formal premises entail the formal conclusion?
    pub root_entailed: Option<bool>,
    /// Per formal premise, in sorted order: is it critical to the
    /// conclusion? (Empty unless the root is entailed.)
    pub critical: Vec<bool>,
}

/// The pre-refactor entailment path, kept as a measurable baseline:
/// formula cloning + Tseitin to `BTreeSet` clauses + recursive DPLL,
/// one full rebuild per query.
pub struct LegacyEntailment;

impl LegacyEntailment {
    /// `premises ⊢ conclusion` the old way: clone everything into one
    /// conjunction and solve from scratch.
    fn entails(premises: &[Formula], conclusion: &Formula) -> bool {
        let theory = Formula::conj(premises.iter().cloned()).and(conclusion.clone().not());
        matches!(legacy::dpll(&theory), SatResult::Unsat)
    }

    /// Formalised children supporting `idx`, transitively skipping
    /// unformalised strategies — the seed's traversal, replicated so the
    /// baseline discovers exactly the steps the compiled theory checks.
    fn formalised_support_children(argument: &Argument, idx: NodeIdx) -> Vec<NodeIdx> {
        let mut out = Vec::new();
        for child_idx in argument.children_idx(idx, EdgeKind::SupportedBy) {
            let child = argument.node_at(child_idx);
            if child.is_formalised() {
                out.push(child_idx);
            } else if child.kind == NodeKind::Strategy {
                out.extend(Self::formalised_support_children(argument, child_idx));
            }
        }
        out
    }

    /// The full per-argument sweep at the pre-refactor cost: every step
    /// check, the root entailment, and every premise probe rebuilds and
    /// re-solves its own formula.
    pub fn sweep(argument: &Argument) -> SweepVerdict {
        let prop_payload = |idx: NodeIdx| match &argument.node_at(idx).formal {
            Some(FormalPayload::Prop(f)) => Some(f),
            _ => None,
        };

        let mut steps = Vec::new();
        for idx in argument.node_indices() {
            let Some(target) = prop_payload(idx) else {
                continue;
            };
            let children = Self::formalised_support_children(argument, idx);
            if children.is_empty() {
                continue;
            }
            let premises: Vec<Formula> = children
                .iter()
                .filter_map(|&c| prop_payload(c).cloned())
                .collect();
            if premises.is_empty() {
                continue;
            }
            steps.push(Self::entails(&premises, target));
        }

        let premises: Vec<Formula> = formal_premises(argument).into_iter().cloned().collect();
        let conclusion = formal_conclusion(argument).cloned();
        let root_entailed = match (&conclusion, premises.is_empty()) {
            (Some(c), false) => Some(Self::entails(&premises, c)),
            _ => None,
        };

        let critical = if root_entailed == Some(true) {
            let conclusion = conclusion.expect("entailed implies a conclusion");
            (0..premises.len())
                .map(|skip| {
                    let kept: Vec<Formula> = premises
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != skip)
                        .map(|(_, p)| p.clone())
                        .collect();
                    !Self::entails(&kept, &conclusion)
                })
                .collect()
        } else {
            Vec::new()
        };

        SweepVerdict {
            steps,
            root_entailed,
            critical,
        }
    }
}

/// The same sweep through the interned solver core: one theory
/// compilation, every question an assumption round, the premise probe
/// through [`ArgumentTheory::probe`] and a fresh witness pool.
pub fn interned_sweep(argument: &Argument) -> SweepVerdict {
    let mut theory = ArgumentTheory::compile(argument);
    let steps = theory
        .step_indices()
        .into_iter()
        .map(|idx| {
            theory
                .step_is_deductive(idx)
                .expect("step_indices are checkable")
        })
        .collect();
    let root_entailed = theory.root_entailed();
    let critical = if root_entailed == Some(true) {
        let report = theory
            .probe(&mut WitnessPool::new())
            .expect("entailed implies a conclusion");
        let mut critical = vec![false; report.critical.len() + report.idle.len()];
        for i in report.critical {
            critical[i] = true;
        }
        critical
    } else {
        Vec::new()
    };
    SweepVerdict {
        steps,
        root_entailed,
        critical,
    }
}

// ---------------------------------------------------------------------------
// Hard instances: where chronological backtracking visibly degrades.
// ---------------------------------------------------------------------------

/// One synthetic hard instance in CNF over dense variable indices
/// (`(variable, positive)` literals).
#[derive(Debug, Clone)]
pub struct HardInstance {
    /// Display name, e.g. `chain12+php5into4`.
    pub name: String,
    /// Number of variables (chain + pigeonhole block).
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Vec<(usize, bool)>>,
    /// Ground-truth satisfiability (by construction).
    pub expected_sat: bool,
}

/// Builds one hard instance: a *deep support chain* of `chain_depth`
/// padding variables in front of a *pigeonhole contradiction seed*.
///
/// The chain clauses (`~c_i | c_{i+1} | c_{i+2}` and friends) are
/// engineered so that (a) every chain variable occurs more often than
/// any pigeonhole variable — so an occurrence-ordered chronological
/// solver decides the irrelevant chain first — and (b) deciding the
/// chain all-positive satisfies no clause into a unit, so each chain
/// variable costs a real decision. The pigeonhole block (`pigeons`
/// into `pigeons - 1` holes when `sat` is false) is unsatisfiable
/// independently of the chain, which is the trap: chronological
/// backtracking re-refutes the pigeonhole block under every one of the
/// ~2^depth chain assignments, while conflict-driven learning refutes
/// it once, learns clauses mentioning only pigeonhole variables, and
/// backjumps over the chain entirely.
pub fn hard_instance(chain_depth: usize, pigeons: usize, sat: bool) -> HardInstance {
    assert!(chain_depth >= 4 && pigeons >= 2);
    let holes = if sat { pigeons } else { pigeons - 1 };
    let k = chain_depth;
    let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
    // Two overlapping ternary families keep every chain variable mixed-
    // polarity (defeating pure-literal elimination) and frequent.
    for i in 0..k.saturating_sub(2) {
        clauses.push(vec![(i, false), (i + 1, true), (i + 2, true)]);
    }
    for i in 0..k.saturating_sub(3) {
        clauses.push(vec![(i, false), (i + 1, true), (i + 3, true)]);
    }
    // Caps: give the tail variables a negative occurrence too.
    for j in k.saturating_sub(3)..k {
        clauses.push(vec![(j, false), (0, true), (1, true)]);
    }
    // Pigeonhole block over fresh variables.
    let var = |p: usize, h: usize| k + p * holes + h;
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| (var(p, h), true)).collect());
    }
    for a in 0..pigeons {
        for b in a + 1..pigeons {
            for h in 0..holes {
                clauses.push(vec![(var(a, h), false), (var(b, h), false)]);
            }
        }
    }
    HardInstance {
        name: format!("chain{k}+php{pigeons}into{holes}"),
        num_vars: k + pigeons * holes,
        clauses,
        expected_sat: sat,
    }
}

/// The full-scale hard population for `repro logic`.
pub fn hard_population_full() -> Vec<HardInstance> {
    vec![
        hard_instance(13, 4, false),
        hard_instance(14, 4, false),
        hard_instance(15, 4, false),
        hard_instance(16, 4, false),
        hard_instance(17, 4, false),
        hard_instance(18, 4, false),
        hard_instance(13, 5, false),
        hard_instance(14, 5, false),
        hard_instance(15, 5, false),
        hard_instance(12, 4, true),
        hard_instance(14, 5, true),
    ]
}

/// The scaled-down population for the smoke gate (`repro gate`).
pub fn hard_population_smoke() -> Vec<HardInstance> {
    vec![
        hard_instance(10, 4, false),
        hard_instance(11, 4, false),
        hard_instance(12, 4, false),
        hard_instance(11, 5, false),
        hard_instance(10, 4, true),
    ]
}

/// Solves with the CDCL core; returns the verdict plus conflict and
/// learned-clause counts.
pub fn solve_hard_cdcl(inst: &HardInstance) -> (bool, u64, u64) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..inst.num_vars).map(|_| s.new_var()).collect();
    let mut buf = Vec::new();
    for clause in &inst.clauses {
        buf.clear();
        buf.extend(clause.iter().map(|&(v, pos)| vars[v].lit(pos)));
        s.add_clause(&buf);
    }
    let sat = s.check();
    (sat, s.stats().conflicts, s.stats().learned)
}

/// Solves with the chronological watched-literal DPLL baseline.
pub fn solve_hard_dpll(inst: &HardInstance) -> (bool, u64) {
    let mut s = DpllSolver::new();
    let vars: Vec<Var> = (0..inst.num_vars).map(|_| s.new_var()).collect();
    let mut buf = Vec::new();
    for clause in &inst.clauses {
        buf.clear();
        buf.extend(clause.iter().map(|&(v, pos)| vars[v].lit(pos)));
        s.add_clause(&buf);
    }
    let sat = s.check();
    (sat, s.decisions())
}

/// Solves with the seed's recursive solver over string-keyed clauses.
pub fn solve_hard_legacy(inst: &HardInstance) -> bool {
    let mut cs = ClauseSet::new();
    let name = |v: usize| Atom::new(format!("v{v:04}"));
    for clause in &inst.clauses {
        cs.insert(Clause::from_literals(clause.iter().map(|&(v, pos)| {
            if pos {
                Literal::pos(name(v))
            } else {
                Literal::neg(name(v))
            }
        })));
    }
    legacy::dpll_clauses(&cs).is_sat()
}

/// The hard-instance comparison: CDCL vs chronological DPLL vs the
/// legacy recursive solver on the same population, verdicts verified
/// against each other *and* against the constructions' ground truth.
#[derive(Debug, Clone, Default, Serialize)]
pub struct HardBenchReport {
    /// Instances in the population.
    pub instances: usize,
    /// How many are unsatisfiable by construction.
    pub unsat_instances: usize,
    /// Total clauses across the population.
    pub clauses: usize,
    /// Legacy recursive solver, milliseconds (best of 3, like every
    /// other arm).
    pub legacy_ms: f64,
    /// Chronological watched-literal DPLL, milliseconds (best of 3).
    pub dpll_ms: f64,
    /// CDCL core, milliseconds (best of 3).
    pub cdcl_ms: f64,
    /// Decisions the chronological DPLL needed.
    pub dpll_decisions: u64,
    /// Conflicts the CDCL core analyzed.
    pub cdcl_conflicts: u64,
    /// Clauses the CDCL core learned.
    pub cdcl_learned: u64,
    /// dpll / cdcl — the win of conflict-driven learning.
    pub dpll_over_cdcl: f64,
    /// legacy / cdcl.
    pub legacy_over_cdcl: f64,
    /// All three engines agree with each other and with ground truth
    /// on every instance.
    pub verdicts_agree: bool,
}

/// Runs the three-engine comparison over `population`.
pub fn run_hard_bench(population: &[HardInstance]) -> HardBenchReport {
    let (legacy_ms, legacy_verdicts) = crate::best_of_ms(3, || {
        population
            .iter()
            .map(solve_hard_legacy)
            .collect::<Vec<bool>>()
    });
    let (dpll_ms, dpll_verdicts) = crate::best_of_ms(3, || {
        population
            .iter()
            .map(solve_hard_dpll)
            .collect::<Vec<(bool, u64)>>()
    });
    let (cdcl_ms, cdcl_verdicts) = crate::best_of_ms(3, || {
        population
            .iter()
            .map(solve_hard_cdcl)
            .collect::<Vec<(bool, u64, u64)>>()
    });

    let verdicts_agree = population.iter().enumerate().all(|(i, inst)| {
        cdcl_verdicts[i].0 == inst.expected_sat
            && dpll_verdicts[i].0 == inst.expected_sat
            && legacy_verdicts[i] == inst.expected_sat
    });

    HardBenchReport {
        instances: population.len(),
        unsat_instances: population.iter().filter(|i| !i.expected_sat).count(),
        clauses: population.iter().map(|i| i.clauses.len()).sum(),
        legacy_ms,
        dpll_ms,
        cdcl_ms,
        dpll_decisions: dpll_verdicts.iter().map(|v| v.1).sum(),
        cdcl_conflicts: cdcl_verdicts.iter().map(|v| v.1).sum(),
        cdcl_learned: cdcl_verdicts.iter().map(|v| v.2).sum(),
        dpll_over_cdcl: dpll_ms / cdcl_ms.max(1e-9),
        legacy_over_cdcl: legacy_ms / cdcl_ms.max(1e-9),
        verdicts_agree,
    }
}

/// The measured comparison, serialized into `BENCH_logic.json`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LogicBenchReport {
    /// Arguments in the seeded population.
    pub population: usize,
    /// Total entailment queries answered per engine (steps + roots +
    /// probes).
    pub queries: usize,
    /// Full legacy sweep (per-query clone + Tseitin + recursive DPLL),
    /// milliseconds (best of 3, like every other arm).
    pub legacy_ms: f64,
    /// Full batch sweep (one compilation per argument, CDCL sessions),
    /// milliseconds (best of 3).
    pub interned_ms: f64,
    /// legacy / interned.
    pub speedup: f64,
    /// Sanity: both engines returned identical verdicts on every
    /// argument.
    pub verdicts_agree: bool,
    /// The hard-instance CDCL-vs-DPLL-vs-legacy comparison.
    pub hard: HardBenchReport,
}

/// Runs the comparison over a seeded population of `count` arguments
/// plus the given hard-instance population.
pub fn run_logic_bench(count: usize, hard_population: &[HardInstance]) -> LogicBenchReport {
    let population = seeded_population(count, 0x10C1C);

    let (legacy_ms, legacy_verdicts) = crate::best_of_ms(3, || {
        population
            .iter()
            .map(LegacyEntailment::sweep)
            .collect::<Vec<SweepVerdict>>()
    });
    let (interned_ms, interned_verdicts) = crate::best_of_ms(3, || {
        population
            .iter()
            .map(interned_sweep)
            .collect::<Vec<SweepVerdict>>()
    });

    let queries = interned_verdicts
        .iter()
        .map(|v| v.steps.len() + usize::from(v.root_entailed.is_some()) + v.critical.len())
        .sum();

    LogicBenchReport {
        population: population.len(),
        queries,
        legacy_ms,
        interned_ms,
        speedup: legacy_ms / interned_ms.max(1e-9),
        verdicts_agree: legacy_verdicts == interned_verdicts,
        hard: run_hard_bench(hard_population),
    }
}

/// Renders the report as JSON (the `BENCH_logic.json` artifact).
pub fn bench_logic_json(report: &LogicBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Human-readable summary for the repro binary.
pub fn render_report(report: &LogicBenchReport) -> String {
    format!(
        "logic core batch entailment sweep over {} seeded theories / {} queries\n\
           legacy per-query (clone + Tseitin + recursive DPLL): {:>10.3} ms\n\
           interned batch (compile once + CDCL sessions):       {:>10.3} ms\n\
           speedup: {:.1}x   verdicts agree: {}\n\
         hard instances (deep chains + pigeonhole seeds), {} instances / {} clauses\n\
           legacy recursive:                {:>10.3} ms\n\
           chronological DPLL ({} decisions): {:>10.3} ms\n\
           CDCL ({} conflicts, {} learned):   {:>10.3} ms\n\
           CDCL over DPLL: {:.1}x   over legacy: {:.1}x   verdicts agree: {}\n",
        report.population,
        report.queries,
        report.legacy_ms,
        report.interned_ms,
        report.speedup,
        report.verdicts_agree,
        report.hard.instances,
        report.hard.clauses,
        report.hard.legacy_ms,
        report.hard.dpll_decisions,
        report.hard.dpll_ms,
        report.hard.cdcl_conflicts,
        report.hard.cdcl_learned,
        report.hard.cdcl_ms,
        report.hard.dpll_over_cdcl,
        report.hard.legacy_over_cdcl,
        report.hard.verdicts_agree
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_deterministic_and_mixed() {
        let a = seeded_population(12, 7);
        let b = seeded_population(12, 7);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
        // The defect mix yields both entailed and non-entailed roots.
        let verdicts: Vec<SweepVerdict> = a.iter().map(interned_sweep).collect();
        assert!(verdicts.iter().any(|v| v.root_entailed == Some(true)));
        assert!(verdicts.iter().any(|v| v.root_entailed == Some(false)));
    }

    #[test]
    fn engines_agree_verdict_for_verdict() {
        for argument in seeded_population(9, 42) {
            assert_eq!(
                LegacyEntailment::sweep(&argument),
                interned_sweep(&argument),
                "engine disagreement on {}",
                argument.name()
            );
        }
    }

    #[test]
    fn report_is_sane_at_small_scale() {
        // The acceptance-criteria 100+-theory run lives in the repro
        // binary; here we only check the harness plumbing.
        let tiny_hard = vec![hard_instance(5, 3, false), hard_instance(5, 3, true)];
        let report = run_logic_bench(6, &tiny_hard);
        assert!(report.verdicts_agree);
        assert!(report.hard.verdicts_agree);
        assert_eq!(report.population, 6);
        assert!(report.queries > report.population);
        let json = bench_logic_json(&report);
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"dpll_over_cdcl\""));
        assert!(render_report(&report).contains("verdicts agree: true"));
    }

    #[test]
    fn hard_instances_have_the_constructed_verdicts_on_all_engines() {
        for inst in [
            hard_instance(6, 3, false),
            hard_instance(6, 3, true),
            hard_instance(7, 4, false),
            hard_instance(7, 4, true),
        ] {
            assert_eq!(
                solve_hard_cdcl(&inst).0,
                inst.expected_sat,
                "cdcl on {}",
                inst.name
            );
            assert_eq!(
                solve_hard_dpll(&inst).0,
                inst.expected_sat,
                "dpll on {}",
                inst.name
            );
            assert_eq!(
                solve_hard_legacy(&inst),
                inst.expected_sat,
                "legacy on {}",
                inst.name
            );
        }
    }

    #[test]
    fn chain_padding_defeats_chronological_but_not_cdcl_search() {
        // The structural claim behind the benchmark: on the unsat
        // instances, deepening the chain multiplies the chronological
        // solver's decisions but barely moves CDCL's conflict count.
        let shallow = hard_instance(6, 4, false);
        let deep = hard_instance(10, 4, false);
        let (_, d_shallow) = solve_hard_dpll(&shallow);
        let (_, d_deep) = solve_hard_dpll(&deep);
        assert!(
            d_deep > d_shallow * 4,
            "4 extra chain levels should multiply DPLL decisions \
             ({d_shallow} -> {d_deep})"
        );
        let (_, c_shallow, _) = solve_hard_cdcl(&shallow);
        let (_, c_deep, _) = solve_hard_cdcl(&deep);
        assert!(
            c_deep < c_shallow.max(1) * 4,
            "CDCL conflicts should stay core-bound ({c_shallow} -> {c_deep})"
        );
    }

    #[test]
    fn smoke_and_full_hard_populations_are_well_formed() {
        for pop in [hard_population_smoke(), hard_population_full()] {
            assert!(pop.iter().any(|i| i.expected_sat));
            assert!(pop.iter().any(|i| !i.expected_sat));
            for inst in &pop {
                assert!(inst.clauses.iter().all(|c| !c.is_empty()));
                let max_var = inst
                    .clauses
                    .iter()
                    .flatten()
                    .map(|&(v, _)| v)
                    .max()
                    .unwrap();
                assert!(max_var < inst.num_vars, "{}", inst.name);
            }
        }
    }
}
