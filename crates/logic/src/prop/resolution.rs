//! Propositional resolution refutation.
//!
//! Bishop & Bloomfield's "deterministic argument" sketch asks for a safety
//! argument that *is* a proof in predicate logic; resolution is the classic
//! machine-oriented proof procedure. We provide a saturation prover with a
//! work budget and a recoverable refutation trace.

use super::ast::Formula;
use super::cnf::{Clause, ClauseSet};
use std::collections::BTreeSet;

/// Outcome of a resolution run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolutionOutcome {
    /// The empty clause was derived: the input set is unsatisfiable.
    /// Contains the derivation trace: each step is (left, right, resolvent).
    Refuted(Vec<(Clause, Clause, Clause)>),
    /// Saturation reached without deriving the empty clause: satisfiable.
    Saturated,
    /// The work budget was exhausted before either outcome.
    BudgetExhausted,
}

/// Attempts to refute `cs` by saturation, generating at most `budget`
/// resolvents.
pub fn resolution_refute(cs: &ClauseSet, budget: usize) -> ResolutionOutcome {
    let mut known: BTreeSet<Clause> = cs
        .clauses()
        .filter(|c| !c.is_tautologous())
        .cloned()
        .collect();
    if known.iter().any(|c| c.is_empty()) {
        return ResolutionOutcome::Refuted(Vec::new());
    }
    let mut trace = Vec::new();
    let mut generated = 0usize;
    loop {
        let snapshot: Vec<Clause> = known.iter().cloned().collect();
        let mut new_clauses: Vec<(Clause, Clause, Clause)> = Vec::new();
        for (i, left) in snapshot.iter().enumerate() {
            for right in snapshot.iter().skip(i + 1) {
                for resolvent in resolvents(left, right) {
                    generated += 1;
                    if generated > budget {
                        return ResolutionOutcome::BudgetExhausted;
                    }
                    if resolvent.is_tautologous() || known.contains(&resolvent) {
                        continue;
                    }
                    let is_empty = resolvent.is_empty();
                    new_clauses.push((left.clone(), right.clone(), resolvent.clone()));
                    if is_empty {
                        trace.extend(new_clauses);
                        return ResolutionOutcome::Refuted(trace);
                    }
                }
            }
        }
        if new_clauses.is_empty() {
            return ResolutionOutcome::Saturated;
        }
        for (l, r, res) in new_clauses {
            known.insert(res.clone());
            trace.push((l, r, res));
        }
    }
}

/// All resolvents of two clauses (one per complementary literal pair).
fn resolvents(left: &Clause, right: &Clause) -> Vec<Clause> {
    let mut out = Vec::new();
    for lit in left.literals() {
        let comp = lit.negated();
        if right.contains(&comp) {
            let resolvent = left.without(lit).union(&right.without(&comp));
            out.push(resolvent);
        }
    }
    out
}

/// Checks `premises ⊢ conclusion` by refuting `premises ∧ ¬conclusion`.
///
/// Returns `None` if the budget was exhausted before a verdict.
pub fn resolution_entails(
    premises: &[Formula],
    conclusion: &Formula,
    budget: usize,
) -> Option<bool> {
    let combined = Formula::conj(premises.iter().cloned()).and(conclusion.clone().not());
    let cs = combined.to_cnf();
    match resolution_refute(&cs, budget) {
        ResolutionOutcome::Refuted(_) => Some(true),
        ResolutionOutcome::Saturated => Some(false),
        ResolutionOutcome::BudgetExhausted => None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;

    #[test]
    fn refutes_direct_contradiction() {
        let cs = parse("p & ~p").unwrap().to_cnf();
        assert!(matches!(
            resolution_refute(&cs, 1000),
            ResolutionOutcome::Refuted(_)
        ));
    }

    #[test]
    fn saturates_on_satisfiable() {
        let cs = parse("p | q").unwrap().to_cnf();
        assert_eq!(resolution_refute(&cs, 1000), ResolutionOutcome::Saturated);
    }

    #[test]
    fn modus_ponens_entailment() {
        let premises = vec![parse("p -> q").unwrap(), parse("p").unwrap()];
        assert_eq!(
            resolution_entails(&premises, &parse("q").unwrap(), 10_000),
            Some(true)
        );
        assert_eq!(
            resolution_entails(&premises, &parse("~q").unwrap(), 10_000),
            Some(false)
        );
    }

    #[test]
    fn hypothetical_syllogism() {
        let premises = vec![parse("a -> b").unwrap(), parse("b -> c").unwrap()];
        assert_eq!(
            resolution_entails(&premises, &parse("a -> c").unwrap(), 10_000),
            Some(true)
        );
    }

    #[test]
    fn refutation_trace_ends_with_empty_clause() {
        let cs = parse("(p | q) & ~p & ~q").unwrap().to_cnf();
        match resolution_refute(&cs, 10_000) {
            ResolutionOutcome::Refuted(trace) => {
                assert!(!trace.is_empty());
                assert!(trace.last().unwrap().2.is_empty());
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        // A satisfiable but resolvable-rich set with budget 1.
        let cs = parse("(p | q) & (~p | r) & (~q | r) & (~r | s)")
            .unwrap()
            .to_cnf();
        assert_eq!(
            resolution_refute(&cs, 1),
            ResolutionOutcome::BudgetExhausted
        );
    }

    #[test]
    fn agrees_with_dpll_on_templates() {
        for src in [
            "(p -> q) & p & ~q",
            "(p | q) & (~p | q) & (p | ~q) & (~p | ~q)",
            "(a <-> b) & (b <-> c) & a & ~c",
            "(a | b | c) & ~a",
            "p -> p",
        ] {
            let f = parse(src).unwrap();
            let cs = f.to_cnf();
            let res = resolution_refute(&cs, 100_000);
            let dpll_sat = super::super::sat::dpll(&f).is_sat();
            match res {
                ResolutionOutcome::Refuted(_) => assert!(!dpll_sat, "on {src}"),
                ResolutionOutcome::Saturated => assert!(dpll_sat, "on {src}"),
                ResolutionOutcome::BudgetExhausted => panic!("budget too small for {src}"),
            }
        }
    }

    #[test]
    fn empty_premises_entail_only_tautologies() {
        assert_eq!(
            resolution_entails(&[], &parse("p | ~p").unwrap(), 10_000),
            Some(true)
        );
        assert_eq!(
            resolution_entails(&[], &parse("p").unwrap(), 10_000),
            Some(false)
        );
    }
}
