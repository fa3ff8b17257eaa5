//! Satisfiability at the [`Formula`] level.
//!
//! [`dpll`] and [`dpll_clauses`] keep their historical signatures but
//! are now thin wrappers over the interned solver core
//! ([`super::solver`]): formulas are Tseitin-compiled straight to
//! packed integer literals and decided by the iterative
//! two-watched-literal solver — no `BTreeSet` clauses, no recursion, no
//! per-branch cloning. The original recursive implementation survives
//! unchanged as the differential-testing oracle
//! `casekit_oracle::legacy`, the measured baseline for `repro logic`.

use super::ast::Formula;
use super::cnf::ClauseSet;
use super::eval::Valuation;
use super::solver::Theory;

/// Result of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witnessing valuation over the formula's atoms.
    Sat(Valuation),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// The witnessing model, if satisfiable.
    pub fn model(&self) -> Option<&Valuation> {
        match self {
            SatResult::Sat(v) => Some(v),
            SatResult::Unsat => None,
        }
    }

    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Decides satisfiability of `formula` via the interned solver core.
///
/// The returned model is restricted to the formula's own atoms (Tseitin
/// definition variables are internal to the solver).
pub fn dpll(formula: &Formula) -> SatResult {
    let mut theory = Theory::new();
    theory.assert_formula(formula);
    if theory.check() {
        SatResult::Sat(theory.model(formula.atoms().iter()))
    } else {
        SatResult::Unsat
    }
}

/// Decides satisfiability of a clause set directly (no Tseitin step —
/// the set is already CNF).
pub fn dpll_clauses(cs: &ClauseSet) -> SatResult {
    let mut theory = Theory::new();
    theory.assert_clauses(cs);
    if theory.check() {
        SatResult::Sat(theory.model(cs.atoms().iter()))
    } else {
        SatResult::Unsat
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;

    #[test]
    fn sat_simple() {
        let f = parse("p & q").unwrap();
        let r = dpll(&f);
        let m = r.model().expect("should be sat");
        assert!(f.eval(m));
    }

    #[test]
    fn unsat_simple() {
        assert_eq!(dpll(&parse("p & ~p").unwrap()), SatResult::Unsat);
        assert!(!dpll(&parse("p & ~p").unwrap()).is_sat());
    }

    #[test]
    fn model_satisfies_formula() {
        for src in [
            "(p | q) & (~p | r) & (~q | r)",
            "(a -> b) & (b -> c) & a",
            "(p <-> q) & (q <-> r)",
            "~(p -> q) | (q & r)",
        ] {
            let f = parse(src).unwrap();
            match dpll(&f) {
                SatResult::Sat(m) => assert!(f.eval(&m), "model doesn't satisfy {src}"),
                SatResult::Unsat => panic!("{src} should be satisfiable"),
            }
        }
    }

    #[test]
    fn unsat_pigeonhole_2_into_1() {
        // Two pigeons, one hole: p1h1 & p2h1 & ~(p1h1 & p2h1) is unsat.
        let f = parse("p1h1 & p2h1 & ~(p1h1 & p2h1)").unwrap();
        assert_eq!(dpll(&f), SatResult::Unsat);
    }

    #[test]
    fn dpll_agrees_with_truth_table_exhaustively() {
        // All 3-atom formulas from a small template set.
        let templates = [
            "p & (q | ~r)",
            "(p -> q) -> (q -> r)",
            "~(p <-> (q & r))",
            "(p | q | r) & (~p | ~q) & (~q | ~r) & (~p | ~r)",
            "p & ~p & q",
        ];
        for src in templates {
            let f = parse(src).unwrap();
            let tt = super::super::eval::truth_table(&f).expect("3 atoms");
            let brute_sat = tt.models() > 0;
            assert_eq!(dpll(&f).is_sat(), brute_sat, "disagreement on {src}");
        }
    }

    #[test]
    fn dpll_clauses_empty_set_is_sat() {
        assert!(dpll_clauses(&ClauseSet::new()).is_sat());
    }

    #[test]
    fn dpll_clauses_with_empty_clause_is_unsat() {
        use super::super::cnf::Clause;
        let mut cs = ClauseSet::new();
        cs.insert(Clause::empty());
        assert_eq!(dpll_clauses(&cs), SatResult::Unsat);
    }

    #[test]
    fn larger_chain_implication() {
        // a0 & (a0->a1) & ... & (a29->a30) & ~a30 is unsat.
        let mut src = String::from("a0");
        for i in 0..30 {
            src.push_str(&format!(" & (a{} -> a{})", i, i + 1));
        }
        src.push_str(" & ~a30");
        assert_eq!(dpll(&parse(&src).unwrap()), SatResult::Unsat);
        // Dropping the final negation makes it satisfiable.
        let mut src2 = String::from("a0");
        for i in 0..30 {
            src2.push_str(&format!(" & (a{} -> a{})", i, i + 1));
        }
        assert!(dpll(&parse(&src2).unwrap()).is_sat());
    }
}
