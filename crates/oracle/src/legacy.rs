//! The seed's recursive DPLL over `BTreeSet` clauses and `BTreeMap`
//! valuations, kept verbatim as a differential-testing oracle (the
//! solver-agreement property tests check every engine against it) and
//! as the measured "before" in the `repro logic` benchmark artifact.
//!
//! Product code uses `casekit_logic::prop::{dpll, dpll_clauses}` or a
//! `Theory` session.

use casekit_logic::prop::{Atom, Clause, ClauseSet, Formula, Literal, SatResult, Valuation};
use std::collections::BTreeMap;

/// Decides satisfiability of `formula` via Tseitin + recursive DPLL
/// (the pre-interned-core implementation).
pub fn dpll(formula: &Formula) -> SatResult {
    let cs = formula.to_cnf_tseitin();
    match dpll_clauses(&cs) {
        SatResult::Unsat => SatResult::Unsat,
        SatResult::Sat(v) => {
            let own = formula.atoms();
            let filtered: Valuation = own
                .into_iter()
                .map(|a| {
                    let val = v.get(&a).unwrap_or(false);
                    (a, val)
                })
                .collect();
            SatResult::Sat(filtered)
        }
    }
}

/// Decides satisfiability of a clause set with the recursive solver.
pub fn dpll_clauses(cs: &ClauseSet) -> SatResult {
    let clauses: Vec<Clause> = cs.clauses().cloned().collect();
    let mut assignment = BTreeMap::new();
    if solve(&clauses, &mut assignment) {
        SatResult::Sat(assignment.into_iter().collect())
    } else {
        SatResult::Unsat
    }
}

fn solve(clauses: &[Clause], assignment: &mut BTreeMap<Atom, bool>) -> bool {
    // Unit propagation + pure literal elimination to a fixed point.
    let mut trail: Vec<Atom> = Vec::new();
    loop {
        match propagate_once(clauses, assignment) {
            Propagation::Conflict => {
                for a in trail {
                    assignment.remove(&a);
                }
                return false;
            }
            Propagation::Assigned(atom) => {
                trail.push(atom);
            }
            Propagation::Fixpoint => break,
        }
    }

    // Check status and pick a branching atom.
    let mut branch_atom = None;
    for clause in clauses {
        let mut satisfied = false;
        let mut unassigned = None;
        for lit in clause.literals() {
            match assignment.get(&lit.atom) {
                Some(&v) if v == lit.positive => {
                    satisfied = true;
                    break;
                }
                Some(_) => {}
                None => unassigned = Some(lit.atom.clone()),
            }
        }
        if !satisfied {
            match unassigned {
                None => {
                    // All literals false: conflict.
                    for a in trail {
                        assignment.remove(&a);
                    }
                    return false;
                }
                Some(a) => {
                    if branch_atom.is_none() {
                        branch_atom = Some(a);
                    }
                }
            }
        }
    }

    let atom = match branch_atom {
        None => return true, // every clause satisfied
        Some(a) => a,
    };

    for value in [true, false] {
        assignment.insert(atom.clone(), value);
        if solve(clauses, assignment) {
            return true;
        }
        assignment.remove(&atom);
    }
    for a in trail {
        assignment.remove(&a);
    }
    false
}

enum Propagation {
    /// A unit or pure assignment was made (atom recorded for
    /// backtracking).
    Assigned(Atom),
    /// Some clause has all literals false.
    Conflict,
    /// Nothing more to propagate.
    Fixpoint,
}

fn propagate_once(clauses: &[Clause], assignment: &mut BTreeMap<Atom, bool>) -> Propagation {
    // Unit clauses.
    for clause in clauses {
        let mut satisfied = false;
        let mut unassigned: Vec<&Literal> = Vec::new();
        for lit in clause.literals() {
            match assignment.get(&lit.atom) {
                Some(&v) if v == lit.positive => {
                    satisfied = true;
                    break;
                }
                Some(_) => {}
                None => unassigned.push(lit),
            }
        }
        if satisfied {
            continue;
        }
        match unassigned.len() {
            0 => return Propagation::Conflict,
            1 => {
                let lit = unassigned[0];
                assignment.insert(lit.atom.clone(), lit.positive);
                return Propagation::Assigned(lit.atom.clone());
            }
            _ => {}
        }
    }

    // Pure literals: atoms appearing with a single polarity among
    // not-yet-satisfied clauses.
    let mut polarity: BTreeMap<Atom, (bool, bool)> = BTreeMap::new();
    for clause in clauses {
        let satisfied = clause.literals().any(|lit| {
            assignment
                .get(&lit.atom)
                .is_some_and(|&v| v == lit.positive)
        });
        if satisfied {
            continue;
        }
        for lit in clause.literals() {
            if assignment.contains_key(&lit.atom) {
                continue;
            }
            let entry = polarity.entry(lit.atom.clone()).or_insert((false, false));
            if lit.positive {
                entry.0 = true;
            } else {
                entry.1 = true;
            }
        }
    }
    for (atom, (pos, neg)) in polarity {
        if pos != neg {
            assignment.insert(atom.clone(), pos);
            return Propagation::Assigned(atom);
        }
    }
    Propagation::Fixpoint
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_logic::prop::parse;

    #[test]
    fn interned_solver_agrees_with_legacy_oracle() {
        for src in [
            "p & (q | ~r)",
            "(p -> q) & p & ~q",
            "(a <-> b) & (b <-> c) & a & ~c",
            "(p | q | r) & (~p | ~q) & (~q | ~r) & (~p | ~r)",
            "T -> (p | F)",
            "~(p <-> (q & r)) | (p & ~q)",
        ] {
            let f = parse(src).unwrap();
            assert_eq!(
                casekit_logic::prop::dpll(&f).is_sat(),
                dpll(&f).is_sat(),
                "oracle disagreement on {src}"
            );
        }
    }

    #[test]
    fn dpll_clauses_empty_set_is_sat() {
        assert!(dpll_clauses(&ClauseSet::new()).is_sat());
    }

    #[test]
    fn dpll_clauses_with_empty_clause_is_unsat() {
        let mut cs = ClauseSet::new();
        cs.insert(Clause::empty());
        assert_eq!(dpll_clauses(&cs), SatResult::Unsat);
    }
}
