//! The SAT path: compiles a [`Framework`] into packed-literal clauses
//! for the CDCL [`Solver`] and answers extension and acceptance
//! questions as one incremental session.
//!
//! # The labelling encoding
//!
//! Each argument `a` gets two solver variables, `in_a` and `out_a`
//! (`undec` is their joint absence). The complete-semantics clauses say
//! a labelling is a fixpoint of the characteristic function:
//!
//! * `¬in_a ∨ ¬out_a` — a label, not two;
//! * `in_a ↔ ⋀_{b attacks a} out_b` — accepted iff every attacker is
//!   defeated (unit `in_a` for unattacked arguments);
//! * `out_a ↔ ⋁_{b attacks a} in_b` — defeated iff some attacker is
//!   accepted (unit `¬out_a` for unattacked arguments).
//!
//! Models are exactly the complete labellings, and because the `out`
//! variables are functionally determined by the `in` variables, models
//! biject with complete *extensions*. Stable semantics adds
//! `in_a ∨ out_a` (no undecided argument).
//!
//! The same clauses encode one strongly connected component for the
//! SCC-decomposed engine ([`super::scc`]). The encoded list is then the
//! component, and each member carries a summary of its attackers
//! outside it: none or all `Out`, some `Undec`, or some `In`. An outside
//! attacker that is not `Out` replaces the clause `in_a ∨ ⋁ ¬out_b`
//! with the unit `¬in_a`; an outside `In` attacker also replaces
//! `¬out_a ∨ ⋁ in_b` with the unit `out_a`. A whole framework has
//! nothing outside, so it gets exactly the clauses above, in the same
//! order.
//!
//! # Sessions, selectors, and enumeration
//!
//! One [`AfSat`] owns one persistent [`Solver`]; queries differ only in
//! their assumptions, so clauses learned answering one question remain
//! valid for the next (assumptions enter the CDCL search as decisions —
//! see [`crate::prop::solver`]). Enumeration needs clauses that *block*
//! already-reported extensions, and the clause database is permanent,
//! so every blocking clause is guarded by a fresh per-enumeration
//! *selector* literal `s` (`¬s ∨ blocking-lits`): while `s` is assumed
//! the clause bites, and once the enumeration retracts `s` the clause
//! is vacuously satisfiable and later queries are unaffected.
//!
//! Preferred extensions use the same trick twice ([`AfSat::preferred`]):
//! an inner *maximality loop* assumes the current extension's `in`
//! literals plus a one-shot guarded "grow" clause demanding one more
//! `in` outside it, iterating until UNSAT proves ⊆-maximality; and an
//! outer loop adds a guarded *subset-blocking* clause per maximal
//! extension found, so the next round lands on a complete extension
//! that is not below any reported one.

use super::{ArgId, Framework};
use crate::graph::Csr;
use crate::prop::intern::Lit;
use crate::prop::solver::Solver;
use std::collections::BTreeSet;

/// The strongest label among an argument's attackers outside the
/// encoded list: the interface signature the SCC-decomposed engine
/// hands each component, one per member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum External {
    /// No outside attacker, or every one is `Out`.
    Out,
    /// Some outside attacker is `Undec`, none is `In`.
    Undec,
    /// Some outside attacker is `In`.
    In,
}

/// An incremental SAT session over one framework's labelling encoding.
///
/// Build once per framework ([`AfSat::complete`] / [`AfSat::stable`]),
/// then ask as many questions as needed — extensions, credulous and
/// sceptical acceptance — against the same learned clause database.
#[derive(Debug, Clone)]
pub struct AfSat {
    solver: Solver,
    /// Positive `in_a` literal per argument.
    in_lits: Vec<Lit>,
    n: usize,
}

impl AfSat {
    /// Compiles the complete-semantics encoding of `af`.
    pub fn complete(af: &Framework) -> Self {
        Self::encode(
            &af.adjacency().attackers,
            &vec![External::Out; af.len()],
            false,
        )
    }

    /// Compiles the stable-semantics encoding of `af` (complete plus
    /// totality: no undecided argument).
    pub fn stable(af: &Framework) -> Self {
        Self::encode(
            &af.adjacency().attackers,
            &vec![External::Out; af.len()],
            true,
        )
    }

    /// Compiles the labelling clauses of a list of arguments: row `a` of
    /// `attackers` lists the attackers of `a` inside the list (by list
    /// index), and `outside[a]` summarises the ones outside it. `total`
    /// adds the stable semantics' no-`Undec` clauses.
    pub(crate) fn encode(attackers: &Csr<ArgId>, outside: &[External], total: bool) -> Self {
        let n = attackers.rows();
        let mut solver = Solver::new();
        let in_lits: Vec<Lit> = (0..n).map(|_| solver.new_var().positive()).collect();
        let out_lits: Vec<Lit> = (0..n).map(|_| solver.new_var().positive()).collect();
        let mut clause: Vec<Lit> = Vec::new();
        for a in 0..n {
            let attackers = attackers.row(a);
            solver.add_clause(&[!in_lits[a], !out_lits[a]]);
            // in_a ↔ every attacker out.
            clause.clear();
            clause.push(in_lits[a]);
            for &b in attackers {
                solver.add_clause(&[!in_lits[a], out_lits[b]]);
                clause.push(!out_lits[b]);
            }
            if outside[a] == External::Out {
                solver.add_clause(&clause);
            } else {
                solver.add_clause(&[!in_lits[a]]);
            }
            // out_a ↔ some attacker in.
            clause.clear();
            clause.push(!out_lits[a]);
            for &b in attackers {
                solver.add_clause(&[!in_lits[b], out_lits[a]]);
                clause.push(in_lits[b]);
            }
            if outside[a] == External::In {
                solver.add_clause(&[out_lits[a]]);
            } else {
                solver.add_clause(&clause);
            }
            if total {
                solver.add_clause(&[in_lits[a], out_lits[a]]);
            }
        }
        AfSat { solver, in_lits, n }
    }

    /// Number of arguments in the encoded framework.
    pub fn num_args(&self) -> usize {
        self.n
    }

    /// The `in`-set of the model found by the last satisfiable check.
    fn read_extension(&self) -> BTreeSet<ArgId> {
        (0..self.n)
            .filter(|&a| self.solver.value(self.in_lits[a]) == Some(true))
            .collect()
    }

    /// Whether `id` is in some extension of the encoded semantics: one
    /// assume/check/retract probe against the persistent session.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an argument of the encoded framework.
    /// This session type mirrors the solver's low-level contract;
    /// [`Framework::credulously_accepted`] is the `Result`-returning
    /// wrapper.
    pub fn credulous(&mut self, id: ArgId) -> bool {
        assert!(
            id < self.n,
            "argument id {id} is out of range for an encoding of {} argument(s)",
            self.n
        );
        self.solver.assume(self.in_lits[id]);
        let sat = self.solver.check();
        self.solver.retract();
        sat
    }

    /// Enumerates extensions of the encoded semantics via guarded
    /// blocking clauses, up to `limit` if given.
    ///
    /// Each model's exact `in`-set is blocked before the next check, so
    /// every round yields a new extension; the session stays usable for
    /// later queries because the blocks die with this enumeration's
    /// selector.
    pub fn extensions(&mut self, limit: Option<usize>) -> Vec<BTreeSet<ArgId>> {
        let selector = self.solver.new_var().positive();
        let mut found = Vec::new();
        while limit.is_none_or(|cap| found.len() < cap) {
            self.solver.assume(selector);
            let sat = self.solver.check();
            let extension = if sat {
                Some(self.read_extension())
            } else {
                None
            };
            self.solver.retract();
            let Some(extension) = extension else { break };
            let mut block = vec![!selector];
            for a in 0..self.n {
                block.push(if extension.contains(&a) {
                    !self.in_lits[a]
                } else {
                    self.in_lits[a]
                });
            }
            self.solver.add_clause(&block);
            found.push(extension);
        }
        found
    }

    /// Enumerates the preferred extensions (⊆-maximal complete
    /// extensions) by the maximality loop. Only meaningful on a
    /// complete-semantics session ([`AfSat::complete`]); on a stable
    /// session it returns the stable extensions (which are already
    /// maximal).
    pub fn preferred(&mut self) -> Vec<BTreeSet<ArgId>> {
        let mut found: Vec<BTreeSet<ArgId>> = Vec::new();
        self.for_each_preferred(|extension| {
            found.push(extension.clone());
            true
        });
        found
    }

    /// Runs the preferred-extension enumeration, handing each maximal
    /// extension to `visit` as it is proven maximal; a `false` return
    /// stops the enumeration early (the session stays usable).
    fn for_each_preferred(&mut self, mut visit: impl FnMut(&BTreeSet<ArgId>) -> bool) {
        let selector = self.solver.new_var().positive();
        loop {
            self.solver.retract_all();
            self.solver.assume(selector);
            if !self.solver.check() {
                self.solver.retract_all();
                break;
            }
            let mut extension = self.read_extension();
            // Maximality loop: force a proper superset until UNSAT.
            loop {
                let grow = self.solver.new_var().positive();
                let mut clause = vec![!grow];
                clause.extend(
                    (0..self.n)
                        .filter(|a| !extension.contains(a))
                        .map(|a| self.in_lits[a]),
                );
                self.solver.add_clause(&clause);
                self.solver.retract_all();
                self.solver.assume(selector);
                for &a in &extension {
                    self.solver.assume(self.in_lits[a]);
                }
                self.solver.assume(grow);
                if self.solver.check() {
                    extension = self.read_extension();
                    // `grow` is never assumed again: its clause is
                    // vacuously satisfiable from here on.
                } else {
                    break;
                }
            }
            // Block every subset of the maximal extension: any later
            // model must accept some argument outside it.
            let mut block = vec![!selector];
            block.extend(
                (0..self.n)
                    .filter(|a| !extension.contains(a))
                    .map(|a| self.in_lits[a]),
            );
            self.solver.retract_all();
            self.solver.add_clause(&block);
            if !visit(&extension) {
                break;
            }
        }
    }

    /// Whether `id` is in *every* preferred extension (sceptical
    /// acceptance under preferred semantics). Runs the maximality loop
    /// on the session, stopping at the first counterexample extension;
    /// call on a complete-semantics encoding.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an argument of the encoded framework (see
    /// [`AfSat::credulous`]).
    pub fn sceptical_preferred(&mut self, id: ArgId) -> bool {
        assert!(
            id < self.n,
            "argument id {id} is out of range for an encoding of {} argument(s)",
            self.n
        );
        let mut in_all = true;
        self.for_each_preferred(|extension| {
            in_all = extension.contains(&id);
            in_all
        });
        in_all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framework(n: usize, attacks: &[(ArgId, ArgId)]) -> Framework {
        let mut af = Framework::new();
        for i in 0..n {
            af.add_argument(format!("a{i}"));
        }
        for &(a, t) in attacks {
            af.add_attack(a, t).unwrap();
        }
        af
    }

    #[test]
    fn empty_framework_has_the_empty_extension() {
        let af = framework(0, &[]);
        assert_eq!(AfSat::complete(&af).extensions(None), vec![BTreeSet::new()]);
        assert_eq!(AfSat::complete(&af).preferred(), vec![BTreeSet::new()]);
        assert_eq!(AfSat::stable(&af).extensions(None), vec![BTreeSet::new()]);
    }

    #[test]
    fn one_session_answers_every_kind_of_query() {
        // Enumerations must not poison later queries: the guarded
        // blocking clauses die with their selectors.
        let af = framework(3, &[(0, 1), (1, 0), (0, 2), (1, 2)]);
        let mut sat = AfSat::complete(&af);
        assert!(sat.credulous(0));
        assert_eq!(sat.extensions(None).len(), 3);
        assert!(sat.credulous(1), "query after an enumeration");
        assert_eq!(sat.extensions(None).len(), 3, "enumeration is repeatable");
        assert_eq!(sat.preferred().len(), 2);
        assert!(!sat.credulous(2), "query after the maximality loop");
        assert_eq!(sat.preferred().len(), 2, "preferred is repeatable");
        // The sceptical probe early-exits at the first extension
        // excluding the argument; the session must survive that too.
        assert!(!sat.sceptical_preferred(0));
        assert_eq!(
            sat.preferred().len(),
            2,
            "session survives an early-exit sceptical probe"
        );
        assert!(sat.credulous(0));
    }

    #[test]
    fn extension_limit_truncates_enumeration() {
        let af = framework(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let mut sat = AfSat::complete(&af);
        assert_eq!(sat.extensions(Some(2)).len(), 2);
        assert_eq!(sat.extensions(None).len(), 9, "3 x 3 labellings");
    }

    #[test]
    fn preferred_on_a_singleton_chain_is_the_grounded_extension() {
        let af = framework(4, &[(1, 0), (2, 1), (3, 2)]);
        let mut sat = AfSat::complete(&af);
        let preferred = sat.preferred();
        assert_eq!(preferred, vec![af.grounded_extension()]);
    }
}
