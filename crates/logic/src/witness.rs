//! Witness reuse: the one way a batch of questions about a compiled
//! case is answered.
//!
//! Most solver questions asked about an argument are
//! *satisfiability* questions whose expected answer is SAT: "are the
//! premises consistent?", "is the conclusion falsifiable?", "does the
//! argument survive dropping premise `i`?". A CDCL call answers each in
//! 10 to 35 µs on a light case (five premise chains of width 16, 248
//! variables; release build on a 2-vCPU x86-64 host) — but a model
//! found for one question very often answers several of the others
//! outright, because a single total assignment can simultaneously
//! witness many assumption sets.
//!
//! [`WitnessPool`] exploits that: every satisfiable solver call stores
//! its full model ([`Theory::witness_under`]), and every later check
//! first scans the stored witnesses, evaluating just the assumption
//! literals (one array read each). A hit proves SAT without touching
//! the solver; only misses — including every genuinely UNSAT question
//! — pay for a real search. This is the classic model-reuse trick from
//! SAT sweeping, and it is *answer-invariant*: a witness hit returns
//! `true` exactly when the solver would, so every verdict, finding and
//! diagnostic is the same with a cold pool, a warm one, or the raw
//! [`Theory::check_under`].
//!
//! Witness validity across a session: learned clauses are consequences
//! of the database (every stored model still satisfies them), and
//! Tseitin definitions added later only constrain variables the stored
//! witnesses do not cover — [`WitnessPool::covers`] rejects any
//! assumption over a variable newer than the witness, so stale hits
//! are impossible.
//!
//! Every batch caller asks through a pool: the machine checker and the
//! fallacy detectors of `casekit-fallacies`, the what-if probe of
//! `casekit-core`'s `ArgumentTheory`, the CaseLint passes of
//! `casekit-analysis`, and the incremental case service. A one-shot
//! call starts a fresh pool; the service keeps one pool per case for
//! the case's whole life, so models and UNSAT sets found answering one
//! revision's questions keep answering the next revision's. Recompiling
//! an edited case reuses the literals of unchanged payloads, and
//! [`Theory::formula_lit`] gives a restored payload, or a sub-formula
//! shared with another payload, the literal it compiled to before; the
//! clause database only grows, so an unchanged step, entailment or
//! drop-probe — or one over a formula the session compiled before —
//! asks the identical assumption set it asked before, and the stored
//! model (SAT) or assumption set (UNSAT) answers it without the solver.

use crate::prop::{Lit, Theory};

/// A pool of total assignments known to satisfy the session's clause
/// database, reused across a batch of satisfiability checks —
/// together with the dual cache: assumption sets proven unsatisfiable,
/// which answer any superset question UNSAT for free (adding
/// assumptions can only preserve unsatisfiability).
///
/// The pool is also sound to keep alive *across edits* of the argument
/// it serves, provided the session's clause database only grows (the
/// incremental service's contract): stored models stay models of every
/// clause they were checked against, UNSAT cores stay UNSAT under
/// clause addition, and the bounds check above fences off variables
/// introduced after a witness was stored.
#[derive(Debug, Default)]
pub struct WitnessPool {
    witnesses: Vec<Vec<bool>>,
    /// Assumption sets proven UNSAT, stored as sorted, deduplicated
    /// literal codes.
    unsat_cores: Vec<Vec<usize>>,
    /// The codes of the question being looked up, reused by every
    /// lookup the witnesses miss; copied only into a new UNSAT set.
    codes: Vec<usize>,
    /// Solver calls actually paid (diagnostic counters for tests).
    solver_calls: usize,
    /// Checks answered from a stored witness or unsat set.
    witness_hits: usize,
}

impl WitnessPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stored witnesses plus cached UNSAT cores.
    pub fn len(&self) -> usize {
        self.witnesses.len() + self.unsat_cores.len()
    }

    /// Whether the pool holds no witnesses and no UNSAT cores.
    pub fn is_empty(&self) -> bool {
        self.witnesses.is_empty() && self.unsat_cores.is_empty()
    }

    /// Solver calls actually paid (cumulative; survives [`clear`](Self::clear)).
    pub fn solver_calls(&self) -> usize {
        self.solver_calls
    }

    /// Checks answered from a stored witness or UNSAT core.
    pub fn witness_hits(&self) -> usize {
        self.witness_hits
    }

    /// Drops every stored witness and UNSAT core (the counters are
    /// kept — they describe the pool's lifetime, not its contents).
    /// Required when the session it serves is rebuilt from scratch:
    /// literal codes are only meaningful against the database that
    /// assigned them.
    pub fn clear(&mut self) {
        self.witnesses.clear();
        self.unsat_cores.clear();
    }

    /// Whether `witness` proves the assumption set satisfiable: every
    /// assumption literal must be within the witness and true under it.
    fn covers(witness: &[bool], assumptions: &[Lit]) -> bool {
        assumptions.iter().all(|lit| {
            witness
                .get(lit.var().index())
                .is_some_and(|&v| v == lit.is_positive())
        })
    }

    /// `Theory::check_under(assumptions)`, answered from a stored
    /// witness (SAT) or a subsumed unsat set (UNSAT) when possible, and
    /// from a real solver call — whose model or assumption set joins
    /// the pool — otherwise. Returns exactly what `check_under` would.
    pub fn check(&mut self, theory: &mut Theory, assumptions: &[Lit]) -> bool {
        if self.witnesses.iter().any(|w| Self::covers(w, assumptions)) {
            self.witness_hits += 1;
            return true;
        }
        // Premises that compile to one literal repeat its code; a set
        // stored with repeats would fail the subset test against every
        // superset that carries the literal once.
        self.codes.clear();
        self.codes.extend(assumptions.iter().map(|l| l.code()));
        self.codes.sort_unstable();
        self.codes.dedup();
        if self
            .unsat_cores
            .iter()
            .any(|core| is_sorted_subset(core, &self.codes))
        {
            self.witness_hits += 1;
            return false;
        }
        self.solver_calls += 1;
        match theory.witness_under(assumptions.iter().copied()) {
            Some(witness) => {
                self.witnesses.push(witness);
                true
            }
            None => {
                self.unsat_cores.push(self.codes.clone());
                false
            }
        }
    }
}

/// Whether sorted, duplicate-free `needle` is a subset of sorted
/// `haystack`.
fn is_sorted_subset(needle: &[usize], haystack: &[usize]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.by_ref().any(|h| h == n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::parse;

    fn theory_of(srcs: &[&str]) -> Theory {
        let mut t = Theory::new();
        for src in srcs {
            let f = parse(src).unwrap();
            t.assert_formula(&f);
        }
        t
    }

    #[test]
    fn witness_answers_follow_the_solver() {
        let mut t = theory_of(&["p -> q"]);
        let p = t.formula_lit(&parse("p").unwrap());
        let q = t.formula_lit(&parse("q").unwrap());
        let mut pool = WitnessPool::new();
        assert!(pool.check(&mut t, &[p]));
        assert!(pool.check(&mut t, &[p, q]));
        assert!(!pool.check(&mut t, &[p, !q]));
        // Same answers as the raw session.
        assert!(t.check_under([p]));
        assert!(t.check_under([p, q]));
        assert!(!t.check_under([p, !q]));
    }

    #[test]
    fn compatible_questions_reuse_a_witness() {
        let mut t = theory_of(&["a & b & c"]);
        let a = t.formula_lit(&parse("a").unwrap());
        let b = t.formula_lit(&parse("b").unwrap());
        let c = t.formula_lit(&parse("c").unwrap());
        let mut pool = WitnessPool::new();
        assert!(pool.check(&mut t, &[a]));
        assert!(pool.check(&mut t, &[b]));
        assert!(pool.check(&mut t, &[c]));
        assert!(pool.check(&mut t, &[a, b, c]));
        assert_eq!(pool.solver_calls, 1, "one model answers all four");
        assert_eq!(pool.witness_hits, 3);
    }

    #[test]
    fn repeated_literals_still_subsume_supersets() {
        let mut t = theory_of(&["p -> ~r"]);
        let p = t.formula_lit(&parse("p").unwrap());
        let q = t.formula_lit(&parse("q").unwrap());
        let r = t.formula_lit(&parse("r").unwrap());
        let mut pool = WitnessPool::new();
        // Two premises sharing the literal `p`, plus `r`: UNSAT.
        assert!(!pool.check(&mut t, &[p, p, r]));
        assert_eq!(pool.solver_calls, 1);
        // A superset carrying `p` once is UNSAT by subsumption alone.
        assert!(!pool.check(&mut t, &[q, p, r]));
        assert_eq!(pool.solver_calls, 1, "the stored set subsumes it");
        assert_eq!(pool.witness_hits, 1);
    }

    #[test]
    fn new_variables_never_hit_stale_witnesses() {
        let mut t = theory_of(&["p"]);
        let p = t.formula_lit(&parse("p").unwrap());
        let mut pool = WitnessPool::new();
        assert!(pool.check(&mut t, &[p]));
        // A fresh variable introduced after the stored witness: the
        // bounds check forces a real solver call for both polarities.
        let r = t.formula_lit(&parse("r").unwrap());
        let calls = pool.solver_calls;
        assert!(pool.check(&mut t, &[!r]));
        assert_eq!(pool.solver_calls, calls + 1);
    }
}
