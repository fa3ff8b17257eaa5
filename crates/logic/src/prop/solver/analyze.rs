//! First-UIP conflict analysis: from a falsified clause to a learned
//! clause and a backjump level.
//!
//! # The implication graph
//!
//! During search every assignment is either a *decision* (no reason) or
//! an *implication* (forced by unit propagation through exactly one
//! clause, its *reason*). Reasons induce a DAG over the assigned
//! literals: an edge runs from each falsified literal of the reason to
//! the literal it forced. A conflict is a clause with every literal
//! false — a sink reachable from decisions on several levels.
//!
//! # First UIP
//!
//! A *unique implication point* (UIP) at the conflicting decision level
//! is a literal through which every path from the level's decision to
//! the conflict passes. The decision itself is always a UIP; the *first*
//! UIP is the one closest to the conflict. [`Analyzer::analyze`] finds
//! it by resolution: starting from the conflict clause, repeatedly
//! resolve with the reason of the most recently assigned contributing
//! literal of the current level, until exactly one current-level literal
//! remains. That literal is the first UIP; the derived clause
//!
//! * is a logical consequence of the clause database alone (assumptions
//!   enter as decisions, so they are never resolved away — they appear
//!   negated *inside* the learned clause, keeping it valid after
//!   `retract`), and
//! * is *asserting*: after backjumping to the second-highest decision
//!   level in the clause, every literal but the negated UIP is false, so
//!   propagation immediately forces the UIP the other way.
//!
//! # Interface
//!
//! The algorithm only needs per-variable decision levels and reasons,
//! abstracted as [`ImplicationGraph`] — the solver implements it over
//! its trail arrays, and the unit tests implement it over hand-built
//! graphs to pin down the learned clause, the backjump level, and the
//! LBD on known examples.

use crate::prop::intern::{Lit, Var};

/// Read access to the solver state conflict analysis consumes.
///
/// Invariants the implementation relies on:
///
/// * `level_of(v)` is the decision level `v` was assigned at (root
///   facts are level 0 and never enter learned clauses);
/// * `reason_of(v)` is the full reason clause *including* the implied
///   literal itself, or `None` when `v` is a decision or assumption;
/// * every literal of a reason except the implied one was false when
///   the implication fired, i.e. was assigned strictly earlier on the
///   trail.
pub trait ImplicationGraph {
    /// Decision level of an assigned variable.
    fn level_of(&self, v: Var) -> u32;
    /// Reason clause that propagated `v`, if `v` was implied.
    fn reason_of(&self, v: Var) -> Option<&[Lit]>;
}

/// The outcome of one conflict analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// The learned clause. Slot 0 is the *asserting literal* (the
    /// negated first UIP); slot 1, when present, is a literal of the
    /// backjump level (so the solver can watch slots 0 and 1 and keep
    /// the watched-literal invariant immediately after backjumping).
    pub learned: Vec<Lit>,
    /// Decision level to backjump to: the second-highest level in the
    /// learned clause, or 0 for a unit.
    pub backjump: u32,
    /// The literal-block distance: number of distinct decision levels
    /// among the learned literals (small LBD ≈ likely to propagate
    /// again; used by the learned-clause garbage collector).
    pub lbd: u32,
    /// Every variable that participated in the resolution, for VSIDS
    /// bumping (includes the UIP and the learned literals).
    pub touched: Vec<Var>,
}

/// Reusable first-UIP analyzer. Owns its scratch: `seen` grows to
/// cover each variable the first time a conflict reaches it, and the
/// `learned`/`touched` vectors an [`Analysis`] carries out come back
/// through [`Analyzer::recycle`], so a solver's conflicts stop
/// allocating once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    /// Per variable: already counted into the pending resolution.
    seen: Vec<bool>,
    /// Scratch for the LBD computation.
    levels: Vec<u32>,
    /// Spare `learned` buffer for the next analysis.
    learned: Vec<Lit>,
    /// Spare `touched` buffer for the next analysis.
    touched: Vec<Var>,
}

impl Analyzer {
    /// A fresh analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes back the buffers of a finished analysis for the next call.
    pub fn recycle(&mut self, analysis: Analysis) {
        self.learned = analysis.learned;
        self.touched = analysis.touched;
    }

    /// Derives the first-UIP learned clause from `conflict` (a clause
    /// with every literal false).
    ///
    /// `trail` is the assignment stack, oldest first; `current_level`
    /// is the decision level the conflict occurred at (must be ≥ 1 —
    /// a conflict at level 0 refutes the database and has nothing to
    /// learn).
    ///
    /// # Panics
    ///
    /// Panics if the invariants of [`ImplicationGraph`] are violated —
    /// in particular if `conflict` has no literal at `current_level`.
    pub fn analyze<G: ImplicationGraph>(
        &mut self,
        graph: &G,
        trail: &[Lit],
        current_level: u32,
        conflict: &[Lit],
    ) -> Analysis {
        debug_assert!(current_level > 0, "level-0 conflicts refute the database");
        let mut learned = std::mem::take(&mut self.learned);
        learned.clear();
        learned.push(Lit(0)); // slot 0: asserting literal
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        // Literals of the current level still awaiting resolution.
        let mut pending: u32 = 0;
        // The literal whose reason is being resolved in (None = start
        // from the conflict clause itself).
        let mut resolving: Option<Lit> = None;
        let mut index = trail.len();

        loop {
            let reason: &[Lit] = match resolving {
                None => conflict,
                Some(lit) => graph
                    .reason_of(lit.var())
                    .expect("resolution only visits implied literals"),
            };
            for &q in reason {
                // Skip the implied literal of the reason being resolved.
                if resolving.is_some_and(|p| p.var() == q.var()) {
                    continue;
                }
                let v = q.var();
                if self.seen.len() <= v.index() {
                    self.seen.resize(v.index() + 1, false);
                }
                if self.seen[v.index()] || graph.level_of(v) == 0 {
                    continue;
                }
                self.seen[v.index()] = true;
                touched.push(v);
                if graph.level_of(v) >= current_level {
                    pending += 1;
                } else {
                    learned.push(q);
                }
            }
            // Walk the trail backwards to the most recent contributing
            // literal of the current level (a variable past the end of
            // `seen` was never marked).
            loop {
                index -= 1;
                if self.seen.get(trail[index].var().index()) == Some(&true) {
                    break;
                }
            }
            let uip_candidate = trail[index];
            self.seen[uip_candidate.var().index()] = false;
            pending -= 1;
            if pending == 0 {
                learned[0] = !uip_candidate;
                break;
            }
            resolving = Some(uip_candidate);
        }

        for v in &touched {
            self.seen[v.index()] = false;
        }

        // Backjump level: hoist the highest-level remaining literal into
        // slot 1 so it can be watched.
        let backjump = if learned.len() == 1 {
            0
        } else {
            let mut best = 1;
            for i in 2..learned.len() {
                if graph.level_of(learned[i].var()) > graph.level_of(learned[best].var()) {
                    best = i;
                }
            }
            learned.swap(1, best);
            graph.level_of(learned[1].var())
        };

        // LBD: distinct decision levels across the learned clause (the
        // asserting literal contributes the conflict level).
        self.levels.clear();
        self.levels.push(current_level);
        self.levels
            .extend(learned[1..].iter().map(|l| graph.level_of(l.var())));
        self.levels.sort_unstable();
        self.levels.dedup();
        let lbd = self.levels.len() as u32;

        Analysis {
            learned,
            backjump,
            lbd,
            touched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built implication graph: explicit levels and reasons per
    /// variable.
    struct ToyGraph {
        level: Vec<u32>,
        reason: Vec<Option<Vec<Lit>>>,
    }

    impl ImplicationGraph for ToyGraph {
        fn level_of(&self, v: Var) -> u32 {
            self.level[v.index()]
        }
        fn reason_of(&self, v: Var) -> Option<&[Lit]> {
            self.reason[v.index()].as_deref()
        }
    }

    fn pos(i: u32) -> Lit {
        Var(i).positive()
    }
    fn neg(i: u32) -> Lit {
        Var(i).negative()
    }

    /// The classic three-level example:
    ///
    /// * level 1 decides `a` (v0), level 2 decides `b` (v1),
    /// * level 3 decides `c` (v2), then `(~c | e)` forces `e` (v3),
    ///   then `(~e | ~a | f)` forces `f` (v4),
    /// * conflict: `(~f | ~b | ~e)` is falsified.
    ///
    /// Every path from the level-3 decision `c` to the conflict runs
    /// through `e`, and `e` is closer to the conflict than `c` — so the
    /// first UIP is `e`, the learned clause is `(~e | ~b | ~a)`, and the
    /// backjump level is 2 (the second-highest among {3, 2, 1}).
    fn classic() -> (ToyGraph, Vec<Lit>, Vec<Lit>) {
        let graph = ToyGraph {
            level: vec![1, 2, 3, 3, 3],
            reason: vec![
                None,                               // a: decision @1
                None,                               // b: decision @2
                None,                               // c: decision @3
                Some(vec![neg(2), pos(3)]),         // e <- (~c | e)
                Some(vec![neg(3), neg(0), pos(4)]), // f <- (~e | ~a | f)
            ],
        };
        let trail = vec![pos(0), pos(1), pos(2), pos(3), pos(4)];
        let conflict = vec![neg(4), neg(1), neg(3)];
        (graph, trail, conflict)
    }

    #[test]
    fn first_uip_is_found_on_the_classic_example() {
        let (graph, trail, conflict) = classic();
        let analysis = Analyzer::new().analyze(&graph, &trail, 3, &conflict);
        // Asserting literal: the negated first UIP ~e.
        assert_eq!(analysis.learned[0], neg(3));
        // Remaining literals: {~b, ~a} in some order.
        let mut rest = analysis.learned[1..].to_vec();
        rest.sort_unstable_by_key(|l| l.code());
        assert_eq!(rest, vec![neg(0), neg(1)]);
        // Not the decision c: the first UIP cuts closer to the conflict.
        assert!(!analysis.learned.iter().any(|l| l.var() == Var(2)));
    }

    #[test]
    fn backjump_is_the_second_highest_level_and_slot_1_carries_it() {
        let (graph, trail, conflict) = classic();
        let analysis = Analyzer::new().analyze(&graph, &trail, 3, &conflict);
        assert_eq!(analysis.backjump, 2);
        // Slot 1 must hold a literal *of* the backjump level, so the
        // solver can watch slots 0 and 1 directly.
        assert_eq!(graph.level_of(analysis.learned[1].var()), 2);
        // Three distinct levels (3, 2, 1) in the clause.
        assert_eq!(analysis.lbd, 3);
    }

    #[test]
    fn touched_covers_every_resolution_participant() {
        let (graph, trail, conflict) = classic();
        let analysis = Analyzer::new().analyze(&graph, &trail, 3, &conflict);
        let mut touched: Vec<u32> = analysis.touched.iter().map(|v| v.0).collect();
        touched.sort_unstable();
        // a, b, e, f took part; the decision c never entered a reason.
        assert_eq!(touched, vec![0, 1, 3, 4]);
    }

    #[test]
    fn decision_is_the_uip_when_no_intermediate_cut_exists() {
        // Level 1: decide p (v0); (~p | q) forces q (v1); conflict
        // (~p | ~q). Every path runs through the decision itself.
        let graph = ToyGraph {
            level: vec![1, 1],
            reason: vec![None, Some(vec![neg(0), pos(1)])],
        };
        let trail = vec![pos(0), pos(1)];
        let analysis = Analyzer::new().analyze(&graph, &trail, 1, &[neg(0), neg(1)]);
        assert_eq!(analysis.learned, vec![neg(0)]);
        assert_eq!(analysis.backjump, 0, "unit learned clauses jump to root");
        assert_eq!(analysis.lbd, 1);
    }

    #[test]
    fn root_level_facts_never_enter_the_learned_clause() {
        // v0 is a root fact (level 0); level 1 decides p (v1), which
        // forces q (v2) via (~p | ~v0 | q); conflict (~q | ~v0 | ~p).
        let graph = ToyGraph {
            level: vec![0, 1, 1],
            reason: vec![None, None, Some(vec![neg(1), neg(0), pos(2)])],
        };
        let trail = vec![pos(0), pos(1), pos(2)];
        let analysis = Analyzer::new().analyze(&graph, &trail, 1, &[neg(2), neg(0), neg(1)]);
        assert!(
            !analysis.learned.iter().any(|l| l.var() == Var(0)),
            "level-0 literals are unconditionally false and must be dropped"
        );
        assert_eq!(analysis.learned, vec![neg(1)]);
        assert_eq!(analysis.backjump, 0);
    }

    #[test]
    fn assumptions_survive_as_ordinary_literals() {
        // Assumption-style decision at level 1 (v0), decision at level
        // 2 (v1) forcing v2 via (~v1 | ~v0 | v2); conflict (~v2 | ~v0).
        // The learned clause must mention ~v0 — the analysis never
        // resolves decisions away, which is what keeps learned clauses
        // valid after the assumption is retracted.
        let graph = ToyGraph {
            level: vec![1, 2, 2],
            reason: vec![None, None, Some(vec![neg(1), neg(0), pos(2)])],
        };
        let trail = vec![pos(0), pos(1), pos(2)];
        let analysis = Analyzer::new().analyze(&graph, &trail, 2, &[neg(2), neg(0)]);
        // v2 is the only current-level literal in the conflict, so it
        // is itself the first UIP — no resolution towards the decision.
        assert_eq!(
            analysis.learned[0],
            neg(2),
            "first UIP at the conflict level"
        );
        assert_eq!(analysis.learned[1..], [neg(0)]);
        assert_eq!(analysis.backjump, 1);
        assert_eq!(analysis.lbd, 2);
    }

    #[test]
    fn analyzer_scratch_is_reusable_across_conflicts() {
        let (graph, trail, conflict) = classic();
        let mut analyzer = Analyzer::new();
        let first = analyzer.analyze(&graph, &trail, 3, &conflict);
        let second = analyzer.analyze(&graph, &trail, 3, &conflict);
        assert_eq!(first, second, "scratch state must fully reset");
        // Recycled buffers come back cleared of the previous clause.
        analyzer.recycle(first);
        let third = analyzer.analyze(&graph, &trail, 3, &conflict);
        assert_eq!(third, second, "recycled buffers must fully reset");
    }
}
