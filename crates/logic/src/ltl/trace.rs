//! Trace semantics for LTL.
//!
//! Two trace shapes are supported:
//!
//! * **finite** traces, evaluated with the standard finite-trace (LTLf)
//!   semantics: `X p` is false at the last step, `G p` means "p for the
//!   remaining steps", `F p` means "p at some remaining step";
//! * **lasso** traces `prefix · loopω` — ultimately periodic infinite
//!   traces, for which evaluation is exact.

use super::ast::Ltl;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A trace: a sequence of states, each a set of true propositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    states: Vec<BTreeSet<Arc<str>>>,
    /// For a lasso trace, the index where the loop begins; `None` for a
    /// finite trace.
    loop_start: Option<usize>,
}

fn to_state<I, S>(props: I) -> BTreeSet<Arc<str>>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    props.into_iter().map(|s| Arc::from(s.as_ref())).collect()
}

impl Trace {
    /// A finite trace from per-step proposition lists.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty: LTL traces are non-empty.
    pub fn finite<I, J, S>(steps: I) -> Trace
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let states: Vec<_> = steps.into_iter().map(to_state).collect();
        assert!(!states.is_empty(), "traces must be non-empty");
        Trace {
            states,
            loop_start: None,
        }
    }

    /// A lasso trace `prefix · loopω`.
    ///
    /// # Panics
    ///
    /// Panics if `looped` is empty: the loop must repeat at least one state.
    pub fn lasso<I, J, S>(prefix: I, looped: I) -> Trace
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut states: Vec<_> = prefix.into_iter().map(to_state).collect();
        let loop_start = states.len();
        let loop_states: Vec<_> = looped.into_iter().map(to_state).collect();
        assert!(!loop_states.is_empty(), "lasso loop must be non-empty");
        states.extend(loop_states);
        Trace {
            states,
            loop_start: Some(loop_start),
        }
    }

    /// Number of distinct stored states (prefix + one loop unrolling).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the trace stores no states (never true: constructors forbid
    /// empty traces, but provided for the conventional pairing with `len`).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Whether `prop` holds at stored position `i`.
    pub fn holds(&self, i: usize, prop: &str) -> bool {
        self.states
            .get(i)
            .is_some_and(|s| s.iter().any(|p| p.as_ref() == prop))
    }

    /// The successor of stored position `i`, or `None` at the end of a
    /// finite trace.
    fn successor(&self, i: usize) -> Option<usize> {
        if i + 1 < self.states.len() {
            Some(i + 1)
        } else {
            self.loop_start
        }
    }

    /// Evaluates `formula` at the start of the trace.
    pub fn satisfies(&self, formula: &Ltl) -> bool {
        self.satisfies_at(formula, 0)
    }

    /// Evaluates `formula` at stored position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn satisfies_at(&self, formula: &Ltl, pos: usize) -> bool {
        assert!(pos < self.states.len(), "position out of range");
        match formula {
            Ltl::True => true,
            Ltl::False => false,
            Ltl::Prop(p) => self.holds(pos, p),
            Ltl::Not(a) => !self.satisfies_at(a, pos),
            Ltl::And(a, b) => self.satisfies_at(a, pos) && self.satisfies_at(b, pos),
            Ltl::Or(a, b) => self.satisfies_at(a, pos) || self.satisfies_at(b, pos),
            Ltl::Implies(a, b) => !self.satisfies_at(a, pos) || self.satisfies_at(b, pos),
            Ltl::Next(a) => match self.successor(pos) {
                Some(next) => self.satisfies_at(a, next),
                None => false, // strong next on finite traces
            },
            Ltl::Finally(a) => self
                .positions_from(pos)
                .into_iter()
                .any(|i| self.satisfies_at(a, i)),
            Ltl::Globally(a) => self
                .positions_from(pos)
                .into_iter()
                .all(|i| self.satisfies_at(a, i)),
            Ltl::Until(a, b) => {
                // Find a position where b holds with a holding strictly
                // before; one pass over the reachable positions suffices
                // because lasso states repeat verbatim.
                for i in self.positions_from(pos) {
                    if self.satisfies_at(b, i) {
                        return true;
                    }
                    if !self.satisfies_at(a, i) {
                        return false;
                    }
                }
                // Positions exhausted without reaching b: until fails.
                false
            }
            Ltl::Release(a, b) => {
                // p R q ≡ ¬(¬p U ¬q)
                let neg = Ltl::clone(a).not().until(Ltl::clone(b).not()).not();
                self.satisfies_at(&neg, pos)
            }
        }
    }

    /// The distinct stored positions reachable from `pos`, in temporal
    /// order: `pos..len`, then — when `pos` sits strictly inside the loop —
    /// the wrapped-around loop positions `loop_start..pos`. Visiting each
    /// stored position once suffices because lasso states repeat verbatim.
    fn positions_from(&self, pos: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (pos..self.states.len()).collect();
        if let Some(loop_start) = self.loop_start {
            if pos > loop_start {
                out.extend(loop_start..pos);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_ltl;
    use super::*;

    fn f(src: &str) -> Ltl {
        parse_ltl(src).unwrap()
    }

    const NONE: [&str; 0] = [];

    #[test]
    fn props_at_positions() {
        let t = Trace::finite(vec![vec!["a"], vec!["b"], vec!["a", "b"]]);
        assert!(t.holds(0, "a"));
        assert!(!t.holds(0, "b"));
        assert!(t.holds(2, "a") && t.holds(2, "b"));
        assert!(!t.holds(3, "a"));
        assert_eq!(t.len(), 3);
        assert!(t.loop_start.is_none());
        assert!(!t.is_empty());
    }

    #[test]
    fn finite_globally_finally() {
        let t = Trace::finite(vec![vec!["p"], vec!["p"], vec!["p", "q"]]);
        assert!(t.satisfies(&f("G p")));
        assert!(t.satisfies(&f("F q")));
        assert!(!t.satisfies(&f("G q")));
        assert!(!t.satisfies(&f("F r")));
    }

    #[test]
    fn finite_next_is_strong() {
        let t = Trace::finite(vec![vec!["p"]]);
        // Only one state: X anything is false (strong next).
        assert!(!t.satisfies(&f("X p")));
        assert!(!t.satisfies(&f("X true")));
        let t = Trace::finite(vec![vec![], vec!["p"]]);
        assert!(t.satisfies(&f("X p")));
    }

    #[test]
    fn until_semantics() {
        let t = Trace::finite(vec![vec!["a"], vec!["a"], vec!["b"]]);
        assert!(t.satisfies(&f("a U b")));
        let t = Trace::finite(vec![vec!["a"], vec![], vec!["b"]]);
        assert!(!t.satisfies(&f("a U b")));
        // b immediately: a need not hold at all.
        let t = Trace::finite(vec![vec!["b"]]);
        assert!(t.satisfies(&f("a U b")));
        // Finite trace without b: fails even if a always holds.
        let t = Trace::finite(vec![vec!["a"], vec!["a"]]);
        assert!(!t.satisfies(&f("a U b")));
    }

    #[test]
    fn release_semantics() {
        // q must hold up to and including when p first holds.
        let t = Trace::finite(vec![vec!["q"], vec!["q", "p"], vec![]]);
        assert!(t.satisfies(&f("p R q")));
        // q fails before p: release fails.
        let t = Trace::finite(vec![vec!["q"], vec![], vec!["p", "q"]]);
        assert!(!t.satisfies(&f("p R q")));
        // p never holds: q must hold for the whole (finite) trace.
        let t = Trace::finite(vec![vec!["q"], vec!["q"]]);
        assert!(t.satisfies(&f("p R q")));
    }

    #[test]
    fn lasso_infinite_behaviour() {
        // Lasso: p in the loop means G F p.
        let t = Trace::lasso(vec![Vec::<&str>::new()], vec![vec!["p"], vec![]]);
        assert!(t.satisfies(&f("G F p")));
        assert!(t.loop_start.is_some());
        // Lasso with p only in the prefix: F p holds but G p does not.
        let t2 = Trace::lasso(vec![vec!["p"]], vec![NONE.to_vec()]);
        assert!(t2.satisfies(&f("F p")));
        assert!(!t2.satisfies(&f("G p")));
        // And from inside the loop, p is gone forever.
        assert!(!t2.satisfies(&f("X F p")));
    }

    #[test]
    fn finally_wraps_around_lasso_loop() {
        // Loop [{p}, {}]: from loop position 1 the future wraps back to
        // position 0, so F p must hold there.
        let t = Trace::lasso(Vec::<Vec<&str>>::new(), vec![vec!["p"], NONE.to_vec()]);
        assert!(t.satisfies(&f("X F p")));
        assert!(t.satisfies(&f("G F p")));
        assert!(!t.satisfies(&f("G p")));
        // Until also wraps: at position 1, (true U p) must succeed.
        assert!(t.satisfies(&f("X (true U p)")));
    }

    #[test]
    fn lasso_next_wraps_around() {
        // Single-state loop: X p ≡ p.
        let t = Trace::lasso(Vec::<Vec<&str>>::new(), vec![vec!["p"]]);
        assert!(t.satisfies(&f("p")));
        assert!(t.satisfies(&f("X p")));
        assert!(t.satisfies(&f("X X p")));
        assert!(t.satisfies(&f("G p")));
    }

    #[test]
    fn request_grant_pattern() {
        let ok = Trace::lasso(vec![vec!["request"], vec![], vec!["grant"]], vec![vec![]]);
        assert!(ok.satisfies(&f("G (request -> F grant)")));
        let bad = Trace::lasso(vec![vec!["request"], vec![]], vec![vec![]]);
        assert!(!bad.satisfies(&f("G (request -> F grant)")));
    }

    #[test]
    fn brunel_cazin_detect_and_avoid() {
        // Propositionalised: G (below_min -> (nonzero U above_min)).
        let good = Trace::finite(vec![
            vec!["above_min", "nonzero"],
            vec!["below_min", "nonzero"],
            vec!["nonzero"],
            vec!["above_min", "nonzero"],
        ]);
        assert!(good.satisfies(&f("G (below_min -> (nonzero U above_min))")));
        let collision = Trace::finite(vec![
            vec!["below_min", "nonzero"],
            vec![], // distance reaches zero: collision
        ]);
        assert!(!collision.satisfies(&f("G (below_min -> (nonzero U above_min))")));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_finite_trace_panics() {
        let _ = Trace::finite(Vec::<Vec<&str>>::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_position_panics() {
        let t = Trace::finite(vec![vec!["p"]]);
        let _ = t.satisfies_at(&f("p"), 5);
    }
}
