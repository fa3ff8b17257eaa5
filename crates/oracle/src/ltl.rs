//! The seed bounded LTL checker, kept as the differential oracle for
//! `Kripke::check_bounded` (which runs on the CSR plane) and as the
//! measured baseline of `repro ltl`.
//!
//! It enumerates the same lassos in the same order as the product
//! checker, but rebuilds each one as a [`Trace`] and evaluates the
//! formula recursively over label sets. It reads the structure only
//! through [`Kripke::initial_states`], [`Kripke::successors_of`] and
//! [`Kripke::labels_of`].

use casekit_logic::ltl::{CheckResult, Kripke, Ltl, StateId, Trace};
use casekit_logic::LogicError;

/// Checks `φ` on every lasso of total length ≤ `bound` starting from
/// each initial state, and returns the first counterexample found.
/// Deadlocked paths are treated as lassos stuttering on their final
/// state.
///
/// Errors when the structure has no initial states.
pub fn check_bounded(k: &Kripke, formula: &Ltl, bound: usize) -> Result<CheckResult, LogicError> {
    if k.initial_states().is_empty() {
        return Err(LogicError::NoInitialState);
    }
    for &init in k.initial_states() {
        let mut path = vec![init];
        if let Some(cex) = dfs(k, formula, &mut path, bound) {
            return Ok(cex);
        }
    }
    Ok(CheckResult::HoldsWithinBound)
}

/// DFS over paths; at each revisit of a state already on the path, a
/// lasso is formed and evaluated.
fn dfs(k: &Kripke, formula: &Ltl, path: &mut Vec<StateId>, bound: usize) -> Option<CheckResult> {
    let current = *path.last().expect("path non-empty");

    // Deadlock: treat as stuttering lasso on the last state.
    if k.successors_of(current).is_empty() {
        let prefix = &path[..path.len() - 1];
        let looped = &path[path.len() - 1..];
        if !trace_of(k, prefix, looped).satisfies(formula) {
            return Some(CheckResult::CounterExample {
                prefix: prefix.to_vec(),
                looped: looped.to_vec(),
            });
        }
        return None;
    }

    for &next in k.successors_of(current) {
        if let Some(loop_pos) = path.iter().position(|&s| s == next) {
            // Lasso closed: prefix is path[..loop_pos], loop is the rest.
            let prefix = &path[..loop_pos];
            let looped = &path[loop_pos..];
            if !trace_of(k, prefix, looped).satisfies(formula) {
                return Some(CheckResult::CounterExample {
                    prefix: prefix.to_vec(),
                    looped: looped.to_vec(),
                });
            }
        } else if path.len() < bound {
            path.push(next);
            if let Some(cex) = dfs(k, formula, path, bound) {
                return Some(cex);
            }
            path.pop();
        }
    }
    None
}

/// Builds the [`Trace`] corresponding to a lasso path through the
/// structure.
fn trace_of(k: &Kripke, prefix: &[StateId], looped: &[StateId]) -> Trace {
    let state_props =
        |id: &StateId| -> Vec<String> { k.labels_of(*id).map(|p| p.to_string()).collect() };
    Trace::lasso(
        prefix.iter().map(state_props).collect::<Vec<_>>(),
        looped.iter().map(state_props).collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_logic::ltl::parse_ltl;

    fn f(src: &str) -> Ltl {
        parse_ltl(src).unwrap()
    }

    /// Checks on both planes, asserts they agree (counterexamples
    /// included), and returns the shared result.
    fn check(k: &Kripke, formula: &Ltl, bound: usize) -> CheckResult {
        let fast = k.check_bounded(formula, bound).unwrap();
        let slow = check_bounded(k, formula, bound).unwrap();
        assert_eq!(fast, slow, "planes disagree on `{formula}`");
        fast
    }

    /// A two-state request/grant machine where every request is granted.
    fn good_arbiter() -> Kripke {
        let mut k = Kripke::new();
        let idle = k.add_state(Vec::<&str>::new());
        let req = k.add_state(vec!["request"]);
        let grant = k.add_state(vec!["grant"]);
        k.add_transition(idle, idle).unwrap();
        k.add_transition(idle, req).unwrap();
        k.add_transition(req, grant).unwrap();
        k.add_transition(grant, idle).unwrap();
        k.add_initial(idle).unwrap();
        k
    }

    #[test]
    fn invariant_holds() {
        let mut k = Kripke::new();
        let a = k.add_state(vec!["safe"]);
        let b = k.add_state(vec!["safe"]);
        k.add_transition(a, b).unwrap();
        k.add_transition(b, a).unwrap();
        k.add_initial(a).unwrap();
        assert!(check(&k, &f("G safe"), 10).holds());
    }

    #[test]
    fn invariant_violation_found_with_witness() {
        let mut k = Kripke::new();
        let a = k.add_state(vec!["safe"]);
        let b = k.add_state(Vec::<&str>::new()); // unsafe state
        k.add_transition(a, a).unwrap();
        k.add_transition(a, b).unwrap();
        k.add_transition(b, a).unwrap();
        k.add_initial(a).unwrap();
        match check(&k, &f("G safe"), 10) {
            CheckResult::CounterExample { prefix, looped } => {
                // The witness path must actually visit state b.
                assert!(prefix.contains(&b) || looped.contains(&b));
            }
            CheckResult::HoldsWithinBound => panic!("violation missed"),
        }
    }

    #[test]
    fn response_property() {
        let k = good_arbiter();
        assert!(check(&k, &f("G (request -> F grant)"), 12).holds());
    }

    #[test]
    fn response_violation_detected() {
        // A machine that can loop forever in the request state.
        let mut k = Kripke::new();
        let idle = k.add_state(Vec::<&str>::new());
        let req = k.add_state(vec!["request"]);
        k.add_transition(idle, req).unwrap();
        k.add_transition(req, req).unwrap(); // starvation loop
        k.add_initial(idle).unwrap();
        let result = check(&k, &f("G (request -> F grant)"), 12);
        assert!(!result.holds());
    }

    #[test]
    fn deadlock_treated_as_stutter() {
        let mut k = Kripke::new();
        let a = k.add_state(vec!["p"]);
        let end = k.add_state(vec!["p", "done"]);
        k.add_transition(a, end).unwrap();
        k.add_initial(a).unwrap();
        assert!(check(&k, &f("G p"), 10).holds());
        assert!(check(&k, &f("F done"), 10).holds());
        assert!(check(&k, &f("F G done"), 10).holds());
        assert!(!check(&k, &f("G done"), 10).holds());
    }

    #[test]
    fn detect_and_avoid_model() {
        // Brunel & Cazin's UAV claim, as a model: once separation drops
        // below minimum, distance stays non-zero until separation is
        // restored.
        let mut k = Kripke::new();
        let cruise = k.add_state(vec!["above_min", "nonzero"]);
        let conflict = k.add_state(vec!["below_min", "nonzero"]);
        let avoiding = k.add_state(vec!["nonzero"]);
        k.add_transition(cruise, cruise).unwrap();
        k.add_transition(cruise, conflict).unwrap();
        k.add_transition(conflict, avoiding).unwrap();
        k.add_transition(avoiding, cruise).unwrap();
        k.add_initial(cruise).unwrap();
        let claim = f("G (below_min -> (nonzero U above_min))");
        assert!(check(&k, &claim, 16).holds());

        // Introduce a collision state and the claim fails.
        let collision = k.add_state(Vec::<&str>::new());
        k.add_transition(avoiding, collision).unwrap();
        k.add_transition(collision, collision).unwrap();
        assert!(!check(&k, &claim, 16).holds());
    }

    #[test]
    fn multiple_initial_states_all_checked() {
        let mut k = Kripke::new();
        let good = k.add_state(vec!["p"]);
        let bad = k.add_state(Vec::<&str>::new());
        k.add_transition(good, good).unwrap();
        k.add_transition(bad, bad).unwrap();
        k.add_initial(good).unwrap();
        assert!(check(&k, &f("G p"), 5).holds());
        k.add_initial(bad).unwrap();
        assert!(!check(&k, &f("G p"), 5).holds());
    }

    #[test]
    fn no_initial_states_is_an_error() {
        let mut k = Kripke::new();
        k.add_state(vec!["p"]);
        assert_eq!(
            check_bounded(&k, &f("p"), 5),
            Err(LogicError::NoInitialState)
        );
    }

    #[test]
    fn planes_agree_on_counterexample_paths() {
        // A structure with several distinct violating lassos: both
        // planes must report the *same* (first) witness.
        let mut k = Kripke::new();
        let s: Vec<_> = (0..5)
            .map(|i| {
                if i % 2 == 0 {
                    k.add_state(vec!["p"])
                } else {
                    k.add_state(Vec::<&str>::new())
                }
            })
            .collect();
        for i in 0..5 {
            k.add_transition(s[i], s[(i + 1) % 5]).unwrap();
            k.add_transition(s[i], s[(i + 2) % 5]).unwrap();
        }
        k.add_initial(s[0]).unwrap();
        for formula in ["G p", "F G p", "G F p", "p U (G ~p)", "X X p"] {
            check(&k, &f(formula), 8);
        }
    }
}
