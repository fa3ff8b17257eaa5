//! Kripke structures and bounded LTL checking by lasso enumeration.
//!
//! Brunel & Cazin's proposal validates formalised argument claims against a
//! system model. We model the system as a Kripke structure (states labelled
//! with atomic propositions, total transition relation not required) and
//! check `M ⊨ φ` by enumerating every lasso path up to a bound and
//! evaluating `φ` on each — bounded model checking in its simplest,
//! auditable form. A counterexample lasso is returned when found. The
//! seed checker that evaluates each lasso as a [`Trace`](super::Trace)
//! is the differential oracle `casekit_oracle::ltl::check_bounded`.

use super::ast::Ltl;
use super::csr::{CompiledLtl, CsrKripke};
use crate::error::LogicError;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Index of a state within a [`Kripke`] structure.
pub type StateId = usize;

/// The result of a bounded check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// Every lasso within the bound satisfies the formula.
    HoldsWithinBound,
    /// Some lasso violates the formula; the witness is returned together
    /// with the state sequence (prefix then loop).
    CounterExample {
        /// States along the prefix of the violating lasso.
        prefix: Vec<StateId>,
        /// States along the repeating loop.
        looped: Vec<StateId>,
    },
}

impl CheckResult {
    /// Whether the property held within the bound.
    pub fn holds(&self) -> bool {
        matches!(self, CheckResult::HoldsWithinBound)
    }
}

/// An explicit-state Kripke structure.
#[derive(Debug, Clone, Default)]
pub struct Kripke {
    labels: Vec<BTreeSet<Arc<str>>>,
    successors: Vec<Vec<StateId>>,
    initial: Vec<StateId>,
}

impl Kripke {
    /// An empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state labelled with the given true propositions; returns its id.
    pub fn add_state<I, S>(&mut self, props: I) -> StateId
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.labels
            .push(props.into_iter().map(|s| Arc::from(s.as_ref())).collect());
        self.successors.push(Vec::new());
        self.labels.len() - 1
    }

    /// Adds a transition `from → to`. Errors when either state id was
    /// never allocated by [`Kripke::add_state`].
    pub fn add_transition(&mut self, from: StateId, to: StateId) -> Result<(), LogicError> {
        for id in [from, to] {
            if id >= self.labels.len() {
                return Err(LogicError::UnknownState {
                    id,
                    states: self.labels.len(),
                });
            }
        }
        if !self.successors[from].contains(&to) {
            self.successors[from].push(to);
        }
        Ok(())
    }

    /// Marks a state as initial. Errors when the state id was never
    /// allocated by [`Kripke::add_state`].
    pub fn add_initial(&mut self, state: StateId) -> Result<(), LogicError> {
        if state >= self.labels.len() {
            return Err(LogicError::UnknownState {
                id: state,
                states: self.labels.len(),
            });
        }
        if !self.initial.contains(&state) {
            self.initial.push(state);
        }
        Ok(())
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the structure has no states.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The labels of a state.
    ///
    /// # Panics
    ///
    /// Panics if the state id is out of range.
    pub fn labels_of(&self, state: StateId) -> impl Iterator<Item = &str> {
        self.labels[state].iter().map(|s| s.as_ref())
    }

    /// The successors of a state, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the state id is out of range.
    pub fn successors_of(&self, state: StateId) -> &[StateId] {
        &self.successors[state]
    }

    /// The initial states, in insertion order.
    pub fn initial_states(&self) -> &[StateId] {
        &self.initial
    }

    /// Checks `φ` on every lasso of total length ≤ `bound` starting from
    /// each initial state. Returns the first counterexample found.
    ///
    /// Deadlocked paths (states with no successors) are treated as lassos
    /// stuttering on their final state, so finite behaviours are covered.
    ///
    /// The check runs on the CSR plane ([`CsrKripke`]): the structure
    /// compiles to a CSR graph with bitset labels, the formula to a flat
    /// node arena, and each candidate lasso is evaluated by closure
    /// table. Lassos are visited in the same order as the seed checker
    /// (`casekit_oracle::ltl::check_bounded`), so results — including
    /// counterexample paths — are identical. For repeated checks,
    /// compile once with [`CsrKripke::compile`] and query that.
    ///
    /// Errors when the structure has no initial states.
    pub fn check_bounded(&self, formula: &Ltl, bound: usize) -> Result<CheckResult, LogicError> {
        let csr = CsrKripke::compile(self);
        let compiled = CompiledLtl::compile(formula, &csr);
        csr.check_bounded(&compiled, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_ltl;
    use super::*;

    #[test]
    fn no_initial_states_is_an_error() {
        let mut k = Kripke::new();
        k.add_state(vec!["p"]);
        assert_eq!(
            k.check_bounded(&parse_ltl("p").unwrap(), 5),
            Err(LogicError::NoInitialState)
        );
    }

    #[test]
    fn bad_state_ids_are_errors() {
        let mut k = Kripke::new();
        let a = k.add_state(vec!["p"]);
        assert_eq!(
            k.add_transition(a, 99),
            Err(LogicError::UnknownState { id: 99, states: 1 })
        );
        assert_eq!(
            k.add_transition(7, a),
            Err(LogicError::UnknownState { id: 7, states: 1 })
        );
        assert_eq!(
            k.add_initial(3),
            Err(LogicError::UnknownState { id: 3, states: 1 })
        );
    }

    #[test]
    fn labels_accessible() {
        let mut k = Kripke::new();
        let a = k.add_state(vec!["x", "y"]);
        let labels: Vec<_> = k.labels_of(a).collect();
        assert_eq!(labels, vec!["x", "y"]);
        assert_eq!(k.len(), 1);
        assert!(!k.is_empty());
        assert_eq!(k.successors_of(a), &[] as &[StateId]);
        assert_eq!(k.initial_states(), &[] as &[StateId]);
    }
}
