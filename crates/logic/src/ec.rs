//! A simplified discrete-time event calculus, after Tun et al.'s privacy
//! arguments (Graydon §III-P).
//!
//! The dialect implements the core commonsense-law-of-inertia fragment:
//!
//! * `Happens(e, t)` — event `e` occurs at time `t` (given as a narrative);
//! * `Initiates(e, f)` / `Terminates(e, f)` — domain axioms;
//! * `HoldsAt(f, t)` — derived: a fluent holds at `t` iff it was initiated
//!   at some `t' < t` and not terminated in between.
//!
//! Fluents and events are ground first-order terms (from [`crate::fol`]),
//! so domain axioms can be written with structure, e.g.
//! `Initiates(tap(user, subject), query_pending(subject))`.
//!
//! ```
//! use casekit_logic::ec::Narrative;
//! use casekit_logic::fol::parse_term;
//!
//! let mut n = Narrative::new();
//! n.initiates(parse_term("grant(alice)").unwrap(), parse_term("access(alice)").unwrap()).unwrap();
//! n.terminates(parse_term("revoke(alice)").unwrap(), parse_term("access(alice)").unwrap()).unwrap();
//! n.happens(parse_term("grant(alice)").unwrap(), 1).unwrap();
//! n.happens(parse_term("revoke(alice)").unwrap(), 5).unwrap();
//! assert!(!n.holds_at(&parse_term("access(alice)").unwrap(), 1)); // effects take one tick
//! assert!(n.holds_at(&parse_term("access(alice)").unwrap(), 2));
//! assert!(!n.holds_at(&parse_term("access(alice)").unwrap(), 6));
//! ```

use crate::error::LogicError;
use crate::fol::Term;
use serde::{Deserialize, Serialize};

/// Discrete time point.
pub type Time = u64;

/// A domain axiom: the event (possibly with variables, matched by
/// unification) initiates or terminates the fluent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct EffectAxiom {
    event: Term,
    fluent: Term,
}

/// An event-calculus narrative: domain axioms plus a timeline of events.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Narrative {
    initiates: Vec<EffectAxiom>,
    terminates: Vec<EffectAxiom>,
    happens: Vec<(Term, Time)>,
}

impl Narrative {
    /// An empty narrative.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates a domain axiom: every variable of the fluent must be
    /// bound by the event pattern, so applying the axiom to a ground
    /// event can only produce ground fluent instances.
    fn check_axiom(event: &Term, fluent: &Term, kind: &str) -> Result<(), LogicError> {
        let bound = event.variables();
        if let Some(unguarded) = fluent.variables().into_iter().find(|v| !bound.contains(v)) {
            return Err(LogicError::UnguardedVariable {
                variable: unguarded.to_string(),
                axiom: format!("{event} {kind} {fluent}"),
            });
        }
        Ok(())
    }

    /// Declares that `event` initiates `fluent`.
    ///
    /// Both may contain variables; an occurring event initiates the fluent
    /// instance obtained by unifying against the axiom's event pattern.
    /// Errors when the fluent mentions a variable the event does not
    /// bind (such an axiom could derive non-ground fluents).
    pub fn initiates(&mut self, event: Term, fluent: Term) -> Result<(), LogicError> {
        Self::check_axiom(&event, &fluent, "initiates")?;
        self.initiates.push(EffectAxiom { event, fluent });
        Ok(())
    }

    /// Declares that `event` terminates `fluent`. Errors like
    /// [`Narrative::initiates`] when the fluent has an unguarded variable.
    pub fn terminates(&mut self, event: Term, fluent: Term) -> Result<(), LogicError> {
        Self::check_axiom(&event, &fluent, "terminates")?;
        self.terminates.push(EffectAxiom { event, fluent });
        Ok(())
    }

    /// Records that `event` happens at `time`. Errors when the event is
    /// not ground: the narrative is a concrete timeline, not a pattern.
    pub fn happens(&mut self, event: Term, time: Time) -> Result<(), LogicError> {
        if !event.is_ground() {
            return Err(LogicError::NonGroundTerm {
                term: event.to_string(),
            });
        }
        self.happens.push((event, time));
        Ok(())
    }

    /// The events that happen at `time`.
    pub fn events_at(&self, time: Time) -> impl Iterator<Item = &Term> {
        self.happens
            .iter()
            .filter(move |(_, t)| *t == time)
            .map(|(e, _)| e)
    }

    /// The latest time at which any event happens (0 if none).
    pub fn horizon(&self) -> Time {
        self.happens.iter().map(|(_, t)| *t).max().unwrap_or(0)
    }

    /// Ground fluent instances affected (initiated or terminated) by
    /// `event` under the given axiom set.
    fn effects(axioms: &[EffectAxiom], event: &Term) -> Vec<Term> {
        use crate::fol::{unify, Substitution};
        let mut out = Vec::new();
        for axiom in axioms {
            // Freshen axiom variables so narrative constants never clash.
            let ev = axiom.event.rename_variables(usize::MAX);
            let fl = axiom.fluent.rename_variables(usize::MAX);
            if let Some(s) = unify(&ev, event, &Substitution::new()) {
                out.push(s.apply(&fl));
            }
        }
        out
    }

    /// Whether `fluent` (a ground term) holds at `time`.
    ///
    /// Semantics: no fluent holds at time 0; for `t > 0`, effects of
    /// events at time `t-1` apply at `t`, with termination taking
    /// precedence over initiation at the same instant, and inertia
    /// otherwise.
    pub fn holds_at(&self, fluent: &Term, time: Time) -> bool {
        let mut holds = false;
        for t in 0..time {
            let mut initiated = false;
            let mut terminated = false;
            for event in self.events_at(t) {
                if Self::effects(&self.initiates, event).contains(fluent) {
                    initiated = true;
                }
                if Self::effects(&self.terminates, event).contains(fluent) {
                    terminated = true;
                }
            }
            if terminated {
                holds = false;
            } else if initiated {
                holds = true;
            }
            // Otherwise inertia: `holds` is unchanged.
        }
        holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fol::parse_term;

    fn t(src: &str) -> Term {
        parse_term(src).unwrap()
    }

    fn tap_narrative() -> Narrative {
        // Tun et al.'s example (propositional skeleton): tapping a friend's
        // icon makes their location available one step later; untap revokes.
        let mut n = Narrative::new();
        n.initiates(t("tap(User, Subject)"), t("loc_avail(User, Subject)"))
            .unwrap();
        n.terminates(t("untap(User, Subject)"), t("loc_avail(User, Subject)"))
            .unwrap();
        n
    }

    #[test]
    fn initiation_takes_effect_next_tick() {
        let mut n = tap_narrative();
        n.happens(t("tap(alice, bob)"), 3).unwrap();
        let fl = t("loc_avail(alice, bob)");
        assert!(!n.holds_at(&fl, 3));
        assert!(n.holds_at(&fl, 4));
        assert!(n.holds_at(&fl, 10));
    }

    #[test]
    fn termination_removes_fluent() {
        let mut n = tap_narrative();
        n.happens(t("tap(alice, bob)"), 1).unwrap();
        n.happens(t("untap(alice, bob)"), 5).unwrap();
        let fl = t("loc_avail(alice, bob)");
        assert!(n.holds_at(&fl, 2));
        assert!(n.holds_at(&fl, 5));
        assert!(!n.holds_at(&fl, 6));
    }

    #[test]
    fn termination_wins_simultaneous_conflict() {
        let mut n = tap_narrative();
        n.happens(t("tap(alice, bob)"), 2).unwrap();
        n.happens(t("untap(alice, bob)"), 2).unwrap();
        assert!(!n.holds_at(&t("loc_avail(alice, bob)"), 3));
    }

    #[test]
    fn axiom_variables_bind_per_event() {
        let mut n = tap_narrative();
        n.happens(t("tap(alice, bob)"), 0).unwrap();
        n.happens(t("tap(carol, dave)"), 0).unwrap();
        assert!(n.holds_at(&t("loc_avail(alice, bob)"), 1));
        assert!(n.holds_at(&t("loc_avail(carol, dave)"), 1));
        assert!(!n.holds_at(&t("loc_avail(alice, dave)"), 1));
    }

    #[test]
    fn horizon_and_events_at() {
        let mut n = Narrative::new();
        assert_eq!(n.horizon(), 0);
        n.happens(t("e1"), 4).unwrap();
        n.happens(t("e2"), 9).unwrap();
        n.happens(t("e3"), 4).unwrap();
        assert_eq!(n.horizon(), 9);
        assert_eq!(n.events_at(4).count(), 2);
        assert_eq!(n.events_at(5).count(), 0);
    }

    #[test]
    fn unguarded_axiom_variable_rejected() {
        let mut n = Narrative::new();
        let err = n
            .initiates(t("tap(U)"), t("seen(W)"))
            .expect_err("W is not bound by the trigger");
        assert_eq!(
            err,
            LogicError::UnguardedVariable {
                variable: "W".into(),
                axiom: "tap(U) initiates seen(W)".into(),
            }
        );
        let err = n
            .terminates(t("untap(U, V)"), t("loc_avail(U, Other)"))
            .expect_err("Other is not bound by the trigger");
        assert!(matches!(err, LogicError::UnguardedVariable { .. }));
        // Guarded axioms (fluent vars ⊆ event vars) are accepted, as are
        // fluents with no variables at all.
        n.initiates(t("tap(U, V)"), t("loc_avail(U, V)")).unwrap();
        n.initiates(t("reset(U)"), t("clean")).unwrap();
    }

    #[test]
    fn non_ground_narrative_entries_rejected() {
        let mut n = Narrative::new();
        let err = n.happens(t("tap(X, bob)"), 1).expect_err("X is unbound");
        assert_eq!(
            err,
            LogicError::NonGroundTerm {
                term: "tap(X, bob)".into(),
            }
        );
        assert_eq!(n.horizon(), 0);
    }

    #[test]
    fn re_initiation_after_termination() {
        let mut n = tap_narrative();
        n.happens(t("tap(alice, bob)"), 0).unwrap();
        n.happens(t("untap(alice, bob)"), 2).unwrap();
        n.happens(t("tap(alice, bob)"), 4).unwrap();
        let fl = t("loc_avail(alice, bob)");
        assert!(n.holds_at(&fl, 1));
        assert!(!n.holds_at(&fl, 3));
        assert!(n.holds_at(&fl, 5));
    }
}
