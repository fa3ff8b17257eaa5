//! The paper's three dimensions of argument "formality" (Graydon §II-B).
//!
//! Formality is not one property: an argument may have (1) formally
//! specified *syntax*, (2) *symbolic* rather than natural-language content,
//! and (3) *deductive* rather than inductive inference — independently.
//! [`profile`] classifies an [`Argument`] along all three.

use crate::argument::Argument;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One dimension of formality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Dimension {
    /// The argument's syntax conforms to a machine-checkable grammar
    /// (here: GSN or CAE well-formedness).
    SyntaxSpecified,
    /// Claims are expressed as symbols connected by operators.
    Symbolic,
    /// Support steps are deductive (child claims entail the parent).
    Deductive,
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Dimension::SyntaxSpecified => "syntax-specified",
            Dimension::Symbolic => "symbolic",
            Dimension::Deductive => "deductive",
        };
        f.write_str(name)
    }
}

/// How far an argument goes along each dimension.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Fraction of syntax rules satisfied: 1.0 means fully well-formed
    /// under the best-fitting notation (GSN or CAE).
    pub syntax: f64,
    /// Fraction of propositional nodes carrying symbolic payloads.
    pub symbolic: f64,
    /// Fraction of goal-support steps that are deductively valid (checked
    /// on formalised nodes only; `None` when nothing is checkable).
    pub deductive: Option<f64>,
}

impl Profile {
    /// The dimensions this argument can reasonably be said to have
    /// (thresholds: syntax = 1.0, symbolic ≥ 0.5, deductive = 1.0).
    pub fn dimensions(&self) -> Vec<Dimension> {
        let mut out = Vec::new();
        if self.syntax >= 1.0 {
            out.push(Dimension::SyntaxSpecified);
        }
        if self.symbolic >= 0.5 {
            out.push(Dimension::Symbolic);
        }
        if self.deductive == Some(1.0) {
            out.push(Dimension::Deductive);
        }
        out
    }
}

/// Classifies `argument` along the three formality dimensions.
///
/// * `syntax`: 1.0 if GSN or CAE well-formedness finds no issues, else
///   `1 - issues/nodes` (floored at 0) for the better-fitting notation;
/// * `symbolic`: formalised propositional nodes / propositional nodes;
/// * `deductive`: over goals whose formal payload and whose supporting
///   goals' payloads are all propositional, the fraction where the
///   children's conjunction entails the parent.
pub fn profile(argument: &Argument) -> Profile {
    let n = argument.len().max(1) as f64;
    let gsn_issues = crate::gsn::check(argument).len() as f64;
    let cae_issues = crate::cae::check(argument).len() as f64;
    let syntax = (1.0 - gsn_issues.min(cae_issues) / n).max(0.0);

    let propositional: Vec<_> = argument
        .nodes()
        .filter(|node| node.kind.is_propositional())
        .collect();
    let symbolic = if propositional.is_empty() {
        0.0
    } else {
        propositional
            .iter()
            .filter(|node| node.is_formalised())
            .count() as f64
            / propositional.len() as f64
    };

    // One theory compilation for the whole profile; each step check is
    // an assumption round against it.
    let mut theory = crate::semantics::ArgumentTheory::compile(argument);
    let mut checkable = 0usize;
    let mut valid = 0usize;
    for node in &propositional {
        let idx = argument.node_idx(&node.id).expect("node is in the arena");
        if let Some(result) = theory.step_is_deductive(idx) {
            checkable += 1;
            if result {
                valid += 1;
            }
        }
    }
    let deductive = if checkable == 0 {
        None
    } else {
        Some(valid as f64 / checkable as f64)
    };

    Profile {
        syntax,
        symbolic,
        deductive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{FormalPayload, Node, NodeKind};
    use casekit_logic::prop::parse;

    fn informal() -> Argument {
        Argument::builder("informal")
            .add("g1", NodeKind::Goal, "Safe")
            .add("e1", NodeKind::Solution, "Tests")
            .supported_by("g1", "e1")
            .build()
            .unwrap()
    }

    fn symbolic_deductive() -> Argument {
        Argument::builder("formal")
            .node(
                Node::new("g1", NodeKind::Goal, "q holds")
                    .with_formal(FormalPayload::Prop(parse("q").unwrap())),
            )
            .node(
                Node::new("g2", NodeKind::Goal, "p and p->q")
                    .with_formal(FormalPayload::Prop(parse("p & (p -> q)").unwrap())),
            )
            .add("e1", NodeKind::Solution, "evidence for p and the rule")
            .supported_by("g1", "g2")
            .supported_by("g2", "e1")
            .build()
            .unwrap()
    }

    #[test]
    fn informal_argument_profile() {
        let p = profile(&informal());
        assert_eq!(p.syntax, 1.0); // well-formed GSN
        assert_eq!(p.symbolic, 0.0);
        assert_eq!(p.deductive, None);
        assert_eq!(p.dimensions(), vec![Dimension::SyntaxSpecified]);
    }

    #[test]
    fn symbolic_deductive_profile() {
        let p = profile(&symbolic_deductive());
        assert_eq!(p.syntax, 1.0);
        assert_eq!(p.symbolic, 1.0);
        assert_eq!(p.deductive, Some(1.0));
        let dims = p.dimensions();
        assert!(dims.contains(&Dimension::Symbolic));
        assert!(dims.contains(&Dimension::Deductive));
    }

    #[test]
    fn non_deductive_step_lowers_deductive_fraction() {
        let a = Argument::builder("weak")
            .node(
                Node::new("g1", NodeKind::Goal, "q holds")
                    .with_formal(FormalPayload::Prop(parse("q").unwrap())),
            )
            .node(
                Node::new("g2", NodeKind::Goal, "p holds")
                    .with_formal(FormalPayload::Prop(parse("p").unwrap())),
            )
            .add("e1", NodeKind::Solution, "evidence")
            .supported_by("g1", "g2") // p does not entail q
            .supported_by("g2", "e1")
            .build()
            .unwrap();
        let p = profile(&a);
        assert_eq!(p.deductive, Some(0.0));
        assert!(!p.dimensions().contains(&Dimension::Deductive));
    }

    #[test]
    fn ill_formed_argument_lowers_syntax_score() {
        let a = Argument::builder("bad")
            .add("e1", NodeKind::Solution, "E")
            .add("e2", NodeKind::Solution, "E2")
            .supported_by("e1", "e2")
            .build()
            .unwrap();
        let p = profile(&a);
        assert!(p.syntax < 1.0);
    }

    #[test]
    fn malformed_beyond_node_count_floors_at_zero() {
        // Single misplaced node can't push score below zero.
        let a = Argument::builder("tiny-bad")
            .add("e1", NodeKind::Solution, "floating")
            .build()
            .unwrap();
        let p = profile(&a);
        assert!(p.syntax >= 0.0);
    }

    #[test]
    fn dimension_display() {
        assert_eq!(Dimension::SyntaxSpecified.to_string(), "syntax-specified");
        assert_eq!(Dimension::Symbolic.to_string(), "symbolic");
        assert_eq!(Dimension::Deductive.to_string(), "deductive");
    }
}
