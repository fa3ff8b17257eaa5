//! Informal fallacies: seeded instances for case studies, and heuristic
//! lints that are *deliberately* unsound and incomplete.
//!
//! Graydon §IV-C: "Computers process the form of arguments but not their
//! real-world meaning. Thus, mechanical verification … cannot show the
//! absence of informal fallacies." This module therefore provides two
//! honest things:
//!
//! 1. [`Seeded`] — a record of informal fallacies *known to be present*
//!    in an argument (because a case-study author put them there). This is
//!    the ground truth against which detectors and simulated reviewers are
//!    scored.
//! 2. Heuristic lints ([`glossary_equivocation_lint`],
//!    [`quantifier_mismatch_lint`]) that surface *cues* a human should
//!    examine. Their unit tests include false positives and false
//!    negatives on purpose: they are demonstrations of the limits, not
//!    refutations of them.
//!
//! Formally idle premises — red-herring candidates, or defence in depth
//! — are CaseLint's `CK104`, which reads them off
//! `casekit_core::semantics::ArgumentTheory::probe`.

use crate::taxonomy::InformalFallacy;
use casekit_core::{Argument, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A known-present informal fallacy, seeded into a case-study argument.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Seeded {
    /// The fallacy kind.
    pub kind: InformalFallacy,
    /// The node where it lives.
    pub node: NodeId,
    /// Why this is a fallacy (ground-truth note).
    pub note: String,
}

impl Seeded {
    /// Creates a seeded-fallacy record.
    pub fn new(kind: InformalFallacy, node: impl Into<NodeId>, note: impl Into<String>) -> Self {
        Seeded {
            kind,
            node: node.into(),
            note: note.into(),
        }
    }
}

impl fmt::Display for Seeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at `{}`: {}", self.kind, self.node, self.note)
    }
}

/// An argument together with its seeded ground truth — a *case study* in
/// the sense of Greenwell et al.'s fallacy review.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseStudy {
    /// The argument under review.
    pub argument: Argument,
    /// The informal fallacies known to be present.
    pub seeded: Vec<Seeded>,
}

impl CaseStudy {
    /// Creates a case study.
    pub fn new(argument: Argument, seeded: Vec<Seeded>) -> Self {
        CaseStudy { argument, seeded }
    }

    /// Count of seeded fallacies per kind.
    pub fn counts(&self) -> BTreeMap<InformalFallacy, usize> {
        let mut out = BTreeMap::new();
        for s in &self.seeded {
            *out.entry(s.kind).or_insert(0) += 1;
        }
        out
    }
}

/// A cue raised by a heuristic lint — explicitly *not* a finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cue {
    /// The fallacy kind the cue *might* indicate.
    pub possible: InformalFallacy,
    /// Where.
    pub node: Option<NodeId>,
    /// What to look at.
    pub detail: String,
}

impl fmt::Display for Cue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "possible {}: {}", self.possible, self.detail)?;
        if let Some(n) = &self.node {
            write!(f, " (at `{n}`)")?;
        }
        Ok(())
    }
}

/// Glossary-based equivocation lint: given a glossary mapping a term to
/// its *declared sense per node*, flag terms used with two different
/// senses. The glossary itself is an informal judgment — which is the
/// point: the machine only mechanises bookkeeping a human already did.
pub fn glossary_equivocation_lint(glossary: &BTreeMap<(NodeId, String), String>) -> Vec<Cue> {
    // term -> set of senses (with a witness node each).
    let mut senses: BTreeMap<&String, BTreeMap<&String, &NodeId>> = BTreeMap::new();
    for ((node, term), sense) in glossary {
        senses.entry(term).or_default().entry(sense).or_insert(node);
    }
    senses
        .into_iter()
        .filter(|(_, m)| m.len() >= 2)
        .map(|(term, m)| {
            let sense_list: Vec<String> = m
                .iter()
                .map(|(sense, node)| format!("`{sense}` at `{node}`"))
                .collect();
            Cue {
                possible: InformalFallacy::Equivocation,
                node: None,
                detail: format!(
                    "term `{term}` is declared with {} senses: {}",
                    sense_list.len(),
                    sense_list.join(", ")
                ),
            }
        })
        .collect()
}

/// Quantifier-mismatch lint over node text: a node whose text claims
/// "all …" supported only by nodes whose text says "some …" or "sampled"
/// is a *cue* for hasty generalisation. Purely lexical — demonstrably
/// fragile, as the tests show.
pub fn quantifier_mismatch_lint(argument: &Argument) -> Vec<Cue> {
    let mut cues = Vec::new();
    for node in argument.nodes() {
        let text = node.text.to_lowercase();
        let claims_all = text.contains("all ") || text.starts_with("all");
        if !claims_all {
            continue;
        }
        let support = argument.children(&node.id, casekit_core::EdgeKind::SupportedBy);
        if support.is_empty() {
            continue;
        }
        let all_partial = support.iter().all(|c| {
            let t = c.text.to_lowercase();
            t.contains("some ") || t.contains("sample") || t.contains("subset")
        });
        if all_partial {
            cues.push(Cue {
                possible: InformalFallacy::HastyInductiveGeneralisation,
                node: Some(node.id.clone()),
                detail: format!(
                    "`{}` claims a universal but is supported only by partial evidence",
                    node.id
                ),
            });
        }
    }
    cues
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_core::dsl::parse_argument;

    #[test]
    fn seeded_records_and_counts() {
        let arg =
            parse_argument(r#"argument "cs" { goal g1 "claim" { solution e1 "ev" } }"#).unwrap();
        let cs = CaseStudy::new(
            arg,
            vec![
                Seeded::new(InformalFallacy::RedHerring, "g1", "irrelevant support"),
                Seeded::new(InformalFallacy::RedHerring, "e1", "more of it"),
                Seeded::new(InformalFallacy::Equivocation, "g1", "two senses of 'safe'"),
            ],
        );
        let counts = cs.counts();
        assert_eq!(counts[&InformalFallacy::RedHerring], 2);
        assert_eq!(counts[&InformalFallacy::Equivocation], 1);
        assert!(cs.seeded[0].to_string().contains("red herring"));
    }

    #[test]
    fn glossary_lint_flags_two_senses() {
        let mut glossary = BTreeMap::new();
        glossary.insert(
            (NodeId::new("g1"), "bank".to_string()),
            "financial institution".to_string(),
        );
        glossary.insert(
            (NodeId::new("g2"), "bank".to_string()),
            "river landform".to_string(),
        );
        glossary.insert(
            (NodeId::new("g3"), "river".to_string()),
            "watercourse".to_string(),
        );
        let cues = glossary_equivocation_lint(&glossary);
        assert_eq!(cues.len(), 1);
        assert_eq!(cues[0].possible, InformalFallacy::Equivocation);
        assert!(cues[0].detail.contains("bank"));
        assert!(cues[0].to_string().contains("possible equivocation"));
    }

    #[test]
    fn glossary_lint_depends_entirely_on_human_input() {
        // False negative by construction: if the glossary author recorded
        // one sense for both uses, the machine is silent — the lint only
        // mechanises the human's judgment.
        let mut glossary = BTreeMap::new();
        glossary.insert((NodeId::new("g1"), "bank".to_string()), "bank".to_string());
        glossary.insert((NodeId::new("g2"), "bank".to_string()), "bank".to_string());
        assert!(glossary_equivocation_lint(&glossary).is_empty());
    }

    #[test]
    fn quantifier_lint_flags_all_from_some() {
        let arg = parse_argument(
            r#"argument "haz" {
                goal g1 "All hazards are mitigated" {
                  solution e1 "Some hazards were tested in the lab"
                }
            }"#,
        )
        .unwrap();
        let cues = quantifier_mismatch_lint(&arg);
        assert_eq!(cues.len(), 1);
        assert_eq!(
            cues[0].possible,
            InformalFallacy::HastyInductiveGeneralisation
        );
        assert_eq!(cues[0].node, Some(NodeId::new("g1")));
    }

    #[test]
    fn quantifier_lint_false_negative_with_synonyms() {
        // "every" instead of "all", "a few" instead of "some": silent.
        // Lexical lints cannot see meaning — the paper's point.
        let arg = parse_argument(
            r#"argument "haz" {
                goal g1 "Every hazard is mitigated" {
                  solution e1 "A few hazards were tested"
                }
            }"#,
        )
        .unwrap();
        assert!(quantifier_mismatch_lint(&arg).is_empty());
    }

    #[test]
    fn quantifier_lint_quiet_on_complete_support() {
        let arg = parse_argument(
            r#"argument "haz" {
                goal g1 "All hazards are mitigated" {
                  solution e1 "Exhaustive hazard-by-hazard closure review"
                }
            }"#,
        )
        .unwrap();
        assert!(quantifier_mismatch_lint(&arg).is_empty());
    }
}
