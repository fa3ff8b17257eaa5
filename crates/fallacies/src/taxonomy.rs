//! The fallacy taxonomy: formal kinds (Damer) and informal kinds
//! (Greenwell et al., plus the classical ones the paper discusses).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A formal fallacy: a flaw in the *form* of an argument, identifiable
/// after replacing all identifiers with meaningless symbols (Graydon
/// §IV-A, citing Damer's list of eight).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FormalFallacy {
    /// The conclusion appears among the premises.
    BeggingTheQuestion,
    /// The premises cannot all be true together.
    IncompatiblePremises,
    /// A premise contradicts the conclusion.
    PremiseConclusionContradiction,
    /// From `p → q` and `¬p`, concluding `¬q`.
    DenyingTheAntecedent,
    /// From `p → q` and `q`, concluding `p`.
    AffirmingTheConsequent,
    /// From `p → q`, concluding `q → p` (or "All A are B" ⇒ "All B are A").
    FalseConversion,
    /// A categorical syllogism whose middle term is never distributed.
    UndistributedMiddle,
    /// A term distributed in the conclusion but not in its premise
    /// (illicit major/minor).
    IllicitDistribution,
}

impl FormalFallacy {
    /// All eight, in Damer's order.
    pub const ALL: [FormalFallacy; 8] = [
        FormalFallacy::BeggingTheQuestion,
        FormalFallacy::IncompatiblePremises,
        FormalFallacy::PremiseConclusionContradiction,
        FormalFallacy::DenyingTheAntecedent,
        FormalFallacy::AffirmingTheConsequent,
        FormalFallacy::FalseConversion,
        FormalFallacy::UndistributedMiddle,
        FormalFallacy::IllicitDistribution,
    ];
}

impl fmt::Display for FormalFallacy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FormalFallacy::BeggingTheQuestion => "begging the question",
            FormalFallacy::IncompatiblePremises => "incompatible premises",
            FormalFallacy::PremiseConclusionContradiction => {
                "contradiction between premise and conclusion"
            }
            FormalFallacy::DenyingTheAntecedent => "denying the antecedent",
            FormalFallacy::AffirmingTheConsequent => "affirming the consequent",
            FormalFallacy::FalseConversion => "false conversion",
            FormalFallacy::UndistributedMiddle => "undistributed middle term",
            FormalFallacy::IllicitDistribution => "illicit distribution of an end term",
        };
        f.write_str(name)
    }
}

/// An informal fallacy: not detectable from form alone.
///
/// The first seven are exactly the kinds Greenwell et al. found in three
/// real safety arguments (Graydon §V-B); the rest are classical kinds the
/// paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum InformalFallacy {
    /// Drawing the wrong conclusion from the premises offered.
    DrawingWrongConclusion,
    /// Fallacious use of language (ambiguity).
    FallaciousUseOfLanguage,
    /// Concluding a whole has a property because its parts do.
    FallacyOfComposition,
    /// Generalising from some members of a set to all.
    HastyInductiveGeneralisation,
    /// Omitting evidence key to the claim.
    OmissionOfKeyEvidence,
    /// Supporting a claim with irrelevant material.
    RedHerring,
    /// Premises not appropriate to the claim.
    UsingWrongReasons,
    /// One identifier carrying different meanings in different places
    /// (Aristotle's example; the desert-bank `bank`).
    Equivocation,
    /// Claiming truth (or falsity) because of absence of contrary evidence,
    /// without establishing the adequacy of the search.
    ArgumentFromIgnorance,
}

impl InformalFallacy {
    /// The seven kinds Greenwell et al. found, in the order (and with the
    /// counts) the paper reports: 3, 10, 2, 4, 5, 5, 16.
    pub const GREENWELL_KINDS: [InformalFallacy; 7] = [
        InformalFallacy::DrawingWrongConclusion,
        InformalFallacy::FallaciousUseOfLanguage,
        InformalFallacy::FallacyOfComposition,
        InformalFallacy::HastyInductiveGeneralisation,
        InformalFallacy::OmissionOfKeyEvidence,
        InformalFallacy::RedHerring,
        InformalFallacy::UsingWrongReasons,
    ];

    /// The counts Greenwell et al. report for [`Self::GREENWELL_KINDS`].
    pub const GREENWELL_COUNTS: [usize; 7] = [3, 10, 2, 4, 5, 5, 16];
}

impl fmt::Display for InformalFallacy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InformalFallacy::DrawingWrongConclusion => "drawing the wrong conclusion",
            InformalFallacy::FallaciousUseOfLanguage => "fallacious use of language",
            InformalFallacy::FallacyOfComposition => "fallacy of composition",
            InformalFallacy::HastyInductiveGeneralisation => "hasty inductive generalisation",
            InformalFallacy::OmissionOfKeyEvidence => "omission of key evidence",
            InformalFallacy::RedHerring => "red herring",
            InformalFallacy::UsingWrongReasons => "using the wrong reasons",
            InformalFallacy::Equivocation => "equivocation",
            InformalFallacy::ArgumentFromIgnorance => "argument from ignorance",
        };
        f.write_str(name)
    }
}

/// Either kind of fallacy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FallacyKind {
    /// A flaw of form.
    Formal(FormalFallacy),
    /// A flaw of meaning.
    Informal(InformalFallacy),
}

impl fmt::Display for FallacyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallacyKind::Formal(k) => write!(f, "{k} (formal)"),
            FallacyKind::Informal(k) => write!(f, "{k} (informal)"),
        }
    }
}

impl From<FormalFallacy> for FallacyKind {
    fn from(k: FormalFallacy) -> Self {
        FallacyKind::Formal(k)
    }
}

impl From<InformalFallacy> for FallacyKind {
    fn from(k: InformalFallacy) -> Self {
        FallacyKind::Informal(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_formal_fallacies() {
        assert_eq!(FormalFallacy::ALL.len(), 8);
        let mut names: Vec<String> = FormalFallacy::ALL.iter().map(|f| f.to_string()).collect();
        names.dedup();
        assert_eq!(names.len(), 8, "names must be distinct");
    }

    #[test]
    fn greenwell_counts_sum_to_45() {
        // 3 + 10 + 2 + 4 + 5 + 5 + 16 = 45 findings across three arguments.
        assert_eq!(InformalFallacy::GREENWELL_COUNTS.iter().sum::<usize>(), 45);
        assert_eq!(
            InformalFallacy::GREENWELL_KINDS.len(),
            InformalFallacy::GREENWELL_COUNTS.len()
        );
    }

    #[test]
    fn none_of_greenwells_kinds_is_formal() {
        // The paper's §V-B: "none of seven kinds of fallacies found is
        // strictly formal".
        for kind in InformalFallacy::GREENWELL_KINDS {
            let k: FallacyKind = kind.into();
            assert!(matches!(k, FallacyKind::Informal(_)));
        }
    }

    #[test]
    fn kind_wrapping_and_display() {
        let k: FallacyKind = FormalFallacy::BeggingTheQuestion.into();
        assert!(matches!(k, FallacyKind::Formal(_)));
        assert!(k.to_string().contains("(formal)"));
        let k: FallacyKind = InformalFallacy::Equivocation.into();
        assert!(matches!(k, FallacyKind::Informal(_)));
        assert!(k.to_string().contains("equivocation"));
    }
}
