//! Mechanical detectors for the propositional formal fallacies.
//!
//! Each detector works on a list of premises and a conclusion. Detectors
//! for the two syllogistic fallacies live in [`crate::syllogism`] because
//! they need term structure.
//!
//! Pattern-based fallacies (denying the antecedent, affirming the
//! consequent, false conversion) are reported only when the conclusion is
//! *not* independently entailed by the premises: citing `p → q, ¬p ∴ ¬q`
//! is harmless if some other premise legitimately yields `¬q` (the step is
//! redundant, not fallacious).
//!
//! All semantic questions (entailment, consistency, equivalence) run
//! against one compiled [`Theory`] session per entry point and are
//! asked through one [`WitnessPool`]: a stored model answers every later
//! question it satisfies, and only the rest are `assume`/`check`/`retract`
//! rounds. [`detect_all_compiled_with`] runs all six detectors on the
//! caller's compilation and pool; each standalone detector compiles its
//! premises and conclusion once and starts a fresh pool. Premises are
//! accepted as anything borrowable as a [`Formula`], so callers holding
//! `Vec<&Formula>` (the allocation-free path out of
//! `casekit-core::semantics`) and callers holding `Vec<Formula>` both
//! work.

use crate::taxonomy::FormalFallacy;
use casekit_logic::prop::{Formula, Lit, Theory, WitnessPool};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// A formal-fallacy finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Which fallacy.
    pub fallacy: FormalFallacy,
    /// Premise indices involved (empty when the finding is global).
    pub premises: Vec<usize>,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.fallacy, self.detail)
    }
}

/// One compiled premises/conclusion theory, shared by every detector,
/// with every question asked through one pool.
struct Session<'s> {
    theory: &'s mut Theory,
    pool: &'s mut WitnessPool,
    premise_lits: Vec<Lit>,
    conclusion_lit: Lit,
}

impl Session<'_> {
    /// Satisfiability of an assumption set, with automatic retraction.
    fn sat(&mut self, assumptions: &[Lit]) -> bool {
        self.pool.check(self.theory, assumptions)
    }

    /// Whether the full premise set entails the conclusion.
    fn entailed(&mut self) -> bool {
        let mut assumptions = self.premise_lits.clone();
        assumptions.push(!self.conclusion_lit);
        !self.sat(&assumptions)
    }

    /// Whether the premises are jointly satisfiable.
    fn premises_consistent(&mut self) -> bool {
        let assumptions = self.premise_lits.clone();
        self.sat(&assumptions)
    }

    /// Whether premises `0..=upto` are jointly unsatisfiable.
    fn prefix_inconsistent(&mut self, upto: usize) -> bool {
        let assumptions: Vec<Lit> = self.premise_lits[..=upto].to_vec();
        !self.sat(&assumptions)
    }

    /// Whether premise `i` and the conclusion contradict.
    fn premise_contradicts_conclusion(&mut self, i: usize) -> bool {
        !self.sat(&[self.premise_lits[i], self.conclusion_lit])
    }

    /// Whether premise `i` is logically equivalent to the conclusion.
    fn premise_equivalent_to_conclusion(&mut self, i: usize) -> bool {
        let p = self.premise_lits[i];
        let c = self.conclusion_lit;
        !self.sat(&[p, !c]) && !self.sat(&[c, !p])
    }
}

/// Compiles `premises` and `conclusion` into a fresh theory and runs
/// `detect` on them with a fresh pool: the standalone detectors' session.
fn standalone<B: Borrow<Formula>, R>(
    premises: &[B],
    conclusion: &Formula,
    detect: impl FnOnce(&mut Session<'_>) -> R,
) -> R {
    let mut theory = Theory::new();
    let premise_lits = premises
        .iter()
        .map(|p| theory.formula_lit(p.borrow()))
        .collect();
    let conclusion_lit = theory.formula_lit(conclusion);
    detect(&mut Session {
        theory: &mut theory,
        pool: &mut WitnessPool::new(),
        premise_lits,
        conclusion_lit,
    })
}

/// Runs every propositional detector against formulas *already
/// compiled* into `theory`, with every satisfiability question asked
/// through `pool`: `premise_lits`/`conclusion_lit` must be the compiled
/// equivalents of `premises`/`conclusion` (in the same order). Used by
/// the machine checker and CaseLint to reuse the one-per-argument
/// `ArgumentTheory` compilation instead of Tseitin-compiling every
/// payload a second time. Findings are the same with a cold pool or a
/// warm one.
pub fn detect_all_compiled_with<B: Borrow<Formula>>(
    theory: &mut Theory,
    pool: &mut WitnessPool,
    premise_lits: Vec<Lit>,
    conclusion_lit: Lit,
    premises: &[B],
    conclusion: &Formula,
) -> Vec<Finding> {
    let mut session = Session {
        theory,
        pool,
        premise_lits,
        conclusion_lit,
    };
    let mut findings = begging_in(&mut session, premises, conclusion);
    findings.extend(incompatible_in(&mut session, premises));
    findings.extend(contradiction_in(&mut session, premises, conclusion));
    let entailed = session.entailed();
    findings.extend(denying_in(premises, conclusion, entailed));
    findings.extend(affirming_in(premises, conclusion, entailed));
    findings.extend(conversion_in(premises, conclusion, entailed));
    findings
}

/// The conclusion appears among the premises (syntactically, or as a
/// logical equivalent — asserting `~~C` to prove `C` still begs).
pub fn begging_the_question<B: Borrow<Formula>>(
    premises: &[B],
    conclusion: &Formula,
) -> Vec<Finding> {
    standalone(premises, conclusion, |session| {
        begging_in(session, premises, conclusion)
    })
}

fn begging_in<B: Borrow<Formula>>(
    session: &mut Session,
    premises: &[B],
    conclusion: &Formula,
) -> Vec<Finding> {
    premises
        .iter()
        .map(Borrow::borrow)
        .enumerate()
        .filter(|(i, p)| *p == conclusion || session.premise_equivalent_to_conclusion(*i))
        .map(|(i, p)| Finding {
            fallacy: FormalFallacy::BeggingTheQuestion,
            premises: vec![i],
            detail: format!("premise {} (`{p}`) restates the conclusion", i + 1),
        })
        .collect()
}

/// The premises are jointly unsatisfiable.
pub fn incompatible_premises<B: Borrow<Formula>>(premises: &[B]) -> Vec<Finding> {
    if premises.is_empty() {
        return Vec::new();
    }
    standalone(premises, &Formula::True, |session| {
        incompatible_in(session, premises)
    })
}

fn incompatible_in<B: Borrow<Formula>>(session: &mut Session, premises: &[B]) -> Vec<Finding> {
    if premises.is_empty() || session.premises_consistent() {
        return Vec::new();
    }
    // Localise: find a minimal prefix set that is already contradictory
    // to help the reader (not necessarily minimal overall).
    for i in 0..premises.len() {
        if session.prefix_inconsistent(i) {
            return vec![Finding {
                fallacy: FormalFallacy::IncompatiblePremises,
                premises: (0..=i).collect(),
                detail: "the premises cannot all be true together".into(),
            }];
        }
    }
    // The full conjunction is contradictory, so the final prefix probe
    // must have fired above; if the answers were ever inconsistent,
    // implicate every premise rather than panic.
    vec![Finding {
        fallacy: FormalFallacy::IncompatiblePremises,
        premises: (0..premises.len()).collect(),
        detail: "the premises cannot all be true together".into(),
    }]
}

/// Some premise contradicts the conclusion (while the premises themselves
/// are consistent — otherwise `incompatible_premises` already fires).
pub fn premise_conclusion_contradiction<B: Borrow<Formula>>(
    premises: &[B],
    conclusion: &Formula,
) -> Vec<Finding> {
    standalone(premises, conclusion, |session| {
        contradiction_in(session, premises, conclusion)
    })
}

fn contradiction_in<B: Borrow<Formula>>(
    session: &mut Session,
    premises: &[B],
    _conclusion: &Formula,
) -> Vec<Finding> {
    if premises.is_empty() || !session.premises_consistent() {
        return Vec::new();
    }
    premises
        .iter()
        .map(Borrow::borrow)
        .enumerate()
        .filter(|(i, _)| session.premise_contradicts_conclusion(*i))
        .map(|(i, p)| Finding {
            fallacy: FormalFallacy::PremiseConclusionContradiction,
            premises: vec![i],
            detail: format!(
                "premise {} (`{p}`) cannot be true together with the conclusion",
                i + 1
            ),
        })
        .collect()
}

/// From `p → q` and `¬p`, concluding `¬q`.
pub fn denying_the_antecedent<B: Borrow<Formula>>(
    premises: &[B],
    conclusion: &Formula,
) -> Vec<Finding> {
    denying_in(premises, conclusion, entailed_fresh(premises, conclusion))
}

/// One-off entailment check for the standalone detector entry points.
fn entailed_fresh<B: Borrow<Formula>>(premises: &[B], conclusion: &Formula) -> bool {
    standalone(premises, conclusion, |session| session.entailed())
}

fn denying_in<B: Borrow<Formula>>(
    premises: &[B],
    conclusion: &Formula,
    entailed: bool,
) -> Vec<Finding> {
    pattern_fallacy(
        premises,
        conclusion,
        FormalFallacy::DenyingTheAntecedent,
        entailed,
        |antecedent, consequent, other, conclusion| {
            other.is_negation_of(antecedent) && conclusion.is_negation_of(consequent)
        },
    )
}

/// From `p → q` and `q`, concluding `p`.
pub fn affirming_the_consequent<B: Borrow<Formula>>(
    premises: &[B],
    conclusion: &Formula,
) -> Vec<Finding> {
    affirming_in(premises, conclusion, entailed_fresh(premises, conclusion))
}

fn affirming_in<B: Borrow<Formula>>(
    premises: &[B],
    conclusion: &Formula,
    entailed: bool,
) -> Vec<Finding> {
    pattern_fallacy(
        premises,
        conclusion,
        FormalFallacy::AffirmingTheConsequent,
        entailed,
        |antecedent, consequent, other, conclusion| other == consequent && conclusion == antecedent,
    )
}

/// Shared scaffolding: find an implication premise `a → c` and a second
/// premise `other` such that `matcher(a, c, other, conclusion)` holds, and
/// the conclusion is not independently entailed.
fn pattern_fallacy<B: Borrow<Formula>>(
    premises: &[B],
    conclusion: &Formula,
    fallacy: FormalFallacy,
    entailed: bool,
    matcher: impl Fn(&Formula, &Formula, &Formula, &Formula) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if entailed {
        return out;
    }
    for (i, p) in premises.iter().map(Borrow::borrow).enumerate() {
        let (a, c) = match p {
            Formula::Implies(a, c) => (a.as_ref(), c.as_ref()),
            _ => continue,
        };
        for (j, other) in premises.iter().map(Borrow::borrow).enumerate() {
            if i == j {
                continue;
            }
            if matcher(a, c, other, conclusion) {
                out.push(Finding {
                    fallacy,
                    premises: vec![i, j],
                    detail: format!(
                        "premises {} (`{p}`) and {} (`{other}`) do not license `{conclusion}`",
                        i + 1,
                        j + 1
                    ),
                });
            }
        }
    }
    out
}

/// From `p → q`, concluding `q → p`.
pub fn false_conversion<B: Borrow<Formula>>(premises: &[B], conclusion: &Formula) -> Vec<Finding> {
    conversion_in(premises, conclusion, entailed_fresh(premises, conclusion))
}

fn conversion_in<B: Borrow<Formula>>(
    premises: &[B],
    conclusion: &Formula,
    entailed: bool,
) -> Vec<Finding> {
    if entailed {
        return Vec::new();
    }
    let (ca, cc) = match conclusion {
        Formula::Implies(a, c) => (a.as_ref(), c.as_ref()),
        _ => return Vec::new(),
    };
    premises
        .iter()
        .map(Borrow::borrow)
        .enumerate()
        .filter(|(_, p)| match p {
            Formula::Implies(a, c) => a.as_ref() == cc && c.as_ref() == ca,
            _ => false,
        })
        .map(|(i, p)| Finding {
            fallacy: FormalFallacy::FalseConversion,
            premises: vec![i],
            detail: format!("`{conclusion}` merely converts premise {} (`{p}`)", i + 1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_logic::prop::parse;

    fn f(s: &str) -> Formula {
        parse(s).unwrap()
    }

    /// Every detector through [`detect_all_compiled_with`], on a theory
    /// this test compiles and a fresh pool.
    fn compiled_findings<B: Borrow<Formula>>(premises: &[B], conclusion: &Formula) -> Vec<Finding> {
        let mut theory = Theory::new();
        let premise_lits = premises
            .iter()
            .map(|p| theory.formula_lit(p.borrow()))
            .collect();
        let conclusion_lit = theory.formula_lit(conclusion);
        detect_all_compiled_with(
            &mut theory,
            &mut WitnessPool::new(),
            premise_lits,
            conclusion_lit,
            premises,
            conclusion,
        )
    }

    #[test]
    fn begging_detected_syntactic_and_equivalent() {
        let premises = vec![f("safe"), f("tests_pass")];
        let found = begging_the_question(&premises, &f("safe"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].premises, vec![0]);
        // Equivalent form also begs.
        let premises = vec![f("~~safe")];
        assert_eq!(begging_the_question(&premises, &f("safe")).len(), 1);
        // Unrelated premises don't.
        assert!(begging_the_question(&[f("p")], &f("q")).is_empty());
    }

    #[test]
    fn incompatible_premises_detected_and_localised() {
        let premises = vec![f("p"), f("q"), f("~p")];
        let found = incompatible_premises(&premises);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].premises, vec![0, 1, 2]);
        assert!(incompatible_premises(&[f("p"), f("q")]).is_empty());
        assert!(incompatible_premises::<Formula>(&[]).is_empty());
    }

    #[test]
    fn premise_conclusion_contradiction_detected() {
        let premises = vec![f("task_runs_forever"), f("cpu_ok")];
        let found = premise_conclusion_contradiction(&premises, &f("~task_runs_forever"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].premises, vec![0]);
        // Not reported when premises are already jointly inconsistent.
        let premises = vec![f("p"), f("~p")];
        assert!(premise_conclusion_contradiction(&premises, &f("q")).is_empty());
    }

    #[test]
    fn denying_the_antecedent_detected() {
        let premises = vec![f("on_grnd -> threv_ok"), f("~on_grnd")];
        let found = denying_the_antecedent(&premises, &f("~threv_ok"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].premises, vec![0, 1]);
    }

    #[test]
    fn denying_the_antecedent_not_reported_when_entailed() {
        // Extra premise legitimately yields the conclusion: no fallacy.
        let premises = vec![f("p -> q"), f("~p"), f("~q")];
        assert!(denying_the_antecedent(&premises, &f("~q")).is_empty());
    }

    #[test]
    fn affirming_the_consequent_detected() {
        let premises = vec![f("fault -> alarm"), f("alarm")];
        let found = affirming_the_consequent(&premises, &f("fault"));
        assert_eq!(found.len(), 1);
        // Valid modus ponens is not flagged.
        let premises = vec![f("fault -> alarm"), f("fault")];
        assert!(affirming_the_consequent(&premises, &f("alarm")).is_empty());
    }

    #[test]
    fn false_conversion_detected() {
        let premises = vec![f("verified -> safe")];
        let found = false_conversion(&premises, &f("safe -> verified"));
        assert_eq!(found.len(), 1);
        // A biconditional premise legitimises the conversion.
        let premises = vec![f("verified -> safe"), f("verified <-> safe")];
        assert!(false_conversion(&premises, &f("safe -> verified")).is_empty());
    }

    #[test]
    fn detect_all_aggregates() {
        let premises = vec![f("p -> q"), f("~p"), f("r"), f("~r")];
        let findings = compiled_findings(&premises, &f("~q"));
        let kinds: Vec<_> = findings.iter().map(|x| x.fallacy).collect();
        assert!(kinds.contains(&FormalFallacy::IncompatiblePremises));
        // Denying-the-antecedent is masked here: inconsistent premises
        // entail everything, so the conclusion is "entailed".
        assert!(!kinds.contains(&FormalFallacy::DenyingTheAntecedent));
    }

    #[test]
    fn detect_all_over_borrowed_premises() {
        // The allocation-free path: Vec<&Formula> straight out of
        // semantics::formal_premises.
        let owned = [f("p -> q"), f("p")];
        let borrowed: Vec<&Formula> = owned.iter().collect();
        assert!(compiled_findings(&borrowed, &f("q")).is_empty());
        let begging: Vec<&Formula> = owned.iter().take(1).collect();
        assert_eq!(begging_the_question(&begging, &f("p -> q")).len(), 1);
    }

    #[test]
    fn clean_deduction_yields_no_findings() {
        let premises = vec![f("p -> q"), f("p")];
        assert!(compiled_findings(&premises, &f("q")).is_empty());
        // The Haley proof premises against its conclusion.
        let premises = vec![f("I -> V"), f("C -> H"), f("Y -> V & C"), f("D -> Y")];
        assert!(compiled_findings(&premises, &f("D -> H")).is_empty());
    }

    #[test]
    fn finding_display() {
        let premises = vec![f("p")];
        let found = begging_the_question(&premises, &f("p"));
        assert!(found[0].to_string().contains("begging the question"));
    }
}
