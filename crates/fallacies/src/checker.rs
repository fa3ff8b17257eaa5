//! The mechanical validation pipeline — what "formal verification of an
//! assurance argument" can actually deliver.
//!
//! [`check_argument`] extracts an argument's formal skeleton (propositional
//! payloads), verifies entailment at each formalised step, and runs every
//! formal-fallacy detector. Its return type contains **only**
//! [`crate::taxonomy::FormalFallacy`] and entailment findings: the type
//! system itself enforces the paper's §IV-C claim that machine checking
//! cannot return informal-fallacy findings.
//!
//! [`check_argument`] is the batch reference: it compiles the argument
//! and asks every question itself. The incremental case service builds
//! the same report from the verdicts of its CaseLint run, and its
//! agreement tests compare that report with this function's.

use crate::formal;
use crate::taxonomy::FormalFallacy;
use casekit_core::semantics::{formal_conclusion, formal_premises, ArgumentTheory};
use casekit_core::{Argument, NodeId, NodeIdx};
use casekit_logic::prop::WitnessPool;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A finding that mechanical checking *can* produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MachineFinding {
    /// A formal fallacy in the premises/conclusion structure.
    Fallacy {
        /// The fallacy detected.
        fallacy: FormalFallacy,
        /// Explanation.
        detail: String,
    },
    /// A formalised support step whose children do not entail the parent.
    NonDeductiveStep {
        /// The parent node whose support fails entailment.
        node: NodeId,
    },
    /// The formal leaves do not entail the formal root.
    ConclusionNotEntailed,
}

impl fmt::Display for MachineFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineFinding::Fallacy { fallacy, detail } => write!(f, "{fallacy}: {detail}"),
            MachineFinding::NonDeductiveStep { node } => {
                write!(f, "support for `{node}` is not deductive")
            }
            MachineFinding::ConclusionNotEntailed => {
                write!(f, "formal premises do not entail the formal conclusion")
            }
        }
    }
}

/// Report from mechanically checking an argument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineReport {
    /// Everything the machine found.
    pub findings: Vec<MachineFinding>,
    /// How many nodes participated (carried usable formal payloads).
    pub formal_nodes: usize,
    /// Whether the argument had any formal skeleton to check at all.
    pub checkable: bool,
}

impl MachineReport {
    /// The report on `argument` from its verdicts, findings in the order
    /// the checker lists them: the parents of the non-deductive steps
    /// in step order, the root entailment when it was asked and fails,
    /// then the formal fallacy findings in detector order.
    pub fn from_verdicts(
        argument: &Argument,
        non_deductive: Vec<NodeIdx>,
        entailed: Option<bool>,
        fallacies: Vec<formal::Finding>,
    ) -> Self {
        let steps = non_deductive
            .into_iter()
            .map(|idx| MachineFinding::NonDeductiveStep {
                node: argument.id_at(idx).clone(),
            });
        let entailment = (entailed == Some(false)).then_some(MachineFinding::ConclusionNotEntailed);
        let fallacies = fallacies
            .into_iter()
            .map(|finding| MachineFinding::Fallacy {
                fallacy: finding.fallacy,
                detail: finding.detail,
            });
        let formal_nodes = argument.formalised_count();
        MachineReport {
            findings: steps.chain(entailment).chain(fallacies).collect(),
            formal_nodes,
            // A formal conclusion is itself a formalised node.
            checkable: formal_nodes > 0,
        }
    }

    /// Whether the machine found nothing (which, per the paper, licenses
    /// only the conclusion "no *formal* fallacies detected").
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Mechanically checks `argument`'s formal skeleton.
///
/// The propositional payloads are compiled once into an
/// [`ArgumentTheory`] session, and every question — each step verdict,
/// the root entailment and the fallacy detectors — is asked through one
/// fresh [`WitnessPool`]. The fallacy detectors run over borrowed
/// premise references — no `Formula` clones anywhere on the path.
///
/// As the batch reference, it reads the premises and the conclusion off
/// the argument with [`formal_premises`] and [`formal_conclusion`] and
/// shares no verdict with CaseLint.
pub fn check_argument(argument: &Argument) -> MachineReport {
    let mut theory = ArgumentTheory::compile(argument);
    check_compiled(argument, &mut theory, &mut WitnessPool::new())
}

/// [`check_argument`] against an already-compiled theory session, with
/// every question asked through `pool`. `theory` must be a session over
/// this `argument`; checks fully retract their assumptions, so one
/// session and pool can serve any number of calls, and a warm pool
/// gives the same report as a cold one.
fn check_compiled(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
) -> MachineReport {
    let mut non_deductive = Vec::new();
    for k in 0..theory.step_count() {
        if theory.step_counterexample(k, pool) {
            non_deductive.push(theory.step_parent(k).0);
        }
    }
    let premises = formal_premises(argument);
    let mut entailed = None;
    let mut fallacies = Vec::new();
    if let (Some(conclusion), false) = (formal_conclusion(argument), premises.is_empty()) {
        // A formal conclusion always compiles to a literal; if it ever
        // did not, skip these questions rather than panic.
        if let (Some(not_entailed), Some(conclusion_lit)) = (
            theory.entailment_counterexample(None, pool),
            theory.conclusion_lit(),
        ) {
            entailed = Some(!not_entailed);
            // The detectors reuse the argument's compiled literals
            // (premise/conclusion lists are aligned by construction) —
            // still one Tseitin pass per argument.
            let (premise_lits, theory) = theory.premise_lits_and_theory();
            let session = formal::Compiled {
                theory,
                pool,
                premise_lits,
                conclusion_lit,
                consistent: None,
                entailed,
            };
            fallacies = formal::detect_all_compiled_with(session, &premises, conclusion);
        }
    }
    MachineReport::from_verdicts(argument, non_deductive, entailed, fallacies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_core::dsl::parse_argument;

    #[test]
    fn clean_deductive_argument_passes() {
        let a = parse_argument(
            r#"argument "mp" {
                goal g1 "q" formal "q" {
                  goal g2 "rule" formal "p -> q" { solution e1 "rule review" }
                  goal g3 "fact" formal "p" { solution e2 "measurement" }
                }
            }"#,
        )
        .unwrap();
        let report = check_argument(&a);
        assert!(report.is_clean(), "findings: {:?}", report.findings);
        assert!(report.checkable);
        assert_eq!(report.formal_nodes, 3);
    }

    #[test]
    fn non_entailed_conclusion_detected() {
        let a = parse_argument(
            r#"argument "gap" {
                goal g1 "meets deadlines" formal "meets_deadlines" {
                  goal g2 "quality" formal "code_reviewed & unit_tests_passed" {
                    solution e1 "review minutes"
                  }
                }
            }"#,
        )
        .unwrap();
        let report = check_argument(&a);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, MachineFinding::ConclusionNotEntailed)));
        assert!(report.findings.iter().any(
            |f| matches!(f, MachineFinding::NonDeductiveStep { node } if node == &NodeId::new("g1"))
        ));
    }

    #[test]
    fn begging_the_question_detected_in_argument() {
        let a = parse_argument(
            r#"argument "circle" {
                goal g1 "system is safe" formal "safe" {
                  goal g2 "we assume safety" formal "safe" { solution e1 "assertion" }
                }
            }"#,
        )
        .unwrap();
        let report = check_argument(&a);
        assert!(report.findings.iter().any(|f| matches!(
            f,
            MachineFinding::Fallacy {
                fallacy: FormalFallacy::BeggingTheQuestion,
                ..
            }
        )));
    }

    #[test]
    fn informal_argument_is_uncheckable_and_clean() {
        // The machine has nothing to say about a purely informal argument —
        // not "valid", just "no formal content".
        let a = parse_argument(
            r#"argument "informal" {
                goal g1 "System is safe" { solution e1 "Expert judgment" }
            }"#,
        )
        .unwrap();
        let report = check_argument(&a);
        assert!(report.is_clean());
        assert!(!report.checkable);
        assert_eq!(report.formal_nodes, 0);
    }

    #[test]
    fn machine_findings_cannot_name_informal_fallacies() {
        // Compile-time demonstration of §IV-C: a MachineFinding carries a
        // FormalFallacy; there is no constructor from InformalFallacy.
        // (If someone adds one, this test's match becomes non-exhaustive
        // commentary — keep it in sync deliberately.)
        let f = MachineFinding::Fallacy {
            fallacy: FormalFallacy::BeggingTheQuestion,
            detail: "x".into(),
        };
        match f {
            MachineFinding::Fallacy { .. }
            | MachineFinding::NonDeductiveStep { .. }
            | MachineFinding::ConclusionNotEntailed => {}
        }
    }

    #[test]
    fn finding_display() {
        assert!(MachineFinding::ConclusionNotEntailed
            .to_string()
            .contains("do not entail"));
        assert!(MachineFinding::NonDeductiveStep {
            node: NodeId::new("g1")
        }
        .to_string()
        .contains("g1"));
    }

    #[test]
    fn check_compiled_reuses_one_session_across_repeated_checks() {
        let a = parse_argument(
            r#"argument "gap" {
                goal g1 "meets deadlines" formal "meets_deadlines" {
                  goal g2 "quality" formal "code_reviewed & unit_tests_passed" {
                    solution e1 "review minutes"
                  }
                }
            }"#,
        )
        .unwrap();
        let fresh = check_argument(&a);
        let mut session = ArgumentTheory::compile(&a);
        let mut pool = WitnessPool::new();
        // The same session and pool answer identically as many times as
        // asked, and the warm pool pays no second solve.
        assert_eq!(check_compiled(&a, &mut session, &mut pool), fresh);
        let calls = pool.solver_calls();
        for _ in 0..2 {
            assert_eq!(check_compiled(&a, &mut session, &mut pool), fresh);
        }
        assert_eq!(pool.solver_calls(), calls);
    }

    #[test]
    fn incompatible_formal_premises_detected() {
        let a = parse_argument(
            r#"argument "clash" {
                goal g1 "conclusion" formal "c" {
                  goal g2 "claims p" formal "p" { solution e1 "a" }
                  goal g3 "claims not p" formal "~p" { solution e2 "b" }
                }
            }"#,
        )
        .unwrap();
        let report = check_argument(&a);
        assert!(report.findings.iter().any(|f| matches!(
            f,
            MachineFinding::Fallacy {
                fallacy: FormalFallacy::IncompatiblePremises,
                ..
            }
        )));
    }
}
