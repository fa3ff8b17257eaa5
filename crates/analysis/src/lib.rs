//! # casekit-analysis — CaseLint
//!
//! A multi-pass static analyzer for assurance arguments: every check
//! the toolkit can run over a built [`Argument`] — graph shape, solver
//! questions, fallacy detection — behind one entry point, emitting one
//! uniform [`Diagnostic`] stream with stable codes.
//!
//! # Architecture
//!
//! Linting runs in two planes over a compiled case:
//!
//! * **Structural passes** ([`diagnostic::PassKind::Structural`],
//!   `CK0xx`) work on the arena/CSR index plane of [`Argument`] —
//!   unreachable nodes, support cycles, undeveloped claims, duplicate
//!   evidence, context shadowing. Pure graph sweeps, O(V+E), no
//!   solver.
//! * **Logical passes** ([`diagnostic::PassKind::Logical`] and
//!   [`diagnostic::PassKind::Fallacy`], `CK1xx`) run against one
//!   [`ArgumentTheory`] session: the argument's propositional payloads
//!   are Tseitin-compiled **once**, then premise consistency, vacuous
//!   or unsatisfiable conclusions, entailment, redundant-premise
//!   drop-probes, circular steps, and the formal fallacy detectors are
//!   all `assume`/`check`/`retract` rounds on the same clause database
//!   (with CDCL learned clauses shared between questions). The
//!   informal quantifier cue rides along as `CK120`.
//!
//! * **Syntax passes** ([`diagnostic::PassKind::Syntax`], `CK2xx`)
//!   come from the error-recovering DSL frontend: [`check_source`]
//!   turns every recovered parse error into a span-carrying diagnostic
//!   and anchors the graph/solver findings to their node's declaration
//!   span through the parser's source map.
//!
//! Each lint has a stable code, a default [`Level`], and a per-run
//! override in [`LintConfig`] (allow/warn/deny). Output order is
//! canonical — sorted by code, then primary node — so diagnostics are
//! byte-comparable across runs, worker counts, and engines.
//!
//! # Corpus scale
//!
//! [`lint_source`] parses a `.case` text once and lints the built
//! argument; [`lint_sources`] farms a whole corpus of source texts
//! across `casekit-runtime` worker threads. It is worker-count
//! invariant: the per-argument lint is a pure function, and
//! [`Runtime::map`] is order-preserving. The one-tool-per-lint cost
//! model — fifteen standalone checkers, each re-parsing the source and
//! recompiling its own solver session — lives in [`baseline`] and is
//! measured against the engine in `BENCH_lint.json` (`repro lint`).
//!
//! ```
//! use casekit_analysis::{lint_argument, LintCode, LintConfig};
//! use casekit_core::dsl::parse_argument;
//!
//! let argument = parse_argument(r#"
//!     argument "gap" {
//!       goal g1 "deadlines met" formal "meets_deadlines" {
//!         goal g2 "quality" formal "code_reviewed" { solution e1 "review minutes" }
//!       }
//!     }"#).unwrap();
//! let diagnostics = lint_argument(&argument, &LintConfig::new());
//! assert!(diagnostics.iter().any(|d| d.code == LintCode::ConclusionNotEntailed));
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
mod diagnostic;
mod logical;
mod source;
mod structural;

pub use casekit_logic::prop::WitnessPool;
pub use diagnostic::{Diagnostic, Level, LintCode, LintConfig, LintDescriptor, PassKind, Severity};
pub use source::{check_source, check_syntax, excerpt, SourceAnalysis};

use casekit_core::dsl::parse_argument;
use casekit_core::semantics::{ArgumentTheory, ProbeReport};
use casekit_core::{Argument, NodeIdx};
use casekit_fallacies::formal::Finding;
use casekit_logic::ParseError;
use casekit_runtime::Runtime;

/// Lints one argument: compiles its propositional payloads once, then
/// runs every structural, logical, and fallacy pass, with every solver
/// question asked through one fresh [`WitnessPool`]. Diagnostics come
/// back in canonical order (code, then primary node id, then message).
pub fn lint_argument(argument: &Argument, config: &LintConfig) -> Vec<Diagnostic> {
    let mut theory = ArgumentTheory::compile(argument);
    lint_compiled_with_pool(argument, &mut theory, &mut WitnessPool::new(), config)
}

/// Lints case text end to end: one parse, one compilation, every pass —
/// the whole front of the `caselint` pipeline as a library call.
///
/// # Errors
///
/// Returns the [`ParseError`] if `src` is not a well-formed case.
pub fn lint_source(src: &str, config: &LintConfig) -> Result<Vec<Diagnostic>, ParseError> {
    let argument = parse_argument(src)?;
    Ok(lint_argument(&argument, config))
}

/// [`lint_source`] over a corpus, sharded across the runtime's workers
/// (each source parsed and compiled exactly once). Output is
/// index-aligned with `sources`; the first parse error, if any, wins.
///
/// # Errors
///
/// Returns the [`ParseError`] of the lowest-index malformed source.
pub fn lint_sources(
    sources: &[String],
    config: &LintConfig,
    runtime: &Runtime,
) -> Result<Vec<Vec<Diagnostic>>, ParseError> {
    runtime
        .map(sources, |_, src| lint_source(src, config))
        .into_iter()
        .collect()
}

/// [`lint_argument`] against an already-compiled session (fresh from
/// [`ArgumentTheory::compile`], or a long-lived one) and a caller-owned
/// [`WitnessPool`]: the diagnostics of [`analyse_compiled`], without the
/// probe it finishes with when CK104 did not probe. Passes retract
/// every assumption they push, so one session serves any number of
/// lint runs. The pool is answer-invariant: warm or cold, the
/// diagnostics are byte-identical.
pub fn lint_compiled_with_pool(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    config: &LintConfig,
) -> Vec<Diagnostic> {
    let mut sink = diagnostic::Sink::new(config);
    structural::run(argument, &mut sink);
    logical::run_all(argument, theory, pool, &mut sink);
    sink.finish()
}

/// One lint run over a compiled case with the verdicts it decided: the
/// lint stream, and what the machine check and Rushby's what-if probe
/// read off the same questions. Built by [`analyse_compiled`].
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// The diagnostic stream, in canonical order.
    pub diagnostics: Vec<Diagnostic>,
    /// Parents of the steps whose support does not entail their claim,
    /// in step order.
    pub non_deductive: Vec<NodeIdx>,
    /// How many step questions reached the solver; the witness pool
    /// answered the theory's other steps.
    pub steps_solved: usize,
    /// Whether the formal premises entail the formal conclusion (`None`
    /// without premises or without a conclusion).
    pub entailed: Option<bool>,
    /// The formal fallacy findings, in detector order (empty without
    /// premises or without a conclusion).
    pub fallacies: Vec<Finding>,
    /// Rushby's what-if probe: CK104's when it ran, else
    /// [`ArgumentTheory::probe`] after the lint passes (`None` without a
    /// formal conclusion).
    pub probe: Option<ProbeReport>,
}

/// Lints a compiled case and returns the verdicts beside the
/// diagnostics: one pass that asks each step question, premise
/// consistency, the root entailment and each drop-probe once, through
/// `pool`, for every consumer of the answer bundle. The verdicts do not
/// depend on `config`: allowing a lint drops its diagnostics, not its
/// questions. The diagnostics are those of [`lint_compiled_with_pool`].
pub fn analyse_compiled(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    config: &LintConfig,
) -> Analysis {
    let mut sink = diagnostic::Sink::new(config);
    structural::run(argument, &mut sink);
    let pass = logical::run_all(argument, theory, pool, &mut sink);
    pass.into_analysis(sink.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_core::dsl::parse_argument;
    use casekit_core::{Node, NodeKind};

    fn case(src: &str) -> Argument {
        parse_argument(src).unwrap()
    }

    /// A clean, fully-formal modus-ponens case: no diagnostics at any
    /// level.
    fn clean_case() -> Argument {
        case(
            r#"argument "mp" {
                goal g1 "q holds" formal "q" {
                  goal g2 "the rule" formal "p -> q" { solution e1 "rule review" }
                  goal g3 "the fact" formal "p" { solution e2 "measurement" }
                }
            }"#,
        )
    }

    #[test]
    fn clean_case_is_clean_at_deny_level() {
        let diagnostics = lint_argument(&clean_case(), &LintConfig::deny_all());
        assert!(diagnostics.is_empty(), "got: {diagnostics:?}");
    }

    #[test]
    fn unreachable_node_flagged() {
        // A detached two-node support cycle is unreachable from the root.
        let a = Argument::builder("orphan")
            .add("g1", NodeKind::Goal, "root claim")
            .add("e1", NodeKind::Solution, "evidence")
            .add("x1", NodeKind::Goal, "orbit a")
            .add("x2", NodeKind::Goal, "orbit b")
            .supported_by("g1", "e1")
            .supported_by("x1", "x2")
            .supported_by("x2", "x1")
            .build()
            .unwrap();
        let diagnostics = lint_argument(&a, &LintConfig::new());
        let unreachable: Vec<_> = diagnostics
            .iter()
            .filter(|d| d.code == LintCode::UnreachableNode)
            .collect();
        assert_eq!(unreachable.len(), 2);
        assert!(diagnostics.iter().any(|d| d.code == LintCode::SupportCycle));
    }

    #[test]
    fn support_cycle_reported_once_with_members() {
        let a = Argument::builder("cycle")
            .add("g1", NodeKind::Goal, "claim a")
            .add("g2", NodeKind::Goal, "claim b")
            .add("g3", NodeKind::Goal, "claim c")
            .supported_by("g1", "g2")
            .supported_by("g2", "g3")
            .supported_by("g3", "g1")
            .build()
            .unwrap();
        let diagnostics = lint_argument(&a, &LintConfig::new());
        let cycles: Vec<_> = diagnostics
            .iter()
            .filter(|d| d.code == LintCode::SupportCycle)
            .collect();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].primary.as_ref().unwrap().as_str(), "g1");
        assert_eq!(cycles[0].related.len(), 2);
    }

    #[test]
    fn undeveloped_markers_checked_both_ways() {
        let a = Argument::builder("dev")
            .add("g1", NodeKind::Goal, "developed claim")
            .node(Node::new("g2", NodeKind::Goal, "honest gap").undeveloped())
            .add("g3", NodeKind::Goal, "implicit gap")
            .node(Node::new("g4", NodeKind::Goal, "contradictory mark").undeveloped())
            .add("e1", NodeKind::Solution, "evidence a")
            .add("e2", NodeKind::Solution, "evidence b")
            .supported_by("g1", "g2")
            .supported_by("g1", "g3")
            .supported_by("g1", "g4")
            .supported_by("g1", "e1")
            .supported_by("g4", "e2")
            .build()
            .unwrap();
        let diagnostics = lint_argument(&a, &LintConfig::new());
        assert!(diagnostics
            .iter()
            .any(|d| d.code == LintCode::UndevelopedGoal
                && d.primary.as_ref().unwrap().as_str() == "g3"));
        assert!(diagnostics
            .iter()
            .any(|d| d.code == LintCode::UndevelopedWithSupport
                && d.primary.as_ref().unwrap().as_str() == "g4"));
        // g2's gap is declared: no diagnostic for it.
        assert!(!diagnostics
            .iter()
            .any(|d| d.primary.as_ref().is_some_and(|id| id.as_str() == "g2")));
    }

    #[test]
    fn duplicate_evidence_grouped() {
        let a = case(
            r#"argument "dup" {
                goal g1 "claim" {
                  goal g2 "sub a" { solution e1 "Stress test log" }
                  goal g3 "sub b" { solution e2 "stress  test log" }
                }
            }"#,
        );
        let diagnostics = lint_argument(&a, &LintConfig::new());
        let dup: Vec<_> = diagnostics
            .iter()
            .filter(|d| d.code == LintCode::DuplicateEvidence)
            .collect();
        assert_eq!(dup.len(), 1);
        assert_eq!(dup[0].primary.as_ref().unwrap().as_str(), "e1");
        assert_eq!(dup[0].related.len(), 1);
    }

    #[test]
    fn context_shadowing_across_levels_and_on_same_node() {
        let a = case(
            r#"argument "ctx" {
                goal g1 "top" {
                  context c1 "Operating envelope"
                  goal g2 "mid" {
                    context c2 "operating envelope"
                    solution e1 "evidence"
                  }
                }
            }"#,
        );
        let diagnostics = lint_argument(&a, &LintConfig::new());
        let shadow: Vec<_> = diagnostics
            .iter()
            .filter(|d| d.code == LintCode::ContextShadowing)
            .collect();
        assert_eq!(shadow.len(), 1);
        assert_eq!(shadow[0].primary.as_ref().unwrap().as_str(), "c2");
    }

    #[test]
    fn inconsistent_premises_and_fallacy_stream_coexist() {
        let a = case(
            r#"argument "clash" {
                goal g1 "conclusion" formal "c" {
                  goal g2 "claims p" formal "p" { solution e1 "a" }
                  goal g3 "claims not p" formal "~p" { solution e2 "b" }
                }
            }"#,
        );
        let diagnostics = lint_argument(&a, &LintConfig::new());
        assert!(diagnostics
            .iter()
            .any(|d| d.code == LintCode::InconsistentPremises));
        assert!(diagnostics
            .iter()
            .any(|d| d.code == LintCode::IncompatiblePremises));
        // Inconsistent premises entail everything; the redundancy lint
        // must stay silent rather than flag every premise.
        assert!(!diagnostics
            .iter()
            .any(|d| d.code == LintCode::RedundantPremise));
    }

    #[test]
    fn redundant_premise_found_by_drop_probe() {
        let a = case(
            r#"argument "probe" {
                goal g1 "q" formal "q" {
                  goal g2 "p" formal "p" { solution e1 "a" }
                  goal g3 "rule" formal "p -> q" { solution e2 "b" }
                  goal g4 "red herring" formal "r" { solution e3 "c" }
                }
            }"#,
        );
        let diagnostics = lint_argument(&a, &LintConfig::new());
        let redundant: Vec<_> = diagnostics
            .iter()
            .filter(|d| d.code == LintCode::RedundantPremise)
            .collect();
        assert_eq!(redundant.len(), 1);
        assert_eq!(redundant[0].primary.as_ref().unwrap().as_str(), "g4");

        // Defence in depth: each premise alone carries the conclusion,
        // so each is idle and CK104 flags both — a designed false
        // positive, since neither is a red herring.
        let depth = case(
            r#"argument "depth" {
                goal g1 "q" formal "q" {
                  goal g2 "direct" formal "q" { solution e1 "a" }
                  goal g3 "derived" formal "p & (p -> q)" { solution e2 "b" }
                }
            }"#,
        );
        let diagnostics = lint_argument(&depth, &LintConfig::new());
        let flagged: Vec<&str> = diagnostics
            .iter()
            .filter(|d| d.code == LintCode::RedundantPremise)
            .map(|d| d.primary.as_ref().unwrap().as_str())
            .collect();
        assert_eq!(flagged, ["g2", "g3"]);
    }

    #[test]
    fn tautological_and_unsatisfiable_conclusions() {
        let taut = case(
            r#"argument "taut" {
                goal g1 "vacuous" formal "p | ~p" {
                  goal g2 "support" formal "p" { solution e1 "x" }
                }
            }"#,
        );
        let diagnostics = lint_argument(&taut, &LintConfig::new());
        assert!(diagnostics
            .iter()
            .any(|d| d.code == LintCode::TautologicalConclusion));

        let unsat = case(
            r#"argument "unsat" {
                goal g1 "impossible" formal "p & ~p" {
                  goal g2 "support" formal "p" { solution e1 "x" }
                }
            }"#,
        );
        let diagnostics = lint_argument(&unsat, &LintConfig::new());
        assert!(diagnostics
            .iter()
            .any(|d| d.code == LintCode::UnsatisfiableConclusion));
    }

    #[test]
    fn circular_step_flagged() {
        let a = case(
            r#"argument "circle" {
                goal g1 "safe" formal "safe" {
                  goal g2 "safe, restated" formal "~~safe" { solution e1 "assertion" }
                }
            }"#,
        );
        let diagnostics = lint_argument(&a, &LintConfig::new());
        assert!(diagnostics
            .iter()
            .any(|d| d.code == LintCode::CircularStep
                && d.primary.as_ref().unwrap().as_str() == "g2"));
        // Begging-the-question fires on the same structure, in the same
        // stream, under its own code.
        assert!(diagnostics
            .iter()
            .any(|d| d.code == LintCode::BeggingTheQuestion));
    }

    #[test]
    fn quantifier_cue_rides_along() {
        let a = case(
            r#"argument "hasty" {
                goal g1 "All inputs are validated" {
                  solution e1 "Spot checks on some inputs"
                }
            }"#,
        );
        let diagnostics = lint_argument(&a, &LintConfig::new());
        assert!(diagnostics
            .iter()
            .any(|d| d.code == LintCode::QuantifierMismatch));
    }

    #[test]
    fn output_is_canonically_ordered_and_engines_agree() {
        let cases = [
            clean_case(),
            case(
                r#"argument "gap" {
                    goal g1 "meets deadlines" formal "meets_deadlines" {
                      goal g2 "quality" formal "code_reviewed" { solution e1 "minutes" }
                    }
                }"#,
            ),
        ];
        let config = LintConfig::new();
        for a in &cases {
            let compiled = lint_argument(a, &config);
            let recompiled = baseline::lint_argument_recompiling(a, &config);
            assert_eq!(compiled, recompiled);
            let mut sorted = compiled.clone();
            sorted.sort_by(|x, y| {
                (x.code, x.primary.clone(), x.message.clone()).cmp(&(
                    y.code,
                    y.primary.clone(),
                    y.message.clone(),
                ))
            });
            assert_eq!(compiled, sorted, "canonical order");
        }
    }
}
