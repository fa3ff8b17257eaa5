//! # casekit-service — long-lived incremental case sessions
//!
//! Everything else in the toolkit is batch: edit an argument, recompile
//! the whole theory, re-answer every question. This crate is the
//! interactive counterpart — a [`CaseService`] that keeps each case's
//! compiled state alive between edits and asks the solver only what an
//! edit actually changed.
//!
//! # Architecture
//!
//! A [`CaseSession`] owns four pieces of state per case:
//!
//! * the arena [`Argument`] — the current
//!   revision of the case;
//! * its compiled
//!   [`ArgumentTheory`](casekit_core::semantics::ArgumentTheory) — a
//!   persistent CDCL session whose clause database **only grows**
//!   across edits (payload formulas compile to definitional Tseitin
//!   biconditionals, never asserted facts), so learned clauses remain
//!   consequences of the database and are retained, sound, across
//!   revisions;
//! * a [`PayloadCache`](casekit_core::semantics::PayloadCache) mapping
//!   node ids to compiled literals, so an edit pays only its own
//!   Tseitin delta
//!   ([`recompile`](casekit_core::semantics::ArgumentTheory::recompile)
//!   reuses every
//!   unchanged payload's literal verbatim, and the theory's definition
//!   table gives a restored payload, or a sub-formula another payload
//!   shares, the literal it compiled to before);
//! * a [`WitnessPool`](casekit_logic::prop::WitnessPool) — the models
//!   and UNSAT assumption sets found answering one revision's questions
//!   keep answering the next revision's (stored witnesses bound-check
//!   away variables newer than themselves, so stale hits are
//!   impossible).
//!
//! **One question plane per revision.** Every solver question
//! [`CaseSession::answers`] asks — each support step's verdict, the root
//! entailment, every lint pass, and the premise probe's drop-probes —
//! is an assumption set over the compiled literals, built by one
//! `ArgumentTheory` method
//! ([`step_question`](casekit_core::semantics::ArgumentTheory::step_question),
//! [`entailment_question`](casekit_core::semantics::ArgumentTheory::entailment_question))
//! and answered through the session's one pool. The probe is
//! [`ArgumentTheory::probe`](casekit_core::semantics::ArgumentTheory::probe),
//! the same method CaseLint's CK104 reads its idle premises from. A question two
//! consumers share reaches the CDCL core once. The pool also replaces a
//! step-verdict cache: recompiling an edited case keeps the literal of
//! every unchanged payload, so an unchanged step asks the identical
//! assumption set it asked before, and the stored witness (SAT) or
//! assumption set (UNSAT) answers it.
//! That is sound because the clause database only grows: a stored
//! model still satisfies every clause it was checked against and
//! extends to any later definition, a set that was UNSAT stays UNSAT
//! under added clauses, and a witness never answers a question over a
//! variable newer than itself. Only questions over new literals, or
//! new combinations of old ones, pay a solve —
//! [`SessionStats::solver_calls`] counts them, and the machine report
//! still lists findings in the exact order of the batch checker. An
//! undo, or any other edit back to a formula compiled since the last
//! whole-theory invalidation, brings back its old literals, and with
//! them questions the pool has answered.
//!
//! **Conservative invalidation.** Replaced payloads may strand their
//! old definitional clauses as garbage. The cache counts a retired
//! payload's cost as every definition it spanned, shared or not, an
//! upper bound on what it strands; when that garbage cost outweighs
//! the live cost the session performs whole-theory invalidation — a
//! fresh compile with a cleared payload cache, definition table and
//! witness pool — which is always sound and bounds memory growth
//! under heavy editing. The first query after it pays every question
//! again.
//!
//! **Opening.** [`CaseService::open`] defers compilation to the first
//! query. A session opened from text with [`CaseService::open_source`]
//! starts compiled, with a warm pool and a cached answer bundle: its
//! lint stream is the diagnostics `open_source` returns, so the case is
//! compiled and each question asked once.
//!
//! **Batched questions.** [`CaseSession::answers`] returns the machine
//! check, the full CaseLint diagnostic stream, and the premise probe
//! classification in one pass over the shared compilation, and caches
//! the bundle until the next edit. Every answer is verdict-identical
//! to recompiling from scratch with fresh pools ([`batch_answers`]) —
//! the service proptests and `BENCH_service.json`'s `answers_agree`
//! flag check exactly that, after every step of random edit scripts.
//! The pool itself is checked against the raw solver, question by
//! question, by a property test of the workspace.
//!
//! **Scale-out.** [`CaseService::drive`] shards per-case traffic
//! streams across `casekit-runtime` workers
//! ([`Runtime::map_mut`](casekit_runtime::Runtime::map_mut)); cases
//! are independent and per-case op order is preserved, so transcripts
//! are byte-identical at any worker count.
//!
//! ```
//! use casekit_core::dsl::parse_argument;
//! use casekit_service::{batch_answers, CaseService, EditOp};
//! use casekit_analysis::LintConfig;
//! use casekit_logic::prop::parse;
//!
//! let argument = parse_argument(r#"
//!     argument "mp" {
//!       goal g1 "q holds" formal "q" {
//!         goal g2 "the rule" formal "p -> q" { solution e1 "review" }
//!         goal g3 "the fact" formal "p" { solution e2 "measurement" }
//!       }
//!     }"#).unwrap();
//! let mut service = CaseService::new();
//! let case = service.open(argument);
//! assert!(service.answers(case).unwrap().machine.is_clean());
//! // Break the rule: only questions over its new literal reach the solver.
//! service.apply(case, &EditOp::ReplaceFormula {
//!     node: "g2".into(),
//!     formula: parse("p -> r").unwrap(),
//! }).unwrap();
//! let answers = service.answers(case).unwrap();
//! assert!(!answers.machine.is_clean());
//! // Verdict-for-verdict identical to a from-scratch recompilation.
//! let fresh = batch_answers(service.session(case).unwrap().argument(), &LintConfig::new());
//! assert_eq!(answers, fresh);
//! ```

#![forbid(unsafe_code)]

mod loader;
mod ops;
mod session;

pub use loader::{CorpusLoader, LoadedCase};
pub use ops::{CaseAnswers, CaseOp, EditError, EditOp};
pub use session::{batch_answers, batch_transcript, CaseSession, SessionStats};

use casekit_analysis::{check_syntax, Diagnostic, LintConfig};
use casekit_core::Argument;
use casekit_runtime::Runtime;

/// A fleet of live case sessions behind one edit/query front door.
///
/// Cases are addressed by the dense index [`open`](Self::open) returns.
/// Edits are cheap metadata operations; compilation and solving are
/// deferred to the next query, so an edit burst costs one recompile.
#[derive(Debug, Default)]
pub struct CaseService {
    sessions: Vec<CaseSession>,
    config: LintConfig,
}

impl CaseService {
    /// An empty service with the default lint configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty service whose sessions lint under `config`.
    pub fn with_config(config: LintConfig) -> Self {
        CaseService {
            sessions: Vec::new(),
            config,
        }
    }

    /// Opens a session for `argument` and returns its case index.
    pub fn open(&mut self, argument: Argument) -> usize {
        self.sessions
            .push(CaseSession::open(argument, self.config.clone()));
        self.sessions.len() - 1
    }

    /// Opens a session straight from `.case` source text via the
    /// error-recovering DSL frontend.
    ///
    /// Returns the new case index when enough of the file parsed to
    /// build an argument (even if it carried recoverable errors), plus
    /// the full span-carrying diagnostic stream — syntax (`CK2xx`) and
    /// graph/solver findings — under this service's lint configuration,
    /// byte-identical to [`check_source`](casekit_analysis::check_source).
    /// A file too broken to yield an argument returns `(None, ...)` and
    /// opens nothing.
    ///
    /// The case is compiled once: the new session builds its first
    /// answer bundle at open, and the graph findings are that bundle's
    /// lint stream, so the first [`answers`](Self::answers) is served
    /// from the cached bundle and asks the solver nothing.
    pub fn open_source(&mut self, src: &str) -> (Option<usize>, Vec<Diagnostic>) {
        let mut analysis = check_syntax(src, &self.config);
        let Some(argument) = analysis.argument.take() else {
            return (None, analysis.diagnostics);
        };
        let case = self.open(argument);
        let graph = self.sessions[case].answers().lint;
        (Some(case), analysis.with_graph(graph).diagnostics)
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the service holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The session for `case`, if open.
    pub fn session(&self, case: usize) -> Option<&CaseSession> {
        self.sessions.get(case)
    }

    /// Every open session, for callers that shard their own traffic
    /// across a [`Runtime`].
    pub fn sessions_mut(&mut self) -> &mut [CaseSession] {
        &mut self.sessions
    }

    /// Applies one edit to `case`.
    pub fn apply(&mut self, case: usize, op: &EditOp) -> Result<(), EditError> {
        let session = self
            .sessions
            .get_mut(case)
            .ok_or(EditError::UnknownCase(case))?;
        session.apply(op)
    }

    /// The batched answers for `case` — machine check, lint stream,
    /// probe classification — recompiling only the payloads edits
    /// changed.
    pub fn answers(&mut self, case: usize) -> Option<CaseAnswers> {
        self.sessions.get_mut(case).map(CaseSession::answers)
    }

    /// Drives one traffic stream per case — `traffic[i]` is the op
    /// sequence for case `i` — sharded across the runtime's workers,
    /// and returns each case's query transcript (one [`CaseAnswers`]
    /// per [`CaseOp::Query`], in stream order).
    ///
    /// Per-case op order is sequential and cases never communicate, so
    /// transcripts are byte-identical at any worker count. Edits that
    /// fail (unknown node, invalid rebuild) leave the session on its
    /// last valid revision and the stream moves on; pre-validated
    /// traffic — the bench and proptest generators — never hits that
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `traffic` is not exactly one stream per open case.
    pub fn drive(&mut self, traffic: &[Vec<CaseOp>], runtime: &Runtime) -> Vec<Vec<CaseAnswers>> {
        assert_eq!(
            traffic.len(),
            self.sessions.len(),
            "one traffic stream per open case"
        );
        runtime.map_mut(&mut self.sessions, |i, session| {
            traffic[i]
                .iter()
                .filter_map(|op| match op {
                    CaseOp::Edit(edit) => {
                        let _ = session.apply(edit);
                        None
                    }
                    CaseOp::Query => Some(session.answers()),
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_core::dsl::parse_argument;
    use casekit_core::{Node, NodeKind};
    use casekit_logic::prop::parse;

    fn mp_case() -> Argument {
        parse_argument(
            r#"argument "mp" {
                goal g1 "q holds" formal "q" {
                  goal g2 "the rule" formal "p -> q" { solution e1 "review" }
                  goal g3 "the fact" formal "p" { solution e2 "measurement" }
                }
            }"#,
        )
        .unwrap()
    }

    /// A two-branch case: editing one branch's premise must not
    /// re-verify the other branch's step.
    fn two_branch_case() -> Argument {
        parse_argument(
            r#"argument "branches" {
                goal g1 "a & b" formal "a & b" {
                  goal ga "a" formal "a" {
                    goal ga1 "a from x" formal "x -> a" { solution ea1 "x review" }
                    goal ga2 "x" formal "x" { solution ea2 "x measurement" }
                  }
                  goal gb "b" formal "b" {
                    goal gb1 "b from y" formal "y -> b" { solution eb1 "y review" }
                    goal gb2 "y" formal "y" { solution eb2 "y measurement" }
                  }
                }
            }"#,
        )
        .unwrap()
    }

    fn assert_agrees(service: &mut CaseService, case: usize) {
        let incremental = service.answers(case).unwrap();
        let fresh = batch_answers(
            service.session(case).unwrap().argument(),
            &LintConfig::new(),
        );
        assert_eq!(incremental, fresh);
    }

    #[test]
    fn incremental_answers_match_batch_through_an_edit_script() {
        let mut service = CaseService::new();
        let case = service.open(mp_case());
        assert_agrees(&mut service, case);
        // Formula edit that breaks entailment.
        service
            .apply(
                case,
                &EditOp::ReplaceFormula {
                    node: "g2".into(),
                    formula: parse("p -> r").unwrap(),
                },
            )
            .unwrap();
        assert_agrees(&mut service, case);
        // Text-only edit (lint plane).
        service
            .apply(
                case,
                &EditOp::SetText {
                    node: "g1".into(),
                    text: "All outputs are checked".into(),
                },
            )
            .unwrap();
        assert_agrees(&mut service, case);
        // Structural: new supporting premise restores entailment.
        service
            .apply(
                case,
                &EditOp::AddSupport {
                    parent: "g1".into(),
                    node: Node::new("g4", NodeKind::Goal, "the missing rule")
                        .with_formal(casekit_core::FormalPayload::Prop(parse("r -> q").unwrap())),
                },
            )
            .unwrap();
        assert_agrees(&mut service, case);
        // Structural: drop a premise again.
        service
            .apply(case, &EditOp::RemoveNode { node: "g3".into() })
            .unwrap();
        assert_agrees(&mut service, case);
    }

    #[test]
    fn repeat_queries_answer_from_the_cached_bundle() {
        let mut service = CaseService::new();
        let case = service.open(mp_case());
        let first = service.answers(case).unwrap();
        let second = service.answers(case).unwrap();
        assert_eq!(first, second);
        let stats = service.session(case).unwrap().stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cached_answers, 1);
        assert_eq!(stats.recompiles, 1);
    }

    #[test]
    fn editing_one_branch_reuses_the_other_branchs_step_verdicts() {
        let mut service = CaseService::new();
        let case = service.open(two_branch_case());
        assert_agrees(&mut service, case);
        let checked_cold = service.session(case).unwrap().stats().steps_checked;
        service
            .apply(
                case,
                &EditOp::ReplaceFormula {
                    node: "ga2".into(),
                    formula: parse("~x").unwrap(),
                },
            )
            .unwrap();
        assert_agrees(&mut service, case);
        let stats = service.session(case).unwrap().stats();
        // The b-branch step and the root step ask the questions they
        // asked before and answer from the witness pool; only the step
        // over the edited premise's new literal reaches the solver.
        assert!(stats.steps_reused > 0, "stats: {stats:?}");
        assert!(
            stats.steps_checked < 2 * checked_cold,
            "edit re-checked everything: {stats:?}"
        );
    }

    #[test]
    fn set_text_then_answers_pays_no_solver_calls() {
        let mut service = CaseService::new();
        let case = service.open(mp_case());
        assert_agrees(&mut service, case);
        let cold = service.session(case).unwrap().stats();
        assert!(cold.solver_calls > 0, "stats: {cold:?}");
        service
            .apply(
                case,
                &EditOp::SetText {
                    node: "g1".into(),
                    text: "All outputs are checked".into(),
                },
            )
            .unwrap();
        assert_agrees(&mut service, case);
        let warm = service.session(case).unwrap().stats();
        // Machine check, lint stream and probe were all recomputed, and
        // every question they asked was answered from the pool.
        assert_eq!(warm.solver_calls, cold.solver_calls, "stats: {warm:?}");
        assert_eq!(warm.steps_checked, cold.steps_checked);
        assert!(warm.steps_reused > cold.steps_reused);
    }

    #[test]
    fn formula_edit_pays_only_for_questions_over_new_literals() {
        let mut service = CaseService::new();
        let case = service.open(two_branch_case());
        assert_agrees(&mut service, case);
        let before = service.session(case).unwrap().stats();
        let edit = |service: &mut CaseService, formula: &str| {
            service
                .apply(
                    case,
                    &EditOp::ReplaceFormula {
                        node: "gb2".into(),
                        formula: parse(formula).unwrap(),
                    },
                )
                .unwrap();
            assert_agrees(service, case);
            service.session(case).unwrap().stats()
        };
        // A fresh atom: only questions over its literal reach the
        // solver — the step into gb, not those into ga or g1 — and
        // fewer of them than a cold session pays on the same revision.
        let fresh = edit(&mut service, "z");
        assert_eq!(fresh.steps_checked - before.steps_checked, 1);
        assert_eq!(fresh.steps_reused - before.steps_reused, 2);
        let paid = fresh.solver_calls - before.solver_calls;
        assert!(paid > 0);
        let mut cold = CaseService::new();
        let cold_case = cold.open(service.session(case).unwrap().argument().clone());
        cold.answers(cold_case).unwrap();
        assert!(
            paid < cold.session(cold_case).unwrap().stats().solver_calls,
            "paid {paid}"
        );
        // Back to the original atom: every literal is an old one and
        // every question was asked at the first revision, so nothing
        // reaches the solver.
        let restored = edit(&mut service, "y");
        assert_eq!(restored.solver_calls, fresh.solver_calls, "{restored:?}");
        assert_eq!(restored.steps_checked, fresh.steps_checked);
        assert_eq!(restored.steps_reused - fresh.steps_reused, 3);
        // The same round trip through a compound payload: restoring
        // `p -> y` gives its implication back the literal it had, so
        // again every question is one the pool has answered.
        edit(&mut service, "p -> y");
        let away = edit(&mut service, "p -> z");
        let back = edit(&mut service, "p -> y");
        assert_eq!(back.solver_calls, away.solver_calls, "{back:?}");
        assert_eq!(back.steps_checked, away.steps_checked);
        assert_eq!(back.steps_reused - away.steps_reused, 3);
    }

    #[test]
    fn heavy_editing_triggers_compaction_and_answers_still_agree() {
        let mut service = CaseService::new();
        let case = service.open(mp_case());
        // Churn the rule with ever-different formulas until the
        // stranded definitional clauses outweigh the live ones.
        for round in 0..40 {
            let atoms: Vec<String> = (0..=round).map(|i| format!("v{i}")).collect();
            let src = format!("({}) -> q", atoms.join(" & "));
            service
                .apply(
                    case,
                    &EditOp::ReplaceFormula {
                        node: "g2".into(),
                        formula: parse(&src).unwrap(),
                    },
                )
                .unwrap();
            let _ = service.answers(case).unwrap();
        }
        assert_agrees(&mut service, case);
        let stats = service.session(case).unwrap().stats();
        assert!(stats.full_rebuilds >= 1, "stats: {stats:?}");
    }

    #[test]
    fn manual_compact_preserves_answers() {
        let mut service = CaseService::new();
        let case = service.open(mp_case());
        let before = service.answers(case).unwrap();
        service.sessions_mut()[case].compact();
        assert_eq!(service.answers(case).unwrap(), before);
        assert_agrees(&mut service, case);
    }

    #[test]
    fn drive_transcripts_are_identical_at_every_worker_count() {
        let traffic: Vec<Vec<CaseOp>> = (0..6)
            .map(|i| {
                vec![
                    CaseOp::Query,
                    CaseOp::Edit(EditOp::ReplaceFormula {
                        node: "g3".into(),
                        formula: parse(if i % 2 == 0 { "~p" } else { "p & p" }).unwrap(),
                    }),
                    CaseOp::Query,
                    CaseOp::Edit(EditOp::SetText {
                        node: "g1".into(),
                        text: format!("revision {i}"),
                    }),
                    CaseOp::Query,
                ]
            })
            .collect();
        let mut reference: Option<Vec<Vec<CaseAnswers>>> = None;
        for workers in [1, 2, 4] {
            let mut service = CaseService::new();
            for _ in 0..traffic.len() {
                service.open(mp_case());
            }
            let transcript = service.drive(&traffic, &Runtime::with_workers(workers));
            match &reference {
                None => reference = Some(transcript),
                Some(expected) => assert_eq!(&transcript, expected, "workers = {workers}"),
            }
        }
    }

    #[test]
    fn open_source_recovers_and_opens_when_possible() {
        let mut service = CaseService::new();
        // A typo'd node is dropped, but the file still opens.
        let (case, diagnostics) = service.open_source(
            "argument \"typo\" {\n  gaol g1 \"dropped\"\n  goal g2 \"kept\" { solution e1 \"log\" }\n}\n",
        );
        let case = case.expect("recovery yields an openable case");
        assert!(!diagnostics.is_empty());
        assert!(diagnostics.iter().all(|d| d.span.is_some()));
        assert_eq!(service.session(case).unwrap().argument().nodes().count(), 2);
        assert!(service.answers(case).is_some());
        // A file with no header opens nothing.
        let (none, diagnostics) = service.open_source("widget { }");
        assert_eq!(none, None);
        assert!(!diagnostics.is_empty());
        assert_eq!(service.len(), 1);
    }

    #[test]
    fn edit_errors_leave_the_session_usable() {
        let mut service = CaseService::new();
        let case = service.open(mp_case());
        let before = service.answers(case).unwrap();
        assert_eq!(
            service.apply(
                case,
                &EditOp::RemoveNode {
                    node: "nope".into()
                }
            ),
            Err(EditError::UnknownNode("nope".into()))
        );
        // Duplicate id through AddSupport surfaces the rebuild error.
        let dup = service.apply(
            case,
            &EditOp::AddSupport {
                parent: "g1".into(),
                node: Node::new("g2", NodeKind::Goal, "already taken"),
            },
        );
        assert!(matches!(dup, Err(EditError::Rebuild(_))), "got: {dup:?}");
        assert_eq!(
            service.apply(99, &EditOp::RemoveNode { node: "g1".into() }),
            Err(EditError::UnknownCase(99))
        );
        assert_eq!(service.answers(case).unwrap(), before);
        assert_agrees(&mut service, case);
    }
}
