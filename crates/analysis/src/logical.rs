//! Logical lint passes: solver-backed checks on one compiled
//! [`ArgumentTheory`] session, plus the re-routed formal/informal
//! fallacy detectors.
//!
//! Every pass is a method of one [`Pass`] over `&mut ArgumentTheory`
//! and a [`WitnessPool`]. The pass keeps the verdicts more than one lint
//! reads — each step's, premise consistency and the root entailment —
//! and asks each at its first need, so the compile-once engine
//! ([`crate::analyse_compiled`]) looks each up once, and a pass run on
//! its own still asks what it needs: the recompile-per-lint baseline
//! ([`crate::baseline::lint_argument_recompiling`]) runs the *same* pass
//! bodies, one fresh `Pass` per tool, and differs only in how many
//! Tseitin compilations it pays. The first pass to need a question asks
//! it, so the engine's questions reach the pool in pass order.
//! Assumption rounds always retract fully
//! ([`casekit_logic::prop::Theory::check_under`]), so passes compose in
//! any order on one session.

use crate::diagnostic::{Diagnostic, LintCode, Sink};
use crate::Analysis;
use casekit_core::semantics::{ArgumentTheory, ProbeReport};
use casekit_core::{Argument, FormalPayload, NodeId, NodeIdx};
use casekit_fallacies::formal::{Compiled, Finding};
use casekit_fallacies::taxonomy::FormalFallacy;
use casekit_fallacies::{formal, informal};
use casekit_logic::prop::{Formula, Lit, WitnessPool};

/// Runs every logical and fallacy pass against one shared session and
/// one shared [`WitnessPool`], so a model found answering one pass's
/// satisfiability question gets reused by every later pass (the
/// recompiling baseline starts a fresh pool per pass, because its
/// per-tool sessions share nothing). The pool may outlive the run — the
/// incremental service keeps one per case — and warm or cold pools
/// produce byte-identical diagnostics. The returned pass holds the
/// verdicts the run decided.
pub(crate) fn run_all<'a>(
    argument: &'a Argument,
    theory: &'a mut ArgumentTheory,
    pool: &'a mut WitnessPool,
    sink: &mut Sink<'_>,
) -> Pass<'a> {
    let mut pass = Pass::new(argument, theory, pool);
    pass.non_deductive(sink);
    pass.inconsistent_premises(sink);
    pass.tautological_conclusion(sink);
    pass.unsatisfiable_conclusion(sink);
    pass.entailment(sink);
    pass.redundant_premises(sink);
    pass.circular_steps(sink);
    pass.fallacies(sink);
    pass_quantifier(argument, sink);
    pass
}

/// The propositional payload of the node at `idx`.
fn payload(argument: &Argument, idx: NodeIdx) -> Option<&Formula> {
    match &argument.node_at(idx).formal {
        Some(FormalPayload::Prop(f)) => Some(f),
        _ => None,
    }
}

/// The logical passes over one compiled case, with the verdicts they
/// share.
pub(crate) struct Pass<'a> {
    argument: &'a Argument,
    theory: &'a mut ArgumentTheory,
    pool: &'a mut WitnessPool,
    /// Each step's verdict once asked: `true` when its support does not
    /// entail its claim.
    steps: Vec<Option<bool>>,
    /// Step questions whose lookup reached the solver.
    steps_solved: usize,
    consistent: Option<bool>,
    entailed: Option<bool>,
    /// CK104's probe, when it ran.
    probe: Option<ProbeReport>,
    fallacies: Vec<Finding>,
}

impl<'a> Pass<'a> {
    pub(crate) fn new(
        argument: &'a Argument,
        theory: &'a mut ArgumentTheory,
        pool: &'a mut WitnessPool,
    ) -> Self {
        let steps = vec![None; theory.step_count()];
        Pass {
            argument,
            theory,
            pool,
            steps,
            steps_solved: 0,
            consistent: None,
            entailed: None,
            probe: None,
            fallacies: Vec::new(),
        }
    }

    /// The run's verdicts beside `diagnostics`, its lint stream. When
    /// CK104 did not probe (no premises, or inconsistent ones), the
    /// probe runs here, after every lint pass.
    pub(crate) fn into_analysis(mut self, diagnostics: Vec<Diagnostic>) -> Analysis {
        let probe = match (self.probe.take(), self.entailed()) {
            (Some(probe), _) => Some(probe),
            (None, Some(entailed)) => Some(self.theory.probe_given(entailed, self.pool)),
            (None, None) => self.theory.probe(self.pool),
        };
        let non_deductive = (0..self.steps.len())
            .filter(|&k| self.steps[k] == Some(true))
            .map(|k| self.theory.step_parent(k).0)
            .collect();
        Analysis {
            diagnostics,
            non_deductive,
            steps_solved: self.steps_solved,
            entailed: self.entailed,
            fallacies: self.fallacies,
            probe,
        }
    }

    /// Satisfiability of a literal set, through the pool.
    fn sat(&mut self, lits: &[Lit]) -> bool {
        self.pool.check(self.theory.theory_mut(), lits)
    }

    /// Whether step `k`'s support fails to entail its claim, asked at
    /// first need.
    fn step_fails(&mut self, k: usize) -> bool {
        if let Some(fails) = self.steps[k] {
            return fails;
        }
        let calls = self.pool.solver_calls();
        let fails = self.theory.step_counterexample(k, self.pool);
        self.steps_solved += usize::from(self.pool.solver_calls() > calls);
        self.steps[k] = Some(fails);
        fails
    }

    /// Whether the formal premises are jointly satisfiable, asked at
    /// first need; `None` without premises.
    fn consistent(&mut self) -> Option<bool> {
        if self.consistent.is_none() && !self.theory.premise_lits().is_empty() {
            let (premise_lits, theory) = self.theory.premise_lits_and_theory();
            self.consistent = Some(self.pool.check(theory, premise_lits));
        }
        self.consistent
    }

    /// Whether the formal premises entail the formal conclusion, asked
    /// at first need; `None` without premises or without a conclusion.
    fn entailed(&mut self) -> Option<bool> {
        if self.entailed.is_none() && !self.theory.premise_lits().is_empty() {
            self.entailed = self
                .theory
                .entailment_counterexample(None, self.pool)
                .map(|counterexample| !counterexample);
        }
        self.entailed
    }

    fn premise_ids(&self) -> Vec<NodeId> {
        self.theory
            .premise_indices()
            .iter()
            .map(|&idx| self.argument.id_at(idx).clone())
            .collect()
    }

    /// CK106: formalised steps whose support does not entail the claim
    /// — each step's question, asked through the witness pool, so a
    /// long-lived session that already answered a step pays no second
    /// solve.
    pub(crate) fn non_deductive(&mut self, sink: &mut Sink<'_>) {
        for k in 0..self.theory.step_count() {
            if !self.step_fails(k) {
                continue; // deductive
            }
            let parent = self.argument.id_at(self.theory.step_parent(k).0);
            let related = self
                .theory
                .step_children(k)
                .iter()
                .map(|&(child, _)| self.argument.id_at(child).clone())
                .collect();
            sink.emit(
                LintCode::NonDeductiveStep,
                Some(parent.clone()),
                related,
                format!("the support for `{parent}` does not deductively entail it"),
                Some(
                    "strengthen the support, weaken the claim, or argue the gap explicitly".into(),
                ),
            );
        }
    }

    /// CK101: the formal premises are jointly unsatisfiable.
    pub(crate) fn inconsistent_premises(&mut self, sink: &mut Sink<'_>) {
        if self.consistent() != Some(false) {
            return;
        }
        let ids = self.premise_ids();
        sink.emit(
            LintCode::InconsistentPremises,
            Some(ids[0].clone()),
            ids[1..].to_vec(),
            format!(
                "the {} formal premises cannot all be true together",
                ids.len()
            ),
            Some("at least one premise must be false; recheck the flagged leaves".into()),
        );
    }

    /// CK102: the conclusion is a tautology — the evidence cannot
    /// matter.
    pub(crate) fn tautological_conclusion(&mut self, sink: &mut Sink<'_>) {
        let (Some(conclusion_lit), Some(conclusion_idx)) =
            (self.theory.conclusion_lit(), self.theory.conclusion_index())
        else {
            return;
        };
        if self.sat(&[!conclusion_lit]) {
            return;
        }
        let conclusion = self.argument.id_at(conclusion_idx);
        sink.emit(
            LintCode::TautologicalConclusion,
            Some(conclusion.clone()),
            Vec::new(),
            format!(
                "the conclusion at `{conclusion}` is a tautology: it holds regardless of any evidence"
            ),
            Some("state a falsifiable claim; a vacuous conclusion assures nothing".into()),
        );
    }

    /// CK103: the conclusion is unsatisfiable — no evidence could help.
    pub(crate) fn unsatisfiable_conclusion(&mut self, sink: &mut Sink<'_>) {
        let (Some(conclusion_lit), Some(conclusion_idx)) =
            (self.theory.conclusion_lit(), self.theory.conclusion_index())
        else {
            return;
        };
        if self.sat(&[conclusion_lit]) {
            return;
        }
        let conclusion = self.argument.id_at(conclusion_idx);
        sink.emit(
            LintCode::UnsatisfiableConclusion,
            Some(conclusion.clone()),
            Vec::new(),
            format!(
                "the conclusion at `{conclusion}` is unsatisfiable: no state of the world makes it true"
            ),
            Some("the claim contradicts itself; restate it".into()),
        );
    }

    /// CK107: the premises do not entail the conclusion — premises
    /// assumed, conclusion denied, SAT means a counterexample.
    pub(crate) fn entailment(&mut self, sink: &mut Sink<'_>) {
        if self.entailed() != Some(false) {
            return;
        }
        let Some(conclusion_idx) = self.theory.conclusion_index() else {
            return;
        };
        let conclusion = self.argument.id_at(conclusion_idx);
        sink.emit(
            LintCode::ConclusionNotEntailed,
            Some(conclusion.clone()),
            self.premise_ids(),
            format!("the formal premises do not entail the conclusion at `{conclusion}`"),
            Some("add the missing premise or weaken the conclusion".into()),
        );
    }

    /// CK104: the idle premises of Rushby's what-if probe
    /// ([`ArgumentTheory::probe_given`], with the root entailment this
    /// pass holds) — premises the conclusion survives without. Gated on
    /// a consistent premise set (inconsistent premises entail
    /// everything, which would mark every premise "redundant" while
    /// CK101/CK107 already name the real defect); a probe that finds the
    /// conclusion not entailed reports nothing, since that is CK107's
    /// finding.
    pub(crate) fn redundant_premises(&mut self, sink: &mut Sink<'_>) {
        let Some(conclusion_idx) = self.theory.conclusion_index() else {
            return;
        };
        if self.consistent() != Some(true) {
            return; // inconsistent: CK101's finding, not a redundancy.
        }
        let Some(entailed) = self.entailed() else {
            return;
        };
        let probe = self.theory.probe_given(entailed, self.pool);
        let conclusion = self.argument.id_at(conclusion_idx);
        for &i in &probe.idle {
            let dropped = self.argument.id_at(self.theory.premise_indices()[i]);
            sink.emit(
                LintCode::RedundantPremise,
                Some(dropped.clone()),
                vec![conclusion.clone()],
                format!(
                    "premise `{dropped}` is idle: the remaining premises already entail the conclusion"
                ),
                Some("drop it, or strengthen the conclusion it was meant to carry".into()),
            );
        }
        self.probe = Some(probe);
    }

    /// CK105: a support child logically equivalent to its parent claim
    /// — the step restates rather than justifies. Two assumption rounds
    /// per (step, child) edge against the compiled step literals.
    pub(crate) fn circular_steps(&mut self, sink: &mut Sink<'_>) {
        for k in 0..self.theory.step_count() {
            let (parent, parent_lit) = self.theory.step_parent(k);
            let only_child = self.theory.step_children(k).len() == 1;
            for c in 0..self.theory.step_children(k).len() {
                let (child, child_lit) = self.theory.step_children(k)[c];
                // Child-true/parent-false first: the redundancy pass's
                // drop-probe witnesses (premises true, conclusion false)
                // usually cover it, and a hit short-circuits the second
                // direction away without a solve. For an only child it
                // is the step's own question, whose verdict CK106 holds.
                let child_without_parent = if only_child {
                    self.step_fails(k)
                } else {
                    self.sat(&[child_lit, !parent_lit])
                };
                if child_without_parent || self.sat(&[parent_lit, !child_lit]) {
                    continue;
                }
                let (child, parent) = (self.argument.id_at(child), self.argument.id_at(parent));
                sink.emit(
                    LintCode::CircularStep,
                    Some(child.clone()),
                    vec![parent.clone()],
                    format!(
                        "`{child}` is logically equivalent to the claim `{parent}` it supports"
                    ),
                    Some("support the claim with independent content, not a restatement".into()),
                );
            }
        }
    }

    /// CK110–CK115: the formal fallacy detectors, run against the
    /// compiled premise/conclusion literals of this session — no second
    /// Tseitin pass — with the consistency and entailment verdicts the
    /// pass already holds.
    pub(crate) fn fallacies(&mut self, sink: &mut Sink<'_>) {
        let Some(conclusion_idx) = self.theory.conclusion_index() else {
            return;
        };
        let (Some(conclusion), Some(conclusion_lit)) = (
            payload(self.argument, conclusion_idx),
            self.theory.conclusion_lit(),
        ) else {
            return;
        };
        if self.theory.premise_indices().is_empty() {
            return;
        }
        let premises: Vec<&Formula> = self
            .theory
            .premise_indices()
            .iter()
            .filter_map(|&idx| payload(self.argument, idx))
            .collect();
        let (premise_lits, theory) = self.theory.premise_lits_and_theory();
        let session = Compiled {
            theory,
            pool: self.pool,
            premise_lits,
            conclusion_lit,
            consistent: self.consistent,
            entailed: self.entailed,
        };
        let findings = formal::detect_all_compiled_with(session, &premises, conclusion);
        emit_fallacy_findings(
            self.argument,
            self.theory.premise_indices(),
            Some(conclusion_idx),
            &findings,
            sink,
        );
        self.fallacies = findings;
    }
}

/// The stable code for each formal fallacy.
fn fallacy_code(fallacy: FormalFallacy) -> LintCode {
    match fallacy {
        FormalFallacy::BeggingTheQuestion => LintCode::BeggingTheQuestion,
        FormalFallacy::IncompatiblePremises => LintCode::IncompatiblePremises,
        FormalFallacy::PremiseConclusionContradiction => LintCode::PremiseConclusionContradiction,
        FormalFallacy::DenyingTheAntecedent => LintCode::DenyingTheAntecedent,
        FormalFallacy::AffirmingTheConsequent => LintCode::AffirmingTheConsequent,
        FormalFallacy::FalseConversion => LintCode::FalseConversion,
        FormalFallacy::UndistributedMiddle => LintCode::UndistributedMiddle,
        FormalFallacy::IllicitDistribution => LintCode::IllicitDistribution,
    }
}

fn fallacy_hint(code: LintCode) -> Option<String> {
    let hint = match code {
        LintCode::BeggingTheQuestion => {
            "support the conclusion with something other than the conclusion"
        }
        LintCode::IncompatiblePremises => "at least one of the flagged premises must go",
        LintCode::PremiseConclusionContradiction => {
            "the premise and the conclusion cannot both hold"
        }
        LintCode::DenyingTheAntecedent => {
            "an implication says nothing when its antecedent is false"
        }
        LintCode::AffirmingTheConsequent => {
            "an implication does not run backwards from its consequent"
        }
        LintCode::FalseConversion => {
            "an implication does not entail its converse; use a biconditional if both directions hold"
        }
        _ => return None,
    };
    Some(hint.into())
}

/// Routes formal-fallacy [`Finding`]s into the diagnostic stream,
/// mapping premise indices to the argument's premise nodes. Shared by
/// the compile-once engine and the recompiling baseline.
pub(crate) fn emit_fallacy_findings(
    argument: &Argument,
    premise_indices: &[NodeIdx],
    conclusion_idx: Option<NodeIdx>,
    findings: &[Finding],
    sink: &mut Sink<'_>,
) {
    for finding in findings {
        let code = fallacy_code(finding.fallacy);
        let involved: Vec<NodeId> = finding
            .premises
            .iter()
            .filter_map(|i| premise_indices.get(*i))
            .map(|idx| argument.id_at(*idx).clone())
            .collect();
        let (primary, mut related) = match involved.split_first() {
            Some((first, rest)) => (Some(first.clone()), rest.to_vec()),
            None => (
                conclusion_idx.map(|idx| argument.id_at(idx).clone()),
                vec![],
            ),
        };
        if let (Some(conclusion), Some(primary_id)) = (conclusion_idx, &primary) {
            let conclusion_id = argument.id_at(conclusion);
            if conclusion_id != primary_id && !related.contains(conclusion_id) {
                related.push(conclusion_id.clone());
            }
        }
        sink.emit(
            code,
            primary,
            related,
            finding.detail.clone(),
            fallacy_hint(code),
        );
    }
}

/// CK120: the lexical quantifier-mismatch cue (a universal claim
/// supported only by partial evidence). No solver involved.
pub(crate) fn pass_quantifier(argument: &Argument, sink: &mut Sink<'_>) {
    for cue in informal::quantifier_mismatch_lint(argument) {
        sink.emit(
            LintCode::QuantifierMismatch,
            cue.node,
            Vec::new(),
            cue.detail,
            Some("check whether the cited evidence covers the whole population".into()),
        );
    }
}
