//! One live case: the argument, its persistent compiled state, and the
//! witness pool that answers each solver question once.

use crate::ops::{CaseAnswers, EditError, EditOp};
use casekit_analysis::{analyse_compiled, lint_argument, LintConfig};
use casekit_core::semantics::{probe_argument, ArgumentTheory, PayloadCache};
use casekit_core::{Argument, Edge, EdgeKind, FormalPayload, Node, NodeId};
use casekit_fallacies::checker::{check_argument, MachineReport};
use casekit_logic::prop::{Formula, Theory, WitnessPool};

/// Below this live payload cost, garbage never triggers a whole-theory
/// rebuild — tiny cases churn freely without compaction.
const COMPACTION_FLOOR: usize = 256;

/// Counters describing what a session's lifetime actually cost — the
/// observability the bench and tests use to prove the incremental path
/// is taken (not just that answers agree).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Edits applied (including text-only edits).
    pub edits: u64,
    /// Queries answered (cached or computed); `open_source` counts one
    /// computed query, the bundle it builds.
    pub queries: u64,
    /// Incremental recompiles performed (one per edited-then-queried
    /// burst, not one per edit).
    pub recompiles: u64,
    /// Whole-theory invalidations (garbage compaction fallback).
    pub full_rebuilds: u64,
    /// Support-step questions that reached the CDCL core. Each computed
    /// [`CaseSession::answers`] looks up every step question once, in
    /// CaseLint's CK106 pass, and counts it here or in `steps_reused`.
    pub steps_checked: u64,
    /// Support-step questions the witness pool answered without it.
    pub steps_reused: u64,
    /// Queries answered entirely from the cached answer bundle, such as
    /// the first `answers` after `open_source`.
    pub cached_answers: u64,
    /// CDCL calls the session's witness pool paid, over every question
    /// [`CaseSession::answers`] asked (step verdicts, root entailment,
    /// lint passes, premise probe).
    pub solver_calls: u64,
    /// Questions the session's witness pool answered from a stored model
    /// or UNSAT set. `solver_calls + witness_hits` is every lookup the
    /// session made.
    pub witness_hits: u64,
}

/// A long-lived session over one case.
///
/// Owns the current [`Argument`] revision plus the compiled state that
/// persists across edits: the CDCL session (learned clauses included),
/// the payload-literal cache, and the witness pool every solver
/// question goes through. See the crate docs for the soundness argument
/// behind each retention.
#[derive(Debug)]
pub struct CaseSession {
    argument: Argument,
    config: LintConfig,
    /// The live compiled session; `None` until the first query after
    /// open or whole-theory invalidation.
    theory: Option<ArgumentTheory>,
    cache: PayloadCache,
    pool: WitnessPool,
    /// Answer bundle for the current revision, valid until the next
    /// edit.
    answers: Option<CaseAnswers>,
    /// A formula or structural edit happened since the last flush.
    logic_dirty: bool,
    stats: SessionStats,
}

impl CaseSession {
    /// Opens a session over `argument`, deferring compilation to the
    /// first query.
    pub fn open(argument: Argument, config: LintConfig) -> Self {
        CaseSession {
            argument,
            config,
            theory: None,
            cache: PayloadCache::default(),
            pool: WitnessPool::new(),
            answers: None,
            logic_dirty: true,
            stats: SessionStats::default(),
        }
    }

    /// The current revision of the case.
    pub fn argument(&self) -> &Argument {
        &self.argument
    }

    /// Lifetime counters for this session.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            solver_calls: self.pool.solver_calls() as u64,
            witness_hits: self.pool.witness_hits() as u64,
            ..self.stats
        }
    }

    /// Applies one edit.
    pub fn apply(&mut self, op: &EditOp) -> Result<(), EditError> {
        match op {
            EditOp::ReplaceFormula { node, formula } => self.replace_formula(node, formula.clone()),
            EditOp::SetText { node, text } => self.set_text(node, text.clone()),
            EditOp::AddSupport { parent, node } => self.add_support(parent, node.clone()),
            EditOp::RemoveNode { node } => self.remove_node(node),
        }
    }

    /// Replaces (or installs) the propositional payload of `node`. Only
    /// the questions over its new literal reach the solver on the next
    /// query; every other one is answered from the witness pool.
    pub fn replace_formula(&mut self, node: &NodeId, formula: Formula) -> Result<(), EditError> {
        self.argument
            .node_mut(node)
            .ok_or_else(|| EditError::UnknownNode(node.clone()))?
            .formal = Some(FormalPayload::Prop(formula));
        self.invalidate_logic();
        Ok(())
    }

    /// Replaces the natural-language statement of `node`. Text is
    /// invisible to the solver, so only the lint stream (quantifier
    /// cues, duplicate evidence, …) is invalidated.
    pub fn set_text(&mut self, node: &NodeId, text: String) -> Result<(), EditError> {
        let target = self
            .argument
            .node_mut(node)
            .ok_or_else(|| EditError::UnknownNode(node.clone()))?;
        target.text = text;
        // The solver state is untouched (`logic_dirty` stays false);
        // the next query asks only questions the witness pool has
        // already answered.
        self.answers = None;
        self.stats.edits += 1;
        Ok(())
    }

    /// Adds `node` supporting `parent`. Structural: the argument is
    /// rebuilt (revalidated) and recompiled on the next query.
    pub fn add_support(&mut self, parent: &NodeId, node: Node) -> Result<(), EditError> {
        if self.argument.node_idx(parent).is_none() {
            return Err(EditError::UnknownNode(parent.clone()));
        }
        let mut edges = self.argument.edges().to_vec();
        edges.push(Edge {
            from: parent.clone(),
            to: node.id.clone(),
            kind: EdgeKind::SupportedBy,
        });
        let mut nodes = self.argument.arena().to_vec();
        nodes.push(node);
        self.argument = Argument::from_parts(self.argument.name(), nodes, edges)?;
        self.invalidate_logic();
        Ok(())
    }

    /// Removes `node` and every edge incident to it.
    pub fn remove_node(&mut self, node: &NodeId) -> Result<(), EditError> {
        if self.argument.node_idx(node).is_none() {
            return Err(EditError::UnknownNode(node.clone()));
        }
        let nodes: Vec<Node> = self
            .argument
            .arena()
            .iter()
            .filter(|n| n.id != *node)
            .cloned()
            .collect();
        let edges: Vec<Edge> = self
            .argument
            .edges()
            .iter()
            .filter(|e| e.from != *node && e.to != *node)
            .cloned()
            .collect();
        self.argument = Argument::from_parts(self.argument.name(), nodes, edges)?;
        self.invalidate_logic();
        Ok(())
    }

    /// The batched answers for the current revision: machine check,
    /// lint stream, probe classification. Cached until the next edit.
    ///
    /// One lint run ([`analyse_compiled`]) asks every question through
    /// the session's witness pool, each once, and the machine report and
    /// the probe are read off its verdicts; a question unchanged since an
    /// earlier revision is answered by the pool, without the CDCL core.
    pub fn answers(&mut self) -> CaseAnswers {
        self.stats.queries += 1;
        if let Some(answers) = &self.answers {
            self.stats.cached_answers += 1;
            return answers.clone();
        }
        self.flush();
        let theory = self
            .theory
            .as_mut()
            .expect("flush leaves a live compilation");
        let analysis = analyse_compiled(&self.argument, theory, &mut self.pool, &self.config);
        let solved = analysis.steps_solved as u64;
        self.stats.steps_checked += solved;
        self.stats.steps_reused += theory.step_count() as u64 - solved;
        let answers = CaseAnswers {
            machine: MachineReport::from_verdicts(
                &self.argument,
                analysis.non_deductive,
                analysis.entailed,
                analysis.fallacies,
            ),
            lint: analysis.diagnostics,
            probe: analysis.probe,
        };
        self.answers = Some(answers.clone());
        answers
    }

    /// Forces whole-theory invalidation: the next query compiles fresh,
    /// with an empty payload cache, definition table and witness pool.
    pub fn compact(&mut self) {
        self.theory = None;
        self.cache = PayloadCache::default();
        self.pool.clear();
        self.logic_dirty = true;
        self.stats.full_rebuilds += 1;
    }

    fn invalidate_logic(&mut self) {
        self.answers = None;
        self.logic_dirty = true;
        self.stats.edits += 1;
    }

    /// Brings the compiled session up to date with the current
    /// revision: an incremental recompile against the live clause
    /// database, falling back to whole-theory invalidation when the
    /// garbage cost of retired payloads outweighs the live cost.
    fn flush(&mut self) {
        if !self.logic_dirty && self.theory.is_some() {
            return;
        }
        let theory = self
            .theory
            .take()
            .map_or_else(Theory::new, ArgumentTheory::into_theory);
        let (compiled, stats) = ArgumentTheory::recompile(&self.argument, theory, &mut self.cache);
        self.stats.recompiles += 1;
        if stats.garbage_cost > stats.live_cost.max(COMPACTION_FLOOR) {
            // More dead weight than live payload: compact. Always
            // sound (everything derives from scratch).
            self.cache = PayloadCache::default();
            self.pool.clear();
            let (fresh, _) =
                ArgumentTheory::recompile(&self.argument, Theory::new(), &mut self.cache);
            self.theory = Some(fresh);
            self.stats.full_rebuilds += 1;
        } else {
            self.theory = Some(compiled);
        }
        self.logic_dirty = false;
    }
}

/// The honest from-scratch answer bundle: parse nothing, reuse nothing
/// — compile the argument fresh for the machine check, fresh for the
/// lint run, fresh for the probe, each asking through a fresh witness
/// pool, exactly as a batch caller would. The agreement oracle for
/// every incremental answer (and the baseline arm of
/// `BENCH_service.json`).
pub fn batch_answers(argument: &Argument, config: &LintConfig) -> CaseAnswers {
    CaseAnswers {
        machine: check_argument(argument),
        lint: lint_argument(argument, config),
        probe: probe_argument(argument),
    }
}

/// Replays a traffic stream statelessly: edits apply through a session
/// (the service's deterministic edit semantics) but every query is
/// answered by [`batch_answers`] — a from-scratch recompilation sharing
/// nothing with the incremental path. The agreement oracle for
/// [`crate::CaseService::drive`] transcripts, and the honest baseline
/// arm of `BENCH_service.json`.
pub fn batch_transcript(
    argument: &Argument,
    ops: &[crate::CaseOp],
    config: &LintConfig,
) -> Vec<CaseAnswers> {
    let mut shadow = CaseSession::open(argument.clone(), config.clone());
    ops.iter()
        .filter_map(|op| match op {
            crate::CaseOp::Edit(edit) => {
                let _ = shadow.apply(edit);
                None
            }
            crate::CaseOp::Query => Some(batch_answers(shadow.argument(), config)),
        })
        .collect()
}
