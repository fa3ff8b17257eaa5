//! The service's wire types: edit operations, traffic ops, errors, and
//! the batched answer bundle.

use casekit_analysis::Diagnostic;
use casekit_core::semantics::ProbeReport;
use casekit_core::{ArgumentError, Node, NodeId};
use casekit_fallacies::checker::MachineReport;
use casekit_logic::prop::Formula;
use std::fmt;

/// One edit to a live case.
///
/// Formula and structural edits mark the compilation stale (the next
/// query recompiles incrementally); [`SetText`](EditOp::SetText)
/// touches no formal content and invalidates only the answer bundle.
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// Replace (or install) the propositional payload of a node, formal
    /// leaf or not — the session makes no distinction.
    ReplaceFormula {
        /// The node whose payload changes.
        node: NodeId,
        /// The new propositional reading.
        formula: Formula,
    },
    /// Replace a node's natural-language statement (text plane only).
    SetText {
        /// The node whose text changes.
        node: NodeId,
        /// The new statement.
        text: String,
    },
    /// Add a new node supporting `parent` (a `SupportedBy` edge).
    AddSupport {
        /// The existing parent to support.
        parent: NodeId,
        /// The new supporting node.
        node: Node,
    },
    /// Remove a node and every edge incident to it. Children formerly
    /// reached only through it become unreachable — which the lint
    /// stream reports, exactly as a batch run would.
    RemoveNode {
        /// The node to remove.
        node: NodeId,
    },
}

/// One element of a per-case traffic stream: apply an edit, or ask for
/// the batched answers.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseOp {
    /// Apply an edit.
    Edit(EditOp),
    /// Answer machine check + lint + probe against the current revision.
    Query,
}

/// Why an edit was rejected. The session is left on its previous
/// (valid) revision in every case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// No open case at this index.
    UnknownCase(usize),
    /// The referenced node does not exist in the current revision.
    UnknownNode(NodeId),
    /// The structural edit produced an invalid argument (duplicate id,
    /// unknown endpoint, self-loop, …).
    Rebuild(ArgumentError),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownCase(case) => write!(f, "no open case at index {case}"),
            EditError::UnknownNode(id) => write!(f, "no node `{id}` in the current revision"),
            EditError::Rebuild(err) => write!(f, "edit produces an invalid argument: {err}"),
        }
    }
}

impl std::error::Error for EditError {}

impl From<ArgumentError> for EditError {
    fn from(err: ArgumentError) -> Self {
        EditError::Rebuild(err)
    }
}

/// The batched multi-question answer for one case revision: everything
/// the toolkit can say about the argument, from one shared compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseAnswers {
    /// The mechanical check: per-step deduction, root entailment,
    /// formal fallacies.
    pub machine: MachineReport,
    /// The full CaseLint diagnostic stream, in canonical order.
    pub lint: Vec<Diagnostic>,
    /// The premise probe: entailment plus the critical/idle partition
    /// in premise order (`None` when the argument has no formal
    /// conclusion to probe).
    pub probe: Option<ProbeReport>,
}
