//! Argument nodes and edge kinds.

use casekit_logic::ltl::Ltl;
use casekit_logic::prop::Formula;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Identifier of an argument node, e.g. `g1` or `s3`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(Arc<str>);

impl NodeId {
    /// Creates an id. Ids are free-form strings; the DSL restricts them
    /// to `[A-Za-z_][A-Za-z0-9_]*`.
    ///
    /// Construction never panics: an empty id is representable but is
    /// rejected with [`crate::ArgumentError::InvalidId`] when an argument
    /// is built (and by the DSL parser's own diagnostics), so no
    /// degenerate id can enter a built [`crate::Argument`].
    pub fn new(name: impl AsRef<str>) -> Self {
        NodeId(Arc::from(name.as_ref()))
    }

    /// The id text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for NodeId {
    fn from(s: &str) -> Self {
        NodeId::new(s)
    }
}

/// Lets id-keyed maps and sets be queried with a plain `&str`. Sound
/// because the derived `Hash`, `Eq` and `Ord` of `NodeId` delegate to
/// those of the `str` it holds.
impl Borrow<str> for NodeId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// The kind of an argument node.
///
/// The GSN kinds follow the GSN Community Standard; `Claim`,
/// `ArgumentNode`, and `Evidence` are the CAE vocabulary (kept distinct so
/// that notation-specific rules can tell them apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// GSN goal: a claim, stated as a proposition.
    Goal,
    /// GSN strategy: describes how sub-goals combine to support a goal.
    Strategy,
    /// GSN solution: a reference to an item of evidence.
    Solution,
    /// GSN context: scopes the interpretation of a goal or strategy.
    Context,
    /// GSN assumption: an unsubstantiated statement taken as true.
    Assumption,
    /// GSN justification: why a goal or strategy is acceptable.
    Justification,
    /// CAE claim.
    Claim,
    /// CAE argument: the rule connecting evidence/sub-claims to a claim.
    ArgumentNode,
    /// CAE evidence.
    Evidence,
}

impl NodeKind {
    /// Short prefix conventionally used in ids (`G`, `S`, `Sn`, …).
    pub fn prefix(self) -> &'static str {
        match self {
            NodeKind::Goal => "G",
            NodeKind::Strategy => "S",
            NodeKind::Solution => "Sn",
            NodeKind::Context => "C",
            NodeKind::Assumption => "A",
            NodeKind::Justification => "J",
            NodeKind::Claim => "Cl",
            NodeKind::ArgumentNode => "Ag",
            NodeKind::Evidence => "Ev",
        }
    }

    /// Whether the kind belongs to the GSN vocabulary.
    pub fn is_gsn(self) -> bool {
        matches!(
            self,
            NodeKind::Goal
                | NodeKind::Strategy
                | NodeKind::Solution
                | NodeKind::Context
                | NodeKind::Assumption
                | NodeKind::Justification
        )
    }

    /// Whether the kind belongs to the CAE vocabulary.
    pub fn is_cae(self) -> bool {
        matches!(
            self,
            NodeKind::Claim | NodeKind::ArgumentNode | NodeKind::Evidence
        )
    }

    /// Whether nodes of this kind assert a proposition (and so may carry a
    /// formal payload).
    pub fn is_propositional(self) -> bool {
        matches!(
            self,
            NodeKind::Goal | NodeKind::Assumption | NodeKind::Claim
        )
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NodeKind::Goal => "goal",
            NodeKind::Strategy => "strategy",
            NodeKind::Solution => "solution",
            NodeKind::Context => "context",
            NodeKind::Assumption => "assumption",
            NodeKind::Justification => "justification",
            NodeKind::Claim => "claim",
            NodeKind::ArgumentNode => "argument",
            NodeKind::Evidence => "evidence",
        };
        f.write_str(name)
    }
}

/// The kind of an edge between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// GSN `SupportedBy` / CAE support: inferential support.
    SupportedBy,
    /// GSN `InContextOf`: contextual relationship.
    InContextOf,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::SupportedBy => f.write_str("supported-by"),
            EdgeKind::InContextOf => f.write_str("in-context-of"),
        }
    }
}

/// An optional formal reading of a node's natural-language text — the
/// "symbolic" dimension of formality (Graydon §II-B2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FormalPayload {
    /// A propositional formula, e.g. `~on_grnd -> ~threv_en`.
    Prop(Formula),
    /// An LTL formula, e.g. `G (below_min -> (nonzero U above_min))`
    /// (Brunel & Cazin).
    Temporal(Ltl),
}

impl FormalPayload {
    /// A human-readable rendering of the payload.
    pub fn render(&self) -> String {
        match self {
            FormalPayload::Prop(f) => f.to_string(),
            FormalPayload::Temporal(f) => f.to_string(),
        }
    }
}

impl fmt::Display for FormalPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// An argument node: id, kind, natural-language text, and an optional
/// formal payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node's identifier, unique within an argument.
    pub id: NodeId,
    /// The node's kind.
    pub kind: NodeKind,
    /// The natural-language statement.
    pub text: String,
    /// Optional symbolic reading of `text`.
    pub formal: Option<FormalPayload>,
    /// Marked undeveloped (GSN diamond): support intentionally absent.
    pub undeveloped: bool,
}

impl Node {
    /// Creates a node with no formal payload.
    pub fn new(id: impl Into<NodeId>, kind: NodeKind, text: impl Into<String>) -> Self {
        Node {
            id: id.into(),
            kind,
            text: text.into(),
            formal: None,
            undeveloped: false,
        }
    }

    /// Attaches a formal payload, builder-style.
    pub fn with_formal(mut self, payload: FormalPayload) -> Self {
        self.formal = Some(payload);
        self
    }

    /// Marks the node undeveloped, builder-style.
    pub fn undeveloped(mut self) -> Self {
        self.undeveloped = true;
        self
    }

    /// Whether the node carries a formal payload.
    pub fn is_formalised(&self) -> bool {
        self.formal.is_some()
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} \"{}\"", self.id, self.kind, self.text)?;
        if let Some(p) = &self.formal {
            write!(f, " ⟦{p}⟧")?;
        }
        if self.undeveloped {
            write!(f, " ◇")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_logic::prop::parse;

    #[test]
    fn node_id_display_and_eq() {
        let a = NodeId::new("g1");
        let b: NodeId = "g1".into();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "g1");
        assert_eq!(a.as_str(), "g1");
    }

    #[test]
    fn empty_node_id_is_representable_but_rejected_at_build() {
        // No panic: the invalid id is routed through `ArgumentError` by
        // `ArgumentBuilder` (see argument.rs) rather than asserted here.
        let id = NodeId::new("");
        assert_eq!(id.as_str(), "");
    }

    #[test]
    fn kind_vocabularies() {
        assert!(NodeKind::Goal.is_gsn());
        assert!(!NodeKind::Goal.is_cae());
        assert!(NodeKind::Claim.is_cae());
        assert!(!NodeKind::Claim.is_gsn());
        assert!(NodeKind::Goal.is_propositional());
        assert!(NodeKind::Assumption.is_propositional());
        assert!(!NodeKind::Strategy.is_propositional());
        assert!(!NodeKind::Solution.is_propositional());
    }

    #[test]
    fn kind_prefixes_are_distinct() {
        use std::collections::BTreeSet;
        let kinds = [
            NodeKind::Goal,
            NodeKind::Strategy,
            NodeKind::Solution,
            NodeKind::Context,
            NodeKind::Assumption,
            NodeKind::Justification,
            NodeKind::Claim,
            NodeKind::ArgumentNode,
            NodeKind::Evidence,
        ];
        let prefixes: BTreeSet<_> = kinds.iter().map(|k| k.prefix()).collect();
        assert_eq!(prefixes.len(), kinds.len());
    }

    #[test]
    fn node_display_shows_payload_and_undeveloped() {
        let n = Node::new("g2", NodeKind::Goal, "Reversers inhibited in flight")
            .with_formal(FormalPayload::Prop(parse("~on_grnd -> ~threv_en").unwrap()));
        let s = n.to_string();
        assert!(s.contains("g2"));
        assert!(s.contains("goal"));
        assert!(s.contains("~on_grnd -> ~threv_en"));
        assert!(n.is_formalised());

        let u = Node::new("g3", NodeKind::Goal, "TBD").undeveloped();
        assert!(u.to_string().contains('◇'));
        assert!(u.undeveloped);
    }

    #[test]
    fn edge_kind_display() {
        assert_eq!(EdgeKind::SupportedBy.to_string(), "supported-by");
        assert_eq!(EdgeKind::InContextOf.to_string(), "in-context-of");
    }
}
