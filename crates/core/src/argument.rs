//! The argument graph: nodes, edges, construction, and traversal.
//!
//! # Architecture: arena + interner + CSR
//!
//! An [`Argument`] is a *dense arena graph*. Nodes live in a `Vec<Node>`
//! addressed by [`NodeIdx`] (a `u32` newtype); an interner maps each
//! textual [`NodeId`] to its index; and two CSR (compressed sparse row)
//! adjacency tables — outgoing and incoming — are built once at
//! construction by the workspace's graph kernel
//! ([`casekit_logic::graph::Csr`]). Every traversal primitive
//! ([`Argument::children`], [`Argument::parents`],
//! [`Argument::reachable_from`]) walks only the relevant adjacency rows,
//! so the cost is O(degree) per node or O(V+E) per whole-graph pass —
//! never a scan of the full edge list. Cycle checks and support-depth
//! walks run on the kernel's iterative SCC pass
//! ([`Argument::support_components`]), so no walk recurses on the call
//! stack.
//!
//! Two API planes are exposed:
//!
//! * the **`NodeId` plane** (stable, string-keyed): `children`,
//!   `parents`, `descendants`, … — unchanged from the original
//!   `BTreeMap`-backed implementation, so existing callers compile
//!   as-is; and
//! * the **`NodeIdx` plane** (`*_idx` fast paths): `children_idx`,
//!   `parents_idx`, `reachable_from`, `edges_idx`, … — no hashing, no
//!   allocation per step; this is what the notation checkers, renderers,
//!   semantics/confidence propagation, and the experiment pipelines use
//!   internally.
//!
//! Arguments are immutable in shape after [`ArgumentBuilder::build`]
//! (node *payloads* stay editable through [`Argument::node_mut`]), which
//! is what lets the adjacency structure be built exactly once.

use crate::node::{EdgeKind, Node, NodeId, NodeKind};
use casekit_logic::graph::{self, Csr};
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A directed edge from a supported/contextualised node to its child.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// The parent (the node being supported or put in context).
    pub from: NodeId,
    /// The child (the supporting or contextual node).
    pub to: NodeId,
    /// The relationship kind.
    pub kind: EdgeKind,
}

/// Errors from building or mutating an argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgumentError {
    /// A node id was empty or otherwise unusable.
    InvalidId(String),
    /// A node id was added twice.
    DuplicateId(NodeId),
    /// An edge referenced a node that does not exist.
    UnknownNode(NodeId),
    /// An edge was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// An edge from a node to itself.
    SelfLoop(NodeId),
    /// More nodes or edges than the `u32` index space allows.
    TooLarge,
}

impl fmt::Display for ArgumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgumentError::InvalidId(raw) => write!(f, "invalid node id `{raw}`"),
            ArgumentError::DuplicateId(id) => write!(f, "duplicate node id `{id}`"),
            ArgumentError::UnknownNode(id) => write!(f, "unknown node `{id}`"),
            ArgumentError::DuplicateEdge(a, b) => write!(f, "duplicate edge `{a}` -> `{b}`"),
            ArgumentError::SelfLoop(id) => write!(f, "self-loop on `{id}`"),
            ArgumentError::TooLarge => write!(f, "argument exceeds u32 node/edge index space"),
        }
    }
}

impl std::error::Error for ArgumentError {}

/// Dense index of a node in an [`Argument`] arena.
///
/// Indices are assigned in insertion order, are stable for the lifetime
/// of the argument, and are only meaningful for the argument that issued
/// them. Obtain one with [`Argument::node_idx`] and resolve it with
/// [`Argument::node_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(u32);

impl NodeIdx {
    #[inline]
    pub(crate) fn new(index: usize) -> Self {
        NodeIdx(index as u32)
    }

    /// The raw arena position, usable to index caller-side `Vec`s that
    /// are parallel to the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One row entry of the CSR adjacency: the node on the other end of an
/// edge and the edge kind (denormalised so the traversal fast path never
/// touches the edge list).
#[derive(Debug, Clone, Copy)]
struct AdjEntry {
    other: NodeIdx,
    kind: EdgeKind,
}

/// An assurance argument: a named directed graph of [`Node`]s.
///
/// The graph structure is deliberately permissive — notation-specific
/// well-formedness lives in [`crate::gsn`] and [`crate::cae`], because the
/// paper's point about "formalised syntax" is precisely that the rules are
/// a layer one chooses (and different formalisations disagree; see
/// [`crate::gsn::check_denney_pai`]).
///
/// See the [module documentation](self) for the arena/interner/CSR
/// layout and the `NodeId` vs [`NodeIdx`] API split.
#[derive(Debug, Clone)]
pub struct Argument {
    name: String,
    /// Arena: nodes in insertion order, addressed by [`NodeIdx`].
    nodes: Vec<Node>,
    /// Interner: id → arena index.
    index: HashMap<NodeId, NodeIdx>,
    /// Arena indices sorted by id, for deterministic id-order iteration.
    sorted: Vec<NodeIdx>,
    /// Edges in insertion order.
    edges: Vec<Edge>,
    /// Edge endpoints resolved to arena indices, parallel to `edges`.
    endpoints: Vec<(NodeIdx, NodeIdx)>,
    /// Outgoing adjacency.
    out: Csr<AdjEntry>,
    /// Incoming adjacency.
    inc: Csr<AdjEntry>,
}

impl Argument {
    /// Starts a builder for an argument with the given name.
    pub fn builder(name: impl Into<String>) -> ArgumentBuilder {
        ArgumentBuilder {
            name: name.into(),
            nodes: Vec::new(),
            index: HashMap::new(),
            edges: Vec::new(),
            endpoints: Vec::new(),
            edge_set: HashSet::new(),
            error: None,
        }
    }

    /// Assembles an argument from parts, validating ids and edges.
    ///
    /// This is the single choke point shared by the builder,
    /// deserialization, and bulk generators: every `Argument` in
    /// existence has passed through it (or through the equivalent eager
    /// checks in [`ArgumentBuilder`]), which is what makes the
    /// index-based fast paths panic-free.
    ///
    /// # Errors
    ///
    /// Returns the first invalid id, duplicate id, unknown edge
    /// endpoint, self-loop, or duplicate edge encountered.
    pub fn from_parts(
        name: impl Into<String>,
        nodes: Vec<Node>,
        edges: Vec<Edge>,
    ) -> Result<Argument, ArgumentError> {
        if nodes.len() > u32::MAX as usize || edges.len() > u32::MAX as usize {
            return Err(ArgumentError::TooLarge);
        }
        let mut index = HashMap::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            if node.id.as_str().is_empty() {
                return Err(ArgumentError::InvalidId(String::new()));
            }
            if index.insert(node.id.clone(), NodeIdx::new(i)).is_some() {
                return Err(ArgumentError::DuplicateId(node.id.clone()));
            }
        }
        let mut endpoints = Vec::with_capacity(edges.len());
        let mut seen_edges = HashSet::with_capacity(edges.len());
        for edge in &edges {
            let from = *index
                .get(&edge.from)
                .ok_or_else(|| ArgumentError::UnknownNode(edge.from.clone()))?;
            let to = *index
                .get(&edge.to)
                .ok_or_else(|| ArgumentError::UnknownNode(edge.to.clone()))?;
            if from == to {
                return Err(ArgumentError::SelfLoop(edge.from.clone()));
            }
            if !seen_edges.insert((from, to, edge.kind)) {
                return Err(ArgumentError::DuplicateEdge(
                    edge.from.clone(),
                    edge.to.clone(),
                ));
            }
            endpoints.push((from, to));
        }
        Ok(Argument::assemble(
            name.into(),
            nodes,
            index,
            edges,
            endpoints,
        ))
    }

    /// Assembles an argument whose parts the caller has already
    /// validated — the recovering DSL parser, which refuses every
    /// invalid id and edge with its own diagnostic as it reads them.
    /// `index` maps each node's id to its arena position and `edges`
    /// are `(from, to, kind)` over those positions: no empty or
    /// duplicate id, no self-loop, no repeated edge.
    ///
    /// # Errors
    ///
    /// [`ArgumentError::TooLarge`] when the parts exceed the `u32` index
    /// space, the one refusal validation at read time cannot rule out.
    pub(crate) fn from_validated(
        name: String,
        nodes: Vec<Node>,
        index: HashMap<NodeId, NodeIdx>,
        edges: Vec<(NodeIdx, NodeIdx, EdgeKind)>,
    ) -> Result<Argument, ArgumentError> {
        if nodes.len() > u32::MAX as usize || edges.len() > u32::MAX as usize {
            return Err(ArgumentError::TooLarge);
        }
        debug_assert_eq!(index.len(), nodes.len(), "one index entry per node");
        let (edges, endpoints) = edges
            .into_iter()
            .map(|(from, to, kind)| {
                let edge = Edge {
                    from: nodes[from.index()].id.clone(),
                    to: nodes[to.index()].id.clone(),
                    kind,
                };
                (edge, (from, to))
            })
            .unzip();
        Ok(Argument::assemble(name, nodes, index, edges, endpoints))
    }

    /// Infallible final assembly once ids and endpoints are validated.
    fn assemble(
        name: String,
        nodes: Vec<Node>,
        index: HashMap<NodeId, NodeIdx>,
        edges: Vec<Edge>,
        endpoints: Vec<(NodeIdx, NodeIdx)>,
    ) -> Argument {
        let mut sorted: Vec<NodeIdx> = (0..nodes.len()).map(NodeIdx::new).collect();
        sorted.sort_by(|a, b| nodes[a.index()].id.cmp(&nodes[b.index()].id));
        let adjacency = |incoming: bool| {
            let pairs = endpoints
                .iter()
                .zip(&edges)
                .map(move |(&(from, to), edge)| {
                    let (row, other) = if incoming { (to, from) } else { (from, to) };
                    let kind = edge.kind;
                    (row.index(), AdjEntry { other, kind })
                });
            Csr::from_pairs(nodes.len(), pairs)
        };
        let out = adjacency(false);
        let inc = adjacency(true);
        Argument {
            name,
            nodes,
            index,
            sorted,
            edges,
            endpoints,
            out,
            inc,
        }
    }

    /// The argument's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the argument has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // -----------------------------------------------------------------
    // NodeIdx plane: index-based fast paths
    // -----------------------------------------------------------------

    /// The arena index of `id`, if present. O(1).
    #[inline]
    pub fn node_idx(&self, id: &NodeId) -> Option<NodeIdx> {
        self.index.get(id).copied()
    }

    /// The node at an arena index. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `idx` did not come from this argument.
    #[inline]
    pub fn node_at(&self, idx: NodeIdx) -> &Node {
        &self.nodes[idx.index()]
    }

    /// The id of the node at an arena index. O(1).
    #[inline]
    pub fn id_at(&self, idx: NodeIdx) -> &NodeId {
        &self.nodes[idx.index()].id
    }

    /// All arena indices, in insertion order.
    pub fn node_indices(&self) -> impl ExactSizeIterator<Item = NodeIdx> + '_ {
        (0..self.nodes.len()).map(NodeIdx::new)
    }

    /// The arena itself: nodes in insertion order. The fastest way to
    /// scan every node when id order does not matter.
    pub fn arena(&self) -> &[Node] {
        &self.nodes
    }

    /// Arena indices in id order (the order [`Argument::nodes`] yields),
    /// for deterministic index-plane sweeps.
    pub fn sorted_indices(&self) -> impl ExactSizeIterator<Item = NodeIdx> + '_ {
        self.sorted.iter().copied()
    }

    /// Children of `idx` along edges of `kind`. O(degree).
    #[inline]
    pub fn children_idx(&self, idx: NodeIdx, kind: EdgeKind) -> impl Iterator<Item = NodeIdx> + '_ {
        self.out
            .row(idx.index())
            .iter()
            .filter(move |entry| entry.kind == kind)
            .map(|entry| entry.other)
    }

    /// All children of `idx` regardless of edge kind. O(degree).
    #[inline]
    pub fn all_children_idx(&self, idx: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.out.row(idx.index()).iter().map(|entry| entry.other)
    }

    /// Parents of `idx` (nodes with an edge into `idx`). O(degree).
    #[inline]
    pub fn parents_idx(&self, idx: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.inc.row(idx.index()).iter().map(|entry| entry.other)
    }

    /// Number of outgoing edges of `idx`. O(1).
    #[inline]
    pub fn out_degree(&self, idx: NodeIdx) -> usize {
        self.out.row(idx.index()).len()
    }

    /// Number of incoming edges of `idx`. O(1).
    #[inline]
    pub fn in_degree(&self, idx: NodeIdx) -> usize {
        self.inc.row(idx.index()).len()
    }

    /// Whether `idx` has an outgoing edge of `kind`. O(degree).
    #[inline]
    pub fn has_children_idx(&self, idx: NodeIdx, kind: EdgeKind) -> bool {
        self.out
            .row(idx.index())
            .iter()
            .any(|entry| entry.kind == kind)
    }

    /// Edges with endpoints resolved to arena indices, in insertion
    /// order: `(from, to, kind)`. O(1) per step, no hashing.
    pub fn edges_idx(&self) -> impl ExactSizeIterator<Item = (NodeIdx, NodeIdx, EdgeKind)> + '_ {
        self.endpoints
            .iter()
            .zip(&self.edges)
            .map(|(&(from, to), edge)| (from, to, edge.kind))
    }

    /// Root indices: nodes with no incoming edges, in insertion order.
    pub fn roots_idx(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.node_indices().filter(|&idx| self.in_degree(idx) == 0)
    }

    /// Root indices in id order (the order [`Argument::roots`] yields) —
    /// what renderers and checkers iterate for deterministic output.
    pub fn sorted_roots_idx(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.sorted_indices()
            .filter(|&idx| self.in_degree(idx) == 0)
    }

    /// All indices reachable from `start` (excluding `start` itself),
    /// breadth-first over all edge kinds. O(V+E).
    pub fn reachable_from(&self, start: NodeIdx) -> Vec<NodeIdx> {
        let mut seen = vec![false; self.nodes.len()];
        seen[start.index()] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        let mut out = Vec::new();
        while let Some(current) = queue.pop_front() {
            for entry in self.out.row(current.index()) {
                if !seen[entry.other.index()] {
                    seen[entry.other.index()] = true;
                    out.push(entry.other);
                    queue.push_back(entry.other);
                }
            }
        }
        out
    }

    // -----------------------------------------------------------------
    // NodeId plane: stable string-keyed API (delegates to the indices)
    // -----------------------------------------------------------------

    /// The node with the given id, if present.
    pub fn node(&self, id: &NodeId) -> Option<&Node> {
        self.node_idx(id).map(|idx| self.node_at(idx))
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &Node> {
        self.sorted.iter().map(|idx| &self.nodes[idx.index()])
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Children of `id` along edges of `kind`.
    pub fn children(&self, id: &NodeId, kind: EdgeKind) -> Vec<&Node> {
        match self.node_idx(id) {
            Some(idx) => self
                .children_idx(idx, kind)
                .map(|c| self.node_at(c))
                .collect(),
            None => Vec::new(),
        }
    }

    /// All children of `id` regardless of edge kind.
    pub fn all_children(&self, id: &NodeId) -> Vec<&Node> {
        match self.node_idx(id) {
            Some(idx) => self
                .all_children_idx(idx)
                .map(|c| self.node_at(c))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Parents of `id` (nodes with an edge into `id`).
    pub fn parents(&self, id: &NodeId) -> Vec<&Node> {
        match self.node_idx(id) {
            Some(idx) => self.parents_idx(idx).map(|p| self.node_at(p)).collect(),
            None => Vec::new(),
        }
    }

    /// Root nodes: nodes with no incoming edges, in id order.
    pub fn roots(&self) -> Vec<&Node> {
        self.sorted
            .iter()
            .filter(|idx| self.in_degree(**idx) == 0)
            .map(|idx| &self.nodes[idx.index()])
            .collect()
    }

    /// All nodes reachable from `id` (excluding `id` itself),
    /// breadth-first.
    pub fn descendants(&self, id: &NodeId) -> Vec<&Node> {
        match self.node_idx(id) {
            Some(idx) => self
                .reachable_from(idx)
                .into_iter()
                .map(|i| self.node_at(i))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Strongly connected components of the `SupportedBy` subgraph: row
    /// `c` lists the arena positions ([`NodeIdx::index`]) of component
    /// `c`. Components are numbered parents-first: every support edge
    /// stays inside a component or goes to a higher-numbered one, so
    /// walking the rows in descending order visits every support child
    /// before its parents. O(V+E), iterative.
    pub fn support_components(&self) -> Csr<usize> {
        graph::scc(&self.out, |entry| {
            (entry.kind == EdgeKind::SupportedBy).then_some(entry.other.index())
        })
    }

    /// Whether the `SupportedBy` subgraph is acyclic: every support
    /// component is a single node (self-loops are rejected at build
    /// time). O(V+E).
    pub fn is_acyclic(&self) -> bool {
        self.support_components().rows() == self.nodes.len()
    }

    /// Depth of the support tree from `id` (a leaf has depth 1).
    ///
    /// Returns `None` when the support graph below `id` has a cycle.
    /// O(V+E) and iterative, so arbitrarily deep chains are safe.
    pub fn support_depth(&self, id: &NodeId) -> Option<usize> {
        let target = self.node_idx(id)?;
        let components = self.support_components();
        // `None` marks a node on or above a support cycle.
        let mut depth: Vec<Option<usize>> = vec![None; self.nodes.len()];
        for c in (0..components.rows()).rev() {
            let &[node] = components.row(c) else {
                continue;
            };
            depth[node] = self
                .children_idx(NodeIdx::new(node), EdgeKind::SupportedBy)
                .try_fold(0, |best, child| Some(best.max(depth[child.index()]?)))
                .map(|best| best + 1);
        }
        depth[target.index()]
    }

    /// Nodes of a given kind, in id order.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<&Node> {
        self.nodes().filter(|n| n.kind == kind).collect()
    }

    /// Number of nodes carrying formal payloads.
    pub fn formalised_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_formalised()).count()
    }

    /// Mutable access to a node (for annotation-style edits). The
    /// node's *payload* may be edited freely; its id must not change
    /// (the interner and adjacency are keyed on it).
    pub fn node_mut(&mut self, id: &NodeId) -> Option<&mut Node> {
        let idx = self.node_idx(id)?;
        Some(&mut self.nodes[idx.index()])
    }
}

/// Equality is structural and insertion-order-independent for nodes
/// (compared in id order) but order-sensitive for edges (which serialize
/// and round-trip in insertion order).
impl PartialEq for Argument {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nodes.len() == other.nodes.len()
            && self.nodes().eq(other.nodes())
            && self.edges == other.edges
    }
}

/// Serializes in the legacy wire shape: `name`, `nodes` as an id-keyed
/// object in id order (the historical `BTreeMap` layout), `edges` as an
/// array in insertion order. The arena, interner, and CSR tables are
/// reconstructed on deserialization.
impl Serialize for Argument {
    fn serialize(&self) -> Value {
        let nodes = self
            .nodes()
            .map(|n| (n.id.as_str().to_string(), n.serialize()))
            .collect();
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("nodes".to_string(), Value::Object(nodes)),
            ("edges".to_string(), self.edges.serialize()),
        ])
    }
}

impl Deserialize for Argument {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for Argument"))?;
        let name: String = serde::__private::field(obj, "name", "Argument")?;
        let node_map = obj
            .iter()
            .find(|(k, _)| k == "nodes")
            .map(|(_, v)| v)
            .ok_or_else(|| serde::Error::custom("missing field `nodes` of Argument"))?;
        let pairs = node_map
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for Argument nodes"))?;
        let nodes: Vec<Node> = pairs
            .iter()
            .map(|(_, v)| Node::deserialize(v))
            .collect::<Result<_, _>>()?;
        let edges: Vec<Edge> = serde::__private::field(obj, "edges", "Argument")?;
        Argument::from_parts(name, nodes, edges).map_err(serde::Error::custom)
    }
}

/// Builder for [`Argument`]; errors are deferred to [`ArgumentBuilder::build`]
/// so construction chains read cleanly. Node and edge validity is checked
/// eagerly (so the *first* offending call wins), while the adjacency
/// structure is assembled once in [`ArgumentBuilder::build`].
#[derive(Debug, Clone)]
pub struct ArgumentBuilder {
    name: String,
    nodes: Vec<Node>,
    index: HashMap<NodeId, NodeIdx>,
    edges: Vec<Edge>,
    endpoints: Vec<(NodeIdx, NodeIdx)>,
    edge_set: HashSet<(NodeIdx, NodeIdx, EdgeKind)>,
    error: Option<ArgumentError>,
}

impl ArgumentBuilder {
    /// Adds a node.
    pub fn node(mut self, node: Node) -> Self {
        if self.error.is_some() {
            return self;
        }
        if node.id.as_str().is_empty() {
            self.error = Some(ArgumentError::InvalidId(String::new()));
            return self;
        }
        if self.nodes.len() >= u32::MAX as usize {
            self.error = Some(ArgumentError::TooLarge);
            return self;
        }
        let idx = NodeIdx::new(self.nodes.len());
        if self.index.insert(node.id.clone(), idx).is_some() {
            self.error = Some(ArgumentError::DuplicateId(node.id));
            return self;
        }
        self.nodes.push(node);
        self
    }

    /// Convenience: adds a node by parts. An empty `id` is rejected by
    /// [`ArgumentBuilder::node`] as [`ArgumentError::InvalidId`].
    pub fn add(self, id: &str, kind: NodeKind, text: &str) -> Self {
        if self.error.is_some() {
            return self;
        }
        self.node(Node::new(id, kind, text))
    }

    /// Adds a `SupportedBy` edge from `parent` to `child`.
    pub fn supported_by(self, parent: &str, child: &str) -> Self {
        self.edge(parent, child, EdgeKind::SupportedBy)
    }

    /// Adds an `InContextOf` edge from `node` to `context`.
    pub fn in_context_of(self, node: &str, context: &str) -> Self {
        self.edge(node, context, EdgeKind::InContextOf)
    }

    /// Adds an edge of the given kind.
    pub fn edge(mut self, from: &str, to: &str, kind: EdgeKind) -> Self {
        if self.error.is_some() {
            return self;
        }
        if from.is_empty() {
            self.error = Some(ArgumentError::InvalidId(from.to_string()));
            return self;
        }
        if to.is_empty() {
            self.error = Some(ArgumentError::InvalidId(to.to_string()));
            return self;
        }
        if self.edges.len() >= u32::MAX as usize {
            self.error = Some(ArgumentError::TooLarge);
            return self;
        }
        let from = NodeId::new(from);
        let to = NodeId::new(to);
        if from == to {
            self.error = Some(ArgumentError::SelfLoop(from));
            return self;
        }
        let from_idx = match self.index.get(&from) {
            Some(idx) => *idx,
            None => {
                self.error = Some(ArgumentError::UnknownNode(from));
                return self;
            }
        };
        let to_idx = match self.index.get(&to) {
            Some(idx) => *idx,
            None => {
                self.error = Some(ArgumentError::UnknownNode(to));
                return self;
            }
        };
        if !self.edge_set.insert((from_idx, to_idx, kind)) {
            self.error = Some(ArgumentError::DuplicateEdge(from, to));
            return self;
        }
        self.edges.push(Edge { from, to, kind });
        self.endpoints.push((from_idx, to_idx));
        self
    }

    /// Finishes construction, assembling the interner-backed arena and
    /// the CSR adjacency tables.
    ///
    /// # Errors
    ///
    /// Returns the first construction error (invalid id, duplicate id,
    /// unknown node, duplicate edge, or self-loop).
    pub fn build(self) -> Result<Argument, ArgumentError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(Argument::assemble(
                self.name,
                self.nodes,
                self.index,
                self.edges,
                self.endpoints,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sample() -> Argument {
        Argument::builder("sample")
            .add("g1", NodeKind::Goal, "System is safe")
            .add("s1", NodeKind::Strategy, "Argue over hazards")
            .add("g2", NodeKind::Goal, "H1 mitigated")
            .add("g3", NodeKind::Goal, "H2 mitigated")
            .add("e1", NodeKind::Solution, "Test report")
            .add("e2", NodeKind::Solution, "Analysis")
            .add("c1", NodeKind::Context, "Operating role")
            .supported_by("g1", "s1")
            .supported_by("s1", "g2")
            .supported_by("s1", "g3")
            .supported_by("g2", "e1")
            .supported_by("g3", "e2")
            .in_context_of("g1", "c1")
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_basic_queries() {
        let a = sample();
        assert_eq!(a.len(), 7);
        assert_eq!(a.name(), "sample");
        assert!(!a.is_empty());
        assert_eq!(a.edges().len(), 6);
        assert!(a.node(&"g1".into()).is_some());
        assert!(a.node(&"zz".into()).is_none());
    }

    #[test]
    fn children_respect_edge_kind() {
        let a = sample();
        let g1 = NodeId::new("g1");
        assert_eq!(a.children(&g1, EdgeKind::SupportedBy).len(), 1);
        assert_eq!(a.children(&g1, EdgeKind::InContextOf).len(), 1);
        assert_eq!(a.all_children(&g1).len(), 2);
    }

    #[test]
    fn roots_and_leaves() {
        let a = sample();
        let roots: Vec<_> = a
            .roots()
            .iter()
            .map(|n| n.id.as_str().to_string())
            .collect();
        assert_eq!(roots, vec!["g1"]);
        // Everything without outgoing SupportedBy: solutions and context.
        for leaf in ["e1", "e2", "c1"] {
            assert!(a.children(&leaf.into(), EdgeKind::SupportedBy).is_empty());
        }
    }

    #[test]
    fn descendants_bfs() {
        let a = sample();
        let d = a.descendants(&"g1".into());
        assert_eq!(d.len(), 6);
        let d = a.descendants(&"g2".into());
        assert_eq!(d.len(), 1);
        assert!(a.descendants(&"e1".into()).is_empty());
    }

    #[test]
    fn parents_inverse_of_children() {
        let a = sample();
        let parents = a.parents(&"g2".into());
        assert_eq!(parents.len(), 1);
        assert_eq!(parents[0].id.as_str(), "s1");
    }

    #[test]
    fn acyclicity_and_depth() {
        let a = sample();
        assert!(a.is_acyclic());
        assert_eq!(a.support_depth(&"g1".into()), Some(4));
        assert_eq!(a.support_depth(&"e1".into()), Some(1));
    }

    #[test]
    fn cycle_detected() {
        let a = Argument::builder("cyclic")
            .add("g1", NodeKind::Goal, "A")
            .add("g2", NodeKind::Goal, "B")
            .supported_by("g1", "g2")
            .supported_by("g2", "g1")
            .build()
            .unwrap();
        assert!(!a.is_acyclic());
        assert_eq!(a.support_depth(&"g1".into()), None);
    }

    #[test]
    fn duplicate_id_rejected() {
        let err = Argument::builder("x")
            .add("g1", NodeKind::Goal, "A")
            .add("g1", NodeKind::Goal, "B")
            .build()
            .unwrap_err();
        assert_eq!(err, ArgumentError::DuplicateId("g1".into()));
    }

    #[test]
    fn unknown_node_rejected() {
        let err = Argument::builder("x")
            .add("g1", NodeKind::Goal, "A")
            .supported_by("g1", "nope")
            .build()
            .unwrap_err();
        assert_eq!(err, ArgumentError::UnknownNode("nope".into()));
        let err = Argument::builder("x")
            .add("g1", NodeKind::Goal, "A")
            .supported_by("nope", "g1")
            .build()
            .unwrap_err();
        assert_eq!(err, ArgumentError::UnknownNode("nope".into()));
    }

    #[test]
    fn duplicate_edge_and_self_loop_rejected() {
        let err = Argument::builder("x")
            .add("g1", NodeKind::Goal, "A")
            .add("g2", NodeKind::Goal, "B")
            .supported_by("g1", "g2")
            .supported_by("g1", "g2")
            .build()
            .unwrap_err();
        assert_eq!(err, ArgumentError::DuplicateEdge("g1".into(), "g2".into()));
        let err = Argument::builder("x")
            .add("g1", NodeKind::Goal, "A")
            .supported_by("g1", "g1")
            .build()
            .unwrap_err();
        assert_eq!(err, ArgumentError::SelfLoop("g1".into()));
    }

    #[test]
    fn empty_id_rejected_not_panicking() {
        let err = Argument::builder("x")
            .add("", NodeKind::Goal, "A")
            .build()
            .unwrap_err();
        assert_eq!(err, ArgumentError::InvalidId(String::new()));
        let err = Argument::builder("x")
            .add("g1", NodeKind::Goal, "A")
            .edge("g1", "", EdgeKind::SupportedBy)
            .build()
            .unwrap_err();
        assert_eq!(err, ArgumentError::InvalidId(String::new()));
        let err = Argument::builder("x")
            .node(Node::new(NodeId::new(""), NodeKind::Goal, "A"))
            .build()
            .unwrap_err();
        assert_eq!(err, ArgumentError::InvalidId(String::new()));
    }

    #[test]
    fn error_display() {
        assert!(ArgumentError::DuplicateId("a".into())
            .to_string()
            .contains("duplicate"));
        assert!(ArgumentError::SelfLoop("a".into())
            .to_string()
            .contains("self-loop"));
        assert!(ArgumentError::InvalidId(String::new())
            .to_string()
            .contains("invalid"));
    }

    #[test]
    fn builder_keeps_first_error() {
        let err = Argument::builder("x")
            .add("g1", NodeKind::Goal, "A")
            .add("g1", NodeKind::Goal, "B") // first error
            .supported_by("g1", "missing") // would be second
            .build()
            .unwrap_err();
        assert_eq!(err, ArgumentError::DuplicateId("g1".into()));
    }

    #[test]
    fn nodes_of_kind_and_formalised_count() {
        let a = sample();
        assert_eq!(a.nodes_of_kind(NodeKind::Goal).len(), 3);
        assert_eq!(a.nodes_of_kind(NodeKind::Solution).len(), 2);
        assert_eq!(a.formalised_count(), 0);
    }

    #[test]
    fn node_mut_allows_enrichment() {
        use casekit_logic::prop::parse;
        let mut a = sample();
        a.node_mut(&"g2".into()).unwrap().formal = Some(crate::node::FormalPayload::Prop(
            parse("h1_mitigated").unwrap(),
        ));
        assert_eq!(a.formalised_count(), 1);
    }

    // -- arena / index plane ------------------------------------------

    #[test]
    fn interner_is_a_bijection() {
        let a = sample();
        for idx in a.node_indices() {
            assert_eq!(a.node_idx(a.id_at(idx)), Some(idx));
        }
        assert_eq!(a.node_indices().len(), a.len());
    }

    #[test]
    fn csr_matches_edge_list() {
        let a = sample();
        for (from, to, kind) in a.edges_idx() {
            assert!(a.children_idx(from, kind).any(|c| c == to));
            assert!(a.parents_idx(to).any(|p| p == from));
        }
        let total_out: usize = a.node_indices().map(|i| a.out_degree(i)).sum();
        let total_in: usize = a.node_indices().map(|i| a.in_degree(i)).sum();
        assert_eq!(total_out, a.edges().len());
        assert_eq!(total_in, a.edges().len());
    }

    #[test]
    fn idx_and_id_planes_agree() {
        let a = sample();
        for node in a.nodes() {
            let idx = a.node_idx(&node.id).unwrap();
            let by_id: BTreeSet<_> = a
                .all_children(&node.id)
                .iter()
                .map(|n| n.id.clone())
                .collect();
            let by_idx: BTreeSet<_> = a
                .all_children_idx(idx)
                .map(|i| a.id_at(i).clone())
                .collect();
            assert_eq!(by_id, by_idx);
            let parents_by_id: BTreeSet<_> =
                a.parents(&node.id).iter().map(|n| n.id.clone()).collect();
            let parents_by_idx: BTreeSet<_> =
                a.parents_idx(idx).map(|i| a.id_at(i).clone()).collect();
            assert_eq!(parents_by_id, parents_by_idx);
        }
    }

    #[test]
    fn reachable_from_matches_descendants() {
        let a = sample();
        let idx = a.node_idx(&"g1".into()).unwrap();
        let via_idx: BTreeSet<_> = a
            .reachable_from(idx)
            .into_iter()
            .map(|i| a.id_at(i).clone())
            .collect();
        let via_id: BTreeSet<_> = a
            .descendants(&"g1".into())
            .iter()
            .map(|n| n.id.clone())
            .collect();
        assert_eq!(via_idx, via_id);
    }

    #[test]
    fn from_parts_validates_like_builder() {
        let nodes = vec![
            Node::new("a", NodeKind::Goal, "A"),
            Node::new("b", NodeKind::Goal, "B"),
        ];
        let ok = Argument::from_parts(
            "p",
            nodes.clone(),
            vec![Edge {
                from: "a".into(),
                to: "b".into(),
                kind: EdgeKind::SupportedBy,
            }],
        )
        .unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.children(&"a".into(), EdgeKind::SupportedBy).len(), 1);

        let dup = Argument::from_parts("p", vec![nodes[0].clone(), nodes[0].clone()], vec![]);
        assert_eq!(dup.unwrap_err(), ArgumentError::DuplicateId("a".into()));

        let unknown = Argument::from_parts(
            "p",
            nodes.clone(),
            vec![Edge {
                from: "a".into(),
                to: "zz".into(),
                kind: EdgeKind::SupportedBy,
            }],
        );
        assert_eq!(
            unknown.unwrap_err(),
            ArgumentError::UnknownNode("zz".into())
        );

        let self_loop = Argument::from_parts(
            "p",
            nodes,
            vec![Edge {
                from: "a".into(),
                to: "a".into(),
                kind: EdgeKind::SupportedBy,
            }],
        );
        assert_eq!(self_loop.unwrap_err(), ArgumentError::SelfLoop("a".into()));
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = Argument::builder("x")
            .add("g1", NodeKind::Goal, "A")
            .add("g2", NodeKind::Goal, "B")
            .supported_by("g1", "g2")
            .build()
            .unwrap();
        let b = Argument::builder("x")
            .add("g2", NodeKind::Goal, "B")
            .add("g1", NodeKind::Goal, "A")
            .supported_by("g1", "g2")
            .build()
            .unwrap();
        assert_eq!(a, b);
    }
}
