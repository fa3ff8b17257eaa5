//! Structural lint passes: pure graph-shape checks on the arena/CSR
//! index plane. Every pass is O(V+E) over the argument (context
//! shadowing is O(V+E) per *duplicated* context text, of which a
//! well-formed case has none), allocates no per-node strings except in
//! emitted diagnostics, and never touches the solver.

use crate::diagnostic::{LintCode, Sink};
use casekit_core::{Argument, EdgeKind, NodeId, NodeIdx, NodeKind};
use std::collections::{BTreeMap, BTreeSet};

/// Runs every structural pass.
pub(crate) fn run(argument: &Argument, sink: &mut Sink<'_>) {
    unreachable_nodes(argument, sink);
    support_cycles(argument, sink);
    undeveloped(argument, sink);
    duplicate_evidence(argument, sink);
    context_shadowing(argument, sink);
}

/// Whitespace-collapsed, lowercased text for duplicate detection.
fn normalized(text: &str) -> String {
    text.split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .to_lowercase()
}

/// First ~40 characters of `text`, for diagnostic messages.
fn snippet(text: &str) -> String {
    const LIMIT: usize = 40;
    if text.chars().count() <= LIMIT {
        return text.to_string();
    }
    let cut: String = text.chars().take(LIMIT).collect();
    format!("{cut}…")
}

/// CK001: nodes not reachable from any root (in-degree-0 node). A node
/// only ever unreachable through a cycle detached from every root.
fn unreachable_nodes(argument: &Argument, sink: &mut Sink<'_>) {
    let mut seen = vec![false; argument.len()];
    for root in argument.roots_idx() {
        if !seen[root.index()] {
            seen[root.index()] = true;
            for idx in argument.reachable_from(root) {
                seen[idx.index()] = true;
            }
        }
    }
    for idx in argument.sorted_indices() {
        if !seen[idx.index()] {
            sink.emit(
                LintCode::UnreachableNode,
                Some(argument.id_at(idx).clone()),
                Vec::new(),
                format!(
                    "`{}` is not reachable from any root of the argument",
                    argument.id_at(idx)
                ),
                Some("connect it into the argument or remove it".into()),
            );
        }
    }
}

/// CK002: strongly connected components of size ≥ 2 in the SupportedBy
/// subgraph (self-loops are rejected at build time). One diagnostic per
/// component, anchored at its smallest node id. O(V+E), no recursion.
fn support_cycles(argument: &Argument, sink: &mut Sink<'_>) {
    let components = argument.support_components();
    let nodes = argument.arena();
    let mut cycles: Vec<Vec<NodeId>> = (0..components.rows())
        .map(|c| components.row(c))
        .filter(|members| members.len() > 1)
        .map(|members| {
            let mut ids: Vec<NodeId> = members.iter().map(|&v| nodes[v].id.clone()).collect();
            ids.sort();
            ids
        })
        .collect();
    cycles.sort();
    for ids in cycles {
        sink.emit(
            LintCode::SupportCycle,
            Some(ids[0].clone()),
            ids[1..].to_vec(),
            format!(
                "support cycle through {} nodes starting at `{}`",
                ids.len(),
                ids[0]
            ),
            Some("break the cycle: support relations must be acyclic".into()),
        );
    }
}

/// CK003/CK004: claims that should carry support. A goal, strategy,
/// claim, or argument node with neither support nor an `undeveloped`
/// mark is an implicit gap (CK003); one marked undeveloped *and*
/// supported contradicts its own mark (CK004).
fn undeveloped(argument: &Argument, sink: &mut Sink<'_>) {
    for idx in argument.sorted_indices() {
        let node = argument.node_at(idx);
        if !matches!(
            node.kind,
            NodeKind::Goal | NodeKind::Strategy | NodeKind::Claim | NodeKind::ArgumentNode
        ) {
            continue;
        }
        let has_support = argument
            .children_idx(idx, EdgeKind::SupportedBy)
            .next()
            .is_some();
        if node.undeveloped && has_support {
            sink.emit(
                LintCode::UndevelopedWithSupport,
                Some(node.id.clone()),
                Vec::new(),
                format!("`{}` is marked undeveloped but has support", node.id),
                Some("remove the undeveloped mark or detach the support".into()),
            );
        } else if !node.undeveloped && !has_support {
            sink.emit(
                LintCode::UndevelopedGoal,
                Some(node.id.clone()),
                Vec::new(),
                format!(
                    "`{}` has no supporting evidence and is not marked undeveloped",
                    node.id
                ),
                Some("add supporting evidence or mark it undeveloped".into()),
            );
        }
    }
}

/// CK005: solution/evidence nodes with identical normalized text. One
/// diagnostic per duplicate group, anchored at the smallest node id.
fn duplicate_evidence(argument: &Argument, sink: &mut Sink<'_>) {
    let mut groups: BTreeMap<String, Vec<NodeIdx>> = BTreeMap::new();
    for idx in argument.sorted_indices() {
        let node = argument.node_at(idx);
        if matches!(node.kind, NodeKind::Solution | NodeKind::Evidence) {
            groups.entry(normalized(&node.text)).or_default().push(idx);
        }
    }
    for (_, members) in groups {
        if members.len() < 2 {
            continue;
        }
        let ids: Vec<_> = members
            .iter()
            .map(|idx| argument.id_at(*idx).clone())
            .collect();
        sink.emit(
            LintCode::DuplicateEvidence,
            Some(ids[0].clone()),
            ids[1..].to_vec(),
            format!(
                "{} evidence nodes carry the same text: \"{}\"",
                ids.len(),
                snippet(&argument.node_at(members[0]).text)
            ),
            Some("cite one evidence node from both places instead of duplicating it".into()),
        );
    }
}

/// CK006: a context whose text is already in force at a support
/// ancestor (including a second same-text context on the very same
/// node). Detected per duplicated-text group: for each pair of
/// attachment points, the lower one shadows when it is a strict support
/// descendant of (or equal to) the upper one.
fn context_shadowing(argument: &Argument, sink: &mut Sink<'_>) {
    // text -> (attachment node, context node), one entry per InContextOf edge.
    let mut groups: BTreeMap<String, Vec<(NodeIdx, NodeIdx)>> = BTreeMap::new();
    for (from, to, kind) in argument.edges_idx() {
        if kind == EdgeKind::InContextOf {
            groups
                .entry(normalized(&argument.node_at(to).text))
                .or_default()
                .push((from, to));
        }
    }
    let mut emitted: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (_, mut attachments) in groups {
        if attachments.len() < 2 {
            continue;
        }
        attachments.sort_by(|a, b| {
            (argument.id_at(a.0), argument.id_at(a.1))
                .cmp(&(argument.id_at(b.0), argument.id_at(b.1)))
        });
        // Support-descendant sets, computed once per distinct attachment.
        let mut descendants: BTreeMap<usize, Vec<bool>> = BTreeMap::new();
        for &(attach, _) in &attachments {
            descendants
                .entry(attach.index())
                .or_insert_with(|| support_descendants(argument, attach));
        }
        for (i, &(upper, upper_ctx)) in attachments.iter().enumerate() {
            for (j, &(lower, lower_ctx)) in attachments.iter().enumerate() {
                if i == j {
                    continue;
                }
                let same_node = upper == lower && upper_ctx != lower_ctx && i < j;
                let below = descendants[&upper.index()][lower.index()];
                if !(same_node || below) {
                    continue;
                }
                if !emitted.insert((lower_ctx.index(), lower.index())) {
                    continue;
                }
                sink.emit(
                    LintCode::ContextShadowing,
                    Some(argument.id_at(lower_ctx).clone()),
                    vec![
                        argument.id_at(upper_ctx).clone(),
                        argument.id_at(lower).clone(),
                    ],
                    format!(
                        "context \"{}\" at `{}` is already in force from `{}`",
                        snippet(&argument.node_at(lower_ctx).text),
                        argument.id_at(lower),
                        argument.id_at(upper),
                    ),
                    Some("remove the repeated context; it is inherited from the ancestor".into()),
                );
            }
        }
    }
}

/// Membership vector of the strict support descendants of `start`.
fn support_descendants(argument: &Argument, start: NodeIdx) -> Vec<bool> {
    let mut seen = vec![false; argument.len()];
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(current) = queue.pop_front() {
        for child in argument.children_idx(current, EdgeKind::SupportedBy) {
            if !seen[child.index()] {
                seen[child.index()] = true;
                queue.push_back(child);
            }
        }
    }
    seen[start.index()] = false;
    seen
}
