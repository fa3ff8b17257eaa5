//! Graph-core benchmark harness: synthetic arguments at scale, the
//! pre-arena "flat scan" baseline, and the indexed sweep that replaced
//! it.
//!
//! The seed implementation stored nodes in a `BTreeMap` and edges in a
//! flat `Vec`, so every `children`/`parents` call scanned the whole edge
//! list — O(V·E) for any whole-graph check. The arena/CSR core makes the
//! same sweep O(V+E). [`FlatBaseline`] reproduces the old access pattern
//! faithfully so the speedup stays measurable after the old code is
//! gone, and [`bench_graph_json`] emits the comparison as a JSON artifact
//! (`BENCH_graph.json` via `repro graph`).

use casekit_core::{Argument, EdgeKind, NodeId, NodeKind};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Builds a deterministic, roughly balanced synthetic assurance argument
/// with at least `target_nodes` nodes: a goal tree with strategies
/// interposed, solutions at the leaves, and contexts sprinkled in —
/// the population shape the experiment generator produces, at scale.
pub fn synthetic_argument(target_nodes: usize) -> Argument {
    let mut builder = Argument::builder(format!("synthetic-{target_nodes}"));
    let mut count = 0usize;
    builder = builder.add("g0", NodeKind::Goal, "Top-level claim");
    count += 1;
    let mut frontier: VecDeque<String> = VecDeque::from(["g0".to_string()]);
    let mut serial = 0usize;
    while count < target_nodes {
        let goal = frontier.pop_front().expect("frontier never empties early");
        serial += 1;
        let strategy = format!("s{serial}");
        builder = builder
            .add(&strategy, NodeKind::Strategy, "Argue over sub-claims")
            .supported_by(&goal, &strategy);
        count += 1;
        if serial.is_multiple_of(7) && count < target_nodes {
            let context = format!("c{serial}");
            builder = builder
                .add(&context, NodeKind::Context, "Operating context")
                .in_context_of(&goal, &context);
            count += 1;
        }
        // Fan out 2–4 sub-goals per strategy, varying deterministically.
        let fanout = 2 + (serial % 3);
        let mut added = 0usize;
        for child in 0..fanout {
            if count >= target_nodes {
                break;
            }
            let sub = format!("g{serial}_{child}");
            builder = builder
                .add(&sub, NodeKind::Goal, "Sub-claim")
                .supported_by(&strategy, &sub);
            count += 1;
            added += 1;
            frontier.push_back(sub);
        }
        if added == 0 {
            // The node budget ran out right after this strategy was
            // added; close it with a solution so the argument stays
            // GSN-developed at every target size.
            let sol = format!("es{serial}");
            builder = builder
                .add(&sol, NodeKind::Solution, "Evidence item")
                .supported_by(&strategy, &sol);
            count += 1;
        }
    }
    // Close every open goal with a solution so the argument is
    // GSN-developed.
    for (i, goal) in frontier.iter().enumerate() {
        let sol = format!("e{i}");
        builder = builder
            .add(&sol, NodeKind::Solution, "Evidence item")
            .supported_by(goal, &sol);
    }
    builder.build().expect("synthetic construction is valid")
}

/// Aggregate produced by a structural sweep; identical between the
/// baseline and the indexed implementation by construction (asserted in
/// tests), so the benchmark compares equal work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSummary {
    /// Sum over nodes of `SupportedBy` children counts.
    pub support_children: usize,
    /// Sum over nodes of parent counts.
    pub parent_links: usize,
    /// Number of support leaves.
    pub leaves: usize,
    /// Whether the support graph is acyclic.
    pub acyclic: bool,
}

/// The seed's data layout: `BTreeMap` of nodes plus a flat edge list,
/// with every traversal a full edge scan. Kept as a measurable baseline.
pub struct FlatBaseline {
    ids: BTreeMap<NodeId, ()>,
    edges: Vec<(NodeId, NodeId, EdgeKind)>,
}

impl FlatBaseline {
    /// Snapshots an argument into the legacy layout.
    pub fn from_argument(argument: &Argument) -> Self {
        FlatBaseline {
            ids: argument.nodes().map(|n| (n.id.clone(), ())).collect(),
            edges: argument
                .edges()
                .iter()
                .map(|e| (e.from.clone(), e.to.clone(), e.kind))
                .collect(),
        }
    }

    /// O(E) per call — the pre-refactor `children` cost.
    pub fn children_count(&self, id: &NodeId, kind: EdgeKind) -> usize {
        self.edges
            .iter()
            .filter(|(from, _, k)| from == id && *k == kind)
            .count()
    }

    /// O(E) per call — the pre-refactor `parents` cost.
    pub fn parents_count(&self, id: &NodeId) -> usize {
        self.edges.iter().filter(|(_, to, _)| to == id).count()
    }

    /// Whole-graph structural sweep at the pre-refactor cost: O(V·E).
    pub fn structural_sweep(&self) -> SweepSummary {
        let mut support_children = 0usize;
        let mut parent_links = 0usize;
        let mut leaves = 0usize;
        for id in self.ids.keys() {
            let support = self.children_count(id, EdgeKind::SupportedBy);
            support_children += support;
            parent_links += self.parents_count(id);
            if support == 0 {
                leaves += 1;
            }
        }
        SweepSummary {
            support_children,
            parent_links,
            leaves,
            acyclic: self.is_acyclic(),
        }
    }

    /// Kahn's algorithm with per-pop edge scans — the seed's shape.
    fn is_acyclic(&self) -> bool {
        let mut indegree: BTreeMap<&NodeId, usize> = self.ids.keys().map(|id| (id, 0)).collect();
        for (_, to, kind) in &self.edges {
            if *kind == EdgeKind::SupportedBy {
                *indegree.get_mut(to).expect("edge target exists") += 1;
            }
        }
        let mut queue: VecDeque<&NodeId> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(id, _)| *id)
            .collect();
        let mut visited = 0usize;
        let mut seen: BTreeSet<&NodeId> = queue.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            visited += 1;
            for (from, to, kind) in &self.edges {
                if *kind != EdgeKind::SupportedBy || from != id {
                    continue;
                }
                let d = indegree.get_mut(to).expect("edge target exists");
                *d -= 1;
                if *d == 0 && seen.insert(to) {
                    queue.push_back(to);
                }
            }
        }
        visited == self.ids.len()
    }
}

/// The same whole-graph sweep through the arena/CSR fast paths: O(V+E).
pub fn indexed_structural_sweep(argument: &Argument) -> SweepSummary {
    let mut support_children = 0usize;
    let mut parent_links = 0usize;
    let mut leaves = 0usize;
    for idx in argument.node_indices() {
        let support = argument.children_idx(idx, EdgeKind::SupportedBy).count();
        support_children += support;
        parent_links += argument.in_degree(idx);
        if support == 0 {
            leaves += 1;
        }
    }
    SweepSummary {
        support_children,
        parent_links,
        leaves,
        acyclic: argument.is_acyclic(),
    }
}

/// The measured comparison, serialized into `BENCH_graph.json`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct GraphBenchReport {
    /// Node count of the synthetic argument.
    pub nodes: usize,
    /// Edge count of the synthetic argument.
    pub edges: usize,
    /// Full legacy O(V·E) sweep, milliseconds (best of 3 runs).
    pub legacy_sweep_ms: f64,
    /// Full indexed O(V+E) sweep, milliseconds (best of 3 runs).
    pub indexed_sweep_ms: f64,
    /// legacy / indexed.
    pub speedup: f64,
    /// Sanity: both sweeps agreed on every aggregate.
    pub sweeps_agree: bool,
}

/// Runs the comparison on a synthetic argument of `target_nodes` nodes.
pub fn run_graph_bench(target_nodes: usize) -> GraphBenchReport {
    let argument = synthetic_argument(target_nodes);
    let baseline = FlatBaseline::from_argument(&argument);

    let (legacy_sweep_ms, legacy) = crate::best_of_ms(3, || baseline.structural_sweep());
    let (indexed_sweep_ms, indexed) = crate::best_of_ms(3, || indexed_structural_sweep(&argument));

    GraphBenchReport {
        nodes: argument.len(),
        edges: argument.edges().len(),
        legacy_sweep_ms,
        indexed_sweep_ms,
        speedup: legacy_sweep_ms / indexed_sweep_ms.max(1e-9),
        sweeps_agree: legacy == indexed,
    }
}

/// Renders the report as JSON (the `BENCH_graph.json` artifact).
pub fn bench_graph_json(report: &GraphBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Human-readable summary for the repro binary.
pub fn render_report(report: &GraphBenchReport) -> String {
    format!(
        "graph core sweep over {} nodes / {} edges\n\
           legacy flat-scan (O(V*E)):  {:>10.3} ms\n\
           indexed arena/CSR (O(V+E)): {:>10.3} ms\n\
           speedup: {:.1}x   sweeps agree: {}\n",
        report.nodes,
        report.edges,
        report.legacy_sweep_ms,
        report.indexed_sweep_ms,
        report.speedup,
        report.sweeps_agree
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_argument_is_well_formed() {
        let a = synthetic_argument(500);
        assert!(a.len() >= 500);
        assert!(a.is_acyclic());
        assert!(
            casekit_core::gsn::check(&a).is_empty(),
            "GSN-clean synthetic case"
        );
    }

    #[test]
    fn baseline_and_indexed_sweeps_agree() {
        let a = synthetic_argument(300);
        let baseline = FlatBaseline::from_argument(&a).structural_sweep();
        let indexed = indexed_structural_sweep(&a);
        assert_eq!(baseline, indexed);
        assert!(baseline.acyclic);
        // Support children summed over nodes = number of SupportedBy edges.
        assert_eq!(
            baseline.support_children,
            a.edges()
                .iter()
                .filter(|e| e.kind == EdgeKind::SupportedBy)
                .count()
        );
        assert_eq!(baseline.parent_links, a.edges().len());
    }

    #[test]
    fn report_speedup_is_material_even_at_small_scale() {
        // At 2k nodes the asymptotic gap is already unmistakable; the
        // acceptance-criteria 10k run lives in the repro binary.
        let report = run_graph_bench(2_000);
        assert!(report.sweeps_agree);
        assert!(
            report.speedup >= 10.0,
            "expected >=10x even at 2k nodes, measured {:.1}x",
            report.speedup
        );
        let json = bench_graph_json(&report);
        assert!(json.contains("\"speedup\""));
        assert!(render_report(&report).contains("speedup"));
    }
}
