//! Hierarchical cases ("hicases"): collapsible views of arguments, after
//! Denney, Pai & Whiteside (Graydon §III-I).
//!
//! A [`View`] tracks which nodes are collapsed; rendering shows a collapsed
//! node as a summary line with the count of hidden descendants, letting a
//! reader "evaluat\[e\] a smaller, abstract argument structure … instead of
//! its larger concrete instantiation".

use crate::argument::{Argument, NodeIdx};
use crate::node::NodeId;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A collapsible view over an argument.
///
/// Collapse state is tracked per [`NodeIdx`], so visibility sweeps and
/// rendering never hash or compare id strings.
#[derive(Debug, Clone)]
pub struct View<'a> {
    argument: &'a Argument,
    collapsed: BTreeSet<NodeIdx>,
}

impl<'a> View<'a> {
    /// A fully expanded view.
    pub fn new(argument: &'a Argument) -> Self {
        View {
            argument,
            collapsed: BTreeSet::new(),
        }
    }

    /// The underlying argument.
    pub fn argument(&self) -> &Argument {
        self.argument
    }

    /// Collapses `id` (its descendants become hidden).
    ///
    /// Collapsing an unknown id is a no-op: views are UI state, not
    /// validators.
    pub fn collapse(&mut self, id: &NodeId) {
        if let Some(idx) = self.argument.node_idx(id) {
            self.collapsed.insert(idx);
        }
    }

    /// Expands every node.
    pub fn expand_all(&mut self) {
        self.collapsed.clear();
    }

    /// Ids of nodes currently visible (roots, plus children of expanded
    /// visible nodes).
    pub fn visible(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.argument.len()];
        let roots: Vec<NodeIdx> = self.argument.sorted_roots_idx().collect();
        for root in roots {
            self.visit(root, &mut out, &mut seen);
        }
        out
    }

    fn visit(&self, idx: NodeIdx, out: &mut Vec<NodeId>, seen: &mut [bool]) {
        if seen[idx.index()] {
            return;
        }
        seen[idx.index()] = true;
        out.push(self.argument.id_at(idx).clone());
        if self.collapsed.contains(&idx) {
            return;
        }
        let children: Vec<NodeIdx> = self.argument.all_children_idx(idx).collect();
        for child in children {
            self.visit(child, out, seen);
        }
    }

    /// Renders the view as an ASCII tree; collapsed nodes show a
    /// `[+N hidden]` marker.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.argument.name());
        let mut seen = vec![false; self.argument.len()];
        let roots: Vec<NodeIdx> = self.argument.sorted_roots_idx().collect();
        for (i, &root) in roots.iter().enumerate() {
            self.render_node(root, "", i + 1 == roots.len(), &mut out, &mut seen);
        }
        out
    }

    fn render_node(
        &self,
        idx: NodeIdx,
        prefix: &str,
        last: bool,
        out: &mut String,
        seen: &mut [bool],
    ) {
        let node = self.argument.node_at(idx);
        let connector = if last { "`-- " } else { "|-- " };
        if seen[idx.index()] {
            let _ = writeln!(out, "{prefix}{connector}(see {})", node.id);
            return;
        }
        seen[idx.index()] = true;
        let mut label = format!("[{}] {}: {}", node.id, node.kind, node.text);
        if self.collapsed.contains(&idx) {
            let hidden = self.argument.reachable_from(idx).len();
            if hidden > 0 {
                let _ = write!(label, " [+{hidden} hidden]");
            }
            let _ = writeln!(out, "{prefix}{connector}{label}");
            return;
        }
        let _ = writeln!(out, "{prefix}{connector}{label}");
        let child_prefix = format!("{prefix}{}", if last { "    " } else { "|   " });
        let children: Vec<NodeIdx> = self.argument.all_children_idx(idx).collect();
        for (i, &child) in children.iter().enumerate() {
            self.render_node(child, &child_prefix, i + 1 == children.len(), out, seen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_argument;

    fn sample() -> Argument {
        parse_argument(
            r#"argument "hi" {
                goal g1 "Top" {
                  strategy s1 "Over hazards" {
                    goal g2 "H1" { solution e1 "ev1" }
                    goal g3 "H2" { solution e2 "ev2" }
                  }
                }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn fully_expanded_shows_everything() {
        let a = sample();
        let v = View::new(&a);
        assert_eq!(v.visible().len(), a.len());
        assert_eq!(v.argument().name(), "hi");
    }

    #[test]
    fn collapsing_hides_descendants() {
        let a = sample();
        let mut v = View::new(&a);
        v.collapse(&"s1".into());
        let visible = v.visible();
        assert_eq!(visible.len(), 2); // g1, s1
        let r = v.render();
        assert!(r.contains("[+4 hidden]"));
        assert!(!r.contains("ev1"));
    }

    #[test]
    fn expand_restores() {
        let a = sample();
        let mut v = View::new(&a);
        v.collapse(&"g2".into());
        v.collapse(&"g3".into());
        assert_eq!(v.visible().len(), a.len() - 2);
        v.expand_all();
        assert_eq!(v.visible().len(), a.len());
    }

    #[test]
    fn collapsing_unknown_id_is_noop() {
        let a = sample();
        let mut v = View::new(&a);
        v.collapse(&"zz".into());
        assert_eq!(v.visible().len(), a.len());
    }

    #[test]
    fn collapsed_leaf_shows_no_marker() {
        let a = sample();
        let mut v = View::new(&a);
        v.collapse(&"e1".into());
        let r = v.render();
        assert!(r.contains("[e1]"));
        assert!(!r.contains("+0 hidden"));
    }

    #[test]
    fn nested_collapse_inside_collapsed_region_is_moot() {
        let a = sample();
        let mut v = View::new(&a);
        v.collapse(&"g2".into());
        v.collapse(&"s1".into());
        // g2's collapse state is irrelevant while s1 is collapsed.
        assert_eq!(v.visible().len(), 2);
    }
}
