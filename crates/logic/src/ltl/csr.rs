//! The interned LTL core: CSR Kripke graphs, hash-consed compiled
//! formulas, and closure-table lasso evaluation.
//!
//! The seed checker in [`super::kripke`] enumerates lassos and evaluates
//! the formula recursively on a [`super::Trace`] — every candidate lasso
//! re-clones each state's `BTreeSet<Arc<str>>` labels and re-hashes
//! proposition strings at every step of every subformula. This module is
//! the index-plane replacement:
//!
//! * **Graph** — [`CsrKripke`] stores the transition relation as one
//!   [`crate::graph::Csr`] table (the kernel behind `af::Adjacency` and
//!   the argument graph) and each state's labels as a bitset over an
//!   interned `PropId` universe, so "does prop p hold in state s" is one
//!   shift-and-mask.
//! * **Formula** — [`CompiledLtl`] hash-conses the syntax tree into a
//!   flat node arena with children stored before parents; propositions
//!   become `PropId`s at compile time (a prop absent from the model
//!   compiles to `False`, matching the trace evaluator's treatment of
//!   unknown names), and shared subformulas share one node.
//! * **Evaluation** — a closure table: one `bool` row per node over the
//!   lasso's positions, filled children-first. Temporal rows are
//!   backward fixpoint passes — two sweeps over the loop region (the
//!   value at the loop head is exact after the first sweep, the second
//!   propagates the corrected wrap-around), then one sweep over the
//!   stem. Evaluating a lasso costs O(nodes × positions) with no
//!   allocation beyond a reused scratch table.
//!
//! The DFS in [`CsrKripke::check_bounded`] visits lassos in exactly the
//! seed checker's order (deadlocks stutter on their last state; a loop
//! closes at the first on-path revisit), so counterexamples compare
//! equal to the seed checker's (`casekit_oracle::ltl::check_bounded`).

use super::ast::Ltl;
use super::kripke::{CheckResult, Kripke, StateId};
use crate::error::LogicError;
use crate::graph::Csr;
use std::collections::HashMap;
use std::sync::Arc;

/// A Kripke structure on the index plane: CSR out-edges and bitset
/// labels over interned proposition ids.
#[derive(Debug, Clone)]
pub struct CsrKripke {
    /// Bitset words per state.
    words: usize,
    /// `words` label words per state, concatenated.
    labels: Vec<u64>,
    /// Successor lists, one row per state.
    successors: Csr<u32>,
    /// Initial states, in insertion order.
    initial: Vec<u32>,
    /// Interned proposition universe.
    prop_index: HashMap<Arc<str>, u32>,
}

impl CsrKripke {
    /// Compiles a name-plane [`Kripke`] structure onto the CSR plane.
    pub fn compile(k: &Kripke) -> CsrKripke {
        let n = k.len();
        let mut prop_index: HashMap<Arc<str>, u32> = HashMap::new();
        for s in 0..n {
            for p in k.labels_of(s) {
                let next = prop_index.len() as u32;
                prop_index.entry(Arc::from(p)).or_insert(next);
            }
        }
        let words = prop_index.len().div_ceil(64);
        let mut labels = vec![0u64; n * words];
        for s in 0..n {
            for p in k.labels_of(s) {
                let idx = prop_index[p];
                labels[s * words + (idx / 64) as usize] |= 1u64 << (idx % 64);
            }
        }
        let successors = Csr::from_pairs(
            n,
            (0..n).flat_map(|s| k.successors_of(s).iter().map(move |&t| (s, t as u32))),
        );
        let initial = k.initial_states().iter().map(|&s| s as u32).collect();
        CsrKripke {
            words,
            labels,
            successors,
            initial,
            prop_index,
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.successors.rows()
    }

    /// Whether the structure has no states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The successors of a state, in insertion order.
    pub fn successors_of(&self, state: u32) -> &[u32] {
        self.successors.row(state as usize)
    }

    fn has_prop(&self, state: u32, prop: u32) -> bool {
        let word = self.labels[state as usize * self.words + (prop / 64) as usize];
        word >> (prop % 64) & 1 == 1
    }

    /// Checks a compiled formula on every lasso of total length ≤
    /// `bound` from each initial state, in the seed checker's visiting
    /// order. Errors when the structure has no initial states.
    pub fn check_bounded(
        &self,
        formula: &CompiledLtl,
        bound: usize,
    ) -> Result<CheckResult, LogicError> {
        if self.initial.is_empty() {
            return Err(LogicError::NoInitialState);
        }
        let mut eval = LassoEval::default();
        // Position-on-path index: `pos + 1` when the state is on the
        // current DFS path, 0 when not — O(1) loop-closure detection.
        let mut pos_of = vec![0u32; self.len()];
        for &init in &self.initial {
            let mut path = vec![init];
            pos_of[init as usize] = 1;
            let found = self.dfs(formula, &mut eval, &mut path, &mut pos_of, bound);
            pos_of[init as usize] = 0;
            if let Some(cex) = found {
                return Ok(cex);
            }
        }
        Ok(CheckResult::HoldsWithinBound)
    }

    fn dfs(
        &self,
        formula: &CompiledLtl,
        eval: &mut LassoEval,
        path: &mut Vec<u32>,
        pos_of: &mut [u32],
        bound: usize,
    ) -> Option<CheckResult> {
        let current = *path.last().expect("path non-empty");
        let succs = self.successors_of(current);

        // Deadlock: treat as stuttering lasso on the last state.
        if succs.is_empty() {
            let ls = path.len() - 1;
            if !eval.eval(formula, self, path, ls) {
                return Some(counterexample(path, ls));
            }
            return None;
        }

        for &next in succs {
            let on_path = pos_of[next as usize];
            if on_path != 0 {
                let ls = (on_path - 1) as usize;
                if !eval.eval(formula, self, path, ls) {
                    return Some(counterexample(path, ls));
                }
            } else if path.len() < bound {
                path.push(next);
                pos_of[next as usize] = path.len() as u32;
                let found = self.dfs(formula, eval, path, pos_of, bound);
                pos_of[next as usize] = 0;
                path.pop();
                if found.is_some() {
                    return found;
                }
            }
        }
        None
    }
}

fn counterexample(path: &[u32], loop_start: usize) -> CheckResult {
    CheckResult::CounterExample {
        prefix: path[..loop_start].iter().map(|&s| s as StateId).collect(),
        looped: path[loop_start..].iter().map(|&s| s as StateId).collect(),
    }
}

/// One node of a compiled formula; children are stored at smaller
/// indices than their parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CNode {
    True,
    False,
    Prop(u32),
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Implies(u32, u32),
    Next(u32),
    Finally(u32),
    Globally(u32),
    Until(u32, u32),
    Release(u32, u32),
}

/// An [`Ltl`] formula compiled against a [`CsrKripke`]'s proposition
/// universe: a hash-consed flat node arena, children before parents.
#[derive(Debug, Clone)]
pub struct CompiledLtl {
    nodes: Vec<CNode>,
    root: u32,
}

impl CompiledLtl {
    /// Compiles `formula` against `model`'s propositions. Propositions
    /// the model never mentions compile to `False`, matching the trace
    /// evaluator's treatment of unknown names.
    pub fn compile(formula: &Ltl, model: &CsrKripke) -> CompiledLtl {
        let mut nodes = Vec::with_capacity(formula.size());
        let mut index = HashMap::new();
        let root = compile_into(formula, model, &mut nodes, &mut index);
        CompiledLtl { nodes, root }
    }

    /// Number of distinct compiled nodes (shared subformulas count once).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the compiled formula has no nodes (never: every formula
    /// has at least its root).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

fn intern(nodes: &mut Vec<CNode>, index: &mut HashMap<CNode, u32>, node: CNode) -> u32 {
    if let Some(&i) = index.get(&node) {
        return i;
    }
    let i = nodes.len() as u32;
    nodes.push(node);
    index.insert(node, i);
    i
}

fn compile_into(
    f: &Ltl,
    model: &CsrKripke,
    nodes: &mut Vec<CNode>,
    index: &mut HashMap<CNode, u32>,
) -> u32 {
    let node = match f {
        Ltl::True => CNode::True,
        Ltl::False => CNode::False,
        Ltl::Prop(p) => match model.prop_index.get(p.as_ref()) {
            Some(&id) => CNode::Prop(id),
            None => CNode::False,
        },
        Ltl::Not(a) => CNode::Not(compile_into(a, model, nodes, index)),
        Ltl::Next(a) => CNode::Next(compile_into(a, model, nodes, index)),
        Ltl::Finally(a) => CNode::Finally(compile_into(a, model, nodes, index)),
        Ltl::Globally(a) => CNode::Globally(compile_into(a, model, nodes, index)),
        Ltl::And(a, b) => CNode::And(
            compile_into(a, model, nodes, index),
            compile_into(b, model, nodes, index),
        ),
        Ltl::Or(a, b) => CNode::Or(
            compile_into(a, model, nodes, index),
            compile_into(b, model, nodes, index),
        ),
        Ltl::Implies(a, b) => CNode::Implies(
            compile_into(a, model, nodes, index),
            compile_into(b, model, nodes, index),
        ),
        Ltl::Until(a, b) => CNode::Until(
            compile_into(a, model, nodes, index),
            compile_into(b, model, nodes, index),
        ),
        Ltl::Release(a, b) => CNode::Release(
            compile_into(a, model, nodes, index),
            compile_into(b, model, nodes, index),
        ),
    };
    intern(nodes, index, node)
}

/// Reusable closure-table scratch for lasso evaluation.
#[derive(Debug, Default)]
struct LassoEval {
    table: Vec<bool>,
}

/// Backward fixpoint fill for a temporal row over a lasso: two sweeps
/// over the loop region (the loop head's value is exact after the first
/// — a least-fixpoint witness or greatest-fixpoint refutation for the
/// head lies within one unrolling — and the second sweep propagates the
/// corrected wrap-around), then one sweep over the stem.
fn fixpoint_backward(
    row: &mut [bool],
    loop_start: usize,
    init: bool,
    step: impl Fn(usize, bool) -> bool,
) {
    let len = row.len();
    row.fill(init);
    for _pass in 0..2 {
        for i in (loop_start..len).rev() {
            let nxt = if i + 1 < len {
                row[i + 1]
            } else {
                row[loop_start]
            };
            row[i] = step(i, nxt);
        }
    }
    for i in (0..loop_start).rev() {
        row[i] = step(i, row[i + 1]);
    }
}

impl LassoEval {
    /// Evaluates the compiled formula at position 0 of the lasso
    /// `path[..loop_start] · path[loop_start..]ω`.
    fn eval(
        &mut self,
        formula: &CompiledLtl,
        model: &CsrKripke,
        path: &[u32],
        loop_start: usize,
    ) -> bool {
        let len = path.len();
        self.table.clear();
        self.table.resize(formula.nodes.len() * len, false);
        for (idx, node) in formula.nodes.iter().enumerate() {
            let (done, rest) = self.table.split_at_mut(idx * len);
            let row = &mut rest[..len];
            let get = |child: u32, i: usize| done[child as usize * len + i];
            match *node {
                CNode::True => row.fill(true),
                CNode::False => {} // rows start false
                CNode::Prop(p) => {
                    for (i, &s) in path.iter().enumerate() {
                        row[i] = model.has_prop(s, p);
                    }
                }
                CNode::Not(a) => {
                    for (i, r) in row.iter_mut().enumerate() {
                        *r = !get(a, i);
                    }
                }
                CNode::And(a, b) => {
                    for (i, r) in row.iter_mut().enumerate() {
                        *r = get(a, i) && get(b, i);
                    }
                }
                CNode::Or(a, b) => {
                    for (i, r) in row.iter_mut().enumerate() {
                        *r = get(a, i) || get(b, i);
                    }
                }
                CNode::Implies(a, b) => {
                    for (i, r) in row.iter_mut().enumerate() {
                        *r = !get(a, i) || get(b, i);
                    }
                }
                CNode::Next(a) => {
                    for (i, r) in row.iter_mut().enumerate().take(len - 1) {
                        *r = get(a, i + 1);
                    }
                    row[len - 1] = get(a, loop_start);
                }
                CNode::Finally(a) => {
                    fixpoint_backward(row, loop_start, false, |i, nxt| get(a, i) || nxt);
                }
                CNode::Globally(a) => {
                    fixpoint_backward(row, loop_start, true, |i, nxt| get(a, i) && nxt);
                }
                CNode::Until(a, b) => fixpoint_backward(row, loop_start, false, |i, nxt| {
                    get(b, i) || (get(a, i) && nxt)
                }),
                CNode::Release(a, b) => fixpoint_backward(row, loop_start, true, |i, nxt| {
                    get(b, i) && (get(a, i) || nxt)
                }),
            }
        }
        self.table[formula.root as usize * len]
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_ltl;
    use super::super::trace::Trace;
    use super::*;

    /// Builds a single-lasso Kripke structure from explicit label lists
    /// so closure-table evaluation can be compared against the trace
    /// evaluator on the same word.
    fn lasso_eval(prefix: &[&[&str]], looped: &[&[&str]], src: &str) -> (bool, bool) {
        let mut k = Kripke::new();
        let states: Vec<_> = prefix
            .iter()
            .chain(looped.iter())
            .map(|props| k.add_state(props.iter().copied()))
            .collect();
        for w in states.windows(2) {
            k.add_transition(w[0], w[1]).unwrap();
        }
        k.add_transition(states[states.len() - 1], states[prefix.len()])
            .unwrap();
        let csr = CsrKripke::compile(&k);
        let f = parse_ltl(src).unwrap();
        let compiled = CompiledLtl::compile(&f, &csr);
        let mut eval = LassoEval::default();
        let path: Vec<u32> = states.iter().map(|&s| s as u32).collect();
        let fast = eval.eval(&compiled, &csr, &path, prefix.len());
        let slow = Trace::lasso(
            prefix.iter().map(|p| p.to_vec()).collect::<Vec<_>>(),
            looped.iter().map(|p| p.to_vec()).collect::<Vec<_>>(),
        )
        .satisfies(&f);
        (fast, slow)
    }

    /// (stem labels, loop labels, formula source) — one differential case.
    type LassoCase<'a> = (&'a [&'a [&'a str]], &'a [&'a [&'a str]], &'a str);

    #[test]
    fn closure_table_matches_trace_semantics() {
        let cases: &[LassoCase] = &[
            (&[&["p"]], &[&["p"]], "G p"),
            (&[&["p"]], &[&[]], "G p"),
            (&[&[]], &[&["q"]], "F q"),
            (&[&["q"]], &[&[]], "F q"),
            (&[&[]], &[&[]], "F q"),
            (&[&["a"], &["a"]], &[&["b"]], "a U b"),
            (&[&["a"]], &[&["a"]], "a U b"),
            (&[], &[&["a"], &["b"]], "a U b"),
            (&[], &[&["a"], &["b"]], "X b"),
            (&[], &[&["a"], &["b"]], "X a"),
            (&[&["a"]], &[&["b"]], "X (b & X b)"),
            (&[], &[&["b"], &["a", "b"]], "a R b"),
            (&[], &[&["b"], &["b"]], "a R b"),
            (&[], &[&["b"], &[]], "a R b"),
            (&[&["r"]], &[&[], &["g"]], "G (r -> F g)"),
            (&[&["r"]], &[&["r"]], "G (r -> F g)"),
            (&[&["p"]], &[&["q"], &["p"]], "G F p & G F q"),
            (&[], &[&["p"]], "~p | X p"),
            (&[], &[&[]], "true U p"),
            (&[], &[&["p"]], "false R p"),
        ];
        for (prefix, looped, src) in cases {
            let (fast, slow) = lasso_eval(prefix, looped, src);
            assert_eq!(
                fast, slow,
                "formula `{src}` on prefix {prefix:?} loop {looped:?}"
            );
        }
    }

    #[test]
    fn unknown_props_compile_to_false() {
        let mut k = Kripke::new();
        let a = k.add_state(vec!["p"]);
        k.add_transition(a, a).unwrap();
        let csr = CsrKripke::compile(&k);
        let compiled = CompiledLtl::compile(&parse_ltl("G mystery").unwrap(), &csr);
        let mut eval = LassoEval::default();
        assert!(!eval.eval(&compiled, &csr, &[a as u32], 0));
        let compiled = CompiledLtl::compile(&parse_ltl("G ~mystery").unwrap(), &csr);
        assert!(eval.eval(&compiled, &csr, &[a as u32], 0));
    }

    #[test]
    fn shared_subformulas_compile_once() {
        let mut k = Kripke::new();
        let a = k.add_state(vec!["p"]);
        k.add_transition(a, a).unwrap();
        let csr = CsrKripke::compile(&k);
        // `F p & G F p` shares both `p` and `F p`.
        let compiled = CompiledLtl::compile(&parse_ltl("F p & G F p").unwrap(), &csr);
        assert_eq!(compiled.len(), 4); // p, F p, G F p, And
        assert!(!compiled.is_empty());
    }

    #[test]
    fn csr_layout_round_trips_the_graph() {
        let mut k = Kripke::new();
        let s0 = k.add_state(vec!["x"]);
        let s1 = k.add_state(Vec::<&str>::new());
        let s2 = k.add_state(vec!["x", "y"]);
        k.add_transition(s0, s1).unwrap();
        k.add_transition(s0, s2).unwrap();
        k.add_transition(s2, s0).unwrap();
        k.add_initial(s0).unwrap();
        let csr = CsrKripke::compile(&k);
        assert_eq!(csr.len(), 3);
        assert!(!csr.is_empty());
        assert_eq!(csr.successors_of(s0 as u32), &[s1 as u32, s2 as u32]);
        assert_eq!(csr.successors_of(s1 as u32), &[] as &[u32]);
        assert_eq!(csr.successors_of(s2 as u32), &[s0 as u32]);
        assert_eq!(csr.prop_index.len(), 2);
        let x = csr.prop_index["x"];
        let y = csr.prop_index["y"];
        assert!(csr.has_prop(s0 as u32, x) && !csr.has_prop(s0 as u32, y));
        assert!(!csr.has_prop(s1 as u32, x));
        assert!(csr.has_prop(s2 as u32, x) && csr.has_prop(s2 as u32, y));
    }

    #[test]
    fn check_bounded_requires_initial_states() {
        let mut k = Kripke::new();
        k.add_state(vec!["p"]);
        let csr = CsrKripke::compile(&k);
        let compiled = CompiledLtl::compile(&parse_ltl("p").unwrap(), &csr);
        assert_eq!(
            csr.check_bounded(&compiled, 5),
            Err(LogicError::NoInitialState)
        );
    }

    #[test]
    fn many_props_span_multiple_bitset_words() {
        let mut k = Kripke::new();
        let props: Vec<String> = (0..130).map(|i| format!("p{i}")).collect();
        let a = k.add_state(props.iter().map(|s| s.as_str()));
        let b = k.add_state(vec!["p129"]);
        k.add_transition(a, b).unwrap();
        k.add_transition(b, a).unwrap();
        k.add_initial(a).unwrap();
        let csr = CsrKripke::compile(&k);
        assert_eq!(csr.words, 3);
        let f = parse_ltl("G F p129").unwrap();
        let compiled = CompiledLtl::compile(&f, &csr);
        assert!(csr.check_bounded(&compiled, 6).unwrap().holds());
        let f = parse_ltl("G p0").unwrap();
        let compiled = CompiledLtl::compile(&f, &csr);
        assert!(!csr.check_bounded(&compiled, 6).unwrap().holds());
    }
}
