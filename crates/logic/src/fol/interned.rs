//! The interned FOL core: hash-consed term arena, first-argument-indexed
//! clause store, and an iterative SLD engine over integer ids.
//!
//! The seed engine (now the oracle `casekit_oracle::fol`) resolves
//! over the name-plane [`Term`] tree: every candidate clause is
//! deep-cloned with freshly
//! suffixed variable names, and every unification step re-applies a
//! `BTreeMap`-backed substitution to whole terms. This module is the
//! index-plane replacement, mirroring the `prop::intern` discipline:
//!
//! * **Symbols** — functor and constant names intern once into a
//!   [`SymbolTable`], so comparison is a `u32` equality.
//! * **Terms** — a hash-consed [`TermArena`]: each distinct term
//!   structure is stored once as a [`TermId`], with argument lists
//!   flattened into one shared pool. Clause variables are numbered
//!   densely per clause, so a clause never needs renaming: a *runtime
//!   instance* of a term is the pair (TermId, frame base), and each
//!   activation of a clause just allocates `nvars` fresh binding slots.
//! * **Bindings** — a flat slot array with a trail for backtracking.
//!   Variable chains are path-compressed as they are walked; the
//!   compressed writes go on the trail too, so undoing a choice point
//!   restores exactly the previous state.
//! * **Dispatch** — clauses index by `(predicate, arity)` and by the
//!   principal functor of their first argument, so a goal with a bound
//!   first argument tries only the matching bucket (plus variable-headed
//!   clauses), in original program order.
//! * **Search** — SLD resolution with an explicit choice-point stack and
//!   arena-allocated goal lists, so derivations tens of thousands of
//!   steps deep cannot overflow the call stack.
//!
//! Answer parity with the seed engine: for answers that bind query
//! variables to *ground* terms, [`InternedKb::solve_with`] returns
//! exactly the seed engine's solutions in the seed engine's order.
//! Answers containing unbound clause variables are reported with
//! canonical `_G0`, `_G1`, … names (the seed leaks its rename counter,
//! e.g. `Y_3`), so alpha-equivalent answers deduplicate here that the
//! seed counts separately. Work accounting also differs: both engines
//! count one unit per candidate clause tried, but indexing tries fewer
//! candidates, so `max_work` cuts off later than the seed's.

use super::engine::{KnowledgeBase, Solution, SolveConfig, SolveOutcome};
use super::term::Term;
use super::unify::Substitution;
use std::collections::HashMap;
use std::sync::Arc;

/// Interned functor/constant name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(u32);

/// Interner for functor and constant names.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, SymbolId>,
}

impl SymbolTable {
    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &Arc<str>) -> SymbolId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = SymbolId(self.names.len() as u32);
        self.names.push(name.clone());
        self.index.insert(name.clone(), id);
        id
    }

    /// The name behind an id.
    pub fn name(&self, id: SymbolId) -> &Arc<str> {
        &self.names[id.0 as usize]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no symbol has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Handle to a hash-consed term in a [`TermArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermId(u32);

/// One arena node: a clause-local variable or an application. Constants
/// are 0-ary applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TermNode {
    Var(u32),
    App {
        sym: SymbolId,
        args_start: u32,
        args_len: u32,
    },
}

/// Hash-consed term storage: every distinct structure appears once, and
/// argument lists are flat slices into one shared pool.
#[derive(Debug, Clone, Default)]
pub struct TermArena {
    nodes: Vec<TermNode>,
    args: Vec<TermId>,
    app_index: HashMap<(SymbolId, Vec<TermId>), TermId>,
    var_index: HashMap<u32, TermId>,
}

impl TermArena {
    fn var(&mut self, idx: u32) -> TermId {
        if let Some(&id) = self.var_index.get(&idx) {
            return id;
        }
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(TermNode::Var(idx));
        self.var_index.insert(idx, id);
        id
    }

    fn app(&mut self, sym: SymbolId, args: Vec<TermId>) -> TermId {
        if let Some(&id) = self.app_index.get(&(sym, args.clone())) {
            return id;
        }
        let args_start = self.args.len() as u32;
        let args_len = args.len() as u32;
        self.args.extend_from_slice(&args);
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(TermNode::App {
            sym,
            args_start,
            args_len,
        });
        self.app_index.insert((sym, args), id);
        id
    }

    fn node(&self, id: TermId) -> TermNode {
        self.nodes[id.0 as usize]
    }

    fn args_of(&self, id: TermId) -> &[TermId] {
        match self.nodes[id.0 as usize] {
            TermNode::Var(_) => &[],
            TermNode::App {
                args_start,
                args_len,
                ..
            } => &self.args[args_start as usize..(args_start + args_len) as usize],
        }
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no terms.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A clause compiled to the index plane: head and body share the arena,
/// variables are numbered `0..nvars` local to the clause.
#[derive(Debug, Clone)]
struct CompiledClause {
    head: TermId,
    body: Vec<TermId>,
    nvars: u32,
}

/// Per-predicate first-argument index. All lists hold clause indices in
/// ascending (program) order.
#[derive(Debug, Clone, Default)]
struct PredIndex {
    /// Every clause whose head has this predicate and arity.
    all: Vec<u32>,
    /// Clauses whose head's first argument is a variable.
    var_first: Vec<u32>,
    /// Clauses bucketed by the principal functor and arity of their
    /// head's first argument.
    by_first: HashMap<(SymbolId, u32), Vec<u32>>,
}

/// A [`KnowledgeBase`] compiled onto the interned plane, ready to answer
/// queries with the iterative indexed engine.
#[derive(Debug, Clone)]
pub struct InternedKb {
    symbols: SymbolTable,
    arena: TermArena,
    clauses: Vec<CompiledClause>,
    preds: HashMap<(SymbolId, u32), PredIndex>,
    /// Clauses whose head is a bare variable: candidates for every goal.
    var_heads: Vec<u32>,
}

/// Interns a name-plane term, numbering variables densely via `vars`.
fn intern_term(
    arena: &mut TermArena,
    symbols: &mut SymbolTable,
    vars: &mut HashMap<Arc<str>, u32>,
    term: &Term,
) -> TermId {
    match term {
        Term::Var(n) => {
            let next = vars.len() as u32;
            let idx = *vars.entry(n.clone()).or_insert(next);
            arena.var(idx)
        }
        Term::Const(n) => {
            let sym = symbols.intern(n);
            arena.app(sym, Vec::new())
        }
        Term::Compound(f, args) => {
            let sym = symbols.intern(f);
            let ids = args
                .iter()
                .map(|a| intern_term(arena, symbols, vars, a))
                .collect();
            arena.app(sym, ids)
        }
    }
}

/// Merges ascending clause-index lists, preserving program order.
fn merge_sorted(lists: &[&[u32]]) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
    for list in lists {
        out.extend_from_slice(list);
    }
    out.sort_unstable();
    out.dedup();
    out
}

impl InternedKb {
    /// Compiles a knowledge base onto the interned plane.
    pub fn compile(kb: &KnowledgeBase) -> InternedKb {
        let mut symbols = SymbolTable::default();
        let mut arena = TermArena::default();
        let mut clauses = Vec::with_capacity(kb.len());
        let mut preds: HashMap<(SymbolId, u32), PredIndex> = HashMap::new();
        let mut var_heads = Vec::new();

        for (i, clause) in kb.clauses().iter().enumerate() {
            let mut vars = HashMap::new();
            let head = intern_term(&mut arena, &mut symbols, &mut vars, &clause.head);
            let body = clause
                .body
                .iter()
                .map(|g| intern_term(&mut arena, &mut symbols, &mut vars, g))
                .collect();
            let idx = i as u32;
            match arena.node(head) {
                TermNode::Var(_) => var_heads.push(idx),
                TermNode::App { sym, args_len, .. } => {
                    let pred = preds.entry((sym, args_len)).or_default();
                    pred.all.push(idx);
                    if args_len == 0 {
                        // No first argument to bucket on; `all` is the index.
                    } else {
                        let first = arena.args_of(head)[0];
                        match arena.node(first) {
                            TermNode::Var(_) => pred.var_first.push(idx),
                            TermNode::App {
                                sym: fsym,
                                args_len: far,
                                ..
                            } => pred.by_first.entry((fsym, far)).or_default().push(idx),
                        }
                    }
                }
            }
            clauses.push(CompiledClause {
                head,
                body,
                nvars: vars.len() as u32,
            });
        }

        InternedKb {
            symbols,
            arena,
            clauses,
            preds,
            var_heads,
        }
    }

    /// Number of compiled clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the compiled program is empty.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Solves `goal` under the default configuration.
    pub fn solve(&mut self, goal: &Term) -> SolveOutcome {
        self.solve_with(goal, SolveConfig::default())
    }

    /// True when the goal has at least one derivation (under defaults).
    pub fn proves(&mut self, goal: &Term) -> bool {
        self.solve(goal).succeeded()
    }

    /// Solves `goal` under an explicit configuration with the iterative
    /// indexed engine. `&mut self` because the query's terms intern into
    /// the shared arena (hash-consing makes repeat queries free).
    pub fn solve_with(&mut self, goal: &Term, config: SolveConfig) -> SolveOutcome {
        let mut qvars: HashMap<Arc<str>, u32> = HashMap::new();
        let query = intern_term(&mut self.arena, &mut self.symbols, &mut qvars, goal);
        let mut names: Vec<Arc<str>> = vec![Arc::from(""); qvars.len()];
        for (name, idx) in &qvars {
            names[*idx as usize] = name.clone();
        }
        let mut machine = Machine {
            kb: self,
            config,
            slots: Vec::new(),
            trail: Vec::new(),
            goal_arena: Vec::new(),
            work: 0,
            truncated: false,
            solutions: Vec::new(),
        };
        machine.run(query, &names);
        SolveOutcome {
            solutions: machine.solutions,
            truncated: machine.truncated,
        }
    }
}

/// What a binding slot holds: another slot (var-var aliasing) or a term
/// application under some frame.
#[derive(Debug, Clone, Copy)]
enum BoundTo {
    Slot(u32),
    App(TermId, u32),
}

/// A fully dereferenced runtime value: an unbound slot or an application.
#[derive(Debug, Clone, Copy)]
enum Deref {
    Unbound(u32),
    App(TermId, u32),
}

/// Arena-allocated cons cell of a goal list.
#[derive(Debug, Clone, Copy)]
struct GoalNode {
    term: TermId,
    frame: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

/// One SLD choice point: the goal list being resolved, the candidate
/// clauses still to try, and the trail/slot marks to rewind to between
/// alternatives.
struct Choice {
    goals: u32,
    depth: usize,
    cands: Vec<u32>,
    cursor: usize,
    trail_mark: usize,
    slots_mark: usize,
}

struct Machine<'a> {
    kb: &'a InternedKb,
    config: SolveConfig,
    slots: Vec<Option<BoundTo>>,
    trail: Vec<(u32, Option<BoundTo>)>,
    goal_arena: Vec<GoalNode>,
    work: usize,
    truncated: bool,
    solutions: Vec<Solution>,
}

impl Machine<'_> {
    fn push_goal(&mut self, term: TermId, frame: u32, next: u32) -> u32 {
        self.goal_arena.push(GoalNode { term, frame, next });
        (self.goal_arena.len() - 1) as u32
    }

    fn bind(&mut self, slot: u32, value: BoundTo) {
        self.trail.push((slot, self.slots[slot as usize]));
        self.slots[slot as usize] = Some(value);
    }

    fn undo_to(&mut self, trail_mark: usize, slots_mark: usize) {
        while self.trail.len() > trail_mark {
            let (slot, old) = self.trail.pop().expect("trail above mark");
            self.slots[slot as usize] = old;
        }
        self.slots.truncate(slots_mark);
    }

    /// Dereferences a slot chain, path-compressing every hop onto the
    /// final value. The compressed writes are trailed like ordinary
    /// bindings, so backtracking restores the exact prior chain.
    fn walk_slot(&mut self, start: u32) -> Deref {
        let mut slot = start;
        let mut hops = 0usize;
        let result = loop {
            match self.slots[slot as usize] {
                None => break Deref::Unbound(slot),
                Some(BoundTo::Slot(next)) => {
                    hops += 1;
                    slot = next;
                }
                Some(BoundTo::App(t, f)) => break Deref::App(t, f),
            }
        };
        if hops > 1 {
            let target = match result {
                Deref::Unbound(s) => BoundTo::Slot(s),
                Deref::App(t, f) => BoundTo::App(t, f),
            };
            let mut s = start;
            while let Some(BoundTo::Slot(next)) = self.slots[s as usize] {
                if next == slot {
                    break;
                }
                self.bind(s, target);
                s = next;
            }
        }
        result
    }

    fn walk(&mut self, id: TermId, frame: u32) -> Deref {
        match self.kb.arena.node(id) {
            TermNode::Var(v) => self.walk_slot(frame + v),
            TermNode::App { .. } => Deref::App(id, frame),
        }
    }

    /// Read-only dereference (no compression), for the occurs check and
    /// answer reification.
    fn resolve_slot(&self, start: u32) -> Deref {
        let mut slot = start;
        loop {
            match self.slots[slot as usize] {
                None => return Deref::Unbound(slot),
                Some(BoundTo::Slot(next)) => slot = next,
                Some(BoundTo::App(t, f)) => return Deref::App(t, f),
            }
        }
    }

    fn resolve(&self, id: TermId, frame: u32) -> Deref {
        match self.kb.arena.node(id) {
            TermNode::Var(v) => self.resolve_slot(frame + v),
            TermNode::App { .. } => Deref::App(id, frame),
        }
    }

    /// Whether unbound slot `slot` occurs in the instance `(id, frame)`.
    fn occurs(&self, slot: u32, id: TermId, frame: u32) -> bool {
        let mut stack = vec![(id, frame)];
        while let Some((t, f)) = stack.pop() {
            match self.resolve(t, f) {
                Deref::Unbound(s) => {
                    if s == slot {
                        return true;
                    }
                }
                Deref::App(t2, f2) => {
                    for &a in self.kb.arena.args_of(t2) {
                        stack.push((a, f2));
                    }
                }
            }
        }
        false
    }

    /// Unifies two runtime instances, trailing every binding. Iterative
    /// over an explicit pair stack; occurs check enforced.
    fn unify(&mut self, a: (TermId, u32), b: (TermId, u32)) -> bool {
        let mut stack = vec![(a, b)];
        while let Some(((ta, fa), (tb, fb))) = stack.pop() {
            let da = self.walk(ta, fa);
            let db = self.walk(tb, fb);
            match (da, db) {
                (Deref::Unbound(sa), Deref::Unbound(sb)) => {
                    if sa != sb {
                        self.bind(sa, BoundTo::Slot(sb));
                    }
                }
                (Deref::Unbound(s), Deref::App(t, f)) | (Deref::App(t, f), Deref::Unbound(s)) => {
                    if self.occurs(s, t, f) {
                        return false;
                    }
                    self.bind(s, BoundTo::App(t, f));
                }
                (Deref::App(t1, f1), Deref::App(t2, f2)) => {
                    let (
                        TermNode::App {
                            sym: s1,
                            args_len: n1,
                            ..
                        },
                        TermNode::App {
                            sym: s2,
                            args_len: n2,
                            ..
                        },
                    ) = (self.kb.arena.node(t1), self.kb.arena.node(t2))
                    else {
                        unreachable!("walk returns App for App nodes");
                    };
                    if s1 != s2 || n1 != n2 {
                        return false;
                    }
                    for (&a1, &a2) in self
                        .kb
                        .arena
                        .args_of(t1)
                        .iter()
                        .zip(self.kb.arena.args_of(t2))
                    {
                        stack.push(((a1, f1), (a2, f2)));
                    }
                }
            }
        }
        true
    }

    /// Candidate clauses for a goal, in program order: the first-argument
    /// bucket when the goal's first argument has a bound principal
    /// functor, the whole predicate otherwise, everything for an unbound
    /// goal. Variable-headed clauses are always included.
    fn candidates(&mut self, goal: TermId, frame: u32) -> Vec<u32> {
        let kb = self.kb;
        match self.walk(goal, frame) {
            Deref::Unbound(_) => (0..kb.clauses.len() as u32).collect(),
            Deref::App(t, f) => {
                let TermNode::App { sym, args_len, .. } = kb.arena.node(t) else {
                    unreachable!("walk returns App for App nodes");
                };
                let Some(pred) = kb.preds.get(&(sym, args_len)) else {
                    return kb.var_heads.clone();
                };
                if args_len == 0 {
                    return merge_sorted(&[&pred.all, &kb.var_heads]);
                }
                let first = kb.arena.args_of(t)[0];
                match self.walk(first, f) {
                    Deref::Unbound(_) => merge_sorted(&[&pred.all, &kb.var_heads]),
                    Deref::App(ft, _) => {
                        let TermNode::App {
                            sym: fsym,
                            args_len: far,
                            ..
                        } = kb.arena.node(ft)
                        else {
                            unreachable!("walk returns App for App nodes");
                        };
                        let bucket = pred
                            .by_first
                            .get(&(fsym, far))
                            .map(Vec::as_slice)
                            .unwrap_or(&[]);
                        merge_sorted(&[bucket, &pred.var_first, &kb.var_heads])
                    }
                }
            }
        }
    }

    /// Rebuilds the name-plane term for the value in `slot`, naming
    /// still-unbound non-query variables `_G0`, `_G1`, … in order of
    /// first appearance.
    fn reify_slot(
        &self,
        slot: u32,
        names: &[Arc<str>],
        fresh: &mut HashMap<u32, Arc<str>>,
    ) -> Term {
        match self.resolve_slot(slot) {
            Deref::Unbound(s) => {
                if (s as usize) < names.len() {
                    Term::Var(names[s as usize].clone())
                } else {
                    let next = fresh.len();
                    let name = fresh
                        .entry(s)
                        .or_insert_with(|| Arc::from(format!("_G{next}")));
                    Term::Var(name.clone())
                }
            }
            Deref::App(t, f) => self.reify_app(t, f, names, fresh),
        }
    }

    fn reify_app(
        &self,
        id: TermId,
        frame: u32,
        names: &[Arc<str>],
        fresh: &mut HashMap<u32, Arc<str>>,
    ) -> Term {
        let TermNode::App { sym, args_len, .. } = self.kb.arena.node(id) else {
            unreachable!("reify_app takes App nodes");
        };
        let name = self.kb.symbols.name(sym).clone();
        if args_len == 0 {
            return Term::Const(name);
        }
        let args = self
            .kb
            .arena
            .args_of(id)
            .iter()
            .map(|&a| match self.resolve(a, frame) {
                Deref::Unbound(s) => self.reify_slot(s, names, fresh),
                Deref::App(t, f) => self.reify_app(t, f, names, fresh),
            })
            .collect();
        Term::Compound(name, args)
    }

    /// Records the current bindings as a solution, projected onto the
    /// query's variables (sorted by name, like the seed's projection).
    /// Unbound query variables are omitted; duplicates are dropped.
    fn record_solution(&mut self, names: &[Arc<str>]) {
        let mut order: Vec<u32> = (0..names.len() as u32).collect();
        order.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
        let mut bindings = Substitution::new();
        let mut fresh = HashMap::new();
        for slot in order {
            let name = &names[slot as usize];
            let value = self.reify_slot(slot, names, &mut fresh);
            if let Term::Var(n) = &value {
                if n == name {
                    continue;
                }
            }
            bindings.bind(name.as_ref(), value);
        }
        let solution = Solution { bindings };
        if !self.solutions.contains(&solution) {
            self.solutions.push(solution);
        }
    }

    /// The iterative SLD loop. Mirrors the seed engine's control flow —
    /// empty-goals check, then depth check, then the clause loop — with
    /// the recursion replaced by an explicit [`Choice`] stack.
    fn run(&mut self, query: TermId, names: &[Arc<str>]) {
        self.slots.resize(names.len(), None);
        let root = self.push_goal(query, 0, NIL);
        let mut stack: Vec<Choice> = Vec::new();
        let mut pending = Some((root, 0usize));
        loop {
            if let Some((goals, depth)) = pending.take() {
                if goals == NIL {
                    self.record_solution(names);
                    if self.solutions.len() >= self.config.max_solutions {
                        return;
                    }
                } else if depth >= self.config.max_depth {
                    self.truncated = true;
                } else {
                    let g = self.goal_arena[goals as usize];
                    let cands = self.candidates(g.term, g.frame);
                    stack.push(Choice {
                        goals,
                        depth,
                        cands,
                        cursor: 0,
                        trail_mark: self.trail.len(),
                        slots_mark: self.slots.len(),
                    });
                }
            }
            let Some(top) = stack.last_mut() else {
                return;
            };
            let (trail_mark, slots_mark) = (top.trail_mark, top.slots_mark);
            if top.cursor >= top.cands.len() {
                stack.pop();
                self.undo_to(trail_mark, slots_mark);
                continue;
            }
            let clause_idx = top.cands[top.cursor];
            top.cursor += 1;
            let (goals, depth) = (top.goals, top.depth);
            self.undo_to(trail_mark, slots_mark);
            self.work += 1;
            if self.work > self.config.max_work {
                self.truncated = true;
                return;
            }
            let kb = self.kb;
            let clause = &kb.clauses[clause_idx as usize];
            let base = self.slots.len() as u32;
            self.slots
                .resize(self.slots.len() + clause.nvars as usize, None);
            let g = self.goal_arena[goals as usize];
            if self.unify((g.term, g.frame), (clause.head, base)) {
                let mut list = g.next;
                for &b in clause.body.iter().rev() {
                    list = self.push_goal(b, base, list);
                }
                pending = Some((list, depth + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::{parse_program, parse_query};
    use super::*;

    fn compiled(src: &str) -> InternedKb {
        InternedKb::compile(&parse_program(src).unwrap())
    }

    #[test]
    fn symbol_table_interns_once() {
        let mut t = SymbolTable::default();
        let a: Arc<str> = Arc::from("adjacent");
        let id1 = t.intern(&a);
        let id2 = t.intern(&a);
        assert_eq!(id1, id2);
        assert_eq!(t.name(id1).as_ref(), "adjacent");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn arena_hash_conses_ground_terms() {
        let kb = compiled("p(a, f(a)). q(f(a)).");
        // `a` and `f(a)` each intern once even though they appear in two
        // clauses; nodes: a, f(a), p(a, f(a)), q(f(a)).
        assert_eq!(kb.arena.len(), 4);
        assert_eq!(kb.len(), 2);
        assert!(!kb.is_empty());
    }

    #[test]
    fn first_argument_index_preserves_program_order() {
        let mut kb = compiled("p(a, one). p(b, two). p(a, three). p(C, var).");
        let out = kb.solve(&parse_query("p(a, X)").unwrap());
        let answers: Vec<String> = out.solutions.iter().map(|s| s.to_string()).collect();
        assert_eq!(answers, vec!["{X = one}", "{X = three}", "{X = var}"]);
    }

    #[test]
    fn unbound_first_argument_tries_every_clause() {
        let mut kb = compiled("p(a, one). p(b, two).");
        let out = kb.solve(&parse_query("p(Y, X)").unwrap());
        assert_eq!(out.solutions.len(), 2);
    }

    #[test]
    fn compound_first_arguments_bucket_by_functor() {
        let mut kb =
            compiled("size(box(small), one). size(box(big), two). size(tin(small), three).");
        let out = kb.solve(&parse_query("size(box(W), X)").unwrap());
        assert_eq!(out.solutions.len(), 2);
        let out = kb.solve(&parse_query("size(tin(small), X)").unwrap());
        assert_eq!(out.solutions.len(), 1);
    }

    #[test]
    fn occurs_check_blocks_cyclic_terms() {
        let mut kb = compiled("eq(X, X).");
        assert!(!kb.proves(&parse_query("eq(Y, f(Y))").unwrap()));
        assert!(kb.proves(&parse_query("eq(g(a), g(a))").unwrap()));
    }

    #[test]
    fn shared_variables_answer_alpha_canonically() {
        // Seed would answer {X = A_1, Y = A_1} (leaking its rename
        // counter); the interned engine canonicalises to _G0.
        let mut kb = compiled("p(A, A).");
        let out = kb.solve(&parse_query("p(X, Y)").unwrap());
        assert_eq!(out.solutions.len(), 1);
        assert_eq!(out.solutions[0].to_string(), "{X = _G0, Y = _G0}");
    }

    #[test]
    fn depth_budget_truncates_left_recursion() {
        let mut kb = compiled("p(X) :- p(X).");
        let out = kb.solve(&parse_query("p(a)").unwrap());
        assert!(!out.succeeded());
        assert!(out.truncated);
    }

    #[test]
    fn work_budget_truncates() {
        let mut kb = compiled(
            "e(a, b). e(b, c). e(c, a).\n\
             path(X, Y) :- e(X, Y).\n\
             path(X, Y) :- e(X, Z), path(Z, Y).",
        );
        let out = kb.solve_with(
            &parse_query("path(a, X)").unwrap(),
            SolveConfig {
                max_depth: 1_000_000,
                max_work: 50,
                max_solutions: 1_000,
            },
        );
        assert!(out.truncated);
    }

    #[test]
    fn deep_chains_do_not_overflow_the_stack() {
        // 20k-deep derivation: the seed's recursive engine would
        // overflow long before this; the explicit choice-point stack
        // lives on the heap.
        let n = 20_000usize;
        let mut src = String::new();
        for i in 0..n - 1 {
            src.push_str(&format!("e(c{i}, c{}).\n", i + 1));
        }
        src.push_str("path(X, Y) :- e(X, Y).\npath(X, Y) :- e(X, Z), path(Z, Y).\n");
        let mut kb = InternedKb::compile(&parse_program(&src).unwrap());
        let goal = parse_query(&format!("path(c0, c{})", n - 1)).unwrap();
        let out = kb.solve_with(
            &goal,
            SolveConfig {
                max_depth: 3 * n,
                max_work: 50 * n,
                max_solutions: 1,
            },
        );
        assert!(out.succeeded());
        assert!(!out.truncated);
    }

    #[test]
    fn variable_headed_clauses_stay_candidates() {
        // A bare-variable head matches any goal at all.
        let mut kb = InternedKb::compile(&{
            let mut kb = KnowledgeBase::new();
            kb.add(super::super::term::Clause::fact(Term::var("Anything")));
            kb.add(super::super::term::Clause::fact(
                parse_query("p(a)").unwrap(),
            ));
            kb
        });
        assert!(kb.proves(&parse_query("q(zzz)").unwrap()));
        assert!(kb.proves(&parse_query("p(a)").unwrap()));
    }

    #[test]
    fn variable_goal_matches_any_clause() {
        let mut kb = compiled("p(a). q(b).");
        let out = kb.solve(&parse_query("G").unwrap());
        assert_eq!(out.solutions.len(), 2);
    }
}
