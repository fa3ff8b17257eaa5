//! The first interned solver, an iterative two-watched-literal DPLL,
//! preserved verbatim as [`DpllSolver`] — the differential-testing
//! oracle and measured baseline for the CDCL core that replaced it.
//!
//! This is chronological search: on conflict it flips the deepest
//! untried decision and rescans, with no memory of *why* the conflict
//! happened. The CDCL `casekit_logic::prop::Solver` learns a clause
//! from every conflict and jumps straight back to the level where that
//! clause becomes unit; on instances with an unsatisfiable core buried
//! under irrelevant decisions the difference is exponential (measured
//! by the hard-instance population in `repro logic`). The API is
//! intentionally identical to `Solver` — `new_var`, `add_clause`,
//! `assume`/`check`/`retract`, `value`/`var_value` — so the property
//! tests can drive both engines with the same script.

use casekit_logic::prop::{Lit, Var};

/// A backtracking point: one decision plus everything propagated from it.
#[derive(Debug, Clone, Copy)]
struct Level {
    /// Trail index of the decision literal.
    trail_start: usize,
    /// Branch-order cursor to restore when this level is undone.
    cursor: usize,
    /// Whether the complementary phase has already been tried.
    flipped: bool,
}

/// An incremental SAT solver over packed literals: iterative DPLL with
/// two watched literals, an explicit trail, and chronological
/// backtracking.
///
/// Clauses are permanent once added; queries vary through assumptions.
/// A typical session:
///
/// ```
/// use casekit_oracle::DpllSolver;
/// let mut s = DpllSolver::new();
/// let p = s.new_var();
/// let q = s.new_var();
/// s.add_clause(&[p.negative(), q.positive()]); // p -> q
/// s.assume(p.positive());
/// s.assume(q.negative());
/// assert!(!s.check()); // p & ~q contradicts p -> q
/// s.retract(); // drop ~q
/// assert!(s.check());
/// ```
#[derive(Debug, Clone, Default)]
pub struct DpllSolver {
    /// Flat clause arena: every clause's literals, back to back.
    lits: Vec<Lit>,
    /// Per clause: `(start, end)` bounds into `lits`. Slots `start` and
    /// `start + 1` hold the two watched literals.
    bounds: Vec<(u32, u32)>,
    /// Per literal code: indices of clauses currently watching it.
    watches: Vec<Vec<u32>>,
    /// Unit clauses, re-asserted at the start of every check.
    units: Vec<Lit>,
    /// Whether an empty (trivially false) clause was added.
    empty_clause: bool,
    /// Per variable: `0` unassigned, `1` true, `-1` false.
    assign: Vec<i8>,
    /// Assigned literals in assignment order.
    trail: Vec<Lit>,
    /// Propagation queue head (index into `trail`).
    prop_head: usize,
    /// Open decision levels.
    levels: Vec<Level>,
    /// Per variable: clause-occurrence count (decision activity).
    occurrence: Vec<u64>,
    /// Variables in descending activity order (rebuilt lazily).
    order: Vec<Var>,
    order_dirty: bool,
    /// Branch-order cursor: variables before it are known assigned.
    cursor: usize,
    /// Current assumption stack.
    assumptions: Vec<Lit>,
    /// Decisions made across the solver's lifetime (baseline metric).
    decisions: u64,
}

impl DpllSolver {
    /// An empty solver: no variables, no clauses.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        // Lit packs the variable index shifted left by one, so the
        // index must stay below 2^31 — guard that bound, not u32::MAX.
        let index = u32::try_from(self.assign.len())
            .ok()
            .filter(|i| *i <= u32::MAX >> 1)
            .expect("variable count fits in a packed literal (2^31)");
        let v = Var::from_index(index);
        self.assign.push(0);
        self.occurrence.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order_dirty = true;
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses in the database (including units).
    pub fn num_clauses(&self) -> usize {
        self.bounds.len() + self.units.len() + usize::from(self.empty_clause)
    }

    /// Decisions made across the solver's lifetime.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Adds a permanent clause (a disjunction of `lits`).
    ///
    /// Duplicate literals collapse; tautologous clauses (`p | ~p | …`)
    /// are dropped; the empty clause marks the database unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if any literal's variable was not allocated by
    /// [`DpllSolver::new_var`].
    pub fn add_clause(&mut self, lits: &[Lit]) {
        for l in lits {
            assert!(
                l.var().index() < self.assign.len(),
                "literal {l} references an unallocated variable"
            );
        }
        // Normalise: sort by code, drop duplicates, detect tautology
        // (complementary literals are adjacent codes after sorting).
        self.undo_to(0);
        self.levels.clear();
        let mut clause: Vec<Lit> = lits.to_vec();
        clause.sort_unstable_by_key(|l| l.code());
        clause.dedup();
        if clause.windows(2).any(|w| w[0] == !w[1]) {
            return;
        }
        for l in &clause {
            self.occurrence[l.var().index()] += 1;
        }
        self.order_dirty = true;
        match clause.len() {
            0 => self.empty_clause = true,
            1 => self.units.push(clause[0]),
            _ => {
                let start = u32::try_from(self.lits.len()).expect("clause arena fits in u32");
                let ci = u32::try_from(self.bounds.len()).expect("clause count fits in u32");
                self.watches[clause[0].code()].push(ci);
                self.watches[clause[1].code()].push(ci);
                self.lits.extend_from_slice(&clause);
                let end = u32::try_from(self.lits.len()).expect("clause arena fits in u32");
                self.bounds.push((start, end));
            }
        }
    }

    /// Pushes an assumption for subsequent [`DpllSolver::check`] calls.
    pub fn assume(&mut self, lit: Lit) {
        assert!(
            lit.var().index() < self.assign.len(),
            "assumption {lit} references an unallocated variable"
        );
        self.assumptions.push(lit);
    }

    /// Pops the most recent assumption.
    pub fn retract(&mut self) -> Option<Lit> {
        self.assumptions.pop()
    }

    /// Drops every assumption.
    pub fn retract_all(&mut self) {
        self.assumptions.clear();
    }

    /// The current assumption stack, oldest first.
    pub fn assumptions(&self) -> &[Lit] {
        &self.assumptions
    }

    /// Decides satisfiability of the clause database under the current
    /// assumptions. On `true`, a model is readable via
    /// [`DpllSolver::value`] until the next mutation.
    pub fn check(&mut self) -> bool {
        self.undo_to(0);
        self.levels.clear();
        self.cursor = 0;
        if self.empty_clause {
            return false;
        }
        if self.order_dirty {
            self.rebuild_order();
        }
        // Units and assumptions form the root level; a conflict here is
        // final (nothing to flip).
        let roots: Vec<Lit> = self
            .units
            .iter()
            .chain(&self.assumptions)
            .copied()
            .collect();
        for lit in roots {
            match self.value(lit) {
                Some(true) => {}
                Some(false) => return false,
                None => self.enqueue(lit),
            }
        }
        loop {
            if self.propagate() {
                // Conflict: flip the deepest untried decision.
                if !self.backtrack_flip() {
                    return false;
                }
            } else {
                match self.pick_branch() {
                    None => return true,
                    Some(var) => {
                        self.decisions += 1;
                        self.levels.push(Level {
                            trail_start: self.trail.len(),
                            cursor: self.cursor,
                            flipped: false,
                        });
                        self.enqueue(var.positive());
                    }
                }
            }
        }
    }

    /// The literal's value under the current (partial) assignment.
    pub fn value(&self, lit: Lit) -> Option<bool> {
        match self.assign[lit.var().index()] {
            0 => None,
            v => Some((v > 0) == lit.is_positive()),
        }
    }

    /// The variable's value under the current (partial) assignment.
    pub fn var_value(&self, var: Var) -> Option<bool> {
        match self.assign[var.index()] {
            0 => None,
            v => Some(v > 0),
        }
    }

    fn rebuild_order(&mut self) {
        self.order = (0..self.assign.len() as u32).map(Var::from_index).collect();
        let occurrence = &self.occurrence;
        self.order
            .sort_by_key(|v| (std::cmp::Reverse(occurrence[v.index()]), v.index()));
        self.order_dirty = false;
    }

    fn enqueue(&mut self, lit: Lit) {
        debug_assert!(self.value(lit).is_none(), "enqueue of an assigned literal");
        self.assign[lit.var().index()] = if lit.is_positive() { 1 } else { -1 };
        self.trail.push(lit);
    }

    /// Truncates the trail to `len`, clearing the undone assignments.
    fn undo_to(&mut self, len: usize) {
        while self.trail.len() > len {
            let lit = self.trail.pop().expect("trail shrinks to len");
            self.assign[lit.var().index()] = 0;
        }
        self.prop_head = self.prop_head.min(len);
    }

    /// Watched-literal unit propagation. Returns `true` on conflict.
    fn propagate(&mut self) -> bool {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            let falsified = !lit;
            let fcode = falsified.code();
            let mut i = 0;
            'clauses: while i < self.watches[fcode].len() {
                let ci = self.watches[fcode][i] as usize;
                let (start, end) = self.bounds[ci];
                let (s, e) = (start as usize, end as usize);
                // Keep the falsified literal in the second watch slot.
                if self.lits[s] == falsified {
                    self.lits.swap(s, s + 1);
                }
                let other = self.lits[s];
                if self.value(other) == Some(true) {
                    i += 1;
                    continue;
                }
                // Hunt for a non-false replacement watch.
                for k in s + 2..e {
                    let cand = self.lits[k];
                    if self.value(cand) != Some(false) {
                        self.lits.swap(s + 1, k);
                        self.watches[fcode].swap_remove(i);
                        self.watches[cand.code()].push(ci as u32);
                        continue 'clauses;
                    }
                }
                // Every other literal is false: unit or conflict.
                match self.value(other) {
                    Some(false) => return true,
                    None => {
                        self.enqueue(other);
                        i += 1;
                    }
                    Some(true) => unreachable!("handled above"),
                }
            }
        }
        false
    }

    /// Next unassigned variable in activity order, advancing the cursor.
    fn pick_branch(&mut self) -> Option<Var> {
        while self.cursor < self.order.len() {
            let v = self.order[self.cursor];
            if self.assign[v.index()] == 0 {
                return Some(v);
            }
            self.cursor += 1;
        }
        None
    }

    /// Chronological backtracking: undo exhausted levels, flip the
    /// deepest untried decision. Returns `false` when the root level is
    /// reached (overall unsatisfiability under the assumptions).
    fn backtrack_flip(&mut self) -> bool {
        loop {
            let Some(&Level {
                trail_start,
                cursor,
                flipped,
            }) = self.levels.last()
            else {
                return false;
            };
            if flipped {
                self.levels.pop();
                self.undo_to(trail_start);
                self.cursor = cursor;
            } else {
                let decision = self.trail[trail_start];
                self.undo_to(trail_start);
                self.cursor = cursor;
                let level = self.levels.last_mut().expect("level checked above");
                level.flipped = true;
                self.enqueue(!decision);
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_logic::prop::Solver;

    #[test]
    fn empty_solver_is_sat() {
        let mut s = DpllSolver::new();
        assert!(s.check());
        assert_eq!(s.num_vars(), 0);
        assert_eq!(s.num_clauses(), 0);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = DpllSolver::new();
        s.add_clause(&[]);
        assert!(!s.check());
        assert_eq!(s.num_clauses(), 1);
    }

    #[test]
    fn unit_propagation_chain() {
        // p, p->q, q->r ... forced all the way; ~last is unsat.
        let mut s = DpllSolver::new();
        let vars: Vec<Var> = (0..20).map(|_| s.new_var()).collect();
        s.add_clause(&[vars[0].positive()]);
        for w in vars.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        assert!(s.check());
        for v in &vars {
            assert_eq!(s.var_value(*v), Some(true));
        }
        s.assume(vars[19].negative());
        assert!(!s.check());
        s.retract_all();
        assert!(s.check());
    }

    #[test]
    fn assume_retract_session_reuses_database() {
        let mut s = DpllSolver::new();
        let p = s.new_var();
        let q = s.new_var();
        let r = s.new_var();
        // (p | q) & (~p | r)
        s.add_clause(&[p.positive(), q.positive()]);
        s.add_clause(&[p.negative(), r.positive()]);
        assert!(s.check());
        s.assume(p.positive());
        s.assume(r.negative());
        assert!(!s.check());
        assert_eq!(s.retract(), Some(r.negative()));
        assert!(s.check());
        assert_eq!(s.value(r.positive()), Some(true));
        s.assume(q.negative());
        assert!(s.check()); // p & ~q & r works
        assert_eq!(s.assumptions().len(), 2);
        s.retract_all();
        assert!(s.check());
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: each pigeon somewhere, no hole shared.
        let mut s = DpllSolver::new();
        let at: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for p in &at {
            s.add_clause(&[p[0].positive(), p[1].positive()]);
        }
        for a in 0..3 {
            for b in a + 1..3 {
                for (x, y) in at[a].iter().zip(&at[b]) {
                    s.add_clause(&[x.negative(), y.negative()]);
                }
            }
        }
        assert!(!s.check());
    }

    #[test]
    fn model_satisfies_every_clause() {
        let mut s = DpllSolver::new();
        let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
        let clauses: Vec<Vec<Lit>> = (0..12)
            .map(|i| {
                (0..3)
                    .map(|j| {
                        let v = vars[(i * 3 + j * 5) % 8];
                        v.lit((i + j) % 2 == 0)
                    })
                    .collect()
            })
            .collect();
        for c in &clauses {
            s.add_clause(c);
        }
        assert!(s.check());
        for c in &clauses {
            assert!(
                c.iter().any(|&l| s.value(l) == Some(true)),
                "model falsifies a clause"
            );
        }
    }

    #[test]
    fn incremental_clause_add_after_check() {
        let mut s = DpllSolver::new();
        let p = s.new_var();
        assert!(s.check());
        s.add_clause(&[p.positive()]);
        assert!(s.check());
        assert_eq!(s.var_value(p), Some(true));
        s.add_clause(&[p.negative()]);
        assert!(!s.check());
    }

    #[test]
    fn solver_agrees_with_dpll_baseline_on_scripted_sessions() {
        // Same clause database, same assumption script, both engines.
        let clauses: Vec<Vec<(u32, bool)>> = vec![
            vec![(0, true), (1, true), (2, false)],
            vec![(0, false), (3, true)],
            vec![(3, false), (4, true)],
            vec![(1, false), (4, false)],
            vec![(2, true), (5, true)],
            vec![(4, true), (5, false), (6, true)],
            vec![(6, false), (7, true)],
            vec![(7, false), (0, true), (5, true)],
        ];
        let mut cdcl = Solver::new();
        let mut base = DpllSolver::new();
        let cv: Vec<Var> = (0..8).map(|_| cdcl.new_var()).collect();
        let bv: Vec<Var> = (0..8).map(|_| base.new_var()).collect();
        for c in &clauses {
            let cc: Vec<Lit> = c.iter().map(|&(v, pos)| cv[v as usize].lit(pos)).collect();
            let bc: Vec<Lit> = c.iter().map(|&(v, pos)| bv[v as usize].lit(pos)).collect();
            cdcl.add_clause(&cc);
            base.add_clause(&bc);
        }
        let script: Vec<Vec<(u32, bool)>> = vec![
            vec![],
            vec![(0, true)],
            vec![(0, true), (4, false)],
            vec![(1, true), (5, false)],
            vec![(2, false), (6, true), (7, false)],
            vec![(3, true), (4, true), (1, true)],
        ];
        for assumptions in &script {
            for &(v, pos) in assumptions {
                cdcl.assume(cv[v as usize].lit(pos));
                base.assume(bv[v as usize].lit(pos));
            }
            assert_eq!(
                cdcl.check(),
                base.check(),
                "engines disagree under {assumptions:?}"
            );
            cdcl.retract_all();
            base.retract_all();
        }
    }
}
