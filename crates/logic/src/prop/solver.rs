//! The conflict-driven solver core: packed-literal clause arena,
//! CDCL search (first-UIP clause learning, non-chronological
//! backjumping, VSIDS decisions with phase saving, learned-clause
//! garbage collection), and incremental assume/check/retract sessions.
//!
//! This is the engine behind every entailment query in the workspace.
//! The seed path (now the oracle `casekit_oracle::legacy`) re-derives a
//! `BTreeSet<Literal>` clause set and recursively solves it per query;
//! the chronological DPLL it replaced is the oracle
//! `casekit_oracle::DpllSolver` (the differential-testing baseline).
//! The [`Solver`] here keeps one flat clause database and answers many
//! queries against it, learning across conflicts *and across checks*:
//!
//! * **two watched literals** — each clause is indexed by two of its
//!   literals; propagation touches a clause only when a watched literal
//!   is falsified, instead of rescanning every clause per round;
//! * **trail + decision levels** — assignments are pushed onto a trail
//!   with per-variable decision levels and *reasons* (the clause that
//!   propagated each implied literal), which together form the
//!   implication graph conflict analysis walks;
//! * **first-UIP learning** — every conflict is resolved back to its
//!   first unique implication point ([`analyze`]), yielding a clause
//!   that is a consequence of the database alone and that immediately
//!   propagates after backjumping;
//! * **non-chronological backjumping** — instead of flipping the
//!   deepest decision, search jumps straight to the second-highest
//!   level in the learned clause, discarding every decision the
//!   conflict proved irrelevant;
//! * **VSIDS + phase saving** ([`vsids`]) — decisions follow
//!   conflict-driven activity, and re-entered variables resume their
//!   last polarity;
//! * **restarts + clause GC** — Luby-scheduled restarts escape stuck
//!   regions (phase saving preserves progress), and the learned-clause
//!   store is garbage-collected under an LBD/activity budget whenever
//!   the search is back at the root;
//! * **sessions** — [`Solver::assume`] / [`Solver::check`] /
//!   [`Solver::retract`] answer a stream of queries over one fixed
//!   clause database. Assumptions enter the search as *decisions*, so
//!   learned clauses never depend on them and stay valid after
//!   `retract` — the clause store keeps getting smarter as a session
//!   progresses.
//!
//! # Invariants
//!
//! The trail is partitioned into decision levels by `trail_lim`
//! (`trail_lim[d]` is the index of the first literal of level `d + 1`;
//! level 0 holds root facts). Every trail literal is either a decision
//! (reason `NO_REASON`) or was forced by exactly one clause whose
//! other literals were all false earlier on the trail — that clause is
//! its reason, and the reasons form the implication graph. Propagation
//! maintains the watched-literal invariant: a watched literal is only
//! false while the clause's other watch is true, or the clause has
//! been visited and found unit/conflicting. The VSIDS heap holds every
//! unassigned variable and may also hold assigned ones: a decision
//! pops past them to the first unassigned variable, and a SAT answer,
//! declared once the trail holds every variable, leaves them in place
//! rather than draining the heap. Garbage collection runs
//! only at level 0, where it may also strip root-false literals and
//! drop root-satisfied clauses (sound: root facts are consequences of
//! the database), then rebuilds every watch list.
//!
//! [`Theory`] sits on top: it Tseitin-compiles [`Formula`]s directly
//! into packed literals (no intermediate `Clause` sets) against an
//! [`AtomTable`], and bridges models back to [`Valuation`]s.

pub mod analyze;
pub mod vsids;

use super::ast::{Atom, Formula};
use super::cnf::ClauseSet;
use super::eval::Valuation;
use super::intern::{AtomTable, Lit, Var};
use analyze::{Analyzer, ImplicationGraph};
use std::collections::hash_map::{Entry, HashMap};
use vsids::Vsids;

/// Reason sentinel: the variable was a decision (or an assumption, or a
/// root fact with no surviving reason).
const NO_REASON: u32 = u32::MAX;

/// Conflicts before the first restart; later restarts scale by the Luby
/// sequence.
const RESTART_BASE: u64 = 100;

/// Learned clauses with an LBD at or below this are "glue" and survive
/// every garbage collection.
const GLUE_LBD: u32 = 2;

/// One stored clause: bounds into the shared literal arena plus the
/// learned-clause metadata the garbage collector ranks by.
#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    /// First literal's index in the arena.
    start: u32,
    /// Number of literals.
    len: u32,
    /// Whether the clause was learned (GC candidates) or added by the
    /// caller (permanent).
    learned: bool,
    /// Literal-block distance at learning time (lower = more valuable).
    lbd: u32,
    /// Conflict-participation activity (bumped when the clause is a
    /// reason in an analyzed conflict).
    activity: f64,
}

/// Cumulative search counters for one [`Solver`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions (assumptions included).
    pub decisions: u64,
    /// Literals enqueued by unit propagation.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts taken.
    pub restarts: u64,
    /// Clauses learned (units included).
    pub learned: u64,
    /// Learned clauses dropped by garbage collection.
    pub learned_dropped: u64,
    /// Root-level simplification + GC passes.
    pub simplifications: u64,
}

/// An incremental CDCL SAT solver over packed literals.
///
/// Clauses are permanent once added; queries vary through assumptions,
/// and everything the solver learns from one query carries over to the
/// next. A typical session:
///
/// ```
/// use casekit_logic::prop::solver::Solver;
/// let mut s = Solver::new();
/// let p = s.new_var();
/// let q = s.new_var();
/// s.add_clause(&[p.negative(), q.positive()]); // p -> q
/// s.assume(p.positive());
/// s.assume(q.negative());
/// assert!(!s.check()); // p & ~q contradicts p -> q
/// s.retract(); // drop ~q
/// assert!(s.check());
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    /// Flat clause arena: every clause's literals, back to back. Slots
    /// `start` and `start + 1` of each clause hold its two watches.
    lits: Vec<Lit>,
    /// Clause headers (problem and learned interleaved).
    headers: Vec<ClauseHeader>,
    /// Per literal code: indices of clauses currently watching it.
    watches: Vec<Vec<u32>>,
    /// Unit clauses (caller-added and learned), re-asserted at the
    /// start of every check.
    units: Vec<Lit>,
    /// Scratch [`Solver::add_clause`] normalises each clause in.
    clause_buf: Vec<Lit>,
    /// Whether the database is known unsatisfiable (empty clause added
    /// or derived).
    empty_clause: bool,
    /// Per variable: `0` unassigned, `1` true, `-1` false.
    assign: Vec<i8>,
    /// Per variable: decision level of the current assignment.
    level: Vec<u32>,
    /// Per variable: clause that propagated it, or [`NO_REASON`].
    reason: Vec<u32>,
    /// Assigned literals in assignment order.
    trail: Vec<Lit>,
    /// Decision-level boundaries: `trail_lim[d]` is where level `d + 1`
    /// starts.
    trail_lim: Vec<usize>,
    /// Propagation queue head (index into `trail`).
    prop_head: usize,
    /// Decision heuristic: activity heap + saved phases.
    vsids: Vsids,
    /// First-UIP conflict analyzer (owns its scratch).
    analyzer: Analyzer,
    /// Current assumption stack.
    assumptions: Vec<Lit>,
    /// Live learned (non-GC'd) clause count.
    learned_live: usize,
    /// Non-learned clause count (for the GC budget formula).
    problem_count: usize,
    /// Override for the learned-clause budget; tests set a tiny one to
    /// exercise collection.
    budget_override: Option<usize>,
    /// Live learned count right after the last GC pass — a GC only
    /// re-arms once new clauses have been learned past it, so a pass
    /// that cannot get below budget (all glue) never loops.
    gc_floor: usize,
    /// Current clause-activity bump increment.
    cla_inc: f64,
    /// Whether the level-0 prefix of the trail is a propagation
    /// fixpoint of the current database, reusable by the next check
    /// without re-propagating every persisted unit. Invalidated by any
    /// database mutation (every mutation path runs [`Solver::unwind_all`]).
    root_trail_valid: bool,
    /// How many entries of `units` the persistent root trail already
    /// accounts for; a check only enqueues the suffix.
    units_propagated: usize,
    /// Cumulative search counters.
    stats: SolverStats,
}

/// The implication-graph view conflict analysis reads: disjoint borrows
/// of the solver's arrays, so the analyzer (a separate field) can be
/// borrowed mutably alongside.
struct TrailGraph<'a> {
    lits: &'a [Lit],
    headers: &'a [ClauseHeader],
    level: &'a [u32],
    reason: &'a [u32],
}

impl ImplicationGraph for TrailGraph<'_> {
    fn level_of(&self, v: Var) -> u32 {
        self.level[v.index()]
    }

    fn reason_of(&self, v: Var) -> Option<&[Lit]> {
        match self.reason[v.index()] {
            NO_REASON => None,
            r => {
                let h = &self.headers[r as usize];
                Some(&self.lits[h.start as usize..(h.start + h.len) as usize])
            }
        }
    }
}

/// Value of `x` in the Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …),
/// indexed from 0.
fn luby(mut x: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// What the decision phase of the search loop produced.
enum Decide {
    /// Every variable is assigned: the database is satisfiable and the
    /// trail is a model.
    Sat,
    /// An assumption is falsified by the current (root-implied) state.
    Unsat,
    /// A new decision was enqueued; propagate next.
    Decided,
}

impl Default for Solver {
    /// Identical to [`Solver::new`] — written out by hand because the
    /// clause-activity increment must start at 1.0 (a derived `0.0`
    /// would silently disable activity-ranked garbage collection for
    /// every solver built through `Default`, e.g. via `Theory::new`).
    fn default() -> Self {
        Solver {
            lits: Vec::new(),
            headers: Vec::new(),
            watches: Vec::new(),
            units: Vec::new(),
            clause_buf: Vec::new(),
            empty_clause: false,
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            vsids: Vsids::new(),
            analyzer: Analyzer::new(),
            assumptions: Vec::new(),
            learned_live: 0,
            problem_count: 0,
            budget_override: None,
            gc_floor: 0,
            cla_inc: 1.0,
            root_trail_valid: false,
            units_propagated: 0,
            stats: SolverStats::default(),
        }
    }
}

impl Solver {
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
        let v = Var(index);
        self.assign.push(0);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.vsids.grow();
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of stored non-unit caller clauses plus persisted units.
    /// The unit store mixes caller-added units with root facts the
    /// search derived (learned units, simplification products), and
    /// root simplification may drop satisfied clauses — so this count
    /// can drift in both directions across checks; treat it as a
    /// database-size indicator, not an invariant. Learned non-unit
    /// clauses are counted by [`Solver::num_learned`] instead.
    pub fn num_clauses(&self) -> usize {
        self.problem_count + self.units.len() + usize::from(self.empty_clause)
    }

    /// Number of live learned clauses (excluding learned units, which
    /// merge into the unit store).
    pub fn num_learned(&self) -> usize {
        self.learned_live
    }

    /// Cumulative search counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    fn learned_budget(&self) -> usize {
        self.budget_override
            .unwrap_or_else(|| 2000 + self.problem_count / 2)
    }

    /// Adds a permanent clause (a disjunction of `lits`).
    ///
    /// Duplicate literals collapse; tautologous clauses (`p | ~p | …`)
    /// are dropped; the empty clause marks the database unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if any literal's variable was not allocated by
    /// [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: &[Lit]) {
        for l in lits {
            assert!(
                l.var().index() < self.assign.len(),
                "literal {l} references an unallocated variable"
            );
        }
        // Mutating the database invalidates the current trail.
        self.unwind_all();
        // Normalise: sort by code, drop duplicates, detect tautology
        // (complementary literals are adjacent codes after sorting).
        let mut clause = std::mem::take(&mut self.clause_buf);
        clause.clear();
        clause.extend_from_slice(lits);
        clause.sort_unstable_by_key(|l| l.code());
        clause.dedup();
        if !clause.windows(2).any(|w| w[0] == !w[1]) {
            match clause.len() {
                0 => self.empty_clause = true,
                1 => self.units.push(clause[0]),
                _ => {
                    self.store_clause(&clause, false, 0);
                    self.problem_count += 1;
                }
            }
        }
        self.clause_buf = clause;
    }

    /// Appends a clause to the arena, watching its first two literals.
    /// Returns the clause index.
    fn store_clause(&mut self, clause: &[Lit], learned: bool, lbd: u32) -> u32 {
        debug_assert!(clause.len() >= 2);
        let start = u32::try_from(self.lits.len()).expect("clause arena fits in u32");
        let ci = u32::try_from(self.headers.len()).expect("clause count fits in u32");
        self.watches[clause[0].code()].push(ci);
        self.watches[clause[1].code()].push(ci);
        self.lits.extend_from_slice(clause);
        self.headers.push(ClauseHeader {
            start,
            len: clause.len() as u32,
            learned,
            lbd,
            activity: if learned { self.cla_inc } else { 0.0 },
        });
        ci
    }

    /// Pushes an assumption for subsequent [`Solver::check`] calls.
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
    /// [`Solver::value`] until the next mutation: SAT is declared once
    /// the trail holds every variable, so the model is total.
    ///
    /// Clauses learned while answering one check persist into the next:
    /// assumptions enter the search as decisions, so every learned
    /// clause is a consequence of the database alone.
    ///
    /// The level-0 trail also persists between checks (incremental-SAT
    /// style): every literal on it is a consequence of the database
    /// alone — units, their propagation cone, and learned root facts —
    /// so a back-to-back check resumes from that fixpoint instead of
    /// re-propagating it, and only enqueues units persisted since. Any
    /// database mutation unwinds the trail and drops the reuse.
    pub fn check(&mut self) -> bool {
        if self.empty_clause {
            return false;
        }
        if self.root_trail_valid {
            self.cancel_until(0);
        } else {
            self.unwind_all();
        }
        // Root level: every persisted unit (caller-added and learned)
        // the trail does not already carry.
        for i in self.units_propagated..self.units.len() {
            let lit = self.units[i];
            match self.lit_value(lit) {
                Some(true) => {}
                Some(false) => {
                    // Two persisted units conflict: the database itself
                    // is unsatisfiable.
                    self.empty_clause = true;
                    return false;
                }
                None => self.enqueue(lit, NO_REASON),
            }
        }
        self.units_propagated = self.units.len();
        let sat = self.search();
        self.root_trail_valid = !self.empty_clause;
        sat
    }

    /// The literal's value under the current (partial) assignment.
    pub fn value(&self, lit: Lit) -> Option<bool> {
        self.lit_value(lit)
    }

    /// The variable's value under the current (partial) assignment.
    pub fn var_value(&self, var: Var) -> Option<bool> {
        match self.assign[var.index()] {
            0 => None,
            v => Some(v > 0),
        }
    }

    #[inline]
    fn lit_value(&self, lit: Lit) -> Option<bool> {
        match self.assign[lit.var().index()] {
            0 => None,
            v => Some((v > 0) == lit.is_positive()),
        }
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    #[inline]
    fn enqueue(&mut self, lit: Lit, reason: u32) {
        debug_assert!(
            self.lit_value(lit).is_none(),
            "enqueue of an assigned literal"
        );
        let vi = lit.var().index();
        self.assign[vi] = if lit.is_positive() { 1 } else { -1 };
        self.level[vi] = self.decision_level() as u32;
        self.reason[vi] = reason;
        self.trail.push(lit);
    }

    /// Unwinds the trail completely (used between checks and before
    /// database mutation), saving phases and re-enqueueing decision
    /// candidates.
    ///
    /// Re-inserting only the trail's variables restores the
    /// "unassigned ⇒ enqueued" heap invariant in O(trail): a variable
    /// only ever leaves the heap by being popped in `next_decision`,
    /// and every popped variable is (or already was) assigned — i.e.
    /// on the trail.
    fn unwind_all(&mut self) {
        self.root_trail_valid = false;
        self.units_propagated = 0;
        for i in (0..self.trail.len()).rev() {
            let lit = self.trail[i];
            let vi = lit.var().index();
            self.vsids.save_phase(lit.var(), lit.is_positive());
            self.assign[vi] = 0;
            self.reason[vi] = NO_REASON;
            self.vsids.insert(lit.var());
        }
        self.trail.clear();
        self.trail_lim.clear();
        self.prop_head = 0;
    }

    /// Backjumps to `target_level`, undoing every deeper assignment.
    fn cancel_until(&mut self, target_level: usize) {
        if self.decision_level() <= target_level {
            return;
        }
        let start = self.trail_lim[target_level];
        for i in (start..self.trail.len()).rev() {
            let lit = self.trail[i];
            let vi = lit.var().index();
            self.vsids.save_phase(lit.var(), lit.is_positive());
            self.assign[vi] = 0;
            self.reason[vi] = NO_REASON;
            self.vsids.insert(lit.var());
        }
        self.trail.truncate(start);
        self.trail_lim.truncate(target_level);
        self.prop_head = start;
    }

    /// The CDCL loop: propagate, analyze/learn/backjump on conflict,
    /// restart on the Luby schedule, GC at the root, decide otherwise.
    fn search(&mut self) -> bool {
        let mut conflicts_since_restart: u64 = 0;
        let mut restarts_this_check: u64 = 0;
        let mut restart_threshold = RESTART_BASE * luby(0);
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    // A root conflict refutes the database itself
                    // (assumptions live on decision levels ≥ 1).
                    self.empty_clause = true;
                    return false;
                }
                self.learn_from(conflict);
            } else {
                // Root fixpoint: the only place clause GC is sound.
                if self.decision_level() == 0
                    && self.learned_live > self.learned_budget()
                    && self.learned_live > self.gc_floor
                {
                    if !self.simplify_and_reduce() {
                        return false;
                    }
                    self.gc_floor = self.learned_live;
                    continue; // propagate any units the rebuild surfaced
                }
                if conflicts_since_restart >= restart_threshold {
                    conflicts_since_restart = 0;
                    restarts_this_check += 1;
                    self.stats.restarts += 1;
                    restart_threshold = RESTART_BASE * luby(restarts_this_check);
                    self.cancel_until(0);
                    continue;
                }
                match self.next_decision() {
                    Decide::Sat => return true,
                    Decide::Unsat => return false,
                    Decide::Decided => {}
                }
            }
        }
    }

    /// Watched-literal unit propagation. Returns the conflicting clause
    /// index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            let falsified = !lit;
            let fcode = falsified.code();
            let mut i = 0;
            'clauses: while i < self.watches[fcode].len() {
                let ci = self.watches[fcode][i] as usize;
                let h = self.headers[ci];
                let (s, e) = (h.start as usize, (h.start + h.len) as usize);
                // Keep the falsified literal in the second watch slot.
                if self.lits[s] == falsified {
                    self.lits.swap(s, s + 1);
                }
                let other = self.lits[s];
                if self.lit_value(other) == Some(true) {
                    i += 1;
                    continue;
                }
                // Hunt for a non-false replacement watch.
                for k in s + 2..e {
                    let cand = self.lits[k];
                    if self.lit_value(cand) != Some(false) {
                        self.lits.swap(s + 1, k);
                        self.watches[fcode].swap_remove(i);
                        self.watches[cand.code()].push(ci as u32);
                        continue 'clauses;
                    }
                }
                // Every other literal is false: unit or conflict.
                match self.lit_value(other) {
                    Some(false) => return Some(ci as u32),
                    None => {
                        self.stats.propagations += 1;
                        self.enqueue(other, ci as u32);
                        i += 1;
                    }
                    Some(true) => unreachable!("handled above"),
                }
            }
        }
        None
    }

    /// Conflict response: first-UIP analysis, activity bumps, backjump,
    /// learned-clause insertion, and assertion of the UIP literal.
    fn learn_from(&mut self, conflict: u32) {
        let current_level = self.decision_level() as u32;
        let analysis = {
            let Self {
                ref lits,
                ref headers,
                ref level,
                ref reason,
                ref trail,
                ref mut analyzer,
                ..
            } = *self;
            let graph = TrailGraph {
                lits,
                headers,
                level,
                reason,
            };
            let h = &headers[conflict as usize];
            let conflict_lits = &lits[h.start as usize..(h.start + h.len) as usize];
            analyzer.analyze(&graph, trail, current_level, conflict_lits)
        };

        // Variable activity: everyone who took part in the resolution.
        for &v in &analysis.touched {
            self.vsids.bump(v);
        }
        self.vsids.decay();
        // Clause activity: every learned clause used as a reason at the
        // conflict level.
        self.bump_reason_clauses(&analysis.touched, current_level);

        self.stats.learned += 1;
        self.cancel_until(analysis.backjump as usize);
        if analysis.learned.len() == 1 {
            // A learned unit is a root fact of the database: persist it
            // alongside the caller's units for every future check.
            let lit = analysis.learned[0];
            self.units.push(lit);
            debug_assert!(self.lit_value(lit).is_none());
            self.enqueue(lit, NO_REASON);
        } else {
            let ci = self.store_clause(&analysis.learned, true, analysis.lbd);
            self.learned_live += 1;
            self.enqueue(analysis.learned[0], ci);
        }
        self.analyzer.recycle(analysis);
    }

    fn bump_reason_clauses(&mut self, touched: &[Var], current_level: u32) {
        for &v in touched {
            if self.level[v.index()] != current_level {
                continue;
            }
            let r = self.reason[v.index()];
            if r == NO_REASON {
                continue;
            }
            let h = &mut self.headers[r as usize];
            if h.learned {
                h.activity += self.cla_inc;
                if h.activity > 1e20 {
                    for header in &mut self.headers {
                        header.activity *= 1e-20;
                    }
                    self.cla_inc *= 1e-20;
                }
            }
        }
        self.cla_inc /= 0.999;
    }

    /// Places the next decision: pending assumptions first (as
    /// decisions, so learning never depends on them), then the highest-
    /// activity unassigned variable in its saved phase.
    fn next_decision(&mut self) -> Decide {
        while self.decision_level() < self.assumptions.len() {
            let a = self.assumptions[self.decision_level()];
            match self.lit_value(a) {
                Some(true) => {
                    // Already implied: open an empty level to keep the
                    // level ↔ assumption-index correspondence.
                    self.trail_lim.push(self.trail.len());
                }
                Some(false) => return Decide::Unsat,
                None => {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(a, NO_REASON);
                    return Decide::Decided;
                }
            }
        }
        // Every variable is on the trail: a model. Assigned variables
        // left in the heap are dropped when a later pop reaches them.
        if self.trail.len() == self.num_vars() {
            return Decide::Sat;
        }
        loop {
            let v = self
                .vsids
                .pop()
                .expect("every unassigned variable is enqueued");
            if self.assign[v.index()] == 0 {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(v.lit(self.vsids.phase(v)), NO_REASON);
                return Decide::Decided;
            }
        }
    }

    /// Root-level database maintenance: drop clauses satisfied by root
    /// facts, strip root-false literals, garbage-collect learned
    /// clauses over the LBD/activity budget, rebuild the arena and
    /// every watch list. Returns `false` if the rebuild refuted the
    /// database.
    ///
    /// Sound because every root fact is a consequence of the database
    /// (assumptions are decisions on levels ≥ 1 and never reach level
    /// 0), so stripping preserves the model set; only callable at the
    /// root propagation fixpoint.
    fn simplify_and_reduce(&mut self) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "GC runs only at the root");
        self.stats.simplifications += 1;

        // Root facts become the persistent unit set; their reasons die
        // with the clause indices below.
        self.units.clear();
        self.units.extend_from_slice(&self.trail);
        for i in 0..self.trail.len() {
            let vi = self.trail[i].var().index();
            self.reason[vi] = NO_REASON;
        }

        // Rank the learned clauses; everything beyond the budget dies,
        // glue clauses (LBD ≤ GLUE_LBD) always survive.
        let mut keep = vec![true; self.headers.len()];
        let mut live: Vec<u32> = (0..self.headers.len() as u32)
            .filter(|&ci| self.headers[ci as usize].learned)
            .collect();
        if live.len() > self.learned_budget() {
            let headers = &self.headers;
            live.sort_by(|&a, &b| {
                let (ha, hb) = (&headers[a as usize], &headers[b as usize]);
                ha.lbd
                    .cmp(&hb.lbd)
                    .then(
                        hb.activity
                            .partial_cmp(&ha.activity)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                    .then(a.cmp(&b))
            });
            let keep_n = (self.learned_budget() / 2).max(1);
            for &ci in live.iter().skip(keep_n) {
                if headers[ci as usize].lbd > GLUE_LBD {
                    keep[ci as usize] = false;
                    self.stats.learned_dropped += 1;
                }
            }
        }

        // Rebuild the arena: surviving clauses, minus satisfied ones,
        // minus root-false literals.
        let old_lits = std::mem::take(&mut self.lits);
        let old_headers = std::mem::take(&mut self.headers);
        for w in &mut self.watches {
            w.clear();
        }
        self.problem_count = 0;
        self.learned_live = 0;
        let mut scratch: Vec<Lit> = Vec::new();
        for (ci, h) in old_headers.iter().enumerate() {
            if !keep[ci] {
                continue;
            }
            let clause = &old_lits[h.start as usize..(h.start + h.len) as usize];
            if clause.iter().any(|&l| self.lit_value(l) == Some(true)) {
                continue;
            }
            scratch.clear();
            scratch.extend(clause.iter().filter(|&&l| self.lit_value(l).is_none()));
            match scratch.len() {
                0 => {
                    // Cannot happen at a propagation fixpoint (the
                    // clause would have conflicted), but refute safely.
                    self.empty_clause = true;
                    return false;
                }
                1 => {
                    // Became unit under the root facts: persist and
                    // enqueue so propagation resumes from it.
                    self.units.push(scratch[0]);
                    self.enqueue(scratch[0], NO_REASON);
                }
                _ => {
                    self.store_clause(&scratch, h.learned, h.lbd);
                    let stored = self.headers.last_mut().expect("just stored");
                    stored.activity = h.activity;
                    if h.learned {
                        self.learned_live += 1;
                    } else {
                        self.problem_count += 1;
                    }
                }
            }
        }
        // The rebuilt unit store is exactly the root trail (plus the
        // newly-unit clauses enqueued above): all accounted for.
        self.units_propagated = self.units.len();
        true
    }
}

/// A compiled propositional theory: an [`AtomTable`], a [`Solver`], and
/// a Tseitin compiler from [`Formula`]s straight to packed literals.
///
/// Every distinct binary connective over operand literals is defined by
/// one variable with full biconditional definition clauses, so the
/// returned literal is *equivalent* to the formula in every model —
/// which makes both the literal and its negation usable as assumptions.
/// That is what turns entailment probing into a session over one clause
/// database:
///
/// ```
/// use casekit_logic::prop::{parse, solver::Theory};
/// let mut th = Theory::new();
/// let rule = th.formula_lit(&parse("p -> q").unwrap());
/// let p = th.formula_lit(&parse("p").unwrap());
/// let q = th.formula_lit(&parse("q").unwrap());
/// // {p -> q, p} ⊢ q: assuming the premises and ~q is unsatisfiable.
/// th.assume(rule);
/// th.assume(p);
/// th.assume(!q);
/// assert!(!th.check());
/// th.retract(); // drop ~q: the premises alone are consistent
/// assert!(th.check());
/// // A formula compiled before keeps its literal and adds nothing.
/// let vars = th.num_vars();
/// assert_eq!(th.formula_lit(&parse("p -> q").unwrap()), rule);
/// assert_eq!(th.num_vars(), vars);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Theory {
    solver: Solver,
    atoms: AtomTable,
    /// Lazily created constant-true variable.
    true_lit: Option<Lit>,
    /// The definition table, one map per [`Connective`]: the literal
    /// defined for the connective over an operand pair, keyed by both
    /// operand codes side by side (exact, since a code is 32 bits).
    /// std's keyed hasher stays because formula shape is user input.
    definitions: [HashMap<u64, Lit>; 4],
    /// Connective occurrences answered from `definitions` (cumulative).
    shared: usize,
}

/// The binary connectives, each an index into [`Theory`]'s definition
/// table.
#[derive(Clone, Copy)]
enum Connective {
    And,
    Or,
    Implies,
    Iff,
}

/// Adds the binary connectives of `formula` to `counts`, one slot per
/// [`Connective`].
fn count_connectives(formula: &Formula, counts: &mut [usize; 4]) {
    let (op, l, r) = match formula {
        Formula::True | Formula::False | Formula::Atom(_) => return,
        Formula::Not(inner) => return count_connectives(inner, counts),
        Formula::And(l, r) => (Connective::And, l, r),
        Formula::Or(l, r) => (Connective::Or, l, r),
        Formula::Implies(l, r) => (Connective::Implies, l, r),
        Formula::Iff(l, r) => (Connective::Iff, l, r),
    };
    counts[op as usize] += 1;
    count_connectives(l, counts);
    count_connectives(r, counts);
}

impl Theory {
    /// An empty theory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The atom interner (name ↔ solver variable).
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// Number of solver variables (atoms plus Tseitin definitions).
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Number of clauses in the database.
    pub fn num_clauses(&self) -> usize {
        self.solver.num_clauses()
    }

    /// The underlying solver's cumulative search counters.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Number of live learned (non-unit) clauses in the session.
    pub fn num_learned(&self) -> usize {
        self.solver.num_learned()
    }

    /// Connective occurrences [`formula_lit`](Self::formula_lit) has
    /// answered with an existing definition instead of a fresh variable
    /// (cumulative). Fresh variables plus shared definitions is what a
    /// compiler with one definition per occurrence would allocate.
    pub fn shared_definitions(&self) -> usize {
        self.shared
    }

    /// Sizes the definition table for compiling `formulas`: room for
    /// one new definition per binary connective they contain, so the
    /// compile that follows never rehashes.
    pub fn reserve_definitions<'a>(&mut self, formulas: impl IntoIterator<Item = &'a Formula>) {
        let mut counts = [0; 4];
        for formula in formulas {
            count_connectives(formula, &mut counts);
        }
        for (table, count) in self.definitions.iter_mut().zip(counts) {
            table.reserve(count);
        }
    }

    /// The positive literal for `atom`, interning it on first sight.
    pub fn atom_lit(&mut self, atom: &Atom) -> Lit {
        let solver = &mut self.solver;
        self.atoms.intern_with(atom, || solver.new_var()).positive()
    }

    /// A literal constrained true in every model.
    fn constant_true(&mut self) -> Lit {
        if let Some(t) = self.true_lit {
            return t;
        }
        let t = self.solver.new_var().positive();
        self.solver.add_clause(&[t]);
        self.true_lit = Some(t);
        t
    }

    /// Compiles `formula` to an equivalent literal, adding Tseitin
    /// definition clauses (full biconditionals) to the database.
    ///
    /// There is one definition per distinct connective over operand
    /// literals, not one per occurrence: a formula or sub-formula this
    /// theory compiled before, in this call or an earlier one, gets its
    /// old literal back and adds no variable or clause.
    pub fn formula_lit(&mut self, formula: &Formula) -> Lit {
        match formula {
            Formula::True => self.constant_true(),
            Formula::False => !self.constant_true(),
            Formula::Atom(a) => self.atom_lit(a),
            Formula::Not(inner) => !self.formula_lit(inner),
            Formula::And(l, r) => self.define(Connective::And, l, r),
            Formula::Or(l, r) => self.define(Connective::Or, l, r),
            Formula::Implies(l, r) => self.define(Connective::Implies, l, r),
            Formula::Iff(l, r) => self.define(Connective::Iff, l, r),
        }
    }

    /// The literal for `l op r`: the table's, or a fresh variable with
    /// its definition clauses.
    fn define(&mut self, op: Connective, l: &Formula, r: &Formula) -> Lit {
        let a = self.formula_lit(l);
        let b = self.formula_lit(r);
        let key = u64::from(a.0) << 32 | u64::from(b.0);
        let slot = match self.definitions[op as usize].entry(key) {
            Entry::Occupied(known) => {
                self.shared += 1;
                return *known.get();
            }
            Entry::Vacant(slot) => slot,
        };
        let x = self.solver.new_var().positive();
        slot.insert(x);
        let solver = &mut self.solver;
        match op {
            Connective::And => {
                // x <-> a & b
                solver.add_clause(&[!x, a]);
                solver.add_clause(&[!x, b]);
                solver.add_clause(&[x, !a, !b]);
            }
            Connective::Or => {
                // x <-> a | b
                solver.add_clause(&[!x, a, b]);
                solver.add_clause(&[x, !a]);
                solver.add_clause(&[x, !b]);
            }
            Connective::Implies => {
                // x <-> (a -> b)
                solver.add_clause(&[!x, !a, b]);
                solver.add_clause(&[x, a]);
                solver.add_clause(&[x, !b]);
            }
            Connective::Iff => {
                // x <-> (a <-> b)
                solver.add_clause(&[!x, !a, b]);
                solver.add_clause(&[!x, a, !b]);
                solver.add_clause(&[x, a, b]);
                solver.add_clause(&[x, !a, !b]);
            }
        }
        x
    }

    /// Asserts `formula` (adds its literal as a unit clause).
    pub fn assert_formula(&mut self, formula: &Formula) {
        let lit = self.formula_lit(formula);
        self.solver.add_clause(&[lit]);
    }

    /// Asserts every clause of a [`ClauseSet`] directly (no Tseitin
    /// definitions — the set is already CNF).
    pub fn assert_clauses(&mut self, cs: &ClauseSet) {
        let mut buf: Vec<Lit> = Vec::new();
        for clause in cs.clauses() {
            buf.clear();
            for literal in clause.literals() {
                let lit = self.atom_lit(&literal.atom);
                buf.push(if literal.positive { lit } else { !lit });
            }
            self.solver.add_clause(&buf);
        }
    }

    /// Pushes an assumption.
    pub fn assume(&mut self, lit: Lit) {
        self.solver.assume(lit);
    }

    /// Pops the most recent assumption.
    pub fn retract(&mut self) -> Option<Lit> {
        self.solver.retract()
    }

    /// Drops every assumption.
    pub fn retract_all(&mut self) {
        self.solver.retract_all();
    }

    /// Checks satisfiability under the current assumptions.
    pub fn check(&mut self) -> bool {
        self.solver.check()
    }

    /// One complete question: checks satisfiability under the current
    /// assumptions *plus* `assumptions`, then retracts back to the
    /// prior assumption stack. This is the session idiom every batch
    /// caller uses — keep the discipline here, not at each call site.
    pub fn check_under<I: IntoIterator<Item = Lit>>(&mut self, assumptions: I) -> bool {
        self.answer_under(assumptions, |_| ()).is_some()
    }

    /// The bracket every `*_under` question shares: note the assumption
    /// depth, assume `assumptions`, check, read the model with `read`
    /// when satisfiable, then retract back to the noted depth.
    fn answer_under<I, R>(&mut self, assumptions: I, read: impl FnOnce(&Self) -> R) -> Option<R>
    where
        I: IntoIterator<Item = Lit>,
    {
        let depth = self.solver.assumptions().len();
        for lit in assumptions {
            self.solver.assume(lit);
        }
        let answer = if self.solver.check() {
            Some(read(self))
        } else {
            None
        };
        while self.solver.assumptions().len() > depth {
            self.solver.retract();
        }
        answer
    }

    /// Like [`Theory::check_under`], but on satisfiability returns the
    /// complete variable assignment as a dense vector indexed by
    /// [`Var::index`]: a SAT answer assigns every variable, so the
    /// vector is the model itself.
    ///
    /// [`WitnessPool`](crate::prop::WitnessPool) stores these vectors
    /// and answers later satisfiability questions by evaluating the
    /// assumption literals against stored witnesses — a handful of
    /// array reads — falling back to a real solver call only when no
    /// witness covers the assumptions. A stored witness
    /// stays valid across later checks on the same session: learned
    /// clauses are consequences of the database, and Tseitin
    /// definitions added later only constrain the fresh variables,
    /// which an index-bounds check excludes.
    pub fn witness_under<I: IntoIterator<Item = Lit>>(
        &mut self,
        assumptions: I,
    ) -> Option<Vec<bool>> {
        self.answer_under(assumptions, |theory| {
            theory.solver.assign.iter().map(|&a| a > 0).collect()
        })
    }

    /// After a satisfiable check: the value of `atom` in the model.
    pub fn value(&self, atom: &Atom) -> Option<bool> {
        let var = self.atoms.var(atom)?;
        self.solver.var_value(var)
    }

    /// After a satisfiable check: the model restricted to `atoms`
    /// (unassigned or unknown atoms read as `false`, matching
    /// [`Valuation`] semantics).
    pub fn model<'a, I: IntoIterator<Item = &'a Atom>>(&self, atoms: I) -> Valuation {
        atoms
            .into_iter()
            .map(|a| (a.clone(), self.value(a).unwrap_or(false)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;

    #[test]
    fn empty_solver_is_sat() {
        let mut s = Solver::new();
        assert!(s.check());
        assert_eq!(s.num_vars(), 0);
        assert_eq!(s.num_clauses(), 0);
    }

    #[test]
    fn default_matches_new_including_the_activity_increment() {
        // Theory::new builds its solver through Default; a derived 0.0
        // increment would disable clause-activity GC ranking there.
        assert_eq!(Solver::default().cla_inc, 1.0);
        assert_eq!(Solver::new().cla_inc, Solver::default().cla_inc);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[]);
        assert!(!s.check());
        assert_eq!(s.num_clauses(), 1);
    }

    #[test]
    fn unit_propagation_chain() {
        // p, p->q, q->r ... forced all the way; ~last is unsat.
        let mut s = Solver::new();
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
    fn tautologous_and_duplicate_clauses_are_harmless() {
        let mut s = Solver::new();
        let p = s.new_var();
        let q = s.new_var();
        s.add_clause(&[p.positive(), p.negative()]); // dropped
        assert_eq!(s.num_clauses(), 0);
        s.add_clause(&[q.positive(), q.positive()]); // collapses to unit
        assert!(s.check());
        assert_eq!(s.var_value(q), Some(true));
    }

    #[test]
    fn assume_retract_session_reuses_database() {
        let mut s = Solver::new();
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
    fn contradictory_assumptions_unsat_without_corruption() {
        let mut s = Solver::new();
        let p = s.new_var();
        s.assume(p.positive());
        s.assume(p.negative());
        assert!(!s.check());
        s.retract_all();
        assert!(s.check());
    }

    #[test]
    fn duplicate_assumptions_are_harmless() {
        let mut s = Solver::new();
        let p = s.new_var();
        let q = s.new_var();
        s.add_clause(&[p.negative(), q.positive()]);
        s.assume(p.positive());
        s.assume(p.positive());
        s.assume(p.positive());
        assert!(s.check());
        assert_eq!(s.var_value(q), Some(true));
        s.retract_all();
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: each pigeon somewhere, no hole shared.
        let mut s = Solver::new();
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
        assert!(s.stats().conflicts > 0, "refutation needs conflicts");
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat_and_5_into_5_is_sat() {
        for holes in [4usize, 5] {
            let mut s = Solver::new();
            let at: Vec<Vec<Var>> = (0..5)
                .map(|_| (0..holes).map(|_| s.new_var()).collect())
                .collect();
            for p in &at {
                let clause: Vec<Lit> = p.iter().map(|v| v.positive()).collect();
                s.add_clause(&clause);
            }
            for a in 0..5 {
                for b in a + 1..5 {
                    for (x, y) in at[a].iter().zip(&at[b]) {
                        s.add_clause(&[x.negative(), y.negative()]);
                    }
                }
            }
            assert_eq!(s.check(), holes == 5, "holes = {holes}");
        }
    }

    #[test]
    fn model_satisfies_every_clause() {
        let mut s = Solver::new();
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
    fn sat_by_propagation_alone_is_total_and_the_session_goes_on() {
        // x0 -> x1 -> … -> x9, and x9 -> ~y: assuming x0 forces every
        // variable, so the check answers SAT with the heap untouched.
        fn build() -> (Solver, Vec<Var>, Vec<Vec<Lit>>) {
            let mut s = Solver::new();
            let x: Vec<Var> = (0..11).map(|_| s.new_var()).collect();
            let mut clauses: Vec<Vec<Lit>> = x[..10]
                .windows(2)
                .map(|w| vec![w[0].negative(), w[1].positive()])
                .collect();
            clauses.push(vec![x[9].negative(), x[10].negative()]);
            for c in &clauses {
                s.add_clause(c);
            }
            (s, x, clauses)
        }
        let satisfies = |s: &Solver, clauses: &[Vec<Lit>]| {
            clauses
                .iter()
                .all(|c| c.iter().any(|&l| s.value(l) == Some(true)))
        };
        let (mut s, x, clauses) = build();
        s.assume(x[0].positive());
        assert!(s.check());
        assert_eq!(
            s.stats().decisions,
            1,
            "the assumption is the only decision"
        );
        assert_eq!(s.trail.len(), s.num_vars(), "the model is total");
        assert!(satisfies(&s, &clauses));
        s.retract();
        let questions: [&[Lit]; 6] = [
            &[],
            &[x[10].positive()],
            &[x[10].positive(), x[0].positive()],
            &[x[3].positive(), x[5].negative()],
            &[x[9].negative()],
            &[x[0].positive()],
        ];
        for question in questions {
            let (mut fresh, _, _) = build();
            for &lit in question {
                s.assume(lit);
                fresh.assume(lit);
            }
            let verdict = s.check();
            assert_eq!(verdict, fresh.check(), "question {question:?}");
            if verdict {
                assert_eq!(s.trail.len(), s.num_vars());
                assert!(satisfies(&s, &clauses), "question {question:?}");
            }
            s.retract_all();
        }
    }

    #[test]
    fn incremental_clause_add_after_check() {
        let mut s = Solver::new();
        let p = s.new_var();
        assert!(s.check());
        s.add_clause(&[p.positive()]);
        assert!(s.check());
        assert_eq!(s.var_value(p), Some(true));
        s.add_clause(&[p.negative()]);
        assert!(!s.check());
    }

    #[test]
    fn learned_clauses_persist_across_checks_and_verdicts_stay_stable() {
        // An unsat core plus free variables: repeated checks under
        // rotating assumptions must answer identically while the
        // learned store grows and is reused.
        let mut s = Solver::new();
        let free: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        let at: Vec<Vec<Var>> = (0..4)
            .map(|_| (0..3).map(|_| s.new_var()).collect())
            .collect();
        for p in &at {
            let clause: Vec<Lit> = p.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for a in 0..4 {
            for b in a + 1..4 {
                for (x, y) in at[a].iter().zip(&at[b]) {
                    s.add_clause(&[x.negative(), y.negative()]);
                }
            }
        }
        for round in 0..10 {
            s.assume(free[round % free.len()].lit(round % 2 == 0));
            assert!(!s.check(), "core stays unsat on round {round}");
            s.retract_all();
        }
        let learned_units = s.units.len();
        assert!(
            s.stats().learned > 0,
            "conflict-driven search must learn clauses"
        );
        // Knowledge persisted (units or stored learned clauses).
        assert!(s.num_learned() + learned_units > 0);
    }

    #[test]
    fn garbage_collection_under_a_tiny_budget_preserves_verdicts() {
        // A pigeonhole core with a relaxation variable `r` added to
        // every exclusion clause: assuming ~r reinstates the unsat
        // core (conflict-rich), assuming r relaxes it (satisfiable).
        // With a budget of 2 the learned store is collected over and
        // over; verdicts must never change.
        let mut s = Solver::new();
        s.budget_override = Some(2);
        let r = s.new_var();
        let at: Vec<Vec<Var>> = (0..5)
            .map(|_| (0..4).map(|_| s.new_var()).collect())
            .collect();
        for p in &at {
            let clause: Vec<Lit> = p.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for a in 0..5 {
            for b in a + 1..5 {
                for (x, y) in at[a].iter().zip(&at[b]) {
                    s.add_clause(&[x.negative(), y.negative(), r.positive()]);
                }
            }
        }
        for round in 0..6 {
            s.assume(r.negative());
            assert!(!s.check(), "strict pigeonhole stays unsat (round {round})");
            s.retract_all();
            s.assume(r.positive());
            assert!(s.check(), "relaxed pigeonhole stays sat (round {round})");
            s.retract_all();
        }
        assert!(
            s.stats().conflicts > 0,
            "the strict rounds must be conflict-driven"
        );
        assert!(
            s.stats().simplifications > 0,
            "tiny budget must trigger garbage collection"
        );
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn theory_compiles_and_checks_formulas() {
        let mut th = Theory::new();
        th.assert_formula(&parse("(p | q) & (~p | r)").unwrap());
        assert!(th.check());
        th.assert_formula(&parse("p & ~r").unwrap());
        assert!(!th.check());
    }

    #[test]
    fn theory_definition_literals_are_equivalences() {
        // Assuming the *negation* of a definition literal must force the
        // formula false — only true with full biconditional definitions.
        let mut th = Theory::new();
        let f = parse("p & q").unwrap();
        let lit = th.formula_lit(&f);
        th.assume(!lit);
        let p = th.formula_lit(&parse("p").unwrap());
        th.assume(p);
        let q = th.formula_lit(&parse("q").unwrap());
        th.assume(q);
        assert!(!th.check());
        th.retract_all();
        th.assume(!lit);
        assert!(th.check());
        let model = th.model(f.atoms().iter());
        assert!(!f.eval(&model), "negated definition still satisfied f");
    }

    #[test]
    fn compiling_a_formula_twice_returns_one_literal_and_adds_nothing() {
        let mut th = Theory::new();
        let f = parse("(p & q) -> (r <-> ~s) | p").unwrap();
        let lit = th.formula_lit(&f);
        let (vars, clauses) = (th.num_vars(), th.num_clauses());
        assert_eq!(th.formula_lit(&f), lit);
        assert_eq!((th.num_vars(), th.num_clauses()), (vars, clauses));
        assert_eq!(th.shared_definitions(), 4, "each of the four connectives");
    }

    #[test]
    fn a_chain_prefix_compiled_after_the_chain_gets_the_chains_literal() {
        // `chain(w)` is `chain(w - 1) & (a{w-2} -> a{w-1})`, so compiling
        // the prefix first allocates exactly what the chain allocates
        // for it: both orders number the prefix alike.
        let chain = |width: usize| {
            let links: Vec<String> = (1..width)
                .map(|j| format!("(a{} -> a{j})", j - 1))
                .collect();
            parse(&format!("a0 & {}", links.join(" & "))).unwrap()
        };
        let mut prefix_first = Theory::new();
        let prefix = prefix_first.formula_lit(&chain(5));
        let whole = prefix_first.formula_lit(&chain(6));
        let mut chain_first = Theory::new();
        assert_eq!(chain_first.formula_lit(&chain(6)), whole);
        let (vars, clauses) = (chain_first.num_vars(), chain_first.num_clauses());
        assert_eq!(chain_first.formula_lit(&chain(5)), prefix);
        assert_eq!(
            (chain_first.num_vars(), chain_first.num_clauses()),
            (vars, clauses)
        );
        assert_eq!(vars, prefix_first.num_vars());
    }

    #[test]
    fn shared_sub_formulas_answer_like_separately_compiled_ones() {
        // `q & p` keys apart from `p & q`, so the second theory defines
        // the conjunction twice, as a compiler without sharing would.
        let sources = |second: &str| ["(p & q) -> r".to_string(), format!("({second}) | s")];
        let compile = |second: &str| {
            let mut th = Theory::new();
            let mut lits: Vec<Lit> = sources(second)
                .iter()
                .map(|src| th.formula_lit(&parse(src).unwrap()))
                .collect();
            lits.extend(["p", "q", "r", "s"].map(|a| th.atom_lit(&Atom::new(a))));
            (th, lits)
        };
        let (mut shared, shared_lits) = compile("p & q");
        let (mut apart, apart_lits) = compile("q & p");
        assert_eq!(shared.num_vars() + 1, apart.num_vars());
        // Every assumption set over the six literals: each absent,
        // positive or negated.
        for code in 0..3usize.pow(6) {
            let question = |lits: &[Lit]| {
                let mut picked = Vec::new();
                let mut c = code;
                for &lit in lits {
                    match c % 3 {
                        1 => picked.push(lit),
                        2 => picked.push(!lit),
                        _ => {}
                    }
                    c /= 3;
                }
                picked
            };
            let (s, a) = (question(&shared_lits), question(&apart_lits));
            assert_eq!(shared.check_under(s), apart.check_under(a), "set {code}");
        }
    }

    #[test]
    fn theory_constants() {
        let mut th = Theory::new();
        th.assert_formula(&Formula::True);
        assert!(th.check());
        th.assert_formula(&Formula::False);
        assert!(!th.check());
    }

    #[test]
    fn theory_model_restricts_and_defaults() {
        let mut th = Theory::new();
        th.assert_formula(&parse("p").unwrap());
        assert!(th.check());
        let atoms = [Atom::new("p"), Atom::new("never_seen")];
        let v = th.model(atoms.iter());
        assert_eq!(v.get(&Atom::new("p")), Some(true));
        assert_eq!(v.get(&Atom::new("never_seen")), Some(false));
    }

    #[test]
    fn theory_clause_set_assertion() {
        let cs = parse("(p | q) & ~p").unwrap().to_cnf();
        let mut th = Theory::new();
        th.assert_clauses(&cs);
        assert!(th.check());
        assert_eq!(th.value(&Atom::new("q")), Some(true));
    }
}
