//! Atom interning and packed integer literals — the data plane of the
//! solver core.
//!
//! The [`Formula`](super::ast::Formula) plane keys everything by
//! [`Atom`] (an `Arc<str>`), which is convenient for construction and
//! display but expensive to compare, hash, and store in bulk. The solver
//! core mirrors the `NodeId`/`NodeIdx` two-plane design of
//! `casekit-core`: an [`AtomTable`] interns atom names to dense
//! [`Var`]s (`u32` indices), and clauses are stored as packed [`Lit`]s
//! — a variable index shifted left with the sign in the low bit — so a
//! literal is one machine word and its negation is an XOR.

use super::ast::Atom;
use std::collections::HashMap;
use std::fmt;
use std::ops::Not;

/// A solver variable: a dense `u32` index (an interned atom, or a fresh
/// Tseitin definition variable with no atom behind it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The variable with dense index `index`, for solvers outside this
    /// crate that allocate their own variables.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit a packed literal (`index ≥ 2^31`).
    pub fn from_index(index: u32) -> Self {
        assert!(
            index <= u32::MAX >> 1,
            "variable index fits in a packed literal (2^31)"
        );
        Var(index)
    }

    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal over this variable.
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal over this variable.
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// The literal with the given polarity.
    pub fn lit(self, positive: bool) -> Lit {
        if positive {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A packed literal: variable index in the high bits, sign in bit 0
/// (`0` = positive, `1` = negated). Negation is `code ^ 1`; the code
/// doubles as a dense index into watch lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The packed code (variable index × 2 + sign), usable as a dense
    /// array index.
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_positive() {
            f.write_str("~")?;
        }
        write!(f, "{}", self.var())
    }
}

/// An interner mapping atom names to [`Var`]s.
///
/// Standalone use allocates dense indices itself
/// ([`AtomTable::intern`]); when embedded in a
/// [`Theory`](super::solver::Theory) the solver owns variable
/// allocation (atoms interleave with Tseitin definition variables in
/// one index space), so [`AtomTable::intern_with`] takes the allocator.
/// Either way the mapping is append-only — a variable, once bound,
/// keeps its atom for the lifetime of the table — and allocation order
/// means variable indices are strictly increasing across entries.
#[derive(Debug, Clone, Default)]
pub struct AtomTable {
    /// Interned atoms with their variables, in allocation order
    /// (variables strictly increasing).
    entries: Vec<(Atom, Var)>,
    index: HashMap<Atom, Var>,
}

impl AtomTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `atom` with self-allocated dense indices `0, 1, 2, …`.
    pub fn intern(&mut self, atom: &Atom) -> Var {
        let next = Var(u32::try_from(self.entries.len()).expect("atom table fits in u32"));
        self.intern_with(atom, || next)
    }

    /// Interns `atom`, calling `alloc` for a fresh variable on first
    /// sight. `alloc` must return strictly increasing variables across
    /// calls (true of both the dense counter and a growing solver).
    pub fn intern_with(&mut self, atom: &Atom, alloc: impl FnOnce() -> Var) -> Var {
        if let Some(&v) = self.index.get(atom) {
            return v;
        }
        let v = alloc();
        debug_assert!(
            self.entries.last().is_none_or(|(_, prev)| *prev < v),
            "interned variables must be allocated in increasing order"
        );
        self.entries.push((atom.clone(), v));
        self.index.insert(atom.clone(), v);
        v
    }

    /// The variable for `atom`, if it has been interned.
    pub fn var(&self, atom: &Atom) -> Option<Var> {
        self.index.get(atom).copied()
    }

    /// The atom behind `var` (`None` for definition variables and
    /// variables this table never saw).
    pub fn atom(&self, var: Var) -> Option<&Atom> {
        self.entries
            .binary_search_by_key(&var, |(_, v)| *v)
            .ok()
            .map(|i| &self.entries[i].0)
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no atoms have been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The interned atoms with their variables, in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &Atom)> {
        self.entries.iter().map(|(a, v)| (*v, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = AtomTable::new();
        let p = t.intern(&Atom::new("p"));
        let q = t.intern(&Atom::new("q"));
        assert_eq!(p.index(), 0);
        assert_eq!(q.index(), 1);
        assert_eq!(t.intern(&Atom::new("p")), p);
        assert_eq!(t.len(), 2);
        assert_eq!(t.var(&Atom::new("q")), Some(q));
        assert_eq!(t.var(&Atom::new("r")), None);
        assert_eq!(t.atom(p).map(Atom::name), Some("p"));
    }

    #[test]
    fn intern_with_sparse_solver_style_allocation() {
        // Atoms interleaved with definition variables: 0 and 3 are
        // atoms, 1-2 belong to someone else.
        let mut t = AtomTable::new();
        let p = t.intern_with(&Atom::new("p"), || Var(0));
        let q = t.intern_with(&Atom::new("q"), || Var(3));
        assert_eq!(p, Var(0));
        assert_eq!(q, Var(3));
        assert_eq!(t.intern_with(&Atom::new("q"), || unreachable!()), q);
        assert_eq!(t.atom(Var(3)).map(Atom::name), Some("q"));
        assert_eq!(t.atom(Var(1)), None);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn literal_packing_round_trips() {
        let v = Var(7);
        let pos = v.positive();
        let neg = v.negative();
        assert_eq!(pos.var(), v);
        assert_eq!(neg.var(), v);
        assert!(pos.is_positive());
        assert!(!neg.is_positive());
        assert_eq!(!pos, neg);
        assert_eq!(!!pos, pos);
        assert_eq!(pos.code(), 14);
        assert_eq!(neg.code(), 15);
        assert_eq!(v.lit(true), pos);
        assert_eq!(v.lit(false), neg);
    }

    #[test]
    fn display_forms() {
        let v = Var(3);
        assert_eq!(v.to_string(), "v3");
        assert_eq!(v.positive().to_string(), "v3");
        assert_eq!(v.negative().to_string(), "~v3");
    }

    #[test]
    fn iter_yields_allocation_order() {
        let mut t = AtomTable::new();
        t.intern(&Atom::new("z"));
        t.intern(&Atom::new("a"));
        let names: Vec<_> = t.iter().map(|(_, a)| a.name().to_string()).collect();
        assert_eq!(names, vec!["z", "a"]);
    }
}
