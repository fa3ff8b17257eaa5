//! Truth-functional evaluation: valuations and truth tables.

use super::ast::{Atom, Formula};
use std::collections::BTreeMap;

/// An assignment of truth values to atoms.
///
/// Atoms absent from the valuation evaluate as `false`; use
/// [`Valuation::get`] if you need to distinguish "absent" from "false".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Valuation {
    map: BTreeMap<Atom, bool>,
}

impl Valuation {
    /// An empty valuation (all atoms false).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `atom` to `value`, returning `self` for chaining.
    pub fn with(mut self, atom: impl Into<Atom>, value: bool) -> Self {
        self.map.insert(atom.into(), value);
        self
    }

    /// Sets `atom` to `value`.
    pub fn set(&mut self, atom: impl Into<Atom>, value: bool) {
        self.map.insert(atom.into(), value);
    }

    /// The value assigned to `atom`, if any.
    pub fn get(&self, atom: &Atom) -> Option<bool> {
        self.map.get(atom).copied()
    }

    /// Number of atoms explicitly assigned.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no atoms are explicitly assigned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl FromIterator<(Atom, bool)> for Valuation {
    fn from_iter<I: IntoIterator<Item = (Atom, bool)>>(iter: I) -> Self {
        Valuation {
            map: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Atom, bool)> for Valuation {
    fn extend<I: IntoIterator<Item = (Atom, bool)>>(&mut self, iter: I) {
        self.map.extend(iter);
    }
}

impl Formula {
    /// Evaluates the formula under `v` (unassigned atoms read as false).
    pub fn eval(&self, v: &Valuation) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => v.get(a).unwrap_or(false),
            Formula::Not(inner) => !inner.eval(v),
            Formula::And(l, r) => l.eval(v) && r.eval(v),
            Formula::Or(l, r) => l.eval(v) || r.eval(v),
            Formula::Implies(l, r) => !l.eval(v) || r.eval(v),
            Formula::Iff(l, r) => l.eval(v) == r.eval(v),
        }
    }

    /// True when some valuation satisfies the formula.
    ///
    /// Decided by the DPLL solver in `sat`; formulas from assurance
    /// arguments are small, but arguments compiled from generated corpora
    /// can reach thousands of clauses, which enumeration would not handle.
    pub fn is_satisfiable(&self) -> bool {
        matches!(super::sat::dpll(self), super::sat::SatResult::Sat(_))
    }

    /// True when every valuation satisfies the formula.
    pub fn is_tautology(&self) -> bool {
        !self.clone().not().is_satisfiable()
    }

    /// True when no valuation satisfies the formula.
    pub fn is_contradiction(&self) -> bool {
        !self.is_satisfiable()
    }

    /// True when `self` semantically entails `other`.
    pub fn entails(&self, other: &Formula) -> bool {
        self.clone().and(other.clone().not()).is_contradiction()
    }

    /// True when `self` and `other` are logically equivalent.
    pub fn equivalent(&self, other: &Formula) -> bool {
        self.clone().iff(other.clone()).is_tautology()
    }
}

/// A complete truth table for a formula over its atoms.
#[derive(Debug, Clone)]
pub struct TruthTable {
    atoms: Vec<Atom>,
    /// One entry per row: the atom values (in `atoms` order) and the result.
    rows: Vec<(Vec<bool>, bool)>,
}

impl TruthTable {
    /// The column headers (atom order used by [`TruthTable::rows`]).
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The rows: input values per atom plus the formula's value.
    pub fn rows(&self) -> &[(Vec<bool>, bool)] {
        &self.rows
    }

    /// Number of satisfying rows.
    pub fn models(&self) -> usize {
        self.rows.iter().filter(|(_, out)| *out).count()
    }

    /// Renders as a plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for a in &self.atoms {
            out.push_str(a.name());
            out.push(' ');
        }
        out.push_str("| result\n");
        for (values, result) in &self.rows {
            for (a, v) in self.atoms.iter().zip(values) {
                let cell = if *v { "1" } else { "0" };
                out.push_str(cell);
                for _ in 0..a.name().len().saturating_sub(1) {
                    out.push(' ');
                }
                out.push(' ');
            }
            out.push_str("| ");
            out.push_str(if *result { "1" } else { "0" });
            out.push('\n');
        }
        out
    }
}

/// Builds the full truth table of `formula`.
///
/// Returns [`TooManyAtoms`](crate::LogicError::TooManyAtoms) above 24 atoms (2^24 rows):
/// truth tables are for explanation, not deciding — use
/// [`super::dpll`] or a [`super::solver::Theory`] session for that.
pub fn truth_table(formula: &Formula) -> Result<TruthTable, crate::error::LogicError> {
    let atoms: Vec<Atom> = formula.atoms().into_iter().collect();
    let n = atoms.len();
    if n > 24 {
        return Err(crate::error::LogicError::TooManyAtoms {
            atoms: n,
            limit: 24,
        });
    }
    let mut rows = Vec::with_capacity(1 << n);
    for bits in 0..(1u32 << n) {
        let values: Vec<bool> = (0..n).map(|i| bits >> (n - 1 - i) & 1 == 1).collect();
        let v: Valuation = atoms.iter().cloned().zip(values.iter().copied()).collect();
        rows.push((values, formula.eval(&v)));
    }
    Ok(TruthTable { atoms, rows })
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;

    #[test]
    fn eval_basic_connectives() {
        let v = Valuation::new().with("p", true).with("q", false);
        assert!(parse("p").unwrap().eval(&v));
        assert!(!parse("q").unwrap().eval(&v));
        assert!(!parse("p & q").unwrap().eval(&v));
        assert!(parse("p | q").unwrap().eval(&v));
        assert!(!parse("p -> q").unwrap().eval(&v));
        assert!(parse("q -> p").unwrap().eval(&v));
        assert!(!parse("p <-> q").unwrap().eval(&v));
        assert!(parse("~q").unwrap().eval(&v));
        assert!(parse("T").unwrap().eval(&v));
        assert!(!parse("F").unwrap().eval(&v));
    }

    #[test]
    fn unassigned_atoms_default_false() {
        let v = Valuation::new();
        assert!(!parse("p").unwrap().eval(&v));
        assert!(v.is_empty());
    }

    #[test]
    fn tautology_contradiction_contingent() {
        assert!(parse("p | ~p").unwrap().is_tautology());
        assert!(parse("p & ~p").unwrap().is_contradiction());
        let f = parse("p -> q").unwrap();
        assert!(f.is_satisfiable() && !f.is_tautology());
    }

    #[test]
    fn entailment_modus_ponens() {
        let premises = parse("(p -> q) & p").unwrap();
        assert!(premises.entails(&parse("q").unwrap()));
        assert!(!premises.entails(&parse("~q").unwrap()));
    }

    #[test]
    fn equivalence_de_morgan() {
        assert!(parse("~(p & q)")
            .unwrap()
            .equivalent(&parse("~p | ~q").unwrap()));
        assert!(!parse("~(p & q)")
            .unwrap()
            .equivalent(&parse("~p & ~q").unwrap()));
    }

    #[test]
    fn truth_table_shape_and_models() {
        let tt = truth_table(&parse("p & q").unwrap()).unwrap();
        assert_eq!(tt.atoms().len(), 2);
        assert_eq!(tt.rows().len(), 4);
        assert_eq!(tt.models(), 1);
        let rendered = tt.render();
        assert!(rendered.contains("| result"));
        assert!(rendered.lines().count() == 5);
    }

    #[test]
    fn truth_table_of_closed_formula() {
        let tt = truth_table(&parse("T -> F").unwrap()).unwrap();
        assert_eq!(tt.rows().len(), 1);
        assert_eq!(tt.models(), 0);
    }

    #[test]
    fn truth_table_rejects_wide_formulas() {
        let wide = Formula::conj((0..25).map(|i| Formula::atom(format!("w{i}"))));
        let err = truth_table(&wide).unwrap_err();
        assert!(err.to_string().contains("25"));
        assert!(err.to_string().contains("24"));
    }
}
