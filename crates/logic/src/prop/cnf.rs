//! Conjunctive normal form: literals, clauses, and conversion.
//!
//! Two conversions are provided: the classic distributive transformation
//! (worst-case exponential, but produces an *equivalent* formula) and the
//! Tseitin transformation (linear, produces an *equisatisfiable* formula
//! with fresh definition atoms).

use super::ast::{Atom, Formula};
use super::eval::Valuation;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A literal: an atom or its negation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Literal {
    /// The underlying atom.
    pub atom: Atom,
    /// `true` for a positive literal `p`, `false` for `~p`.
    pub positive: bool,
}

impl Literal {
    /// Positive literal over `atom`.
    pub fn pos(atom: impl Into<Atom>) -> Self {
        Literal {
            atom: atom.into(),
            positive: true,
        }
    }

    /// Negative literal over `atom`.
    pub fn neg(atom: impl Into<Atom>) -> Self {
        Literal {
            atom: atom.into(),
            positive: false,
        }
    }

    /// The complementary literal.
    pub fn negated(&self) -> Self {
        Literal {
            atom: self.atom.clone(),
            positive: !self.positive,
        }
    }

    /// Evaluates the literal under a valuation.
    pub fn eval(&self, v: &Valuation) -> bool {
        v.get(&self.atom).unwrap_or(false) == self.positive
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.positive {
            f.write_str("~")?;
        }
        write!(f, "{}", self.atom)
    }
}

/// A clause: a disjunction of literals. The empty clause is false.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Clause {
    literals: BTreeSet<Literal>,
}

impl Clause {
    /// The empty (false) clause.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a clause from literals (duplicates collapse).
    pub fn from_literals<I: IntoIterator<Item = Literal>>(lits: I) -> Self {
        Clause {
            literals: lits.into_iter().collect(),
        }
    }

    /// The literals, in sorted order.
    pub fn literals(&self) -> impl Iterator<Item = &Literal> {
        self.literals.iter()
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// True for the empty clause.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// True if the clause contains both `p` and `~p` (always satisfied).
    pub fn is_tautologous(&self) -> bool {
        self.literals
            .iter()
            .any(|l| l.positive && self.literals.contains(&l.negated()))
    }

    /// Whether the clause contains the literal.
    pub fn contains(&self, lit: &Literal) -> bool {
        self.literals.contains(lit)
    }

    /// Inserts a literal.
    pub fn insert(&mut self, lit: Literal) {
        self.literals.insert(lit);
    }

    /// Clause with `lit` removed (used by resolution).
    pub fn without(&self, lit: &Literal) -> Clause {
        let mut c = self.clone();
        c.literals.remove(lit);
        c
    }

    /// Union of two clauses.
    pub fn union(&self, other: &Clause) -> Clause {
        Clause {
            literals: self.literals.union(&other.literals).cloned().collect(),
        }
    }

    /// Evaluates the clause under a valuation.
    pub fn eval(&self, v: &Valuation) -> bool {
        self.literals.iter().any(|l| l.eval(v))
    }
}

impl FromIterator<Literal> for Clause {
    fn from_iter<I: IntoIterator<Item = Literal>>(iter: I) -> Self {
        Clause::from_literals(iter)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.literals.is_empty() {
            return f.write_str("⊥");
        }
        let parts: Vec<String> = self.literals.iter().map(|l| l.to_string()).collect();
        f.write_str(&parts.join(" | "))
    }
}

/// A set of clauses, interpreted conjunctively.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClauseSet {
    clauses: BTreeSet<Clause>,
}

impl ClauseSet {
    /// The empty (true) clause set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The clauses, in sorted order.
    pub fn clauses(&self) -> impl Iterator<Item = &Clause> {
        self.clauses.iter()
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True when there are no clauses (trivially satisfiable).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Inserts a clause.
    pub fn insert(&mut self, clause: Clause) {
        self.clauses.insert(clause);
    }

    /// All atoms mentioned.
    pub fn atoms(&self) -> BTreeSet<Atom> {
        self.clauses
            .iter()
            .flat_map(|c| c.literals().map(|l| l.atom.clone()))
            .collect()
    }

    /// Evaluates the conjunction under a valuation.
    pub fn eval(&self, v: &Valuation) -> bool {
        self.clauses.iter().all(|c| c.eval(v))
    }

    /// Drops tautologous clauses (they never constrain satisfiability).
    pub fn simplify(&mut self) {
        self.clauses.retain(|c| !c.is_tautologous());
    }
}

impl FromIterator<Clause> for ClauseSet {
    fn from_iter<I: IntoIterator<Item = Clause>>(iter: I) -> Self {
        ClauseSet {
            clauses: iter.into_iter().collect(),
        }
    }
}

impl Extend<Clause> for ClauseSet {
    fn extend<I: IntoIterator<Item = Clause>>(&mut self, iter: I) {
        self.clauses.extend(iter);
    }
}

impl fmt::Display for ClauseSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.clauses.iter().map(|c| format!("({c})")).collect();
        f.write_str(&parts.join(" & "))
    }
}

impl Formula {
    /// Negation normal form: negations pushed to atoms, `->`/`<->` expanded.
    pub fn to_nnf(&self) -> Formula {
        fn nnf(f: &Formula, negate: bool) -> Formula {
            match (f, negate) {
                (Formula::True, false) | (Formula::False, true) => Formula::True,
                (Formula::True, true) | (Formula::False, false) => Formula::False,
                (Formula::Atom(a), false) => Formula::Atom(a.clone()),
                (Formula::Atom(a), true) => Formula::Atom(a.clone()).not(),
                (Formula::Not(inner), n) => nnf(inner, !n),
                (Formula::And(l, r), false) => nnf(l, false).and(nnf(r, false)),
                (Formula::And(l, r), true) => nnf(l, true).or(nnf(r, true)),
                (Formula::Or(l, r), false) => nnf(l, false).or(nnf(r, false)),
                (Formula::Or(l, r), true) => nnf(l, true).and(nnf(r, true)),
                (Formula::Implies(l, r), false) => nnf(l, true).or(nnf(r, false)),
                (Formula::Implies(l, r), true) => nnf(l, false).and(nnf(r, true)),
                (Formula::Iff(l, r), false) => nnf(l, false)
                    .and(nnf(r, false))
                    .or(nnf(l, true).and(nnf(r, true))),
                (Formula::Iff(l, r), true) => nnf(l, false)
                    .and(nnf(r, true))
                    .or(nnf(l, true).and(nnf(r, false))),
            }
        }
        nnf(self, false)
    }

    /// Equivalent CNF via the distributive law.
    ///
    /// Worst-case exponential; fine for the formula sizes found in
    /// assurance arguments. Use [`Formula::to_cnf_tseitin`] for large
    /// formulas where only satisfiability matters.
    pub fn to_cnf(&self) -> ClauseSet {
        fn clauses(f: &Formula) -> ClauseSet {
            match f {
                Formula::True => ClauseSet::new(),
                Formula::False => {
                    let mut cs = ClauseSet::new();
                    cs.insert(Clause::empty());
                    cs
                }
                Formula::Atom(a) => {
                    let mut cs = ClauseSet::new();
                    cs.insert(Clause::from_literals([Literal::pos(a.clone())]));
                    cs
                }
                Formula::Not(inner) => match inner.as_ref() {
                    Formula::Atom(a) => {
                        let mut cs = ClauseSet::new();
                        cs.insert(Clause::from_literals([Literal::neg(a.clone())]));
                        cs
                    }
                    // NNF guarantees negation only over atoms.
                    _ => unreachable!("to_cnf requires NNF input"),
                },
                Formula::And(l, r) => {
                    let mut cs = clauses(l);
                    cs.extend(clauses(r).clauses().cloned());
                    cs
                }
                Formula::Or(l, r) => {
                    let left = clauses(l);
                    let right = clauses(r);
                    let mut cs = ClauseSet::new();
                    for lc in left.clauses() {
                        for rc in right.clauses() {
                            cs.insert(lc.union(rc));
                        }
                    }
                    cs
                }
                Formula::Implies(_, _) | Formula::Iff(_, _) => {
                    unreachable!("to_cnf requires NNF input")
                }
            }
        }
        let mut cs = clauses(&self.to_nnf());
        cs.simplify();
        cs
    }

    /// Equisatisfiable CNF via the Tseitin transformation.
    ///
    /// Fresh definition atoms are named `_t0`, `_t1`, …; callers must not
    /// use that namespace. The result is linear in formula size.
    pub fn to_cnf_tseitin(&self) -> ClauseSet {
        let mut cs = ClauseSet::new();
        let mut counter = 0usize;
        let top = tseitin(self, &mut cs, &mut counter);
        cs.insert(Clause::from_literals([top]));
        cs.simplify();
        cs
    }
}

/// Returns a literal equivalent to `f`, adding definition clauses to `cs`.
fn tseitin(f: &Formula, cs: &mut ClauseSet, counter: &mut usize) -> Literal {
    fn fresh(counter: &mut usize) -> Atom {
        let name = format!("_t{}", *counter);
        *counter += 1;
        Atom::new(name)
    }
    match f {
        Formula::True => {
            // x & (x) — introduce an atom constrained true.
            let x = fresh(counter);
            cs.insert(Clause::from_literals([Literal::pos(x.clone())]));
            Literal::pos(x)
        }
        Formula::False => {
            let x = fresh(counter);
            cs.insert(Clause::from_literals([Literal::neg(x.clone())]));
            Literal::pos(x)
        }
        Formula::Atom(a) => Literal::pos(a.clone()),
        Formula::Not(inner) => tseitin(inner, cs, counter).negated(),
        Formula::And(l, r) => {
            let a = tseitin(l, cs, counter);
            let b = tseitin(r, cs, counter);
            let x = fresh(counter);
            let xl = Literal::pos(x);
            // x <-> a & b
            cs.insert(Clause::from_literals([xl.negated(), a.clone()]));
            cs.insert(Clause::from_literals([xl.negated(), b.clone()]));
            cs.insert(Clause::from_literals([
                xl.clone(),
                a.negated(),
                b.negated(),
            ]));
            xl
        }
        Formula::Or(l, r) => {
            let a = tseitin(l, cs, counter);
            let b = tseitin(r, cs, counter);
            let x = fresh(counter);
            let xl = Literal::pos(x);
            // x <-> a | b
            cs.insert(Clause::from_literals([xl.negated(), a.clone(), b.clone()]));
            cs.insert(Clause::from_literals([xl.clone(), a.negated()]));
            cs.insert(Clause::from_literals([xl.clone(), b.negated()]));
            xl
        }
        Formula::Implies(l, r) => {
            let expanded = Formula::Not(l.clone()).or(Formula::clone(r));
            tseitin(&expanded, cs, counter)
        }
        Formula::Iff(l, r) => {
            let a = tseitin(l, cs, counter);
            let b = tseitin(r, cs, counter);
            let x = fresh(counter);
            let xl = Literal::pos(x);
            // x <-> (a <-> b)
            cs.insert(Clause::from_literals([
                xl.negated(),
                a.negated(),
                b.clone(),
            ]));
            cs.insert(Clause::from_literals([
                xl.negated(),
                a.clone(),
                b.negated(),
            ]));
            cs.insert(Clause::from_literals([xl.clone(), a.clone(), b.clone()]));
            cs.insert(Clause::from_literals([
                xl.clone(),
                a.negated(),
                b.negated(),
            ]));
            xl
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::super::sat::{dpll_clauses, SatResult};
    use super::*;

    #[test]
    fn literal_display_and_negation() {
        let l = Literal::pos("p");
        assert_eq!(l.to_string(), "p");
        assert_eq!(l.negated().to_string(), "~p");
        assert_eq!(l.negated().negated(), l);
    }

    #[test]
    fn clause_tautology_detection() {
        let c = Clause::from_literals([Literal::pos("p"), Literal::neg("p")]);
        assert!(c.is_tautologous());
        let c = Clause::from_literals([Literal::pos("p"), Literal::neg("q")]);
        assert!(!c.is_tautologous());
    }

    #[test]
    fn empty_clause_displays_bottom() {
        assert_eq!(Clause::empty().to_string(), "⊥");
        assert!(Clause::empty().is_empty());
    }

    #[test]
    fn nnf_pushes_negations() {
        let f = parse("~(p & (q -> r))").unwrap();
        let nnf = f.to_nnf();
        assert_eq!(nnf.to_string(), "~p | q & ~r");
        assert!(f.equivalent(&nnf));
    }

    #[test]
    fn nnf_handles_iff_and_constants() {
        let f = parse("~(p <-> q)").unwrap();
        assert!(f.equivalent(&f.to_nnf()));
        assert_eq!(parse("~T").unwrap().to_nnf(), Formula::False);
        assert_eq!(parse("~F").unwrap().to_nnf(), Formula::True);
    }

    #[test]
    fn distributive_cnf_is_equivalent() {
        for src in [
            "p -> q",
            "~(p & q) <-> (~p | ~q)",
            "(p | q) & (r -> p)",
            "p <-> (q <-> r)",
            "~(p | (q & ~r))",
        ] {
            let f = parse(src).unwrap();
            let cnf = f.to_cnf();
            // Evaluate both over all valuations of the original atoms.
            let tt = super::super::eval::truth_table(&f).expect("few atoms");
            for (values, expected) in tt.rows() {
                let v: Valuation = tt
                    .atoms()
                    .iter()
                    .cloned()
                    .zip(values.iter().copied())
                    .collect();
                assert_eq!(cnf.eval(&v), *expected, "CNF mismatch for {src}");
            }
        }
    }

    #[test]
    fn cnf_of_true_and_false() {
        assert!(parse("T").unwrap().to_cnf().is_empty());
        assert!(parse("F").unwrap().to_cnf().clauses().any(Clause::is_empty));
    }

    #[test]
    fn tseitin_is_equisatisfiable() {
        for (src, sat) in [
            ("p & ~p", false),
            ("p | ~p", true),
            ("(p -> q) & p & ~q", false),
            ("(p <-> q) & (q <-> r) & (p <-> ~r)", false),
            ("(p | q) & (~p | q) & (p | ~q)", true),
        ] {
            let f = parse(src).unwrap();
            let cs = f.to_cnf_tseitin();
            let result = dpll_clauses(&cs);
            assert_eq!(
                matches!(result, SatResult::Sat(_)),
                sat,
                "tseitin mismatch for {src}"
            );
        }
    }

    #[test]
    fn tseitin_linear_size() {
        // A formula whose distributive CNF would blow up: (a1&b1)|(a2&b2)|...
        let mut f = parse("a0 & b0").unwrap();
        for i in 1..12 {
            f = f.or(parse(&format!("a{i} & b{i}")).unwrap());
        }
        let ts = f.to_cnf_tseitin();
        assert!(ts.len() < 200, "tseitin produced {} clauses", ts.len());
    }

    #[test]
    fn clause_set_display_and_eval() {
        let f = parse("(p | q) & ~r").unwrap();
        let cs = f.to_cnf();
        let v = Valuation::new().with("p", true).with("r", false);
        assert!(cs.eval(&v));
        let v = Valuation::new().with("r", true).with("p", true);
        assert!(!cs.eval(&v));
        assert!(cs.to_string().contains('&'));
    }

    #[test]
    fn clause_set_atoms() {
        let cs = parse("(p | q) & ~r").unwrap().to_cnf();
        let names: Vec<_> = cs
            .atoms()
            .into_iter()
            .map(|a| a.name().to_string())
            .collect();
        assert_eq!(names, vec!["p", "q", "r"]);
    }
}
