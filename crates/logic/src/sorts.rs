//! A sort (many-sorted type) system for first-order symbols.
//!
//! Graydon §IV-C shows that the desert-bank argument of Figure 1 passes
//! formal validation because resolution treats `bank` as one meaningless
//! symbol, while the human reading assigns it two senses. Sokolsky et al.
//! mention exploring *multi-sorted* first-order logic for exactly this
//! reason. This module implements that machinery:
//!
//! * declare predicate signatures (`adjacent : Landform × Landform`) and
//!   constant sorts (`bank : InstitutionKind`), then [`SortRegistry::check`]
//!   a knowledge base for violations; or
//! * run [`SortRegistry::infer_conflicts`] with *no* declarations — it
//!   unifies sort variables from usage and reports symbols forced into two
//!   different sorts, a lightweight equivocation lint.
//!
//! Declaring honest sorts for Figure 1 makes the knowledge base
//! ill-sorted, demonstrating the "fix"; but note (as the paper argues)
//! that the sort *declarations themselves* are informal judgments a
//! machine cannot validate.

use crate::error::LogicError;
use crate::fol::{KnowledgeBase, Term};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A sort name, e.g. `Landform`.
pub type Sort = String;

/// Declared signatures for predicates and sorts for constants.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortRegistry {
    /// Predicate name → argument sorts.
    predicates: BTreeMap<String, Vec<Sort>>,
    /// Constant name → sort.
    constants: BTreeMap<String, Sort>,
}

impl SortRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a predicate signature; replaces any existing one.
    pub fn declare_predicate<S: Into<String>>(
        &mut self,
        name: impl Into<String>,
        arg_sorts: impl IntoIterator<Item = S>,
    ) {
        self.predicates
            .insert(name.into(), arg_sorts.into_iter().map(Into::into).collect());
    }

    /// Declares a constant's sort; replaces any existing one.
    pub fn declare_constant(&mut self, name: impl Into<String>, sort: impl Into<String>) {
        self.constants.insert(name.into(), sort.into());
    }

    /// Checks every clause of `kb` against the declared signatures.
    ///
    /// Within each clause, variables must be used at a single sort.
    /// Undeclared predicates and constants are errors (explicitness is the
    /// point of the exercise).
    ///
    /// # Errors
    ///
    /// Returns every [`LogicError::SortViolation`] / [`LogicError::Undeclared`]
    /// found, in clause order; `Ok(())` when the KB is well-sorted.
    pub fn check(&self, kb: &KnowledgeBase) -> Result<(), Vec<LogicError>> {
        let mut errors = Vec::new();
        for clause in kb.clauses() {
            // Variable sorts are clause-local.
            let mut var_sorts: BTreeMap<String, Sort> = BTreeMap::new();
            for atom in std::iter::once(&clause.head).chain(clause.body.iter()) {
                self.check_atom(atom, &mut var_sorts, &mut errors);
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    fn check_atom(
        &self,
        atom: &Term,
        var_sorts: &mut BTreeMap<String, Sort>,
        errors: &mut Vec<LogicError>,
    ) {
        let (name, args) = match atom {
            Term::Compound(f, args) => (f.as_ref(), args.as_slice()),
            Term::Const(n) => (n.as_ref(), &[][..]),
            Term::Var(n) => {
                errors.push(LogicError::SortViolation {
                    symbol: n.to_string(),
                    detail: "a bare variable cannot be an atom".into(),
                });
                return;
            }
        };
        let signature = match self.predicates.get(name) {
            Some(s) => s.clone(),
            None => {
                errors.push(LogicError::Undeclared {
                    name: name.to_string(),
                });
                return;
            }
        };
        if signature.len() != args.len() {
            errors.push(LogicError::SortViolation {
                symbol: name.to_string(),
                detail: format!(
                    "arity mismatch: declared {} arguments, used with {}",
                    signature.len(),
                    args.len()
                ),
            });
            return;
        }
        for (arg, expected) in args.iter().zip(&signature) {
            self.check_term(arg, expected, var_sorts, errors);
        }
    }

    fn check_term(
        &self,
        term: &Term,
        expected: &Sort,
        var_sorts: &mut BTreeMap<String, Sort>,
        errors: &mut Vec<LogicError>,
    ) {
        match term {
            Term::Const(n) => match self.constants.get(n.as_ref()) {
                None => errors.push(LogicError::Undeclared {
                    name: n.to_string(),
                }),
                Some(actual) if actual != expected => errors.push(LogicError::SortViolation {
                    symbol: n.to_string(),
                    detail: format!("declared `{actual}`, used where `{expected}` required"),
                }),
                Some(_) => {}
            },
            Term::Var(n) => match var_sorts.get(n.as_ref()) {
                None => {
                    var_sorts.insert(n.to_string(), expected.clone());
                }
                Some(prior) if prior != expected => {
                    errors.push(LogicError::SortViolation {
                        symbol: n.to_string(),
                        detail: format!(
                            "variable used at both `{prior}` and `{expected}` in one clause"
                        ),
                    });
                }
                Some(_) => {}
            },
            Term::Compound(f, _) => {
                // Function symbols inside arguments are out of scope for
                // this simplified checker: flag them explicitly.
                errors.push(LogicError::SortViolation {
                    symbol: f.to_string(),
                    detail: "nested function symbols are not supported by the sort checker".into(),
                });
            }
        }
    }

    /// A *strict* equivocation lint requiring no declarations: every
    /// predicate argument position (`pred/arity#i`) is treated as its own
    /// provisional sort, and constants occupying two or more positions are
    /// reported.
    ///
    /// On Figure 1 this flags `bank` (used at `is_a/2#1` and
    /// `adjacent/2#0`) — a true positive. But it also flags any constant
    /// legitimately related at two positions (e.g. `bob` in
    /// `parent(tom, bob). parent(bob, ann).`) — a false positive. The lint
    /// is deliberately heuristic: Graydon §IV-C's point is that no
    /// mechanical check can decide whether two uses of a symbol share a
    /// real-world sense. Compare [`SortRegistry::infer_conflicts_linked`],
    /// which removes the false positives and thereby loses the true one.
    pub fn infer_conflicts(kb: &KnowledgeBase) -> BTreeMap<String, BTreeSet<String>> {
        let mut usage: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for clause in kb.clauses() {
            for atom in std::iter::once(&clause.head).chain(clause.body.iter()) {
                if let Term::Compound(f, args) = atom {
                    for (i, arg) in args.iter().enumerate() {
                        if let Term::Const(c) = arg {
                            let pos = format!("{f}/{}#{i}", args.len());
                            usage.entry(c.to_string()).or_default().insert(pos);
                        }
                    }
                }
            }
        }
        usage.retain(|_, classes| classes.len() >= 2);
        usage
    }

    /// A *linked* sort inference: like [`SortRegistry::infer_conflicts`],
    /// but variables propagate sorts across argument positions within a
    /// clause (union-find), so `ancestor(X, Y) :- parent(X, Z),
    /// ancestor(Z, Y)` merges the positions a constant may legitimately
    /// flow between.
    ///
    /// This eliminates the strict lint's false positives — and, tellingly,
    /// also stops flagging Figure 1's `bank`: the bridging rule
    /// `adjacent(X, Y) :- is_a(X, Z), adjacent(Z, Y)` is exactly what
    /// licenses the equivocation, and the inference dutifully merges the
    /// sorts it relates. The pair of lints is an executable demonstration
    /// of the paper's claim that equivocation is invisible to form-only
    /// analysis.
    pub fn infer_conflicts_linked(kb: &KnowledgeBase) -> BTreeMap<String, BTreeSet<String>> {
        // Union-find over position sorts, seeded by variable co-occurrence.
        let mut uf = UnionFind::new();
        for clause in kb.clauses() {
            let mut var_positions: BTreeMap<String, String> = BTreeMap::new();
            for atom in std::iter::once(&clause.head).chain(clause.body.iter()) {
                if let Term::Compound(f, args) = atom {
                    for (i, arg) in args.iter().enumerate() {
                        let pos = format!("{f}/{}#{i}", args.len());
                        uf.ensure(&pos);
                        if let Term::Var(v) = arg {
                            match var_positions.get(v.as_ref()) {
                                Some(prior) => uf.union(prior, &pos),
                                None => {
                                    var_positions.insert(v.to_string(), pos);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Collect constants per sort class.
        let mut usage: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for clause in kb.clauses() {
            for atom in std::iter::once(&clause.head).chain(clause.body.iter()) {
                if let Term::Compound(f, args) = atom {
                    for (i, arg) in args.iter().enumerate() {
                        if let Term::Const(c) = arg {
                            let pos = format!("{f}/{}#{i}", args.len());
                            let class = uf.find(&pos);
                            usage.entry(c.to_string()).or_default().insert(class);
                        }
                    }
                }
            }
        }
        usage.retain(|_, classes| classes.len() >= 2);
        usage
    }
}

/// String-keyed union-find for provisional sort classes.
#[derive(Debug, Default)]
struct UnionFind {
    parent: BTreeMap<String, String>,
}

impl UnionFind {
    fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, key: &str) {
        self.parent
            .entry(key.to_string())
            .or_insert_with(|| key.to_string());
    }

    fn find(&mut self, key: &str) -> String {
        self.ensure(key);
        let parent = self.parent[key].clone();
        if parent == key {
            return parent;
        }
        let root = self.find(&parent);
        self.parent.insert(key.to_string(), root.clone());
        root
    }

    fn union(&mut self, a: &str, b: &str) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fol::{desert_bank_kb, parse_program};

    #[test]
    fn well_sorted_kb_passes() {
        let kb = parse_program("adjacent(riverbank, river). near(house, riverbank).").unwrap();
        let mut reg = SortRegistry::new();
        reg.declare_predicate("adjacent", ["Landform", "Landform"]);
        reg.declare_predicate("near", ["Building", "Landform"]);
        reg.declare_constant("riverbank", "Landform");
        reg.declare_constant("river", "Landform");
        reg.declare_constant("house", "Building");
        assert!(reg.check(&kb).is_ok());
    }

    #[test]
    fn desert_bank_rejected_under_honest_sorts() {
        // Honest reading: is_a relates an institution to an institution
        // kind; adjacent relates landforms. `bank` cannot be both.
        let kb = desert_bank_kb();
        let mut reg = SortRegistry::new();
        reg.declare_predicate("is_a", ["Institution", "InstitutionKind"]);
        reg.declare_predicate("adjacent", ["Landform", "Landform"]);
        reg.declare_constant("desert_bank", "Institution");
        reg.declare_constant("bank", "InstitutionKind");
        reg.declare_constant("river", "Landform");
        let errors = reg.check(&kb).unwrap_err();
        assert!(errors.iter().any(|e| matches!(
            e,
            LogicError::SortViolation { symbol, .. } if symbol == "bank"
        )));
    }

    #[test]
    fn desert_bank_rule_variable_clash_detected() {
        // Even sorting `bank` as a Landform, the bridging rule clashes:
        // in `adjacent(X, Y) :- is_a(X, Z), adjacent(Z, Y)` the variable Z
        // is used at InstitutionKind (is_a#1) and Landform (adjacent#0).
        let kb = desert_bank_kb();
        let mut reg = SortRegistry::new();
        reg.declare_predicate("is_a", ["Institution", "InstitutionKind"]);
        reg.declare_predicate("adjacent", ["Landform", "Landform"]);
        reg.declare_constant("desert_bank", "Institution");
        reg.declare_constant("bank", "Landform");
        reg.declare_constant("river", "Landform");
        let errors = reg.check(&kb).unwrap_err();
        assert!(errors.iter().any(|e| matches!(
            e,
            LogicError::SortViolation { symbol, .. } if symbol == "Z" || symbol == "X"
        )));
    }

    #[test]
    fn undeclared_symbols_reported() {
        let kb = parse_program("p(a).").unwrap();
        let reg = SortRegistry::new();
        let errors = reg.check(&kb).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e, LogicError::Undeclared { name } if name == "p")));
    }

    #[test]
    fn arity_mismatch_reported() {
        let kb = parse_program("p(a, b).").unwrap();
        let mut reg = SortRegistry::new();
        reg.declare_predicate("p", ["S"]);
        reg.declare_constant("a", "S");
        reg.declare_constant("b", "S");
        let errors = reg.check(&kb).unwrap_err();
        assert!(errors.iter().any(|e| matches!(
            e,
            LogicError::SortViolation { detail, .. } if detail.contains("arity")
        )));
    }

    #[test]
    fn strict_lint_flags_desert_bank_equivocation() {
        // With no declarations at all, the strict per-position lint notices
        // that `bank` occupies two distinct argument positions.
        let kb = desert_bank_kb();
        let conflicts = SortRegistry::infer_conflicts(&kb);
        assert!(
            conflicts.contains_key("bank"),
            "expected `bank` to be flagged, got {conflicts:?}"
        );
        // `river` and `desert_bank` each occupy one position: not flagged.
        assert!(!conflicts.contains_key("river"));
        assert!(!conflicts.contains_key("desert_bank"));
    }

    #[test]
    fn strict_lint_has_false_positives_by_design() {
        // `bob` legitimately appears as both child and parent; the strict
        // lint cannot tell legitimate relation from equivocation.
        let kb = parse_program("parent(tom, bob). parent(bob, ann).").unwrap();
        let conflicts = SortRegistry::infer_conflicts(&kb);
        assert!(conflicts.contains_key("bob"));
    }

    #[test]
    fn linked_inference_quiet_on_consistent_kb() {
        let kb = parse_program(
            "parent(tom, bob). parent(bob, ann).\n\
             ancestor(X, Y) :- parent(X, Y).\n\
             ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
        )
        .unwrap();
        // The recursive rule links parent#0 and parent#1, so bob is fine.
        let conflicts = SortRegistry::infer_conflicts_linked(&kb);
        assert!(conflicts.is_empty(), "got {conflicts:?}");
    }

    #[test]
    fn linked_inference_misses_the_equivocation() {
        // The paper's point, executable: the very rule that licenses the
        // fallacy merges the sorts, so the "smarter" lint is silent.
        let kb = desert_bank_kb();
        let conflicts = SortRegistry::infer_conflicts_linked(&kb);
        assert!(
            !conflicts.contains_key("bank"),
            "linked inference should (instructively) miss `bank`"
        );
    }
}
