//! SLD resolution over Horn knowledge bases.

use super::term::{Clause, Term};
use super::unify::Substitution;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Limits on a resolution run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveConfig {
    /// Maximum derivation depth (resolution steps along one branch).
    pub max_depth: usize,
    /// Maximum total unification attempts across the whole search.
    pub max_work: usize,
    /// Maximum number of solutions to collect.
    pub max_solutions: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            max_depth: 64,
            max_work: 100_000,
            max_solutions: 16,
        }
    }
}

/// One answer to a query: bindings for the query's own variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Bindings projected onto the query's variables.
    pub bindings: Substitution,
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bindings)
    }
}

/// Outcome of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveOutcome {
    /// The solutions found, in discovery order.
    pub solutions: Vec<Solution>,
    /// True when the search space was cut off by depth or work limits
    /// (so absence of solutions is *not* a proof of failure).
    pub truncated: bool,
}

impl SolveOutcome {
    /// Whether at least one solution was found.
    pub fn succeeded(&self) -> bool {
        !self.solutions.is_empty()
    }
}

/// A Horn-clause knowledge base with an SLD-resolution query engine.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnowledgeBase {
    clauses: Vec<Clause>,
}

impl KnowledgeBase {
    /// An empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a clause.
    pub fn add(&mut self, clause: Clause) {
        self.clauses.push(clause);
    }

    /// The clauses in insertion order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the knowledge base is empty.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Solves `goal` under the default configuration.
    pub fn solve(&self, goal: &Term) -> SolveOutcome {
        self.solve_with(goal, SolveConfig::default())
    }

    /// Solves `goal` under an explicit configuration.
    ///
    /// Queries compile the knowledge base onto the interned plane
    /// ([`super::InternedKb`]) and run the iterative indexed engine.
    /// For repeated queries against one knowledge base, compile once
    /// with [`super::InternedKb::compile`] and query that instead.
    pub fn solve_with(&self, goal: &Term, config: SolveConfig) -> SolveOutcome {
        super::interned::InternedKb::compile(self).solve_with(goal, config)
    }

    /// True when the goal has at least one derivation (under defaults).
    ///
    /// This is the "formal validation" of Figure 1 — derivability, which is
    /// soundness with respect to the *premises*, not the world.
    pub fn proves(&self, goal: &Term) -> bool {
        self.solve(goal).succeeded()
    }
}

impl FromIterator<Clause> for KnowledgeBase {
    fn from_iter<I: IntoIterator<Item = Clause>>(iter: I) -> Self {
        KnowledgeBase {
            clauses: iter.into_iter().collect(),
        }
    }
}

impl Extend<Clause> for KnowledgeBase {
    fn extend<I: IntoIterator<Item = Clause>>(&mut self, iter: I) {
        self.clauses.extend(iter);
    }
}

impl fmt::Display for KnowledgeBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.clauses {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::{parse_program, parse_query};
    use super::*;

    fn kb(src: &str) -> KnowledgeBase {
        parse_program(src).unwrap()
    }

    #[test]
    fn fact_lookup() {
        let kb = kb("likes(alice, logic).");
        assert!(kb.proves(&parse_query("likes(alice, logic)").unwrap()));
        assert!(!kb.proves(&parse_query("likes(bob, logic)").unwrap()));
    }

    #[test]
    fn variable_answers_enumerated() {
        let kb = kb("parent(tom, bob). parent(tom, liz). parent(bob, ann).");
        let out = kb.solve(&parse_query("parent(tom, X)").unwrap());
        assert_eq!(out.solutions.len(), 2);
        let answers: Vec<String> = out.solutions.iter().map(|s| s.to_string()).collect();
        assert!(answers.contains(&"{X = bob}".to_string()));
        assert!(answers.contains(&"{X = liz}".to_string()));
        assert!(!out.truncated);
    }

    #[test]
    fn recursive_rules() {
        let kb = kb("parent(tom, bob). parent(bob, ann). parent(ann, joe).\n\
                     ancestor(X, Y) :- parent(X, Y).\n\
                     ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).");
        assert!(kb.proves(&parse_query("ancestor(tom, joe)").unwrap()));
        assert!(!kb.proves(&parse_query("ancestor(joe, tom)").unwrap()));
        let out = kb.solve(&parse_query("ancestor(tom, X)").unwrap());
        assert_eq!(out.solutions.len(), 3);
    }

    #[test]
    fn desert_bank_figure_1_derivation_succeeds() {
        // The paper's Figure 1: formally valid, informally fallacious.
        let kb = super::super::desert_bank_kb();
        let goal = parse_query("adjacent(desert_bank, river)").unwrap();
        assert!(
            kb.proves(&goal),
            "Figure 1 must 'prove' the equivocating conclusion"
        );
    }

    #[test]
    fn desert_bank_negative_queries_fail() {
        let kb = super::super::desert_bank_kb();
        assert!(!kb.proves(&parse_query("adjacent(river, desert_bank)").unwrap()));
        assert!(!kb.proves(&parse_query("is_a(bank, desert_bank)").unwrap()));
    }

    #[test]
    fn left_recursion_truncates_rather_than_hanging() {
        let kb = kb("p(X) :- p(X).");
        let out = kb.solve(&parse_query("p(a)").unwrap());
        assert!(!out.succeeded());
        assert!(out.truncated);
    }

    #[test]
    fn work_budget_respected() {
        let kb = kb("e(a, b). e(b, c). e(c, a).\n\
                     path(X, Y) :- e(X, Y).\n\
                     path(X, Y) :- e(X, Z), path(Z, Y).");
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
    fn max_solutions_caps_enumeration() {
        let kb = kb("n(a). n(b). n(c). n(d).");
        let out = kb.solve_with(
            &parse_query("n(X)").unwrap(),
            SolveConfig {
                max_solutions: 2,
                ..SolveConfig::default()
            },
        );
        assert_eq!(out.solutions.len(), 2);
    }

    #[test]
    fn conjunctive_queries_via_rule() {
        let kb = kb("age(alice, young). role(alice, pilot). \n\
                     ok(X) :- age(X, young), role(X, pilot).");
        assert!(kb.proves(&parse_query("ok(alice)").unwrap()));
        assert!(!kb.proves(&parse_query("ok(bob)").unwrap()));
    }

    #[test]
    fn ground_solution_has_empty_bindings() {
        let kb = kb("f(a).");
        let out = kb.solve(&parse_query("f(a)").unwrap());
        assert_eq!(out.solutions.len(), 1);
        assert!(out.solutions[0].bindings.is_empty());
    }

    #[test]
    fn kb_display_round_trips_through_parser() {
        let original = kb("is_a(desert_bank, bank).\n\
                           adjacent(bank, river).\n\
                           adjacent(X, Y) :- is_a(X, Z), adjacent(Z, Y).");
        let reparsed = parse_program(&original.to_string()).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn duplicate_solutions_deduplicated() {
        // Two derivations of the same answer yield one solution.
        let kb = kb("p(a). q(a). r(X) :- p(X). r(X) :- q(X).");
        let out = kb.solve(&parse_query("r(a)").unwrap());
        assert_eq!(out.solutions.len(), 1);
    }
}
