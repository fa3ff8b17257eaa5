//! The seed's recursive SLD engine, kept as the differential oracle for
//! the interned engine behind `KnowledgeBase::solve_with` and as the
//! measured baseline of `repro fol`.
//!
//! It resolves on the name plane: clause-scan dispatch, name-plane
//! renaming, map-backed substitutions, and call-stack recursion. It
//! reads the knowledge base only through [`KnowledgeBase::clauses`].

use casekit_logic::fol::{
    unify, KnowledgeBase, Solution, SolveConfig, SolveOutcome, Substitution, Term,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Solves `goal` with the seed engine under the default configuration.
pub fn solve(kb: &KnowledgeBase, goal: &Term) -> SolveOutcome {
    solve_with(kb, goal, SolveConfig::default())
}

/// Seed-engine counterpart of [`KnowledgeBase::solve_with`].
pub fn solve_with(kb: &KnowledgeBase, goal: &Term, config: SolveConfig) -> SolveOutcome {
    let mut search = Search {
        kb,
        config,
        work: 0,
        fresh: 0,
        solutions: Vec::new(),
        truncated: false,
        query_vars: goal.variables(),
    };
    search.prove(std::slice::from_ref(goal), &Substitution::new(), 0);
    SolveOutcome {
        solutions: search.solutions,
        truncated: search.truncated,
    }
}

struct Search<'a> {
    kb: &'a KnowledgeBase,
    config: SolveConfig,
    work: usize,
    fresh: usize,
    solutions: Vec<Solution>,
    truncated: bool,
    query_vars: BTreeSet<Arc<str>>,
}

impl Search<'_> {
    /// Depth-first SLD: prove all `goals` under `subst`.
    fn prove(&mut self, goals: &[Term], subst: &Substitution, depth: usize) {
        if self.solutions.len() >= self.config.max_solutions {
            return;
        }
        let (goal, rest) = match goals.split_first() {
            None => {
                let bindings = subst.project(self.query_vars.iter().cloned());
                let solution = Solution { bindings };
                if !self.solutions.contains(&solution) {
                    self.solutions.push(solution);
                }
                return;
            }
            Some((g, r)) => (g.clone(), r),
        };
        if depth >= self.config.max_depth {
            self.truncated = true;
            return;
        }
        for clause in self.kb.clauses() {
            self.work += 1;
            if self.work > self.config.max_work {
                self.truncated = true;
                return;
            }
            self.fresh += 1;
            let renamed = clause.rename_variables(self.fresh);
            if let Some(next_subst) = unify(&goal, &renamed.head, subst) {
                let mut next_goals = renamed.body.clone();
                next_goals.extend(rest.iter().cloned());
                self.prove(&next_goals, &next_subst, depth + 1);
                if self.solutions.len() >= self.config.max_solutions {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_logic::fol::{parse_program, parse_query, InternedKb};

    #[test]
    fn default_engine_matches_seed_oracle() {
        let kb = parse_program(
            "parent(tom, bob). parent(tom, liz). parent(bob, ann).\n\
             ancestor(X, Y) :- parent(X, Y).\n\
             ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
        )
        .unwrap();
        for query in ["ancestor(tom, X)", "parent(X, Y)", "ancestor(X, ann)"] {
            let goal = parse_query(query).unwrap();
            assert_eq!(kb.solve(&goal), solve(&kb, &goal), "query {query}");
        }
    }

    #[test]
    fn matches_seed_on_facts_and_rules() {
        let src = "parent(tom, bob). parent(tom, liz). parent(bob, ann).\n\
                   ancestor(X, Y) :- parent(X, Y).\n\
                   ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).";
        let seed = parse_program(src).unwrap();
        let mut kb = InternedKb::compile(&seed);
        for query in [
            "parent(tom, X)",
            "ancestor(tom, X)",
            "ancestor(X, ann)",
            "ancestor(liz, X)",
            "parent(X, Y)",
        ] {
            let goal = parse_query(query).unwrap();
            let fast = kb.solve(&goal);
            let slow = solve_with(&seed, &goal, SolveConfig::default());
            assert_eq!(fast.solutions, slow.solutions, "query {query}");
            assert_eq!(fast.truncated, slow.truncated, "query {query}");
        }
    }
}
