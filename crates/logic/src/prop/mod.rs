//! Propositional logic: formulas, parsing, evaluation, normal forms,
//! satisfiability, and resolution.
//!
//! This is the base formalism for "symbolic, deductive" assurance-argument
//! content in the sense of Graydon §II-B: claims written as symbols
//! connected by operators, e.g. `~on_grnd -> ~threv_en`.
//!
//! # Architecture: two planes
//!
//! Like `casekit-core`'s `NodeId`/`NodeIdx` split, the module has a
//! *name plane* and an *index plane*:
//!
//! * the name plane — [`Formula`], [`Atom`], [`Clause`], [`ClauseSet`]
//!   — is what arguments store and humans read; atoms are interned
//!   strings, clauses are ordered sets;
//! * the index plane — [`solver`] with its [`AtomTable`](solver::Theory)
//!   interner, packed [`Lit`]s, flat clause arenas, and
//!   the CDCL core (first-UIP clause learning, non-chronological
//!   backjumping, VSIDS decisions, learned-clause GC) — is what
//!   actually decides; everything is a dense `u32`.
//!
//! [`dpll`], [`Formula::entails`], and friends keep their historical
//! signatures as thin bridges onto the index plane. Batch callers
//! (argument semantics and its what-if probe, fallacy checking, the
//! lint passes, the case service) compile a [`solver::Theory`] once and
//! ask many questions against it through one [`WitnessPool`], which
//! answers from stored models and UNSAT sets where it can and sends
//! the rest to the solver as `assume`/`check`/`retract` rounds — and
//! because assumptions enter the CDCL search as decisions, everything
//! learned answering one query speeds up the next. The two older engines, the
//! seed's recursive solver and the chronological watched-literal DPLL
//! that preceded CDCL, are differential oracles outside the product API:
//! `casekit_oracle::legacy` and `casekit_oracle::DpllSolver`.

mod ast;
mod cnf;
mod eval;
pub mod intern;
mod parser;
mod resolution;
mod sat;
pub mod solver;

pub use crate::witness::WitnessPool;
pub use ast::{Atom, Formula};
pub use cnf::{Clause, ClauseSet, Literal};
pub use eval::{truth_table, TruthTable, Valuation};
pub use intern::{AtomTable, Lit, Var};
pub use parser::parse;
pub use resolution::{resolution_entails, resolution_refute, ResolutionOutcome};
pub use sat::{dpll, dpll_clauses, SatResult};
pub use solver::{Solver, SolverStats, Theory};
