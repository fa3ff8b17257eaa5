//! First-order Horn-clause logic: terms, unification, knowledge bases, and
//! SLD resolution — a mini-Prolog.
//!
//! This substrate reproduces Figure 1 of Graydon (DSN 2015): the *desert
//! bank* knowledge base whose query `adjacent(desert_bank, river)` succeeds
//! under formal validation even though the argument equivocates on `bank`.
//!
//! ```
//! use casekit_logic::fol::{KnowledgeBase, parse_program, parse_query};
//!
//! let kb: KnowledgeBase = parse_program(
//!     "is_a(desert_bank, bank).
//!      adjacent(bank, river).
//!      adjacent(X, Y) :- is_a(X, Z), adjacent(Z, Y).",
//! ).unwrap();
//! let goal = parse_query("adjacent(desert_bank, river)").unwrap();
//! assert!(kb.proves(&goal));
//! ```
//!
//! # Architecture: two planes, one oracle
//!
//! Like `prop` and `af`, the FOL substrate is split into a *name plane*
//! and an *index plane*:
//!
//! * The name plane (`term`, [`unify`], `parser`) is the readable
//!   surface: [`Term`] trees over `Arc<str>` names and map-backed
//!   [`Substitution`]s. The seed recursive engine that resolves on it is
//!   the differential oracle `casekit_oracle::fol::solve_with`, outside
//!   the product API, which the fast plane is checked against.
//! * The index plane (`interned`) compiles a [`KnowledgeBase`] into an
//!   [`InternedKb`]: symbols intern to `u32` ids, terms hash-cons into a
//!   flat arena ([`TermId`] nodes with argument slices in one shared
//!   pool), clauses index by predicate and first-argument functor, and
//!   queries run on an iterative SLD machine with a bindings-slot array,
//!   a trail, and path compression instead of clone-per-apply maps.
//!
//! [`KnowledgeBase::solve`] and [`KnowledgeBase::solve_with`] route
//! through the index plane; `crates/bench/src/fol.rs` (`repro fol`)
//! measures them against the oracle.

mod engine;
mod interned;
mod parser;
mod term;
mod unify;

pub use engine::{KnowledgeBase, Solution, SolveConfig, SolveOutcome};
pub use interned::{InternedKb, SymbolId, SymbolTable, TermArena, TermId};
pub use parser::{parse_program, parse_query, parse_term};
pub use term::{Clause, Term};
pub use unify::{unify, Substitution};

/// Builds the exact knowledge base of the paper's Figure 1.
pub fn desert_bank_kb() -> KnowledgeBase {
    parse_program(
        "is_a(desert_bank, bank).\n\
         adjacent(bank, river).\n\
         adjacent(X, Y) :- is_a(X, Z), adjacent(Z, Y).",
    )
    .expect("static program")
}
