//! Linear temporal logic, after Brunel & Cazin's formalised safety
//! argumentation (Graydon §III-G).
//!
//! Claims such as *"the Detect-and-Avoid function is correct"* are
//! formalised as LTL formulas like
//! `G (below_min -> (nonzero U above_min))` and evaluated over traces of
//! the system model, or checked over a [`Kripke`] structure by bounded
//! lasso enumeration.
//!
//! ```
//! use casekit_logic::ltl::{parse_ltl, Trace};
//!
//! let f = parse_ltl("G (request -> F grant)").unwrap();
//! let trace = Trace::lasso(
//!     vec![vec!["request"], vec![], vec!["grant"]],
//!     vec![vec![]],
//! );
//! assert!(trace.satisfies(&f));
//! ```
//!
//! # Architecture: two planes, one oracle
//!
//! Model checking is split the same way as the `prop`, `af`, and `fol`
//! substrates:
//!
//! * The name plane ([`Kripke`], [`Trace`]) keeps states labelled with
//!   `Arc<str>` proposition sets and evaluates formulas recursively over
//!   [`Trace`]s. The seed checker, which builds a [`Trace`] per lasso,
//!   is the differential oracle `casekit_oracle::ltl::check_bounded`,
//!   outside the product API.
//! * The index plane (`csr`) compiles the structure to a [`CsrKripke`]
//!   — compressed-sparse-row out-edges plus bitset labels over an
//!   interned proposition universe — and the formula to a
//!   [`CompiledLtl`] flat node arena. Candidate lassos are evaluated by
//!   a closure table (one boolean row per node over the lasso's
//!   positions) instead of re-hashing label strings per step.
//!
//! [`Kripke::check_bounded`] routes through the index plane by default
//! and visits lassos in the oracle's exact order, so the two planes
//! return identical results, counterexample paths included. The bench
//! substrate (`crates/bench/src/ltl.rs`, `repro ltl`) sweeps both and
//! cross-checks answer-for-answer.

mod ast;
mod csr;
mod kripke;
mod parser;
mod trace;

pub use ast::Ltl;
pub use csr::{CompiledLtl, CsrKripke};
pub use kripke::{CheckResult, Kripke, StateId};
pub use parser::parse_ltl;
pub use trace::Trace;
