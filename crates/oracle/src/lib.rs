//! # casekit-oracle
//!
//! The seed engines that `casekit-logic`'s product engines replaced,
//! kept as differential oracles and as the measured "before" of the
//! `repro` arms. Each is an independent implementation of a semantics
//! the product decides faster, so agreement between the two is
//! evidence that the fast engine is right.
//!
//! | module | oracle for | product engine |
//! |---|---|---|
//! | [`legacy`] | `prop::dpll`, `prop::dpll_clauses` | the CDCL `prop::Solver` |
//! | [`DpllSolver`] | `prop::Solver` sessions | the CDCL `prop::Solver` |
//! | [`af`] | `af::Framework` semantics | `af::encode::AfSat`, `af::scc` |
//! | [`fol`] | `fol::KnowledgeBase::solve_with` | `fol::InternedKb` |
//! | [`ltl`] | `ltl::Kripke::check_bounded` | `ltl::CsrKripke` |
//!
//! No product crate depends on this one, and the `casekit` facade does
//! not re-export it: only `casekit-bench` and the workspace tests do
//! (`tests/oracle_boundary.rs` enforces this). The oracles read the
//! product types through their public API alone, so a product engine
//! can change its internals without touching them. The comparison
//! tests that pit a product engine against its oracle live here too.
//!
//! Two oracles stay in their product crates. `casekit_core::dsl::seed`
//! is still imported by perfbench, which builds only product crates.
//! `casekit_analysis::baseline` is not an independent oracle: it runs
//! the analyzer's own pass bodies one tool at a time, so that
//! `repro lint` can count compilations.

#![forbid(unsafe_code)]

pub mod af;
mod dpll;
pub mod fol;
pub mod legacy;
pub mod ltl;

pub use dpll::DpllSolver;
