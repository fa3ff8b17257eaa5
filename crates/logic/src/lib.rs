//! # casekit-logic
//!
//! Symbolic and deductive logic substrates for assurance arguments.
//!
//! This crate implements every formalism used by the proposals surveyed in
//! Graydon, *Formal Assurance Arguments: A Solution In Search of a
//! Problem?* (DSN 2015):
//!
//! * [`prop`] — propositional logic: formulas, a parser, truth-table
//!   evaluation, CNF conversion, a DPLL SAT solver, and a resolution prover.
//! * [`nd`] — a Fitch-style natural-deduction proof checker using the rule
//!   vocabulary of Haley et al. (`Premise`, `Detach`, `Split`, …); it
//!   verifies the eleven-line `D → H` example reproduced in the paper.
//! * [`fol`] — first-order terms, unification, Horn knowledge bases, and an
//!   SLD-resolution engine: a mini-Prolog sufficient to reproduce the
//!   paper's Figure 1 (the fallacious *desert bank* argument).
//! * [`ltl`] — linear temporal logic with finite- and lasso-trace semantics
//!   and explicit-state checking over Kripke structures, after Brunel &
//!   Cazin's formalised UAV safety argumentation.
//! * [`ec`] — a simplified discrete-time event calculus
//!   (`Initiates`/`Terminates`/`Happens`/`HoldsAt` with inertia), after
//!   Tun et al.'s privacy arguments.
//! * [`sorts`] — a sort (type) system for predicate symbols; declaring
//!   sorts is the mechanism that catches the desert-bank equivocation that
//!   pure formal validation misses.
//! * [`af`] — Dung-style abstract argumentation with
//!   grounded/complete/stable/preferred semantics and a
//!   deliberation-dialogue layer, after Tolchinsky et al.'s
//!   safety-critical decision support. Extensions are decided by the
//!   CDCL solver over a labelling encoding ([`af::encode`]).
//! * [`probe`] — Rushby's "what-if" premise probing over propositional
//!   theories.
//! * [`graph`] — the workspace's one graph kernel: a counting-sort CSR
//!   table builder and an iterative Tarjan SCC pass, shared by the
//!   argument graph in `casekit-core`, its CK002 lint, [`af`] and
//!   [`ltl`].
//!
//! The [`prop`] and [`ltl`] parsers are two grammar tables over one
//! iterative formula front end, which builds no tree taller than
//! [`MAX_DEPTH`].
//!
//! ## Example
//!
//! ```
//! use casekit_logic::prop::parse;
//! let f = parse("~on_grnd -> ~threv_en").unwrap();
//! assert!(f.is_satisfiable());
//! assert!(!f.is_tautology());
//! ```
//!
//! ## Architecture: the interned solver core
//!
//! Mirroring the `NodeId`/`NodeIdx` two-plane design of `casekit-core`,
//! the propositional substrate separates a *name plane* from an *index
//! plane*:
//!
//! * **Name plane** — [`prop::Formula`], [`prop::Atom`] (interned
//!   `Arc<str>`), [`prop::Clause`]/[`prop::ClauseSet`]. This is what
//!   arguments store, parsers produce, and humans read.
//! * **Index plane** — [`prop::intern::AtomTable`] maps atom names to
//!   dense `u32` variables; [`prop::intern::Lit`] packs a variable and
//!   its sign into one word (negation is an XOR); [`prop::Solver`]
//!   keeps all clauses in one flat literal arena and decides them with
//!   an iterative **CDCL** search — two watched literals, first-UIP
//!   learning, backjumping, VSIDS decisions — with no recursion and no
//!   per-branch cloning.
//!
//! The planes meet in [`prop::Theory`], which Tseitin-compiles formulas
//! straight into packed literals with full biconditional definitions,
//! so every compiled literal (and its negation) is usable as an
//! assumption. Batch callers — `casekit-core::semantics`, the fallacy
//! checker, [`probe`], the experiments — compile one `Theory` per
//! argument and answer every entailment question through
//! `assume`/`check`/`retract` rounds against the same clause database.
//! The historical entry points ([`prop::dpll`],
//! `Formula::{entails, is_satisfiable, …}`) remain as thin wrappers.
//!
//! The same split now covers every decidable substrate. [`af`] compiles
//! attack graphs to [`graph::Csr`] adjacency and decides semantics
//! through the solver (monolithic labelling encoding, decomposed along
//! [`graph::scc`] components above it).
//! [`fol`] interns terms into a hash-consed arena and resolves through
//! a first-argument-indexed, explicitly-stacked SLD machine
//! ([`fol::InternedKb`]). [`ltl`] compiles Kripke structures to
//! [`graph::Csr`] out-edges with bitset labels and formulas to a
//! hash-consed node arena, evaluating candidate lassos by closure table
//! ([`ltl::CsrKripke`]). In every substrate the name-plane API stays the
//! single entry point and routes to the index plane internally, and the
//! fallible operations return [`LogicError`] instead of panicking.
//!
//! ## Oracles live outside this crate
//!
//! The seed engine each substrate replaced is kept in the separate
//! `casekit-oracle` crate as its differential oracle and benchmark
//! baseline: the recursive DPLL and the chronological DPLL for
//! [`prop`], the subset enumerator for [`af`], the recursive SLD engine
//! for [`fol`] and the trace-building lasso checker for [`ltl`]. No
//! product crate depends on it. `repro logic`, `af`, `fol` and `ltl`
//! measure each product engine against its oracle and write the
//! `BENCH_*.json` comparisons.

#![forbid(unsafe_code)]

pub mod af;
pub mod ec;
pub mod fol;
pub mod graph;
pub mod ltl;
pub mod nd;
pub mod probe;
pub mod prop;
pub mod sorts;

mod error;
mod expr;
pub use error::{LineIndex, Located, LogicError, ParseError, Span, SyntaxError, SyntaxErrorKind};
pub use expr::MAX_DEPTH;
