//! # casekit
//!
//! An assurance-case toolkit reproducing Graydon, *Formal Assurance
//! Arguments: A Solution In Search of a Problem?* (DSN 2015).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — argument model and notations (GSN, CAE, Toulmin).
//! * [`logic`] — deductive substrates (propositional, natural deduction,
//!   Horn clauses, LTL, event calculus, sorts).
//! * [`fallacies`] — formal/informal fallacy taxonomy and detectors.
//! * [`analysis`] — CaseLint: multi-pass static analyzer over built
//!   arguments with a unified diagnostic substrate.
//! * [`patterns`] — formalised GSN patterns with typed parameters.
//! * [`query`] — metadata annotation and structured querying.
//! * [`survey`] — the paper's systematic literature survey pipeline.
//! * [`experiments`] — simulated studies from the paper's section VI.
//! * [`service`] — long-lived incremental case sessions that ask each
//!   solver question once per revision, with batched multi-question
//!   answering.

#![forbid(unsafe_code)]

pub use casekit_analysis as analysis;
pub use casekit_core as core;
pub use casekit_experiments as experiments;
pub use casekit_fallacies as fallacies;
pub use casekit_logic as logic;
pub use casekit_patterns as patterns;
pub use casekit_query as query;
pub use casekit_service as service;
pub use casekit_survey as survey;
