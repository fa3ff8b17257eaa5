//! # casekit-experiments
//!
//! Simulated versions of the five experimental studies Graydon sketches in
//! §VI of *Formal Assurance Arguments: A Solution In Search of a Problem?*
//! (DSN 2015), plus the statistics substrate needed to analyse them.
//!
//! **Substitution note** (DESIGN.md §5): the paper calls for studies with
//! human volunteers; none were run. Here, *simulated subjects* with
//! parameterised skill/background/speed distributions stand in, so that
//! the entire experimental pipeline — treatment assignment, measurement,
//! significance testing, agreement analysis — is executable and the
//! hypothesised effect *shapes* can be demonstrated and stress-tested.
//! Every run is deterministic given its seed.
//!
//! * [`stats`] — descriptives, Welch's t-test, Cohen's d and mean
//!   pairwise agreement.
//! * [`population`] — simulated subject pools.
//! * [`generator`] — synthetic GSN arguments with seeded formal and
//!   informal fallacies, including reconstructions of the three Greenwell
//!   case-study arguments with the published fallacy counts.
//! * [`reviewer`] — the simulated human reviewer model.
//! * [`runtime`] — the parallel experiment executor.
//! * [`exp_a`]–[`exp_e`] — the five studies.
//!
//! # Architecture: the experiment runtime
//!
//! Every study follows the same three-phase shape, and the [`runtime`]
//! module is the executor for the middle one:
//!
//! 1. **Materials** (serial) — subject pools and generated arguments
//!    are built once. Arguments that will be machine-checked are swept
//!    through [`runtime::machine_check_sweep`], which compiles and
//!    checks each propositional skeleton exactly once and memoises the
//!    deterministic findings, so no review ever recompiles a theory.
//! 2. **Measurement** (parallel) — the subject population is sharded
//!    across scoped worker threads by [`runtime::Runtime::map`]. Each
//!    subject draws from its own [`runtime::stream_rng`] stream derived
//!    from `(master seed, lane, subject index)`, which makes the worker
//!    count unobservable: `workers = k` produces byte-identical reports
//!    for every `k`, and `workers = 1` is exactly the old serial loop.
//! 3. **Analysis** (serial) — the ordered per-subject measurements are
//!    reduced through [`stats`], whose functions return
//!    [`stats::StatsError`] instead of panicking on degenerate samples.
//!
//! Each study exposes `run(&Config)` (serial) and
//! `run_with(&Config, &Runtime)`; both return `Result<Report, Error>`,
//! with [`Error`] folding together the statistics, generator, and
//! configuration failure modes.

#![forbid(unsafe_code)]

pub mod exp_a;
pub mod exp_b;
pub mod exp_c;
pub mod exp_d;
pub mod exp_e;
pub mod generator;
pub mod population;
pub mod reviewer;
pub mod runtime;
pub mod stats;

use std::fmt;

/// Why an experiment run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A statistic could not be computed from the measured samples.
    Stats(stats::StatsError),
    /// The argument generator rejected its configuration.
    Generator(generator::GeneratorError),
    /// The experiment configuration is self-inconsistent (e.g. an odd
    /// evidence-leaf count where the design needs a critical/idle
    /// split).
    InvalidConfig(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Stats(e) => write!(f, "statistics error: {e}"),
            Error::Generator(e) => write!(f, "generator error: {e}"),
            Error::InvalidConfig(msg) => write!(f, "invalid experiment config: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Stats(e) => Some(e),
            Error::Generator(e) => Some(e),
            Error::InvalidConfig(_) => None,
        }
    }
}

impl From<stats::StatsError> for Error {
    fn from(e: stats::StatsError) -> Self {
        Error::Stats(e)
    }
}

impl From<generator::GeneratorError> for Error {
    fn from(e: generator::GeneratorError) -> Self {
        Error::Generator(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_wraps_and_renders_its_sources() {
        use std::error::Error as _;
        let stats_err: Error = stats::StatsError::EmptySample.into();
        assert!(stats_err.to_string().contains("statistics"));
        let gen_err: Error = generator::GeneratorError::TooFewHazards {
            hazards: 1,
            required: 2,
        }
        .into();
        assert!(gen_err.to_string().contains("generator"));
        let cfg_err = Error::InvalidConfig("odd leaves".into());
        assert!(cfg_err.to_string().contains("odd leaves"));
        assert!(stats_err.source().is_some());
        assert!(cfg_err.source().is_none());
    }
}
