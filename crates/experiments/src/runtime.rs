//! The parallel experiment runtime: scoped-thread fan-out over subject
//! populations with deterministic per-subject RNG streams.
//!
//! The §VI studies simulate hundreds to thousands of independent
//! subjects. Each subject's measurements are a pure function of (the
//! subject, the shared immutable study materials, a per-subject RNG
//! stream), so the population shards cleanly across worker threads.
//! Three design rules keep parallel runs *byte-identical* to serial
//! ones:
//!
//! 1. **Per-subject streams** — [`stream_rng`] derives an independent
//!    ChaCha stream from `(master seed, lane, subject index)`, so a
//!    subject's draws never depend on which worker ran it or on how
//!    many subjects ran before it. Sweeps over one `(seed, lane)` pair
//!    amortize the mixing through a [`StreamLane`].
//! 2. **Order-preserving fan-out** — [`Runtime::map`] shards the
//!    population into contiguous per-worker chunks and reassembles
//!    results in input order; reductions then run serially over that
//!    stable order.
//! 3. **Shared immutable materials** — generated arguments and their
//!    machine-check findings are built once and only read inside
//!    workers. [`machine_check_sweep`] compiles and checks each
//!    argument exactly once across the whole run, so a review never
//!    recompiles a theory.
//!
//! The executor itself lives in the bottom-layer `casekit-runtime`
//! crate (re-exported here as [`Runtime`]), where the AF engine's
//! SCC-decomposed solver shares it: see that crate's docs for the
//! chunk-granularity clamp that keeps tiny populations inline and the
//! `RUNTIME_WORKERS` environment contract. `Runtime { workers: 1 }`
//! runs everything on the calling thread — exactly the serial loops
//! the experiments had before this module existed. The `workers: k`
//! reports for any `k` are asserted identical in the crate's
//! determinism tests and measured in `repro experiments`
//! (`BENCH_experiments.json`).

use casekit_core::Argument;
use casekit_fallacies::checker::{check_argument, MachineReport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Borrow;

pub use casekit_runtime::{Runtime, MIN_CHUNK};

/// One `(master seed, lane)` pair with its seed-and-lane mixing
/// pre-applied, so a sweep over a population derives each subject's
/// stream with one multiply and one finalizer instead of re-mixing the
/// lane constants per subject. [`stream_rng`] is the one-shot wrapper.
#[derive(Debug, Clone, Copy)]
pub struct StreamLane {
    mixed: u64,
}

impl StreamLane {
    /// Fixes the `(seed, lane)` part of the stream derivation.
    pub fn new(seed: u64, lane: u64) -> Self {
        StreamLane {
            mixed: seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F),
        }
    }

    /// The RNG stream for subject `index` within this lane. Identical
    /// to [`stream_rng`] with the same `(seed, lane, index)` triple.
    pub fn rng(&self, index: u64) -> ChaCha8Rng {
        let mut x = self.mixed ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        ChaCha8Rng::seed_from_u64(x)
    }
}

/// The RNG stream for one unit of simulated work.
///
/// `seed` is the experiment's master seed, `lane` separates phases that
/// reuse subject indices (e.g. the argument sizes of experiment B), and
/// `index` is the subject's position. The three are mixed through a
/// SplitMix64 finalizer so neighbouring indices land in unrelated
/// ChaCha streams. Worker count and execution order never enter the
/// derivation — the heart of the serial/parallel equivalence.
pub fn stream_rng(seed: u64, lane: u64, index: u64) -> ChaCha8Rng {
    StreamLane::new(seed, lane).rng(index)
}

/// Machine-checks a population of arguments: one [`check_argument`]
/// (one theory compilation, one question set) per argument, fanned
/// across the runtime's workers.
///
/// This is the §VI-A machine arm at population scale — the reports are
/// deterministic, so experiment code calls this once and shares the
/// findings across every simulated review of the same argument instead
/// of recompiling per review.
pub fn machine_check_sweep<A>(arguments: &[A], runtime: &Runtime) -> Vec<MachineReport>
where
    A: Borrow<Argument> + Sync,
{
    runtime.map(arguments, |_, a| check_argument(a.borrow()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig, SeededFormal};
    use rand::Rng;

    #[test]
    fn stream_rng_is_per_index_deterministic_and_lane_separated() {
        let draws = |lane: u64, index: u64| -> Vec<f64> {
            let mut rng = stream_rng(0xFEED, lane, index);
            (0..4).map(|_| rng.gen::<f64>()).collect()
        };
        assert_eq!(draws(0, 5), draws(0, 5));
        assert_ne!(draws(0, 5), draws(0, 6));
        assert_ne!(draws(0, 5), draws(1, 5));
    }

    #[test]
    fn stream_lane_matches_the_one_shot_derivation() {
        // The amortized lane must produce byte-identical streams — the
        // derivation is part of the reports' determinism contract.
        let lane = StreamLane::new(0x5CA1E, 3);
        for index in [0u64, 1, 7, 1000, u64::MAX] {
            let mut a = lane.rng(index);
            let mut b = stream_rng(0x5CA1E, 3, index);
            let da: Vec<u64> = (0..4).map(|_| a.gen::<u64>()).collect();
            let db: Vec<u64> = (0..4).map(|_| b.gen::<u64>()).collect();
            assert_eq!(da, db, "index {index}");
        }
    }

    #[test]
    fn machine_check_sweep_matches_per_argument_checks() {
        let arguments: Vec<Argument> = (0..6)
            .map(|i| {
                let formal = match i % 3 {
                    0 => vec![],
                    1 => vec![SeededFormal::Begging],
                    _ => vec![SeededFormal::MissingSupport],
                };
                generate(&GeneratorConfig {
                    hazards: 4 + i,
                    formal,
                    informal: Vec::new(),
                    seed: 0x5EED + i as u64,
                })
                .unwrap()
                .case
                .argument
            })
            .collect();
        let expected: Vec<MachineReport> = arguments.iter().map(check_argument).collect();
        for workers in [1, 2, 4] {
            let swept = machine_check_sweep(&arguments, &Runtime::with_workers(workers));
            assert_eq!(swept, expected, "workers = {workers}");
        }
    }
}
