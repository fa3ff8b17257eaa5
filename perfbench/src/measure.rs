//! Timing rules shared by the workloads: how an op and a set-up are
//! timed, what a run tallies, and when it stops.

use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 5;
/// In `ingest` and `check`, one op in this many re-issues the previous
/// op's input unchanged.
pub(crate) const REPEAT_EVERY: usize = 8;
/// An untraced run keeps going past `--seconds` until the op p99 has
/// ten samples beyond it and the repeat p50 has its ten too…
const MIN_OPS: usize = 1_000;
const MIN_REPEATS: usize = 20;
/// …but never past this many times `--seconds`.
const CAP_FACTOR: u32 = 3;

/// Times one op: its call and the freeing of its result, never the
/// output check between them.
pub(crate) struct OpTimer {
    start: Instant,
    timed: Duration,
}

impl OpTimer {
    pub(crate) fn start() -> Self {
        OpTimer {
            start: Instant::now(),
            timed: Duration::ZERO,
        }
    }

    /// Stops the clock for the output check.
    pub(crate) fn pause(&mut self) {
        self.timed += self.start.elapsed();
    }

    /// Restarts it to time dropping the result.
    pub(crate) fn resume(&mut self) {
        self.start = Instant::now();
    }

    /// The op's time, µs.
    pub(crate) fn stop_us(self) -> f64 {
        (self.timed + self.start.elapsed()).as_secs_f64() * 1e6
    }
}

/// Runs `prepare(rep)` [`SETUP_REPS`] times and returns the seconds each
/// took plus the last result; earlier results are dropped untimed.
pub(crate) fn setup<R>(mut prepare: impl FnMut(usize) -> R) -> (Vec<f64>, R) {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let result = prepare(rep);
        seconds.push(start.elapsed().as_secs_f64());
        last = Some(result);
    }
    (seconds, last.expect("SETUP_REPS is positive"))
}

/// What a run counted and timed.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Untraced first-time ops, µs.
    pub(crate) op_us: Vec<f64>,
    /// Untraced repeated ops, µs.
    pub(crate) repeat_us: Vec<f64>,
    /// Files, cases or requests through untraced ops.
    pub(crate) items: u64,
    /// Source bytes through untraced ops.
    pub(crate) bytes: u64,
}

impl Tally {
    /// Counts one checked op or set-up.
    pub(crate) fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records an untraced op's time and what it handled.
    pub(crate) fn time(&mut self, repeat: bool, us: f64, items: u64, bytes: u64) {
        if repeat {
            self.repeat_us.push(us);
        } else {
            self.op_us.push(us);
        }
        self.items += items;
        self.bytes += bytes;
    }

    /// Whether every reported percentile has its samples.
    pub(crate) fn enough(&self) -> bool {
        self.op_us.len() >= MIN_OPS && self.repeat_us.len() >= MIN_REPEATS
    }

    /// Seconds spent inside untraced ops.
    pub(crate) fn busy_s(&self) -> f64 {
        (self.op_us.iter().sum::<f64>() + self.repeat_us.iter().sum::<f64>()) / 1e6
    }

    /// Mean untraced op time, µs.
    pub(crate) fn mean_us(&self) -> f64 {
        self.busy_s() * 1e6 / (self.op_us.len() + self.repeat_us.len()) as f64
    }
}

/// When a run stops.
pub(crate) struct Clock {
    start: Instant,
    min: Duration,
    cap: Duration,
}

impl Clock {
    pub(crate) fn start(seconds: u64) -> Self {
        let min = Duration::from_secs(seconds);
        Clock {
            start: Instant::now(),
            min,
            cap: min * CAP_FACTOR,
        }
    }

    /// Stop once `--seconds` have passed and the run is `ready`, or at
    /// the cap.
    pub(crate) fn stop(&self, ready: bool) -> bool {
        let elapsed = self.start.elapsed();
        elapsed >= self.cap || (ready && elapsed >= self.min)
    }
}
