//! casekit's benchmark: end-to-end metrics per workload, and a traced
//! run that splits the same work by layer.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|check|session> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One client thread drives one workload in a closed loop through
//! casekit's public entry points, with the runtime at one worker. Every
//! op's output is checked outside its timed window. Standard output
//! ends with one JSON line holding `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `README.md` next to this package is the
//! design record.

mod check;
mod gen;
mod ingest;
mod measure;
mod report;
mod session;
mod stats;
mod trace;

use std::process::ExitCode;

/// The workloads, each run in its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ingest,
    Check,
    Session,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Check => "check",
            Workload::Session => "session",
        }
    }
}

/// The command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <ingest|check|session> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ingest" => Workload::Ingest,
                    "check" => Workload::Check,
                    "session" => Workload::Session,
                    _ => return Err(format!("unknown workload `{value}`")),
                });
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?);
            }
            "--seconds" => {
                let parsed = value.parse::<u64>().ok().filter(|&s| s > 0);
                seconds = Some(parsed.ok_or_else(|| format!("bad seconds `{value}`"))?);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed: seed.ok_or("`--seed` is required")?,
        seconds: seconds.ok_or("`--seconds` is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        Workload::Ingest => ingest::run(&args),
        Workload::Check => check::run(&args),
        Workload::Session => session::run(&args),
    };
    match report.and_then(|report| report.print(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
