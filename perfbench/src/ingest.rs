//! `ingest`: repository loads. Each op is one `CorpusLoader::load` of a
//! batch of seeded `.case` files at one worker. The recovering DSL
//! frontend does nearly all the work; Tseitin compilation, the solver,
//! the lint passes and the service caches do none.

use crate::gen;
use crate::measure::{self, Clock, OpTimer, Tally, REPEAT_EVERY};
use crate::report::{EndToEnd, Layers, Names, Report};
use crate::trace;
use crate::Args;
use casekit_analysis::{check_syntax, LintConfig};
use casekit_runtime::Runtime;
use casekit_service::{CorpusLoader, LoadedCase};
use std::ops::Range;

/// Files per repository load, one entry per batch of the corpus; a pass
/// loads each once. Most loads hold 256 files and one in sixteen holds
/// 512, so the median falls inside the small loads and the p99 inside
/// the large ones. With equal batches, on a shared 2-vCPU host, the p99
/// fell in the host's noise tail and moved by a tenth from run to run.
const BATCH_SIZES: [usize; 16] = [
    256, 256, 256, 256, 256, 256, 256, 512, 256, 256, 256, 256, 256, 256, 256, 256,
];

const NAMES: Names = Names {
    op: "batch_ms",
    repeat: "repeat_batch_ms",
    unit: ("ms", 1e3),
    items: "files_per_s",
    reads_source: true,
};

/// Counts over the first traced pass, every file once.
#[derive(Debug, Default)]
struct Counts {
    files: u64,
    recovered: u64,
    nodes: u64,
    diagnostics: u64,
}

impl Counts {
    fn add(&mut self, loaded: &[LoadedCase]) {
        for case in loaded {
            self.files += 1;
            self.diagnostics += case.diagnostics.len() as u64;
            if let Some(argument) = &case.argument {
                self.recovered += 1;
                self.nodes += argument.len() as u64;
            }
        }
    }
}

pub(crate) fn run(args: &Args) -> Result<Report, String> {
    let corpus = gen::ingest_corpus(args.seed, BATCH_SIZES.iter().sum());
    let loader = CorpusLoader::new();
    let runtime = Runtime::serial();
    let mut tally = Tally::default();

    let (setup_s, loaded) = measure::setup(|_| loader.load(&corpus.sources, &runtime));
    tally.record(corpus.loads_ok(0..corpus.sources.len(), &loaded));
    drop(loaded);

    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(BATCH_SIZES.len());
    let mut first = 0;
    for size in BATCH_SIZES {
        ranges.push(first..first + size);
        first += size;
    }
    let batch_bytes: Vec<u64> = ranges
        .iter()
        .map(|r| {
            corpus.sources[r.clone()]
                .iter()
                .map(|src| src.len() as u64)
                .sum()
        })
        .collect();
    let mut counts = Counts::default();
    let mut traced_bytes = 0u64;
    let (mut fresh, mut previous) = (0usize, 0usize);
    if args.trace {
        trace::start();
    }
    let clock = Clock::start(args.seconds);
    for op in 0_usize.. {
        let pass = fresh / ranges.len();
        if clock.stop(if args.trace {
            pass >= 2
        } else {
            tally.enough()
        }) {
            break;
        }
        let repeat = op % REPEAT_EVERY == REPEAT_EVERY - 1;
        let b = if repeat {
            previous
        } else {
            fresh % ranges.len()
        };
        let batch = &corpus.sources[ranges[b].clone()];
        let ok = if args.trace && pass.is_multiple_of(2) {
            trace::next_request();
            let loaded = {
                let _op = trace::span("op");
                load_traced(batch, &runtime)
            };
            let ok = corpus.loads_ok(ranges[b].clone(), &loaded);
            if pass == 0 && !repeat {
                counts.add(&loaded);
            }
            traced_bytes += batch_bytes[b];
            let _free = trace::span("free");
            drop(loaded);
            ok
        } else {
            let mut timer = OpTimer::start();
            let loaded = loader.load(batch, &runtime);
            timer.pause();
            let ok = corpus.loads_ok(ranges[b].clone(), &loaded);
            timer.resume();
            drop(loaded);
            tally.time(repeat, timer.stop_us(), batch.len() as u64, batch_bytes[b]);
            ok
        };
        tally.record(ok);
        if !repeat {
            previous = b;
            fresh += 1;
        }
    }

    if !args.trace {
        let e2e = EndToEnd::measure(&tally, &setup_s)?;
        return Ok(Report::end_to_end("ingest", &tally, &e2e, &NAMES));
    }
    if fresh / ranges.len() < 2 {
        return Err("the traced run ended before two passes".into());
    }
    let summary = trace::finish("ingest", args.seed)?;
    let mut layers = Layers::new();
    summary.fill_common(&mut layers, tally.mean_us());
    for (name, value) in [
        ("dsl.self_share", summary.share("dsl")),
        ("dsl.us_per_file", summary.mean_us("dsl")),
        (
            "dsl.mb_per_s",
            traced_bytes as f64 / 1e6 / summary.self_s("dsl"),
        ),
        ("dsl.nodes", counts.nodes as f64),
        ("dsl.diagnostics", counts.diagnostics as f64),
        (
            "dsl.recovered_ratio",
            counts.recovered as f64 / counts.files as f64,
        ),
        ("runtime.overhead_us", summary.mean_us("runtime")),
    ] {
        layers.set(name, value);
    }
    Ok(Report::per_layer(&tally, &layers))
}

/// `CorpusLoader::load` as the public calls it is made of:
/// `Runtime::map` over `check_syntax`.
fn load_traced(batch: &[String], runtime: &Runtime) -> Vec<LoadedCase> {
    let config = LintConfig::new();
    let _map = trace::span("runtime");
    runtime.map(batch, |_, src| {
        let _dsl = trace::span("dsl");
        let analysis = check_syntax(src, &config);
        LoadedCase {
            argument: analysis.argument,
            diagnostics: analysis.diagnostics,
        }
    })
}
