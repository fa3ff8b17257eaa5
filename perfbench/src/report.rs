//! What a run prints: its run record, one line per metric, and the
//! final JSON result line.

use crate::measure::{Tally, SETUP_REPS};
use crate::stats::{self, Percentile};
use crate::Args;
use casekit_runtime::Runtime;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Every per-layer metric with its unit, in output order. Every traced
/// run prints all of them; a layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("dsl.self_share", "ratio"),
    ("dsl.us_per_file", "us"),
    ("dsl.mb_per_s", "MB/s"),
    ("dsl.nodes", "count"),
    ("dsl.diagnostics", "count"),
    ("dsl.recovered_ratio", "ratio"),
    ("runtime.overhead_us", "us"),
    ("semantics.self_share", "ratio"),
    ("semantics.compile_us", "us"),
    ("semantics.vars", "count"),
    ("semantics.clauses", "count"),
    ("analysis.self_share", "ratio"),
    ("analysis.lint_us", "us"),
    ("analysis.diagnostics", "count"),
    ("analysis.solver_calls", "count"),
    ("analysis.witness_hits", "count"),
    ("analysis.witness_hit_ratio", "ratio"),
    ("solver.decisions", "count"),
    ("solver.propagations", "count"),
    ("solver.conflicts", "count"),
    ("solver.learned", "count"),
    ("solver.restarts", "count"),
    ("render.self_share", "ratio"),
    ("render.us_per_case", "us"),
    ("render.bytes", "bytes"),
    ("service.open_us", "us"),
    ("service.apply_formula_us", "us"),
    ("service.apply_text_us", "us"),
    ("service.apply_structural_us", "us"),
    ("service.answers_fresh_us", "us"),
    ("service.answers_repeat_us", "us"),
    ("service.recompiles", "count"),
    ("service.full_rebuilds", "count"),
    ("service.steps_checked", "count"),
    ("service.steps_reused", "count"),
    ("service.step_reuse_ratio", "ratio"),
    ("service.answer_cache_hit_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// The per-layer values of a traced run.
pub(crate) struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub(crate) fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Sets one declared metric.
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("`{name}` is not a declared per-layer metric"),
        }
    }
}

/// A workload's own names for its gated metrics.
pub(crate) struct Names {
    /// Stem of the op percentiles, e.g. `batch_ms`.
    pub(crate) op: &'static str,
    /// Stem of the repeated-op percentile, e.g. `reread_us`.
    pub(crate) repeat: &'static str,
    /// Unit of those stems, and its size in µs.
    pub(crate) unit: (&'static str, f64),
    /// Name of the items-per-second line, e.g. `cases_per_s`.
    pub(crate) items: &'static str,
    /// Whether ops read source text, so source MB/s is printed too.
    pub(crate) reads_source: bool,
}

/// The end-to-end metrics of an untraced run.
pub(crate) struct EndToEnd {
    op_p50: Percentile,
    op_p99: Percentile,
    repeat_p50: Percentile,
    items_per_s: f64,
    mb_per_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
}

impl EndToEnd {
    /// Computes them from a run's samples and its set-up times.
    pub(crate) fn measure(tally: &Tally, setup_s: &[f64]) -> Result<Self, String> {
        let pct = |samples: &[f64], per_mille: usize| {
            stats::percentile(samples, per_mille).ok_or_else(|| {
                format!(
                    "{} samples leave fewer than {} beyond the {per_mille}/1000 percentile",
                    samples.len(),
                    stats::MIN_BEYOND
                )
            })
        };
        let busy_s = tally.busy_s();
        Ok(EndToEnd {
            op_p50: pct(&tally.op_us, 500)?,
            op_p99: pct(&tally.op_us, 990)?,
            repeat_p50: pct(&tally.repeat_us, 500)?,
            items_per_s: tally.items as f64 / busy_s,
            mb_per_s: tally.bytes as f64 / 1e6 / busy_s,
            setup_s: stats::median(setup_s),
            peak_rss_mb: peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        })
    }
}

/// A finished run, ready to print.
pub(crate) struct Report {
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
    /// Samples behind each reported percentile, for the run record.
    samples: Vec<(&'static str, usize)>,
    metrics: Vec<Metric>,
}

impl Report {
    /// An untraced run's report: the gated metrics, each also printed
    /// under the workload's own name.
    pub(crate) fn end_to_end(workload: &str, tally: &Tally, e: &EndToEnd, names: &Names) -> Self {
        let (unit, unit_us) = names.unit;
        let percentile = |stem: &str, suffix: &str, p: &Percentile| {
            format!(
                "{workload}.{stem}_{suffix} = {} {unit} (samples {}, {} beyond)",
                p.value / unit_us,
                p.samples,
                p.beyond
            )
        };
        let mut lines = vec![
            percentile(names.op, "p50", &e.op_p50),
            percentile(names.op, "p99", &e.op_p99),
            percentile(names.repeat, "p50", &e.repeat_p50),
            format!("{workload}.{} = {} 1/s", names.items, e.items_per_s),
        ];
        if names.reads_source {
            lines.push(format!("{workload}.mb_per_s = {} MB/s", e.mb_per_s));
        }
        lines.push(format!(
            "{workload}.setup_s = {} s (median of {SETUP_REPS})",
            e.setup_s
        ));
        lines.push(format!("{workload}.peak_rss_mb = {} MB", e.peak_rss_mb));
        lines.push(format!(
            "{workload}.failed_share = {} ({} of {} ops failed)",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            tally.failed,
            tally.attempted
        ));
        let metric =
            |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
        Report {
            attempted: tally.attempted,
            failed: tally.failed,
            lines,
            samples: vec![
                ("op_us_p50", e.op_p50.samples),
                ("op_us_p99", e.op_p99.samples),
                ("repeat_us_p50", e.repeat_p50.samples),
            ],
            metrics: vec![
                metric("op_us_p50", e.op_p50.value, "us"),
                metric("op_us_p99", e.op_p99.value, "us"),
                metric("items_per_s", e.items_per_s, "1/s"),
                metric("peak_rss_mb", e.peak_rss_mb, "MB"),
                metric("setup_s", e.setup_s, "s"),
            ],
        }
    }

    /// A traced run's report: every per-layer metric.
    pub(crate) fn per_layer(tally: &Tally, layers: &Layers) -> Self {
        let metrics: Vec<Metric> = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: layers.0[name],
                unit,
            })
            .collect();
        Report {
            attempted: tally.attempted,
            failed: tally.failed,
            lines: metrics
                .iter()
                .map(|m| format!("{} = {} {}", m.name, m.value, m.unit))
                .collect(),
            samples: Vec::new(),
            metrics,
        }
    }

    /// Prints the run record, the metric lines, and last the result
    /// line.
    pub(crate) fn print(&self, args: &Args) -> Result<(), String> {
        if let Some(metric) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("`{}` is not a finite number", metric.name));
        }
        println!("{}", run_record(args, &self.samples));
        for line in &self.lines {
            println!("{line}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Ok(())
    }
}

/// The settings a result depends on, so that results from different
/// hosts or settings are never compared by accident.
fn run_record(args: &Args, samples: &[(&str, usize)]) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let samples: Vec<String> = samples
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    format!(
        "{{\"run_record\": {{\"workload\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\", \
         \"nproc\": {}, \"runtime_workers\": {}, \"profile\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"samples\": {{{}}}}}}}",
        args.workload.name(),
        commit(root),
        source_digest(root),
        Runtime::host_parallelism(),
        Runtime::serial().workers,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.seed,
        args.seconds,
        u8::from(args.trace),
        samples.join(", ")
    )
}

/// The checked-out commit when the tree is a git work tree, else `none`.
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "none".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// FNV-1a over the product sources — `crates/`, the root manifest and
/// lock file — in path order: names the code measured even where there
/// is no commit, or the tree has local changes.
fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for file in &files {
        let name = file.strip_prefix(root).unwrap_or(file).to_string_lossy();
        let bytes = fs::read(file).unwrap_or_default();
        for byte in name.bytes().chain(bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}
