//! `check`: the `caselint` path for one file. Each op is
//! `check_source`, then `LineIndex::new`, then `excerpt` and `Display`
//! for every diagnostic, rendered into a buffer. Compilation, the lint
//! passes and the solver do most of the work; one case in eight is a
//! pigeonhole case that only CDCL conflict analysis refutes.

use crate::gen;
use crate::measure::{self, Clock, OpTimer, Tally, REPEAT_EVERY};
use crate::report::{EndToEnd, Layers, Names, Report};
use crate::trace;
use crate::Args;
use casekit_analysis::{
    check_source, check_syntax, excerpt, lint_compiled_with_pool, Diagnostic, LintConfig,
    SourceAnalysis, WitnessPool,
};
use casekit_core::dsl::SourceMap;
use casekit_core::semantics::ArgumentTheory;
use casekit_logic::{LineIndex, Span};
use std::fmt::Write as _;

/// Blocks of the check corpus, 48 cases each.
const BLOCKS: usize = 5;

const NAMES: Names = Names {
    op: "case_us",
    repeat: "repeat_case_us",
    unit: ("us", 1.0),
    items: "cases_per_s",
    reads_source: true,
};

/// Counts over the first traced pass, every case once.
#[derive(Debug, Default)]
struct Counts {
    cases: u64,
    recovered: u64,
    nodes: u64,
    syntax_diagnostics: u64,
    vars: u64,
    clauses: u64,
    lint_diagnostics: u64,
    solver_calls: u64,
    witness_hits: u64,
    decisions: u64,
    propagations: u64,
    conflicts: u64,
    learned: u64,
    restarts: u64,
    rendered_bytes: u64,
}

pub(crate) fn run(args: &Args) -> Result<Report, String> {
    let corpus = gen::check_corpus(args.seed, BLOCKS);
    let config = LintConfig::new();
    let mut tally = Tally::default();

    let (setup_s, first) = measure::setup(|_| {
        corpus
            .sources
            .iter()
            .map(|src| check_untraced(src, &config))
            .collect::<Vec<_>>()
    });
    tally.record(
        first
            .iter()
            .enumerate()
            .all(|(k, (analysis, text))| corpus.case_ok(k, &analysis.diagnostics, text)),
    );
    drop(first);

    let cases = corpus.sources.len();
    let mut counts = Counts::default();
    let mut traced_bytes = 0u64;
    let (mut fresh, mut previous) = (0usize, 0usize);
    if args.trace {
        trace::start();
    }
    let clock = Clock::start(args.seconds);
    for op in 0_usize.. {
        let pass = fresh / cases;
        if clock.stop(if args.trace {
            pass >= 2
        } else {
            tally.enough()
        }) {
            break;
        }
        let repeat = op % REPEAT_EVERY == REPEAT_EVERY - 1;
        let k = if repeat { previous } else { fresh % cases };
        let src = &corpus.sources[k];
        let ok = if args.trace && pass.is_multiple_of(2) {
            trace::next_request();
            let counting = (pass == 0 && !repeat).then_some(&mut counts);
            let (diagnostics, text) = {
                let _op = trace::span("op");
                check_traced(src, &config, counting)
            };
            let ok = corpus.case_ok(k, &diagnostics, &text);
            traced_bytes += src.len() as u64;
            let _free = trace::span("free");
            drop((diagnostics, text));
            ok
        } else {
            let mut timer = OpTimer::start();
            let (analysis, text) = check_untraced(src, &config);
            timer.pause();
            let ok = corpus.case_ok(k, &analysis.diagnostics, &text);
            timer.resume();
            drop((analysis, text));
            tally.time(repeat, timer.stop_us(), 1, src.len() as u64);
            ok
        };
        tally.record(ok);
        if !repeat {
            previous = k;
            fresh += 1;
        }
    }

    if !args.trace {
        let e2e = EndToEnd::measure(&tally, &setup_s)?;
        return Ok(Report::end_to_end("check", &tally, &e2e, &NAMES));
    }
    if fresh / cases < 2 {
        return Err("the traced run ended before two passes".into());
    }
    let summary = trace::finish("check", args.seed)?;
    let mut layers = Layers::new();
    summary.fill_common(&mut layers, tally.mean_us());
    let c = &counts;
    for (name, value) in [
        ("dsl.self_share", summary.share("dsl")),
        ("dsl.us_per_file", summary.mean_us("dsl")),
        (
            "dsl.mb_per_s",
            traced_bytes as f64 / 1e6 / summary.self_s("dsl"),
        ),
        ("dsl.nodes", c.nodes as f64),
        ("dsl.diagnostics", c.syntax_diagnostics as f64),
        ("dsl.recovered_ratio", c.recovered as f64 / c.cases as f64),
        ("semantics.self_share", summary.share("semantics")),
        ("semantics.compile_us", summary.mean_us("semantics")),
        ("semantics.vars", c.vars as f64),
        ("semantics.clauses", c.clauses as f64),
        ("analysis.self_share", summary.share("analysis")),
        ("analysis.lint_us", summary.mean_us("analysis")),
        ("analysis.diagnostics", c.lint_diagnostics as f64),
        ("analysis.solver_calls", c.solver_calls as f64),
        ("analysis.witness_hits", c.witness_hits as f64),
        (
            "analysis.witness_hit_ratio",
            c.witness_hits as f64 / (c.witness_hits + c.solver_calls).max(1) as f64,
        ),
        ("solver.decisions", c.decisions as f64),
        ("solver.propagations", c.propagations as f64),
        ("solver.conflicts", c.conflicts as f64),
        ("solver.learned", c.learned as f64),
        ("solver.restarts", c.restarts as f64),
        ("render.self_share", summary.share("render")),
        ("render.us_per_case", summary.mean_us("render")),
        ("render.bytes", c.rendered_bytes as f64),
    ] {
        layers.set(name, value);
    }
    Ok(Report::per_layer(&tally, &layers))
}

/// One untraced op: `check_source`, then rendering.
fn check_untraced(src: &str, config: &LintConfig) -> (SourceAnalysis, String) {
    let analysis = check_source(src, config);
    let text = render(src, &analysis.diagnostics);
    (analysis, text)
}

/// One traced op: `check_source` as the public calls it is made of —
/// `check_syntax`, `ArgumentTheory::compile`, and
/// `lint_compiled_with_pool` with a fresh pool, which is what
/// `lint_compiled` does — then rendering. `check_source`'s own glue,
/// anchoring graph findings to their declarations and sorting, has no
/// public call, so its time stays unattributed.
fn check_traced(
    src: &str,
    config: &LintConfig,
    mut counts: Option<&mut Counts>,
) -> (Vec<Diagnostic>, String) {
    let syntax = {
        let _dsl = trace::span("dsl");
        check_syntax(src, config)
    };
    let mut diagnostics = syntax.diagnostics;
    if let Some(c) = counts.as_deref_mut() {
        c.cases += 1;
        c.syntax_diagnostics += diagnostics.len() as u64;
    }
    if let Some(argument) = &syntax.argument {
        let mut theory = {
            let _compile = trace::span("semantics");
            ArgumentTheory::compile(argument)
        };
        if let Some(c) = counts.as_deref_mut() {
            c.recovered += 1;
            c.nodes += argument.len() as u64;
            c.vars += theory.theory_mut().num_vars() as u64;
            c.clauses += theory.theory_mut().num_clauses() as u64;
        }
        let mut pool = WitnessPool::new();
        let graph = {
            let _lint = trace::span("analysis");
            lint_compiled_with_pool(argument, &mut theory, &mut pool, config)
        };
        if let Some(c) = counts.as_deref_mut() {
            let solver = theory.theory_mut().stats();
            c.lint_diagnostics += graph.len() as u64;
            c.solver_calls += pool.solver_calls() as u64;
            c.witness_hits += pool.witness_hits() as u64;
            c.decisions += solver.decisions;
            c.propagations += solver.propagations;
            c.conflicts += solver.conflicts;
            c.learned += solver.learned;
            c.restarts += solver.restarts;
        }
        diagnostics.extend(graph.into_iter().map(|mut d| {
            d.span = Some(anchor(&d, &syntax.source_map));
            d
        }));
        diagnostics.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    }
    let text = {
        let _render = trace::span("render");
        render(src, &diagnostics)
    };
    if let Some(c) = counts {
        c.rendered_bytes += text.len() as u64;
    }
    (diagnostics, text)
}

/// Where `check_source` anchors a graph finding: its primary node's
/// identifier, else the argument name, else the start of the file.
fn anchor(diagnostic: &Diagnostic, map: &SourceMap) -> Span {
    diagnostic
        .primary
        .as_ref()
        .and_then(|id| map.node(id))
        .map(|spans| spans.id)
        .or(map.name)
        .unwrap_or(Span::point(0))
}

/// `check_source`'s output order: code, then primary node, then message.
fn sort_key(diagnostic: &Diagnostic) -> (u16, &str, &str) {
    (
        diagnostic.code.number(),
        diagnostic.primary.as_ref().map_or("", |id| id.as_str()),
        &diagnostic.message,
    )
}

/// Renders every diagnostic as `caselint` prints it: its `Display`
/// line, then a caret excerpt of the source it points at.
fn render(src: &str, diagnostics: &[Diagnostic]) -> String {
    let index = LineIndex::new(src);
    let mut out = String::new();
    for diagnostic in diagnostics {
        let _ = writeln!(out, "{diagnostic}");
        if let Some(frame) = diagnostic.span.and_then(|span| excerpt(src, &index, span)) {
            out.push_str(&frame);
            out.push('\n');
        }
    }
    out
}
