//! `session`: live editing. A fleet of cases is opened with
//! `CaseService::open_source`; requests then interleave across the
//! cases by a seeded schedule that keeps each case's own order. An
//! update is an edit burst through `CaseService::apply` followed by
//! `answers`; a reread is `answers` with no edit since the last one.
//! The service's caches do the work — dirty-step verdicts, the answer
//! bundle, incremental recompilation and compaction — and the DSL
//! frontend does none after set-up.

use crate::gen::{self, Request, SessionWorkload};
use crate::measure::{self, Clock, OpTimer, Tally};
use crate::report::{EndToEnd, Layers, Names, Report};
use crate::trace;
use crate::Args;
use casekit_analysis::{Diagnostic, LintCode, LintConfig};
use casekit_service::{batch_answers, CaseAnswers, CaseService, EditError, EditOp, SessionStats};

/// Live cases.
const CASES: usize = 64 * gen::SESSION_BLOCK;
/// One request in this many is also compared with `batch_answers`, a
/// from-scratch recompilation of the same revision.
const BATCH_CHECK_EVERY: usize = 16;

const NAMES: Names = Names {
    op: "update_us",
    repeat: "reread_us",
    unit: ("us", 1.0),
    items: "requests_per_s",
    reads_source: false,
};

/// One set-up: the opened fleet, and what opening it returned.
struct Fleet {
    service: CaseService,
    /// `open_source`'s case index and diagnostics, per source.
    opened: Vec<(Option<usize>, Vec<Diagnostic>)>,
    /// Root entailment in each case's first answers.
    entailed: Vec<Option<bool>>,
}

impl Fleet {
    /// `open_source` plus the first `answers` for every case.
    fn open(workload: &SessionWorkload, traced: bool) -> Self {
        let mut service = CaseService::new();
        let opened = workload
            .sources
            .iter()
            .map(|src| {
                let _open = traced.then(|| trace::span("service.open"));
                service.open_source(src)
            })
            .collect();
        let entailed = (0..service.len())
            .map(|case| {
                service
                    .answers(case)
                    .and_then(|answers| answers.probe.map(|probe| probe.entailed))
            })
            .collect();
        Fleet {
            service,
            opened,
            entailed,
        }
    }

    /// Whether every case opened with the codes its defect injects, and
    /// its intact chains entail its root.
    fn ok(&self, workload: &SessionWorkload) -> bool {
        self.opened.len() == workload.sources.len()
            && self
                .opened
                .iter()
                .zip(&workload.open_codes)
                .enumerate()
                .all(|(k, ((case, diagnostics), expected))| {
                    *case == Some(k) && gen::codes(diagnostics) == *expected
                })
            && self.entailed.iter().all(|&entailed| entailed == Some(true))
    }
}

pub(crate) fn run(args: &Args) -> Result<Report, String> {
    let workload = gen::session_workload(args.seed, CASES);
    let config = LintConfig::new();
    let mut tally = Tally::default();
    if args.trace {
        trace::start();
    }
    let last = measure::SETUP_REPS - 1;
    let (setup_s, fleet) = measure::setup(|rep| Fleet::open(&workload, args.trace && rep == last));
    tally.record(fleet.ok(&workload));
    let mut service = fleet.service;

    let schedule = &workload.schedule;
    let mut before = fleet_stats(&service);
    let mut first_pass = None;
    let clock = Clock::start(args.seconds);
    for i in 0_usize.. {
        let pass = i / schedule.len();
        if clock.stop(if args.trace {
            pass >= 2
        } else {
            tally.enough()
        }) {
            break;
        }
        if i > 0 && i % schedule.len() == 0 {
            if pass == 1 {
                first_pass = Some((before, fleet_stats(&service)));
            }
            // Every pass starts from a freshly opened fleet, outside any
            // timed window, so garbage, learned clauses and witnesses
            // never build up across passes and a later pass costs what
            // the first did.
            drop(service);
            let fleet = Fleet::open(&workload, false);
            tally.record(fleet.ok(&workload));
            service = fleet.service;
            before = fleet_stats(&service);
        }
        let request = &schedule[i % schedule.len()];
        let against_batch = i % BATCH_CHECK_EVERY == 0;
        let ok = if args.trace && pass.is_multiple_of(2) {
            trace::next_request();
            let answered = {
                let _op = trace::span("op");
                serve(&mut service, request, true)
            };
            let ok = answered_ok(&service, request, &answered, against_batch, &config);
            let _free = trace::span("free");
            drop(answered);
            ok
        } else {
            let mut timer = OpTimer::start();
            let answered = serve(&mut service, request, false);
            timer.pause();
            let ok = answered_ok(&service, request, &answered, against_batch, &config);
            timer.resume();
            drop(answered);
            tally.time(request.edits.is_empty(), timer.stop_us(), 1, 0);
            ok
        };
        tally.record(ok);
    }

    if !args.trace {
        let e2e = EndToEnd::measure(&tally, &setup_s)?;
        return Ok(Report::end_to_end("session", &tally, &e2e, &NAMES));
    }
    let (before, after) = first_pass.ok_or("the traced run ended before two passes")?;
    let summary = trace::finish("session", args.seed)?;
    let mut layers = Layers::new();
    summary.fill_common(&mut layers, tally.mean_us());
    for (metric, span) in [
        ("service.open_us", "service.open"),
        ("service.apply_formula_us", "service.apply_formula"),
        ("service.apply_text_us", "service.apply_text"),
        ("service.apply_structural_us", "service.apply_structural"),
        ("service.answers_fresh_us", "service.answers_fresh"),
        ("service.answers_repeat_us", "service.answers_repeat"),
    ] {
        layers.set(metric, summary.mean_us(span));
    }
    let delta = |count: fn(&SessionStats) -> u64| (count(&after) - count(&before)) as f64;
    let checked = delta(|s| s.steps_checked);
    let reused = delta(|s| s.steps_reused);
    for (name, value) in [
        ("service.recompiles", delta(|s| s.recompiles)),
        ("service.full_rebuilds", delta(|s| s.full_rebuilds)),
        ("service.steps_checked", checked),
        ("service.steps_reused", reused),
        (
            "service.step_reuse_ratio",
            reused / (checked + reused).max(1.0),
        ),
        (
            "service.answer_cache_hit_ratio",
            delta(|s| s.cached_answers) / delta(|s| s.queries).max(1.0),
        ),
    ] {
        layers.set(name, value);
    }
    Ok(Report::per_layer(&tally, &layers))
}

/// Serves one request: its edits through `apply`, then `answers`.
fn serve(
    service: &mut CaseService,
    request: &Request,
    traced: bool,
) -> Result<CaseAnswers, EditError> {
    for edit in &request.edits {
        let _apply = traced.then(|| trace::span(apply_span(edit)));
        service.apply(request.case, edit)?;
    }
    let _answers = traced.then(|| {
        trace::span(if request.edits.is_empty() {
            "service.answers_repeat"
        } else {
            "service.answers_fresh"
        })
    });
    service
        .answers(request.case)
        .ok_or(EditError::UnknownCase(request.case))
}

/// The span an edit's `apply` is recorded under.
fn apply_span(edit: &EditOp) -> &'static str {
    match edit {
        EditOp::ReplaceFormula { .. } => "service.apply_formula",
        EditOp::SetText { .. } => "service.apply_text",
        EditOp::AddSupport { .. } | EditOp::RemoveNode { .. } => "service.apply_structural",
    }
}

/// Whether a request's answers show the entailment its traffic step
/// implies — a severed chain is not entailed (a false probe verdict and
/// CK107), a restored one is — and, when `against_batch`, equal
/// `batch_answers` on the same revision.
fn answered_ok(
    service: &CaseService,
    request: &Request,
    answered: &Result<CaseAnswers, EditError>,
    against_batch: bool,
    config: &LintConfig,
) -> bool {
    let Ok(answers) = answered else {
        return false;
    };
    let flagged = answers
        .lint
        .iter()
        .any(|d| d.code == LintCode::ConclusionNotEntailed);
    let implied = answers
        .probe
        .as_ref()
        .is_some_and(|probe| probe.entailed == request.entailed)
        && flagged != request.entailed;
    implied
        && (!against_batch
            || service
                .session(request.case)
                .is_some_and(|session| batch_answers(session.argument(), config) == *answers))
}

/// The fleet's session counters, summed.
fn fleet_stats(service: &CaseService) -> SessionStats {
    let mut sum = SessionStats::default();
    for stats in (0..service.len())
        .filter_map(|case| service.session(case))
        .map(|session| session.stats())
    {
        sum.queries += stats.queries;
        sum.recompiles += stats.recompiles;
        sum.full_rebuilds += stats.full_rebuilds;
        sum.steps_checked += stats.steps_checked;
        sum.steps_reused += stats.steps_reused;
        sum.cached_answers += stats.cached_answers;
    }
    sum
}
