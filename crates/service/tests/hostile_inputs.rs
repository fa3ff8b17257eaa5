//! Inputs built to take the process down: formulas and blocks nested
//! tens of thousands deep, and a diagnostic past column 65,535.
//!
//! Each input is generated in memory and driven through the three
//! front doors a `.case` text can enter by — [`check_source`],
//! [`CorpusLoader::load`] on real worker threads, and
//! [`CaseService::open_source`] followed by `answers` — each on a
//! 2 MiB stack, the size `Runtime` workers get. Every input must end as
//! its `CK2xx` diagnostic; the parenthesis tower is a valid formula.

use casekit_analysis::{check_source, Diagnostic, LintCode};
use casekit_core::FormalPayload;
use casekit_logic::prop::Formula;
use casekit_runtime::{Runtime, MIN_CHUNK};
use casekit_service::{CaseService, CorpusLoader};

/// The stack every path runs on: the default for spawned threads, and
/// so the one `Runtime` workers get.
const STACK: usize = 2 << 20;

fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

/// A one-goal case whose root carries `payload` under `kind`.
fn payload_case(kind: &str, payload: &str) -> String {
    format!(
        "argument \"hostile\" {{\n  goal g1 \"deep\" {kind} \"{payload}\" {{\n    solution e1 \"log\"\n  }}\n}}\n"
    )
}

/// `levels` goals, each nested in the body of the one before.
fn goal_tower(levels: usize) -> String {
    let mut src = String::from("argument \"tower\" {\n");
    for i in 1..=levels {
        src.push_str(&format!("goal g{i} \"level {i}\" {{\n"));
    }
    src.push_str("solution e1 \"log\"\n");
    src.push_str(&"}\n".repeat(levels + 1));
    src
}

/// Each hostile input with the one syntax code it must end as (`None`:
/// it must parse clean).
fn hostile_inputs() -> Vec<(&'static str, String, Option<LintCode>)> {
    vec![
        (
            "30k `~`",
            payload_case("formal", &format!("{}p", "~".repeat(30_000))),
            Some(LintCode::MalformedPayload),
        ),
        (
            "200k parentheses",
            payload_case(
                "formal",
                &format!("{}p{}", "(".repeat(200_000), ")".repeat(200_000)),
            ),
            None,
        ),
        (
            "20k `->` chain",
            payload_case("formal", &vec!["p"; 20_001].join(" -> ")),
            Some(LintCode::MalformedPayload),
        ),
        (
            "30k `G` chain",
            payload_case("temporal", &format!("{}p", "G ".repeat(30_000))),
            Some(LintCode::MalformedPayload),
        ),
        (
            "10k-deep goal tower",
            goal_tower(10_000),
            Some(LintCode::TooDeep),
        ),
        (
            "`$` at column 70k",
            format!(
                "argument \"wide\" {{ goal g1 \"top\" {{ solution e1 \"log\" }} {}$ }}\n",
                " ".repeat(70_000)
            ),
            Some(LintCode::SyntaxGeneral),
        ),
    ]
}

/// Checks one input's diagnostics: its syntax findings are exactly its
/// expected code, once.
fn assert_ends_as(name: &str, diagnostics: &[Diagnostic], code: Option<LintCode>) {
    let syntax: Vec<LintCode> = diagnostics
        .iter()
        .map(|d| d.code)
        .filter(|code| code.number() >= 201)
        .collect();
    assert_eq!(syntax, Vec::from_iter(code), "{name}: {diagnostics:?}");
}

#[test]
fn check_source_reports_every_hostile_input() {
    on_small_stack(|| {
        for (name, src, code) in hostile_inputs() {
            let analysis = check_source(&src, &Default::default());
            assert_ends_as(name, &analysis.diagnostics, code);
            assert!(analysis.argument.is_some(), "{name}: no argument");
            if code.is_none() {
                let argument = analysis.argument.unwrap();
                let root = argument.node(&"g1".into()).expect("g1");
                assert_eq!(root.formal, Some(FormalPayload::Prop(Formula::atom("p"))));
            }
        }
    });
}

#[test]
fn corpus_loader_workers_survive_every_hostile_input() {
    on_small_stack(|| {
        let inputs = hostile_inputs();
        let clean = "argument \"clean\" { goal g1 \"top\" formal \"p\" { solution e1 \"log\" } }";
        // Pad so two workers really spawn, with hostile files in both
        // chunks.
        let mut sources: Vec<String> = inputs.iter().map(|(_, src, _)| src.clone()).collect();
        sources.resize(2 * MIN_CHUNK, clean.to_string());
        sources.extend(inputs.iter().map(|(_, src, _)| src.clone()));
        let runtime = Runtime::with_workers(2);
        assert_eq!(runtime.effective_workers(sources.len()), 2);
        let loaded = CorpusLoader::new().load(&sources, &runtime);
        let n = inputs.len();
        for (i, (name, _, code)) in inputs.iter().enumerate() {
            assert_ends_as(name, &loaded[i].diagnostics, *code);
            assert_ends_as(name, &loaded[2 * MIN_CHUNK + i].diagnostics, *code);
        }
        assert!(loaded[n..2 * MIN_CHUNK].iter().all(|case| case.is_clean()));
    });
}

#[test]
fn case_service_opens_and_answers_every_hostile_input() {
    on_small_stack(|| {
        let mut service = CaseService::new();
        for (name, src, code) in hostile_inputs() {
            let (case, diagnostics) = service.open_source(&src);
            assert_ends_as(name, &diagnostics, code);
            let case = case.unwrap_or_else(|| panic!("{name}: nothing opened"));
            assert!(service.answers(case).is_some(), "{name}: no answers");
        }
    });
}
