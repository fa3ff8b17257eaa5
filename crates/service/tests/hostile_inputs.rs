//! Inputs built to take the process down: formulas and blocks nested
//! tens of thousands deep, a diagnostic past column 65,535, and support
//! graphs that are deep, cyclic or exponentially many-pathed.
//!
//! Each input is generated in memory and driven through the three
//! front doors a `.case` text can enter by — [`check_source`],
//! [`CorpusLoader::load`] on real worker threads, and
//! [`CaseService::open_source`] followed by `answers` — each on a
//! 2 MiB stack, the size `Runtime` workers get. Every nesting input
//! must end as its `CK2xx` diagnostic; the parenthesis tower is a valid
//! formula. The graphs parse clean, so they skip the loader, which only
//! parses; they must end as exactly their lint codes.

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

/// Support graphs that parse clean, each with every code it must
/// produce, once: a strategy cycle below a formal goal, a 100k-strategy
/// `ref` chain, and a 40-level tower of strategy diamonds (2^40 paths
/// from the top goal to its one formal leaf).
fn hostile_graphs() -> Vec<(&'static str, String, Vec<LintCode>)> {
    use LintCode::{BeggingTheQuestion, CircularStep, SupportCycle};
    let cycle = r#"argument "cycle" {
  goal g1 "top" formal "p" {
    strategy s1 "outer" {
      strategy s2 "inner" { ref s1 }
    }
  }
}
"#;
    // `ref` targets must be declared earlier, so both shapes are
    // written from the leaf up to the top goal.
    let leaf = "goal g2 \"leaf\" formal \"p\" { solution e1 \"log\" }";
    let links = 100_000;
    let mut chain = format!("argument \"chain\" {{\nstrategy s{links} \"link\" {{ {leaf} }}\n");
    for i in (1..links).rev() {
        chain.push_str(&format!("strategy s{i} \"link\" {{ ref s{} }}\n", i + 1));
    }
    chain.push_str("goal g1 \"top\" formal \"p\" { ref s1 }\n}\n");
    let mut tower = format!("argument \"tower\" {{\nstrategy j0 \"join\" {{ {leaf} }}\n");
    for i in 1..=40 {
        let below = i - 1;
        tower.push_str(&format!(
            "strategy a{i} \"left\" {{ ref j{below} }}\n\
             strategy b{i} \"right\" {{ ref j{below} }}\n\
             strategy j{i} \"join\" {{ ref a{i} ref b{i} }}\n"
        ));
    }
    tower.push_str("goal g1 \"top\" formal \"p\" { ref j40 }\n}\n");
    vec![
        (
            "strategy cycle",
            cycle.to_string(),
            vec![SupportCycle, BeggingTheQuestion],
        ),
        (
            "100k strategy chain",
            chain,
            vec![CircularStep, BeggingTheQuestion],
        ),
        (
            "40-level diamond tower",
            tower,
            vec![CircularStep, BeggingTheQuestion],
        ),
    ]
}

/// The code of every diagnostic, in the canonical output order.
fn codes(diagnostics: &[Diagnostic]) -> Vec<LintCode> {
    diagnostics.iter().map(|d| d.code).collect()
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

#[test]
fn check_source_walks_every_hostile_graph() {
    on_small_stack(|| {
        for (name, src, expected) in hostile_graphs() {
            let analysis = check_source(&src, &Default::default());
            assert_eq!(codes(&analysis.diagnostics), expected, "{name}");
        }
    });
}

#[test]
fn case_service_opens_and_answers_every_hostile_graph() {
    on_small_stack(|| {
        let mut service = CaseService::new();
        for (name, src, expected) in hostile_graphs() {
            let (case, diagnostics) = service.open_source(&src);
            assert_eq!(codes(&diagnostics), expected, "{name}");
            let case = case.unwrap_or_else(|| panic!("{name}: nothing opened"));
            let answers = service
                .answers(case)
                .unwrap_or_else(|| panic!("{name}: no answers"));
            assert_eq!(codes(&answers.lint), expected, "{name}");
        }
    });
}
