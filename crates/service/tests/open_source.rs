//! [`CaseService::open_source`] opens a case once. It returns the
//! diagnostics [`check_source`] returns, and the session it opens has
//! already compiled the case and built its first answer bundle, asking
//! each solver question once. The first `answers` is that cached bundle.
//! Every bundled `.case` file is driven through it: the example cases
//! and the malformed fixtures.

use casekit_analysis::{check_source, LintConfig};
use casekit_fallacies::checker::check_argument;
use casekit_service::{batch_answers, CaseService};
use std::path::{Path, PathBuf};

/// Every `.case` file under `examples/cases` and
/// `examples/cases/malformed`, with its text.
fn bundled_cases() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/cases");
    let mut paths: Vec<PathBuf> = [root.clone(), root.join("malformed")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("examples/cases exists"))
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let src = std::fs::read_to_string(&path).expect("readable case");
            (path, src)
        })
        .collect()
}

#[test]
fn open_source_returns_check_sources_diagnostics() {
    // Every bundled file recovers an argument; a text with no header
    // recovers none.
    let mut sources = bundled_cases();
    sources.push(("no header".into(), "widget { }".into()));
    // The bundled cases are clean; this one has machine findings (a
    // non-deductive step, the conclusion not entailed), so a machine
    // report read off the diagnostics would differ under `allow_all`.
    sources.push((
        "machine findings".into(),
        r#"argument "machine findings" {
  goal g_top "Both channels are up" formal "a & b" {
    strategy s_channels "Argue over the channels" {
      goal g_a "Channel a is up" formal "a" {
        solution e_a "Channel a test log"
      }
      goal g_c "Channel c is up" formal "c" {
        solution e_c "Channel c test log"
      }
    }
  }
}
"#
        .into(),
    ));
    let mut findings = 0;
    for config in [
        LintConfig::new(),
        LintConfig::deny_all(),
        LintConfig::allow_all(),
    ] {
        let mut service = CaseService::with_config(config.clone());
        for (path, src) in &sources {
            let checked = check_source(src, &config);
            let (case, diagnostics) = service.open_source(src);
            assert_eq!(diagnostics, checked.diagnostics, "{}", path.display());
            assert_eq!(
                case.map(|case| service.session(case).unwrap().argument()),
                checked.argument.as_ref(),
                "{}",
                path.display()
            );
            // The machine report comes from the lint run's verdicts, not
            // its diagnostics, so no lint level changes it.
            if let Some(case) = case {
                let machine = service.answers(case).unwrap().machine;
                let argument = service.session(case).unwrap().argument();
                assert_eq!(machine, check_argument(argument), "{}", path.display());
                findings += machine.findings.len();
            }
        }
    }
    assert!(findings > 0, "no case had a machine finding");
}

#[test]
fn set_up_compiles_once_and_the_first_answers_is_the_cached_bundle() {
    let config = LintConfig::new();
    let mut service = CaseService::new();
    for (path, src) in bundled_cases() {
        let (Some(case), _) = service.open_source(&src) else {
            continue;
        };
        let name = path.display();
        let opened = service.session(case).unwrap().stats();
        assert_eq!(opened.queries, 1, "{name}: {opened:?}");
        assert_eq!(opened.recompiles, 1, "{name}: {opened:?}");
        assert_eq!(opened.cached_answers, 0, "{name}: {opened:?}");
        // Set-up asks what a session opened from the built argument asks
        // for its first answers: each question once.
        let argument = service.session(case).unwrap().argument().clone();
        let mut cold = CaseService::new();
        let cold_case = cold.open(argument.clone());
        cold.answers(cold_case).unwrap();
        let cold = cold.session(cold_case).unwrap().stats();
        assert_eq!(opened.solver_calls, cold.solver_calls, "{name}");
        assert_eq!(opened.steps_checked, cold.steps_checked, "{name}");

        let answers = service.answers(case).unwrap();
        let first = service.session(case).unwrap().stats();
        assert_eq!(first.queries, 2, "{name}: {first:?}");
        assert_eq!(first.cached_answers, 1, "{name}: {first:?}");
        assert_eq!(first.recompiles, opened.recompiles, "{name}: {first:?}");
        assert_eq!(first.solver_calls, opened.solver_calls, "{name}: {first:?}");
        assert_eq!(answers, batch_answers(&argument, &config), "{name}");
    }
}
