//! The `caselint` command line over the bundled corpus: the example
//! cases lint clean at deny level, the malformed fixtures fail with
//! every syntax code, and a stdout closed by its reader ends the run
//! without a panic. The code list comes from the lint registry, so a
//! new `CK2xx` code needs a fixture here and no other edit.

use casekit_analysis::{LintCode, PassKind};
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn cases_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/cases")
}

/// Runs `caselint` with `args`: its exit code and stdout.
fn caselint(args: impl IntoIterator<Item = impl AsRef<OsStr>>) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_caselint"))
        .args(args)
        .output()
        .expect("caselint runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    (output.status.code(), stdout)
}

#[test]
fn malformed_fixtures_fail_with_every_syntax_code() {
    let (code, stdout) = caselint([cases_dir().join("malformed")]);
    assert_eq!(code, Some(1), "{stdout}");
    let syntax = LintCode::ALL
        .iter()
        .filter(|code| code.descriptor().pass == PassKind::Syntax);
    for lint in syntax {
        assert!(
            stdout.contains(&format!("[{lint}]")),
            "no {lint} in:\n{stdout}"
        );
    }
}

#[test]
fn example_cases_lint_clean_at_deny_level() {
    let mut cases: Vec<PathBuf> = std::fs::read_dir(cases_dir())
        .expect("examples/cases exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "case"))
        .collect();
    cases.sort();
    assert!(!cases.is_empty(), "no top-level example cases");
    for case in &cases {
        let (code, stdout) = caselint([OsStr::new("--deny"), case.as_os_str()]);
        assert_eq!(code, Some(0), "{}:\n{stdout}", case.display());
        assert_eq!(stdout, "", "{} has diagnostics", case.display());
    }
}

#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    // `caselint … | head -1`, made deterministic: the reader is gone
    // before the first line is written, so every write is a broken pipe.
    let malformed = cases_dir().join("malformed");
    for (args, expected) in [
        (vec![OsStr::new("--deny"), malformed.as_os_str()], 1),
        (vec![OsStr::new("--list")], 0),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_caselint"))
            .args(&args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("caselint runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(output.status.code(), Some(expected), "{args:?}: {stderr}");
    }
}
