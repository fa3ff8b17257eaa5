//! The malformed fixture corpus under `examples/cases/malformed/`:
//! one file per defect class the recovering frontend handles, each
//! pinned to its exact diagnostic codes, spans, and line:col
//! positions. `caselint_cli.rs` runs `caselint` over the same
//! directory and asserts it fails with every syntax code; this test
//! keeps the fixtures and the engine honest at byte granularity.

use casekit_analysis::{check_source, excerpt, Diagnostic, LintCode, LintConfig, Severity};
use casekit_logic::LineIndex;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/cases/malformed")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn analyze(name: &str) -> (String, Vec<Diagnostic>) {
    let src = fixture(name);
    let diagnostics = check_source(&src, &LintConfig::new()).diagnostics;
    (src, diagnostics)
}

/// `(line, col)` of a diagnostic's span start, 1-based.
fn line_col(src: &str, diagnostic: &Diagnostic) -> (usize, usize) {
    let span = diagnostic
        .span
        .expect("every fixture diagnostic has a span");
    LineIndex::new(src).line_col(span.start)
}

/// The source text a diagnostic's span covers.
fn covered<'s>(src: &'s str, diagnostic: &Diagnostic) -> &'s str {
    let span = diagnostic.span.unwrap();
    &src[span.start..span.end]
}

#[test]
fn bad_keyword_fixture() {
    let (src, diagnostics) = analyze("bad_keyword.case");
    assert_eq!(diagnostics.len(), 1, "got: {diagnostics:?}");
    let d = &diagnostics[0];
    assert_eq!(d.code, LintCode::UnknownKeyword);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(line_col(&src, d), (4, 3));
    assert_eq!(covered(&src, d), "gaol");
    assert_eq!(d.hint.as_deref(), Some("did you mean `goal`?"));
}

#[test]
fn truncated_block_fixture() {
    let (src, diagnostics) = analyze("truncated_block.case");
    assert_eq!(diagnostics.len(), 1, "got: {diagnostics:?}");
    let d = &diagnostics[0];
    assert_eq!(d.code, LintCode::SyntaxGeneral);
    assert_eq!(d.message, "expected `}`, found end of input");
    assert_eq!(line_col(&src, d), (6, 1));
    assert_eq!(d.span.unwrap().start, src.len());
}

#[test]
fn broken_payload_fixture() {
    let (src, diagnostics) = analyze("broken_payload.case");
    assert_eq!(diagnostics.len(), 1, "got: {diagnostics:?}");
    let d = &diagnostics[0];
    assert_eq!(d.code, LintCode::MalformedPayload);
    assert_eq!(
        d.message,
        "in formal payload of `g1`: unexpected end of input"
    );
    assert_eq!(d.primary.as_ref().unwrap().as_str(), "g1");
    // Anchored inside the quoted formula, at the point the parser gave
    // up — just past `safe &`.
    assert_eq!(line_col(&src, d), (5, 44));
}

#[test]
fn unterminated_string_fixture() {
    let (src, diagnostics) = analyze("unterminated_string.case");
    assert_eq!(diagnostics.len(), 2, "got: {diagnostics:?}");
    // Canonical order puts CK201 (the swallowed `}`) first.
    assert_eq!(diagnostics[0].code, LintCode::SyntaxGeneral);
    assert_eq!(diagnostics[0].message, "expected `}`, found end of input");
    let d = &diagnostics[1];
    assert_eq!(d.code, LintCode::UnterminatedString);
    assert_eq!(line_col(&src, d), (5, 17));
    // The literal runs from its opening quote to end of input.
    assert_eq!(d.span.unwrap().end, src.len());
    assert!(covered(&src, d).starts_with("\"the evidence log"));
}

#[test]
fn stray_character_fixture() {
    let (src, diagnostics) = analyze("stray_character.case");
    assert_eq!(diagnostics.len(), 1, "got: {diagnostics:?}");
    let d = &diagnostics[0];
    assert_eq!(d.code, LintCode::SyntaxGeneral);
    assert_eq!(d.message, "unexpected character `$`");
    assert_eq!(line_col(&src, d), (7, 3));
    assert_eq!(covered(&src, d), "$");
}

#[test]
fn invalid_structure_fixture() {
    let (src, diagnostics) = analyze("invalid_structure.case");
    assert_eq!(diagnostics.len(), 2, "got: {diagnostics:?}");
    let dangling = &diagnostics[0];
    assert_eq!(dangling.code, LintCode::InvalidStructure);
    assert_eq!(dangling.message, "unknown node `g9`");
    assert_eq!(line_col(&src, dangling), (7, 9));
    assert_eq!(covered(&src, dangling), "g9");
    let duplicate = &diagnostics[1];
    assert_eq!(duplicate.code, LintCode::InvalidStructure);
    assert_eq!(duplicate.message, "duplicate node id `g1`");
    assert_eq!(duplicate.primary.as_ref().unwrap().as_str(), "g1");
    assert_eq!(line_col(&src, duplicate), (9, 8));
    assert_eq!(covered(&src, duplicate), "g1");
}

#[test]
fn too_deep_formula_fixture() {
    let (src, diagnostics) = analyze("too_deep_formula.case");
    assert_eq!(diagnostics.len(), 1, "got: {diagnostics:?}");
    let d = &diagnostics[0];
    assert_eq!(d.code, LintCode::MalformedPayload);
    assert_eq!(
        d.message,
        "in formal payload of `g1`: formula nests deeper than 256 levels"
    );
    assert_eq!(d.primary.as_ref().unwrap().as_str(), "g1");
    assert_eq!(d.hint, None);
    // 257 `~` over `p`: the second `~` would build the 257th level.
    assert_eq!(line_col(&src, d), (6, 41));
    assert_eq!(covered(&src, d), "~");
    assert_eq!(&src[d.span.unwrap().start - 1..d.span.unwrap().start], "~");
}

#[test]
fn too_deep_block_fixture() {
    let (src, diagnostics) = analyze("too_deep_block.case");
    assert_eq!(diagnostics.len(), 2, "got: {diagnostics:?}");
    // The skipped body took `g257`'s only support with it.
    let unsupported = &diagnostics[0];
    assert_eq!(unsupported.code, LintCode::UndevelopedGoal);
    assert_eq!(unsupported.severity, Severity::Warning);
    assert_eq!(line_col(&src, unsupported), (261, 6));
    assert_eq!(covered(&src, unsupported), "g257");
    let d = &diagnostics[1];
    assert_eq!(d.code, LintCode::TooDeep);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.message, "node body nests deeper than 256 levels");
    assert_eq!(
        d.hint.as_deref(),
        Some("restructure the argument with fewer nested levels")
    );
    assert_eq!(line_col(&src, d), (261, 23));
    assert_eq!(covered(&src, d), "{");
    // Parsing resumed after the skipped body: every level up to `g257`
    // survived, and nothing inside the body did.
    let argument = check_source(&src, &LintConfig::new()).argument.unwrap();
    assert_eq!(argument.nodes().count(), 257);
}

#[test]
fn every_fixture_recovers_and_renders_an_excerpt() {
    for name in [
        "bad_keyword.case",
        "truncated_block.case",
        "broken_payload.case",
        "unterminated_string.case",
        "stray_character.case",
        "invalid_structure.case",
        "too_deep_formula.case",
    ] {
        let src = fixture(name);
        let analysis = check_source(&src, &LintConfig::new());
        // Every fixture keeps enough of the file to build an argument…
        assert!(analysis.argument.is_some(), "{name} built no argument");
        // …and every diagnostic is span-carrying, error-severity, and
        // excerptable.
        assert!(!analysis.diagnostics.is_empty(), "{name} was clean");
        let index = LineIndex::new(&src);
        for d in &analysis.diagnostics {
            assert_eq!(d.severity, Severity::Error, "{name}: {d}");
            let span = d.span.expect("span present");
            let rendered = excerpt(&src, &index, span).expect("excerpt renders");
            assert!(rendered.contains('^'), "{name}: {rendered}");
        }
    }
}
