//! Source-plane analysis: the recovering DSL frontend routed into the
//! diagnostic substrate.
//!
//! [`check_source`] is the span-carrying sibling of
//! [`lint_source`](crate::lint_source): instead of aborting on the
//! first parse error it runs the error-recovering parser, converts
//! every syntax error into a `CK2xx` [`Diagnostic`] with its byte span,
//! and — when an argument could still be recovered — runs the full
//! graph/solver lint set over it, anchoring each graph finding to its
//! node's declaration span through the parser's
//! [`SourceMap`](casekit_core::dsl::SourceMap). One call, one uniform
//! stream, every diagnostic locatable in the text it came from.

use crate::diagnostic::{Diagnostic, LintCode, LintConfig, Sink};
use casekit_core::dsl::{parse_argument_recovering, DslError, SourceMap};
use casekit_core::Argument;
use casekit_logic::{LineIndex, Span, SyntaxErrorKind};
use casekit_runtime::Runtime;

/// Everything the source-plane pipeline recovers from one `.case` text:
/// the argument (when enough of the file parsed to build one), the span
/// map of surviving declarations, and the combined syntax + lint
/// diagnostic stream in canonical order.
#[derive(Debug, Clone)]
pub struct SourceAnalysis {
    /// The recovered argument; `None` when the header was missing or a
    /// structural error made the file unbuildable.
    pub argument: Option<Argument>,
    /// Declaration spans for every node that survived recovery.
    pub source_map: SourceMap,
    /// Syntax (`CK2xx`) and graph/solver diagnostics, sorted by code,
    /// then primary node, then message. Every diagnostic raised from
    /// this source carries a populated `span`.
    pub diagnostics: Vec<Diagnostic>,
}

impl SourceAnalysis {
    /// True when no diagnostics were emitted at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// The stable code for one recovered syntax error.
fn code_for(kind: SyntaxErrorKind) -> LintCode {
    match kind {
        SyntaxErrorKind::UnterminatedString => LintCode::UnterminatedString,
        SyntaxErrorKind::UnknownKeyword => LintCode::UnknownKeyword,
        SyntaxErrorKind::BadPayload => LintCode::MalformedPayload,
        SyntaxErrorKind::Structure => LintCode::InvalidStructure,
        _ => LintCode::SyntaxGeneral,
    }
}

/// Parses `src` with the recovering DSL frontend and lints whatever
/// could be built, returning one combined diagnostic stream in which
/// every finding carries a byte span into `src`.
///
/// Syntax errors become `CK2xx` diagnostics at the error's own span;
/// graph and solver findings are anchored to the primary node's
/// identifier span via the parser's source map (falling back to the
/// argument-name span for findings with no node anchor).
///
/// ```
/// use casekit_analysis::{check_source, LintCode, LintConfig};
///
/// let src = "argument \"demo\" {\n  gaol g1 \"top\"\n  goal g2 \"kept\" { solution e1 \"log\" }\n}\n";
/// let analysis = check_source(src, &LintConfig::new());
/// // The typo is a syntax diagnostic with a span…
/// let typo = analysis
///     .diagnostics
///     .iter()
///     .find(|d| d.code == LintCode::UnknownKeyword)
///     .unwrap();
/// assert_eq!(&src[typo.span.unwrap().start..typo.span.unwrap().end], "gaol");
/// // …and the rest of the file still parsed and was linted.
/// let argument = analysis.argument.as_ref().unwrap();
/// assert_eq!(argument.nodes().count(), 2);
/// assert!(analysis.diagnostics.iter().all(|d| d.span.is_some()));
/// ```
pub fn check_source(src: &str, config: &LintConfig) -> SourceAnalysis {
    let mut analysis = check_syntax(src, config);
    if let Some(argument) = &analysis.argument {
        let mut graph = crate::lint_argument(argument, config);
        for diagnostic in &mut graph {
            diagnostic.span = Some(anchor(diagnostic, &analysis.source_map));
        }
        analysis.diagnostics.extend(graph);
        analysis
            .diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }
    analysis
}

/// The syntax half of [`check_source`]: runs the recovering parser and
/// converts its errors into `CK2xx` diagnostics, but does **not** lint
/// the recovered argument. This is the corpus-ingestion fast path — the
/// service's `CorpusLoader` uses it to shard parsing across workers
/// without paying for a solver session per file.
pub fn check_syntax(src: &str, config: &LintConfig) -> SourceAnalysis {
    let outcome = parse_argument_recovering(src);
    let mut sink = Sink::new(config);
    for DslError { error, node } in outcome.errors {
        sink.emit_at(
            code_for(error.kind),
            node,
            error.message,
            error.hint,
            error.span,
        );
    }
    let diagnostics = sink.finish();
    SourceAnalysis {
        argument: outcome.argument,
        source_map: outcome.source_map,
        diagnostics,
    }
}

/// The span a graph diagnostic anchors to: its primary node's
/// identifier, else the argument-name span, else the start of the file.
fn anchor(diagnostic: &Diagnostic, map: &SourceMap) -> Span {
    diagnostic
        .primary
        .as_ref()
        .and_then(|id| map.node(id))
        .map(|spans| spans.id)
        .or(map.name)
        .unwrap_or(Span::point(0))
}

/// [`check_source`] over a corpus, sharded across the runtime's
/// workers. Output is index-aligned with `sources` and byte-identical
/// at any worker count: the per-file analysis is a pure function and
/// [`Runtime::map`] preserves order.
pub fn check_sources(
    sources: &[String],
    config: &LintConfig,
    runtime: &Runtime,
) -> Vec<SourceAnalysis> {
    runtime.map(sources, |_, src| check_source(src, config))
}

/// Renders a two-line caret excerpt for `span`: the source line it
/// starts on, and a `^^^` underline clamped to that line.
///
/// Returns `None` when the span's line cannot be recovered (empty
/// source).
///
/// ```
/// use casekit_analysis::excerpt;
/// use casekit_logic::{LineIndex, Span};
///
/// let src = "argument \"a\" {\n  gaol g1 \"top\"\n}\n";
/// let index = LineIndex::new(src);
/// let lines = excerpt(src, &index, Span::new(17, 21)).unwrap();
/// assert_eq!(lines, "   2 |   gaol g1 \"top\"\n     |   ^^^^");
/// ```
pub fn excerpt(src: &str, index: &LineIndex, span: Span) -> Option<String> {
    let (line, col) = index.line_col(span.start);
    let line_span = index.line_span(line)?;
    let text = src[line_span.start..line_span.end].trim_end_matches(['\n', '\r']);
    // Clamp the underline to the line (spans may run to end of file) and
    // keep at least one caret for point spans.
    let width = span
        .end
        .saturating_sub(span.start)
        .min(text.len().saturating_sub(col - 1))
        .max(1);
    let gutter = format!("{line:>4} | ");
    let mut out = format!("{gutter}{text}\n");
    out.push_str(&format!(
        "{:>pad$} | {:>off$}{}",
        "",
        "",
        "^".repeat(width),
        pad = 4,
        off = col - 1,
    ));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    #[test]
    fn clean_source_is_clean_and_graph_lints_carry_spans() {
        let src = r#"argument "mp" {
  goal g1 "q holds" formal "q" {
    goal g2 "the rule" formal "p -> q" { solution e1 "rule review" }
    goal g3 "the fact" formal "p" { solution e2 "measurement" }
  }
}"#;
        let analysis = check_source(src, &LintConfig::deny_all());
        assert!(analysis.is_clean(), "got: {:?}", analysis.diagnostics);
        assert!(analysis.argument.is_some());

        let gappy = r#"argument "gap" {
  goal g1 "deadlines" formal "met" {
    goal g2 "quality" formal "reviewed" { solution e1 "minutes" }
  }
}"#;
        let analysis = check_source(gappy, &LintConfig::new());
        assert!(!analysis.is_clean());
        for d in &analysis.diagnostics {
            let span = d.span.expect("every diagnostic carries a span");
            // Each graph finding is anchored at its node's identifier.
            if let Some(primary) = &d.primary {
                assert_eq!(&gappy[span.start..span.end], primary.as_str());
            }
        }
    }

    #[test]
    fn syntax_errors_map_to_stable_codes() {
        let src = "argument \"bad\" {\n  gaol g1 \"typo\"\n  goal g2 \"ok\" formal \"p &\" { solution e1 \"x\" }\n  goal g2 \"dup\"\n  evidence e9 \"unterminated\n}\n";
        let analysis = check_source(src, &LintConfig::new());
        let codes: Vec<LintCode> = analysis.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&LintCode::UnknownKeyword), "{codes:?}");
        assert!(codes.contains(&LintCode::MalformedPayload), "{codes:?}");
        assert!(codes.contains(&LintCode::InvalidStructure), "{codes:?}");
        assert!(codes.contains(&LintCode::UnterminatedString), "{codes:?}");
        // Syntax codes default to deny: all errors.
        for d in analysis
            .diagnostics
            .iter()
            .filter(|d| d.code.number() >= 201)
        {
            assert_eq!(d.severity, Severity::Error);
            assert!(d.span.is_some());
        }
    }

    #[test]
    fn missing_header_yields_no_argument_but_diagnostics() {
        let analysis = check_source("widget { }", &LintConfig::new());
        assert!(analysis.argument.is_none());
        assert!(!analysis.diagnostics.is_empty());
        assert!(analysis.diagnostics.iter().all(|d| d.span.is_some()));
    }

    #[test]
    fn allow_suppresses_syntax_codes_too() {
        let config = LintConfig::allow_all();
        let analysis = check_source("argument \"a\" {\n  gaol g1 \"x\"\n}\n", &config);
        assert!(analysis.diagnostics.is_empty());
    }

    #[test]
    fn sharded_corpus_is_worker_invariant() {
        let sources: Vec<String> = (0..24)
            .map(|i| {
                if i % 3 == 0 {
                    format!("argument \"c{i}\" {{\n  gaol g1 \"typo\"\n  goal g2 \"ok\" {{ solution e1 \"x\" }}\n}}\n")
                } else {
                    format!("argument \"c{i}\" {{\n  goal g1 \"top\" {{ solution e1 \"x\" }}\n}}\n")
                }
            })
            .collect();
        let config = LintConfig::new();
        let serial: Vec<Vec<Diagnostic>> = sources
            .iter()
            .map(|s| check_source(s, &config).diagnostics)
            .collect();
        for workers in [1, 2, 4] {
            let runtime = Runtime::with_workers(workers);
            let sharded: Vec<Vec<Diagnostic>> = check_sources(&sources, &config, &runtime)
                .into_iter()
                .map(|a| a.diagnostics)
                .collect();
            assert_eq!(sharded, serial, "workers={workers}");
        }
    }

    #[test]
    fn excerpt_clamps_to_the_line() {
        let src = "argument \"a\" {\n  evidence e1 \"runs off\n}\n";
        let index = LineIndex::new(src);
        // The unterminated string spans to end of file; the caret stays
        // on line 2.
        let analysis = check_source(src, &LintConfig::new());
        let unterminated = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::UnterminatedString)
            .unwrap();
        let rendered = excerpt(src, &index, unterminated.span.unwrap()).unwrap();
        let mut lines = rendered.lines();
        assert_eq!(lines.next(), Some("   2 |   evidence e1 \"runs off"));
        let caret_line = lines.next().unwrap();
        assert!(caret_line
            .trim_start_matches([' ', '|'])
            .chars()
            .all(|c| c == '^'));
        assert_eq!(lines.next(), None);
    }
}
