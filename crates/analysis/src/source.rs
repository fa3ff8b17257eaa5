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

    /// Merges `graph`, the lint stream of the recovered argument, into
    /// the syntax stream: each finding is anchored to its primary node's
    /// identifier span (else the argument name, else the file start), and
    /// the stream is put back in canonical order.
    pub fn with_graph(mut self, graph: Vec<Diagnostic>) -> Self {
        for mut diagnostic in graph {
            let anchor = diagnostic
                .primary
                .as_ref()
                .and_then(|id| self.source_map.node(id))
                .map(|spans| spans.id)
                .or(self.source_map.name);
            diagnostic.span = Some(anchor.unwrap_or(Span::point(0)));
            self.diagnostics.push(diagnostic);
        }
        self.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        self
    }
}

/// The stable code for one recovered syntax error.
fn code_for(kind: SyntaxErrorKind) -> LintCode {
    match kind {
        SyntaxErrorKind::UnterminatedString => LintCode::UnterminatedString,
        SyntaxErrorKind::UnknownKeyword => LintCode::UnknownKeyword,
        SyntaxErrorKind::BadPayload => LintCode::MalformedPayload,
        SyntaxErrorKind::Structure => LintCode::InvalidStructure,
        SyntaxErrorKind::TooDeep => LintCode::TooDeep,
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
    let analysis = check_syntax(src, config);
    match &analysis.argument {
        Some(argument) => {
            let graph = crate::lint_argument(argument, config);
            analysis.with_graph(graph)
        }
        None => analysis,
    }
}

/// The syntax half of [`check_source`]: runs the recovering parser and
/// converts its errors into `CK2xx` diagnostics, but does **not** lint
/// the recovered argument. This is the corpus-ingestion fast path — the
/// service's `CorpusLoader` uses it to shard parsing across workers
/// without paying for a solver session per file. `CaseService::open_source`
/// parses with it too, and lints through the session it opens.
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

/// Renders a two-line caret excerpt for `span`: the source line it
/// starts on, and a `^^^` underline clamped to that line.
///
/// The caret is indented by the characters of the line before the
/// span, and the underline has one caret per character of the span
/// (at least one), so both stay under the span on lines with
/// non-ASCII text. Where a slice would not fall on character
/// boundaries of the line (a span that starts inside a character, or
/// past a trimmed `\r`), the byte count stands in. The `line:col` of
/// [`LineIndex::line_col`] stays a byte column.
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
    // Byte offsets into `text`; the underline is clamped to the line
    // (spans may run to end of file).
    let start = col - 1;
    let end = (start + span.end.saturating_sub(span.start)).min(text.len());
    let chars = |from: usize, to: usize| {
        text.get(from..to)
            .map_or(to.saturating_sub(from), |slice| slice.chars().count())
    };
    // The caret indent is built by hand: a format width cannot pass
    // `u16::MAX`, and columns can.
    Some(format!(
        "{line:>4} | {text}\n     | {}{}",
        " ".repeat(chars(0, start)),
        "^".repeat(chars(start, end).max(1))
    ))
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
    fn unclosed_group_in_a_payload_underlines_the_token_it_names() {
        for payload in ["(alpha beta gamma)", "(alpha beta"] {
            let src = format!("argument \"a\" {{\n  goal g1 \"x\" formal \"{payload}\"\n}}\n");
            let analysis = check_source(&src, &LintConfig::new());
            let d = analysis
                .diagnostics
                .iter()
                .find(|d| d.code == LintCode::MalformedPayload)
                .unwrap();
            assert_eq!(
                d.message,
                "in formal payload of `g1`: expected `)`, found `beta`"
            );
            let span = d.span.unwrap();
            assert_eq!(&src[span.start..span.end], "beta", "{payload}");
        }
    }

    #[test]
    fn excerpt_renders_columns_past_u16_max() {
        let src = format!("{}$\n", " ".repeat(70_000));
        let index = LineIndex::new(&src);
        let rendered = excerpt(&src, &index, Span::new(70_000, 70_001)).unwrap();
        let caret_line = rendered.lines().nth(1).unwrap();
        assert_eq!(caret_line, format!("     | {}^", " ".repeat(70_000)));
    }

    #[test]
    fn excerpt_counts_characters_not_bytes() {
        let src = "argument \"a\" {\n  goal g1 \"ééé\" formal \"p $ q\"\n}\n";
        let index = LineIndex::new(src);
        // The `$` is reported at a byte column, and the caret sits
        // under it in characters.
        let analysis = check_source(src, &LintConfig::new());
        let bad = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::MalformedPayload)
            .unwrap();
        let span = bad.span.unwrap();
        assert_eq!(&src[span.start..span.end], "$");
        assert_eq!(index.line_col(span.start), (2, 30));
        let rendered = excerpt(src, &index, span).unwrap();
        let (text, carets) = rendered.split_once('\n').unwrap();
        let under = |c: char| text.chars().position(|t| t == c).unwrap();
        assert_eq!(carets.chars().position(|c| c == '^'), Some(under('$')));
        assert_eq!(carets.matches('^').count(), 1);
        // A span over one two-byte character gets one caret.
        let e = src.find('é').unwrap();
        let rendered = excerpt(src, &index, Span::new(e, e + 2)).unwrap();
        let (text, carets) = rendered.split_once('\n').unwrap();
        let first = text.chars().position(|t| t == 'é').unwrap();
        assert_eq!(carets.chars().position(|c| c == '^'), Some(first));
        assert_eq!(carets.matches('^').count(), 1);
        // A span starting inside a character falls back to bytes.
        assert!(excerpt(src, &index, Span::new(e + 1, e + 2)).is_some());
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
