//! A text DSL for writing assurance arguments.
//!
//! The grammar (comments run `//` or `#` to end of line):
//!
//! ```text
//! argument ::= "argument" STRING "{" node* "}"
//! node     ::= KIND IDENT STRING modifier* ( "{" child* "}" )?
//! child    ::= node | "ref" IDENT
//! modifier ::= "formal" STRING          -- propositional payload
//!            | "temporal" STRING        -- LTL payload
//!            | "undeveloped"
//! KIND     ::= "goal" | "strategy" | "solution" | "context"
//!            | "assumption" | "justification"
//!            | "claim" | "argnode" | "evidence"
//! ```
//!
//! Nesting encodes edges: contexts, assumptions, and justifications attach
//! to their parent with `InContextOf`; all other kinds with `SupportedBy`.
//! `ref` adds an edge to an already-declared node, allowing DAGs.
//!
//! # The recovering frontend
//!
//! The production entry point is [`parse_argument_recovering`]: an
//! error-tolerant lexer feeds a recover-and-continue parser
//! that synchronizes on `}` / the next kind keyword after
//! each error, so one bad node costs that node, not the file. It returns
//! a [`ParseOutcome`]: a best-effort [`Argument`] (when the header
//! parsed and something structurally valid survived), a [`SourceMap`]
//! recording the byte span of every declaration, and a span-sorted
//! stream of [`DslError`]s — embedded `formal`/`temporal` payload errors
//! are anchored *inside* the offending quoted string and tagged with the
//! owning node's id.
//!
//! The frontend allocates nothing per token. Tokens are `Copy` slices of
//! the input, string escapes are resolved only where owned text is built
//! (a node's text, the argument name, a payload), and the parser
//! validates every id and edge as it reads them, refusing exactly what
//! [`Argument::from_parts`] would refuse. Its id table and index-based
//! edge list therefore become the argument's interner and adjacency
//! directly, with no second validation pass.
//!
//! [`parse_argument`] is the strict wrapper (first diagnostic becomes
//! the `Err`), and [`parse_argument_seed`] is the retained
//! abort-on-first-error seed parser, kept as a differential oracle and
//! bench baseline.
//!
//! ```
//! use casekit_core::dsl::parse_argument;
//! let arg = parse_argument(r#"
//!   argument "demo" {
//!     goal g1 "Top" {
//!       solution e1 "Evidence"
//!     }
//!   }
//! "#).unwrap();
//! assert_eq!(arg.len(), 2);
//! ```
//!
//! Recovery keeps the rest of a damaged file:
//!
//! ```
//! use casekit_core::dsl::parse_argument_recovering;
//! let out = parse_argument_recovering(r#"
//!   argument "demo" {
//!     gaol g1 "typo kind"
//!     goal g2 "fine" { solution e1 "kept" }
//!   }
//! "#);
//! assert_eq!(out.errors.len(), 1);
//! assert_eq!(out.argument.unwrap().len(), 2); // g2 and e1 survive
//! ```

mod lexer;
mod parser;
mod seed;
mod source_map;

pub use seed::parse_argument_seed;
pub use source_map::{NodeSpans, SourceMap};

use crate::argument::Argument;
use crate::node::{EdgeKind, FormalPayload, NodeId, NodeKind};
use casekit_logic::ParseError;

/// The node-kind keyword mapping shared by both parsers.
pub(crate) fn kind_of(word: &str) -> Option<NodeKind> {
    match word {
        "goal" => Some(NodeKind::Goal),
        "strategy" => Some(NodeKind::Strategy),
        "solution" => Some(NodeKind::Solution),
        "context" => Some(NodeKind::Context),
        "assumption" => Some(NodeKind::Assumption),
        "justification" => Some(NodeKind::Justification),
        "claim" => Some(NodeKind::Claim),
        "argnode" => Some(NodeKind::ArgumentNode),
        "evidence" => Some(NodeKind::Evidence),
        _ => None,
    }
}

/// How a nested child of `kind` attaches to its parent.
pub(crate) fn edge_kind_for(kind: NodeKind) -> EdgeKind {
    match kind {
        NodeKind::Context | NodeKind::Assumption | NodeKind::Justification => EdgeKind::InContextOf,
        _ => EdgeKind::SupportedBy,
    }
}

/// One diagnostic from the recovering parser: the underlying
/// [`ParseError`] plus the node it concerns, when the parser can tell
/// (payload errors, duplicate ids, bad edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// The typed syntax error, with a span into the parsed source.
    pub error: ParseError,
    /// The node this error is about, when one is identifiable.
    pub node: Option<NodeId>,
}

/// Everything the recovering parser produced for one source file.
#[derive(Debug, Clone)]
pub struct ParseOutcome {
    /// The best-effort argument: `Some` whenever the `argument "name"`
    /// header parsed (structurally invalid pieces are dropped with
    /// diagnostics rather than failing the build).
    pub argument: Option<Argument>,
    /// Byte spans for the argument name and every recorded node.
    pub source_map: SourceMap,
    /// All diagnostics, sorted by `(span.start, span.end, message)` —
    /// deterministic for identical input, independent of recovery path.
    pub errors: Vec<DslError>,
}

impl ParseOutcome {
    /// Whether the parse produced no diagnostics.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Parses an argument from the DSL, recovering at every error.
///
/// Never fails and never panics: arbitrary input yields a
/// [`ParseOutcome`] whose diagnostic stream is deterministic and
/// span-sorted. See the module docs for the recovery strategy.
pub fn parse_argument_recovering(input: &str) -> ParseOutcome {
    parser::parse(input)
}

/// Parses an argument from the DSL.
///
/// This is the strict entry point: it runs the recovering parser and
/// fails on the first (span-earliest) diagnostic.
///
/// # Errors
///
/// Returns a [`ParseError`] for syntax errors (with a span into `input`)
/// or for structural errors (duplicate ids, dangling `ref`s), located at
/// the offending text.
pub fn parse_argument(input: &str) -> Result<Argument, ParseError> {
    let outcome = parse_argument_recovering(input);
    match outcome.errors.into_iter().next() {
        Some(first) => Err(first.error),
        None => Ok(outcome
            .argument
            .expect("a clean parse always yields an argument")),
    }
}

/// Renders an argument back into DSL text (single-parent tree shape only:
/// extra edges are emitted as `ref` children). Nodes no root reaches,
/// such as a detached support cycle, start from the first of them in id
/// order.
pub fn render_dsl(argument: &Argument) -> String {
    let mut out = format!("argument \"{}\" {{\n", escape(argument.name()));
    let mut emitted = vec![false; argument.len()];
    for start in argument.sorted_roots_idx().chain(argument.sorted_indices()) {
        if !emitted[start.index()] {
            render_node(argument, start, 1, &mut out, &mut emitted);
        }
    }
    out.push_str("}\n");
    out
}

fn keyword(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::Goal => "goal",
        NodeKind::Strategy => "strategy",
        NodeKind::Solution => "solution",
        NodeKind::Context => "context",
        NodeKind::Assumption => "assumption",
        NodeKind::Justification => "justification",
        NodeKind::Claim => "claim",
        NodeKind::ArgumentNode => "argnode",
        NodeKind::Evidence => "evidence",
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_node(
    argument: &Argument,
    idx: crate::argument::NodeIdx,
    indent: usize,
    out: &mut String,
    emitted: &mut [bool],
) {
    let node = argument.node_at(idx);
    let pad = "  ".repeat(indent);
    if emitted[idx.index()] {
        out.push_str(&format!("{pad}ref {}\n", node.id));
        return;
    }
    emitted[idx.index()] = true;
    out.push_str(&format!(
        "{pad}{} {} \"{}\"",
        keyword(node.kind),
        node.id,
        escape(&node.text)
    ));
    match &node.formal {
        Some(FormalPayload::Prop(f)) => out.push_str(&format!(" formal \"{f}\"")),
        Some(FormalPayload::Temporal(f)) => out.push_str(&format!(" temporal \"{f}\"")),
        None => {}
    }
    if node.undeveloped {
        out.push_str(" undeveloped");
    }
    let children: Vec<crate::argument::NodeIdx> = argument.all_children_idx(idx).collect();
    if children.is_empty() {
        out.push('\n');
        return;
    }
    out.push_str(" {\n");
    for child in children {
        render_node(argument, child, indent + 1, out, emitted);
    }
    out.push_str(&format!("{pad}}}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_logic::{Span, SyntaxErrorKind};

    const SAMPLE: &str = r#"
        // A small UAV argument.
        argument "uav" {
          goal g1 "UAV operations are acceptably safe" {
            context c1 "Segregated airspace ops"
            assumption a1 "Ground crew follows procedures"
            strategy s1 "Argue over identified hazards" {
              justification j1 "Hazard log reviewed by panel"
              goal g2 "Mid-air collision risk mitigated"
                formal "below_min -> avoiding" {
                solution e1 "Detect-and-avoid test campaign"
              }
              goal g3 "Loss-of-link handled" undeveloped
            }
          }
        }
    "#;

    #[test]
    fn parses_sample() {
        let a = parse_argument(SAMPLE).unwrap();
        assert_eq!(a.name(), "uav");
        assert_eq!(a.len(), 8);
        assert_eq!(a.edges().len(), 7);
        assert!(crate::gsn::check(&a).is_empty());
        let g2 = a.node(&"g2".into()).unwrap();
        assert!(g2.is_formalised());
        let g3 = a.node(&"g3".into()).unwrap();
        assert!(g3.undeveloped);
    }

    #[test]
    fn nesting_chooses_edge_kinds() {
        use crate::node::EdgeKind;
        let a = parse_argument(SAMPLE).unwrap();
        let g1 = NodeId::new("g1");
        assert_eq!(a.children(&g1, EdgeKind::InContextOf).len(), 2);
        assert_eq!(a.children(&g1, EdgeKind::SupportedBy).len(), 1);
    }

    #[test]
    fn temporal_payload() {
        let a = parse_argument(
            r#"argument "t" {
                goal g1 "always ok" temporal "G (req -> F grant)" {
                  solution e1 "model checking log"
                }
            }"#,
        )
        .unwrap();
        let g1 = a.node(&"g1".into()).unwrap();
        assert!(matches!(g1.formal, Some(FormalPayload::Temporal(_))));
    }

    #[test]
    fn ref_creates_dag() {
        let a = parse_argument(
            r#"argument "dag" {
                goal g1 "top" {
                  goal g2 "shared" {
                    solution e1 "shared evidence"
                  }
                  strategy s1 "also uses shared" {
                    ref g2
                  }
                }
            }"#,
        )
        .unwrap();
        assert_eq!(a.parents(&"g2".into()).len(), 2);
    }

    #[test]
    fn bad_formula_error_carries_node_id() {
        let err =
            parse_argument(r#"argument "x" { goal g1 "t" formal "p ->" { solution e "s" } }"#)
                .unwrap_err();
        assert!(err.message.contains("g1"));
        assert_eq!(err.kind, SyntaxErrorKind::BadPayload);
    }

    #[test]
    fn syntax_errors_located() {
        assert!(parse_argument("").is_err());
        assert!(parse_argument(r#"argument "x" {"#).is_err());
        assert!(parse_argument(r#"argument "x" { widget w "t" }"#)
            .unwrap_err()
            .message
            .contains("widget"));
        assert!(parse_argument(r#"argument "x" { goal "missing id" }"#).is_err());
        let err = parse_argument(r#"argument "x" { goal g1 }"#).unwrap_err();
        assert!(err.message.contains("text"));
    }

    #[test]
    fn unterminated_string_reported() {
        let err = parse_argument(r#"argument "x" { goal g1 "unterminated }"#).unwrap_err();
        assert!(err.message.contains("unterminated") || err.message.contains("expected"));
    }

    #[test]
    fn duplicate_id_surfaces_as_parse_error() {
        let err = parse_argument(
            r#"argument "x" {
                goal g1 "a" { solution e1 "s" }
                goal g1 "b" { solution e2 "s" }
            }"#,
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn ref_at_top_level_rejected() {
        let err = parse_argument(r#"argument "x" { ref g9 }"#).unwrap_err();
        assert!(err.message.contains("ref"));
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let a =
            parse_argument(r#"argument "q" { goal g1 "the \"safe\" state" { solution e1 "s" } }"#)
                .unwrap();
        assert_eq!(a.node(&"g1".into()).unwrap().text, "the \"safe\" state");
    }

    #[test]
    fn round_trip_through_render() {
        let a = parse_argument(SAMPLE).unwrap();
        let rendered = render_dsl(&a);
        let b = parse_argument(&rendered).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edges().len(), b.edges().len());
        for node in a.nodes() {
            let other = b.node(&node.id).expect("node survives round trip");
            assert_eq!(node.text, other.text);
            assert_eq!(node.kind, other.kind);
            assert_eq!(node.undeveloped, other.undeveloped);
        }
    }

    #[test]
    fn comments_and_hash_comments_skipped() {
        let a = parse_argument(
            "argument \"c\" {\n# hash comment\ngoal g1 \"t\" { // slash comment\n solution e1 \"s\" }\n}",
        )
        .unwrap();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_argument(r#"argument "x" { goal g1 "t" undeveloped } extra"#).unwrap_err();
        assert!(err.message.contains("trailing"));
        assert_eq!(err.kind, SyntaxErrorKind::TrailingInput);
    }

    // ---- recovery behavior ----

    /// The recovering parser and the seed parser must agree exactly on
    /// valid input.
    fn assert_matches_seed(src: &str) {
        let seed = parse_argument_seed(src).expect("seed accepts");
        let out = parse_argument_recovering(src);
        assert!(out.is_clean(), "unexpected diagnostics: {:?}", out.errors);
        let arg = out.argument.expect("clean parse yields an argument");
        assert_eq!(arg, seed);
    }

    #[test]
    fn recovering_parser_matches_seed_on_valid_files() {
        assert_matches_seed(SAMPLE);
        assert_matches_seed(r#"argument "empty" { }"#);
        assert_matches_seed(
            r#"argument "dag" {
                goal g1 "top" {
                  goal g2 "shared" { solution e1 "s" }
                  strategy s1 "reuses" { ref g2 }
                }
            }"#,
        );
    }

    #[test]
    fn bad_node_does_not_kill_the_file() {
        let out = parse_argument_recovering(
            r#"argument "x" {
                goal g1 "ok" { solution e1 "fine" }
                widget w1 "dropped"
                goal g2 "also ok"
            }"#,
        );
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.errors[0].error.kind, SyntaxErrorKind::UnknownKeyword);
        let a = out.argument.unwrap();
        assert_eq!(a.len(), 3); // g1, e1, g2 — w1 dropped
        assert!(a.node(&"g2".into()).is_some());
    }

    #[test]
    fn typoed_kind_gets_a_suggestion() {
        let out = parse_argument_recovering(r#"argument "x" { gaol g1 "t" }"#);
        assert_eq!(out.errors.len(), 1);
        assert!(out.errors[0]
            .error
            .hint
            .as_deref()
            .unwrap()
            .contains("goal"));
    }

    #[test]
    fn bad_payload_is_node_anchored_and_recoverable() {
        let src = r#"argument "x" { goal g1 "t" formal "p &&& q" { solution e1 "s" } }"#;
        let out = parse_argument_recovering(src);
        assert_eq!(out.errors.len(), 1);
        let err = &out.errors[0];
        assert_eq!(err.node, Some("g1".into()));
        assert_eq!(err.error.kind, SyntaxErrorKind::BadPayload);
        // The span points inside the quoted payload.
        let payload = src.find("\"p &&& q\"").unwrap();
        assert!(err.error.span.start > payload);
        assert!(err.error.span.end <= payload + "\"p &&& q\"".len());
        // The node survives, without the payload; the file still builds.
        let a = out.argument.unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.node(&"g1".into()).unwrap().formal.is_none());
    }

    #[test]
    fn payload_caret_in_unterminated_literals() {
        let payload_span = |src: &str| {
            let out = parse_argument_recovering(src);
            let bad = out
                .errors
                .iter()
                .find(|e| e.error.kind == SyntaxErrorKind::BadPayload)
                .expect("a payload diagnostic");
            bad.error.span
        };
        // One resolved escape: the content no longer lines up with the
        // source, so the whole literal (to end of input) is blamed.
        let escaped = r#"argument "x" { goal g1 "t" formal "p \" q"#;
        assert_eq!(payload_span(escaped), Span::new(34, escaped.len()));
        // No escape: the caret is exact though the literal never closes.
        let plain = r#"argument "x" { goal g1 "t" formal "p $ q"#;
        assert_eq!(payload_span(plain), Span::new(37, 38));
        assert_eq!(&plain[37..38], "$");
    }

    #[test]
    fn duplicate_children_attach_to_original() {
        let out = parse_argument_recovering(
            r#"argument "x" {
                goal g1 "first" { solution e1 "a" }
                goal g1 "second" { solution e2 "b" }
            }"#,
        );
        assert_eq!(out.errors.len(), 1);
        assert!(out.errors[0].error.message.contains("duplicate node id"));
        let a = out.argument.unwrap();
        // g1 (first declaration), e1, and e2 all exist; e2's edge attaches
        // to the original g1.
        assert_eq!(a.len(), 3);
        assert_eq!(a.node(&"g1".into()).unwrap().text, "first");
        assert_eq!(a.parents(&"e2".into()).len(), 1);
    }

    #[test]
    fn bad_edges_are_dropped_with_diagnostics() {
        let out = parse_argument_recovering(
            r#"argument "x" {
                goal g1 "top" {
                  ref g1
                  ref nowhere
                  solution e1 "s"
                  ref e1
                  ref e1
                }
            }"#,
        );
        let messages: Vec<&str> = out
            .errors
            .iter()
            .map(|e| e.error.message.as_str())
            .collect();
        assert!(messages.iter().any(|m| m.contains("self-loop on `g1`")));
        assert!(messages
            .iter()
            .any(|m| m.contains("unknown node `nowhere`")));
        // Both `ref e1`s duplicate the nesting edge g1 -> e1 (same kind),
        // exactly as the seed builder would have judged them.
        assert_eq!(
            messages
                .iter()
                .filter(|m| m.contains("duplicate edge `g1` -> `e1`"))
                .count(),
            2
        );
        assert_eq!(out.errors.len(), 4);
        let a = out.argument.unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.edges().len(), 1); // just the nesting edge
    }

    #[test]
    fn source_map_locates_declarations() {
        let src = r#"argument "m" { goal g1 "top" formal "p" { solution e1 "s" } }"#;
        let out = parse_argument_recovering(src);
        assert!(out.is_clean());
        assert_eq!(out.source_map.len(), 2);
        let name = out.source_map.name.unwrap();
        assert_eq!(&src[name.start..name.end], "\"m\"");
        let g1 = out.source_map.node(&"g1".into()).unwrap();
        assert_eq!(&src[g1.keyword.start..g1.keyword.end], "goal");
        assert_eq!(&src[g1.id.start..g1.id.end], "g1");
        assert_eq!(&src[g1.text.start..g1.text.end], "\"top\"");
        let payload = g1.payload.unwrap();
        assert_eq!(&src[payload.start..payload.end], "\"p\"");
        assert_eq!(
            &src[g1.header.start..g1.header.end],
            "goal g1 \"top\" formal \"p\""
        );
        let e1 = out.source_map.node(&"e1".into()).unwrap();
        assert_eq!(&src[e1.id.start..e1.id.end], "e1");
    }

    #[test]
    fn missing_header_means_no_argument_but_diagnostics_continue() {
        let out = parse_argument_recovering(r#"{ goal g1 "t" gaol g2 "u" }"#);
        assert!(out.argument.is_none());
        assert!(out
            .errors
            .iter()
            .any(|e| e.error.message.contains("argument")));
        assert!(out
            .errors
            .iter()
            .any(|e| e.error.message.contains("unknown node kind `gaol`")));
    }

    #[test]
    fn diagnostics_are_span_sorted_and_deterministic() {
        let src = r#"argument "x" {
            goal g1 "a" formal "p ->"
            widget w "b"
            goal g1 "dup"
        }"#;
        let a = parse_argument_recovering(src);
        let b = parse_argument_recovering(src);
        assert_eq!(a.errors, b.errors);
        let starts: Vec<usize> = a.errors.iter().map(|e| e.error.span.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        assert_eq!(a.errors.len(), 3);
    }

    #[test]
    fn seed_first_error_appears_in_recovering_stream() {
        // The roundtrip property the bench gate checks, in miniature.
        for src in [
            r#"argument "x" { goal g1 }"#,
            r#"argument "x" { widget w "t" }"#,
            r#"argument "x" { goal g1 "unterminated }"#,
            r#"argument "x" { ref g9 }"#,
            r#"argument "x" { goal g1 "t" } trailing"#,
            r#"argument "x" { goal g1 "t" formal "p ->" }"#,
            r#"argument "x" { goal g1 "a" goal g1 "b" }"#,
            r#"argument "x" { goal g1 "a" $ }"#,
            "",
        ] {
            let seed_err = parse_argument_seed(src).unwrap_err();
            let out = parse_argument_recovering(src);
            assert!(
                out.errors
                    .iter()
                    .any(|e| e.error.message.contains(&seed_err.message)),
                "seed error {:?} missing from {:?}",
                seed_err.message,
                out.errors
            );
        }
    }
}
