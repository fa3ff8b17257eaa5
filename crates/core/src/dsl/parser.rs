//! The recover-and-continue DSL parser.
//!
//! Where the retained seed parser ([`super::seed`]) returns at the first
//! problem, this parser records a diagnostic and *synchronizes*: it skips
//! to the next place the grammar could plausibly resume (a closing `}` at
//! the current nesting depth, the next node-kind keyword, a `ref`, or end
//! of input) and keeps going. One bad node costs that node, not the file.
//!
//! Recovery decisions, in grammar order:
//!
//! - **Header** (`argument "name" {`): each missing piece is reported
//!   and skipped independently; a missing *name* means no [`Argument`]
//!   can be produced, but the body is still parsed for diagnostics.
//! - **Unknown kind / missing identifier**: the node's remaining header
//!   and body are parsed (so nested problems still surface) but nothing
//!   is recorded — the subtree is *suppressed*.
//! - **Missing text / missing payload string**: reported; the node is
//!   kept with placeholder text so its children survive.
//! - **Bad `formal`/`temporal` payload**: reported as a node-anchored
//!   diagnostic located *inside* the quoted string; the node is kept
//!   without the payload.
//! - **Duplicate id**: reported at the re-declaration; the duplicate
//!   node is dropped but its children attach to the original.
//! - **Bad edges** (`ref` to an undeclared node, self-loops, repeated
//!   edges): reported at the `ref`; the edge is dropped. Matching the
//!   seed parser (and the builder), `ref` targets must already be
//!   declared — there are no forward references.
//!
//! The parser validates as it reads, refusing with a diagnostic exactly
//! the ids and edges [`Argument::from_parts`] would refuse, so what
//! survives goes straight to arena assembly: a file with errors still
//! yields a best-effort [`Argument`] plus a sorted diagnostic stream.
//! Each declared id is hashed once, into the one id table that becomes
//! the argument's interner, and edges are kept as arena positions from
//! the start. Tokens borrow the source and are copied on peek; a node's
//! owned text is built only when the node is recorded.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::HashSet;

use casekit_logic::{ltl::parse_ltl, prop, ParseError, Span, SyntaxError, SyntaxErrorKind};

use super::lexer::{lex, unescape, Lexed, Tok};
use super::source_map::{NodeSpans, SourceMap};
use super::{edge_kind_for, kind_of, DslError, ParseOutcome};
use crate::argument::{Argument, NodeIdx};
use crate::node::{EdgeKind, FormalPayload, Node, NodeId};

/// Parses `input`, recovering at every error. See the module docs for
/// the recovery strategy.
pub(crate) fn parse(input: &str) -> ParseOutcome {
    let (toks, lex_errors) = lex(input);
    let mut p = Parser {
        input,
        toks,
        pos: 0,
        errors: lex_errors
            .into_iter()
            .map(|error| DslError { error, node: None })
            .collect(),
        ids: HashMap::new(),
        nodes: Vec::new(),
        edges: Vec::new(),
        edge_set: HashSet::new(),
        source_map: SourceMap::new(),
    };
    let name = p.header();
    // A file whose header already failed *and* ended needs no synthetic
    // "expected `}`" cascade; otherwise parse the body (even without a
    // name — the diagnostics are still real).
    if !(name.is_none() && p.pos >= p.toks.len()) {
        p.node_list(Scope::Top);
    }
    p.trailing();

    let Parser {
        mut errors,
        ids,
        nodes,
        edges,
        source_map,
        ..
    } = p;
    let argument = name.and_then(
        |name| match Argument::from_validated(name, nodes, ids, edges) {
            Ok(argument) => Some(argument),
            Err(e) => {
                errors.push(DslError {
                    error: SyntaxError::with_kind(
                        SyntaxErrorKind::Structure,
                        e.to_string(),
                        Span::point(input.len()),
                    ),
                    node: None,
                });
                None
            }
        },
    );

    errors.sort_by(|a, b| {
        (a.error.span.start, a.error.span.end, &a.error.message).cmp(&(
            b.error.span.start,
            b.error.span.end,
            &b.error.message,
        ))
    });
    ParseOutcome {
        argument,
        source_map,
        errors,
    }
}

/// Where a node list sits: the argument's top level, or the body of a
/// node — `None` when that node was suppressed, so nothing inside it is
/// recorded.
#[derive(Debug, Clone, Copy)]
enum Scope {
    Top,
    Body(Option<NodeIdx>),
}

struct Parser<'a> {
    input: &'a str,
    toks: Vec<Lexed<'a>>,
    pos: usize,
    errors: Vec<DslError>,
    /// The id table: the arena position of every recorded node.
    ids: HashMap<NodeId, NodeIdx>,
    nodes: Vec<Node>,
    edges: Vec<(NodeIdx, NodeIdx, EdgeKind)>,
    edge_set: HashSet<(NodeIdx, NodeIdx, EdgeKind)>,
    source_map: SourceMap,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|l| l.tok)
    }

    fn here(&self) -> Span {
        self.toks
            .get(self.pos)
            .map(|l| l.span)
            .unwrap_or(Span::point(self.input.len()))
    }

    /// Consumes the token [`Parser::peek`] returned.
    fn bump(&mut self) {
        debug_assert!(self.pos < self.toks.len(), "bump past the last token");
        self.pos += 1;
    }

    fn push_err(&mut self, error: ParseError, node: Option<NodeId>) {
        // EOF unwinding reports "expected `}`" once per open block at the
        // same point; collapse consecutive identical reports.
        if self.errors.last().is_some_and(|last| last.error == error) {
            return;
        }
        self.errors.push(DslError { error, node });
    }

    /// Reports "expected X, found Y" at the cursor without consuming, so
    /// the offending token can still be claimed by a later production.
    fn err_expected(&mut self, expected: &str) {
        let span = self.here();
        let found = self.peek().map(Tok::describe);
        self.push_err(SyntaxError::expected_found(expected, found, span), None);
    }

    /// Consumes a string literal, returning its raw body and span, or
    /// reports `expected` without consuming.
    fn string(&mut self, expected: &str) -> Option<(&'a str, Span)> {
        match self.peek() {
            Some(Tok::Str(raw)) => {
                let span = self.here();
                self.bump();
                Some((raw, span))
            }
            _ => {
                self.err_expected(expected);
                None
            }
        }
    }

    /// Consumes a node identifier — a word that is neither a kind
    /// keyword nor `ref` — or reports one missing without consuming.
    fn identifier(&mut self) -> Option<(&'a str, Span)> {
        match self.peek() {
            Some(Tok::Word(w)) if kind_of(w).is_none() && w != "ref" => {
                let span = self.here();
                self.bump();
                Some((w, span))
            }
            _ => {
                self.err_expected("a node identifier");
                None
            }
        }
    }

    /// Skips tokens until the grammar can plausibly resume: a `}` at the
    /// current depth (left for the caller), the next kind keyword or
    /// `ref` at the current depth, or end of input.
    fn sync(&mut self) {
        let mut depth = 0usize;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::RBrace if depth == 0 => return,
                Tok::RBrace => depth -= 1,
                Tok::LBrace => depth += 1,
                Tok::Word(w) if depth == 0 && (kind_of(w).is_some() || w == "ref") => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Parses `argument "name" {`, recovering each piece independently.
    /// Returns the name when one was present.
    fn header(&mut self) -> Option<String> {
        match self.peek() {
            Some(Tok::Word("argument")) => self.bump(),
            Some(Tok::Word(_)) => {
                self.err_expected("`argument`");
                self.bump();
            }
            _ => self.err_expected("`argument`"),
        }
        let name = self.string("argument name string").map(|(raw, span)| {
            self.source_map.name = Some(span);
            unescape(raw).into_owned()
        });
        match self.peek() {
            Some(Tok::LBrace) => self.bump(),
            _ => self.err_expected("`{`"),
        }
        name
    }

    /// Parses nodes/refs until the matching `}` (consumed) or end of
    /// input (reported).
    fn node_list(&mut self, scope: Scope) {
        loop {
            match self.peek() {
                None => {
                    self.err_expected("`}`");
                    return;
                }
                Some(Tok::RBrace) => {
                    self.bump();
                    return;
                }
                Some(Tok::Word("ref")) => self.reference(scope),
                Some(Tok::Word(word)) => self.node(scope, word),
                Some(_) => {
                    self.err_expected("a node kind");
                    self.sync();
                }
            }
        }
    }

    /// Parses `ref IDENT`, validating the edge at the reference site
    /// (matching the seed parser's no-forward-reference semantics).
    fn reference(&mut self, scope: Scope) {
        let kw_span = self.here();
        self.bump(); // `ref`
        let Some((target, target_span)) = self.identifier() else {
            return;
        };
        match scope {
            Scope::Top => self.push_err(
                SyntaxError::with_kind(
                    SyntaxErrorKind::Structure,
                    "`ref` is only allowed inside a node body",
                    kw_span,
                )
                .with_hint("nest `ref` under the node it supports"),
                None,
            ),
            // Edge kind depends on the *referenced* node's kind, which
            // may not be known yet; we default to SupportedBy — a ref to
            // a context node should use nesting instead.
            Scope::Body(Some(from)) => match self.ids.get(target) {
                Some(&to) => self.add_edge(from, to, EdgeKind::SupportedBy, target_span),
                None => self.push_err(
                    SyntaxError::with_kind(
                        SyntaxErrorKind::Structure,
                        format!("unknown node `{target}`"),
                        target_span,
                    )
                    .with_hint("`ref` targets must be declared earlier in the file"),
                    None,
                ),
            },
            Scope::Body(None) => {}
        }
    }

    /// Records one edge between declared nodes, reporting (and dropping)
    /// a self-loop or a repeated edge. With undeclared `ref` targets
    /// refused by [`Parser::reference`], these are exactly the edges
    /// [`Argument::from_parts`] would refuse.
    fn add_edge(&mut self, from: NodeIdx, to: NodeIdx, kind: EdgeKind, span: Span) {
        let id = |idx: NodeIdx| self.nodes[idx.index()].id.clone();
        let (message, node) = if from == to {
            (format!("self-loop on `{}`", id(from)), id(from))
        } else if self.edge_set.insert((from, to, kind)) {
            self.edges.push((from, to, kind));
            return;
        } else {
            (
                format!("duplicate edge `{}` -> `{}`", id(from), id(to)),
                id(to),
            )
        };
        self.push_err(
            SyntaxError::with_kind(SyntaxErrorKind::Structure, message, span),
            Some(node),
        );
    }

    /// Parses one node declaration (and its body); the caller peeked its
    /// kind word.
    fn node(&mut self, scope: Scope, kind_word: &str) {
        let kw_span = self.here();
        self.bump();
        let kind = kind_of(kind_word);
        if kind.is_none() {
            let mut e = SyntaxError::with_kind(
                SyntaxErrorKind::UnknownKeyword,
                format!("unknown node kind `{kind_word}`"),
                kw_span,
            );
            if let Some(suggestion) = nearest_kind(kind_word) {
                e = e.with_hint(format!("did you mean `{suggestion}`?"));
            }
            self.push_err(e, None);
        }

        let (id, id_span) = match self.identifier() {
            Some((id, span)) => (Some(id), span),
            None => (None, self.here()),
        };

        // A node we can't name or kind can't be recorded; keep parsing
        // its remainder (and body) for diagnostics only.
        let suppress = matches!(scope, Scope::Body(None)) || kind.is_none() || id.is_none();
        let id = id.unwrap_or("");

        // One id-table lookup per declaration. A new id claims its arena
        // slot now (nothing reads the table until the node fills it,
        // below); a duplicate's children attach to the original.
        let (this, new_id) = if suppress {
            (None, None)
        } else {
            let next = NodeIdx::new(self.nodes.len());
            match self.ids.entry(NodeId::new(id)) {
                Entry::Vacant(slot) => {
                    let node_id = slot.key().clone();
                    slot.insert(next);
                    (Some(next), Some(node_id))
                }
                Entry::Occupied(original) => {
                    let (original_id, original) = (original.key().clone(), *original.get());
                    self.push_err(
                        SyntaxError::with_kind(
                            SyntaxErrorKind::Structure,
                            format!("duplicate node id `{id}`"),
                            id_span,
                        )
                        .with_hint("rename one of the declarations, or use `ref` to share a node"),
                        Some(original_id),
                    );
                    (Some(original), None)
                }
            }
        };

        let (text, text_span) = match self.string("node text string") {
            Some(text) => text,
            None => ("", Span::point(self.here().start)),
        };

        let mut formal: Option<FormalPayload> = None;
        let mut undeveloped = false;
        let mut payload_span: Option<Span> = None;
        let mut header_end = text_span.end.max(id_span.end).max(kw_span.end);
        loop {
            match self.peek() {
                Some(Tok::Word(which @ ("formal" | "temporal"))) => {
                    self.bump();
                    let expected = if which == "formal" {
                        "formula string"
                    } else {
                        "LTL formula string"
                    };
                    if let Some((raw, span)) = self.string(expected) {
                        payload_span = Some(span);
                        header_end = header_end.max(span.end);
                        let src = unescape(raw);
                        let parsed = if which == "formal" {
                            prop::parse(&src).map(FormalPayload::Prop)
                        } else {
                            parse_ltl(&src).map(FormalPayload::Temporal)
                        };
                        // With no escape resolved, the content is the raw
                        // body byte for byte and an error in it maps exactly.
                        let body = matches!(src, Cow::Borrowed(_)).then_some(raw);
                        match parsed {
                            Ok(payload) => formal = Some(payload),
                            Err(e) => self.payload_error(which, id, span, body, &e),
                        }
                    }
                }
                Some(Tok::Word("undeveloped")) => {
                    header_end = header_end.max(self.here().end);
                    self.bump();
                    undeveloped = true;
                }
                _ => break,
            }
        }

        if let (Some(idx), Some(node_id)) = (this, new_id) {
            let kind = kind.expect("suppress covers kind.is_none()");
            let mut node = Node::new(node_id.clone(), kind, unescape(text).into_owned());
            node.formal = formal;
            node.undeveloped = undeveloped;
            self.nodes.push(node);
            self.source_map.record(
                node_id,
                NodeSpans {
                    keyword: kw_span,
                    id: id_span,
                    text: text_span,
                    payload: payload_span,
                    header: Span::new(kw_span.start, header_end),
                },
            );
            if let Scope::Body(Some(parent)) = scope {
                self.add_edge(parent, idx, edge_kind_for(kind), id_span);
            }
        }

        if matches!(self.peek(), Some(Tok::LBrace)) {
            self.bump();
            // Children of a suppressed subtree are parsed for
            // diagnostics only.
            self.node_list(Scope::Body(this));
        }
    }

    /// Reports an embedded formula error, re-anchored from the payload's
    /// own coordinates into the enclosing file.
    fn payload_error(
        &mut self,
        which: &str,
        node: &str,
        tok_span: Span,
        body: Option<&str>,
        e: &ParseError,
    ) {
        let span = anchor_payload(tok_span, body, e.span);
        self.push_err(
            SyntaxError::with_kind(
                SyntaxErrorKind::BadPayload,
                format!("in {which} payload of `{node}`: {}", e.message),
                span,
            ),
            Some(NodeId::new(node)),
        );
    }

    /// Reports anything left after the argument's closing `}`.
    fn trailing(&mut self) {
        if let Some(extra) = self.toks.get(self.pos) {
            self.push_err(
                SyntaxError::with_kind(
                    SyntaxErrorKind::TrailingInput,
                    "unexpected trailing input",
                    extra.span,
                ),
                None,
            );
        }
    }
}

/// Maps a span inside a payload string's *content* to file coordinates.
/// Exact when the content is the literal's raw `body` (no escape was
/// resolved): it then starts right after the opening quote, whether or
/// not the literal was closed. Otherwise (`None`) the whole literal is
/// blamed.
fn anchor_payload(tok_span: Span, body: Option<&str>, inner: Span) -> Span {
    match body {
        Some(body) if inner.start <= body.len() => Span::new(
            tok_span.start + 1 + inner.start,
            (tok_span.start + 1 + inner.end).min(tok_span.end),
        ),
        _ => tok_span,
    }
}

/// The closest node-kind keyword within edit distance 2, for "did you
/// mean" hints on unknown kinds.
fn nearest_kind(word: &str) -> Option<&'static str> {
    const KINDS: [&str; 9] = [
        "goal",
        "strategy",
        "solution",
        "context",
        "assumption",
        "justification",
        "claim",
        "argnode",
        "evidence",
    ];
    KINDS
        .iter()
        .map(|k| (edit_distance(word, k), *k))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, k)| (d, k))
        .map(|(_, k)| k)
}

/// Levenshtein distance, two-row DP.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("goal", "goal"), 0);
        assert_eq!(edit_distance("gaol", "goal"), 2);
        assert_eq!(edit_distance("", "goal"), 4);
        assert_eq!(edit_distance("claim", "clam"), 1);
    }

    #[test]
    fn nearest_kind_suggests_and_gives_up() {
        assert_eq!(nearest_kind("gaol"), Some("goal"));
        assert_eq!(nearest_kind("strateg"), Some("strategy"));
        assert_eq!(nearest_kind("widget"), None);
    }
}
