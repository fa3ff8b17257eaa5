//! The original abort-on-first-error DSL parser, retained verbatim.
//!
//! This is the pre-recovery frontend: it lexes the whole file up front
//! (materializing a `Vec<char>` and a byte-offset table — the allocation
//! pattern the tolerant lexer in [`super::lexer`] was built to avoid) and
//! returns at the first problem it meets. It is kept for two jobs:
//!
//! - **Differential oracle**: on valid input the recovering parser must
//!   produce a node-for-node identical [`Argument`]; on invalid input the
//!   seed's single error must appear in the recovering parser's
//!   diagnostic stream (the `diagnostics_roundtrip` flag in `repro dsl`).
//! - **Bench baseline**: `BENCH_dsl.json` measures corpus ingestion
//!   against this parser's per-file abort-and-rescan behavior.
//!
//! It stays in this crate, not in `casekit-oracle`, because perfbench,
//! which builds only product crates, checks its clean ingest files
//! against [`parse_argument_seed`](super::parse_argument_seed).

use crate::argument::{Argument, ArgumentBuilder};
use crate::node::{FormalPayload, Node};
use casekit_logic::{ltl::parse_ltl, prop, ParseError, Span};

use super::{edge_kind_for, kind_of};
use crate::node::EdgeKind;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Str(String),
    LBrace,
    RBrace,
}

#[derive(Debug, Clone)]
struct Lexed {
    tok: Tok,
    span: Span,
}

fn lex(input: &str) -> Result<Vec<Lexed>, ParseError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut offsets: Vec<usize> = input.char_indices().map(|(i, _)| i).collect();
    offsets.push(input.len());
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && bytes.get(i + 1) == Some(&'/') || c == '#' {
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
        } else if c == '{' {
            out.push(Lexed {
                tok: Tok::LBrace,
                span: Span::new(offsets[i], offsets[i + 1]),
            });
            i += 1;
        } else if c == '}' {
            out.push(Lexed {
                tok: Tok::RBrace,
                span: Span::new(offsets[i], offsets[i + 1]),
            });
            i += 1;
        } else if c == '"' {
            let start = i;
            i += 1;
            let mut s = String::new();
            let mut closed = false;
            while i < bytes.len() {
                match bytes[i] {
                    '"' => {
                        closed = true;
                        i += 1;
                        break;
                    }
                    '\\' if matches!(bytes.get(i + 1), Some('"') | Some('\\')) => {
                        s.push(bytes[i + 1]);
                        i += 2;
                    }
                    other => {
                        s.push(other);
                        i += 1;
                    }
                }
            }
            if !closed {
                return Err(ParseError::new(
                    "unterminated string literal",
                    Span::new(offsets[start], input.len()),
                ));
            }
            out.push(Lexed {
                tok: Tok::Str(s),
                span: Span::new(offsets[start], offsets[i]),
            });
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            let word: String = bytes[start..i].iter().collect();
            out.push(Lexed {
                tok: Tok::Word(word),
                span: Span::new(offsets[start], offsets[i]),
            });
        } else {
            return Err(ParseError::new(
                format!("unexpected character `{c}`"),
                Span::new(offsets[i], offsets[i + 1]),
            ));
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Lexed>,
    pos: usize,
    end: usize,
}

impl Parser {
    fn here(&self) -> Span {
        self.toks
            .get(self.pos)
            .map(|l| l.span)
            .unwrap_or(Span::point(self.end))
    }

    fn next(&mut self) -> Option<Lexed> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|l| &l.tok)
    }

    fn expect_word(&mut self, expected: &str) -> Result<(), ParseError> {
        let span = self.here();
        match self.next().map(|l| l.tok) {
            Some(Tok::Word(w)) if w == expected => Ok(()),
            _ => Err(ParseError::new(format!("expected `{expected}`"), span)),
        }
    }

    fn expect_string(&mut self, what: &str) -> Result<String, ParseError> {
        let span = self.here();
        match self.next().map(|l| l.tok) {
            Some(Tok::Str(s)) => Ok(s),
            _ => Err(ParseError::new(format!("expected {what} string"), span)),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        let span = self.here();
        match self.next().map(|l| l.tok) {
            Some(Tok::Word(w)) if kind_of(&w).is_none() && w != "ref" => Ok(w),
            _ => Err(ParseError::new("expected a node identifier", span)),
        }
    }

    fn expect_lbrace(&mut self) -> Result<(), ParseError> {
        let span = self.here();
        match self.next().map(|l| l.tok) {
            Some(Tok::LBrace) => Ok(()),
            _ => Err(ParseError::new("expected `{`", span)),
        }
    }

    /// Parses one node (and its nested children) into the builder, adding
    /// an edge from `parent` if there is one. Returns the updated builder.
    fn node(
        &mut self,
        mut builder: ArgumentBuilder,
        parent: Option<(&str, crate::node::NodeKind)>,
    ) -> Result<ArgumentBuilder, ParseError> {
        let span = self.here();
        let kind_word = match self.next().map(|l| l.tok) {
            Some(Tok::Word(w)) => w,
            _ => return Err(ParseError::new("expected a node kind", span)),
        };

        if kind_word == "ref" {
            let target = self.expect_ident()?;
            let (parent_id, _) = parent
                .ok_or_else(|| ParseError::new("`ref` is only allowed inside a node body", span))?;
            // Edge kind depends on the *referenced* node's kind, which the
            // builder may not know yet; we default to SupportedBy — a ref
            // to a context node should use nesting instead.
            builder = builder.edge(parent_id, &target, EdgeKind::SupportedBy);
            return Ok(builder);
        }

        let kind = kind_of(&kind_word)
            .ok_or_else(|| ParseError::new(format!("unknown node kind `{kind_word}`"), span))?;
        let id = self.expect_ident()?;
        let text = self.expect_string("node text")?;

        let mut node = Node::new(id.as_str(), kind, text);

        // Modifiers.
        loop {
            match self.peek() {
                Some(Tok::Word(w)) if w == "formal" => {
                    self.next();
                    let span = self.here();
                    let src = self.expect_string("formula")?;
                    let formula = prop::parse(&src).map_err(|e| {
                        ParseError::new(format!("in formal payload of `{id}`: {}", e.message), span)
                    })?;
                    node.formal = Some(FormalPayload::Prop(formula));
                }
                Some(Tok::Word(w)) if w == "temporal" => {
                    self.next();
                    let span = self.here();
                    let src = self.expect_string("LTL formula")?;
                    let formula = parse_ltl(&src).map_err(|e| {
                        ParseError::new(
                            format!("in temporal payload of `{id}`: {}", e.message),
                            span,
                        )
                    })?;
                    node.formal = Some(FormalPayload::Temporal(formula));
                }
                Some(Tok::Word(w)) if w == "undeveloped" => {
                    self.next();
                    node.undeveloped = true;
                }
                _ => break,
            }
        }

        builder = builder.node(node);
        if let Some((parent_id, _)) = parent {
            builder = builder.edge(parent_id, &id, edge_kind_for(kind));
        }

        // Optional body.
        if matches!(self.peek(), Some(Tok::LBrace)) {
            self.next();
            while !matches!(self.peek(), Some(Tok::RBrace)) {
                if self.peek().is_none() {
                    return Err(ParseError::new("expected `}`", self.here()));
                }
                builder = self.node(builder, Some((&id, kind)))?;
            }
            self.next(); // consume `}`
        }
        Ok(builder)
    }
}

/// Parses an argument with the retained seed parser, stopping at the
/// first error.
///
/// # Errors
///
/// Returns a [`ParseError`] for syntax errors (with a span into `input`)
/// or for structural errors surfaced by the builder (duplicate ids,
/// dangling `ref`s), reported at the end of input.
pub fn parse_argument_seed(input: &str) -> Result<Argument, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        end: input.len(),
    };
    p.expect_word("argument")?;
    let name = p.expect_string("argument name")?;
    p.expect_lbrace()?;
    let mut builder = Argument::builder(name);
    while !matches!(p.peek(), Some(Tok::RBrace)) {
        if p.peek().is_none() {
            return Err(ParseError::new("expected `}`", p.here()));
        }
        builder = p.node(builder, None)?;
    }
    p.next(); // final `}`
    if let Some(extra) = p.toks.get(p.pos) {
        return Err(ParseError::new("unexpected trailing input", extra.span));
    }
    builder
        .build()
        .map_err(|e| ParseError::new(e.to_string(), Span::point(input.len())))
}
