//! Error-tolerant, zero-copy lexer for the `.case` DSL.
//!
//! Unlike the retained seed lexer (see [`super::seed`]), this lexer never
//! aborts: characters no token can start with and unterminated string
//! literals are reported as [`ParseError`]s and skipped (an unterminated
//! string still yields its partial content as a token), so the parser
//! always receives the full token stream.
//!
//! Tokens borrow the source: a word is the slice it was read from and a
//! string literal is its raw body, escapes unresolved, so lexing a file
//! allocates nothing per token — the token vector is its only
//! allocation. [`unescape`] resolves a literal's escapes at the one place
//! the parser builds owned text from it (a node's text, the argument
//! name, a payload). The scan walks bytes and decodes a `char` only at a
//! non-ASCII byte (an ASCII byte is its own `char`), so the
//! `char::is_whitespace` / `char::is_alphanumeric` rules apply to every
//! character and every span stays on a `char` boundary.

use std::borrow::Cow;

use casekit_logic::{ParseError, Span, SyntaxError, SyntaxErrorKind};

/// A DSL token, borrowing the source it was lexed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok<'a> {
    /// A bare word: a kind keyword, modifier, `ref`, or identifier.
    Word(&'a str),
    /// A quoted string literal: the raw body between the quotes, escapes
    /// unresolved (see [`unescape`]). An unterminated literal's body runs
    /// to the end of input.
    Str(&'a str),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
}

impl Tok<'_> {
    /// How the token reads in an "expected X, found Y" message.
    pub(crate) fn describe(self) -> String {
        match self {
            Tok::Word(w) => format!("`{w}`"),
            Tok::Str(_) => "a string".to_string(),
            Tok::LBrace => "`{`".to_string(),
            Tok::RBrace => "`}`".to_string(),
        }
    }
}

/// A token plus the byte range of source text it came from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lexed<'a> {
    pub(crate) tok: Tok<'a>,
    pub(crate) span: Span,
}

/// Resolves a string literal body's escapes: `\"` and `\\` stand for
/// `"` and `\`; a backslash before anything else (or at the end of an
/// unterminated literal) is kept literally, as in the seed lexer.
///
/// Returns [`Cow::Borrowed`] exactly when no escape was resolved, in
/// which case the content's bytes align one-to-one with the body's.
pub(crate) fn unescape(raw: &str) -> Cow<'_, str> {
    let bytes = raw.as_bytes();
    // `out` allocates at the first resolved escape, which also moves
    // `copied` past 0.
    let mut out = String::new();
    let mut copied = 0;
    let mut i = 0;
    while i < bytes.len() {
        if escape_at(bytes, i) {
            // Both bytes are ASCII, so `i` and `i + 1` are char boundaries.
            out.push_str(&raw[copied..i]);
            copied = i + 1;
            i += 2;
        } else {
            i += 1;
        }
    }
    if copied == 0 {
        return Cow::Borrowed(raw);
    }
    out.push_str(&raw[copied..]);
    Cow::Owned(out)
}

/// Whether a literal body's byte `i` starts an escape, `\"` or `\\`. The
/// lexer skips escapes with this rule when it looks for the closing
/// quote, and [`unescape`] resolves them with it.
fn escape_at(bytes: &[u8], i: usize) -> bool {
    bytes[i] == b'\\' && matches!(bytes.get(i + 1), Some(b'"' | b'\\'))
}

/// The character starting at byte `i` (a char boundary), or `None` at
/// the end of input: an ASCII byte is its own `char`, so only a
/// non-ASCII byte is decoded.
fn char_at(input: &str, i: usize) -> Option<char> {
    match *input.as_bytes().get(i)? {
        b if b.is_ascii() => Some(char::from(b)),
        _ => input[i..].chars().next(),
    }
}

/// Lexes `input` to the end, collecting errors instead of stopping.
///
/// Every byte is either consumed by a token, skipped as
/// whitespace/comment, or skipped with an error — so the parser behind
/// this lexer sees everything the author wrote.
pub(crate) fn lex(input: &str) -> (Vec<Lexed<'_>>, Vec<ParseError>) {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut errors = Vec::new();
    let is_word_char = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0;
    while let Some(c) = char_at(input, i) {
        if c.is_whitespace() {
            i += c.len_utf8();
        } else if c == '#' || (c == '/' && bytes.get(i + 1) == Some(&b'/')) {
            // Comment to end of line, the newline included.
            i = match bytes[i..].iter().position(|&b| b == b'\n') {
                Some(newline) => i + newline + 1,
                None => bytes.len(),
            };
        } else if c == '{' || c == '}' {
            let tok = if c == '{' { Tok::LBrace } else { Tok::RBrace };
            toks.push(Lexed {
                tok,
                span: Span::new(i, i + 1),
            });
            i += 1;
        } else if c == '"' {
            // Only ASCII bytes end the body or form an escape, so the
            // byte scan never stops inside a multi-byte character.
            let body = i + 1;
            let mut j = body;
            let mut close = None;
            while j < bytes.len() {
                match bytes[j] {
                    b'"' => {
                        close = Some(j);
                        break;
                    }
                    _ if escape_at(bytes, j) => j += 2,
                    _ => j += 1,
                }
            }
            let (raw, end) = match close {
                Some(j) => (&input[body..j], j + 1),
                None => {
                    errors.push(
                        SyntaxError::with_kind(
                            SyntaxErrorKind::UnterminatedString,
                            "unterminated string literal",
                            Span::new(i, input.len()),
                        )
                        .with_hint("add a closing `\"`"),
                    );
                    (&input[body..], input.len())
                }
            };
            toks.push(Lexed {
                tok: Tok::Str(raw),
                span: Span::new(i, end),
            });
            i = end;
        } else if is_word_char(c) {
            let mut end = i + c.len_utf8();
            while let Some(d) = char_at(input, end).filter(|&d| is_word_char(d)) {
                end += d.len_utf8();
            }
            toks.push(Lexed {
                tok: Tok::Word(&input[i..end]),
                span: Span::new(i, end),
            });
            i = end;
        } else {
            errors.push(SyntaxError::with_kind(
                SyntaxErrorKind::UnexpectedChar,
                format!("unexpected character `{c}`"),
                Span::new(i, i + c.len_utf8()),
            ));
            i += c.len_utf8();
        }
    }
    (toks, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> Vec<Tok<'_>> {
        let (toks, errors) = lex(src);
        assert!(errors.is_empty(), "unexpected lex errors: {errors:?}");
        toks.into_iter().map(|l| l.tok).collect()
    }

    #[test]
    fn lexes_the_four_token_kinds() {
        assert_eq!(
            words(r#"goal g1 "text" { }"#),
            vec![
                Tok::Word("goal"),
                Tok::Word("g1"),
                Tok::Str("text"),
                Tok::LBrace,
                Tok::RBrace,
            ]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let (toks, _) = lex(r#"goal g1 "t""#);
        assert_eq!(toks[0].span, Span::new(0, 4));
        assert_eq!(toks[1].span, Span::new(5, 7));
        assert_eq!(toks[2].span, Span::new(8, 11));
    }

    #[test]
    fn every_span_slices_back_to_its_token() {
        let src = "argument \"n\\\"x\" {\u{a0}goal é1 \"café ☃\" formal \"p\\\\\"\u{2028}\
                   {\r\n ref é1 }\t} // tail\n\"open \\";
        let (toks, _) = lex(src);
        assert!(toks.len() >= 12);
        for lexed in &toks {
            let text = &src[lexed.span.start..lexed.span.end];
            match lexed.tok {
                Tok::Word(w) => assert_eq!(text, w),
                Tok::Str(raw) => {
                    assert_eq!(&text[1..1 + raw.len()], raw);
                    assert!(text.len() == raw.len() + 2 || lexed.span.end == src.len());
                }
                Tok::LBrace => assert_eq!(text, "{"),
                Tok::RBrace => assert_eq!(text, "}"),
            }
        }
    }

    #[test]
    fn comments_skipped_both_styles() {
        assert_eq!(
            words("a // to eol\nb # hash\nc"),
            vec![Tok::Word("a"), Tok::Word("b"), Tok::Word("c")]
        );
    }

    #[test]
    fn lone_slash_is_an_error_not_a_comment() {
        let (toks, errors) = lex("a / b");
        assert_eq!(toks.len(), 2);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kind, SyntaxErrorKind::UnexpectedChar);
        assert!(errors[0].message.contains('/'));
        assert_eq!(errors[0].span, Span::new(2, 3));
    }

    #[test]
    fn escapes_in_strings() {
        let raw = r#"a \"quoted\" \\ name"#;
        assert_eq!(words(&format!("\"{raw}\"")), vec![Tok::Str(raw)]);
        assert_eq!(unescape(raw), r#"a "quoted" \ name"#);
        assert!(matches!(unescape(raw), Cow::Owned(_)));
        // A backslash before anything else is kept literally (seed
        // behavior), and resolves no escape.
        assert_eq!(words(r#""a \n b""#), vec![Tok::Str(r"a \n b")]);
        assert!(matches!(unescape(r"a \n b"), Cow::Borrowed(r"a \n b")));
        assert!(matches!(unescape(r"trailing \"), Cow::Borrowed(_)));
        assert_eq!(unescape(r#"\\\"é\"#), "\\\"é\\");
    }

    #[test]
    fn unterminated_string_reported_and_tokenized() {
        let (toks, errors) = lex(r#"goal g1 "never ends"#);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kind, SyntaxErrorKind::UnterminatedString);
        assert_eq!(errors[0].span, Span::new(8, 19));
        // The partial content still reaches the parser.
        assert_eq!(toks.last().unwrap().tok, Tok::Str("never ends"));
        // An escaped quote does not close the literal; a lone trailing
        // backslash is part of the body.
        let (toks, errors) = lex(r#""a \" b \"#);
        assert_eq!(errors.len(), 1);
        assert_eq!(toks[0].tok, Tok::Str(r#"a \" b \"#));
    }

    #[test]
    fn stray_characters_skipped_with_errors() {
        let (toks, errors) = lex("goal $ g1 @");
        assert_eq!(toks.len(), 2);
        assert_eq!(errors.len(), 2);
        assert!(errors[0].message.contains('$'));
        assert!(errors[1].message.contains('@'));
    }

    #[test]
    fn multibyte_characters_keep_byte_spans() {
        let (toks, errors) = lex("é \"café\" ☃");
        // `é` is alphanumeric → a word; `☃` is not → an error.
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].tok, Tok::Str("café"));
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].span.len(), '☃'.len_utf8());
    }

    #[test]
    fn unicode_whitespace_and_words_follow_char_rules() {
        // NBSP and LINE SEPARATOR separate words; the vertical tab is
        // whitespace too; a word may continue with non-ASCII letters.
        assert_eq!(
            words("a\u{a0}b\u{2028}c\u{b}dé_2"),
            vec![
                Tok::Word("a"),
                Tok::Word("b"),
                Tok::Word("c"),
                Tok::Word("dé_2"),
            ]
        );
    }

    #[test]
    fn empty_and_comment_only_inputs() {
        assert!(words("").is_empty());
        assert!(words("// only a comment").is_empty());
        assert!(words("# only a comment").is_empty());
    }
}
