//! Recursive-descent parser for propositional formulas.
//!
//! Grammar (lowest precedence first):
//!
//! ```text
//! iff     ::= implies ( "<->" implies )*
//! implies ::= or ( "->" implies )?          (right associative)
//! or      ::= and ( "|" and )*
//! and     ::= unary ( "&" unary )*
//! unary   ::= "~" unary | "(" iff ")" | "T" | "F" | ident
//! ident   ::= [A-Za-z_][A-Za-z0-9_']*
//! ```
//!
//! Unicode aliases are accepted: `¬` for `~`, `∧` for `&`, `∨` for `|`,
//! `⇒`/`→` for `->`, `⇔`/`↔` for `<->`.

use super::ast::Formula;
use crate::error::{ParseError, Span, SyntaxError, SyntaxErrorKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Not,
    And,
    Or,
    Implies,
    Iff,
    LParen,
    RParen,
    True,
    False,
    /// An identifier, borrowed from the input.
    Ident(&'a str),
}

#[derive(Debug, Clone, Copy)]
struct Lexed<'a> {
    tok: Tok<'a>,
    span: Span,
}

fn lex(input: &str) -> Result<Vec<Lexed<'_>>, ParseError> {
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '~' | '¬' | '!' => {
                chars.next();
                out.push(Lexed {
                    tok: Tok::Not,
                    span: Span::new(i, i + c.len_utf8()),
                });
            }
            '&' | '∧' => {
                chars.next();
                // Tolerate `&&`.
                if c == '&' {
                    if let Some(&(_, '&')) = chars.peek() {
                        chars.next();
                    }
                }
                out.push(Lexed {
                    tok: Tok::And,
                    span: Span::new(i, i + c.len_utf8()),
                });
            }
            '|' | '∨' => {
                chars.next();
                if c == '|' {
                    if let Some(&(_, '|')) = chars.peek() {
                        chars.next();
                    }
                }
                out.push(Lexed {
                    tok: Tok::Or,
                    span: Span::new(i, i + c.len_utf8()),
                });
            }
            '⇒' | '→' => {
                chars.next();
                out.push(Lexed {
                    tok: Tok::Implies,
                    span: Span::new(i, i + c.len_utf8()),
                });
            }
            '⇔' | '↔' => {
                chars.next();
                out.push(Lexed {
                    tok: Tok::Iff,
                    span: Span::new(i, i + c.len_utf8()),
                });
            }
            '(' => {
                chars.next();
                out.push(Lexed {
                    tok: Tok::LParen,
                    span: Span::new(i, i + 1),
                });
            }
            ')' => {
                chars.next();
                out.push(Lexed {
                    tok: Tok::RParen,
                    span: Span::new(i, i + 1),
                });
            }
            '-' => {
                chars.next();
                match chars.peek() {
                    Some(&(_, '>')) => {
                        chars.next();
                        out.push(Lexed {
                            tok: Tok::Implies,
                            span: Span::new(i, i + 2),
                        });
                    }
                    _ => {
                        return Err(SyntaxError::with_kind(
                            SyntaxErrorKind::UnexpectedChar,
                            "expected `>` after `-` (implication is `->`)",
                            Span::new(i, i + 1),
                        )
                        .with_hint("write implication as `->`"))
                    }
                }
            }
            '<' => {
                chars.next();
                let ok = matches!(chars.peek(), Some(&(_, '-')));
                if ok {
                    chars.next();
                    if let Some(&(_, '>')) = chars.peek() {
                        chars.next();
                        out.push(Lexed {
                            tok: Tok::Iff,
                            span: Span::new(i, i + 3),
                        });
                        continue;
                    }
                }
                return Err(SyntaxError::with_kind(
                    SyntaxErrorKind::UnexpectedChar,
                    "expected `<->` (biconditional)",
                    Span::new(i, i + 1),
                )
                .with_hint("write the biconditional as `<->`"));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                let mut end = i;
                while let Some(&(j, d)) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '\'' {
                        end = j + d.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                let word = &input[start..end];
                let tok = match word {
                    "T" | "true" => Tok::True,
                    "F" | "false" => Tok::False,
                    _ => Tok::Ident(word),
                };
                out.push(Lexed {
                    tok,
                    span: Span::new(start, end),
                });
            }
            other => {
                return Err(SyntaxError::with_kind(
                    SyntaxErrorKind::UnexpectedChar,
                    format!("unexpected character `{other}`"),
                    Span::new(i, i + other.len_utf8()),
                ))
            }
        }
    }
    Ok(out)
}

/// How a token reads in an "expected X, found Y" message.
fn describe(tok: Tok<'_>) -> String {
    match tok {
        Tok::Not => "`~`".into(),
        Tok::And => "`&`".into(),
        Tok::Or => "`|`".into(),
        Tok::Implies => "`->`".into(),
        Tok::Iff => "`<->`".into(),
        Tok::LParen => "`(`".into(),
        Tok::RParen => "`)`".into(),
        Tok::True => "`T`".into(),
        Tok::False => "`F`".into(),
        Tok::Ident(name) => format!("`{name}`"),
    }
}

struct Parser<'a> {
    toks: Vec<Lexed<'a>>,
    pos: usize,
    input_len: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|l| l.tok)
    }

    /// Consumes and returns the next token, if any.
    fn next(&mut self) -> Option<Tok<'a>> {
        let tok = self.peek();
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    fn here(&self) -> Span {
        self.toks
            .get(self.pos)
            .map(|l| l.span)
            .unwrap_or_else(|| Span::point(self.input_len))
    }

    fn parse_iff(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.parse_implies()?;
        while matches!(self.peek(), Some(Tok::Iff)) {
            self.next();
            let rhs = self.parse_implies()?;
            lhs = lhs.iff(rhs);
        }
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.parse_or()?;
        if matches!(self.peek(), Some(Tok::Implies)) {
            self.next();
            let rhs = self.parse_implies()?;
            return Ok(lhs.implies(rhs));
        }
        Ok(lhs)
    }

    fn parse_or(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.parse_and()?;
        while matches!(self.peek(), Some(Tok::Or)) {
            self.next();
            let rhs = self.parse_and()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.parse_unary()?;
        while matches!(self.peek(), Some(Tok::And)) {
            self.next();
            let rhs = self.parse_unary()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Formula, ParseError> {
        let span = self.here();
        match self.next() {
            Some(Tok::Not) => Ok(self.parse_unary()?.not()),
            Some(Tok::LParen) => {
                let inner = self.parse_iff()?;
                let found = self.peek().map(describe);
                match self.next() {
                    Some(Tok::RParen) => Ok(inner),
                    _ => Err(SyntaxError::expected_found("`)`", found, self.here())
                        .with_hint("close the parenthesized group")),
                }
            }
            Some(Tok::True) => Ok(Formula::True),
            Some(Tok::False) => Ok(Formula::False),
            Some(Tok::Ident(name)) => Ok(Formula::atom(name)),
            Some(tok) => Err(SyntaxError::expected_found(
                "a formula",
                Some(describe(tok)),
                span,
            )),
            None => Err(SyntaxError::with_kind(
                SyntaxErrorKind::UnexpectedEof,
                "unexpected end of input",
                span,
            )),
        }
    }
}

/// Parses a propositional formula from text.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte-span locating the first offending
/// token if the input is not a well-formed formula.
///
/// # Examples
///
/// ```
/// use casekit_logic::prop::parse;
/// let f = parse("(p -> q) & p -> q").unwrap();
/// assert!(f.is_tautology());
/// ```
pub fn parse(input: &str) -> Result<Formula, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        input_len: input.len(),
    };
    let f = p.parse_iff()?;
    if p.peek().is_some() {
        return Err(SyntaxError::with_kind(
            SyntaxErrorKind::TrailingInput,
            "unexpected trailing input",
            p.here(),
        ));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_atoms_and_constants() {
        assert_eq!(parse("p").unwrap(), Formula::atom("p"));
        assert_eq!(parse("T").unwrap(), Formula::True);
        assert_eq!(parse("false").unwrap(), Formula::False);
        assert_eq!(parse("on_grnd").unwrap(), Formula::atom("on_grnd"));
    }

    #[test]
    fn precedence_not_and_or_implies_iff() {
        let f = parse("~p & q | r -> s <-> t").unwrap();
        // ((((~p & q) | r) -> s) <-> t)
        let expected = Formula::atom("p")
            .not()
            .and(Formula::atom("q"))
            .or(Formula::atom("r"))
            .implies(Formula::atom("s"))
            .iff(Formula::atom("t"));
        assert_eq!(f, expected);
    }

    #[test]
    fn implication_is_right_associative() {
        assert_eq!(
            parse("a -> b -> c").unwrap(),
            parse("a -> (b -> c)").unwrap()
        );
        assert_ne!(
            parse("a -> b -> c").unwrap(),
            parse("(a -> b) -> c").unwrap()
        );
    }

    #[test]
    fn and_or_are_left_associative() {
        assert_eq!(parse("a & b & c").unwrap(), parse("(a & b) & c").unwrap());
        assert_eq!(parse("a | b | c").unwrap(), parse("(a | b) | c").unwrap());
    }

    #[test]
    fn unicode_aliases() {
        assert_eq!(parse("¬p ∧ q").unwrap(), parse("~p & q").unwrap());
        assert_eq!(parse("p ⇒ q").unwrap(), parse("p -> q").unwrap());
        assert_eq!(parse("p ⇔ q").unwrap(), parse("p <-> q").unwrap());
        assert_eq!(parse("p → q").unwrap(), parse("p -> q").unwrap());
    }

    #[test]
    fn doubled_ascii_operators_tolerated() {
        assert_eq!(parse("p && q").unwrap(), parse("p & q").unwrap());
        assert_eq!(parse("p || q").unwrap(), parse("p | q").unwrap());
    }

    #[test]
    fn paper_example_thrust_reverser() {
        // Graydon §II-B2: `¬on_grnd ⇒ ¬threv_en`.
        let f = parse("¬on_grnd ⇒ ¬threv_en").unwrap();
        assert_eq!(f.to_string(), "~on_grnd -> ~threv_en");
    }

    #[test]
    fn errors_carry_spans() {
        let e = parse("p -").unwrap_err();
        assert!(e.span.start >= 2);
        let e = parse("p @ q").unwrap_err();
        assert_eq!(e.span.start, 2);
        let e = parse("(p").unwrap_err();
        assert!(e.message.contains(")"));
        let e = parse("p q").unwrap_err();
        assert!(e.message.contains("trailing"));
        let e = parse("").unwrap_err();
        assert!(e.message.contains("end of input"));
        let e = parse("p <- q").unwrap_err();
        assert!(e.message.contains("<->"));
    }

    #[test]
    fn display_parse_round_trip() {
        for src in [
            "p",
            "~p",
            "p & q",
            "p | q & r",
            "(p | q) & r",
            "p -> q -> r",
            "(p -> q) -> r",
            "~(p <-> q)",
            "T & ~F",
            "a' & b'",
        ] {
            let f = parse(src).unwrap();
            let round = parse(&f.to_string()).unwrap();
            assert_eq!(f, round, "round-trip failed for {src}");
        }
    }
}
