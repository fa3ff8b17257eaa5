//! The one formula front end: a table-driven lexer and an iterative
//! operator-precedence parser, shared by [`prop`](crate::prop) and
//! [`ltl`](crate::ltl).
//!
//! Each language is a [`Grammar`]: the spellings of its operators
//! (Unicode aliases and reserved words included), whether names may
//! take a `'`, and how to build its tree. The kernel owns the rest:
//!
//! - **One binding-power order.** Prefix operators bind tightest, then
//!   `U`/`R`, `&`, `|`, right-associative `->`, and `<->`; the other
//!   infix operators associate to the left.
//! - **Every syntax error** either language returns. A parse error
//!   stands only if the rest of the input lexes, so an unexpected
//!   character is reported before any parse error.
//! - **One depth bound.** Operands and pending operators live on heap
//!   stacks, so nothing recurses, and no node taller than [`MAX_DEPTH`]
//!   is built: the operator that would cross it gets a
//!   [`SyntaxErrorKind::TooDeep`] error. Parentheses add no height.
//!
//! The bound makes parsed formulas safe to use. `Formula` and `Ltl` are
//! `Arc` trees whose `Display`, `Drop`, Tseitin compilation and lint
//! passes recurse once per level. On a 2 MiB thread those held trees of
//! height 20,000 in a release build and 4,000 in a debug build (and
//! overflowed at 50,000 and 8,000), a 15× margin over the bound even
//! in debug. Trees built in code are not bounded; keep them as low.

use crate::error::{ParseError, Span, SyntaxError, SyntaxErrorKind};

/// The tallest formula tree the front end builds: an atom has height 1,
/// and each operator adds one to its tallest operand. The `.case` DSL
/// caps node-body nesting at the same depth.
pub const MAX_DEPTH: usize = 256;

/// A token kind either language can spell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Not,
    Next,
    Finally,
    Globally,
    Until,
    Release,
    And,
    Or,
    Implies,
    Iff,
    True,
    False,
    LParen,
    RParen,
}

/// The binding power of every prefix operator, above all infix ones.
const PREFIX: u8 = 5;

impl Op {
    /// How tightly the operator binds; `None` for constants and
    /// parentheses.
    fn power(self) -> Option<u8> {
        match self {
            Op::Not | Op::Next | Op::Finally | Op::Globally => Some(PREFIX),
            Op::Until | Op::Release => Some(4),
            Op::And => Some(3),
            Op::Or => Some(2),
            Op::Implies => Some(1),
            Op::Iff => Some(0),
            Op::True | Op::False | Op::LParen | Op::RParen => None,
        }
    }
}

/// One formula language: the table that drives the front end, and how
/// to build its tree.
pub(crate) trait Grammar: Sized {
    /// Every spelling of each symbolic operator and parenthesis. The
    /// lexer takes the longest that matches; messages use the first.
    const SYMBOLS: &'static [(Op, &'static [&'static str])];
    /// Every spelling of each reserved word: constants and word
    /// operators.
    const WORDS: &'static [(Op, &'static [&'static str])];
    /// Whether `'` may continue a name.
    const PRIMES: bool;
    /// What an operand position asks for in "expected …" messages.
    const OPERAND: &'static str;
    /// Whether "found …" names a token by its first character rather
    /// than by its first spelling.
    const FOUND_FIRST_CHAR: bool;
    /// The constant true.
    const TRUE: Self;
    /// The constant false.
    const FALSE: Self;

    /// An atomic proposition.
    fn atom(name: &str) -> Self;
    /// A prefix operator applied to its operand.
    fn unary(op: Op, operand: Self) -> Self;
    /// An infix operator applied to its operands.
    fn binary(op: Op, lhs: Self, rhs: Self) -> Self;
}

#[derive(Debug, Clone, Copy)]
enum Tok<'a> {
    Op(Op),
    Name(&'a str),
}

/// Parses `input` in `G`'s language.
pub(crate) fn parse<G: Grammar>(input: &str) -> Result<G, ParseError> {
    let mut pos = 0;
    parse_tokens(input, &mut pos).map_err(|error| loop {
        // A parse error stands only if the rest of the input lexes.
        match lex::<G>(input, &mut pos) {
            Ok(Some(_)) => {}
            Ok(None) => return error,
            Err(lex_error) => return lex_error,
        }
    })
}

/// The token at `*pos`, if any, moving `*pos` past it (to the end of
/// input after an error).
fn lex<'a, G: Grammar>(
    input: &'a str,
    pos: &mut usize,
) -> Result<Option<(Tok<'a>, Span)>, ParseError> {
    let rest = input[*pos..].trim_start();
    let start = input.len() - rest.len();
    let Some(c) = rest.chars().next() else {
        return Ok(None);
    };
    let (tok, len) = if c.is_alphabetic() || c == '_' {
        let len = rest
            .find(|d: char| !(d.is_alphanumeric() || d == '_' || (G::PRIMES && d == '\'')))
            .unwrap_or(rest.len());
        let word = &rest[..len];
        let op = G::WORDS
            .iter()
            .find(|(_, spellings)| spellings.contains(&word));
        (op.map_or(Tok::Name(word), |&(op, _)| Tok::Op(op)), len)
    } else {
        // Plain loops over the constant table unroll into a decision
        // tree; iterator adapters here made prop parsing ~30% slower.
        let mut longest: Option<(Op, &str)> = None;
        for &(op, spellings) in G::SYMBOLS {
            for &s in spellings {
                if rest.starts_with(s) && longest.is_none_or(|(_, l)| s.len() > l.len()) {
                    longest = Some((op, s));
                }
            }
        }
        let Some((op, s)) = longest else {
            *pos = input.len();
            return Err(unexpected_char::<G>(c, start));
        };
        (Tok::Op(op), s.len())
    };
    *pos = start + len;
    Ok(Some((tok, Span::new(start, start + len))))
}

/// The error for a character no token starts with. One that starts a
/// multi-character operator names the operator.
fn unexpected_char<G: Grammar>(c: char, at: usize) -> ParseError {
    let span = Span::new(at, at + c.len_utf8());
    let spelled = G::SYMBOLS
        .iter()
        .flat_map(|(_, s)| *s)
        .any(|s| s.starts_with(c));
    let (message, hint) = match c {
        '-' if spelled => (
            "expected `>` after `-` (implication is `->`)",
            "write implication as `->`",
        ),
        '<' if spelled => (
            "expected `<->` (biconditional)",
            "write the biconditional as `<->`",
        ),
        _ => {
            let message = format!("unexpected character `{c}`");
            return SyntaxError::with_kind(SyntaxErrorKind::UnexpectedChar, message, span);
        }
    };
    SyntaxError::with_kind(SyntaxErrorKind::UnexpectedChar, message, span).with_hint(hint)
}

/// How an "expected X, found Y" message names the token at `span`.
fn found<G: Grammar>(tok: Tok<'_>, span: Span, input: &str) -> String {
    let text = &input[span.start..span.end];
    let name = match tok {
        _ if G::FOUND_FIRST_CHAR => &text[..text.chars().next().map_or(0, char::len_utf8)],
        Tok::Name(name) => name,
        Tok::Op(op) => G::SYMBOLS
            .iter()
            .chain(G::WORDS)
            .find(|&&(o, _)| o == op)
            .map_or(text, |(_, s)| s[0]),
    };
    format!("`{name}`")
}

/// The shift-reduce loop. In operand position, prefix operators and `(`
/// stack up until an atom or constant arrives. In operator position, an
/// infix operator first reduces the pending operators that bind at least
/// as tightly (`->` waits for its right side), `)` reduces back to its
/// `(`, and end of input reduces everything.
fn parse_tokens<G: Grammar>(input: &str, pos: &mut usize) -> Result<G, ParseError> {
    const CLOSE: &str = "close the parenthesized group";
    let eof = Span::point(input.len());
    let (mut operands, mut ops) = (Vec::new(), Vec::new());
    let mut open = 0usize;
    loop {
        loop {
            let Some((tok, span)) = lex::<G>(input, pos)? else {
                return Err(SyntaxError::with_kind(
                    SyntaxErrorKind::UnexpectedEof,
                    "unexpected end of input",
                    eof,
                ));
            };
            let leaf = match tok {
                Tok::Name(name) => G::atom(name),
                Tok::Op(Op::True) => G::TRUE,
                Tok::Op(Op::False) => G::FALSE,
                Tok::Op(op) if op == Op::LParen || op.power() == Some(PREFIX) => {
                    open += usize::from(op == Op::LParen);
                    ops.push((op, span));
                    continue;
                }
                Tok::Op(_) => {
                    let found = Some(found::<G>(tok, span, input));
                    return Err(SyntaxError::expected_found(G::OPERAND, found, span));
                }
            };
            operands.push((leaf, 1));
            break;
        }
        loop {
            let Some((tok, span)) = lex::<G>(input, pos)? else {
                if open > 0 {
                    return Err(SyntaxError::expected_found("`)`", None, eof).with_hint(CLOSE));
                }
                while !ops.is_empty() {
                    reduce(&mut operands, &mut ops)?;
                }
                return Ok(operands.pop().expect("one operand per formula").0);
            };
            match tok {
                Tok::Op(op) if op.power().is_some_and(|power| power < PREFIX) => {
                    let power = op.power();
                    while ops.last().is_some_and(|&(top, _)| {
                        top.power() > power || (top.power() == power && op != Op::Implies)
                    }) {
                        reduce(&mut operands, &mut ops)?;
                    }
                    ops.push((op, span));
                    break;
                }
                Tok::Op(Op::RParen) if open > 0 => {
                    while ops.last().is_some_and(|&(top, _)| top != Op::LParen) {
                        reduce(&mut operands, &mut ops)?;
                    }
                    ops.pop();
                    open -= 1;
                }
                _ if open > 0 => {
                    let found = Some(found::<G>(tok, span, input));
                    return Err(SyntaxError::expected_found("`)`", found, span).with_hint(CLOSE));
                }
                _ => {
                    return Err(SyntaxError::with_kind(
                        SyntaxErrorKind::TrailingInput,
                        "unexpected trailing input",
                        span,
                    ));
                }
            }
        }
    }
}

/// Applies the top pending operator to its operands, refusing a node
/// taller than [`MAX_DEPTH`].
fn reduce<G: Grammar>(
    operands: &mut Vec<(G, usize)>,
    ops: &mut Vec<(Op, Span)>,
) -> Result<(), ParseError> {
    let (op, span) = ops.pop().expect("an operator to reduce");
    let (rhs, rhs_height) = operands.pop().expect("an operand per operator");
    let lhs = (op.power() != Some(PREFIX)).then(|| operands.pop().expect("two infix operands"));
    let height = 1 + lhs.as_ref().map_or(rhs_height, |&(_, h)| h.max(rhs_height));
    if height > MAX_DEPTH {
        let message = format!("formula nests deeper than {MAX_DEPTH} levels");
        return Err(
            SyntaxError::with_kind(SyntaxErrorKind::TooDeep, message, span)
                .with_hint("split it into smaller formulas"),
        );
    }
    let tree = match lhs {
        Some((lhs, _)) => G::binary(op, lhs, rhs),
        None => G::unary(op, rhs),
    };
    operands.push((tree, height));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ltl::{parse_ltl, Ltl};
    use crate::prop::{parse, Formula};

    /// `n` copies of `unit` followed by `tail`.
    fn chain(unit: &str, n: usize, tail: &str) -> String {
        format!("{}{tail}", unit.repeat(n))
    }

    /// A formula of (even) height `h` in the named shape.
    fn shaped(shape: &str, h: usize) -> String {
        match shape {
            "prefix" => chain("~", h - 1, "p"),
            "left-associative" => chain("p & ", h - 1, "p"),
            "right-associative" => chain("p -> ", h - 1, "p"),
            _ => format!(
                "~{}{}",
                chain("~(p | ", h / 2 - 1, "p"),
                ")".repeat(h / 2 - 1)
            ),
        }
    }

    #[test]
    fn every_shape_parses_at_the_bound_and_is_refused_one_past_it() {
        for name in ["prefix", "left-associative", "right-associative", "mixed"] {
            let at = parse(&shaped(name, MAX_DEPTH)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(at.depth(), MAX_DEPTH, "{name}");
            let e = parse(&shaped(name, MAX_DEPTH + 2)).unwrap_err();
            assert_eq!(e.kind, SyntaxErrorKind::TooDeep, "{name}: {e}");
            assert_eq!(e.message, "formula nests deeper than 256 levels");
        }
        let at = parse_ltl(&chain("G ", MAX_DEPTH - 1, "p")).unwrap();
        assert_eq!(at.size(), MAX_DEPTH);
        let e = parse_ltl(&chain("p U ", MAX_DEPTH, "p")).unwrap_err();
        assert_eq!(e.kind, SyntaxErrorKind::TooDeep);
    }

    #[test]
    fn the_operator_that_crosses_the_bound_is_blamed() {
        // Prefix operators reduce innermost first, so with 257 `~` the
        // second one would build level 257.
        let e = parse(&chain("~", MAX_DEPTH + 1, "p")).unwrap_err();
        assert_eq!(e.span, Span::new(1, 2));
        // Left-associative chains reduce as they go: the 256th `&`.
        let src = chain("p & ", MAX_DEPTH + 10, "p");
        let e = parse(&src).unwrap_err();
        assert_eq!(e.span.start, 4 * (MAX_DEPTH - 1) + 2);
        assert_eq!(&src[e.span.start..e.span.end], "&");
    }

    #[test]
    fn parentheses_add_no_height() {
        let n = 100_000;
        let src = format!("{}p{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse(&src).unwrap(), Formula::atom("p"));
        assert_eq!(parse_ltl(&src).unwrap(), Ltl::prop("p"));
    }

    #[test]
    fn far_past_the_bound_nothing_recurses() {
        for src in [
            chain("~", 200_000, "p"),
            chain("p -> ", 200_000, "p"),
            chain("(", 200_000, "p"),
        ] {
            assert!(parse(&src).is_err());
        }
        assert!(parse_ltl(&chain("G ", 200_000, "p")).is_err());
    }

    #[test]
    fn lex_errors_are_reported_before_parse_errors() {
        // The parse fails at `q`, but the `@` after it is reported.
        let e = parse_ltl("(p q @").unwrap_err();
        assert_eq!(e.kind, SyntaxErrorKind::UnexpectedChar);
        assert_eq!(e.span, Span::new(5, 6));
        let e = parse("p q @").unwrap_err();
        assert_eq!(e.message, "unexpected character `@`");
    }

    #[test]
    fn each_language_spells_only_its_own_operators() {
        // LTL has no biconditional and no `⇒`; its `<` is just a stray.
        assert_eq!(
            parse_ltl("p <-> q").unwrap_err().message,
            "unexpected character `<`"
        );
        assert!(parse_ltl("p ⇒ q").is_err());
        assert!(parse_ltl("p'").is_err());
        // Both name a malformed implication the same way.
        for e in [parse("p - q").unwrap_err(), parse_ltl("p - q").unwrap_err()] {
            assert_eq!(e.message, "expected `>` after `-` (implication is `->`)");
        }
        // Prop's `F` is false; LTL's is finally, and its `T` is an atom.
        assert_eq!(parse("F").unwrap(), Formula::False);
        assert_eq!(parse_ltl("F T").unwrap(), Ltl::prop("T").finally());
    }

    #[test]
    fn found_names_follow_each_language() {
        // Prop names an operator by its first spelling, LTL by its first
        // character.
        let e = parse("(p true").unwrap_err();
        assert_eq!(e.found.as_deref(), Some("`T`"));
        let e = parse_ltl("(p true").unwrap_err();
        assert_eq!(e.found.as_deref(), Some("`t`"));
        assert_eq!(e.span, Span::new(3, 7));
    }
}
