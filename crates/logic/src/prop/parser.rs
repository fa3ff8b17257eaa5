//! The propositional grammar: the table the formula front end
//! (`crate::expr`) parses propositional formulas with.
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
//! `⇒`/`→` for `->`, `⇔`/`↔` for `<->`; `!` is `~`, `&&` and `||` are
//! `&` and `|`, and `true`/`false` are `T`/`F`. No formula may be taller
//! than [`MAX_DEPTH`](crate::MAX_DEPTH).

use super::ast::Formula;
use crate::error::ParseError;
use crate::expr::{self, Grammar, Op};

impl Grammar for Formula {
    const SYMBOLS: &'static [(Op, &'static [&'static str])] = &[
        (Op::Not, &["~", "¬", "!"]),
        (Op::And, &["&", "&&", "∧"]),
        (Op::Or, &["|", "||", "∨"]),
        (Op::Implies, &["->", "⇒", "→"]),
        (Op::Iff, &["<->", "⇔", "↔"]),
        (Op::LParen, &["("]),
        (Op::RParen, &[")"]),
    ];
    const WORDS: &'static [(Op, &'static [&'static str])] =
        &[(Op::True, &["T", "true"]), (Op::False, &["F", "false"])];
    const PRIMES: bool = true;
    const OPERAND: &'static str = "a formula";
    const FOUND_FIRST_CHAR: bool = false;
    const TRUE: Self = Formula::True;
    const FALSE: Self = Formula::False;

    fn atom(name: &str) -> Self {
        Formula::atom(name)
    }

    fn unary(op: Op, operand: Self) -> Self {
        debug_assert_eq!(op, Op::Not, "the only propositional prefix operator");
        operand.not()
    }

    fn binary(op: Op, lhs: Self, rhs: Self) -> Self {
        match op {
            Op::And => lhs.and(rhs),
            Op::Or => lhs.or(rhs),
            Op::Implies => lhs.implies(rhs),
            Op::Iff => lhs.iff(rhs),
            _ => unreachable!("`{op:?}` is not a propositional connective"),
        }
    }
}

/// Parses a propositional formula from text.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte-span locating the first offending
/// token if the input is not a well-formed formula, or the operator that
/// would make it taller than [`MAX_DEPTH`](crate::MAX_DEPTH).
///
/// # Examples
///
/// ```
/// use casekit_logic::prop::parse;
/// let f = parse("(p -> q) & p -> q").unwrap();
/// assert!(f.is_tautology());
/// ```
pub fn parse(input: &str) -> Result<Formula, ParseError> {
    expr::parse(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Span;

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
    fn unclosed_group_underlines_the_token_it_names() {
        let e = parse("(alpha beta gamma)").unwrap_err();
        assert_eq!(e.message, "expected `)`, found `beta`");
        assert_eq!(e.span, Span::new(7, 11));
        let e = parse("(alpha beta").unwrap_err();
        assert_eq!(e.found.as_deref(), Some("`beta`"));
        assert_eq!(e.span, Span::new(7, 11));
    }

    #[test]
    fn doubled_operators_are_blamed_whole() {
        let e = parse("&& p").unwrap_err();
        assert_eq!(e.message, "expected a formula, found `&`");
        assert_eq!(e.span, Span::new(0, 2));
        let e = parse("p | || q").unwrap_err();
        assert_eq!(e.found.as_deref(), Some("`|`"));
        assert_eq!(e.span, Span::new(4, 6));
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
