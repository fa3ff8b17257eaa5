//! The LTL grammar: the table the formula front end (`crate::expr`)
//! parses LTL formulas with.
//!
//! Grammar (lowest precedence first):
//!
//! ```text
//! implies ::= or ( "->" implies )?
//! or      ::= and ( "|" and )*
//! and     ::= until ( "&" until )*
//! until   ::= unary ( ("U" | "R") unary )*      (left associative)
//! unary   ::= ("~" | "X" | "F" | "G") unary | "(" implies ")" | atom
//! ```
//!
//! Unicode aliases `¬ ∧ ∨ → ◇ □ ○` are accepted (`◇` = F, `□` = G, `○` = X),
//! as are `!`, `&&` and `||`. LTL has no `<->` and no primed names, its
//! `F` is *finally*, and its constants are `true` and `false`. No formula
//! may be taller than [`MAX_DEPTH`](crate::MAX_DEPTH).

use super::ast::Ltl;
use crate::error::ParseError;
use crate::expr::{self, Grammar, Op};

impl Grammar for Ltl {
    const SYMBOLS: &'static [(Op, &'static [&'static str])] = &[
        (Op::Not, &["~", "!", "¬"]),
        (Op::Next, &["○"]),
        (Op::Finally, &["◇"]),
        (Op::Globally, &["□"]),
        (Op::And, &["&", "&&", "∧"]),
        (Op::Or, &["|", "||", "∨"]),
        (Op::Implies, &["->", "→"]),
        (Op::LParen, &["("]),
        (Op::RParen, &[")"]),
    ];
    const WORDS: &'static [(Op, &'static [&'static str])] = &[
        (Op::Next, &["X"]),
        (Op::Finally, &["F"]),
        (Op::Globally, &["G"]),
        (Op::Until, &["U"]),
        (Op::Release, &["R"]),
        (Op::True, &["true"]),
        (Op::False, &["false"]),
    ];
    const PRIMES: bool = false;
    const OPERAND: &'static str = "an LTL formula";
    const FOUND_FIRST_CHAR: bool = true;
    const TRUE: Self = Ltl::True;
    const FALSE: Self = Ltl::False;

    fn atom(name: &str) -> Self {
        Ltl::prop(name)
    }

    fn unary(op: Op, operand: Self) -> Self {
        match op {
            Op::Not => operand.not(),
            Op::Next => operand.next(),
            Op::Finally => operand.finally(),
            Op::Globally => operand.globally(),
            _ => unreachable!("`{op:?}` is not an LTL prefix operator"),
        }
    }

    fn binary(op: Op, lhs: Self, rhs: Self) -> Self {
        match op {
            Op::And => lhs.and(rhs),
            Op::Or => lhs.or(rhs),
            Op::Implies => lhs.implies(rhs),
            Op::Until => lhs.until(rhs),
            Op::Release => lhs.release(rhs),
            _ => unreachable!("`{op:?}` is not an LTL connective"),
        }
    }
}

/// Parses an LTL formula.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first offending token, or the
/// operator that would make the formula taller than
/// [`MAX_DEPTH`](crate::MAX_DEPTH).
///
/// # Examples
///
/// ```
/// use casekit_logic::ltl::parse_ltl;
/// let f = parse_ltl("G (below_min -> (nonzero U above_min))").unwrap();
/// assert_eq!(f.to_string(), "G (below_min -> nonzero U above_min)");
/// ```
pub fn parse_ltl(input: &str) -> Result<Ltl, ParseError> {
    expr::parse(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_and_constants() {
        assert_eq!(parse_ltl("p").unwrap(), Ltl::prop("p"));
        assert_eq!(parse_ltl("true").unwrap(), Ltl::True);
        assert_eq!(parse_ltl("false").unwrap(), Ltl::False);
    }

    #[test]
    fn temporal_operators() {
        assert_eq!(parse_ltl("X p").unwrap(), Ltl::prop("p").next());
        assert_eq!(parse_ltl("F p").unwrap(), Ltl::prop("p").finally());
        assert_eq!(parse_ltl("G p").unwrap(), Ltl::prop("p").globally());
        assert_eq!(
            parse_ltl("p U q").unwrap(),
            Ltl::prop("p").until(Ltl::prop("q"))
        );
        assert_eq!(
            parse_ltl("p R q").unwrap(),
            Ltl::prop("p").release(Ltl::prop("q"))
        );
    }

    #[test]
    fn unicode_operators() {
        assert_eq!(parse_ltl("□ p").unwrap(), parse_ltl("G p").unwrap());
        assert_eq!(parse_ltl("◇ p").unwrap(), parse_ltl("F p").unwrap());
        assert_eq!(parse_ltl("○ p").unwrap(), parse_ltl("X p").unwrap());
        assert_eq!(parse_ltl("¬p ∧ q").unwrap(), parse_ltl("~p & q").unwrap());
    }

    #[test]
    fn brunel_cazin_shape() {
        // The paper's Detect-and-Avoid formalisation (propositionalised).
        let f = parse_ltl("G (below_min -> (nonzero U above_min))").unwrap();
        assert_eq!(f.props().len(), 3);
    }

    #[test]
    fn precedence_until_binds_tighter_than_and() {
        let f = parse_ltl("p U q & r").unwrap();
        assert_eq!(f, Ltl::prop("p").until(Ltl::prop("q")).and(Ltl::prop("r")));
    }

    #[test]
    fn nested_temporal() {
        let f = parse_ltl("G F p").unwrap();
        assert_eq!(f, Ltl::prop("p").finally().globally());
        let f = parse_ltl("~G p").unwrap();
        assert_eq!(f, Ltl::prop("p").globally().not());
    }

    #[test]
    fn operator_names_not_usable_as_props() {
        assert!(parse_ltl("U").is_err());
        assert!(parse_ltl("p U").is_err());
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse_ltl("p q").is_err());
        assert!(parse_ltl("(p").is_err());
    }

    #[test]
    fn round_trip() {
        for src in [
            "G (request -> F grant)",
            "p U (q R r)",
            "X X p",
            "~(p & q) | F r",
            "G F p -> F G q",
        ] {
            let f = parse_ltl(src).unwrap();
            assert_eq!(parse_ltl(&f.to_string()).unwrap(), f, "round trip {src}");
        }
    }
}
