//! Fuzz-shaped properties for the recovering DSL frontend.
//!
//! The recovering parser must (1) never panic on any input, (2) emit a
//! deterministic, span-sorted diagnostic stream, and (3) agree with the
//! retained seed parser: node-for-node equal output on valid files, and
//! the seed's single abort-error always present in the recovered stream
//! on invalid ones. Inputs are valid generated corpora plus truncations,
//! point mutations, and keyword-soup concatenations of them.

use casekit::core::dsl::{parse_argument_recovering, parse_argument_seed, ParseOutcome};
use casekit::core::Argument;
use proptest::prelude::*;

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

/// One generated node: (parent selector, kind, payload selector,
/// undeveloped selector).
type Spec = (usize, usize, usize, usize);

fn corpus() -> impl Strategy<Value = Vec<Spec>> {
    collection::vec((0..1000usize, 0..KINDS.len(), 0..6usize, 0..2usize), 1..15)
}

/// Renders a spec list as valid DSL source: node `i`'s parent is drawn
/// from the nodes before it, so the result is a tree rooted at node 0.
fn render(specs: &[Spec]) -> String {
    let n = specs.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, spec) in specs.iter().enumerate().skip(1) {
        children[spec.0 % i].push(i);
    }
    let mut out = String::from("argument \"generated\" {\n");
    render_node(specs, &children, 0, 1, &mut out);
    out.push_str("}\n");
    out
}

fn render_node(specs: &[Spec], children: &[Vec<usize>], i: usize, depth: usize, out: &mut String) {
    let (_, kind, payload, undev) = specs[i];
    let pad = "  ".repeat(depth);
    out.push_str(&pad);
    out.push_str(KINDS[kind]);
    if i.is_multiple_of(4) {
        out.push_str(&format!(" n{i} \"claim {i} \\\"quoted\\\"\""));
    } else {
        out.push_str(&format!(" n{i} \"claim {i}\""));
    }
    out.push_str(match payload {
        1 => " formal \"p -> q\"",
        2 => " formal \"~a & b\"",
        3 => " temporal \"G (a -> F b)\"",
        4 => " temporal \"p U q\"",
        _ => "",
    });
    if undev == 1 {
        out.push_str(" undeveloped");
    }
    if children[i].is_empty() {
        out.push('\n');
        return;
    }
    out.push_str(" {\n");
    for &child in &children[i] {
        render_node(specs, children, child, depth + 1, out);
    }
    out.push_str(&pad);
    out.push_str("}\n");
}

fn floor_boundary(src: &str, mut pos: usize) -> usize {
    pos = pos.min(src.len());
    while !src.is_char_boundary(pos) {
        pos -= 1;
    }
    pos
}

/// The three invariants every parse must satisfy, regardless of input.
fn check_invariants(src: &str) -> ParseOutcome {
    let out = parse_argument_recovering(src);
    // Deterministic: a second run produces the identical stream.
    let again = parse_argument_recovering(src);
    assert_eq!(out.errors, again.errors, "nondeterministic diagnostics");
    // Canonically sorted by span.
    for pair in out.errors.windows(2) {
        let a = (pair[0].error.span.start, pair[0].error.span.end);
        let b = (pair[1].error.span.start, pair[1].error.span.end);
        assert!(a <= b, "diagnostics out of span order on {src:?}");
    }
    // Every diagnostic's span lies within the source.
    for d in &out.errors {
        assert!(d.error.span.start <= d.error.span.end);
        assert!(d.error.span.end <= src.len());
    }
    // The parser refuses exactly what `Argument::from_parts` refuses:
    // whatever it recovered rebuilds through the validating constructor
    // to an equal argument with the same arena order.
    if let Some(argument) = &out.argument {
        let rebuilt = Argument::from_parts(
            argument.name(),
            argument.arena().to_vec(),
            argument.edges().to_vec(),
        )
        .unwrap_or_else(|e| panic!("recovered an argument from_parts refuses ({e}) on {src:?}"));
        assert_eq!(&rebuilt, argument);
        assert_eq!(rebuilt.arena(), argument.arena(), "arena order differs");
    }
    // Seed agreement: valid files match node-for-node; the seed's abort
    // error always appears in the recovered stream.
    match parse_argument_seed(src) {
        Ok(seed) => {
            assert!(
                out.is_clean(),
                "clean seed parse but diagnostics: {:?}",
                out.errors
            );
            assert_eq!(out.argument.as_ref(), Some(&seed));
        }
        Err(seed_err) => {
            assert!(
                !out.errors.is_empty(),
                "seed rejected {src:?} but recovery was clean"
            );
            assert!(
                out.errors
                    .iter()
                    .any(|d| d.error.message.contains(&seed_err.message)),
                "seed error {:?} missing from recovered stream {:?} on {src:?}",
                seed_err.message,
                out.errors,
            );
        }
    }
    out
}

fn fragment() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("argument"),
        Just("goal"),
        Just("widget"),
        Just("ref"),
        Just("formal"),
        Just("temporal"),
        Just("undeveloped"),
        Just("n1"),
        Just("{"),
        Just("}"),
        Just("\"text\""),
        Just("\"p ->\""),
        Just("\"unterminated"),
        Just("$"),
        Just("# comment"),
        Just("//"),
        Just("\\"),
        Just("\"esc \\\" aped\""),
        Just("\"lone \\"),
        Just("// trailing comment"),
        Just("\n"),
        Just(""),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn valid_corpora_parse_clean_and_match_seed(specs in corpus()) {
        let src = render(&specs);
        let out = check_invariants(&src);
        prop_assert!(out.is_clean());
        // Every surviving node is locatable through the source map.
        let argument = out.argument.expect("valid file yields an argument");
        for node in argument.nodes() {
            prop_assert!(out.source_map.node(&node.id).is_some());
        }
    }

    #[test]
    fn truncations_recover_deterministically(specs in corpus(), cut in 0..10_000usize) {
        let src = render(&specs);
        let cut = floor_boundary(&src, cut % (src.len() + 1));
        check_invariants(&src[..cut]);
    }

    #[test]
    fn point_mutations_recover(
        specs in corpus(),
        pos in 0..10_000usize,
        op in 0..3usize,
        ch in prop_oneof![
            Just('"'), Just('{'), Just('}'), Just('#'), Just('\\'),
            Just('$'), Just('q'), Just('9'), Just(' '),
            Just('é'), Just('☃'), Just('\u{a0}'), Just('\u{2028}'),
            Just('\r'), Just('/'),
        ],
    ) {
        let src = render(&specs);
        let at = floor_boundary(&src, pos % (src.len() + 1));
        let mutated = match op {
            // Insert, delete, or replace one character.
            0 => format!("{}{}{}", &src[..at], ch, &src[at..]),
            1 if at < src.len() => {
                let next = floor_boundary(&src, at + 1).max(at + 1);
                format!("{}{}", &src[..at], &src[next.min(src.len())..])
            }
            _ if at < src.len() => {
                let next = floor_boundary(&src, at + 1).max(at + 1);
                format!("{}{}{}", &src[..at], ch, &src[next.min(src.len())..])
            }
            _ => format!("{src}{ch}"),
        };
        check_invariants(&mutated);
    }

    #[test]
    fn keyword_soup_never_panics(frags in collection::vec(fragment(), 0..40)) {
        let src = frags.join(" ");
        check_invariants(&src);
    }
}
