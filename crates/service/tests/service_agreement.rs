//! The service's load-bearing property: a random edit script applied
//! incrementally through [`CaseService`] yields verdict-for-verdict
//! identical answers — machine findings, fallacy codes, lint stream,
//! probe classification — to from-scratch recompilation after every
//! step, at every runtime worker count.
//!
//! The expected transcript replays the same op streams but answers
//! each query with [`batch_answers`] — fresh compilations that share
//! nothing with the incremental path (no payload cache, no witness
//! pool, no retained learned clauses).

use casekit_analysis::LintConfig;
use casekit_core::dsl::parse_argument;
use casekit_core::{Argument, FormalPayload, Node, NodeKind};
use casekit_logic::prop::Formula;
use casekit_runtime::Runtime;
use casekit_service::{batch_transcript, CaseAnswers, CaseOp, CaseService, EditOp};
use proptest::prelude::*;

/// Arbitrary shallow formulas over a small alphabet (the same shape the
/// lint property tests use, so solver rounds stay microseconds-scale).
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        prop_oneof![Just("p"), Just("q"), Just("r"), Just("s")].prop_map(Formula::atom),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.implies(b)),
        ]
    })
}

const PREMISES: usize = 3;

/// The fixed skeleton every script starts from: a conclusion over a
/// strategy over `PREMISES` formal premise goals.
fn seed_case() -> Argument {
    parse_argument(
        r#"argument "seed" {
            goal g0 "top claim" formal "q" {
              strategy s0 "decompose" {
                goal pr0 "premise 0" formal "p" { solution ev0 "record 0" }
                goal pr1 "premise 1" formal "p -> q" { solution ev1 "record 1" }
                goal pr2 "premise 2" formal "r" { solution ev2 "record 2" }
              }
            }
        }"#,
    )
    .unwrap()
}

/// A formula-edit target: one of the premises or the conclusion.
fn target_id(i: usize) -> casekit_core::NodeId {
    if i == PREMISES {
        "g0".into()
    } else {
        casekit_core::NodeId::new(format!("pr{i}"))
    }
}

/// One random edit. Structural ops draw ids from a tiny `x0..x5` pool,
/// so scripts naturally exercise the error paths too (duplicate adds,
/// removes of never-added nodes) — failed edits must leave the session
/// on its last valid revision, still in agreement.
fn edit_strategy() -> impl Strategy<Value = EditOp> {
    prop_oneof![
        (0..PREMISES + 1, formula_strategy()).prop_map(|(i, formula)| {
            EditOp::ReplaceFormula {
                node: target_id(i),
                formula,
            }
        }),
        (0..PREMISES + 1, 0..4u8).prop_map(|(i, t)| EditOp::SetText {
            node: target_id(i),
            text: format!("all inputs are revision {t}"),
        }),
        (0..6u8, formula_strategy()).prop_map(|(x, formula)| EditOp::AddSupport {
            parent: "s0".into(),
            node: Node::new(
                casekit_core::NodeId::new(format!("x{x}")),
                NodeKind::Goal,
                "extra premise"
            )
            .with_formal(FormalPayload::Prop(formula)),
        }),
        (0..6u8).prop_map(|x| EditOp::RemoveNode {
            node: casekit_core::NodeId::new(format!("x{x}")),
        }),
    ]
}

/// A traffic stream: query the seed, then query after every edit.
fn stream_strategy() -> impl Strategy<Value = Vec<CaseOp>> {
    collection::vec(edit_strategy(), 1..8).prop_map(|edits| {
        let mut ops = vec![CaseOp::Query];
        for edit in edits {
            ops.push(CaseOp::Edit(edit));
            ops.push(CaseOp::Query);
        }
        ops
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every incremental answer equals the from-scratch answer, after
    /// every step, at workers 1, 2, and 4.
    #[test]
    fn incremental_answers_agree_with_batch_at_every_worker_count(
        traffic in collection::vec(stream_strategy(), 1..4)
    ) {
        let config = LintConfig::new();
        let expected: Vec<Vec<CaseAnswers>> = traffic
            .iter()
            .map(|ops| batch_transcript(&seed_case(), ops, &config))
            .collect();
        for workers in [1usize, 2, 4] {
            let mut service = CaseService::new();
            for _ in 0..traffic.len() {
                service.open(seed_case());
            }
            let transcript = service.drive(&traffic, &Runtime::with_workers(workers));
            prop_assert_eq!(&transcript, &expected, "workers = {}", workers);
        }
    }
}
