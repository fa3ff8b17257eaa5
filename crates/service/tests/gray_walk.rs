//! Exhaustive small-scope checking of the service: every combination of
//! ten edits to one small formal case, visited as a Gray-code walk.
//!
//! Each toggle is one binary choice about the case — a payload swapped
//! between two formulas, a formal leaf present or absent, or a text
//! swapped between two statements. In reflected binary Gray order
//! (Bernini et al., arXiv math/0703262) neighbouring variants differ in
//! exactly one toggle, so the walk over all 2^10 variants is 1,023
//! single [`CaseService::apply`] edits, and after each one the
//! incremental answers must equal [`batch_answers`]. A payload swapped
//! back gets the literal it had, but the compaction policy counts every
//! swap as stranded definitions, so the swaps force whole-theory
//! rebuilds and the walk also checks that the compiled state, the
//! definition table and the witness pool stay in step across them.

use casekit_analysis::{LintCode, LintConfig};
use casekit_core::dsl::parse_argument;
use casekit_core::{Argument, FormalPayload, Node, NodeKind};
use casekit_logic::prop::parse;
use casekit_runtime::{Runtime, MIN_CHUNK};
use casekit_service::{batch_answers, CaseAnswers, CaseOp, CaseService, EditOp};
use std::collections::BTreeSet;

/// The base case: every toggle in its first state. The strategy's text
/// cites a sample, so a universal claim on `g0` draws the CK120 cue.
fn base_case() -> Argument {
    parse_argument(
        r#"argument "walk" {
            goal g0 "top claim" formal "q" {
              strategy s0 "argue over a sample of records" {
                goal pr0 "premise 0" formal "p" { solution ev0 "record 0" }
                goal pr1 "premise 1" formal "p -> q" { solution ev1 "record 1" }
                goal pr2 "premise 2" formal "r" { solution ev2 "record 2" }
                goal pr3 "premise 3" formal "r -> s" { solution ev3 "record 3" }
              }
            }
        }"#,
    )
    .unwrap()
}

/// One binary choice about the case.
enum Toggle {
    /// `node`'s payload is `formulas[0]` (off) or `formulas[1]` (on).
    Payload(&'static str, [&'static str; 2]),
    /// A formal leaf under `s0`, absent (off) or present (on).
    Leaf(&'static str, &'static str),
    /// `node`'s text is `texts[0]` (off) or `texts[1]` (on).
    Text(&'static str, [&'static str; 2]),
}

/// The ten toggles, most frequently flipped first: toggle `t` flips
/// 2^(9 - t) times in the full walk.
static TOGGLES: [Toggle; 10] = [
    // Flips root entailment (unless a leaf below supplies `q`).
    Toggle::Payload("pr1", ["p -> q", "p -> t"]),
    // A universal claim over sampled support: CK120.
    Toggle::Text("g0", ["top claim", "All records are complete"]),
    Toggle::Payload("pr0", ["p", "~p"]),
    // Restores `q` when `pr1` reads `p -> t`.
    Toggle::Leaf("x2", "t -> q"),
    // Duplicates `ev0`'s text: CK005.
    Toggle::Text("ev1", ["record 1", "record 0"]),
    Toggle::Payload("pr3", ["r -> s", "~s"]),
    // Restates the conclusion.
    Toggle::Leaf("x0", "q"),
    Toggle::Payload("pr2", ["r", "r | t"]),
    // Contradicts `pr2`.
    Toggle::Leaf("x1", "~r"),
    Toggle::Payload("g0", ["q", "q & s"]),
];

/// The edit that moves `toggle` into state `on`.
fn edit(toggle: &Toggle, on: bool) -> EditOp {
    match *toggle {
        Toggle::Payload(node, formulas) => EditOp::ReplaceFormula {
            node: node.into(),
            formula: parse(formulas[usize::from(on)]).unwrap(),
        },
        Toggle::Leaf(id, formula) if on => EditOp::AddSupport {
            parent: "s0".into(),
            node: Node::new(id, NodeKind::Goal, "extra premise")
                .with_formal(FormalPayload::Prop(parse(formula).unwrap())),
        },
        Toggle::Leaf(id, _) => EditOp::RemoveNode { node: id.into() },
        Toggle::Text(node, texts) => EditOp::SetText {
            node: node.into(),
            text: texts[usize::from(on)].into(),
        },
    }
}

/// The reflected binary Gray walk over `toggles`, from all-off: step
/// `j` flips toggle `j.trailing_zeros()`, so the 2^k - 1 edits visit
/// every variant once.
fn gray_walk(toggles: &[&Toggle]) -> Vec<EditOp> {
    let mut on = vec![false; toggles.len()];
    (1..1u32 << toggles.len())
        .map(|j| {
            let t = j.trailing_zeros() as usize;
            on[t] = !on[t];
            edit(toggles[t], on[t])
        })
        .collect()
}

#[test]
fn every_variant_of_ten_toggles_answers_like_batch() {
    let config = LintConfig::new();
    let mut service = CaseService::new();
    let case = service.open(base_case());
    let mut codes: BTreeSet<LintCode> = BTreeSet::new();
    let mut entailment: BTreeSet<bool> = BTreeSet::new();
    let mut check = |service: &mut CaseService, step: usize| {
        let answers = service.answers(case).unwrap();
        let fresh = batch_answers(service.session(case).unwrap().argument(), &config);
        assert_eq!(answers, fresh, "step {step}");
        codes.extend(answers.lint.iter().map(|d| d.code));
        entailment.extend(answers.probe.map(|probe| probe.entailed));
    };
    check(&mut service, 0);
    let toggles: Vec<&Toggle> = TOGGLES.iter().collect();
    let walk = gray_walk(&toggles);
    assert_eq!(walk.len(), 1023);
    for (j, op) in walk.iter().enumerate() {
        service
            .apply(case, op)
            .unwrap_or_else(|e| panic!("step {}: {e}", j + 1));
        check(&mut service, j + 1);
    }
    let stats = service.session(case).unwrap().stats();
    assert!(stats.full_rebuilds >= 1, "no rebuild crossed: {stats:?}");
    // The questions the walk asks, pinned: a change that asks more, or
    // answers fewer from the pool, moves these counts.
    assert_eq!(
        (
            stats.edits,
            stats.queries,
            stats.recompiles,
            stats.full_rebuilds
        ),
        (1023, 1024, 736, 2),
        "{stats:?}"
    );
    assert_eq!(
        (
            stats.steps_checked,
            stats.steps_reused,
            stats.cached_answers,
            stats.solver_calls
        ),
        (18, 1006, 0, 202),
        "{stats:?}"
    );
    assert_eq!(entailment.len(), 2, "root entailment never flipped");
    for code in [LintCode::QuantifierMismatch, LintCode::DuplicateEvidence] {
        assert!(codes.contains(&code), "{code:?} never raised: {codes:?}");
    }
}

#[test]
fn six_toggle_walks_drive_identically_at_one_and_four_workers() {
    // Case `i` walks six consecutive toggles starting at `i % 10`, so
    // the streams differ; 2 × MIN_CHUNK cases make `drive` fan out.
    let traffic: Vec<Vec<CaseOp>> = (0..2 * MIN_CHUNK)
        .map(|i| {
            let toggles: Vec<&Toggle> = (0..6).map(|t| &TOGGLES[(i + t) % 10]).collect();
            let mut ops = vec![CaseOp::Query];
            for op in gray_walk(&toggles) {
                ops.push(CaseOp::Edit(op));
                ops.push(CaseOp::Query);
            }
            ops
        })
        .collect();
    let transcript = |workers: usize| -> Vec<Vec<CaseAnswers>> {
        let mut service = CaseService::new();
        for _ in 0..traffic.len() {
            service.open(base_case());
        }
        service.drive(&traffic, &Runtime::with_workers(workers))
    };
    let serial = transcript(1);
    assert!(serial.iter().all(|answers| answers.len() == 64));
    assert_eq!(serial, transcript(4));
}
