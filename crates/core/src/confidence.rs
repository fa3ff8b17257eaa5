//! Quantitative confidence propagation over arguments.
//!
//! Graydon §V-B mentions that "argument confidence is assessed mechanically
//! (e.g., through BBN modelling)" in some proposals (his ref \[34\] surveys
//! the mechanisms and finds none adequate in all cases). This module
//! implements two of the simplest, clearly-labelled models so that the
//! evidence-sufficiency experiment (§VI-E) can compare judgment procedures:
//!
//! * **Noisy-AND**: a node's confidence is the product of its children's,
//!   discounted by a per-step inference weight — the usual independence
//!   assumption.
//! * **Weakest link**: a node's confidence is the minimum of its
//!   children's, discounted likewise.
//!
//! Neither model is endorsed; both inherit the paper's caveat that the
//! numbers are only as good as the leaf assessments and independence
//! assumptions, which are informal judgments.

use crate::argument::{Argument, NodeIdx};
use crate::node::{EdgeKind, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// Why a confidence computation was rejected.
///
/// These are the module's former panic conditions, kept as the documented
/// contract but surfaced as `Err` values: callers feeding user-supplied
/// graphs or assessments get a diagnosis, not an abort.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfidenceError {
    /// The support graph contains a cycle, so propagation has no
    /// well-defined order.
    CyclicArgument,
    /// A supplied leaf confidence was outside [0, 1] (or NaN).
    ConfidenceOutOfRange {
        /// The leaf whose confidence was rejected.
        node: NodeId,
        /// The offending value.
        value: f64,
    },
    /// The default leaf confidence was outside [0, 1] (or NaN).
    DefaultOutOfRange {
        /// The offending value.
        value: f64,
    },
    /// The per-step inference weight was outside [0, 1] (or NaN).
    StepWeightOutOfRange {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ConfidenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfidenceError::CyclicArgument => {
                write!(
                    f,
                    "confidence propagation requires an acyclic support graph"
                )
            }
            ConfidenceError::ConfidenceOutOfRange { node, value } => {
                write!(f, "confidence for `{node}` must be in [0, 1], got {value}")
            }
            ConfidenceError::DefaultOutOfRange { value } => {
                write!(f, "default leaf confidence must be in [0, 1], got {value}")
            }
            ConfidenceError::StepWeightOutOfRange { value } => {
                write!(f, "step weight must be in [0, 1], got {value}")
            }
        }
    }
}

impl std::error::Error for ConfidenceError {}

/// Aggregation rule for child confidences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Product of child confidences (independence assumption).
    NoisyAnd,
    /// Minimum of child confidences.
    WeakestLink,
}

/// A confidence assessment over an argument.
#[derive(Debug, Clone)]
pub struct Assessment {
    /// Per-node confidence in [0, 1].
    values: BTreeMap<NodeId, f64>,
}

impl Assessment {
    /// The confidence assigned to `id`, if computed.
    pub fn confidence(&self, id: &NodeId) -> Option<f64> {
        self.values.get(id).copied()
    }

    /// All node confidences in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, f64)> {
        self.values.iter().map(|(k, v)| (k, *v))
    }
}

/// Propagates leaf confidences up the support graph.
///
/// * `leaf_confidence` supplies a value in [0, 1] for each support leaf
///   (nodes without `SupportedBy` children); missing leaves default to
///   `default_leaf`.
/// * `step_weight` multiplies each inference step (1.0 = lossless
///   deduction; lower models inductive discount).
///
/// # Errors
///
/// [`ConfidenceError::CyclicArgument`] if the support graph is cyclic,
/// [`ConfidenceError::ConfidenceOutOfRange`] /
/// [`ConfidenceError::DefaultOutOfRange`] /
/// [`ConfidenceError::StepWeightOutOfRange`] if a supplied confidence,
/// the default, or `step_weight` is outside [0, 1].
pub fn propagate(
    argument: &Argument,
    leaf_confidence: &BTreeMap<NodeId, f64>,
    default_leaf: f64,
    step_weight: f64,
    aggregation: Aggregation,
) -> Result<Assessment, ConfidenceError> {
    validate(argument, leaf_confidence, default_leaf, step_weight)?;
    // The support graph is acyclic, so every support component is one
    // node and the descending walk reaches each child before its
    // parents. Values are indexed by arena position, then keyed by id.
    let components = argument.support_components();
    let mut memo = vec![0.0; argument.len()];
    for c in (0..components.rows()).rev() {
        let idx = NodeIdx::new(components.row(c)[0]);
        let mut children = argument
            .children_idx(idx, EdgeKind::SupportedBy)
            .map(|child| memo[child.index()])
            .peekable();
        memo[idx.index()] = if children.peek().is_none() {
            leaf_confidence
                .get(argument.id_at(idx))
                .copied()
                .unwrap_or(default_leaf)
        } else {
            let combined = match aggregation {
                Aggregation::NoisyAnd => children.product::<f64>(),
                Aggregation::WeakestLink => children.fold(f64::INFINITY, f64::min),
            };
            combined * step_weight
        };
    }
    let values = argument
        .node_indices()
        .map(|idx| (argument.id_at(idx).clone(), memo[idx.index()]))
        .collect();
    Ok(Assessment { values })
}

/// The shared precondition checks of [`propagate`] and [`leaf_impact`]:
/// acyclic graph, every confidence and weight in [0, 1] (NaN fails the
/// range test). Both entry points validate *before* any early return so
/// that degenerate graphs (e.g. rootless) cannot mask bad parameters.
fn validate(
    argument: &Argument,
    leaf_confidence: &BTreeMap<NodeId, f64>,
    default_leaf: f64,
    step_weight: f64,
) -> Result<(), ConfidenceError> {
    if !argument.is_acyclic() {
        return Err(ConfidenceError::CyclicArgument);
    }
    if !(0.0..=1.0).contains(&step_weight) {
        return Err(ConfidenceError::StepWeightOutOfRange { value: step_weight });
    }
    if !(0.0..=1.0).contains(&default_leaf) {
        return Err(ConfidenceError::DefaultOutOfRange {
            value: default_leaf,
        });
    }
    for (id, v) in leaf_confidence {
        if !(0.0..=1.0).contains(v) {
            return Err(ConfidenceError::ConfidenceOutOfRange {
                node: id.clone(),
                value: *v,
            });
        }
    }
    Ok(())
}

/// The *impact* of a leaf on the root: root confidence with the leaf at
/// its assessed value minus root confidence with the leaf forced to zero.
///
/// This is the graph-tracing evidence-sufficiency judgment GSN is said to
/// ease (Graydon §VI-E), computed mechanically for comparison against
/// probing (see [`crate::semantics::probe_argument`]).
///
/// Returns `Ok(None)` if the argument has no root.
///
/// # Errors
///
/// The same [`ConfidenceError`] conditions as [`propagate`].
pub fn leaf_impact(
    argument: &Argument,
    leaf_confidence: &BTreeMap<NodeId, f64>,
    default_leaf: f64,
    step_weight: f64,
    aggregation: Aggregation,
    leaf: &NodeId,
) -> Result<Option<f64>, ConfidenceError> {
    // Validate everything before looking for a root: a cyclic argument
    // has no root at all, and a rootless one must not turn bad
    // parameters into a quiet `Ok(None)`.
    validate(argument, leaf_confidence, default_leaf, step_weight)?;
    let Some(root) = argument
        .sorted_roots_idx()
        .next()
        .map(|idx| argument.id_at(idx).clone())
    else {
        return Ok(None);
    };
    let baseline = propagate(
        argument,
        leaf_confidence,
        default_leaf,
        step_weight,
        aggregation,
    )?
    .confidence(&root);
    let Some(baseline) = baseline else {
        return Ok(None);
    };
    let mut zeroed = leaf_confidence.clone();
    zeroed.insert(leaf.clone(), 0.0);
    let without =
        propagate(argument, &zeroed, default_leaf, step_weight, aggregation)?.confidence(&root);
    Ok(without.map(|w| baseline - w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_argument;

    fn sample() -> Argument {
        parse_argument(
            r#"argument "conf" {
                goal g1 "Top" {
                  strategy s1 "split" {
                    goal g2 "A" { solution e1 "ev1" }
                    goal g3 "B" { solution e2 "ev2" }
                  }
                }
            }"#,
        )
        .unwrap()
    }

    fn leaves(pairs: &[(&str, f64)]) -> BTreeMap<NodeId, f64> {
        pairs.iter().map(|(id, v)| (NodeId::new(id), *v)).collect()
    }

    #[test]
    fn noisy_and_multiplies_up_the_tree() {
        let a = sample();
        let lc = leaves(&[("e1", 0.9), ("e2", 0.8)]);
        let assess = propagate(&a, &lc, 1.0, 1.0, Aggregation::NoisyAnd).unwrap();
        assert_eq!(assess.confidence(&"e1".into()), Some(0.9));
        assert!((assess.confidence(&"g2".into()).unwrap() - 0.9).abs() < 1e-12);
        // s1 = 0.9 * 0.8; g1 = s1.
        let g1 = assess.confidence(&"g1".into()).unwrap();
        assert!((g1 - 0.72).abs() < 1e-12);
    }

    #[test]
    fn weakest_link_takes_minimum() {
        let a = sample();
        let lc = leaves(&[("e1", 0.9), ("e2", 0.5)]);
        let assess = propagate(&a, &lc, 1.0, 1.0, Aggregation::WeakestLink).unwrap();
        assert!((assess.confidence(&"g1".into()).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn step_weight_discounts_each_level() {
        let a = sample();
        let lc = leaves(&[("e1", 1.0), ("e2", 1.0)]);
        let assess = propagate(&a, &lc, 1.0, 0.9, Aggregation::NoisyAnd).unwrap();
        // Four inference levels: g2/g3 (0.9), s1 (0.9 * 0.81=0.9*0.9*0.9),
        // g1 adds another 0.9.
        let g1 = assess.confidence(&"g1".into()).unwrap();
        let expected = 0.9 * (0.9 * (0.9 * 1.0) * (0.9 * 1.0));
        assert!((g1 - expected).abs() < 1e-12, "got {g1}, want {expected}");
    }

    #[test]
    fn missing_leaves_use_default() {
        let a = sample();
        let assess = propagate(&a, &BTreeMap::new(), 0.5, 1.0, Aggregation::NoisyAnd).unwrap();
        assert_eq!(assess.confidence(&"e1".into()), Some(0.5));
        assert!((assess.confidence(&"g1".into()).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn leaf_impact_reflects_criticality() {
        let a = sample();
        let lc = leaves(&[("e1", 0.9), ("e2", 0.8)]);
        let impact_e1 = leaf_impact(&a, &lc, 1.0, 1.0, Aggregation::NoisyAnd, &"e1".into())
            .unwrap()
            .unwrap();
        // Zeroing e1 zeroes the root (product): impact = 0.72.
        assert!((impact_e1 - 0.72).abs() < 1e-12);
    }

    #[test]
    fn iter_covers_all_nodes() {
        let a = sample();
        let assess = propagate(&a, &BTreeMap::new(), 1.0, 1.0, Aggregation::NoisyAnd).unwrap();
        assert_eq!(assess.iter().count(), a.len());
    }

    #[test]
    fn cyclic_argument_is_an_error() {
        use crate::node::NodeKind;
        let a = Argument::builder("cyc")
            .add("g1", NodeKind::Goal, "A")
            .add("g2", NodeKind::Goal, "B")
            .supported_by("g1", "g2")
            .supported_by("g2", "g1")
            .build()
            .unwrap();
        let err = propagate(&a, &BTreeMap::new(), 1.0, 1.0, Aggregation::NoisyAnd).unwrap_err();
        assert_eq!(err, ConfidenceError::CyclicArgument);
        assert!(err.to_string().contains("acyclic"));
        // leaf_impact surfaces the same diagnosis instead of panicking.
        let impact = leaf_impact(
            &a,
            &BTreeMap::new(),
            1.0,
            1.0,
            Aggregation::NoisyAnd,
            &"g2".into(),
        );
        assert_eq!(impact, Err(ConfidenceError::CyclicArgument));
    }

    #[test]
    fn out_of_range_confidence_is_an_error() {
        let a = sample();
        let lc = leaves(&[("e1", 1.5)]);
        let err = propagate(&a, &lc, 1.0, 1.0, Aggregation::NoisyAnd).unwrap_err();
        assert_eq!(
            err,
            ConfidenceError::ConfidenceOutOfRange {
                node: NodeId::new("e1"),
                value: 1.5
            }
        );
        assert!(err.to_string().contains("must be in [0, 1]"));
        // NaN is rejected by the same range check.
        let nan = leaves(&[("e1", f64::NAN)]);
        assert!(matches!(
            propagate(&a, &nan, 1.0, 1.0, Aggregation::NoisyAnd),
            Err(ConfidenceError::ConfidenceOutOfRange { .. })
        ));
    }

    #[test]
    fn out_of_range_step_weight_is_an_error() {
        let a = sample();
        let err = propagate(&a, &BTreeMap::new(), 1.0, 1.2, Aggregation::NoisyAnd).unwrap_err();
        assert_eq!(err, ConfidenceError::StepWeightOutOfRange { value: 1.2 });
        assert!(err.to_string().contains("step weight"));
        assert_eq!(
            propagate(&a, &BTreeMap::new(), -0.1, 1.0, Aggregation::NoisyAnd).unwrap_err(),
            ConfidenceError::DefaultOutOfRange { value: -0.1 }
        );
    }

    #[test]
    fn rootless_argument_does_not_mask_bad_parameters() {
        // An empty argument has no root; leaf_impact must still reject
        // out-of-range parameters instead of answering Ok(None).
        let empty = Argument::builder("empty").build().unwrap();
        assert_eq!(
            leaf_impact(
                &empty,
                &BTreeMap::new(),
                1.0,
                2.0,
                Aggregation::NoisyAnd,
                &"e1".into()
            ),
            Err(ConfidenceError::StepWeightOutOfRange { value: 2.0 })
        );
        let bad_leaf = leaves(&[("e1", f64::NAN)]);
        assert!(matches!(
            leaf_impact(
                &empty,
                &bad_leaf,
                1.0,
                1.0,
                Aggregation::NoisyAnd,
                &"e1".into()
            ),
            Err(ConfidenceError::ConfidenceOutOfRange { .. })
        ));
        // With valid parameters the rootless contract stands.
        assert_eq!(
            leaf_impact(
                &empty,
                &BTreeMap::new(),
                1.0,
                1.0,
                Aggregation::NoisyAnd,
                &"e1".into()
            ),
            Ok(None)
        );
    }

    #[test]
    fn deep_support_chain_fits_a_worker_stack() {
        // 100k nodes on the 2 MiB stack runtime workers get: no support
        // walk may recurse per node.
        const N: usize = 100_000;
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                use crate::node::NodeKind;
                let mut builder = Argument::builder("chain");
                for i in 0..N {
                    builder = builder.add(&format!("g{i}"), NodeKind::Goal, "step");
                }
                for i in 1..N {
                    builder = builder.supported_by(&format!("g{}", i - 1), &format!("g{i}"));
                }
                let a = builder.build().unwrap();
                let root = NodeId::new("g0");
                let leaf = NodeId::new(format!("g{}", N - 1));
                assert!(a.is_acyclic());
                assert_eq!(a.support_depth(&root), Some(N));
                let assess = propagate(&a, &BTreeMap::new(), 0.5, 1.0, Aggregation::NoisyAnd);
                assert_eq!(assess.unwrap().confidence(&root), Some(0.5));
                let impact =
                    leaf_impact(&a, &BTreeMap::new(), 0.5, 1.0, Aggregation::NoisyAnd, &leaf);
                assert_eq!(impact, Ok(Some(0.5)));
            })
            .expect("spawn test thread")
            .join()
            .expect("deep chain walks finish");
    }

    #[test]
    fn context_nodes_do_not_enter_support_math() {
        let a = parse_argument(
            r#"argument "ctx" {
                goal g1 "Top" {
                  context c1 "scope"
                  solution e1 "ev"
                }
            }"#,
        )
        .unwrap();
        let lc = leaves(&[("e1", 0.8)]);
        let assess = propagate(&a, &lc, 0.1, 1.0, Aggregation::NoisyAnd).unwrap();
        // c1 is a leaf of the *support* graph but not a support child of
        // g1, so g1 = 0.8 regardless of c1's default.
        assert!((assess.confidence(&"g1".into()).unwrap() - 0.8).abs() < 1e-12);
    }
}
