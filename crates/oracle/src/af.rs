//! The seed's exponential extension enumerator, preserved as the
//! differential-testing oracle and the measured baseline for the SAT
//! path (`casekit_logic::af::encode`).
//!
//! Every function here walks all `2^n` argument subsets, so everything
//! is capped at [`ENUMERATION_LIMIT`] arguments and returns
//! [`LogicError::TooManyAtoms`] beyond it. The public
//! [`Framework`] API has no such ceiling — it routes
//! through the solver — but on tiny frameworks the enumerator is an
//! independent implementation of the same semantics, which is exactly
//! what the cross-checking proptests and `repro af` need.

use casekit_logic::af::{ArgId, Framework};
use casekit_logic::LogicError;
use std::collections::BTreeSet;

/// Largest argument count the subset enumerator accepts.
pub const ENUMERATION_LIMIT: usize = 16;

/// `Ok(n)` when the framework is small enough to enumerate.
fn enumerable(af: &Framework) -> Result<usize, LogicError> {
    let n = af.len();
    if n <= ENUMERATION_LIMIT {
        Ok(n)
    } else {
        Err(LogicError::TooManyAtoms {
            atoms: n,
            limit: ENUMERATION_LIMIT,
        })
    }
}

/// All subsets of `0..n` satisfying `keep`, in mask order.
fn enumerate_subsets(
    n: usize,
    mut keep: impl FnMut(&BTreeSet<ArgId>) -> bool,
) -> Vec<BTreeSet<ArgId>> {
    let mut out = Vec::new();
    for mask in 0..(1u32 << n) {
        let set: BTreeSet<ArgId> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
        if keep(&set) {
            out.push(set);
        }
    }
    out
}

/// All complete extensions (conflict-free fixpoints of the
/// characteristic function), by subset enumeration.
pub fn complete_extensions(af: &Framework) -> Result<Vec<BTreeSet<ArgId>>, LogicError> {
    let n = enumerable(af)?;
    Ok(enumerate_subsets(n, |set| {
        if !af.conflict_free(set) {
            return false;
        }
        // Complete: contains exactly the arguments it defends.
        let defended: BTreeSet<ArgId> = (0..n).filter(|&id| af.defends(set, id)).collect();
        defended == *set
    }))
}

/// The preferred extensions: maximal (by inclusion) complete extensions.
pub fn preferred_extensions(af: &Framework) -> Result<Vec<BTreeSet<ArgId>>, LogicError> {
    Ok(preferred_from(&complete_extensions(af)?))
}

/// The ⊆-maximal members of a precomputed complete-extension set — the
/// maximality filter shared by [`preferred_extensions`] and callers
/// that already paid for the complete enumeration (the benchmark
/// baseline).
pub fn preferred_from(complete: &[BTreeSet<ArgId>]) -> Vec<BTreeSet<ArgId>> {
    complete
        .iter()
        .filter(|s| {
            !complete
                .iter()
                .any(|other| *s != other && s.is_subset(other))
        })
        .cloned()
        .collect()
}

/// The stable extensions: conflict-free sets attacking every argument
/// outside them, by subset enumeration.
pub fn stable_extensions(af: &Framework) -> Result<Vec<BTreeSet<ArgId>>, LogicError> {
    let n = enumerable(af)?;
    Ok(enumerate_subsets(n, |set| {
        af.conflict_free(set)
            && (0..n)
                .filter(|id| !set.contains(id))
                .all(|id| af.attackers(id).iter().any(|a| set.contains(a)))
    }))
}

/// Whether `id` belongs to some complete extension — credulous
/// acceptance by enumeration.
pub fn credulously_accepted(af: &Framework, id: ArgId) -> Result<bool, LogicError> {
    Ok(complete_extensions(af)?.iter().any(|e| e.contains(&id)))
}

/// The seed's grounded fixpoint: re-runs [`Framework::defends`] (a full
/// attack-relation scan per attacker) over every argument in every
/// pass — `O(n · |attacks| · passes)`. Kept as the measured baseline
/// for the CSR worklist behind [`Framework::grounded_extension`];
/// unlike the extension enumerators it is merely slow, not exponential,
/// so it takes no size cap.
pub fn grounded_extension(af: &Framework) -> BTreeSet<ArgId> {
    let mut current: BTreeSet<ArgId> = BTreeSet::new();
    loop {
        let next: BTreeSet<ArgId> = (0..af.len())
            .filter(|&id| af.defends(&current, id))
            .collect();
        if next == current {
            return current;
        }
        current = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_logic::af::encode::AfSat;

    fn set(ids: &[ArgId]) -> BTreeSet<ArgId> {
        ids.iter().copied().collect()
    }

    fn classic() -> Framework {
        // a <-> b, both attack c.
        let mut af = Framework::new();
        let a = af.add_argument("a");
        let b = af.add_argument("b");
        let c = af.add_argument("c");
        af.add_attack(a, b).unwrap();
        af.add_attack(b, a).unwrap();
        af.add_attack(a, c).unwrap();
        af.add_attack(b, c).unwrap();
        af
    }

    #[test]
    fn classic_example_extensions() {
        let af = classic();
        let complete = complete_extensions(&af).unwrap();
        assert_eq!(complete.len(), 3);
        assert!(complete.contains(&BTreeSet::new()));
        let preferred = preferred_extensions(&af).unwrap();
        assert_eq!(preferred, vec![set(&[0]), set(&[1])]);
        let stable = stable_extensions(&af).unwrap();
        assert_eq!(stable, preferred);
        assert!(credulously_accepted(&af, 0).unwrap());
        assert!(!credulously_accepted(&af, 2).unwrap());
        assert_eq!(grounded_extension(&af), BTreeSet::new());
    }

    #[test]
    fn cap_is_a_typed_error() {
        let mut af = Framework::new();
        for i in 0..=ENUMERATION_LIMIT {
            af.add_argument(format!("a{i}"));
        }
        assert!(matches!(
            complete_extensions(&af),
            Err(LogicError::TooManyAtoms {
                atoms: 17,
                limit: 16
            })
        ));
        assert!(preferred_extensions(&af).is_err());
        assert!(stable_extensions(&af).is_err());
        assert!(credulously_accepted(&af, 0).is_err());
        // The grounded fixpoint has no cap — it is quadratic, not
        // exponential.
        assert_eq!(grounded_extension(&af).len(), 17);
    }

    #[test]
    fn odd_cycle_has_no_stable_extension() {
        let mut af = Framework::new();
        for i in 0..3 {
            af.add_argument(format!("a{i}"));
        }
        for i in 0..3 {
            af.add_attack(i, (i + 1) % 3).unwrap();
        }
        assert!(stable_extensions(&af).unwrap().is_empty());
        assert_eq!(preferred_extensions(&af).unwrap(), vec![BTreeSet::new()]);
    }

    fn framework(n: usize, attacks: &[(ArgId, ArgId)]) -> Framework {
        let mut af = Framework::new();
        for i in 0..n {
            af.add_argument(format!("a{i}"));
        }
        for &(a, t) in attacks {
            af.add_attack(a, t).unwrap();
        }
        af
    }

    fn as_set(extensions: Vec<BTreeSet<ArgId>>) -> BTreeSet<BTreeSet<ArgId>> {
        extensions.into_iter().collect()
    }

    #[test]
    fn agrees_with_the_enumerator_on_hand_picked_shapes() {
        let shapes: Vec<(usize, Vec<(ArgId, ArgId)>)> = vec![
            (1, vec![]),
            (1, vec![(0, 0)]),
            (2, vec![(0, 1), (1, 0)]),
            (3, vec![(0, 1), (1, 0), (0, 2), (1, 2)]),
            (3, vec![(0, 1), (1, 2), (2, 0)]),
            (4, vec![(0, 1), (1, 0), (2, 3), (3, 2)]),
            (5, vec![(1, 0), (2, 1), (3, 2), (4, 3), (0, 4)]),
            (
                6,
                vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)],
            ),
        ];
        for (n, attacks) in shapes {
            let af = framework(n, &attacks);
            let mut sat = AfSat::complete(&af);
            assert_eq!(
                as_set(sat.extensions(None)),
                as_set(complete_extensions(&af).unwrap()),
                "complete disagrees on {attacks:?}"
            );
            assert_eq!(
                as_set(sat.preferred()),
                as_set(preferred_extensions(&af).unwrap()),
                "preferred disagrees on {attacks:?}"
            );
            assert_eq!(
                as_set(AfSat::stable(&af).extensions(None)),
                as_set(stable_extensions(&af).unwrap()),
                "stable disagrees on {attacks:?}"
            );
            for id in 0..n {
                assert_eq!(
                    sat.credulous(id),
                    credulously_accepted(&af, id).unwrap(),
                    "credulous disagrees on {attacks:?} id {id}"
                );
            }
        }
    }

    #[test]
    fn grounded_matches_naive_fixpoint_on_assorted_shapes() {
        let shapes: Vec<Vec<(ArgId, ArgId)>> = vec![
            vec![],
            vec![(0, 0)],
            vec![(0, 1), (1, 0)],
            vec![(1, 0), (2, 1), (3, 2), (4, 3)],
            vec![(0, 1), (1, 2), (2, 0)],
            vec![(1, 0), (2, 0), (3, 1), (3, 2), (4, 4)],
        ];
        for attacks in shapes {
            let n = attacks
                .iter()
                .flat_map(|&(a, t)| [a, t])
                .max()
                .map_or(1, |m| m + 1);
            let af = framework(n, &attacks);
            assert_eq!(
                af.grounded_extension(),
                grounded_extension(&af),
                "grounded engines disagree on {af:?}"
            );
        }
    }
}
