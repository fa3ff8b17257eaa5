//! Abstract argumentation frameworks with non-monotonic semantics, after
//! Tolchinsky et al.'s deliberation dialogues (Graydon §III-O).
//!
//! Their on-line decision aid stores claims as symbolic predicates and
//! uses dialogue games over a non-monotonic logic to decide whether a
//! proposed safety-critical action (e.g. transplanting a given organ) is
//! acceptable. The substrate for such systems is Dung's abstract
//! argumentation: arguments and an *attacks* relation, with acceptability
//! computed as a fixed point rather than by classical entailment — adding
//! an argument can *retract* previously-accepted conclusions, which
//! classical deduction cannot model.
//!
//! # Architecture: the SAT path
//!
//! Deciding complete/stable/preferred semantics is NP-hard in general,
//! and the seed implementation enumerated all `2^n` subsets behind an
//! `assert!(n <= 16)`. This module now mirrors the workspace's two-plane
//! discipline instead:
//!
//! * **Name plane** — [`Framework`] stores labels and the attack
//!   relation; [`Deliberation`] runs the dialogue game on top.
//! * **Index plane** — [`Framework::adjacency`] builds the attacker and
//!   target rows once, as two [`crate::graph::Csr`] tables from the
//!   same kernel that lays out `casekit-core`'s argument graph. They
//!   power an O(V+E) [grounded
//!   fixpoint](Framework::grounded_extension); [`encode::AfSat`]
//!   compiles the framework into packed-literal clauses for the CDCL
//!   [`Solver`](crate::prop::Solver) — the in/out/undec *labelling*
//!   encoding — and answers every extension and acceptance question as
//!   an incremental SAT session.
//!
//! Extensions are enumerated with *blocking clauses* guarded by
//! per-enumeration selector literals, so one persistent solver session
//! serves extension listing, the preferred-semantics maximality loop,
//! and credulous/sceptical acceptance queries — and everything the
//! solver learns answering one question speeds up the next. The seed's
//! exponential enumerator is the differential oracle
//! `casekit_oracle::af` (capped at 16 arguments), outside the product
//! API; the public [`Framework`] API has no argument-count ceiling.
//!
//! # Scale: the SCC-decomposed path
//!
//! Above [`scc::DECOMPOSITION_THRESHOLD`] arguments the semantics
//! methods route through [`scc::Decomposed`]: the attack graph is
//! condensed into strongly connected components by the shared
//! iterative Tarjan pass ([`crate::graph::scc`]), the condensation is
//! walked in topological order, singleton components are resolved by
//! direct label propagation with no SAT call, and only non-trivial
//! components are compiled, by [`encode::AfSat`]'s own encoder, into
//! small per-component SAT encodings with upstream labels baked in as
//! unit clauses. Independent non-trivial components at the same
//! topological depth are farmed across the `casekit-runtime` work farm;
//! singletons propagate inline. This is what carries
//! grounded/preferred/stable to 10^5-argument frameworks; the
//! monolithic encoding stays on below the threshold and doubles as the
//! differential cross-check.
//!
//! `repro af` measures the engines against each other and writes
//! `BENCH_af.json`; proptests in `tests/properties.rs` cross-check them
//! extension set for extension set.

pub mod encode;
pub mod scc;

use crate::error::LogicError;
use crate::graph::Csr;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Identifier of an argument within a framework.
pub type ArgId = usize;

/// The three-valued status of one argument in a labelling: accepted,
/// defeated, or undecided. Complete labellings biject with complete
/// extensions (the extension is the `In` set), so the engines pass
/// whole labellings around and project to sets at the API boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Label {
    /// Accepted: every attacker is `Out`.
    In,
    /// Defeated: some attacker is `In`.
    Out,
    /// Neither: the argument hangs in an unresolved cycle.
    Undec,
}

/// A Dung argumentation framework: abstract arguments plus attacks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Framework {
    labels: Vec<String>,
    attacks: BTreeSet<(ArgId, ArgId)>,
}

impl Framework {
    /// An empty framework.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an argument with a human-readable label; returns its id.
    pub fn add_argument(&mut self, label: impl Into<String>) -> ArgId {
        self.labels.push(label.into());
        self.labels.len() - 1
    }

    /// `Ok(())` when `id` names an allocated argument.
    fn check_id(&self, id: ArgId) -> Result<(), LogicError> {
        if id < self.labels.len() {
            Ok(())
        } else {
            Err(LogicError::UnknownArgument {
                id,
                arguments: self.labels.len(),
            })
        }
    }

    /// Records that `attacker` attacks `target`.
    ///
    /// Returns [`LogicError::UnknownArgument`] if either id is out of
    /// range.
    ///
    /// ```
    /// use casekit_logic::af::Framework;
    /// let mut af = Framework::new();
    /// let a = af.add_argument("a");
    /// assert!(af.add_attack(a, a + 9).is_err());
    /// assert!(af.add_attack(a, a).is_ok());
    /// ```
    pub fn add_attack(&mut self, attacker: ArgId, target: ArgId) -> Result<(), LogicError> {
        self.check_id(attacker)?;
        self.check_id(target)?;
        self.attacks.insert((attacker, target));
        Ok(())
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the framework is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of recorded attacks.
    pub fn attack_count(&self) -> usize {
        self.attacks.len()
    }

    /// The label of an argument, or [`LogicError::UnknownArgument`] if
    /// the id is out of range.
    pub fn label(&self, id: ArgId) -> Result<&str, LogicError> {
        self.check_id(id)?;
        Ok(&self.labels[id])
    }

    /// The attackers of `target`, by linear scan of the attack relation.
    ///
    /// One-shot convenience; whole-framework computations build a CSR
    /// [`Adjacency`] once instead of calling this per argument.
    pub fn attackers(&self, target: ArgId) -> Vec<ArgId> {
        self.attacks
            .iter()
            .filter(|(_, t)| *t == target)
            .map(|(a, _)| *a)
            .collect()
    }

    /// Builds the CSR attacker/attacked adjacency: both directions of
    /// the attack relation as [`Csr`] tables, indexable in O(1) per
    /// argument. Build once per computation, O(V+E).
    pub fn adjacency(&self) -> Adjacency {
        let n = self.labels.len();
        // The set iterates sorted by (attacker, target), and the CSR
        // builder keeps that order, so every row comes out ascending.
        Adjacency {
            attackers: Csr::from_pairs(n, self.attacks.iter().map(|&(a, t)| (t, a))),
            targets: Csr::from_pairs(n, self.attacks.iter().copied()),
        }
    }

    /// Whether `set` attacks `id`.
    fn set_attacks(&self, set: &BTreeSet<ArgId>, id: ArgId) -> bool {
        self.attackers(id).iter().any(|a| set.contains(a))
    }

    /// Whether `set` *defends* `id`: every attacker of `id` is attacked by
    /// `set`.
    pub fn defends(&self, set: &BTreeSet<ArgId>, id: ArgId) -> bool {
        self.attackers(id)
            .iter()
            .all(|&attacker| self.set_attacks(set, attacker))
    }

    /// Whether `set` is conflict-free.
    pub fn conflict_free(&self, set: &BTreeSet<ArgId>) -> bool {
        !self
            .attacks
            .iter()
            .any(|(a, t)| set.contains(a) && set.contains(t))
    }

    /// Whether `set` is *admissible*: conflict-free and self-defending.
    pub fn admissible(&self, set: &BTreeSet<ArgId>) -> bool {
        self.conflict_free(set) && set.iter().all(|&id| self.defends(set, id))
    }

    /// The grounded extension: the least fixed point of the characteristic
    /// function — the sceptical core every reasonable semantics accepts.
    ///
    /// Computed over the CSR [`Adjacency`] in O(V+E): unattacked
    /// arguments are accepted, everything they attack is defeated, and
    /// each defeat retires one attacker of the defeated argument's
    /// targets — an argument whose last live attacker retires is
    /// accepted in turn. (The seed's quadratic fixpoint is the
    /// differential oracle `casekit_oracle::af::grounded_extension`.)
    pub fn grounded_extension(&self) -> BTreeSet<ArgId> {
        self.adjacency().grounded()
    }

    /// All complete extensions (conflict-free fixpoints of the
    /// characteristic function), via the SAT labelling encoding — no
    /// argument-count ceiling. At or above
    /// [`scc::DECOMPOSITION_THRESHOLD`] arguments the query routes
    /// through the SCC-decomposed engine ([`scc::Decomposed`]); below
    /// it the monolithic encoding is used directly (and survives as
    /// the differential cross-check for the decomposed path).
    ///
    /// The number of extensions itself can be exponential in pathological
    /// frameworks; use [`encode::AfSat::extensions`] with a limit to
    /// enumerate incrementally.
    pub fn complete_extensions(&self) -> Vec<BTreeSet<ArgId>> {
        if self.len() >= scc::DECOMPOSITION_THRESHOLD {
            scc::Decomposed::new(self).complete_extensions()
        } else {
            encode::AfSat::complete(self).extensions(None)
        }
    }

    /// The stable extensions: conflict-free sets attacking every
    /// argument outside them (complete labellings with no undecided
    /// argument). May be empty — odd attack cycles admit no stable
    /// extension. Routes through [`scc::Decomposed`] at or above
    /// [`scc::DECOMPOSITION_THRESHOLD`] arguments.
    pub fn stable_extensions(&self) -> Vec<BTreeSet<ArgId>> {
        if self.len() >= scc::DECOMPOSITION_THRESHOLD {
            scc::Decomposed::new(self).stable_extensions()
        } else {
            encode::AfSat::stable(self).extensions(None)
        }
    }

    /// The preferred extensions: maximal (by inclusion) complete
    /// extensions, computed by the SAT maximality loop — iteratively
    /// forcing proper supersets until UNSAT — with subset-blocking
    /// clauses between extensions. Routes through [`scc::Decomposed`]
    /// at or above [`scc::DECOMPOSITION_THRESHOLD`] arguments.
    pub fn preferred_extensions(&self) -> Vec<BTreeSet<ArgId>> {
        if self.len() >= scc::DECOMPOSITION_THRESHOLD {
            scc::Decomposed::new(self).preferred_extensions()
        } else {
            encode::AfSat::complete(self).preferred()
        }
    }

    /// Whether `id` is credulously accepted: a member of at least one
    /// complete extension (equivalently, of at least one preferred
    /// extension).
    ///
    /// Convenience wrapper that compiles a fresh encoding per call;
    /// when probing many arguments of the same framework, build one
    /// [`encode::AfSat`] and reuse its session, so each answer is a
    /// single incremental probe and learned clauses carry over.
    pub fn credulously_accepted(&self, id: ArgId) -> Result<bool, LogicError> {
        self.check_id(id)?;
        if self.len() >= scc::DECOMPOSITION_THRESHOLD {
            Ok(scc::Decomposed::new(self).credulous(id))
        } else {
            Ok(encode::AfSat::complete(self).credulous(id))
        }
    }

    /// Whether `id` is sceptically accepted (in the grounded extension).
    pub fn sceptically_accepted(&self, id: ArgId) -> Result<bool, LogicError> {
        self.check_id(id)?;
        Ok(self.grounded_extension().contains(&id))
    }

    /// Whether `id` belongs to *every* preferred extension — sceptical
    /// acceptance under preferred semantics, a strictly weaker demand
    /// than grounded membership.
    ///
    /// Convenience wrapper that compiles a fresh encoding per call
    /// (see [`Framework::credulously_accepted`]); batch callers should
    /// hold an [`encode::AfSat`] session instead.
    pub fn sceptically_accepted_preferred(&self, id: ArgId) -> Result<bool, LogicError> {
        self.check_id(id)?;
        if self.len() >= scc::DECOMPOSITION_THRESHOLD {
            Ok(scc::Decomposed::new(self).sceptical_preferred(id))
        } else {
            Ok(encode::AfSat::complete(self).sceptical_preferred(id))
        }
    }
}

/// CSR adjacency over a [`Framework`]'s attack relation: attackers and
/// targets of every argument as contiguous slices, built once in O(V+E)
/// by [`Framework::adjacency`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    /// Row `t` lists the attackers of `t`.
    attackers: Csr<ArgId>,
    /// Row `a` lists the arguments `a` attacks.
    targets: Csr<ArgId>,
}

impl Adjacency {
    /// Number of arguments.
    pub fn num_args(&self) -> usize {
        self.attackers.rows()
    }

    /// The attackers of `target`, sorted ascending.
    pub fn attackers(&self, target: ArgId) -> &[ArgId] {
        self.attackers.row(target)
    }

    /// The arguments `attacker` attacks, sorted ascending.
    pub fn targets(&self, attacker: ArgId) -> &[ArgId] {
        self.targets.row(attacker)
    }

    /// The grounded labelling in O(V+E): a worklist of accepted
    /// arguments, defeat marking, and live-attacker counting. Arguments
    /// the fixpoint never reaches stay [`Label::Undec`].
    pub fn grounded_labels(&self) -> Vec<Label> {
        let n = self.num_args();
        let mut live_attackers: Vec<usize> = (0..n).map(|t| self.attackers(t).len()).collect();
        let mut labels = vec![Label::Undec; n];
        let mut work: Vec<ArgId> = (0..n).filter(|&a| live_attackers[a] == 0).collect();
        while let Some(accepted) = work.pop() {
            if labels[accepted] != Label::Undec {
                continue;
            }
            labels[accepted] = Label::In;
            for &defeated in self.targets(accepted) {
                // An accepted argument cannot be attacked by another
                // accepted one (its attackers are all OUT), so the
                // target is UNDEC or already OUT.
                if labels[defeated] != Label::Undec {
                    continue;
                }
                labels[defeated] = Label::Out;
                for &t in self.targets(defeated) {
                    live_attackers[t] -= 1;
                    if live_attackers[t] == 0 && labels[t] == Label::Undec {
                        work.push(t);
                    }
                }
            }
        }
        labels
    }

    /// The grounded extension: the `In` set of [`Adjacency::grounded_labels`].
    pub fn grounded(&self) -> BTreeSet<ArgId> {
        self.grounded_labels()
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == Label::In)
            .map(|(a, _)| a)
            .collect()
    }
}

/// The status of a deliberated action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The proposal is sceptically accepted: perform the action.
    Accepted,
    /// The proposal is attacked and undefended: do not perform it.
    Rejected,
}

/// A deliberation dialogue over one proposed safety-critical action,
/// mirroring Tolchinsky et al.'s usage: participants submit arguments for
/// or against, each possibly attacking earlier arguments, and the verdict
/// is recomputed non-monotonically after every move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deliberation {
    framework: Framework,
    proposal: ArgId,
    history: Vec<(ArgId, Verdict)>,
}

impl Deliberation {
    /// Opens a deliberation over `proposal` (e.g.
    /// `treat(r, penicillin)` — the paper's symbolic-claim example).
    pub fn open(proposal: impl Into<String>) -> Self {
        let mut framework = Framework::new();
        let proposal = framework.add_argument(proposal);
        let mut d = Deliberation {
            framework,
            proposal,
            history: Vec::new(),
        };
        d.history.push((proposal, d.verdict()));
        d
    }

    /// Submits an argument attacking an earlier one; returns its id.
    ///
    /// Returns [`LogicError::UnknownArgument`] if `target` is unknown;
    /// a rejected move leaves the dialogue untouched.
    ///
    /// ```
    /// use casekit_logic::af::Deliberation;
    /// let mut d = Deliberation::open("act");
    /// assert!(d.object("premature", 7).is_err());
    /// assert_eq!(d.framework().len(), 1);
    /// assert!(d.object("objection", 0).is_ok());
    /// ```
    pub fn object(&mut self, label: impl Into<String>, target: ArgId) -> Result<ArgId, LogicError> {
        // Validate before allocating, so a rejected move leaves no trace.
        self.framework.check_id(target)?;
        let id = self.framework.add_argument(label);
        self.framework
            .add_attack(id, target)
            .expect("both ids were just validated");
        self.history.push((id, self.verdict()));
        Ok(id)
    }

    /// The current verdict on the proposal.
    pub fn verdict(&self) -> Verdict {
        // The proposal id is allocated in `open` and never removed.
        if self.framework.grounded_extension().contains(&self.proposal) {
            Verdict::Accepted
        } else {
            Verdict::Rejected
        }
    }

    /// The framework built so far.
    pub fn framework(&self) -> &Framework {
        &self.framework
    }

    /// The verdict after each move — the dialogue's non-monotone history.
    pub fn verdict_history(&self) -> Vec<Verdict> {
        self.history.iter().map(|(_, v)| *v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[ArgId]) -> BTreeSet<ArgId> {
        ids.iter().copied().collect()
    }

    #[test]
    fn unattacked_argument_is_grounded() {
        let mut af = Framework::new();
        let a = af.add_argument("a");
        assert_eq!(af.grounded_extension(), set(&[a]));
        assert!(af.sceptically_accepted(a).unwrap());
        assert_eq!(af.label(a).unwrap(), "a");
    }

    #[test]
    fn simple_attack_defeats() {
        let mut af = Framework::new();
        let a = af.add_argument("do it");
        let b = af.add_argument("objection");
        af.add_attack(b, a).unwrap();
        assert_eq!(af.grounded_extension(), set(&[b]));
        assert!(!af.sceptically_accepted(a).unwrap());
    }

    #[test]
    fn reinstatement_chain() {
        // c attacks b attacks a: a is reinstated (defended by c).
        let mut af = Framework::new();
        let a = af.add_argument("a");
        let b = af.add_argument("b");
        let c = af.add_argument("c");
        af.add_attack(b, a).unwrap();
        af.add_attack(c, b).unwrap();
        assert_eq!(af.grounded_extension(), set(&[a, c]));
    }

    #[test]
    fn mutual_attack_grounds_to_empty() {
        let mut af = Framework::new();
        let a = af.add_argument("a");
        let b = af.add_argument("b");
        af.add_attack(a, b).unwrap();
        af.add_attack(b, a).unwrap();
        assert!(af.grounded_extension().is_empty());
        // But there are two preferred extensions: {a} and {b}.
        let preferred = af.preferred_extensions();
        assert_eq!(preferred.len(), 2);
        assert!(preferred.contains(&set(&[a])));
        assert!(preferred.contains(&set(&[b])));
        // Both are stable: each attacks everything outside itself.
        let stable = af.stable_extensions();
        assert_eq!(stable.len(), 2);
        // Credulous but not sceptical acceptance, under every engine.
        assert!(af.credulously_accepted(a).unwrap());
        assert!(!af.sceptically_accepted_preferred(a).unwrap());
        assert!(!af.sceptically_accepted(a).unwrap());
    }

    #[test]
    fn self_attacking_argument_never_accepted() {
        let mut af = Framework::new();
        let a = af.add_argument("liar");
        af.add_attack(a, a).unwrap();
        assert!(af.grounded_extension().is_empty());
        assert_eq!(af.preferred_extensions(), vec![BTreeSet::new()]);
        assert!(af.stable_extensions().is_empty());
        assert!(!af.credulously_accepted(a).unwrap());
    }

    #[test]
    fn admissibility_and_conflict_freedom() {
        let mut af = Framework::new();
        let a = af.add_argument("a");
        let b = af.add_argument("b");
        let c = af.add_argument("c");
        af.add_attack(b, a).unwrap();
        af.add_attack(c, b).unwrap();
        assert!(af.conflict_free(&set(&[a, c])));
        assert!(!af.conflict_free(&set(&[a, b])));
        assert!(af.admissible(&set(&[a, c])));
        assert!(!af.admissible(&set(&[a]))); // a cannot defend itself
        assert!(af.admissible(&set(&[])));
    }

    #[test]
    fn grounded_is_subset_of_every_preferred() {
        let mut af = Framework::new();
        let a = af.add_argument("a");
        let b = af.add_argument("b");
        let c = af.add_argument("c");
        let d = af.add_argument("d");
        af.add_attack(a, b).unwrap();
        af.add_attack(b, a).unwrap();
        af.add_attack(a, c).unwrap();
        af.add_attack(b, c).unwrap();
        af.add_attack(c, d).unwrap();
        let grounded = af.grounded_extension();
        for preferred in af.preferred_extensions() {
            assert!(grounded.is_subset(&preferred));
        }
    }

    #[test]
    fn transplant_deliberation_is_non_monotonic() {
        // The paper's scenario: deliberate a transplant action. The
        // verdict flips as the dialogue adds information — the
        // non-monotonicity classical deduction cannot model.
        let mut d = Deliberation::open("transplant(organ1, recipient_r)");
        assert_eq!(d.verdict(), Verdict::Accepted);

        let objection = d
            .object("donor history indicates hepatitis risk", 0)
            .unwrap();
        assert_eq!(d.verdict(), Verdict::Rejected);

        let rebuttal = d
            .object("serology panel rules the risk out", objection)
            .unwrap();
        assert_eq!(d.verdict(), Verdict::Accepted);

        d.object("panel used an expired reagent batch", rebuttal)
            .unwrap();
        assert_eq!(d.verdict(), Verdict::Rejected);

        assert_eq!(
            d.verdict_history(),
            vec![
                Verdict::Accepted,
                Verdict::Rejected,
                Verdict::Accepted,
                Verdict::Rejected
            ]
        );
        assert_eq!(d.framework().len(), 4);
    }

    #[test]
    fn attackers_listed() {
        let mut af = Framework::new();
        let a = af.add_argument("a");
        let b = af.add_argument("b");
        let c = af.add_argument("c");
        af.add_attack(b, a).unwrap();
        af.add_attack(c, a).unwrap();
        assert_eq!(af.attackers(a), vec![b, c]);
        assert!(af.attackers(b).is_empty());
        assert_eq!(af.attack_count(), 2);
    }

    #[test]
    fn out_of_range_ids_are_typed_errors_not_panics() {
        let mut af = Framework::new();
        let a = af.add_argument("a");
        assert!(matches!(
            af.add_attack(9, a),
            Err(LogicError::UnknownArgument {
                id: 9,
                arguments: 1
            })
        ));
        assert!(matches!(
            af.add_attack(a, 9),
            Err(LogicError::UnknownArgument {
                id: 9,
                arguments: 1
            })
        ));
        assert!(af.label(3).is_err());
        assert!(af.credulously_accepted(3).is_err());
        assert!(af.sceptically_accepted(3).is_err());
        assert!(af.sceptically_accepted_preferred(3).is_err());
        assert_eq!(af.attack_count(), 0, "failed attacks leave no trace");

        let mut d = Deliberation::open("act");
        assert!(matches!(
            d.object("late", 5),
            Err(LogicError::UnknownArgument {
                id: 5,
                arguments: 1
            })
        ));
        assert_eq!(d.framework().len(), 1, "failed moves leave no trace");
        assert_eq!(d.verdict_history().len(), 1);
    }

    #[test]
    fn complete_extensions_of_classic_example() {
        // a <-> b, both attack c: complete extensions are {}, {a}, {b}.
        let mut af = Framework::new();
        let a = af.add_argument("a");
        let b = af.add_argument("b");
        let c = af.add_argument("c");
        af.add_attack(a, b).unwrap();
        af.add_attack(b, a).unwrap();
        af.add_attack(a, c).unwrap();
        af.add_attack(b, c).unwrap();
        let complete = af.complete_extensions();
        assert_eq!(complete.len(), 3);
        assert!(complete.contains(&BTreeSet::new()));
        assert!(complete.contains(&set(&[a])));
        assert!(complete.contains(&set(&[b])));
    }

    #[test]
    fn csr_adjacency_mirrors_the_attack_relation() {
        let mut af = Framework::new();
        let a = af.add_argument("a");
        let b = af.add_argument("b");
        let c = af.add_argument("c");
        af.add_attack(b, a).unwrap();
        af.add_attack(c, a).unwrap();
        af.add_attack(a, c).unwrap();
        let adj = af.adjacency();
        assert_eq!(adj.num_args(), 3);
        assert_eq!(adj.attackers(a), &[b, c]);
        assert_eq!(adj.attackers(b), &[] as &[ArgId]);
        assert_eq!(adj.attackers(c), &[a]);
        assert_eq!(adj.targets(a), &[c]);
        assert_eq!(adj.targets(b), &[a]);
        assert_eq!(adj.targets(c), &[a]);
        for id in 0..af.len() {
            assert_eq!(adj.attackers(id), af.attackers(id).as_slice());
        }
    }

    #[test]
    fn extensions_beyond_the_old_sixteen_argument_ceiling() {
        // A 3-cycle of mutual-attack pairs plus a 40-argument
        // reinstatement chain: 46 arguments, which the seed's
        // `assert!(n <= 16)` enumerator could never touch.
        let mut af = Framework::new();
        let pairs: Vec<(ArgId, ArgId)> = (0..3)
            .map(|i| {
                let x = af.add_argument(format!("x{i}"));
                let y = af.add_argument(format!("y{i}"));
                af.add_attack(x, y).unwrap();
                af.add_attack(y, x).unwrap();
                (x, y)
            })
            .collect();
        let mut prev = None;
        let mut chain = Vec::new();
        for i in 0..40 {
            let c = af.add_argument(format!("c{i}"));
            if let Some(p) = prev {
                af.add_attack(c, p).unwrap();
            }
            prev = Some(c);
            chain.push(c);
        }
        assert_eq!(af.len(), 46);
        let preferred = af.preferred_extensions();
        // 2 choices per mutual pair: 8 preferred extensions, each
        // containing the alternating half of the chain.
        assert_eq!(preferred.len(), 8);
        let grounded = af.grounded_extension();
        let chain_in: BTreeSet<ArgId> = chain.iter().copied().skip(1).step_by(2).collect();
        assert!(chain_in.is_subset(&grounded));
        for p in &preferred {
            assert!(af.admissible(p));
            assert!(grounded.is_subset(p));
            for (x, y) in &pairs {
                assert!(p.contains(x) ^ p.contains(y));
            }
        }
        // Stable extensions coincide here (no odd cycles, no undec).
        assert_eq!(af.stable_extensions().len(), 8);
    }
}
