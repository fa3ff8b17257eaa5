//! The SCC-decomposed semantics engine: condensation, per-component
//! solving, and topological reassembly.
//!
//! # Why decompose
//!
//! The monolithic encoding ([`super::encode::AfSat`]) hands the whole
//! framework to one SAT session — fine at hundreds of arguments,
//! hopeless at 10^5. But complete, stable, preferred, and grounded
//! semantics are all *SCC-recursive* (Baroni, Giacomin & Guida 2005):
//! a labelling is legal iff its restriction to every strongly connected
//! component of the attack graph is legal for that component *given the
//! labels of the component's upstream attackers*. Attacks between
//! components only flow one way in the condensation, so components can
//! be solved in topological order and the global answer reassembled
//! from small local ones.
//!
//! # The pipeline
//!
//! 1. **Condense** ([`Condensation::build`]) — the workspace's graph
//!    kernel ([`crate::graph::scc`], iterative and stack-safe at 10^5
//!    nodes) groups the arguments of the CSR [`Adjacency`] into
//!    components numbered so *attackers come first* (every attack edge
//!    goes from a lower-numbered component to a higher one, or stays
//!    inside one); the condensation then assigns each component its
//!    longest-path *depth* and groups the components by depth.
//!    Components at the same depth have no edges between them, so they
//!    are independent given all shallower labels.
//! 2. **Walk depth by depth** ([`Decomposed`]) — the engine carries a
//!    set of *branches* (partial labellings of everything at shallower
//!    depths; one branch per distinct way the semantics could have
//!    labelled upstream). At each depth every component sees only its
//!    upstream labels, summarized per member as an *interface
//!    signature*: does some external attacker carry `In`, else some
//!    `Undec`, else all `Out`/none.
//! 3. **Trivial components propagate** — a singleton with an `In`
//!    external attacker is `Out`; with all externals `Out` (or no
//!    attackers) it is `In`; otherwise (or with a self-loop) `Undec`.
//!    No SAT call. In large deliberation graphs nearly every component
//!    is a singleton, which is exactly why this path scales.
//! 4. **Non-trivial components get a small SAT encoding** — the
//!    monolithic engine's own encoder ([`AfSat`]) over the component's
//!    members, with the interface signature baked in as unit clauses
//!    (`In` attacker ⇒ forced `Out`; `Undec` attacker ⇒ the member can
//!    no longer be `In`). Complete/stable semantics enumerate all local
//!    labellings with [`AfSat::extensions`]; preferred branches only
//!    the *locally maximal* ones, from [`AfSat::preferred`] —
//!    SCC-recursiveness guarantees greedy local maximality in
//!    topological order composes to global maximality. Distinct
//!    `(component, signature)` tasks at one depth are independent, so
//!    they are farmed across the [`casekit_runtime::Runtime`] and
//!    memoized (two branches that agree on a component's interface
//!    share the solve).
//! 5. **Reassemble** — surviving branches *are* the labellings; the
//!    extensions are their `In` sets. Under stable semantics a branch
//!    dies the moment any argument goes `Undec`.
//!
//! Acceptance queries ([`Decomposed::credulous`],
//! [`Decomposed::sceptical_preferred`]) shortcut through the grounded
//! labelling — grounded-`In` arguments are in every complete extension,
//! grounded-`Out` ones in none — and only enumerate labellings of the
//! queried argument's *ancestor cone* (the components that can reach
//! it) when it is genuinely undecided; everything downstream of the
//! query is never solved.
//!
//! # When the decomposed path is selected
//!
//! [`super::Framework`]'s semantics methods route here at or above
//! [`DECOMPOSITION_THRESHOLD`] arguments and keep the monolithic
//! encoding below it, where it doubles as the differential oracle
//! (`tests/properties.rs` cross-checks the two engines set-for-set;
//! `repro af` measures the speedup into `BENCH_af.json`).

use super::encode::{AfSat, External};
use super::{Adjacency, ArgId, Framework, Label};
use crate::graph::{self, Csr};
use casekit_runtime::Runtime;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Argument count at which [`Framework`]'s semantics
/// methods switch from the monolithic SAT encoding to the
/// SCC-decomposed engine. Below it the monolithic path is typically
/// faster (one small encoding beats condensation bookkeeping) and
/// serves as the differential cross-check.
pub const DECOMPOSITION_THRESHOLD: usize = 64;

/// Which local labellings a component solve enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// All complete labellings.
    Complete,
    /// Complete labellings with no `Undec` member.
    Stable,
    /// Only the ⊆-maximal (by `In` set) complete labellings.
    Preferred,
}

/// The strongly-connected-component condensation of an attack graph,
/// in topological order.
///
/// Components are numbered attackers-first: for every attack `(a, t)`,
/// `component_of(a) <= component_of(t)`, with equality exactly when
/// both ends share a component. `depth` is the longest path from any
/// source component; components of equal depth have no attacks between
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensation {
    comp_of: Vec<usize>,
    /// Row `c` lists the arguments of component `c`, ascending.
    members: Csr<ArgId>,
    depth: Vec<usize>,
    /// Row `d` lists the components at depth `d`, ascending.
    levels: Csr<usize>,
}

impl Condensation {
    /// Condenses `adj` with the shared iterative Tarjan pass
    /// ([`crate::graph::scc`]) over the target rows, so a 10^5-node
    /// attack chain cannot overflow the call stack.
    pub fn build(adj: &Adjacency) -> Self {
        let members = graph::scc(&adj.targets, |&t| Some(t));
        let mut comp_of = vec![0; adj.num_args()];
        let mut depth = vec![0usize; members.rows()];
        for c in 0..members.rows() {
            for &a in members.row(c) {
                comp_of[a] = c;
            }
            // Longest-path depth: attackers are upstream, hence already
            // finalized when their target's component comes around.
            for &a in members.row(c) {
                for &b in adj.attackers(a) {
                    let cb = comp_of[b];
                    if cb != c {
                        depth[c] = depth[c].max(depth[cb] + 1);
                    }
                }
            }
        }
        let num_levels = depth.iter().map(|&d| d + 1).max().unwrap_or(0);
        let levels = Csr::from_pairs(num_levels, depth.iter().enumerate().map(|(c, &d)| (d, c)));
        Condensation {
            comp_of,
            members,
            depth,
            levels,
        }
    }

    /// Number of arguments the condensation covers.
    pub fn num_args(&self) -> usize {
        self.comp_of.len()
    }

    /// Number of strongly connected components.
    pub fn num_components(&self) -> usize {
        self.members.rows()
    }

    /// Number of depth levels (0 for an empty framework).
    pub fn num_levels(&self) -> usize {
        self.levels.rows()
    }

    /// The component containing argument `id`.
    pub fn component_of(&self, id: ArgId) -> usize {
        self.comp_of[id]
    }

    /// The arguments of component `c`, sorted ascending.
    pub fn members(&self, c: usize) -> &[ArgId] {
        self.members.row(c)
    }

    /// The longest-path depth of component `c` in the condensation.
    pub fn depth(&self, c: usize) -> usize {
        self.depth[c]
    }

    /// The components at depth `d`, ascending. They have no attacks
    /// between them, so they are independent given shallower labels.
    pub fn level(&self, d: usize) -> &[usize] {
        self.levels.row(d)
    }

    /// Size of the largest component (0 for an empty framework) — the
    /// knob that decides whether decomposition can win: per-component
    /// SAT cost is driven by this, not by the framework size.
    pub fn largest_component(&self) -> usize {
        (0..self.num_components())
            .map(|c| self.members(c).len())
            .max()
            .unwrap_or(0)
    }
}

/// The SCC-decomposed semantics engine over one framework.
///
/// Build once ([`Decomposed::new`] / [`Decomposed::with_runtime`]) and
/// ask any number of questions; the condensation and the grounded
/// labelling are computed up front, every query walks the condensation
/// from there. See the [module docs](self) for the pipeline.
#[derive(Debug)]
pub struct Decomposed {
    adj: Adjacency,
    cond: Condensation,
    grounded: Vec<Label>,
    runtime: Runtime,
    n: usize,
}

impl Decomposed {
    /// Builds the decomposed engine with the environment-configured
    /// work farm ([`Runtime::from_env`]).
    pub fn new(af: &Framework) -> Self {
        Self::with_runtime(af, Runtime::from_env())
    }

    /// Builds the decomposed engine over an explicit [`Runtime`].
    pub fn with_runtime(af: &Framework, runtime: Runtime) -> Self {
        let adj = af.adjacency();
        let cond = Condensation::build(&adj);
        let grounded = adj.grounded_labels();
        let n = af.len();
        Decomposed {
            adj,
            cond,
            grounded,
            runtime,
            n,
        }
    }

    /// The condensation the engine walks.
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// The grounded extension (shared with the monolithic path: the
    /// O(V+E) worklist fixpoint needs no decomposition to scale).
    pub fn grounded_extension(&self) -> BTreeSet<ArgId> {
        in_set(&self.grounded)
    }

    /// All complete extensions, reassembled from per-component
    /// labellings.
    pub fn complete_extensions(&self) -> Vec<BTreeSet<ArgId>> {
        self.labellings(Mode::Complete, None)
            .iter()
            .map(|l| in_set(l))
            .collect()
    }

    /// The stable extensions (possibly none: a branch dies the moment
    /// any argument goes undecided).
    pub fn stable_extensions(&self) -> Vec<BTreeSet<ArgId>> {
        self.labellings(Mode::Stable, None)
            .iter()
            .map(|l| in_set(l))
            .collect()
    }

    /// The preferred extensions: at every component only the locally
    /// ⊆-maximal labellings are branched, which SCC-recursiveness
    /// composes into exactly the globally maximal complete extensions.
    pub fn preferred_extensions(&self) -> Vec<BTreeSet<ArgId>> {
        self.labellings(Mode::Preferred, None)
            .iter()
            .map(|l| in_set(l))
            .collect()
    }

    /// Whether `id` is in some complete (equivalently, some preferred)
    /// extension. Grounded-`In` arguments are credulously accepted and
    /// grounded-`Out` ones are not, with no enumeration at all; only a
    /// grounded-`Undec` argument walks its ancestor cone.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (this engine mirrors the
    /// low-level [`AfSat`] contract;
    /// [`Framework::credulously_accepted`] is the `Result` wrapper).
    pub fn credulous(&self, id: ArgId) -> bool {
        assert!(
            id < self.n,
            "argument id {id} is out of range for a framework of {} argument(s)",
            self.n
        );
        match self.grounded[id] {
            Label::In => true,
            Label::Out => false,
            Label::Undec => {
                let cone = self.ancestor_cone(self.cond.component_of(id));
                self.labellings(Mode::Preferred, Some(&cone))
                    .iter()
                    .any(|l| l[id] == Label::In)
            }
        }
    }

    /// Whether `id` is in *every* preferred extension. The grounded
    /// shortcut answers both poles (grounded arguments are in every
    /// complete extension; arguments they defeat are in none); only a
    /// grounded-`Undec` argument enumerates its ancestor cone's
    /// preferred labellings.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (see [`Decomposed::credulous`]).
    pub fn sceptical_preferred(&self, id: ArgId) -> bool {
        assert!(
            id < self.n,
            "argument id {id} is out of range for a framework of {} argument(s)",
            self.n
        );
        match self.grounded[id] {
            Label::In => true,
            Label::Out => false,
            Label::Undec => {
                let cone = self.ancestor_cone(self.cond.component_of(id));
                self.labellings(Mode::Preferred, Some(&cone))
                    .iter()
                    .all(|l| l[id] == Label::In)
            }
        }
    }

    /// The components that can reach `c0` (including `c0` itself):
    /// everything whose labels the semantics of `c0`'s members can
    /// depend on. Reverse reachability over attacker edges.
    fn ancestor_cone(&self, c0: usize) -> Vec<bool> {
        let mut in_cone = vec![false; self.cond.num_components()];
        in_cone[c0] = true;
        let mut work = vec![c0];
        while let Some(c) = work.pop() {
            for &a in self.cond.members(c) {
                for &b in self.adj.attackers(a) {
                    let cb = self.cond.component_of(b);
                    if !in_cone[cb] {
                        in_cone[cb] = true;
                        work.push(cb);
                    }
                }
            }
        }
        in_cone
    }

    /// The engine core: walks the condensation depth by depth carrying
    /// every labelling branch, and returns the complete labellings
    /// (restricted to `cone`'s components if given; everything outside
    /// the cone stays `Undec` and is never solved).
    fn labellings(&self, mode: Mode, cone: Option<&[bool]>) -> Vec<Vec<Label>> {
        let mut memo: HashMap<(usize, Vec<External>), Vec<Vec<Label>>> = HashMap::new();
        let mut branches: Vec<Vec<Label>> = vec![vec![Label::Undec; self.n]];
        for d in 0..self.cond.num_levels() {
            let mut singles: Vec<usize> = Vec::new();
            let mut compound: Vec<usize> = Vec::new();
            for &c in self.cond.level(d) {
                if cone.is_some_and(|m| !m[c]) {
                    continue;
                }
                if self.cond.members(c).len() == 1 {
                    singles.push(c);
                } else {
                    compound.push(c);
                }
            }
            if singles.is_empty() && compound.is_empty() {
                continue;
            }
            // Farm every distinct (component, interface) SAT task at
            // this depth in one parallel batch. Branch order fixes the
            // task order, so results are worker-count deterministic.
            if !compound.is_empty() {
                let mut queued: HashSet<(usize, Vec<External>)> = HashSet::new();
                let mut tasks: Vec<(usize, Vec<External>)> = Vec::new();
                for branch in &branches {
                    for &c in &compound {
                        let key = (c, self.signature(branch, c));
                        if !memo.contains_key(&key) && queued.insert(key.clone()) {
                            tasks.push(key);
                        }
                    }
                }
                let solved = self
                    .runtime
                    .map(&tasks, |_, (c, sig)| self.solve_component(*c, sig, mode));
                for (key, labellings) in tasks.into_iter().zip(solved) {
                    memo.insert(key, labellings);
                }
            }
            let mut next: Vec<Vec<Label>> = Vec::new();
            'branch: for mut branch in std::mem::take(&mut branches) {
                // Interface signatures only depend on shallower depths,
                // so they are fixed before any same-depth writes.
                let signatures: Vec<Vec<External>> = compound
                    .iter()
                    .map(|&c| self.signature(&branch, c))
                    .collect();
                // Singleton components: direct propagation, farmed as
                // one parallel pass per branch.
                if !singles.is_empty() {
                    let labels = self
                        .runtime
                        .map(&singles, |_, &c| self.propagate_singleton(&branch, c));
                    for (&c, &label) in singles.iter().zip(&labels) {
                        if mode == Mode::Stable && label == Label::Undec {
                            continue 'branch;
                        }
                        branch[self.cond.members(c)[0]] = label;
                    }
                }
                // Non-trivial components: cross-product of the local
                // labellings each component admits under this branch.
                let mut partials = vec![branch];
                for (&c, sig) in compound.iter().zip(&signatures) {
                    let locals = &memo[&(c, sig.clone())];
                    if locals.is_empty() {
                        // Only stable solves can come back empty.
                        continue 'branch;
                    }
                    if locals.len() == 1 {
                        for p in &mut partials {
                            self.write_local(p, c, &locals[0]);
                        }
                    } else {
                        let mut grown = Vec::with_capacity(partials.len() * locals.len());
                        for p in partials {
                            for local in locals {
                                let mut q = p.clone();
                                self.write_local(&mut q, c, local);
                                grown.push(q);
                            }
                        }
                        partials = grown;
                    }
                }
                next.extend(partials);
            }
            branches = next;
        }
        branches
    }

    /// Writes a component's local labelling into a branch.
    fn write_local(&self, branch: &mut [Label], c: usize, local: &[Label]) {
        for (&a, &label) in self.cond.members(c).iter().zip(local) {
            branch[a] = label;
        }
    }

    /// The interface signature of component `c` under `branch`: per
    /// member, the strongest label among its external (upstream)
    /// attackers.
    fn signature(&self, branch: &[Label], c: usize) -> Vec<External> {
        self.cond
            .members(c)
            .iter()
            .map(|&a| {
                let mut summary = External::Out;
                for &b in self.adj.attackers(a) {
                    if self.cond.component_of(b) == c {
                        continue;
                    }
                    match branch[b] {
                        Label::In => {
                            summary = External::In;
                            break;
                        }
                        Label::Undec => summary = External::Undec,
                        Label::Out => {}
                    }
                }
                summary
            })
            .collect()
    }

    /// Labels a singleton component under `branch` without SAT: an
    /// `In` external attacker defeats it; all-`Out` externals (or no
    /// attackers) accept it; otherwise — an `Undec` external, or a
    /// self-loop — it stays `Undec`. (Under stable semantics the
    /// caller kills the branch on `Undec`.)
    fn propagate_singleton(&self, branch: &[Label], c: usize) -> Label {
        let a = self.cond.members(c)[0];
        let mut self_loop = false;
        let mut summary = External::Out;
        for &b in self.adj.attackers(a) {
            if b == a {
                self_loop = true;
                continue;
            }
            match branch[b] {
                Label::In => {
                    summary = External::In;
                    break;
                }
                Label::Undec => summary = External::Undec,
                Label::Out => {}
            }
        }
        if summary == External::In {
            Label::Out
        } else if self_loop || summary == External::Undec {
            Label::Undec
        } else {
            Label::In
        }
    }

    /// Solves one non-trivial component: [`AfSat`]'s labelling clauses
    /// over the component's members, with the interface signature as
    /// their outside attackers. Returns every local labelling the mode
    /// admits.
    fn solve_component(&self, c: usize, sig: &[External], mode: Mode) -> Vec<Vec<Label>> {
        let members = self.cond.members(c);
        // Attackers inside the component, by position in `members`.
        let internal = Csr::from_pairs(
            members.len(),
            members.iter().enumerate().flat_map(|(i, &a)| {
                self.adj
                    .attackers(a)
                    .iter()
                    .filter_map(move |b| members.binary_search(b).ok().map(|j| (i, j)))
            }),
        );
        let mut sat = AfSat::encode(&internal, sig, mode == Mode::Stable);
        let in_sets = match mode {
            Mode::Complete | Mode::Stable => sat.extensions(None),
            Mode::Preferred => sat.preferred(),
        };
        // Out labels are a function of the in set (plus the fixed
        // interface), so the in set is enough.
        in_sets
            .iter()
            .map(|in_set| {
                (0..members.len())
                    .map(|i| {
                        if in_set.contains(&i) {
                            Label::In
                        } else if sig[i] == External::In
                            || internal.row(i).iter().any(|j| in_set.contains(j))
                        {
                            Label::Out
                        } else {
                            Label::Undec
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// The `In` set of a labelling.
fn in_set(labels: &[Label]) -> BTreeSet<ArgId> {
    labels
        .iter()
        .enumerate()
        .filter(|(_, l)| **l == Label::In)
        .map(|(a, _)| a)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A mutual pair feeding a chain feeding a 3-cycle feeding a sink:
    /// four kinds of component in one framework.
    fn multi_scc() -> Framework {
        framework(
            8,
            &[
                (0, 1),
                (1, 0), // mutual pair
                (1, 2),
                (2, 3), // chain
                (4, 5),
                (5, 6),
                (6, 4), // odd cycle
                (3, 7),
                (6, 7), // sink attacked by both
            ],
        )
    }

    #[test]
    fn condensation_orders_attackers_first() {
        let af = multi_scc();
        let adj = af.adjacency();
        let cond = Condensation::build(&adj);
        assert_eq!(cond.num_args(), 8);
        // {0,1}, {2}, {3}, {4,5,6}, {7}.
        assert_eq!(cond.num_components(), 5);
        assert_eq!(cond.largest_component(), 3);
        assert_eq!(cond.component_of(0), cond.component_of(1));
        assert_eq!(cond.component_of(4), cond.component_of(6));
        for &(a, t) in &[(0usize, 1usize), (1, 2), (2, 3), (3, 7), (6, 7)] {
            assert!(
                cond.component_of(a) <= cond.component_of(t),
                "edge {a}->{t} goes backwards"
            );
        }
        // Depths: pair and cycle are sources; 2, 3, 7 hang below.
        let d = |id: ArgId| cond.depth(cond.component_of(id));
        assert_eq!(d(0), 0);
        assert_eq!(d(4), 0);
        assert_eq!(d(2), 1);
        assert_eq!(d(3), 2);
        assert_eq!(d(7), 3);
        assert_eq!(cond.num_levels(), 4);
        // Members cover every argument exactly once.
        let mut covered = [0usize; 8];
        for c in 0..cond.num_components() {
            assert_eq!(
                cond.level(cond.depth(c))
                    .iter()
                    .filter(|&&x| x == c)
                    .count(),
                1
            );
            for &a in cond.members(c) {
                covered[a] += 1;
            }
        }
        assert!(covered.iter().all(|&k| k == 1));
    }

    #[test]
    fn condensation_of_a_single_cycle_is_one_component() {
        let af = framework(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let cond = Condensation::build(&af.adjacency());
        assert_eq!(cond.num_components(), 1);
        assert_eq!(cond.members(0), &[0, 1, 2, 3, 4]);
        assert_eq!(cond.num_levels(), 1);
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // 50k-argument chain: recursion would die here; the iterative
        // Tarjan and the worklist propagation must not.
        let n = 50_000;
        let mut af = Framework::new();
        for i in 0..n {
            af.add_argument(format!("c{i}"));
        }
        for i in 1..n {
            af.add_attack(i - 1, i).unwrap();
        }
        let dec = Decomposed::with_runtime(&af, Runtime::with_workers(2));
        assert_eq!(dec.condensation().num_components(), n);
        assert_eq!(dec.condensation().num_levels(), n);
        let preferred = dec.preferred_extensions();
        assert_eq!(preferred.len(), 1);
        // Alternating labels down the chain.
        assert_eq!(preferred[0], dec.grounded_extension());
        assert_eq!(preferred[0].len(), n.div_ceil(2));
    }

    #[test]
    fn decomposed_agrees_with_monolithic_on_assorted_shapes() {
        let shapes: Vec<(usize, Vec<(ArgId, ArgId)>)> = vec![
            (0, vec![]),
            (1, vec![]),
            (1, vec![(0, 0)]),
            (2, vec![(0, 1), (1, 0)]),
            (3, vec![(0, 1), (1, 2), (2, 0)]),
            (3, vec![(0, 1), (1, 0), (0, 2), (1, 2)]),
            (4, vec![(0, 1), (1, 0), (2, 3), (3, 2)]),
            (5, vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2)]),
            (
                6,
                vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)],
            ),
            // Undec flowing into a pair: exercises `External::Undec`
            // interfaces.
            (4, vec![(0, 0), (0, 1), (1, 2), (2, 1), (2, 3)]),
            // Regression: a compound component where the extra complete
            // labelling {7} once slipped through because the local
            // encoding lacked the attacker-in → target-out direction —
            // out_6 could stay false beside in_7, letting 3 dodge its
            // completion clause and hang Undec.
            (
                8,
                vec![
                    (2, 0),
                    (7, 0),
                    (4, 1),
                    (1, 2),
                    (2, 2),
                    (3, 2),
                    (6, 3),
                    (2, 5),
                    (4, 5),
                    (5, 5),
                    (0, 6),
                    (7, 6),
                    (1, 7),
                    (5, 7),
                ],
            ),
        ];
        for (n, attacks) in shapes {
            let af = framework(n, &attacks);
            let dec = Decomposed::with_runtime(&af, Runtime::with_workers(3));
            let mut sat = AfSat::complete(&af);
            assert_eq!(
                as_set(dec.complete_extensions()),
                as_set(sat.extensions(None)),
                "complete disagrees on {attacks:?}"
            );
            assert_eq!(
                as_set(dec.preferred_extensions()),
                as_set(sat.preferred()),
                "preferred disagrees on {attacks:?}"
            );
            assert_eq!(
                as_set(dec.stable_extensions()),
                as_set(AfSat::stable(&af).extensions(None)),
                "stable disagrees on {attacks:?}"
            );
            for id in 0..n {
                assert_eq!(
                    dec.credulous(id),
                    sat.credulous(id),
                    "credulous disagrees on {attacks:?} id {id}"
                );
                assert_eq!(
                    dec.sceptical_preferred(id),
                    sat.sceptical_preferred(id),
                    "sceptical disagrees on {attacks:?} id {id}"
                );
            }
        }
    }

    #[test]
    fn multi_scc_instance_reassembles_every_semantics() {
        let af = multi_scc();
        let dec = Decomposed::with_runtime(&af, Runtime::with_workers(2));
        let mut sat = AfSat::complete(&af);
        assert_eq!(
            as_set(dec.complete_extensions()),
            as_set(sat.extensions(None))
        );
        assert_eq!(as_set(dec.preferred_extensions()), as_set(sat.preferred()));
        // The odd cycle hangs undecided in every labelling, so no
        // stable extension exists despite the pair's two options.
        assert!(dec.stable_extensions().is_empty());
        assert_eq!(dec.preferred_extensions().len(), 2);
    }

    #[test]
    fn framework_api_routes_large_instances_through_the_decomposition() {
        // A mutual pair gating a long alternating chain, sized past the
        // routing threshold: the decomposed path must agree with a
        // monolithic encoding built directly.
        let n = 2 * DECOMPOSITION_THRESHOLD;
        let mut af = Framework::new();
        for i in 0..n {
            af.add_argument(format!("a{i}"));
        }
        af.add_attack(0, 1).unwrap();
        af.add_attack(1, 0).unwrap();
        af.add_attack(1, 2).unwrap();
        for i in 3..n {
            af.add_attack(i - 1, i).unwrap();
        }
        assert!(af.len() >= DECOMPOSITION_THRESHOLD);
        let preferred = af.preferred_extensions();
        assert_eq!(
            as_set(preferred.clone()),
            as_set(AfSat::complete(&af).preferred())
        );
        assert_eq!(preferred.len(), 2);
        assert_eq!(
            as_set(af.stable_extensions()),
            as_set(AfSat::stable(&af).extensions(None))
        );
        assert!(af.credulously_accepted(0).unwrap());
        assert!(!af.sceptically_accepted_preferred(0).unwrap());
        // Grounded-shortcut poles inside the chain.
        assert!(af.credulously_accepted(2).unwrap());
    }

    #[test]
    fn acceptance_only_walks_the_ancestor_cone() {
        // query argument 3's cone excludes the independent pair {4,5}:
        // the answer must not depend on branches it never enumerates.
        let af = framework(6, &[(0, 1), (1, 0), (1, 2), (2, 3), (4, 5), (5, 4)]);
        let dec = Decomposed::with_runtime(&af, Runtime::serial());
        let cone = dec.ancestor_cone(dec.condensation().component_of(3));
        let c45 = dec.condensation().component_of(4);
        assert!(!cone[c45], "independent pair leaked into the cone");
        assert!(dec.credulous(3));
        assert!(!dec.sceptical_preferred(3));
    }

    #[test]
    fn worker_count_is_unobservable_in_decomposed_results() {
        let af = multi_scc();
        let serial = Decomposed::with_runtime(&af, Runtime::serial());
        for workers in [2, 4, 8] {
            let parallel = Decomposed::with_runtime(&af, Runtime::with_workers(workers));
            assert_eq!(
                serial.preferred_extensions(),
                parallel.preferred_extensions(),
                "workers = {workers}"
            );
            assert_eq!(
                serial.complete_extensions(),
                parallel.complete_extensions(),
                "workers = {workers}"
            );
        }
    }
}
