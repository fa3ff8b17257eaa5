//! VSIDS decision ordering and phase saving — the branching heuristic
//! of the CDCL core.
//!
//! **VSIDS** (Variable State Independent Decaying Sum) keeps one
//! floating-point *activity* per variable. Every conflict bumps the
//! activity of each variable that participated in conflict analysis,
//! and the bump increment grows geometrically after each conflict —
//! which is equivalent to exponentially decaying every other variable's
//! activity without ever touching it. Decisions always pick the
//! unassigned variable with the highest activity, so the search keeps
//! circling the variables implicated in recent conflicts instead of
//! sweeping a static order.
//!
//! The order lives in an *indexed binary max-heap* ([`Vsids`]): `pop`
//! and `insert` are `O(log n)`, and a position table makes `bump` of an
//! enqueued variable an in-place sift. Ties break on the lower variable
//! index, which keeps runs deterministic.
//!
//! **Phase saving** rides along: whenever the trail unwinds past an
//! assignment, the variable's last polarity is remembered, and the next
//! decision on that variable re-applies it. After a restart or a long
//! backjump the solver re-enters the part of the search space it was
//! making progress in, instead of recomputing it from the default
//! polarity.

use crate::prop::intern::Var;

/// Sentinel for "not currently enqueued" in the position table.
const ABSENT: u32 = u32::MAX;

/// When any activity exceeds this bound, every activity and the bump
/// increment are rescaled to keep the `f64`s finite. Uniform scaling
/// preserves the heap order.
const RESCALE_LIMIT: f64 = 1e100;
const RESCALE_FACTOR: f64 = 1e-100;

/// Activity-ordered decision queue with saved phases.
#[derive(Debug, Clone)]
pub struct Vsids {
    /// Per variable: conflict-participation activity.
    activity: Vec<f64>,
    /// Per variable: last assigned polarity (decision default).
    saved_phase: Vec<bool>,
    /// Max-heap of variable indices, ordered by activity (ties: lower
    /// index wins).
    heap: Vec<u32>,
    /// Per variable: its slot in `heap`, or [`ABSENT`].
    position: Vec<u32>,
    /// Current bump increment (grows by `1 / decay` per conflict).
    inc: f64,
    /// Per-conflict decay factor in `(0, 1)`.
    decay: f64,
}

impl Default for Vsids {
    fn default() -> Self {
        Self::new()
    }
}

impl Vsids {
    /// An empty ordering with the standard decay (0.95).
    pub fn new() -> Self {
        Vsids {
            activity: Vec::new(),
            saved_phase: Vec::new(),
            heap: Vec::new(),
            position: Vec::new(),
            inc: 1.0,
            decay: 0.95,
        }
    }

    /// Number of tracked variables.
    pub fn len(&self) -> usize {
        self.activity.len()
    }

    /// Whether no variables are tracked.
    pub fn is_empty(&self) -> bool {
        self.activity.is_empty()
    }

    /// Registers one more variable (activity 0, default phase
    /// positive, enqueued for decisions).
    pub fn grow(&mut self) {
        let v = Var(u32::try_from(self.activity.len()).expect("variable count fits in u32"));
        self.activity.push(0.0);
        self.saved_phase.push(true);
        self.position.push(ABSENT);
        self.insert(v);
    }

    /// The variable's current activity.
    pub fn activity(&self, v: Var) -> f64 {
        self.activity[v.index()]
    }

    /// The saved polarity for `v` (the decision default).
    pub fn phase(&self, v: Var) -> bool {
        self.saved_phase[v.index()]
    }

    /// Records the polarity `v` held when the trail unwound past it.
    pub fn save_phase(&mut self, v: Var, positive: bool) {
        self.saved_phase[v.index()] = positive;
    }

    /// Bumps `v`'s activity by the current increment, restoring the
    /// heap order if `v` is enqueued.
    pub fn bump(&mut self, v: Var) {
        self.activity[v.index()] += self.inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= RESCALE_FACTOR;
            }
            self.inc *= RESCALE_FACTOR;
        }
        let pos = self.position[v.index()];
        if pos != ABSENT {
            self.sift_up(pos as usize);
        }
    }

    /// Ends a conflict: future bumps weigh more, which decays every
    /// existing activity relative to them.
    pub fn decay(&mut self) {
        self.inc /= self.decay;
    }

    /// Enqueues `v` for decisions (no-op if already enqueued).
    pub fn insert(&mut self, v: Var) {
        if self.position[v.index()] != ABSENT {
            return;
        }
        self.heap.push(v.0);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the highest-activity enqueued variable.
    pub fn pop(&mut self) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        self.position[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(Var(top))
    }

    /// Whether `v` is currently enqueued.
    pub fn contains(&self, v: Var) -> bool {
        self.position[v.index()] != ABSENT
    }

    /// `a` orders strictly before `b` (higher activity; ties to the
    /// lower index).
    fn precedes(&self, a: u32, b: u32) -> bool {
        let (aa, ab) = (self.activity[a as usize], self.activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    /// Writes `v` into `slot` and records the slot.
    fn place(&mut self, slot: usize, v: u32) {
        self.heap[slot] = v;
        self.position[v as usize] = slot as u32;
    }

    /// Moves the hole at `slot` up past every parent its variable
    /// precedes, then writes the variable once.
    fn sift_up(&mut self, mut slot: usize) {
        let v = self.heap[slot];
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if !self.precedes(v, self.heap[parent]) {
                break;
            }
            self.place(slot, self.heap[parent]);
            slot = parent;
        }
        self.place(slot, v);
    }

    /// Moves the hole at `slot` down past every better child that
    /// precedes its variable, then writes the variable once.
    fn sift_down(&mut self, mut slot: usize) {
        let v = self.heap[slot];
        loop {
            let (l, r) = (2 * slot + 1, 2 * slot + 2);
            let child = if r < self.heap.len() && self.precedes(self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            if child >= self.heap.len() || !self.precedes(self.heap[child], v) {
                break;
            }
            self.place(slot, self.heap[child]);
            slot = child;
        }
        self.place(slot, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vsids_with(n: usize) -> Vsids {
        let mut v = Vsids::new();
        for _ in 0..n {
            v.grow();
        }
        v
    }

    #[test]
    fn pops_in_activity_order_with_index_ties() {
        let mut v = vsids_with(5);
        v.bump(Var(3));
        v.bump(Var(3));
        v.bump(Var(1));
        // 3 (2 bumps) > 1 (1 bump) > 0, 2, 4 (ties by index).
        let order: Vec<u32> = std::iter::from_fn(|| v.pop()).map(|x| x.0).collect();
        assert_eq!(order, vec![3, 1, 0, 2, 4]);
        assert!(v.pop().is_none());
    }

    #[test]
    fn bump_of_enqueued_variable_reorders_in_place() {
        let mut v = vsids_with(4);
        v.bump(Var(0));
        assert_eq!(v.pop(), Some(Var(0)));
        // 0 is popped (dequeued); bumping it must not re-enqueue.
        v.bump(Var(0));
        assert!(!v.contains(Var(0)));
        v.bump(Var(2));
        v.bump(Var(2));
        v.bump(Var(2));
        assert_eq!(v.pop(), Some(Var(2)));
        v.insert(Var(0));
        assert_eq!(v.pop(), Some(Var(0)), "re-inserted var keeps its activity");
    }

    #[test]
    fn decay_makes_recent_bumps_outweigh_old_ones() {
        let mut v = vsids_with(2);
        for _ in 0..10 {
            v.bump(Var(0));
            v.decay();
        }
        // One fresh bump of 1 now outweighs ten old bumps of 0.
        v.bump(Var(1));
        assert!(v.activity(Var(1)) < v.activity(Var(0)) * 2.0);
        for _ in 0..60 {
            v.decay();
        }
        v.bump(Var(1));
        assert!(v.activity(Var(1)) > v.activity(Var(0)));
        assert_eq!(v.pop(), Some(Var(1)));
    }

    #[test]
    fn rescaling_keeps_activities_finite_and_ordered() {
        let mut v = vsids_with(3);
        v.bump(Var(1));
        for _ in 0..4000 {
            v.bump(Var(2));
            v.decay();
        }
        assert!(v.activity(Var(2)).is_finite());
        assert!(v.activity(Var(2)) > v.activity(Var(1)));
        assert_eq!(v.pop(), Some(Var(2)));
    }

    #[test]
    fn phase_saving_round_trips() {
        let mut v = vsids_with(2);
        assert!(v.phase(Var(0)), "default phase is positive");
        v.save_phase(Var(0), false);
        assert!(!v.phase(Var(0)));
        assert!(v.phase(Var(1)));
    }

    /// One SplitMix64 step: a dependency-free seeded schedule.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn random_schedule_pops_the_brute_force_argmax() {
        const VARS: usize = 300;
        let mut state = 0x5eed_u64;
        let mut v = Vsids::new();
        // The reference: which variables are enqueued.
        let mut enqueued: Vec<bool> = Vec::new();
        let (mut pops, mut rescaled) = (0, false);
        for _ in 0..24_000 {
            let pick = splitmix64(&mut state);
            let x = Var(((pick >> 8) % enqueued.len().max(1) as u64) as u32);
            match pick % 8 {
                0 if v.len() < VARS => {
                    v.grow();
                    enqueued.push(true);
                }
                _ if v.is_empty() => {}
                1 | 2 => {
                    let inc = v.inc;
                    v.bump(x);
                    rescaled |= v.inc < inc;
                }
                3 | 4 => v.decay(),
                5 => {
                    v.insert(x);
                    enqueued[x.index()] = true;
                }
                _ => {
                    // Highest activity first; the ascending scan keeps
                    // the lower index on ties.
                    let mut best: Option<Var> = None;
                    for i in (0..enqueued.len()).filter(|&i| enqueued[i]) {
                        let x = Var(i as u32);
                        if best.is_none_or(|b| v.activity(x) > v.activity(b)) {
                            best = Some(x);
                        }
                    }
                    assert_eq!(v.pop(), best, "pop {pops}");
                    if let Some(b) = best {
                        enqueued[b.index()] = false;
                    }
                    pops += 1;
                }
            }
        }
        assert_eq!(v.len(), VARS);
        assert!(
            pops > 5_000 && rescaled,
            "the schedule must pop and rescale"
        );
        for (i, &queued) in enqueued.iter().enumerate() {
            assert_eq!(v.contains(Var(i as u32)), queued, "variable {i}");
        }
    }

    #[test]
    fn insert_is_idempotent() {
        let mut v = vsids_with(2);
        v.insert(Var(0));
        v.insert(Var(0));
        assert_eq!(v.pop(), Some(Var(0)));
        assert_eq!(v.pop(), Some(Var(1)));
        assert_eq!(v.pop(), None);
        assert!(!v.is_empty());
        assert_eq!(v.len(), 2);
    }
}
