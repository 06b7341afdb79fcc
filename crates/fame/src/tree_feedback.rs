//! Parallel-prefix tree feedback for `C ≥ 2t²` (Section 5.5, Case 2).
//!
//! Sequential `communication-feedback` spends `Θ((C/(C−t))·log n)` rounds
//! *per reported channel*. With many channels we can do better: pair up the
//! reported channels and merge their witnesses' knowledge concurrently,
//! doubling the information per witness at every level of a binary tree.
//!
//! Mechanics of one merge (group `g`, level `ℓ`, direction `d`):
//!
//! * the group covers reported blocks `[g·2^{ℓ+1}, (g+1)·2^{ℓ+1})` and is
//!   assigned `2t` dedicated physical channels;
//! * the *informed* half's witnesses broadcast their flag bitmap on all
//!   `2t` group channels (occupying them — spoof-proof, exactly like
//!   Figure 1);
//! * the other half's witnesses listen on a random group channel; the
//!   adversary can jam at most `t` of the `2t`, so each listener succeeds
//!   with probability ≥ 1/2 and learns the bitmap in `Θ(log n)` rounds.
//!
//! After `⌈log₂ k⌉` levels (two directions each) every witness knows all
//! `k` flags; a final Figure 1-style dissemination (informed witnesses
//! occupy all `C` channels; everyone else listens randomly) hands the
//! result to every node. Total: `O(log n · log k + log n) = O(log² n)`
//! rounds per invocation — the third row of Figure 3.
//!
//! **Deviation from the paper:** the paper assigns `t` channels per merging
//! pair; with only `t` the adversary could focus its entire budget and
//! starve one pair indefinitely. We assign `2t` (which still fits:
//! `⌊k/2⌋·2t ≤ C'·t ≤ C`), keeping the per-round escape probability ≥ 1/2.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use radio_network::{Action, ChannelId, Protocol, Reception};

use crate::messages::FameFrame;
use crate::params::Params;

/// Per-node state machine for one tree-feedback invocation.
///
/// Same driving interface as
/// [`FeedbackCore`](crate::feedback::FeedbackCore): call
/// [`TreeFeedbackCore::action`] / [`TreeFeedbackCore::observe`] for exactly
/// [`TreeFeedbackCore::total_rounds`] local rounds.
#[derive(Clone, Debug)]
pub struct TreeFeedbackCore {
    me: usize,
    c: usize,
    t: usize,
    blocks: usize,
    merge_reps: u64,
    final_reps: u64,
    /// `W[r]` per reported block (sorted).
    witness_sets: Vec<Vec<usize>>,
    /// Which block this node witnesses, if any.
    my_block: Option<usize>,
    /// Everything this node knows so far: block -> flag.
    known: BTreeMap<usize, bool>,
    rng: SmallRng,
}

/// Number of merge levels for `k` blocks.
fn levels(k: usize) -> u64 {
    if k <= 1 {
        0
    } else {
        (usize::BITS - (k - 1).leading_zeros()) as u64
    }
}

impl TreeFeedbackCore {
    /// Build the state machine for node `me`.
    ///
    /// `witness_sets[r]` are the witnesses of reported block `r` (each
    /// sorted, disjoint); `my_flags[r]` is `Some(flag)` iff `me` is one of
    /// them.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent inputs or if the channel budget
    /// `⌊k/2⌋ · 2t > C` is violated (prevented by `Params` validation).
    pub fn new(
        me: usize,
        params: &Params,
        witness_sets: Vec<Vec<usize>>,
        my_flags: Vec<Option<bool>>,
        seed: u64,
    ) -> Self {
        assert_eq!(witness_sets.len(), my_flags.len());
        let k = witness_sets.len();
        let t = params.t();
        let c = params.c();
        assert!(
            (k / 2) * 2 * t <= c,
            "tree feedback needs ⌊k/2⌋·2t <= C (k={k}, t={t}, C={c})"
        );
        let mut my_block = None;
        let mut known = BTreeMap::new();
        for (r, (w, flag)) in witness_sets.iter().zip(&my_flags).enumerate() {
            assert!(w.windows(2).all(|p| p[0] < p[1]), "W[{r}] must be sorted");
            assert_eq!(
                w.contains(&me),
                flag.is_some(),
                "flag presence must match membership for block {r}"
            );
            if let Some(b) = flag {
                assert!(my_block.is_none(), "witness sets must be disjoint");
                my_block = Some(r);
                known.insert(r, *b);
            }
        }
        let ln_n = (params.n() as f64).ln().max(1.0);
        let merge_reps = (params.feedback_scale * 2.0 * ln_n).ceil().max(1.0) as u64;
        TreeFeedbackCore {
            me,
            c,
            t,
            blocks: k,
            merge_reps,
            final_reps: params.feedback_reps() as u64,
            witness_sets,
            my_block,
            known,
            rng: SmallRng::seed_from_u64(seed ^ 0x7EEE_FEED ^ (me as u64) << 18),
        }
    }

    /// Total local rounds: merges plus final dissemination.
    pub fn total_rounds(&self) -> u64 {
        levels(self.blocks) * 2 * self.merge_reps + self.final_reps
    }

    /// Decompose a local round into (level, direction, rep) or the final
    /// phase.
    fn phase_of(&self, local_round: u64) -> TreePhase {
        let merge_total = levels(self.blocks) * 2 * self.merge_reps;
        if local_round < merge_total {
            let per_level = 2 * self.merge_reps;
            let level = local_round / per_level;
            let within = local_round % per_level;
            TreePhase::Merge {
                level,
                direction: (within / self.merge_reps) as usize,
            }
        } else {
            TreePhase::Final
        }
    }

    /// The group and side of `my_block` at a merge level.
    fn my_group(&self, level: u64) -> Option<(usize, usize)> {
        let block = self.my_block?;
        let span = 1usize << (level + 1);
        let group = block / span;
        let side = usize::from(block % span >= span / 2);
        Some((group, side))
    }

    /// Whether the group merges at this level (both halves exist).
    fn group_merges(&self, level: u64, group: usize) -> bool {
        let span = 1usize << (level + 1);
        // the right half starts here; it exists iff some block lies in it.
        group * span + span / 2 < self.blocks
    }

    /// The 2t dedicated channels of a merging group.
    fn group_channels(&self, group: usize) -> std::ops::Range<usize> {
        (group * 2 * self.t)..((group + 1) * 2 * self.t)
    }

    /// The `2t` broadcasters of a side: lowest-id witnesses of the side's
    /// blocks, in sorted order.
    fn side_broadcasters(&self, level: u64, group: usize, side: usize) -> Vec<usize> {
        let span = 1usize << (level + 1);
        let half = span / 2;
        let start = group * span + side * half;
        let mut all: Vec<usize> = (start..(start + half).min(self.blocks))
            .flat_map(|r| self.witness_sets[r].iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all.truncate(2 * self.t);
        all
    }

    /// The `C` final-phase broadcasters: lowest-id witnesses overall.
    fn final_broadcasters(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self
            .witness_sets
            .iter()
            .flat_map(|w| w.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all.truncate(self.c);
        all
    }

    /// Whether this node does anything (transmit or listen) during the
    /// merge segment `(level, direction)`. Mirrors the `Sleep` arms of
    /// [`TreeFeedbackCore::action`] exactly; none of those arms draw from
    /// the RNG, so skipping inactive segments is bit-identical to sitting
    /// through them.
    fn merge_is_active(&self, level: u64, direction: usize) -> bool {
        let Some((group, side)) = self.my_group(level) else {
            return false; // not a witness: idle until final
        };
        if !self.group_merges(level, group) {
            return false; // unpaired group this level
        }
        if side == direction {
            // Informed side: only the ranked broadcasters act.
            self.side_broadcasters(level, group, side)
                .contains(&self.me)
        } else {
            true // listening side always listens
        }
    }

    /// The smallest local round `>= from` at which [`TreeFeedbackCore::action`]
    /// returns something other than [`Action::Sleep`].
    ///
    /// Leaves that sit out whole merge segments (non-witnesses, unpaired
    /// groups, surplus witnesses) can hand this to
    /// [`Protocol::next_wake`] and skip
    /// those segments entirely. Pure: consults no RNG, so the schedule a
    /// skipping driver produces is bit-identical to a dense one.
    pub fn next_active_round(&self, from: u64) -> u64 {
        let mut r = from;
        loop {
            match self.phase_of(r) {
                // Everyone transmits or listens in the final dissemination.
                TreePhase::Final => return r,
                TreePhase::Merge { level, direction } => {
                    if self.merge_is_active(level, direction) {
                        return r;
                    }
                    // Jump to the start of the next (level, direction)
                    // segment; segments are `merge_reps` rounds long and
                    // aligned to multiples of it.
                    r = (r / self.merge_reps + 1) * self.merge_reps;
                }
            }
        }
    }

    /// The action for `local_round ∈ 0..total_rounds()`.
    pub fn action(&mut self, local_round: u64) -> Action<FameFrame> {
        match self.phase_of(local_round) {
            TreePhase::Merge { level, direction } => {
                let Some((group, side)) = self.my_group(level) else {
                    return Action::Sleep; // not a witness: idle until final
                };
                if !self.group_merges(level, group) {
                    return Action::Sleep; // unpaired group this level
                }
                let channels = self.group_channels(group);
                // direction 0: side 0 informs side 1; direction 1: reverse.
                let informed_side = direction;
                if side == informed_side {
                    let broadcasters = self.side_broadcasters(level, group, side);
                    match broadcasters.iter().position(|&b| b == self.me) {
                        Some(rank) => Action::Transmit {
                            channel: ChannelId(channels.start + rank),
                            frame: FameFrame::FeedbackBitmap {
                                known: self.known.clone(),
                            },
                        },
                        None => Action::Sleep, // surplus witness this merge
                    }
                } else {
                    let pick = self.rng.gen_range(channels.start..channels.end);
                    Action::Listen {
                        channel: ChannelId(pick),
                    }
                }
            }
            TreePhase::Final => {
                let broadcasters = self.final_broadcasters();
                match broadcasters.iter().position(|&b| b == self.me) {
                    Some(rank) => Action::Transmit {
                        channel: ChannelId(rank),
                        frame: FameFrame::FeedbackBitmap {
                            known: self.known.clone(),
                        },
                    },
                    None => Action::Listen {
                        channel: ChannelId(self.rng.gen_range(0..self.c)),
                    },
                }
            }
        }
    }

    /// Feed back what was heard.
    pub fn observe(&mut self, _local_round: u64, reception: Option<Reception<&FameFrame>>) {
        if let Some(Reception {
            frame: Some(FameFrame::FeedbackBitmap { known }),
            ..
        }) = reception
        {
            for (&r, &b) in known {
                if r < self.blocks {
                    self.known.entry(r).or_insert(b);
                }
            }
        }
    }

    /// Finish: the agreed set `D` (blocks whose flag is true).
    pub fn into_disrupted(self) -> BTreeSet<usize> {
        self.known
            .into_iter()
            .filter(|&(_, b)| b)
            .map(|(r, _)| r)
            .collect()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TreePhase {
    Merge { level: u64, direction: usize },
    Final,
}

/// Standalone [`Protocol`] wrapper around [`TreeFeedbackCore`], for running
/// one tree-feedback invocation as its own simulation (the full f-AME
/// protocol instead drives the core inside its phase machine).
///
/// The driver's round number is used as the core's local round, so the
/// simulation must start at round 0. Leaves advertise their sleep segments
/// through [`Protocol::next_wake`] via
/// [`TreeFeedbackCore::next_active_round`], letting the wake-queue driver
/// skip them without changing the execution.
#[derive(Clone, Debug)]
pub struct TreeFeedbackNode {
    core: Option<TreeFeedbackCore>,
    result: Option<BTreeSet<usize>>,
    total: u64,
}

impl TreeFeedbackNode {
    /// Wrap a core; the node runs for [`TreeFeedbackCore::total_rounds`]
    /// driver rounds and then reports done.
    pub fn new(core: TreeFeedbackCore) -> Self {
        let total = core.total_rounds();
        TreeFeedbackNode {
            core: Some(core),
            result: None,
            total,
        }
    }

    /// Driver rounds this invocation takes.
    pub fn total_rounds(&self) -> u64 {
        self.total
    }

    /// The agreed disrupted set, available once the node is done.
    pub fn into_disrupted(self) -> Option<BTreeSet<usize>> {
        self.result
    }
}

impl Protocol for TreeFeedbackNode {
    type Msg = FameFrame;

    fn begin_round(&mut self, round: u64) -> Action<FameFrame> {
        match self.core.as_mut() {
            Some(core) => core.action(round),
            None => Action::Sleep,
        }
    }

    fn end_round(&mut self, round: u64, reception: Option<Reception<&FameFrame>>) {
        // Move the core out for the round so the final round can consume
        // it by value — no unwrap needed, the slot is simply not put back.
        if let Some(mut core) = self.core.take() {
            core.observe(round, reception);
            if round + 1 >= self.total {
                self.result = Some(core.into_disrupted());
            } else {
                self.core = Some(core);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.core.is_none()
    }

    fn next_wake(&self, round: u64) -> u64 {
        match &self.core {
            None => radio_network::NEVER,
            // `next_active_round` never overshoots the final phase (where
            // every node is active), so the node is always visited at
            // round `total - 1` and finishes on schedule.
            Some(core) => core.next_active_round(round + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::FeedbackNode;
    use radio_network::adversaries::{NoAdversary, RandomJammer};
    use radio_network::{NetworkConfig, Simulation};

    fn run_tree(
        params: &Params,
        flags: &[bool],
        adversary: impl radio_network::Adversary<FameFrame>,
        seed: u64,
    ) -> Vec<BTreeSet<usize>> {
        let c = params.c();
        let blocks = flags.len();
        let witness_sets: Vec<Vec<usize>> = (0..blocks)
            .map(|r| (r * c..(r + 1) * c).collect())
            .collect();
        let nodes: Vec<TreeFeedbackNode> = (0..params.n())
            .map(|me| {
                let my_flags: Vec<Option<bool>> = witness_sets
                    .iter()
                    .zip(flags)
                    .map(|(w, &b)| if w.contains(&me) { Some(b) } else { None })
                    .collect();
                TreeFeedbackNode::new(TreeFeedbackCore::new(
                    me,
                    params,
                    witness_sets.clone(),
                    my_flags,
                    seed,
                ))
            })
            .collect();
        let cfg = NetworkConfig::new(c, params.t()).unwrap();
        let mut sim = Simulation::new(cfg, nodes, adversary, seed).unwrap();
        let total = sim.nodes()[0].total_rounds();
        sim.run(total + 2).unwrap();
        sim.into_nodes()
            .into_iter()
            .map(|n| n.into_disrupted().unwrap())
            .collect()
    }

    fn tree_params() -> Params {
        // t = 2, C = 8 = 2t^2: k = C/t = 4 blocks.
        Params::new(80, 2, 8).unwrap()
    }

    fn expected(flags: &[bool]) -> BTreeSet<usize> {
        flags
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(r, _)| r)
            .collect()
    }

    #[test]
    fn tree_agrees_quietly() {
        let p = tree_params();
        let flags = [true, false, true, true];
        for (i, d) in run_tree(&p, &flags, NoAdversary, 5).iter().enumerate() {
            assert_eq!(d, &expected(&flags), "node {i}");
        }
    }

    #[test]
    fn tree_agrees_under_jamming() {
        let p = tree_params();
        let flags = [false, true, false, true];
        for (i, d) in run_tree(&p, &flags, RandomJammer::new(3), 7)
            .iter()
            .enumerate()
        {
            assert_eq!(d, &expected(&flags), "node {i}");
        }
    }

    #[test]
    fn tree_handles_non_power_of_two() {
        let p = tree_params();
        let flags = [true, false, true];
        for (i, d) in run_tree(&p, &flags, RandomJammer::new(9), 11)
            .iter()
            .enumerate()
        {
            assert_eq!(d, &expected(&flags), "node {i}");
        }
    }

    /// The asymptotic point of the tree: rounds grow like `log²n`, not
    /// `k·log n`. At small `k` the constants favour the sequential loop;
    /// the crossover arrives as `k = C/t` grows (here `t = 16`, `k = 32`).
    /// Pure `Params` math — the correctness sims above cover behaviour.
    #[test]
    fn tree_is_cheaper_than_sequential_for_many_blocks() {
        let t = 16;
        let c = 2 * t * t;
        let n = Params::min_nodes(t, c);
        let p = Params::new(n, t, c).unwrap();
        assert_eq!(p.feedback_mode(), crate::params::FeedbackMode::Tree);
        let k = p.proposal_cap();
        assert_eq!(k, c / t);
        let tree = p.feedback_rounds(k);
        let sequential = (k * p.feedback_reps()) as u64;
        assert!(
            tree < sequential,
            "tree {tree} !< sequential {sequential} at t={t}, k={k}"
        );
    }

    /// `FeedbackNode` and the tree core share the same witness-set
    /// contract; constructing both from one partition must succeed.
    #[test]
    fn tree_and_sequential_share_witness_contract() {
        let p = tree_params();
        let k = 4;
        let sets: Vec<Vec<usize>> = (0..k).map(|r| (r * 8..(r + 1) * 8).collect()).collect();
        let _ = TreeFeedbackCore::new(79, &p, sets.clone(), vec![None; k], 1);
        let _ = FeedbackNode::new(crate::feedback::FeedbackCore::new(
            79,
            &p,
            sets,
            vec![None; k],
            1,
        ));
    }

    /// `next_active_round` must agree exactly with where `action` sleeps:
    /// for every node and every local round, the advertised next wake is
    /// the first round at which `action` returns a non-Sleep action.
    #[test]
    fn next_active_round_matches_action_sleep_pattern() {
        let p = tree_params();
        let blocks = 3; // non-power-of-two exercises unpaired groups
        let c = p.c();
        let witness_sets: Vec<Vec<usize>> = (0..blocks)
            .map(|r| (r * c..(r + 1) * c).collect())
            .collect();
        for me in 0..p.n() {
            let my_flags: Vec<Option<bool>> = witness_sets
                .iter()
                .map(|w| if w.contains(&me) { Some(true) } else { None })
                .collect();
            let core = TreeFeedbackCore::new(me, &p, witness_sets.clone(), my_flags, 3);
            let total = core.total_rounds();
            // Probe each round on a fresh clone so RNG draws in earlier
            // rounds cannot shift later actions.
            let active: Vec<bool> = (0..total)
                .map(|r| !matches!(core.clone().action(r), Action::Sleep))
                .collect();
            for r in 0..total {
                let expected = (r..total).find(|&x| active[x as usize]).unwrap();
                assert_eq!(
                    core.next_active_round(r),
                    expected,
                    "node {me}, from round {r}"
                );
            }
        }
    }

    #[test]
    fn levels_math() {
        assert_eq!(levels(1), 0);
        assert_eq!(levels(2), 1);
        assert_eq!(levels(3), 2);
        assert_eq!(levels(4), 2);
        assert_eq!(levels(5), 3);
        assert_eq!(levels(8), 3);
    }
}
