//! Execution traces: the complete, per-round record of everything that
//! happened on the air.
//!
//! Traces serve three masters:
//! * the **adversary**, which (per the model) learns all completed rounds;
//! * **tests**, which assert invariants over executions;
//! * **experiments**, which mine traces for statistics.

use std::collections::VecDeque;

use crate::adversary::Emission;
use crate::node::{ChannelId, NodeId};

/// How much history a [`Trace`] retains.
///
/// Long experiments (the group-key setup runs for `Θ(n·t³·log n)` rounds)
/// would otherwise accumulate gigabytes of per-round records.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceRetention {
    /// Keep every round (default; right for tests and short runs).
    #[default]
    All,
    /// Keep only the most recent `k` rounds; older records are dropped but
    /// aggregate statistics remain exact.
    LastRounds(usize),
    /// Keep no per-round records at all. The engine then skips building
    /// records entirely — the allocation-free hot path for multi-trial
    /// experiment sweeps. Aggregate [`Stats`](crate::Stats) remain exact,
    /// but adversaries that mine the trace see an empty history.
    None,
}

impl TraceRetention {
    /// `true` if this policy stores per-round records at all.
    pub fn keeps_records(&self) -> bool {
        !matches!(self, TraceRetention::None)
    }
}

/// Everything that happened in one round, in struct-of-arrays layout.
///
/// Every vector is sized by *activity* — the number of transmitters,
/// listeners, adversary emissions, and delivered frames that round —
/// never by the channel count or the node population. In particular the
/// delivered set is **sparse**: only channels that actually delivered a
/// frame appear, sorted ascending by channel (so a record of a quiet
/// round over a million idle channels is a handful of empty vectors).
/// [`RoundRecord::delivered_dense`] reconstructs the dense per-channel
/// view on demand.
///
/// Invariants (upheld by the engine and [`RoundRecord::from_parts`];
/// consumers constructing records by hand must uphold them too):
/// `tx_nodes` / `tx_channels` / `tx_frames` are parallel and grouped by
/// channel (ascending channel, node order within a channel);
/// `listener_nodes` / `listener_channels` are parallel, in node order;
/// `adv_channels` / `adv_emissions` are parallel, in the adversary's
/// emission order; `delivered_channels` / `delivered_frames` are
/// parallel with `delivered_channels` strictly ascending.
#[derive(PartialEq, Eq, Debug)]
pub struct RoundRecord<M> {
    /// Round number (0-based).
    pub round: u64,
    /// Number of channels in the round — the dense width
    /// [`RoundRecord::delivered_dense`] reconstructs.
    pub channels: usize,
    /// Honest transmitters, grouped by channel.
    pub tx_nodes: Vec<NodeId>,
    /// Channel of each honest transmission (parallel to `tx_nodes`).
    pub tx_channels: Vec<ChannelId>,
    /// Frame of each honest transmission (parallel to `tx_nodes`).
    pub tx_frames: Vec<M>,
    /// Honest listeners, in node order.
    pub listener_nodes: Vec<NodeId>,
    /// Channel each listener tuned to (parallel to `listener_nodes`).
    pub listener_channels: Vec<ChannelId>,
    /// Channels the adversary emitted on, in emission order.
    pub adv_channels: Vec<ChannelId>,
    /// The adversary's emissions (parallel to `adv_channels`).
    pub adv_emissions: Vec<Emission<M>>,
    /// Channels on which a frame was delivered, strictly ascending.
    pub delivered_channels: Vec<ChannelId>,
    /// The delivered frames (parallel to `delivered_channels`).
    pub delivered_frames: Vec<M>,
    /// Listeners whose reception **diverged** from their channel's wire
    /// outcome — only populated by per-listener channel models (lossy,
    /// geometric); always empty under the ideal model, so pre-model
    /// records and trace lines are unchanged. Ordered by (channel
    /// ascending, node ascending).
    pub reception_nodes: Vec<NodeId>,
    /// What each diverging listener heard (`None` = nothing; parallel to
    /// `reception_nodes`).
    pub reception_frames: Vec<Option<M>>,
}

/// Hand-rolled so that [`Clone::clone_from`] reuses the destination's
/// vector capacities field by field — the engine's record arena and
/// [`Trace::push_ref`]'s bounded-window recycling depend on it to keep
/// the retention-on round loop allocation-free at steady state (a derived
/// `Clone` would fall back to allocate-and-drop).
impl<M: Clone> Clone for RoundRecord<M> {
    fn clone(&self) -> Self {
        RoundRecord {
            round: self.round,
            channels: self.channels,
            tx_nodes: self.tx_nodes.clone(),
            tx_channels: self.tx_channels.clone(),
            tx_frames: self.tx_frames.clone(),
            listener_nodes: self.listener_nodes.clone(),
            listener_channels: self.listener_channels.clone(),
            adv_channels: self.adv_channels.clone(),
            adv_emissions: self.adv_emissions.clone(),
            delivered_channels: self.delivered_channels.clone(),
            delivered_frames: self.delivered_frames.clone(),
            reception_nodes: self.reception_nodes.clone(),
            reception_frames: self.reception_frames.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.round = source.round;
        self.channels = source.channels;
        self.tx_nodes.clone_from(&source.tx_nodes);
        self.tx_channels.clone_from(&source.tx_channels);
        self.tx_frames.clone_from(&source.tx_frames);
        self.listener_nodes.clone_from(&source.listener_nodes);
        self.listener_channels.clone_from(&source.listener_channels);
        self.adv_channels.clone_from(&source.adv_channels);
        self.adv_emissions.clone_from(&source.adv_emissions);
        self.delivered_channels
            .clone_from(&source.delivered_channels);
        self.delivered_frames.clone_from(&source.delivered_frames);
        self.reception_nodes.clone_from(&source.reception_nodes);
        self.reception_frames.clone_from(&source.reception_frames);
    }
}

impl<M> Default for RoundRecord<M> {
    fn default() -> Self {
        RoundRecord::empty()
    }
}

impl<M> RoundRecord<M> {
    /// An all-empty record of round 0 over zero channels — the warm-up
    /// state of the engine's record arena.
    pub fn empty() -> Self {
        RoundRecord {
            round: 0,
            channels: 0,
            tx_nodes: Vec::new(),
            tx_channels: Vec::new(),
            tx_frames: Vec::new(),
            listener_nodes: Vec::new(),
            listener_channels: Vec::new(),
            adv_channels: Vec::new(),
            adv_emissions: Vec::new(),
            delivered_channels: Vec::new(),
            delivered_frames: Vec::new(),
            reception_nodes: Vec::new(),
            reception_frames: Vec::new(),
        }
    }

    /// Build a record from the dense array-of-structs shape: a
    /// transmission list, a listener list, the adversary's emission list,
    /// and a per-channel `Option<M>` delivery vector (index = channel,
    /// length = channel count). The convenient constructor for tests and
    /// reference implementations; the engine builds SoA fields directly.
    pub fn from_parts(
        round: u64,
        transmissions: Vec<(NodeId, ChannelId, M)>,
        listeners: Vec<(NodeId, ChannelId)>,
        adversary: Vec<(ChannelId, Emission<M>)>,
        delivered: Vec<Option<M>>,
    ) -> Self {
        let mut record = RoundRecord::empty();
        record.round = round;
        record.channels = delivered.len();
        for (node, channel, frame) in transmissions {
            record.tx_nodes.push(node);
            record.tx_channels.push(channel);
            record.tx_frames.push(frame);
        }
        for (node, channel) in listeners {
            record.listener_nodes.push(node);
            record.listener_channels.push(channel);
        }
        for (channel, emission) in adversary {
            record.adv_channels.push(channel);
            record.adv_emissions.push(emission);
        }
        for (ch, frame) in delivered.into_iter().enumerate() {
            if let Some(frame) = frame {
                record.delivered_channels.push(ChannelId(ch));
                record.delivered_frames.push(frame);
            }
        }
        record
    }

    /// Honest transmissions `(node, channel, frame)`, grouped by channel.
    pub fn transmissions(&self) -> impl Iterator<Item = (NodeId, ChannelId, &M)> + '_ {
        self.tx_nodes
            .iter()
            .zip(&self.tx_channels)
            .zip(&self.tx_frames)
            .map(|((&node, &channel), frame)| (node, channel, frame))
    }

    /// Honest listeners `(node, channel)`, in node order.
    pub fn listeners(&self) -> impl Iterator<Item = (NodeId, ChannelId)> + '_ {
        self.listener_nodes
            .iter()
            .zip(&self.listener_channels)
            .map(|(&node, &channel)| (node, channel))
    }

    /// The adversary's emissions `(channel, emission)` this round.
    pub fn adversary(&self) -> impl Iterator<Item = (ChannelId, &Emission<M>)> + '_ {
        self.adv_channels
            .iter()
            .zip(&self.adv_emissions)
            .map(|(&channel, emission)| (channel, emission))
    }

    /// The diverging receptions `(node, heard)` — listeners whose
    /// reception differed from their channel's wire outcome (per-listener
    /// channel models only; empty under the ideal model).
    pub fn receptions(&self) -> impl Iterator<Item = (NodeId, Option<&M>)> + '_ {
        self.reception_nodes
            .iter()
            .zip(&self.reception_frames)
            .map(|(&node, frame)| (node, frame.as_ref()))
    }

    /// The frame delivered on `channel`, if any — `O(log a)` in the
    /// number of *delivering* channels, independent of the channel count.
    pub fn delivered_on(&self, channel: ChannelId) -> Option<&M> {
        self.delivered_channels
            .binary_search(&channel)
            .ok()
            .map(|i| &self.delivered_frames[i])
    }

    /// The dense per-channel delivery view (`None` = silence/collision),
    /// reconstructed from the sparse delivered set by a two-pointer walk
    /// over all [`RoundRecord::channels`] channels.
    pub fn delivered_dense(&self) -> impl Iterator<Item = Option<&M>> + '_ {
        let mut next = 0usize;
        (0..self.channels).map(move |ch| {
            if self
                .delivered_channels
                .get(next)
                .is_some_and(|c| c.index() == ch)
            {
                let frame = &self.delivered_frames[next];
                next += 1;
                Some(frame)
            } else {
                None
            }
        })
    }

    /// Channels on which at least one honest node transmitted.
    pub fn busy_channels(&self) -> Vec<ChannelId> {
        let mut chans = self.tx_channels.clone();
        chans.sort_unstable();
        chans.dedup();
        chans
    }

    /// `true` if the adversary delivered a spoofed frame on `channel` —
    /// i.e. it spoofed there and no honest node transmitted on it.
    pub fn spoof_delivered(&self, channel: ChannelId) -> bool {
        let adversary_spoofed = self.adversary().any(|(c, e)| c == channel && e.is_spoof());
        let honest_busy = self.tx_channels.contains(&channel);
        adversary_spoofed && !honest_busy && self.delivered_on(channel).is_some()
    }
}

/// The record of an execution: an ordered collection of [`RoundRecord`]s
/// (subject to [`TraceRetention`]).
#[derive(Clone, Debug)]
pub struct Trace<M> {
    retention: TraceRetention,
    records: VecDeque<RoundRecord<M>>,
    completed_rounds: u64,
}

impl<M> Trace<M> {
    /// An empty trace with the given retention policy.
    pub fn new(retention: TraceRetention) -> Self {
        Trace {
            retention,
            records: VecDeque::new(),
            completed_rounds: 0,
        }
    }

    /// Total number of completed rounds (independent of retention).
    pub fn completed_rounds(&self) -> u64 {
        self.completed_rounds
    }

    /// The retention policy this trace applies on [`Trace::push`].
    pub fn retention(&self) -> TraceRetention {
        self.retention
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &RoundRecord<M>> {
        self.records.iter()
    }

    /// The most recent retained record, if any.
    pub fn last(&self) -> Option<&RoundRecord<M>> {
        self.records.back()
    }

    /// The record for round `round`, if still retained.
    pub fn round(&self, round: u64) -> Option<&RoundRecord<M>> {
        // Records are contiguous, so index arithmetic suffices.
        let first = self.records.front()?.round;
        if round < first {
            return None;
        }
        self.records.get((round - first) as usize)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no record is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append the record of the next round, applying the retention
    /// policy. Records must arrive in round order (starting at the
    /// current [`Trace::completed_rounds`]).
    pub fn push(&mut self, record: RoundRecord<M>) {
        debug_assert_eq!(record.round, self.completed_rounds, "trace out of order");
        self.completed_rounds += 1;
        match self.retention {
            TraceRetention::None => {}
            TraceRetention::All => self.records.push_back(record),
            TraceRetention::LastRounds(k) => {
                self.records.push_back(record);
                while self.records.len() > k {
                    self.records.pop_front();
                }
            }
        }
    }

    /// Append the record of the next round *by reference*, applying the
    /// retention policy — the arena-friendly sibling of [`Trace::push`]
    /// for a caller holding only a `&RoundRecord`.
    ///
    /// Under [`TraceRetention::LastRounds`] at capacity, the oldest
    /// retained record is **recycled**: popped, overwritten in place via
    /// [`Clone::clone_from`] (which reuses its vector capacities), and
    /// pushed back — so a warm bounded window retains records without
    /// allocating, as the counting-allocator test in `tests/zero_alloc.rs`
    /// verifies.
    pub fn push_ref(&mut self, record: &RoundRecord<M>)
    where
        M: Clone,
    {
        debug_assert_eq!(record.round, self.completed_rounds, "trace out of order");
        self.completed_rounds += 1;
        match self.retention {
            TraceRetention::None => {}
            TraceRetention::All => self.records.push_back(record.clone()),
            TraceRetention::LastRounds(0) => {}
            TraceRetention::LastRounds(k) => {
                if self.records.len() >= k {
                    let mut recycled = self.records.pop_front().expect("len >= k >= 1");
                    while self.records.len() >= k {
                        self.records.pop_front();
                    }
                    recycled.clone_from(record);
                    self.records.push_back(recycled);
                } else {
                    self.records.push_back(record.clone());
                }
            }
        }
    }

    /// Append the record of the next round by **swap**: the retained copy
    /// takes `record`'s buffers wholesale, and `record` gets the evicted
    /// record's (equally warm) buffers back in exchange.
    ///
    /// This is the zero-copy sibling of [`Trace::push_ref`] for the
    /// engine's record arena: under [`TraceRetention::LastRounds`] at
    /// capacity, retaining a round costs two `memswap`s of vector
    /// headers — no element copies at all — and the arena keeps
    /// warm-capacity buffers to rebuild into next round. Policies that
    /// cannot hand buffers back ([`TraceRetention::All`] must keep
    /// growing) fall back to cloning, leaving `record` untouched.
    // detlint: deny-alloc(start) trace retention steady state (push_swap at capacity / note_round)
    pub fn push_swap(&mut self, record: &mut RoundRecord<M>)
    where
        M: Clone,
    {
        debug_assert_eq!(record.round, self.completed_rounds, "trace out of order");
        match self.retention {
            TraceRetention::LastRounds(k) if k > 0 && self.records.len() >= k => {
                self.completed_rounds += 1;
                let mut recycled = self.records.pop_front().expect("len >= k >= 1");
                while self.records.len() >= k {
                    self.records.pop_front();
                }
                std::mem::swap(&mut recycled, record);
                self.records.push_back(recycled);
            }
            // A window still filling (or All retention) clones via
            // push_ref — legitimately allocating, outside this region's
            // steady-state claim.
            _ => self.push_ref(record),
        }
    }

    /// Count a completed round without storing a record (the
    /// [`TraceRetention::None`] fast path — the engine never builds the
    /// record in the first place).
    pub fn note_round(&mut self) {
        self.completed_rounds += 1;
    }
    // detlint: deny-alloc(end)
}

impl<M> Default for Trace<M> {
    fn default() -> Self {
        Trace::new(TraceRetention::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: u64) -> RoundRecord<u32> {
        RoundRecord::from_parts(
            round,
            vec![(NodeId(0), ChannelId(0), round as u32)],
            vec![(NodeId(1), ChannelId(0))],
            vec![],
            vec![Some(round as u32), None],
        )
    }

    #[test]
    fn retains_all_by_default() {
        let mut trace = Trace::default();
        for r in 0..100 {
            trace.push(record(r));
        }
        assert_eq!(trace.len(), 100);
        assert_eq!(trace.completed_rounds(), 100);
        assert_eq!(trace.round(57).unwrap().round, 57);
    }

    #[test]
    fn bounded_retention_drops_oldest() {
        let mut trace = Trace::new(TraceRetention::LastRounds(10));
        for r in 0..100 {
            trace.push(record(r));
        }
        assert_eq!(trace.len(), 10);
        assert_eq!(trace.completed_rounds(), 100);
        assert!(trace.round(89).is_none());
        assert_eq!(trace.round(90).unwrap().round, 90);
        assert_eq!(trace.round(99).unwrap().round, 99);
        assert!(trace.round(100).is_none());
    }

    #[test]
    fn push_ref_matches_push_across_retentions() {
        for retention in [
            TraceRetention::All,
            TraceRetention::LastRounds(0),
            TraceRetention::LastRounds(1),
            TraceRetention::LastRounds(10),
            TraceRetention::None,
        ] {
            let mut owned = Trace::new(retention);
            let mut by_ref = Trace::new(retention);
            for r in 0..40 {
                owned.push(record(r));
                by_ref.push_ref(&record(r));
            }
            assert_eq!(owned.completed_rounds(), by_ref.completed_rounds());
            assert_eq!(owned.len(), by_ref.len(), "{retention:?}");
            assert!(owned.records().zip(by_ref.records()).all(|(a, b)| a == b));
        }
    }

    #[test]
    fn push_swap_matches_push_and_returns_warm_buffers() {
        for retention in [
            TraceRetention::All,
            TraceRetention::LastRounds(0),
            TraceRetention::LastRounds(1),
            TraceRetention::LastRounds(10),
            TraceRetention::None,
        ] {
            let mut owned = Trace::new(retention);
            let mut by_swap = Trace::new(retention);
            let mut arena = record(0);
            for r in 0..40 {
                owned.push(record(r));
                // Rebuild the "arena" record in place, like the engine.
                arena.clone_from(&record(r));
                by_swap.push_swap(&mut arena);
                // Whatever buffers came back, the arena record must be a
                // valid RoundRecord (the engine clears + refills next
                // round); at window capacity they are the evicted
                // round's, otherwise unchanged.
                if let TraceRetention::LastRounds(k) = retention {
                    if k > 0 && r as usize >= k {
                        assert_eq!(arena.round, r - k as u64, "{retention:?}");
                    }
                }
            }
            assert_eq!(owned.completed_rounds(), by_swap.completed_rounds());
            assert_eq!(owned.len(), by_swap.len(), "{retention:?}");
            assert!(owned.records().zip(by_swap.records()).all(|(a, b)| a == b));
        }
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let mut dst = record(0);
        dst.tx_nodes.reserve(64);
        let src = record(7);
        dst.clone_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn from_parts_accessors_roundtrip() {
        let rec: RoundRecord<u32> = RoundRecord::from_parts(
            3,
            vec![(NodeId(4), ChannelId(1), 10), (NodeId(7), ChannelId(2), 20)],
            vec![(NodeId(0), ChannelId(2)), (NodeId(5), ChannelId(0))],
            vec![(ChannelId(0), Emission::Noise)],
            vec![None, Some(10), Some(20), None],
        );
        assert_eq!(rec.channels, 4);
        assert_eq!(
            rec.transmissions().collect::<Vec<_>>(),
            vec![
                (NodeId(4), ChannelId(1), &10),
                (NodeId(7), ChannelId(2), &20)
            ]
        );
        assert_eq!(
            rec.listeners().collect::<Vec<_>>(),
            vec![(NodeId(0), ChannelId(2)), (NodeId(5), ChannelId(0))]
        );
        assert_eq!(
            rec.adversary().collect::<Vec<_>>(),
            vec![(ChannelId(0), &Emission::Noise)]
        );
        assert_eq!(rec.delivered_on(ChannelId(0)), None);
        assert_eq!(rec.delivered_on(ChannelId(1)), Some(&10));
        assert_eq!(rec.delivered_on(ChannelId(2)), Some(&20));
        assert_eq!(rec.delivered_on(ChannelId(3)), None);
        assert_eq!(
            rec.delivered_dense().collect::<Vec<_>>(),
            vec![None, Some(&10), Some(&20), None]
        );
    }

    #[test]
    fn spoof_detection_requires_idle_channel() {
        // Honest node transmits on ch0 too => not a delivered spoof.
        let rec: RoundRecord<u32> = RoundRecord::from_parts(
            0,
            vec![(NodeId(0), ChannelId(0), 0)],
            vec![(NodeId(1), ChannelId(0))],
            vec![(ChannelId(0), Emission::Spoof(9))],
            vec![Some(0), None],
        );
        assert!(!rec.spoof_delivered(ChannelId(0)));

        let rec2: RoundRecord<u32> = RoundRecord::from_parts(
            0,
            vec![],
            vec![(NodeId(1), ChannelId(1))],
            vec![(ChannelId(1), Emission::Spoof(9))],
            vec![None, Some(9)],
        );
        assert!(rec2.spoof_delivered(ChannelId(1)));
    }

    #[test]
    fn busy_channels_dedup_sorted() {
        let rec: RoundRecord<u32> = RoundRecord::from_parts(
            0,
            vec![
                (NodeId(0), ChannelId(2), 1),
                (NodeId(1), ChannelId(0), 2),
                (NodeId(2), ChannelId(2), 3),
            ],
            vec![],
            vec![],
            vec![None, None, None],
        );
        assert_eq!(rec.busy_channels(), vec![ChannelId(0), ChannelId(2)]);
    }
}
