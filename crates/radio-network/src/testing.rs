//! Fixtures and the reference round oracle for tests, benches, and doc
//! examples.
//!
//! * [`BeaconNode`] — a toy protocol, so the engine can be exercised and
//!   demonstrated without pulling in the full `fame` stack.
//! * [`ReferenceNetwork`] — the workspace's only second implementation of
//!   the §3 round semantics, written for clarity rather than speed. The
//!   engine's proptests (`tests/arena_equivalence.rs`), `replay --engine
//!   dense`, and the `baseline_last64` / `dense_n*` bench rows all run
//!   against it.
//! * [`to_sparse`] — turns a dense one-action-per-node slice into the
//!   awake `(node, action)` pairs [`Network::resolve_round_sparse`]
//!   takes.
//!
//! None of this is part of the paper.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::adversary::{AdversaryAction, Emission};
use crate::channel_model::{
    ChannelContext, ChannelModel, ChannelVerdict, EmissionKind, ListenerOutcome, TxSpan,
};
use crate::engine::{NetworkConfig, OutcomeView};
use crate::error::EngineError;
use crate::node::{Action, ChannelId, NodeId, Protocol, Reception};
use crate::sink::TraceSink;
use crate::stats::Stats;
use crate::trace::{RoundRecord, Trace};

#[cfg(doc)]
use crate::engine::Network;

/// The awake `(node, action)` pairs of a dense action slice (`actions[i]`
/// is node `i`'s action): every non-[`Action::Sleep`] entry, in node
/// order — the input shape of [`Network::resolve_round_sparse`].
pub fn to_sparse<M: Clone>(actions: &[Action<M>]) -> Vec<(NodeId, Action<M>)> {
    actions
        .iter()
        .enumerate()
        .filter(|(_, a)| !matches!(a, Action::Sleep))
        .map(|(i, a)| (NodeId(i), a.clone()))
        .collect()
}

/// How a single channel resolved in one round — the owned result type of
/// [`ReferenceNetwork::resolve_round_dense`]. Convert the engine's borrowed
/// [`OutcomeView`] with `ChannelOutcome::from` to compare the two.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChannelOutcome<M> {
    /// Nobody (honest or adversarial) transmitted.
    Idle,
    /// One honest transmitter's frame was delivered (the only one under
    /// the ideal model; the captured one under `Capture`).
    Delivered {
        /// The transmitting node.
        from: NodeId,
        /// The delivered frame.
        frame: M,
    },
    /// The adversary's forged frame was delivered.
    SpoofDelivered {
        /// The forged frame.
        frame: M,
    },
    /// Two or more transmitters (any mix of honest/adversarial): all lost.
    Collision {
        /// Honest transmitters involved, in node order.
        honest: Vec<NodeId>,
        /// `true` if the adversary contributed to the collision.
        adversary: bool,
    },
    /// The adversary emitted pure noise on an otherwise idle channel
    /// (indistinguishable from silence for listeners).
    NoiseOnly,
}

impl<M: Clone> ChannelOutcome<M> {
    /// The frame the channel delivered (`None` = silence/collision).
    pub fn heard(&self) -> Option<M> {
        match self {
            ChannelOutcome::Delivered { frame, .. } | ChannelOutcome::SpoofDelivered { frame } => {
                Some(frame.clone())
            }
            _ => None,
        }
    }
}

impl<M: Clone> From<OutcomeView<'_, M>> for ChannelOutcome<M> {
    fn from(view: OutcomeView<'_, M>) -> Self {
        match view {
            OutcomeView::Idle => ChannelOutcome::Idle,
            OutcomeView::NoiseOnly => ChannelOutcome::NoiseOnly,
            OutcomeView::Delivered { from, frame } => ChannelOutcome::Delivered {
                from,
                frame: frame.clone(),
            },
            OutcomeView::SpoofDelivered { frame } => ChannelOutcome::SpoofDelivered {
                frame: frame.clone(),
            },
            OutcomeView::Collision { honest, adversary } => ChannelOutcome::Collision {
                honest: honest.nodes().collect(),
                adversary,
            },
        }
    }
}

/// The reference round oracle: the §3 channel rule written out plainly,
/// with per-channel `Vec`s and owned results, to check
/// [`Network`] against.
///
/// It shares no resolution code with the engine — only the public data
/// types, the configured [`ChannelModel`], the [`Trace`] it retains, and
/// the optional [`TraceSink`] it shows records to — and reproduces the
/// engine's observable behaviour exactly: the same [`ChannelOutcome`]s,
/// the same [`Stats`], the same [`RoundRecord`]s (diverging receptions
/// included), and the same [`EngineError`]s, checked in the same order.
/// Every round allocates; keep it off hot paths.
#[derive(Debug)]
pub struct ReferenceNetwork<M> {
    cfg: NetworkConfig,
    model: Box<dyn ChannelModel>,
    model_seed: u64,
    round: u64,
    stats: Stats,
    trace: Trace<M>,
    sink: Option<Box<dyn TraceSink<M>>>,
    /// What each listener of the last resolved round received.
    receptions: Vec<(NodeId, Option<M>)>,
}

impl<M: Clone + std::fmt::Debug + Send + 'static> ReferenceNetwork<M> {
    /// A fresh oracle at round 0, retaining history per the config's
    /// retention, as [`Network::new`] does.
    pub fn new(cfg: NetworkConfig) -> Self {
        ReferenceNetwork::assemble(cfg, None)
    }

    /// Like [`ReferenceNetwork::new`], also showing every finished round
    /// to `sink`, as [`Network::with_sink`] does.
    pub fn with_sink(cfg: NetworkConfig, sink: Box<dyn TraceSink<M>>) -> Self {
        ReferenceNetwork::assemble(cfg, Some(sink))
    }

    fn assemble(cfg: NetworkConfig, sink: Option<Box<dyn TraceSink<M>>>) -> Self {
        let model = cfg.channel_model().build();
        ReferenceNetwork {
            trace: Trace::new(cfg.retention()),
            cfg,
            model,
            model_seed: 0,
            round: 0,
            stats: Stats::default(),
            sink,
            receptions: Vec::new(),
        }
    }

    /// Set the channel model's base seed (see
    /// [`Network::seed_channel_model`]).
    pub fn seed_channel_model(&mut self, seed: u64) {
        self.model_seed = seed;
    }

    /// The next round to be resolved.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The execution history retained per the config's retention.
    pub fn trace(&self) -> &Trace<M> {
        &self.trace
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// What each listener of the last resolved round received, in node
    /// order — the oracle's counterpart of
    /// [`RoundView::reception_for`](crate::RoundView::reception_for).
    pub fn receptions(&self) -> &[(NodeId, Option<M>)] {
        &self.receptions
    }

    /// Resolve one round. `actions[i]` is node `i`'s action; the result
    /// holds one outcome per channel, indexed by channel id.
    ///
    /// # Errors
    ///
    /// The engine's errors, checked in the engine's order: an honest
    /// [`EngineError::ChannelOutOfRange`] (first offender in node order),
    /// then [`EngineError::AdversaryBudgetExceeded`], then per adversary
    /// emission in order [`EngineError::AdversaryChannelOutOfRange`] or
    /// [`EngineError::AdversaryDuplicateChannel`]. A rejected round
    /// changes nothing.
    pub fn resolve_round_dense(
        &mut self,
        actions: &[Action<M>],
        adversary: &AdversaryAction<M>,
    ) -> Result<Vec<ChannelOutcome<M>>, EngineError> {
        let channels = self.cfg.channels();
        let round = self.round;

        // Gather: each channel's honest transmitters, and all listeners,
        // in node order.
        let mut transmitters: Vec<Vec<(NodeId, M)>> = vec![Vec::new(); channels];
        let mut listeners: Vec<(NodeId, ChannelId)> = Vec::new();
        for (i, action) in actions.iter().enumerate() {
            let node = NodeId(i);
            let channel = match action {
                Action::Transmit { channel, .. } | Action::Listen { channel } => *channel,
                Action::Sleep => continue,
            };
            if channel.index() >= channels {
                return Err(EngineError::ChannelOutOfRange {
                    node,
                    channel,
                    channels,
                });
            }
            match action {
                Action::Transmit { frame, .. } => {
                    transmitters[channel.index()].push((node, frame.clone()));
                }
                _ => listeners.push((node, channel)),
            }
        }

        // The adversary: budget first, then each emission's channel.
        if adversary.len() > self.cfg.budget() {
            return Err(EngineError::AdversaryBudgetExceeded {
                used: adversary.len(),
                budget: self.cfg.budget(),
                round,
            });
        }
        let mut emissions: Vec<Option<&Emission<M>>> = vec![None; channels];
        for (channel, emission) in &adversary.transmissions {
            if channel.index() >= channels {
                return Err(EngineError::AdversaryChannelOutOfRange {
                    channel: *channel,
                    channels,
                });
            }
            if emissions[channel.index()].is_some() {
                return Err(EngineError::AdversaryDuplicateChannel {
                    channel: *channel,
                    round,
                });
            }
            emissions[channel.index()] = Some(emission);
        }

        // What the channel model sees of each channel: its transmitters'
        // node ids, spanned in full by the identity positions.
        let tx_nodes: Vec<Vec<u32>> = transmitters
            .iter()
            .map(|txs| txs.iter().map(|(node, _)| node.index() as u32).collect())
            .collect();
        let widest = tx_nodes.iter().map(Vec::len).max().unwrap_or(0);
        let positions: Vec<u32> = (0..widest as u32).collect();
        let context = |ch: usize| ChannelContext {
            seed: self.model_seed,
            round,
            channel: ChannelId(ch),
            transmitters: TxSpan::new(&positions[..tx_nodes[ch].len()], &tx_nodes[ch]),
            adversary: emissions[ch].map(|emission| match emission {
                Emission::Noise => EmissionKind::Noise,
                Emission::Spoof(_) => EmissionKind::Spoof,
            }),
        };
        let spoof_on = |ch: usize| match emissions[ch] {
            Some(Emission::Spoof(frame)) => Some(frame.clone()),
            _ => None,
        };

        // Resolve: the §3 rule, unless the model's verdict overrides it.
        let outcomes: Vec<ChannelOutcome<M>> = (0..channels)
            .map(|ch| {
                let txs = &transmitters[ch];
                let collision = || ChannelOutcome::Collision {
                    honest: txs.iter().map(|(node, _)| *node).collect(),
                    adversary: emissions[ch].is_some(),
                };
                let classic = match (txs.len(), emissions[ch]) {
                    (0, None) => ChannelOutcome::Idle,
                    (0, Some(Emission::Noise)) => ChannelOutcome::NoiseOnly,
                    (0, Some(Emission::Spoof(frame))) => ChannelOutcome::SpoofDelivered {
                        frame: frame.clone(),
                    },
                    (1, None) => ChannelOutcome::Delivered {
                        from: txs[0].0,
                        frame: txs[0].1.clone(),
                    },
                    _ => collision(),
                };
                match self.model.resolve(&context(ch)) {
                    ChannelVerdict::Classic => classic,
                    ChannelVerdict::DeliverHonest { idx } => ChannelOutcome::Delivered {
                        from: txs[idx].0,
                        frame: txs[idx].1.clone(),
                    },
                    ChannelVerdict::DeliverAdversary => match spoof_on(ch) {
                        Some(frame) => ChannelOutcome::SpoofDelivered { frame },
                        None => classic,
                    },
                    ChannelVerdict::Collision => collision(),
                }
            })
            .collect();

        // What each listener receives; the model's per-listener answers
        // that differ from "the channel's outcome" are the record's
        // diverging receptions, ordered by (channel, node).
        let mut receptions: Vec<(NodeId, Option<M>)> = Vec::new();
        let mut diverging: Vec<(ChannelId, NodeId, Option<M>)> = Vec::new();
        for &(node, channel) in &listeners {
            let ch = channel.index();
            let answer = if self.model.diverges() {
                self.model.listener_outcome(&context(ch), node)
            } else {
                ListenerOutcome::Channel
            };
            let heard = match answer {
                ListenerOutcome::Channel => outcomes[ch].heard(),
                ListenerOutcome::Nothing => None,
                ListenerOutcome::Honest { idx } => Some(transmitters[ch][idx].1.clone()),
                ListenerOutcome::Adversary => spoof_on(ch),
            };
            if answer != ListenerOutcome::Channel {
                diverging.push((channel, node, heard.clone()));
            }
            receptions.push((node, heard));
        }
        diverging.sort_by_key(|&(channel, node, _)| (channel, node));

        // Stats.
        self.stats.rounds += 1;
        self.stats.adversary_transmissions += adversary.len() as u64;
        for (ch, outcome) in outcomes.iter().enumerate() {
            let involved = transmitters[ch].len() as u64;
            self.stats.honest_transmissions += involved;
            match outcome {
                ChannelOutcome::Delivered { .. } => {
                    self.stats.honest_deliveries += 1;
                    self.stats.collisions += involved - 1;
                }
                ChannelOutcome::SpoofDelivered { .. } => {
                    self.stats.collisions += involved;
                    if involved > 0 {
                        self.stats.jams_effective += 1;
                    }
                    if listeners.iter().any(|&(_, l)| l.index() == ch) {
                        self.stats.spoofs_delivered += 1;
                    }
                }
                ChannelOutcome::Collision { adversary, .. } => {
                    self.stats.collisions += involved;
                    if *adversary {
                        self.stats.jams_effective += 1;
                    }
                }
                ChannelOutcome::Idle | ChannelOutcome::NoiseOnly => {}
            }
        }
        for (_, heard) in &receptions {
            if heard.is_some() {
                self.stats.frames_received += 1;
            } else {
                self.stats.silent_receptions += 1;
            }
        }

        // The record, shown to the sink and then retained.
        if self.trace.retention().keeps_records() || self.sink.is_some() {
            let transmissions = transmitters
                .iter()
                .enumerate()
                .flat_map(|(ch, txs)| {
                    txs.iter()
                        .map(move |(node, frame)| (*node, ChannelId(ch), frame.clone()))
                })
                .collect();
            let mut record = RoundRecord::from_parts(
                round,
                transmissions,
                listeners,
                adversary.transmissions.clone(),
                outcomes.iter().map(ChannelOutcome::heard).collect(),
            );
            for (_, node, heard) in diverging {
                record.reception_nodes.push(node);
                record.reception_frames.push(heard);
            }
            if let Some(sink) = &mut self.sink {
                sink.record(&record);
                self.stats.dropped_records = sink.dropped_records();
            }
            self.trace.push(record);
        } else {
            self.trace.note_round();
        }

        self.round += 1;
        self.receptions = receptions;
        Ok(outcomes)
    }
}

/// A toy node: each round flips a coin, then transmits its id on a random
/// channel or listens on a random channel; stops after a fixed number of
/// rounds. Records everything it heard.
#[derive(Clone, Debug)]
pub struct BeaconNode {
    id: usize,
    channels: usize,
    remaining: u32,
    rng: SmallRng,
    heard: Vec<(u64, u64)>,
}

impl BeaconNode {
    /// A beacon node with identity `id` on a `channels`-channel network,
    /// running for `rounds` rounds.
    pub fn new(id: usize, channels: usize, rounds: u32) -> Self {
        BeaconNode {
            id,
            channels,
            remaining: rounds,
            rng: SmallRng::seed_from_u64(0xBEAC_0000 ^ id as u64),
            heard: Vec::new(),
        }
    }

    /// `(round, frame)` pairs this node received.
    pub fn heard(&self) -> &[(u64, u64)] {
        &self.heard
    }
}

impl Protocol for BeaconNode {
    type Msg = u64;

    fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }

    fn begin_round(&mut self, _round: u64) -> Action<u64> {
        if self.remaining == 0 {
            return Action::Sleep;
        }
        let channel = ChannelId(self.rng.gen_range(0..self.channels));
        if self.rng.gen_bool(0.5) {
            Action::Transmit {
                channel,
                frame: self.id as u64,
            }
        } else {
            Action::Listen { channel }
        }
    }

    fn end_round(&mut self, round: u64, reception: Option<Reception<&u64>>) {
        if self.remaining > 0 {
            self.remaining -= 1;
        }
        if let Some(Reception {
            frame: Some(frame), ..
        }) = reception
        {
            self.heard.push((round, *frame));
        }
    }

    fn is_done(&self) -> bool {
        self.remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries::NoAdversary;
    use crate::engine::NetworkConfig;
    use crate::simulation::Simulation;

    #[test]
    fn simulation_seed_drives_beacon_randomness() {
        let run = |seed| {
            let cfg = NetworkConfig::new(2, 1).unwrap();
            let nodes: Vec<BeaconNode> = (0..4).map(|i| BeaconNode::new(i, 2, 50)).collect();
            let mut sim = Simulation::new(cfg, nodes, NoAdversary, seed).unwrap();
            sim.run(100).unwrap();
            sim.nodes()
                .iter()
                .map(|n| n.heard().to_vec())
                .collect::<Vec<_>>()
        };
        // The nodes were constructed identically — only the simulation seed
        // differs, so any difference proves the reseed wiring works.
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn beacons_hear_each_other_without_adversary() {
        let cfg = NetworkConfig::new(2, 1).unwrap();
        let nodes: Vec<BeaconNode> = (0..6).map(|i| BeaconNode::new(i, 2, 200)).collect();
        let mut sim = Simulation::new(cfg, nodes, NoAdversary, 0).unwrap();
        let report = sim.run(300).unwrap();
        assert_eq!(report.rounds, 200);
        let total_heard: usize = sim.nodes().iter().map(|n| n.heard().len()).sum();
        assert!(total_heard > 0, "some frame should get through");
    }
}
