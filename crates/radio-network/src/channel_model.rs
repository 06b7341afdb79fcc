//! Pluggable channel models: how concurrent transmissions on one channel
//! resolve into what listeners hear.
//!
//! The paper's model (and this crate's default) is the **ideal**
//! single-hop clique: exactly one transmitter delivers, anything else is
//! silence or an indistinguishable collision. Real radio is messier —
//! frames are lost, strong transmitters capture the receiver, geometry
//! decides who hears whom. A [`ChannelModel`] lifts that decision out of
//! the engine's inline match so experiments can chart where the paper's
//! guarantees bend:
//!
//! * [`ChannelModelSpec::Ideal`] — the paper's semantics, bit-identical
//!   to the pre-trait engine (pinned by `tests/arena_equivalence.rs`);
//! * [`ChannelModelSpec::Lossy`] — per-listener Bernoulli frame drop;
//! * [`ChannelModelSpec::Capture`] — the strongest transmitter wins a
//!   contended channel instead of colliding;
//! * [`ChannelModelSpec::Geometric`] — nodes in a plane; only in-radius
//!   listeners hear, and out-of-radius transmitters don't collide.
//!
//! ## Determinism
//!
//! Models draw **no** sequential randomness. Every stochastic decision is
//! a pure function of `(model seed, round, channel, node)` through
//! [`crate::seed::derive`], so outcomes are independent of evaluation
//! order: the engine, the reference oracle
//! ([`crate::testing::ReferenceNetwork`]), any runner thread count, and
//! a later replay all see byte-identical rounds.
//!
//! ## Two levels of divergence
//!
//! A model participates at two points. [`ChannelModel::resolve`] decides
//! the **wire outcome** of a channel (one verdict per channel per round —
//! what the trace's `delivered` column records). When per-listener truth
//! can differ from the wire outcome ([`ChannelModel::diverges`]),
//! [`ChannelModel::listener_outcome`] is additionally consulted per
//! listener; divergent receptions are recorded in the trace's
//! `receptions` column.

use std::fmt;

use crate::node::{ChannelId, NodeId};
use crate::seed;

/// What kind of emission the adversary placed on a channel (the frame
/// itself stays in the adversary action; models only need the kind).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EmissionKind {
    /// Jamming noise: collides, but delivers nothing by itself.
    Noise,
    /// A forged frame that delivers if the channel is otherwise clear.
    Spoof,
}

/// The honest transmitters active on one channel this round — a borrowed
/// view over the engine's channel-grouped arena, iterable without
/// allocation.
#[derive(Clone, Copy, Debug)]
pub struct TxSpan<'a> {
    /// The channel's slice of the arena's channel-grouped permutation.
    span: &'a [u32],
    /// Node id per gathered transmission (indexed through `span`).
    tx_node: &'a [u32],
}

impl<'a> TxSpan<'a> {
    /// Build a span over `span` (indices into `tx_node`).
    pub(crate) fn new(span: &'a [u32], tx_node: &'a [u32]) -> Self {
        TxSpan { span, tx_node }
    }

    /// Number of honest transmitters on the channel.
    pub fn len(&self) -> usize {
        self.span.len()
    }

    /// `true` when no honest node transmitted on the channel.
    pub fn is_empty(&self) -> bool {
        self.span.is_empty()
    }

    /// The `i`-th transmitter's node id (transmitters are in node order
    /// within a channel).
    pub fn node(&self, i: usize) -> NodeId {
        NodeId(self.tx_node[self.span[i] as usize] as usize)
    }

    /// The transmitting nodes, in node order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        let tx_node = self.tx_node;
        self.span
            .iter()
            .map(move |&tx| NodeId(tx_node[tx as usize] as usize))
    }

    /// The `i`-th transmitter's index into the engine's transmission
    /// arrays (for frame lookups the engine performs on the model's
    /// behalf).
    pub(crate) fn tx(&self, i: usize) -> u32 {
        self.span[i]
    }
}

/// Everything a model may condition one channel's resolution on.
///
/// The context is allocation-free: spans borrow the engine's arena, and
/// randomness is derived on demand through [`ChannelContext::draw`].
#[derive(Clone, Copy, Debug)]
pub struct ChannelContext<'a> {
    /// The model seed (derived once per run; see
    /// [`Network::seed_channel_model`](crate::Network::seed_channel_model)).
    pub seed: u64,
    /// The round being resolved.
    pub round: u64,
    /// The channel being resolved.
    pub channel: ChannelId,
    /// The honest transmitters on the channel, in node order.
    pub transmitters: TxSpan<'a>,
    /// The adversary's emission on the channel, if any.
    pub adversary: Option<EmissionKind>,
}

impl ChannelContext<'_> {
    /// The deterministic random stream of this `(seed, round, channel)`
    /// triple. All model randomness flows from here through
    /// [`crate::seed::derive`] — never from ambient RNG state — so
    /// outcomes are independent of evaluation order.
    pub fn stream(&self) -> u64 {
        seed::derive(
            seed::derive(self.seed, self.round),
            self.channel.index() as u64,
        )
    }

    /// A per-`key` draw from this context's stream (`key` is typically a
    /// node id). Pure: the same `(seed, round, channel, key)` always
    /// yields the same value.
    pub fn draw(&self, key: u64) -> u64 {
        seed::derive(self.stream(), key)
    }
}

/// The wire outcome of one channel, as decided by a [`ChannelModel`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelVerdict {
    /// Apply the paper's ideal semantics: one honest transmitter
    /// delivers, a lone spoof delivers, anything else is
    /// silence/noise/collision. The only verdict [`ChannelModelSpec::Ideal`]
    /// ever returns.
    Classic,
    /// Deliver the frame of the `idx`-th honest transmitter in the
    /// channel's span (0-based, node order) despite any contention.
    DeliverHonest {
        /// Index into [`ChannelContext::transmitters`].
        idx: usize,
    },
    /// Deliver the adversary's spoofed frame despite any contention
    /// (ignored — resolved as [`ChannelVerdict::Classic`] — unless the
    /// adversary actually spoofed the channel).
    DeliverAdversary,
    /// Force a collision: nothing is delivered.
    Collision,
}

/// What one listener hears on a channel, when the model's per-listener
/// truth can diverge from the wire outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ListenerOutcome {
    /// Defer to the channel's wire outcome (hear whatever it delivered).
    Channel,
    /// Hear nothing, regardless of the wire outcome.
    Nothing,
    /// Hear the `idx`-th honest transmitter in the channel's span, even
    /// if the wire outcome was a collision.
    Honest {
        /// Index into [`ChannelContext::transmitters`].
        idx: usize,
    },
    /// Hear the adversary's spoofed frame (resolves to silence if the
    /// adversary's emission was noise, or absent).
    Adversary,
}

/// A channel model: the pluggable rule turning per-channel activity into
/// outcomes.
///
/// Implementations must be pure functions of the [`ChannelContext`] (and
/// the listener id): no interior mutability, no ambient randomness —
/// derive every stochastic choice via [`ChannelContext::draw`]. The
/// engine may evaluate a channel any number of times per round (stats,
/// trace, and reception dispatch each consult the model) and in any
/// order.
pub trait ChannelModel: fmt::Debug + Send {
    /// `true` if per-listener outcomes can differ from the wire outcome,
    /// in which case the engine consults
    /// [`ChannelModel::listener_outcome`] per listener (and records
    /// divergent receptions in the trace). Models returning `false` keep
    /// the engine on the exact ideal listener fast path.
    fn diverges(&self) -> bool {
        false
    }

    /// Decide the wire outcome of one channel.
    fn resolve(&self, _ctx: &ChannelContext<'_>) -> ChannelVerdict {
        ChannelVerdict::Classic
    }

    /// Decide what `listener` hears on the context's channel. Only
    /// consulted when [`ChannelModel::diverges`] is `true`.
    fn listener_outcome(&self, _ctx: &ChannelContext<'_>, _listener: NodeId) -> ListenerOutcome {
        ListenerOutcome::Channel
    }
}

/// The paper's ideal channel: [`ChannelVerdict::Classic`] everywhere.
#[derive(Clone, Copy, Debug, Default)]
struct IdealModel;

impl ChannelModel for IdealModel {}

/// Per-listener Bernoulli frame drop on otherwise-deliverable channels.
#[derive(Clone, Copy, Debug)]
struct LossyModel {
    /// Loss probability in parts per million.
    p_loss_ppm: u32,
}

impl ChannelModel for LossyModel {
    fn diverges(&self) -> bool {
        true
    }

    fn listener_outcome(&self, ctx: &ChannelContext<'_>, listener: NodeId) -> ListenerOutcome {
        // Only deliverable channels (ideal semantics) can lose a frame;
        // silence and collisions stay silence and collisions.
        let deliverable = (ctx.transmitters.len() == 1 && ctx.adversary.is_none())
            || (ctx.transmitters.is_empty() && ctx.adversary == Some(EmissionKind::Spoof));
        if !deliverable {
            return ListenerOutcome::Channel;
        }
        if ctx.draw(listener.0 as u64) % 1_000_000 < u64::from(self.p_loss_ppm) {
            ListenerOutcome::Nothing
        } else {
            ListenerOutcome::Channel
        }
    }
}

/// Capture effect: on a contended channel, the strongest transmitter
/// wins if its power margin over the runner-up reaches the threshold.
#[derive(Clone, Copy, Debug)]
struct CaptureModel {
    /// Minimal winning margin on the `0..1024` power scale.
    threshold: u32,
}

impl CaptureModel {
    /// Deterministic per-round power draw on a `0..1024` scale.
    fn power(ctx: &ChannelContext<'_>, key: u64) -> u64 {
        ctx.draw(key) % 1024
    }
}

impl ChannelModel for CaptureModel {
    fn resolve(&self, ctx: &ChannelContext<'_>) -> ChannelVerdict {
        /// The adversary's power-draw key (node ids can never reach it).
        const ADVERSARY_KEY: u64 = u64::MAX;
        let honest = ctx.transmitters.len();
        let total = honest + usize::from(ctx.adversary.is_some());
        if total <= 1 {
            return ChannelVerdict::Classic;
        }
        // Track the strongest participant and the runner-up power.
        // `None` in the winner slot means the adversary.
        let mut best: Option<(u64, Option<usize>)> = None;
        let mut second = 0u64;
        for i in 0..honest {
            let p = Self::power(ctx, ctx.transmitters.node(i).0 as u64);
            match best {
                Some((bp, _)) if p <= bp => second = second.max(p),
                Some((bp, _)) => {
                    second = second.max(bp);
                    best = Some((p, Some(i)));
                }
                None => best = Some((p, Some(i))),
            }
        }
        if ctx.adversary.is_some() {
            let p = Self::power(ctx, ADVERSARY_KEY);
            match best {
                Some((bp, _)) if p <= bp => second = second.max(p),
                Some((bp, _)) => {
                    second = second.max(bp);
                    best = Some((p, None));
                }
                None => best = Some((p, None)),
            }
        }
        let (best_power, winner) = best.expect("total > 1 participants");
        let margin = best_power - second;
        if margin == 0 || margin < u64::from(self.threshold) {
            return ChannelVerdict::Collision;
        }
        match winner {
            Some(idx) => ChannelVerdict::DeliverHonest { idx },
            None => match ctx.adversary {
                Some(EmissionKind::Spoof) => ChannelVerdict::DeliverAdversary,
                // Winning noise delivers nothing: the channel is jammed.
                _ => ChannelVerdict::Collision,
            },
        }
    }
}

/// In-plane geometry: a listener hears a transmitter iff their squared
/// distance is within `radius²`; transmitters out of earshot don't
/// collide at that listener.
#[derive(Clone, Debug)]
struct GeometricModel {
    /// Node positions, indexed by node id (missing nodes sit at the
    /// origin).
    positions: Vec<(i64, i64)>,
    /// Hearing radius.
    radius: u64,
}

impl GeometricModel {
    fn position(&self, node: NodeId) -> (i64, i64) {
        self.positions.get(node.0).copied().unwrap_or((0, 0))
    }

    fn in_range(&self, a: (i64, i64), b: (i64, i64)) -> bool {
        let dx = i128::from(a.0) - i128::from(b.0);
        let dy = i128::from(a.1) - i128::from(b.1);
        let r = i128::from(self.radius);
        dx * dx + dy * dy <= r * r
    }
}

impl ChannelModel for GeometricModel {
    fn diverges(&self) -> bool {
        true
    }

    fn listener_outcome(&self, ctx: &ChannelContext<'_>, listener: NodeId) -> ListenerOutcome {
        let at = self.position(listener);
        // The adversary is positionless: audible everywhere.
        let mut audible = usize::from(ctx.adversary.is_some());
        let mut lone_honest: Option<usize> = None;
        for i in 0..ctx.transmitters.len() {
            if self.in_range(self.position(ctx.transmitters.node(i)), at) {
                audible += 1;
                if audible > 1 {
                    return ListenerOutcome::Nothing;
                }
                lone_honest = Some(i);
            }
        }
        match (audible, lone_honest, ctx.adversary) {
            (1, Some(idx), None) => ListenerOutcome::Honest { idx },
            (1, None, Some(EmissionKind::Spoof)) => ListenerOutcome::Adversary,
            // Lone noise, or nothing audible at all: silence.
            _ => ListenerOutcome::Nothing,
        }
    }
}

/// A serializable, comparable description of a channel model — what
/// configs, scenario specs, and trace headers carry; build the live model
/// with [`ChannelModelSpec::build`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum ChannelModelSpec {
    /// The paper's ideal channel (the default; bit-identical to the
    /// pre-trait engine).
    #[default]
    Ideal,
    /// Per-listener Bernoulli frame drop on deliverable channels.
    Lossy {
        /// Loss probability in parts per million (integer, so specs
        /// round-trip through JSON losslessly).
        p_loss_ppm: u32,
    },
    /// Strongest-transmitter capture on contended channels.
    Capture {
        /// Minimal winning power margin on the `0..1024` scale (a zero
        /// margin — a power tie — is always a collision, so `0` behaves
        /// like `1`; `1024` and above never capture).
        threshold: u32,
    },
    /// In-plane geometry with a hearing radius.
    Geometric {
        /// Node positions, indexed by node id (missing nodes sit at the
        /// origin).
        positions: Vec<(i64, i64)>,
        /// Hearing radius (inclusive, Euclidean).
        radius: u64,
    },
}

impl ChannelModelSpec {
    /// Instantiate the live model this spec describes.
    pub fn build(&self) -> Box<dyn ChannelModel> {
        match self {
            ChannelModelSpec::Ideal => Box::new(IdealModel),
            ChannelModelSpec::Lossy { p_loss_ppm } => Box::new(LossyModel {
                p_loss_ppm: *p_loss_ppm,
            }),
            ChannelModelSpec::Capture { threshold } => Box::new(CaptureModel {
                threshold: *threshold,
            }),
            ChannelModelSpec::Geometric { positions, radius } => Box::new(GeometricModel {
                positions: positions.clone(),
                radius: *radius,
            }),
        }
    }

    /// `true` for the default ideal model (specs omit it from JSON, so
    /// all pre-model files stay byte-identical).
    pub fn is_ideal(&self) -> bool {
        matches!(self, ChannelModelSpec::Ideal)
    }

    /// A short, filesystem-safe label (for scenario names and report
    /// rows).
    pub fn label(&self) -> String {
        match self {
            ChannelModelSpec::Ideal => "ideal".to_string(),
            ChannelModelSpec::Lossy { p_loss_ppm } => format!("lossy-p{p_loss_ppm}"),
            ChannelModelSpec::Capture { threshold } => format!("capture-t{threshold}"),
            ChannelModelSpec::Geometric { positions, radius } => {
                format!("geometric-r{radius}-n{}", positions.len())
            }
        }
    }

    /// The spec as a canonical JSON object (the inverse lives with the
    /// bench JSON parser; `secure_radio_bench::scenario` round-trips it).
    pub fn json(&self) -> String {
        match self {
            ChannelModelSpec::Ideal => "{\"kind\":\"ideal\"}".to_string(),
            ChannelModelSpec::Lossy { p_loss_ppm } => {
                format!("{{\"kind\":\"lossy\",\"p_loss_ppm\":{p_loss_ppm}}}")
            }
            ChannelModelSpec::Capture { threshold } => {
                format!("{{\"kind\":\"capture\",\"threshold\":{threshold}}}")
            }
            ChannelModelSpec::Geometric { positions, radius } => {
                use std::fmt::Write as _;
                let mut out = String::new();
                write!(
                    out,
                    "{{\"kind\":\"geometric\",\"radius\":{radius},\"positions\":["
                )
                .expect("write to String");
                for (i, (x, y)) in positions.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write!(out, "[{x},{y}]").expect("write to String");
                }
                out.push_str("]}");
                out
            }
        }
    }

    /// The one-line trace-file header recording this model (see
    /// `docs/TRACE_FORMAT.md`); written by recording tools for non-ideal
    /// runs so replays rebuild the same channel semantics.
    pub fn header_line(&self) -> String {
        format!("{{\"channel_model\":{}}}", self.json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        span: &'a [u32],
        tx_node: &'a [u32],
        adv: Option<EmissionKind>,
    ) -> ChannelContext<'a> {
        ChannelContext {
            seed: 42,
            round: 3,
            channel: ChannelId(1),
            transmitters: TxSpan::new(span, tx_node),
            adversary: adv,
        }
    }

    #[test]
    fn ideal_is_always_classic() {
        let model = ChannelModelSpec::Ideal.build();
        assert!(!model.diverges());
        let c = ctx(&[0, 1], &[4, 7], Some(EmissionKind::Noise));
        assert_eq!(model.resolve(&c), ChannelVerdict::Classic);
        assert_eq!(
            model.listener_outcome(&c, NodeId(9)),
            ListenerOutcome::Channel
        );
    }

    #[test]
    fn lossy_zero_and_certain_loss_are_exact() {
        let never = ChannelModelSpec::Lossy { p_loss_ppm: 0 }.build();
        let always = ChannelModelSpec::Lossy {
            p_loss_ppm: 1_000_000,
        }
        .build();
        let c = ctx(&[0], &[4], None);
        for node in 0..64 {
            assert_eq!(
                never.listener_outcome(&c, NodeId(node)),
                ListenerOutcome::Channel
            );
            assert_eq!(
                always.listener_outcome(&c, NodeId(node)),
                ListenerOutcome::Nothing
            );
        }
        // Undeliverable channels (collision) are never touched by loss.
        let collided = ctx(&[0, 1], &[4, 7], None);
        assert_eq!(
            always.listener_outcome(&collided, NodeId(0)),
            ListenerOutcome::Channel
        );
    }

    #[test]
    fn lossy_is_a_pure_function_of_seed_round_channel_node() {
        let model = ChannelModelSpec::Lossy {
            p_loss_ppm: 500_000,
        }
        .build();
        let c = ctx(&[0], &[4], None);
        let first: Vec<ListenerOutcome> = (0..32)
            .map(|n| model.listener_outcome(&c, NodeId(n)))
            .collect();
        // Re-evaluation in any order yields the same outcomes.
        for n in (0..32).rev() {
            assert_eq!(model.listener_outcome(&c, NodeId(n)), first[n]);
        }
        // And both outcomes actually occur at p = 0.5.
        assert!(first.contains(&ListenerOutcome::Channel));
        assert!(first.contains(&ListenerOutcome::Nothing));
    }

    #[test]
    fn capture_uncontended_defers_to_classic() {
        let model = ChannelModelSpec::Capture { threshold: 1 }.build();
        assert_eq!(
            model.resolve(&ctx(&[0], &[4], None)),
            ChannelVerdict::Classic
        );
        assert_eq!(model.resolve(&ctx(&[], &[], None)), ChannelVerdict::Classic);
        assert_eq!(
            model.resolve(&ctx(&[], &[], Some(EmissionKind::Spoof))),
            ChannelVerdict::Classic
        );
    }

    #[test]
    fn capture_huge_threshold_always_collides_and_zero_acts_like_one() {
        let zero = ChannelModelSpec::Capture { threshold: 0 }.build();
        let one = ChannelModelSpec::Capture { threshold: 1 }.build();
        let huge = ChannelModelSpec::Capture { threshold: 1024 }.build();
        let span = [0u32, 1, 2];
        let nodes = [3u32, 5, 9];
        for round in 0..32u64 {
            let mut c = ctx(&span, &nodes, None);
            c.round = round;
            assert_eq!(huge.resolve(&c), ChannelVerdict::Collision, "round {round}");
            assert_eq!(zero.resolve(&c), one.resolve(&c), "round {round}");
        }
    }

    #[test]
    fn capture_with_low_threshold_delivers_the_strongest() {
        let model = ChannelModelSpec::Capture { threshold: 1 }.build();
        let span = [0u32, 1];
        let nodes = [3u32, 5];
        let mut wins = 0;
        for round in 0..64u64 {
            let mut c = ctx(&span, &nodes, None);
            c.round = round;
            match model.resolve(&c) {
                ChannelVerdict::DeliverHonest { idx } => {
                    assert!(idx < 2);
                    wins += 1;
                    // The winner really is the strongest draw.
                    let p0 = c.draw(3) % 1024;
                    let p1 = c.draw(5) % 1024;
                    assert_eq!(idx, usize::from(p1 > p0));
                }
                ChannelVerdict::Collision => {}
                other => panic!("unexpected verdict {other:?}"),
            }
        }
        assert!(
            wins > 32,
            "capture should win most contended rounds: {wins}"
        );
    }

    #[test]
    fn capture_adversary_can_win_with_spoof_but_noise_never_delivers() {
        let model = ChannelModelSpec::Capture { threshold: 1 }.build();
        let span = [0u32];
        let nodes = [3u32];
        let (mut spoof_wins, mut honest_wins) = (0, 0);
        for round in 0..128u64 {
            let mut spoofed = ctx(&span, &nodes, Some(EmissionKind::Spoof));
            spoofed.round = round;
            match model.resolve(&spoofed) {
                ChannelVerdict::DeliverAdversary => spoof_wins += 1,
                ChannelVerdict::DeliverHonest { idx: 0 } => honest_wins += 1,
                ChannelVerdict::Collision => {}
                other => panic!("unexpected verdict {other:?}"),
            }
            let mut noisy = ctx(&span, &nodes, Some(EmissionKind::Noise));
            noisy.round = round;
            assert!(
                !matches!(model.resolve(&noisy), ChannelVerdict::DeliverAdversary),
                "noise must never deliver"
            );
        }
        assert!(spoof_wins > 0 && honest_wins > 0);
    }

    #[test]
    fn geometric_range_and_interference_per_listener() {
        // Nodes 0,1,2 at x = 0, 10, 100; radius 15.
        let spec = ChannelModelSpec::Geometric {
            positions: vec![(0, 0), (10, 0), (100, 0)],
            radius: 15,
        };
        let model = spec.build();
        assert!(model.diverges());
        // Node 0 transmits alone: node 1 hears it, node 2 is out of range.
        let span = [0u32];
        let nodes = [0u32];
        let c = ctx(&span, &nodes, None);
        assert_eq!(
            model.listener_outcome(&c, NodeId(1)),
            ListenerOutcome::Honest { idx: 0 }
        );
        assert_eq!(
            model.listener_outcome(&c, NodeId(2)),
            ListenerOutcome::Nothing
        );
        // Nodes 0 and 2 transmit: node 1 only hears node 0 (no collision
        // from out-of-range node 2), a listener at the origin-distance of
        // both hears nothing.
        let span = [0u32, 1];
        let nodes = [0u32, 2];
        let c = ctx(&span, &nodes, None);
        assert_eq!(
            model.listener_outcome(&c, NodeId(1)),
            ListenerOutcome::Honest { idx: 0 }
        );
        // The positionless adversary is audible everywhere and collides.
        let c = ctx(&span, &nodes, Some(EmissionKind::Noise));
        assert_eq!(
            model.listener_outcome(&c, NodeId(1)),
            ListenerOutcome::Nothing
        );
        // A lone spoof reaches everyone.
        let c = ctx(&[], &[], Some(EmissionKind::Spoof));
        assert_eq!(
            model.listener_outcome(&c, NodeId(2)),
            ListenerOutcome::Adversary
        );
        // A lone noise emission sounds like silence.
        let c = ctx(&[], &[], Some(EmissionKind::Noise));
        assert_eq!(
            model.listener_outcome(&c, NodeId(2)),
            ListenerOutcome::Nothing
        );
    }

    #[test]
    fn spec_json_and_labels_are_stable() {
        assert_eq!(ChannelModelSpec::Ideal.json(), "{\"kind\":\"ideal\"}");
        assert_eq!(ChannelModelSpec::Ideal.label(), "ideal");
        assert!(ChannelModelSpec::Ideal.is_ideal());
        let lossy = ChannelModelSpec::Lossy { p_loss_ppm: 50_000 };
        assert_eq!(lossy.json(), "{\"kind\":\"lossy\",\"p_loss_ppm\":50000}");
        assert_eq!(lossy.label(), "lossy-p50000");
        assert!(!lossy.is_ideal());
        let capture = ChannelModelSpec::Capture { threshold: 128 };
        assert_eq!(capture.json(), "{\"kind\":\"capture\",\"threshold\":128}");
        assert_eq!(capture.label(), "capture-t128");
        let geo = ChannelModelSpec::Geometric {
            positions: vec![(0, 0), (2, -3)],
            radius: 4,
        };
        assert_eq!(
            geo.json(),
            "{\"kind\":\"geometric\",\"radius\":4,\"positions\":[[0,0],[2,-3]]}"
        );
        assert_eq!(geo.label(), "geometric-r4-n2");
        assert_eq!(
            geo.header_line(),
            "{\"channel_model\":{\"kind\":\"geometric\",\"radius\":4,\"positions\":[[0,0],[2,-3]]}}"
        );
    }
}
