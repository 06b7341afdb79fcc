//! The round-resolution engine: pure channel semantics of the model.
//!
//! This is the fast implementation of the §3 round rule;
//! [`testing::ReferenceNetwork`](crate::testing::ReferenceNetwork) is the
//! slow, independent one it is checked against. No other round resolver
//! exists in the workspace.
//!
//! ## The arena-backed round core
//!
//! [`Network::resolve_round_sparse`] is the innermost loop of every
//! experiment — an f-AME epoch is millions of tiny rounds — so its
//! steady state must not touch the allocator. All per-round state lives
//! in a [`RoundArena`] owned by the network and reused across rounds:
//!
//! * honest transmissions are gathered into a flat arena (`tx_node` /
//!   `tx_chan`, node order) and grouped by channel through a counting-sort
//!   permutation (`order`) with per-channel `(start, len)` **spans** — no
//!   per-channel `Vec`s, and collision participant lists come straight
//!   from the spans instead of per-collision allocations; listeners get
//!   the same treatment (`l_order` / `l_spans`), so "any listener on this
//!   channel?" is an O(1) span lookup;
//! * per-channel outcomes are compact [`ChannelSlot`] tags; frames are
//!   *not* copied into the arena — they are borrowed from the caller's
//!   action storage and adversary action through the returned
//!   [`RoundView`];
//! * when the config's retention keeps records or a [`TraceSink`] is
//!   attached, the [`RoundRecord`] is built in a **record arena** (one
//!   `RoundRecord` whose vectors are cleared and refilled each round),
//!   shown to the sink by reference, and then swapped into the network's
//!   [`Trace`] ([`Trace::push_swap`]) — a bounded window retains a round
//!   without copying a single element.
//!
//! ## The active-channel worklist
//!
//! Per-round cost is proportional to **activity**, not the channel
//! count. The arena keeps a per-channel epoch stamp (`touched`); the
//! first event on a channel in a round — honest transmission, listener,
//! or adversary emission — *touches* it: lazily resets that channel's
//! scratch and pushes it onto the `active` worklist. Span building,
//! outcome resolution, stats, and the record's sparse delivered set then
//! iterate only the (sorted) worklist. Channels never touched this round
//! are never read or written — their stale spans/slots are fenced off by
//! the epoch stamp — so a round over a million idle channels costs the
//! same as a round over ten. The entry point extends the same contract
//! to the *population*: it accepts only the actions of awake nodes as
//! sorted `(NodeId, Action)` pairs, making round cost independent of `n`
//! as well (the [`Simulation`](crate::Simulation) driver's wake-queue
//! feeds it).
//!
//! The result: with retention off and no sink a steady-state round
//! performs **zero** heap allocations (verified by the counting-allocator
//! test in `tests/zero_alloc.rs`), and with a bounded in-memory window the
//! retained records are recycled in place.

use crate::adversary::{AdversaryAction, Emission};
use crate::channel_model::{
    ChannelContext, ChannelModel, ChannelModelSpec, ChannelVerdict, EmissionKind, ListenerOutcome,
    TxSpan,
};
use crate::error::EngineError;
use crate::node::{Action, ChannelId, NodeId};
use crate::sink::TraceSink;
use crate::stats::Stats;
use crate::trace::{RoundRecord, Trace, TraceRetention};

/// Static configuration of the radio network.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetworkConfig {
    channels: usize,
    budget: usize,
    retention: TraceRetention,
    channel_model: ChannelModelSpec,
}

impl NetworkConfig {
    /// A network with `channels` channels and an adversary able to disrupt
    /// up to `budget` (= `t`) of them per round.
    ///
    /// # Errors
    ///
    /// * [`EngineError::TooFewChannels`] if `channels < 2` (the model
    ///   requires `C > 1`).
    /// * [`EngineError::BudgetTooLarge`] if `budget >= channels` (the model
    ///   requires `t < C`; with `t >= C` no communication is possible).
    pub fn new(channels: usize, budget: usize) -> Result<Self, EngineError> {
        if channels < 2 {
            return Err(EngineError::TooFewChannels { channels });
        }
        if budget >= channels {
            return Err(EngineError::BudgetTooLarge { budget, channels });
        }
        Ok(NetworkConfig {
            channels,
            budget,
            retention: TraceRetention::default(),
            channel_model: ChannelModelSpec::default(),
        })
    }

    /// The minimal interesting configuration of the paper: `C = t + 1`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkConfig::new`].
    pub fn minimal(t: usize) -> Result<Self, EngineError> {
        NetworkConfig::new(t + 1, t)
    }

    /// Replace the trace-retention policy (default: keep everything).
    #[must_use]
    pub fn with_retention(mut self, retention: TraceRetention) -> Self {
        self.retention = retention;
        self
    }

    /// Replace the channel model (default: [`ChannelModelSpec::Ideal`],
    /// the paper's semantics).
    #[must_use]
    pub fn with_channel_model(mut self, channel_model: ChannelModelSpec) -> Self {
        self.channel_model = channel_model;
        self
    }

    /// Number of channels `C`.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Adversary budget `t`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Trace-retention policy.
    pub fn retention(&self) -> TraceRetention {
        self.retention
    }

    /// The channel model rounds resolve under.
    pub fn channel_model(&self) -> &ChannelModelSpec {
        &self.channel_model
    }
}

/// Compact per-channel outcome tag stored in the arena. Frames are not
/// copied here — [`RoundView`] resolves the indices against the caller's
/// action storage and adversary action.
#[derive(Clone, Copy, Debug)]
enum ChannelSlot {
    /// Nobody transmitted.
    Idle,
    /// Adversary noise on an otherwise idle channel.
    NoiseOnly,
    /// Exactly one honest transmitter: index into the arena's
    /// transmission arrays (`tx_node` / `tx_src`).
    Delivered { tx: u32 },
    /// Adversary spoof on an otherwise idle channel: index into the
    /// adversary's transmission list.
    Spoof { adv: u32 },
    /// Two or more transmitters (participants = the channel's span).
    Collision { adversary: bool },
}

/// Reusable per-round storage: flat struct-of-arrays gather buffers, the
/// counting-sort permutations (transmitters *and* listeners) with
/// per-channel spans, per-channel outcome slots behind an epoch-stamped
/// active-channel worklist, and the record arena. Flat buffers are
/// cleared (never shrunk) between rounds; per-channel buffers are reset
/// *lazily on first touch*, so after warm-up a round costs O(activity)
/// and allocates nothing.
#[derive(Debug)]
struct RoundArena<M> {
    /// Monotonic round-reset counter; `touched[ch] == epoch` fences off
    /// per-channel state written in earlier rounds.
    epoch: u64,
    /// Per channel: the epoch that last touched it.
    touched: Vec<u64>,
    /// The worklist: channels touched this round (sorted ascending once
    /// gathering completes, so worklist iteration is channel-major like
    /// the dense `0..C` loop it replaces).
    active: Vec<u32>,
    /// Transmitting node ids, in gather (= node) order.
    tx_node: Vec<u32>,
    /// Channel of each transmission (parallel to `tx_node`).
    tx_chan: Vec<u32>,
    /// Index of each transmission into the caller's `(node, action)`
    /// pair slice (parallel to `tx_node`).
    tx_src: Vec<u32>,
    /// Channel-grouped permutation: indices into the transmission arrays,
    /// sorted by (channel, gather order) via a stable counting sort.
    order: Vec<u32>,
    /// Per channel: `(start, len)` span into `order`.
    spans: Vec<(u32, u32)>,
    /// Counting-sort scratch: per-channel counts, then write cursors.
    counts: Vec<u32>,
    /// Honest listeners this round, in gather (= node) order.
    listeners: Vec<(NodeId, ChannelId)>,
    /// Channel-grouped permutation over `listeners`.
    l_order: Vec<u32>,
    /// Per channel: `(start, len)` span into `l_order`.
    l_spans: Vec<(u32, u32)>,
    /// Counting-sort scratch for listeners.
    l_counts: Vec<u32>,
    /// Per channel, the index into the adversary's transmission list
    /// (doubles as the duplicate-channel check).
    adv_idx: Vec<Option<u32>>,
    /// Per-channel outcome tags.
    slots: Vec<ChannelSlot>,
    /// Record arena: rebuilt in place each round a record is built.
    record: RoundRecord<M>,
}

impl<M> RoundArena<M> {
    fn new(channels: usize) -> Self {
        RoundArena {
            epoch: 0,
            touched: vec![0; channels],
            active: Vec::new(),
            tx_node: Vec::new(),
            tx_chan: Vec::new(),
            tx_src: Vec::new(),
            order: Vec::new(),
            spans: vec![(0, 0); channels],
            counts: vec![0; channels],
            listeners: Vec::new(),
            l_order: Vec::new(),
            l_spans: vec![(0, 0); channels],
            l_counts: vec![0; channels],
            adv_idx: vec![None; channels],
            slots: vec![ChannelSlot::Idle; channels],
            record: RoundRecord::empty(),
        }
    }

    // detlint: deny-alloc(start) arena per-round reset (begin/touch)
    /// Reset for a new round. Flat buffers are cleared (O(activity of the
    /// previous round)); per-channel buffers, sized once at construction,
    /// are *not* — bumping the epoch invalidates them wholesale, and
    /// [`RoundArena::touch`] resets each channel's slice lazily on its
    /// first event.
    fn begin(&mut self) {
        self.tx_node.clear();
        self.tx_chan.clear();
        self.tx_src.clear();
        self.order.clear();
        self.listeners.clear();
        self.l_order.clear();
        self.active.clear();
        self.epoch += 1;
    }

    /// First event on `ch` this round: reset its scratch and put it on
    /// the worklist. Idempotent within a round via the epoch stamp.
    #[inline]
    fn touch(&mut self, ch: usize) {
        if self.touched[ch] != self.epoch {
            self.touched[ch] = self.epoch;
            self.counts[ch] = 0;
            self.l_counts[ch] = 0;
            self.adv_idx[ch] = None;
            self.active.push(ch as u32);
        }
    }

    /// `true` if `ch` saw any event this round (stale per-channel state
    /// from earlier rounds is fenced off by this check).
    #[inline]
    fn is_touched(&self, ch: usize) -> bool {
        self.touched[ch] == self.epoch
    }
    // detlint: deny-alloc(end)
}

/// A borrowed view of one resolved round — the allocation-free return
/// shape of [`Network::resolve_round_sparse`].
///
/// The view borrows three things for its lifetime: the network's
/// round arena (outcome tags, spans, listeners), the caller's action
/// storage (honest frames), and the adversary action (spoofed frames).
/// Nothing is copied; [`RoundView::heard_on`] and the outcome iterators
/// hand out `&M`.
#[derive(Clone, Copy, Debug)]
pub struct RoundView<'a, M> {
    round: u64,
    arena: &'a RoundArena<M>,
    actions: &'a [(NodeId, Action<M>)],
    adversary: &'a AdversaryAction<M>,
    model: &'a dyn ChannelModel,
    model_seed: u64,
}

/// Build the [`ChannelContext`] of one channel from the arena, fencing
/// off stale per-channel state: an untouched channel presents an empty
/// transmitter span and no adversary, whatever earlier rounds left
/// behind.
fn model_ctx<'a, M>(
    arena: &'a RoundArena<M>,
    adversary: &'a AdversaryAction<M>,
    model_seed: u64,
    round: u64,
    ch: usize,
) -> ChannelContext<'a> {
    let ((start, len), adv) = if arena.is_touched(ch) {
        (arena.spans[ch], arena.adv_idx[ch])
    } else {
        ((0, 0), None)
    };
    ChannelContext {
        seed: model_seed,
        round,
        channel: ChannelId(ch),
        transmitters: TxSpan::new(
            &arena.order[start as usize..(start + len) as usize],
            &arena.tx_node,
        ),
        adversary: adv.map(|a| match &adversary.transmissions[a as usize].1 {
            Emission::Noise => EmissionKind::Noise,
            Emission::Spoof(_) => EmissionKind::Spoof,
        }),
    }
}

/// Borrowed per-channel outcome, produced by [`RoundView::outcome`].
#[derive(Clone, Copy, Debug)]
pub enum OutcomeView<'a, M> {
    /// Nobody (honest or adversarial) transmitted.
    Idle,
    /// Adversary noise on an otherwise idle channel (sounds like silence).
    NoiseOnly,
    /// Exactly one honest transmitter: its frame was delivered.
    Delivered {
        /// The transmitting node.
        from: NodeId,
        /// The delivered frame (borrowed from the caller's action storage).
        frame: &'a M,
    },
    /// The adversary spoofed an otherwise idle channel.
    SpoofDelivered {
        /// The forged frame (borrowed from the adversary action).
        frame: &'a M,
    },
    /// Two or more transmitters: all lost.
    Collision {
        /// The honest participants (iterate without allocating).
        honest: Participants<'a, M>,
        /// `true` if the adversary contributed to the collision.
        adversary: bool,
    },
}

impl<'a, M> OutcomeView<'a, M> {
    /// The frame listeners on this channel receive (`None` =
    /// silence/collision).
    pub fn heard(&self) -> Option<&'a M> {
        match self {
            OutcomeView::Delivered { frame, .. } | OutcomeView::SpoofDelivered { frame } => {
                Some(frame)
            }
            _ => None,
        }
    }
}

/// The honest transmitters involved in one channel's collision — a
/// borrowed span over the arena, iterable without allocation.
#[derive(Clone, Copy, Debug)]
pub struct Participants<'a, M> {
    /// The channel's slice of the arena's `order` permutation.
    span: &'a [u32],
    tx_node: &'a [u32],
    tx_src: &'a [u32],
    actions: &'a [(NodeId, Action<M>)],
}

impl<'a, M> Participants<'a, M> {
    /// Number of honest transmitters in the collision.
    pub fn len(&self) -> usize {
        self.span.len()
    }

    /// `true` when no honest node was involved (pure adversary collision
    /// never happens — a lone emission resolves to noise or spoof).
    pub fn is_empty(&self) -> bool {
        self.span.is_empty()
    }

    /// The participating nodes, in node order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        let tx_node = self.tx_node;
        self.span
            .iter()
            .map(move |&tx| NodeId(tx_node[tx as usize] as usize))
    }

    /// The participating nodes with the frames they lost, in node order.
    pub fn frames(&self) -> impl Iterator<Item = (NodeId, &'a M)> + 'a {
        let (tx_node, tx_src, actions) = (self.tx_node, self.tx_src, self.actions);
        self.span.iter().map(move |&tx| {
            let node = NodeId(tx_node[tx as usize] as usize);
            match &actions[tx_src[tx as usize] as usize].1 {
                Action::Transmit { frame, .. } => (node, frame),
                _ => unreachable!("gathered transmissions come from Transmit actions"),
            }
        })
    }
}

impl<'a, M> RoundView<'a, M> {
    /// Round number resolved.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of channels in the round.
    pub fn channels(&self) -> usize {
        self.arena.slots.len()
    }

    /// The channel's outcome tag, fenced by the epoch stamp: a channel
    /// untouched this round is idle regardless of what a previous round
    /// left in its slot.
    #[inline]
    fn slot(&self, ch: usize) -> ChannelSlot {
        if self.arena.is_touched(ch) {
            self.arena.slots[ch]
        } else {
            ChannelSlot::Idle
        }
    }

    /// What a listener tuned to `channel` hears (`None` =
    /// silence/collision). Borrowed — clone only if you keep it.
    pub fn heard_on(&self, channel: ChannelId) -> Option<&'a M> {
        match self.slot(channel.index()) {
            ChannelSlot::Delivered { tx } => {
                match &self.actions[self.arena.tx_src[tx as usize] as usize].1 {
                    Action::Transmit { frame, .. } => Some(frame),
                    _ => unreachable!("delivered slot points at a Transmit action"),
                }
            }
            ChannelSlot::Spoof { adv } => match &self.adversary.transmissions[adv as usize].1 {
                Emission::Spoof(frame) => Some(frame),
                Emission::Noise => unreachable!("spoof slot points at a Spoof emission"),
            },
            _ => None,
        }
    }

    /// What `node`, listening on `channel`, actually receives — the
    /// channel-model-aware sibling of [`RoundView::heard_on`]. Under
    /// non-diverging models (ideal, capture) the two agree exactly; under
    /// per-listener models (lossy, geometric) this consults the model for
    /// the listener's own truth. Drivers distributing receptions must use
    /// this one.
    pub fn reception_for(&self, node: NodeId, channel: ChannelId) -> Option<&'a M> {
        if !self.model.diverges() {
            return self.heard_on(channel);
        }
        let ch = channel.index();
        let ctx = model_ctx(self.arena, self.adversary, self.model_seed, self.round, ch);
        match self.model.listener_outcome(&ctx, node) {
            ListenerOutcome::Channel => self.heard_on(channel),
            ListenerOutcome::Nothing => None,
            ListenerOutcome::Honest { idx } => {
                let tx = ctx.transmitters.tx(idx);
                match &self.actions[self.arena.tx_src[tx as usize] as usize].1 {
                    Action::Transmit { frame, .. } => Some(frame),
                    _ => unreachable!("transmitter span points at Transmit actions"),
                }
            }
            ListenerOutcome::Adversary => {
                let adv = if self.arena.is_touched(ch) {
                    self.arena.adv_idx[ch]
                } else {
                    None
                };
                match adv.map(|a| &self.adversary.transmissions[a as usize].1) {
                    Some(Emission::Spoof(frame)) => Some(frame),
                    // A noise emission (or no emission) delivers nothing.
                    _ => None,
                }
            }
        }
    }

    /// The borrowed outcome of `channel`.
    pub fn outcome(&self, channel: ChannelId) -> OutcomeView<'a, M> {
        let ch = channel.index();
        match self.slot(ch) {
            ChannelSlot::Idle => OutcomeView::Idle,
            ChannelSlot::NoiseOnly => OutcomeView::NoiseOnly,
            ChannelSlot::Delivered { tx } => OutcomeView::Delivered {
                from: NodeId(self.arena.tx_node[tx as usize] as usize),
                frame: self.heard_on(channel).expect("delivered channel heard"),
            },
            ChannelSlot::Spoof { .. } => OutcomeView::SpoofDelivered {
                frame: self.heard_on(channel).expect("spoofed channel heard"),
            },
            ChannelSlot::Collision { adversary } => OutcomeView::Collision {
                honest: self.participants(channel),
                adversary,
            },
        }
    }

    /// Iterator over all channels' borrowed outcomes, in channel order.
    pub fn outcomes(&self) -> impl Iterator<Item = OutcomeView<'a, M>> + '_ {
        (0..self.channels()).map(move |ch| self.outcome(ChannelId(ch)))
    }

    /// The channels that saw any activity this round — an honest
    /// transmission, a listener, or an adversary emission — ascending.
    /// Every channel *not* in this set resolved [`OutcomeView::Idle`];
    /// iterating it costs O(activity), unlike the dense
    /// [`RoundView::outcomes`] / [`RoundView::delivered`] sweeps.
    pub fn active_channels(&self) -> impl Iterator<Item = ChannelId> + 'a {
        self.arena.active.iter().map(|&ch| ChannelId(ch as usize))
    }

    /// Per-channel delivered frames, in channel order (`None` =
    /// silence/collision) — the borrowed equivalent of
    /// [`RoundRecord::delivered_dense`].
    pub fn delivered(&self) -> impl Iterator<Item = Option<&'a M>> + '_ {
        (0..self.channels()).map(move |ch| self.heard_on(ChannelId(ch)))
    }

    /// The honest transmitters on `channel`: every node that chose
    /// [`Action::Transmit`] there this round, in node order — the single
    /// transmitter of a delivered channel, the one honest loser of a
    /// jammed delivery, or all parties of an honest collision. Not a
    /// collision test — match on [`RoundView::outcome`] for that.
    pub fn participants(&self, channel: ChannelId) -> Participants<'a, M> {
        let ch = channel.index();
        let (start, len) = if self.arena.is_touched(ch) {
            self.arena.spans[ch]
        } else {
            (0, 0)
        };
        Participants {
            span: &self.arena.order[start as usize..(start + len) as usize],
            tx_node: &self.arena.tx_node,
            tx_src: &self.arena.tx_src,
            actions: self.actions,
        }
    }

    /// The honest listeners of the round, in node order.
    pub fn listeners(&self) -> &'a [(NodeId, ChannelId)] {
        &self.arena.listeners
    }

    /// The honest listeners tuned to `channel`, in node order — an O(1)
    /// span lookup, not a scan of the listener list.
    pub fn listeners_on(&self, channel: ChannelId) -> impl Iterator<Item = NodeId> + 'a {
        let ch = channel.index();
        let (start, len) = if self.arena.is_touched(ch) {
            self.arena.l_spans[ch]
        } else {
            (0, 0)
        };
        let listeners = &self.arena.listeners;
        self.arena.l_order[start as usize..(start + len) as usize]
            .iter()
            .map(move |&li| listeners[li as usize].0)
    }
}

/// The radio medium: resolves rounds, keeps the [`Trace`] its config's
/// retention asks for, shows each finished round to an optional
/// [`TraceSink`], and accumulates [`Stats`].
///
/// `Network` is deliberately free of nodes and adversaries — it is a pure
/// referee. Use [`Simulation`](crate::Simulation) to drive full protocol
/// stacks, or call [`Network::resolve_round_sparse`] directly in unit
/// tests.
#[derive(Debug)]
pub struct Network<M> {
    cfg: NetworkConfig,
    round: u64,
    /// The history the adversary observes, retained per
    /// [`NetworkConfig::retention`].
    trace: Trace<M>,
    /// An observer of finished records; it never affects the run.
    sink: Option<Box<dyn TraceSink<M>>>,
    stats: Stats,
    arena: RoundArena<M>,
    /// The live channel model built from the config's spec.
    model: Box<dyn ChannelModel>,
    /// Base seed for the model's deterministic draws (see
    /// [`Network::seed_channel_model`]).
    model_seed: u64,
}

impl<M: Clone + std::fmt::Debug + Send + 'static> Network<M> {
    /// A fresh network at round 0, retaining history per the config's
    /// [`retention`](NetworkConfig::retention).
    pub fn new(cfg: NetworkConfig) -> Self {
        Network::assemble(cfg, None)
    }

    /// Like [`Network::new`], also showing every finished round to
    /// `sink`. The retained history is the config's either way, so a
    /// sink never changes the run.
    pub fn with_sink(cfg: NetworkConfig, sink: Box<dyn TraceSink<M>>) -> Self {
        Network::assemble(cfg, Some(sink))
    }

    fn assemble(cfg: NetworkConfig, sink: Option<Box<dyn TraceSink<M>>>) -> Self {
        let arena = RoundArena::new(cfg.channels());
        let model = cfg.channel_model().build();
        Network {
            trace: Trace::new(cfg.retention()),
            cfg,
            round: 0,
            sink,
            stats: Stats::default(),
            arena,
            model,
            model_seed: 0,
        }
    }

    /// Set the base seed of the channel model's deterministic draws.
    ///
    /// Drivers derive it from the run seed on the reserved stream
    /// (`seed::derive(seed, u64::MAX)` — node reseeding uses streams
    /// `0..n`), so a run is reproducible from its seed alone and
    /// per-node streams never collide with the model's. The default of
    /// `0` is fine for ideal (seed-free) rounds and for direct
    /// [`Network::resolve_round_sparse`] use in tests.
    pub fn seed_channel_model(&mut self, seed: u64) {
        self.model_seed = seed;
    }

    /// The configuration this network runs with.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// The next round to be resolved.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The execution history retained per the config's retention (empty
    /// — but with an exact completed-round count — under
    /// [`TraceRetention::None`]).
    pub fn trace(&self) -> &Trace<M> {
        &self.trace
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Resolve one round given only the actions of **awake** nodes, as
    /// `(node, action)` pairs sorted strictly ascending by node id — the
    /// engine's single entry point, fed by the
    /// [`Simulation`](crate::Simulation) wake-queue.
    ///
    // detlint: deny-alloc(start) round resolution (resolve_round_sparse / gather_one / finish)
    //
    // The static complement of tests/zero_alloc.rs: a steady-state round
    // with retention off must not allocate, and with the recycled
    // LastRounds window only the record-arena frame clones below (each
    // carrying its own allow) may. Scratch vectors reuse capacity;
    // `resize`/`push` on them is growth to the high-water mark, not a
    // per-round cost.
    /// Every node absent from `actions` sleeps this round, so a round
    /// costs O(`actions.len()`) rather than O(population); tests holding
    /// a dense one-action-per-node slice convert it with
    /// [`testing::to_sparse`](crate::testing::to_sparse). Returns a
    /// borrowed [`RoundView`] over per-channel outcomes; the caller
    /// distributes receptions to listeners (or uses
    /// [`Simulation`](crate::Simulation), which does so automatically).
    /// The view borrows `actions` and `adversary` alongside the network.
    ///
    /// [`testing::ReferenceNetwork`](crate::testing::ReferenceNetwork) is
    /// the independent oracle this engine is checked against
    /// (`tests/arena_equivalence.rs`, and `replay --engine both` on the
    /// golden corpus).
    ///
    /// # Panics
    ///
    /// Debug builds assert the strict node-id ordering; release builds
    /// rely on it (an unsorted list changes the order of per-channel
    /// participant spans and trace records).
    ///
    /// # Errors
    ///
    /// * [`EngineError::ChannelOutOfRange`] /
    ///   [`EngineError::AdversaryChannelOutOfRange`] on bad channels;
    /// * [`EngineError::AdversaryBudgetExceeded`] if the adversary used more
    ///   than `t` channels;
    /// * [`EngineError::AdversaryDuplicateChannel`] if it listed one channel
    ///   twice.
    pub fn resolve_round_sparse<'a>(
        &'a mut self,
        actions: &'a [(NodeId, Action<M>)],
        adversary: &'a AdversaryAction<M>,
    ) -> Result<RoundView<'a, M>, EngineError> {
        debug_assert!(
            actions.windows(2).all(|w| w[0].0 < w[1].0),
            "sparse actions must be sorted strictly ascending by node id"
        );
        let c = self.cfg.channels();
        self.arena.begin();

        // -- gather + validate honest actions in one pass ------------------
        // A validation failure may leave the arena partially filled: it is
        // scratch, fully invalidated by the next round's `begin` (epoch
        // bump), and no stats, round counter, or sink effect has happened
        // yet. Honest-channel errors are detected before the adversary
        // checks in `finish`.
        for (src, (node, action)) in actions.iter().enumerate() {
            self.gather_one(node.index(), src, action, c)?;
        }

        let round = self.round;
        self.finish(actions, adversary)?;
        Ok(RoundView {
            round,
            arena: &self.arena,
            actions,
            adversary,
            model: self.model.as_ref(),
            model_seed: self.model_seed,
        })
    }

    /// Gather one honest action into the arena: validate its channel,
    /// touch the channel onto the worklist, and append to the flat
    /// transmission/listener buffers. `src` is the action's index in the
    /// caller's pair slice.
    #[inline]
    fn gather_one(
        &mut self,
        node: usize,
        src: usize,
        action: &Action<M>,
        channels: usize,
    ) -> Result<(), EngineError> {
        match action {
            Action::Transmit { channel, .. } => {
                let ch = channel.index();
                if ch >= channels {
                    return Err(EngineError::ChannelOutOfRange {
                        node: NodeId(node),
                        channel: *channel,
                        channels,
                    });
                }
                self.arena.touch(ch);
                self.arena.tx_node.push(node as u32);
                self.arena.tx_chan.push(ch as u32);
                self.arena.tx_src.push(src as u32);
                self.arena.counts[ch] += 1;
            }
            Action::Listen { channel } => {
                let ch = channel.index();
                if ch >= channels {
                    return Err(EngineError::ChannelOutOfRange {
                        node: NodeId(node),
                        channel: *channel,
                        channels,
                    });
                }
                self.arena.touch(ch);
                self.arena.listeners.push((NodeId(node), *channel));
                self.arena.l_counts[ch] += 1;
            }
            Action::Sleep => {}
        }
        Ok(())
    }

    /// The shared second half of round resolution: validate the adversary
    /// (touching its channels onto the worklist), sort the worklist into
    /// channel-major order, build transmitter + listener spans, resolve
    /// outcome tags, accumulate stats, and build and retain the record —
    /// every per-channel step iterating the active worklist only.
    fn finish(
        &mut self,
        actions: &[(NodeId, Action<M>)],
        adversary: &AdversaryAction<M>,
    ) -> Result<(), EngineError> {
        let c = self.cfg.channels();

        if adversary.len() > self.cfg.budget() {
            return Err(EngineError::AdversaryBudgetExceeded {
                used: adversary.len(),
                budget: self.cfg.budget(),
                round: self.round,
            });
        }
        for (i, (ch, _)) in adversary.transmissions.iter().enumerate() {
            if ch.index() >= c {
                return Err(EngineError::AdversaryChannelOutOfRange {
                    channel: *ch,
                    channels: c,
                });
            }
            self.arena.touch(ch.index());
            if self.arena.adv_idx[ch.index()].is_some() {
                return Err(EngineError::AdversaryDuplicateChannel {
                    channel: *ch,
                    round: self.round,
                });
            }
            self.arena.adv_idx[ch.index()] = Some(i as u32);
        }

        // Channel-major worklist order: iterating the sorted active list
        // visits channels exactly as a dense `0..C` loop would, so span
        // layout, records, and stats match the reference oracle's.
        self.arena.active.sort_unstable();

        // -- group by channel: spans + stable counting-sort permutations ---
        {
            let RoundArena {
                active,
                counts,
                spans,
                order,
                tx_node,
                tx_chan,
                l_counts,
                l_spans,
                l_order,
                listeners,
                ..
            } = &mut self.arena;

            let mut start = 0u32;
            for &ch in active.iter() {
                let ch = ch as usize;
                let len = counts[ch];
                spans[ch] = (start, len);
                counts[ch] = start; // becomes the write cursor
                start += len;
            }
            order.resize(tx_node.len(), 0);
            for (tx, &ch) in tx_chan.iter().enumerate() {
                let cursor = &mut counts[ch as usize];
                order[*cursor as usize] = tx as u32;
                *cursor += 1;
            }

            let mut l_start = 0u32;
            for &ch in active.iter() {
                let ch = ch as usize;
                let len = l_counts[ch];
                l_spans[ch] = (l_start, len);
                l_counts[ch] = l_start;
                l_start += len;
            }
            l_order.resize(listeners.len(), 0);
            for (li, &(_, ch)) in listeners.iter().enumerate() {
                let cursor = &mut l_counts[ch.index()];
                l_order[*cursor as usize] = li as u32;
                *cursor += 1;
            }
        }

        // -- resolve (tags only; frames stay where they are) ---------------
        //
        // The channel model decides each channel's wire outcome: the
        // ideal model always returns `Classic` (the paper's semantics,
        // reproduced verbatim below), other models may override with a
        // capture delivery or a forced collision. Verdicts are mapped
        // back onto the same compact slot tags, so everything downstream
        // (stats, records, views) is model-agnostic.
        {
            let model_seed = self.model_seed;
            let round = self.round;
            for i in 0..self.arena.active.len() {
                let ch = self.arena.active[i] as usize;
                let verdict = {
                    let ctx = model_ctx(&self.arena, adversary, model_seed, round, ch);
                    self.model.resolve(&ctx)
                };
                let (span_start, span_len) = self.arena.spans[ch];
                let adv_slot = self.arena.adv_idx[ch];
                let classic = match (span_len, adv_slot) {
                    (0, None) => ChannelSlot::Idle,
                    (0, Some(adv)) => match &adversary.transmissions[adv as usize].1 {
                        Emission::Noise => ChannelSlot::NoiseOnly,
                        Emission::Spoof(_) => ChannelSlot::Spoof { adv },
                    },
                    (1, None) => ChannelSlot::Delivered {
                        tx: self.arena.order[span_start as usize],
                    },
                    // one honest + adversary, or >=2 honest: collision.
                    (_, adv) => ChannelSlot::Collision {
                        adversary: adv.is_some(),
                    },
                };
                self.arena.slots[ch] = match verdict {
                    ChannelVerdict::Classic => classic,
                    ChannelVerdict::DeliverHonest { idx } => {
                        assert!(
                            idx < span_len as usize,
                            "channel model delivered an out-of-span transmitter"
                        );
                        ChannelSlot::Delivered {
                            tx: self.arena.order[span_start as usize + idx],
                        }
                    }
                    ChannelVerdict::DeliverAdversary => match adv_slot {
                        Some(adv)
                            if matches!(
                                &adversary.transmissions[adv as usize].1,
                                Emission::Spoof(_)
                            ) =>
                        {
                            ChannelSlot::Spoof { adv }
                        }
                        // Nothing to deliver (no spoof on the channel):
                        // fall back to the classic outcome.
                        _ => classic,
                    },
                    ChannelVerdict::Collision => ChannelSlot::Collision {
                        adversary: adv_slot.is_some(),
                    },
                };
            }
        }

        // -- stats ---------------------------------------------------------
        self.stats.rounds += 1;
        self.stats.adversary_transmissions += adversary.len() as u64;
        {
            let arena = &self.arena;
            for &ch in &arena.active {
                let ch = ch as usize;
                // Honest transmitters beyond the delivered one exist only
                // under non-ideal models (capture); under the ideal model
                // a Delivered span is exactly 1 and a Spoof span exactly
                // 0, reproducing the original counts bit for bit.
                match arena.slots[ch] {
                    ChannelSlot::Delivered { .. } => {
                        let involved = u64::from(arena.spans[ch].1);
                        self.stats.honest_transmissions += involved;
                        self.stats.honest_deliveries += 1;
                        self.stats.collisions += involved.saturating_sub(1);
                    }
                    ChannelSlot::Spoof { .. } => {
                        let involved = u64::from(arena.spans[ch].1);
                        self.stats.honest_transmissions += involved;
                        self.stats.collisions += involved;
                        if involved > 0 {
                            self.stats.jams_effective += 1;
                        }
                        // O(1) listener-span lookup, not a listener scan.
                        if arena.l_spans[ch].1 > 0 {
                            self.stats.spoofs_delivered += 1;
                        }
                    }
                    ChannelSlot::Collision { adversary } => {
                        let involved = u64::from(arena.spans[ch].1);
                        self.stats.honest_transmissions += involved;
                        self.stats.collisions += involved;
                        if adversary {
                            self.stats.jams_effective += 1;
                        }
                    }
                    ChannelSlot::Idle | ChannelSlot::NoiseOnly => {}
                }
            }
            if !self.model.diverges() {
                for &(_, ch) in &arena.listeners {
                    // Listener channels are always touched, so the slot is live.
                    match arena.slots[ch.index()] {
                        ChannelSlot::Delivered { .. } | ChannelSlot::Spoof { .. } => {
                            self.stats.frames_received += 1;
                        }
                        _ => self.stats.silent_receptions += 1,
                    }
                }
            } else {
                // Per-listener models: ask the model what each listener
                // actually received (same dispatch as
                // [`RoundView::reception_for`]).
                for &(node, ch) in &arena.listeners {
                    let ch = ch.index();
                    let ctx = model_ctx(arena, adversary, self.model_seed, self.round, ch);
                    let heard = match self.model.listener_outcome(&ctx, node) {
                        ListenerOutcome::Channel => matches!(
                            arena.slots[ch],
                            ChannelSlot::Delivered { .. } | ChannelSlot::Spoof { .. }
                        ),
                        ListenerOutcome::Nothing => false,
                        ListenerOutcome::Honest { .. } => true,
                        ListenerOutcome::Adversary => matches!(
                            arena.adv_idx[ch].map(|a| &adversary.transmissions[a as usize].1),
                            Some(Emission::Spoof(_))
                        ),
                    };
                    if heard {
                        self.stats.frames_received += 1;
                    } else {
                        self.stats.silent_receptions += 1;
                    }
                }
            }
        }

        // -- trace (record arena, rebuilt in place, SoA) -------------------
        if self.trace.retention().keeps_records() || self.sink.is_some() {
            {
                let diverges = self.model.diverges();
                let model = self.model.as_ref();
                let model_seed = self.model_seed;
                let RoundArena {
                    active,
                    tx_node,
                    tx_chan,
                    tx_src,
                    order,
                    spans,
                    listeners,
                    l_order,
                    l_spans,
                    adv_idx,
                    slots,
                    record,
                    ..
                } = &mut self.arena;
                record.round = self.round;
                record.channels = c;
                record.tx_nodes.clear();
                record.tx_channels.clear();
                record.tx_frames.clear();
                for &tx in order.iter() {
                    record.tx_nodes.push(NodeId(tx_node[tx as usize] as usize));
                    record
                        .tx_channels
                        .push(ChannelId(tx_chan[tx as usize] as usize));
                    match &actions[tx_src[tx as usize] as usize].1 {
                        // detlint: allow(deny-alloc) retention cost: frame clone into the capacity-reusing record arena; free for Copy frames (zero_alloc.rs pins it)
                        Action::Transmit { frame, .. } => record.tx_frames.push(frame.clone()),
                        _ => unreachable!("gathered transmissions come from Transmit actions"),
                    }
                }
                record.listener_nodes.clear();
                record.listener_channels.clear();
                for &(node, ch) in listeners.iter() {
                    record.listener_nodes.push(node);
                    record.listener_channels.push(ch);
                }
                record.adv_channels.clear();
                record.adv_emissions.clear();
                for (ch, emission) in &adversary.transmissions {
                    record.adv_channels.push(*ch);
                    // detlint: allow(deny-alloc) retention cost: emission clone into the capacity-reusing record arena; free for Copy frames
                    record.adv_emissions.push(emission.clone());
                }
                // Sorted worklist iteration => delivered channels ascending,
                // as the SoA invariant requires.
                record.delivered_channels.clear();
                record.delivered_frames.clear();
                for &ch in active.iter() {
                    match slots[ch as usize] {
                        ChannelSlot::Delivered { tx } => {
                            match &actions[tx_src[tx as usize] as usize].1 {
                                Action::Transmit { frame, .. } => {
                                    record.delivered_channels.push(ChannelId(ch as usize));
                                    // detlint: allow(deny-alloc) retention cost: delivered-frame clone into the capacity-reusing record arena
                                    record.delivered_frames.push(frame.clone());
                                }
                                _ => unreachable!("delivered slot points at a Transmit action"),
                            }
                        }
                        ChannelSlot::Spoof { adv } => {
                            match &adversary.transmissions[adv as usize].1 {
                                Emission::Spoof(frame) => {
                                    record.delivered_channels.push(ChannelId(ch as usize));
                                    // detlint: allow(deny-alloc) retention cost: spoofed-frame clone into the capacity-reusing record arena
                                    record.delivered_frames.push(frame.clone());
                                }
                                Emission::Noise => unreachable!("spoof slot is a Spoof emission"),
                            }
                        }
                        _ => {}
                    }
                }
                // Per-listener receptions that diverge from the wire
                // outcome (lossy drops, geometric shadowing). Empty —
                // and absent from the encoded line — under non-diverging
                // models, so ideal traces stay byte-identical.
                record.reception_nodes.clear();
                record.reception_frames.clear();
                if diverges {
                    for &ch in active.iter() {
                        let chu = ch as usize;
                        let (l_start, l_len) = l_spans[chu];
                        if l_len == 0 {
                            continue;
                        }
                        let (start, len) = spans[chu];
                        let adv_kind =
                            adv_idx[chu].map(|a| match &adversary.transmissions[a as usize].1 {
                                Emission::Noise => EmissionKind::Noise,
                                Emission::Spoof(_) => EmissionKind::Spoof,
                            });
                        for &li in &l_order[l_start as usize..(l_start + l_len) as usize] {
                            let node = listeners[li as usize].0;
                            let ctx = ChannelContext {
                                seed: model_seed,
                                round: self.round,
                                channel: ChannelId(chu),
                                transmitters: TxSpan::new(
                                    &order[start as usize..(start + len) as usize],
                                    tx_node,
                                ),
                                adversary: adv_kind,
                            };
                            let frame = match model.listener_outcome(&ctx, node) {
                                // Agrees with the wire outcome: not recorded.
                                ListenerOutcome::Channel => continue,
                                ListenerOutcome::Nothing => None,
                                ListenerOutcome::Honest { idx } => {
                                    let tx = ctx.transmitters.tx(idx);
                                    match &actions[tx_src[tx as usize] as usize].1 {
                                        Action::Transmit { frame, .. } => {
                                            // detlint: allow(deny-alloc) retention cost: diverging-reception frame clone into the capacity-reusing record arena
                                            Some(frame.clone())
                                        }
                                        _ => unreachable!(
                                            "transmitter span points at Transmit actions"
                                        ),
                                    }
                                }
                                ListenerOutcome::Adversary => match adv_idx[chu]
                                    .map(|a| &adversary.transmissions[a as usize].1)
                                {
                                    // detlint: allow(deny-alloc) retention cost: diverging-reception spoof clone into the capacity-reusing record arena
                                    Some(Emission::Spoof(frame)) => Some(frame.clone()),
                                    _ => None,
                                },
                            };
                            record.reception_nodes.push(node);
                            record.reception_frames.push(frame);
                        }
                    }
                }
            }
            if let Some(sink) = &mut self.sink {
                sink.record(&self.arena.record);
                // Lossy sinks (bounded channel, drop policy) discard
                // records; mirror their counter so lossiness is visible
                // in the stats.
                self.stats.dropped_records = sink.dropped_records();
            }
            self.trace.push_swap(&mut self.arena.record);
        } else {
            self.trace.note_round();
        }

        self.round += 1;
        Ok(())
    }
    // detlint: deny-alloc(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{to_sparse, ChannelOutcome};

    fn cfg() -> NetworkConfig {
        NetworkConfig::new(3, 2).unwrap()
    }

    fn tx(ch: usize, frame: u32) -> Action<u32> {
        Action::Transmit {
            channel: ChannelId(ch),
            frame,
        }
    }

    fn listen(ch: usize) -> Action<u32> {
        Action::Listen {
            channel: ChannelId(ch),
        }
    }

    /// Resolve one round of a dense action slice and materialize the
    /// owned per-channel outcomes (test convenience around the borrowed
    /// view).
    fn resolve(
        net: &mut Network<u32>,
        actions: &[Action<u32>],
        adversary: AdversaryAction<u32>,
    ) -> Result<Vec<ChannelOutcome<u32>>, EngineError> {
        let pairs = to_sparse(actions);
        net.resolve_round_sparse(&pairs, &adversary)
            .map(|view| view.outcomes().map(ChannelOutcome::from).collect())
    }

    fn record_transmissions(rec: &RoundRecord<u32>) -> Vec<(NodeId, ChannelId, u32)> {
        rec.transmissions().map(|(n, c, f)| (n, c, *f)).collect()
    }

    fn record_delivered(rec: &RoundRecord<u32>) -> Vec<Option<u32>> {
        rec.delivered_dense().map(|f| f.copied()).collect()
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            NetworkConfig::new(1, 0),
            Err(EngineError::TooFewChannels { channels: 1 })
        );
        assert_eq!(
            NetworkConfig::new(3, 3),
            Err(EngineError::BudgetTooLarge {
                budget: 3,
                channels: 3
            })
        );
        assert!(NetworkConfig::new(2, 1).is_ok());
        let minimal = NetworkConfig::minimal(4).unwrap();
        assert_eq!(minimal.channels(), 5);
        assert_eq!(minimal.budget(), 4);
    }

    #[test]
    fn single_transmitter_delivers() {
        let mut net: Network<u32> = Network::new(cfg());
        let res = resolve(
            &mut net,
            &[tx(0, 7), listen(0), listen(1)],
            AdversaryAction::idle(),
        )
        .unwrap();
        assert_eq!(res[0].heard(), Some(7));
        assert_eq!(res[1].heard(), None);
        assert_eq!(net.stats().honest_deliveries, 1);
        assert_eq!(net.stats().frames_received, 1);
        assert_eq!(net.stats().silent_receptions, 1);
    }

    #[test]
    fn view_borrows_frames_without_cloning() {
        let mut net: Network<u32> = Network::new(cfg());
        let pairs = to_sparse(&[tx(0, 7), listen(0), listen(1)]);
        let adv = AdversaryAction::idle();
        let view = net.resolve_round_sparse(&pairs, &adv).unwrap();
        assert_eq!(view.round(), 0);
        assert_eq!(view.channels(), 3);
        // The delivered frame is literally the one in the action slice.
        assert!(std::ptr::eq(
            view.heard_on(ChannelId(0)).unwrap(),
            match &pairs[0].1 {
                Action::Transmit { frame, .. } => frame,
                _ => unreachable!(),
            }
        ));
        assert!(matches!(
            view.outcome(ChannelId(0)),
            OutcomeView::Delivered {
                from: NodeId(0),
                frame: &7
            }
        ));
        assert_eq!(view.listeners().len(), 2);
        let delivered: Vec<Option<&u32>> = view.delivered().collect();
        assert_eq!(delivered, vec![Some(&7), None, None]);
        // The worklist holds exactly the touched channels, ascending.
        let active: Vec<ChannelId> = view.active_channels().collect();
        assert_eq!(active, vec![ChannelId(0), ChannelId(1)]);
        // Per-channel listener spans agree with the flat listener list.
        assert_eq!(
            view.listeners_on(ChannelId(0)).collect::<Vec<_>>(),
            vec![NodeId(1)]
        );
        assert_eq!(
            view.listeners_on(ChannelId(1)).collect::<Vec<_>>(),
            vec![NodeId(2)]
        );
        assert_eq!(view.listeners_on(ChannelId(2)).count(), 0);
    }

    #[test]
    fn two_honest_transmitters_collide() {
        let mut net: Network<u32> = Network::new(cfg());
        let pairs = to_sparse(&[tx(0, 1), tx(0, 2), listen(0)]);
        let adv = AdversaryAction::idle();
        let view = net.resolve_round_sparse(&pairs, &adv).unwrap();
        assert_eq!(view.heard_on(ChannelId(0)), None);
        match view.outcome(ChannelId(0)) {
            OutcomeView::Collision { honest, adversary } => {
                assert!(!adversary);
                assert_eq!(honest.len(), 2);
                assert!(!honest.is_empty());
                let nodes: Vec<NodeId> = honest.nodes().collect();
                assert_eq!(nodes, vec![NodeId(0), NodeId(1)]);
                let frames: Vec<(NodeId, &u32)> = honest.frames().collect();
                assert_eq!(frames, vec![(NodeId(0), &1), (NodeId(1), &2)]);
            }
            other => panic!("expected collision, got {other:?}"),
        }
        assert!(matches!(
            ChannelOutcome::from(view.outcome(ChannelId(0))),
            ChannelOutcome::Collision {
                ref honest,
                adversary: false
            } if honest == &vec![NodeId(0), NodeId(1)]
        ));
        assert_eq!(net.stats().collisions, 2);
    }

    #[test]
    fn jam_collides_with_honest_frame() {
        let mut net: Network<u32> = Network::new(cfg());
        let adv = AdversaryAction::jam([ChannelId(0)]);
        let res = resolve(&mut net, &[tx(0, 1), listen(0)], adv).unwrap();
        assert_eq!(res[0].heard(), None);
        assert_eq!(net.stats().jams_effective, 1);
        assert_eq!(net.stats().collisions, 1);
    }

    #[test]
    fn spoof_on_idle_channel_delivers_fake() {
        let mut net: Network<u32> = Network::new(cfg());
        let mut adv = AdversaryAction::idle();
        adv.push(ChannelId(1), Emission::Spoof(666));
        let res = resolve(&mut net, &[listen(1)], adv).unwrap();
        assert_eq!(res[1].heard(), Some(666));
        assert_eq!(net.stats().spoofs_delivered, 1);
    }

    #[test]
    fn spoof_concurrent_with_honest_collides() {
        let mut net: Network<u32> = Network::new(cfg());
        let mut adv = AdversaryAction::idle();
        adv.push(ChannelId(0), Emission::Spoof(666));
        let res = resolve(&mut net, &[tx(0, 1), listen(0)], adv).unwrap();
        assert_eq!(res[0].heard(), None);
        assert_eq!(net.stats().spoofs_delivered, 0);
        assert_eq!(net.stats().jams_effective, 1);
    }

    #[test]
    fn spoof_delivered_stats_exact_under_many_listeners() {
        // Satellite regression: the spoof-delivered stat used to scan the
        // whole listener list once per channel (O(C×L)); the listener
        // spans make it O(1). Pin the counts with a listener population
        // big enough that a double count (or a miss) is unambiguous.
        let mut net: Network<u32> = Network::new(NetworkConfig::new(4, 2).unwrap());
        let mut actions: Vec<Action<u32>> = Vec::new();
        // 100 listeners on the spoofed channel 1, 100 on the noisy
        // channel 2, 100 on the idle channel 3.
        for _ in 0..100 {
            actions.push(listen(1));
            actions.push(listen(2));
            actions.push(listen(3));
        }
        let mut adv = AdversaryAction::idle();
        adv.push(ChannelId(1), Emission::Spoof(9));
        adv.push(ChannelId(2), Emission::Noise);
        resolve(&mut net, &actions, adv).unwrap();
        // One spoofed channel with listeners => exactly one delivered spoof.
        assert_eq!(net.stats().spoofs_delivered, 1);
        assert_eq!(net.stats().frames_received, 100);
        assert_eq!(net.stats().silent_receptions, 200);

        // A spoof with *no* listeners is not counted as delivered.
        let mut adv = AdversaryAction::idle();
        adv.push(ChannelId(0), Emission::Spoof(7));
        resolve(&mut net, &[listen(3)], adv).unwrap();
        assert_eq!(net.stats().spoofs_delivered, 1);
    }

    #[test]
    fn noise_on_idle_channel_sounds_like_silence() {
        let mut net: Network<u32> = Network::new(cfg());
        let adv = AdversaryAction::jam([ChannelId(2)]);
        let res = resolve(&mut net, &[listen(2)], adv).unwrap();
        assert_eq!(res[2].heard(), None);
        assert!(matches!(res[2], ChannelOutcome::NoiseOnly));
    }

    #[test]
    fn budget_enforced_not_clamped() {
        let mut net: Network<u32> = Network::new(cfg());
        let adv = AdversaryAction::jam([ChannelId(0), ChannelId(1), ChannelId(2)]);
        let err = resolve(&mut net, &[], adv).unwrap_err();
        assert_eq!(
            err,
            EngineError::AdversaryBudgetExceeded {
                used: 3,
                budget: 2,
                round: 0
            }
        );
    }

    #[test]
    fn duplicate_adversary_channel_rejected() {
        let mut net: Network<u32> = Network::new(cfg());
        let adv = AdversaryAction::jam([ChannelId(1), ChannelId(1)]);
        let err = resolve(&mut net, &[], adv).unwrap_err();
        assert_eq!(
            err,
            EngineError::AdversaryDuplicateChannel {
                channel: ChannelId(1),
                round: 0
            }
        );
    }

    #[test]
    fn out_of_range_channels_rejected() {
        let mut net: Network<u32> = Network::new(cfg());
        let err = resolve(&mut net, &[tx(9, 0)], AdversaryAction::idle()).unwrap_err();
        assert!(matches!(err, EngineError::ChannelOutOfRange { .. }));

        let adv = AdversaryAction::jam([ChannelId(17)]);
        let err = resolve(&mut net, &[], adv).unwrap_err();
        assert!(matches!(
            err,
            EngineError::AdversaryChannelOutOfRange { .. }
        ));
    }

    #[test]
    fn retention_none_same_outcomes_and_stats_no_records() {
        let mut traced: Network<u32> = Network::new(cfg());
        let mut lean: Network<u32> = Network::new(cfg().with_retention(TraceRetention::None));
        for round in 0..20u32 {
            let actions = [
                tx(round as usize % 3, round),
                tx((round as usize + 1) % 3, round + 100),
                tx((round as usize + 1) % 3, round + 200),
                listen(round as usize % 3),
                listen((round as usize + 2) % 3),
            ];
            let adv = AdversaryAction::jam([ChannelId((round as usize + 2) % 3)]);
            let a = resolve(&mut traced, &actions, adv.clone()).unwrap();
            let b = resolve(&mut lean, &actions, adv).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(traced.stats(), lean.stats());
        assert_eq!(lean.trace().completed_rounds(), 20);
        assert!(lean.trace().is_empty());
        assert_eq!(traced.trace().len(), 20);
    }

    #[test]
    fn untouched_channels_resolve_idle_despite_stale_slots() {
        // Sparse rounds never visit untouched channels, so their arena
        // slots still hold the previous round's tags — the epoch fence
        // must hide them.
        let mut net: Network<u32> = Network::new(cfg());
        // Round 0: deliver on 0, spoof on 1, collide on 2.
        let mut adv = AdversaryAction::idle();
        adv.push(ChannelId(1), Emission::Spoof(9));
        let pairs = [
            (NodeId(0), tx(0, 5)),
            (NodeId(1), listen(1)),
            (NodeId(2), tx(2, 6)),
            (NodeId(3), tx(2, 7)),
        ];
        net.resolve_round_sparse(&pairs, &adv).unwrap();
        // Round 1: only channel 1 is touched.
        let pairs = [(NodeId(0), tx(1, 8))];
        let idle = AdversaryAction::idle();
        let view = net.resolve_round_sparse(&pairs, &idle).unwrap();
        assert!(matches!(view.outcome(ChannelId(0)), OutcomeView::Idle));
        assert_eq!(view.heard_on(ChannelId(0)), None);
        assert!(matches!(view.outcome(ChannelId(2)), OutcomeView::Idle));
        assert_eq!(view.participants(ChannelId(2)).len(), 0);
        assert_eq!(view.listeners_on(ChannelId(1)).count(), 0);
        assert_eq!(view.heard_on(ChannelId(1)), Some(&8));
        assert_eq!(
            view.active_channels().collect::<Vec<_>>(),
            vec![ChannelId(1)]
        );
        let rec = net.trace().last().unwrap();
        assert_eq!(record_delivered(rec), vec![None, Some(8), None]);
    }

    #[test]
    fn arena_state_does_not_leak_across_rounds() {
        let mut net: Network<u32> = Network::new(cfg());
        // Round 0: busy channel 0 (collision), spoof on 1.
        let mut adv = AdversaryAction::idle();
        adv.push(ChannelId(1), Emission::Spoof(9));
        resolve(&mut net, &[tx(0, 1), tx(0, 2), listen(1)], adv).unwrap();
        // Round 1: everything idle except one clean delivery on channel 2 —
        // nothing from round 0 may bleed in.
        let res = resolve(
            &mut net,
            &[tx(2, 7), listen(2), Action::Sleep],
            AdversaryAction::idle(),
        )
        .unwrap();
        assert_eq!(res[0].heard(), None);
        assert_eq!(res[1].heard(), None);
        assert_eq!(res[2].heard(), Some(7));
        assert!(matches!(res[0], ChannelOutcome::Idle));
        assert!(matches!(res[1], ChannelOutcome::Idle));
        let rec = net.trace().last().unwrap();
        assert_eq!(
            record_transmissions(rec),
            vec![(NodeId(0), ChannelId(2), 7)]
        );
        assert_eq!(
            rec.listeners().collect::<Vec<_>>(),
            vec![(NodeId(1), ChannelId(2))]
        );
    }

    #[test]
    fn trace_records_round() {
        let mut net: Network<u32> = Network::new(cfg());
        resolve(&mut net, &[tx(0, 5), listen(0)], AdversaryAction::idle()).unwrap();
        let rec = net.trace().last().unwrap();
        assert_eq!(
            record_transmissions(rec),
            vec![(NodeId(0), ChannelId(0), 5)]
        );
        assert_eq!(
            rec.listeners().collect::<Vec<_>>(),
            vec![(NodeId(1), ChannelId(0))]
        );
        assert_eq!(record_delivered(rec), vec![Some(5), None, None]);
    }
}
