//! The long-lived secure communication service (Section 7).
//!
//! Once a group key `K` is established (Section 6), the nodes emulate a
//! reliable, secret, authenticated broadcast channel:
//!
//! * the whole group hops channels following `PRF(K, round)` — unknowable
//!   to the adversary, which therefore blocks any given round with
//!   probability at most `t/C`;
//! * one emulated round spans `Θ(t·log n)` physical rounds (`O(log n)`
//!   once `C ≥ 2t`); the emulated broadcaster repeats its message,
//!   encrypted and MACed under `K`, for the whole span;
//! * receivers accept a frame only if the MAC verifies and the embedded
//!   emulated-round number matches — spoofed or replayed frames are
//!   rejected.
//!
//! ## Accepting a frame
//!
//! A keyed listener accepts a received frame in emulated round `e` iff all
//! of the following hold. They are checked in this order, each check only
//! if the previous ones passed, and a rejected frame is rejected for the
//! first one it fails:
//!
//! 1. **nonce** — the frame's public nonce is `e` (stops replays from
//!    other emulated rounds before any crypto runs);
//! 2. **already accepted** — the node has not yet accepted a broadcast
//!    for `e` (the broadcaster repeats one frame for the whole epoch, so
//!    every later copy is a duplicate; checked before the MAC so repeats
//!    cost no crypto);
//! 3. **MAC** — the tag verifies under the current key `K`
//!    ([`SealKey::open`]);
//! 4. **decode** — the plaintext carries a well-formed
//!    `(sender, eround)` header;
//! 5. **eround** — the embedded emulated round is `e`.
//!
//! The order decides only what each rejection costs and which check it
//! is attributed to; the set of accepted frames is that of the plain
//! conjunction. Every frame that could still be accepted is MAC-verified
//! by the node that received it.
//!
//! ## Crypto a node holds
//!
//! Each keyed node holds one per-key state for its current key: a
//! [`SealKey`] (the HMAC midstates of `K` and of its MAC subkey) and the
//! [`HopBlock`] of its hop sequence, which hops on the seal key's `K`
//! midstates (hop and keystream PRFs differ by label only). The state is
//! built on the node's first awake round under that key, so opening a
//! session pays no crypto, and replaced on rekey. A broadcaster seals its
//! frame once per emulated round and resends the same bytes for the rest
//! of the epoch: sealing is deterministic in `(K, e, plaintext)`, so the
//! repeats are the frames a per-round seal would give and the adversary's
//! view does not change. A quiet session-round then costs each node
//! 2 compressions per 32 rounds for the hop (plus 2 on the 1-in-256
//! fallback rounds at `C = 3`), 4 per epoch for the one seal and 4 per
//! accepted frame for the open.
//!
//! Guarantees (w.h.p.): **t-Reliability** (all key holders hear the
//! broadcast), **Secrecy** (frames are ciphertext), **Authentication**
//! (accepted frames were sent by a key holder in this emulated round).

use std::collections::BTreeMap;

use radio_crypto::cipher::{SealKey, SealedBox};
use radio_crypto::key::SymmetricKey;
use radio_crypto::prf::HopBlock;

use radio_network::{
    Action, Adversary, ChannelId, EngineError, NetworkConfig, Protocol, Reception, Simulation,
    Stats, Trace, TraceRetention, TraceSink,
};

use crate::Params;

/// One scripted broadcast: at emulated round `eround`, node `sender`
/// broadcasts `message`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScriptEntry {
    /// Emulated round index.
    pub eround: u64,
    /// Broadcasting node.
    pub sender: usize,
    /// Plaintext message.
    pub message: Vec<u8>,
}

fn encode(sender: usize, eround: u64, message: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + message.len());
    out.extend_from_slice(&(sender as u32).to_be_bytes());
    out.extend_from_slice(&eround.to_be_bytes());
    out.extend_from_slice(message);
    out
}

fn decode(bytes: &[u8]) -> Option<(usize, u64, Vec<u8>)> {
    if bytes.len() < 12 {
        return None;
    }
    let sender = u32::from_be_bytes(bytes[0..4].try_into().ok()?) as usize;
    let eround = u64::from_be_bytes(bytes[4..12].try_into().ok()?);
    Some((sender, eround, bytes[12..].to_vec()))
}

/// One accepted broadcast, as the accepting node logged it: which
/// physical `round` the frame landed in, which emulated round it
/// belonged to, and who sent it. The physical round is what delivery
/// *latency* means for a long-lived session — rounds elapsed between the
/// start of the emulated round (`eround * epoch_len`) and acceptance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Accept {
    /// Physical round the frame was accepted in.
    pub round: u64,
    /// Emulated round the broadcast belonged to.
    pub eround: u64,
    /// Broadcasting node.
    pub sender: usize,
}

/// A node's group key, as far as it has been prepared for use.
#[derive(Clone, Debug)]
enum Keying {
    /// Outside the keyed group.
    Unkeyed,
    /// Holds `K` but has not been awake under it yet.
    Pending(SymmetricKey),
    /// The per-key state of the current key.
    Held(Held),
}

/// The crypto a keyed node holds for its current key (see the module
/// docs): what it seals and opens with, and its hop block, hopped under
/// the seal key's `K` midstates.
#[derive(Clone, Debug)]
struct Held {
    seal: SealKey,
    hop: HopBlock,
}

/// A participant in the emulated channel.
#[derive(Clone, Debug)]
pub struct LongLivedNode {
    id: usize,
    /// Channels hopped over (`params.c()`), the one part of its `Params`
    /// the node uses: a smaller node is cheaper to open sessions with.
    channels: usize,
    key: Keying,
    /// My scripted broadcasts: emulated round -> message.
    script: BTreeMap<u64, Vec<u8>>,
    /// Scheduled key rotations `(from emulated round, new group key)`,
    /// the next one due last: due rotations pop off the back, and a pop
    /// never frees (the gateway's steady-state tick allocates nothing,
    /// across a rekey too).
    rekeys: Vec<(u64, SymmetricKey)>,
    /// My latest sealed broadcast, resent unchanged for the rest of its
    /// emulated round (its nonce). Boxed so non-broadcasters carry one
    /// pointer; kept across rekeys, which start a new emulated round.
    sent: Option<Box<SealedBox>>,
    epoch_len: u64,
    emulated_rounds: u64,
    /// Accepted broadcasts: emulated round -> (sender, message).
    received: BTreeMap<u64, (usize, Vec<u8>)>,
    /// Acceptance log, in order, one entry per accepted broadcast.
    /// Pre-sized to the session horizon so steady-state pushes never
    /// reallocate (at most one acceptance per emulated round).
    accepts: Vec<Accept>,
    round: u64,
}

impl LongLivedNode {
    /// Build node `id`; `key` is `None` for nodes outside the keyed group
    /// (the ≤ t nodes the setup could not reach).
    pub fn new(
        id: usize,
        params: Params,
        key: Option<SymmetricKey>,
        script: BTreeMap<u64, Vec<u8>>,
        emulated_rounds: u64,
    ) -> Self {
        LongLivedNode {
            id,
            epoch_len: params.epoch_rounds(),
            channels: params.c(),
            key: key.map_or(Keying::Unkeyed, Keying::Pending),
            script,
            rekeys: Vec::new(),
            sent: None,
            emulated_rounds,
            received: BTreeMap::new(),
            accepts: Vec::with_capacity(emulated_rounds as usize),
            round: 0,
        }
    }

    /// Schedule key rotations: at the start of each emulated round named
    /// in `rekeys`, the node switches to that key for hopping, sealing,
    /// and opening. Every keyed node in a session must carry the same
    /// schedule (the model's out-of-band re-agreement, e.g. a Section 6
    /// re-run); nodes outside the keyed group ignore it. Of two rotations
    /// named for one emulated round, the later one in `rekeys` wins, as in
    /// a map built from the same entries.
    #[must_use]
    pub fn with_rekeys(mut self, rekeys: impl IntoIterator<Item = (u64, SymmetricKey)>) -> Self {
        self.rekeys = rekeys.into_iter().collect();
        // Stable sort, then reverse: popping from the back applies the
        // rotations in order, equal rounds in their given order.
        self.rekeys.sort_by_key(|&(at, _)| at);
        self.rekeys.reverse();
        self
    }

    /// Broadcasts accepted so far.
    pub fn received(&self) -> &BTreeMap<u64, (usize, Vec<u8>)> {
        &self.received
    }

    /// The in-order acceptance log (see [`Accept`]). Grows by at most one
    /// entry per emulated round; the gateway drains it incrementally with
    /// a cursor to build per-session delivery transcripts.
    pub fn accepts(&self) -> &[Accept] {
        &self.accepts
    }

    fn current_eround(&self) -> u64 {
        self.round / self.epoch_len
    }
}

impl Protocol for LongLivedNode {
    type Msg = SealedBox;

    fn begin_round(&mut self, round: u64) -> Action<SealedBox> {
        // Track the driver's round directly: a node that slept through a
        // stretch of rounds (see `next_wake`) resumes at the right epoch.
        self.round = round;
        if self.is_done() {
            return Action::Sleep;
        }
        let e = self.current_eround();
        // Key rotation: apply every scheduled rekey due at or before this
        // emulated round. All keyed nodes carry the same schedule, so the
        // whole group switches hop sequence and sealing key in lockstep
        // at the epoch boundary.
        while self.rekeys.last().is_some_and(|&(at, _)| at <= e) {
            if let Some((_, key)) = self.rekeys.pop() {
                self.key = Keying::Pending(key);
            }
        }
        if let Keying::Pending(key) = self.key {
            self.key = Keying::Held(Held {
                seal: SealKey::new(&key),
                hop: HopBlock::new(),
            });
        }
        let Keying::Held(held) = &mut self.key else {
            return Action::Sleep; // outside the keyed group
        };
        let channel = ChannelId(held.hop.channel_for(
            held.seal.prf_key(),
            self.channels,
            self.round,
        ));
        let Some(message) = self.script.get(&e) else {
            return Action::Listen { channel };
        };
        // One seal per emulated round: every rekey due by `e` was applied
        // above, so a frame with nonce `e` was sealed under today's key.
        let frame = match &mut self.sent {
            Some(sent) if sent.nonce == e => SealedBox::clone(sent),
            sent => {
                let sealed = held.seal.seal(e, &encode(self.id, e, message));
                *sent = Some(Box::new(sealed.clone()));
                sealed
            }
        };
        Action::Transmit { channel, frame }
    }

    fn end_round(&mut self, round: u64, reception: Option<Reception<&SealedBox>>) {
        if let (
            Keying::Held(held),
            Some(Reception {
                frame: Some(sealed),
                ..
            }),
        ) = (&self.key, &reception)
        {
            let e = self.current_eround();
            // The acceptance checks, in the order the module docs list:
            // nonce binding (stops replays), then "already accepted" (the
            // epoch's repeats cost no crypto), then MAC, decode, eround.
            if sealed.nonce == e && !self.received.contains_key(&e) {
                if let Some(plain) = held.seal.open(sealed) {
                    if let Some((sender, eround, message)) = decode(&plain) {
                        if eround == e {
                            self.accepts.push(Accept {
                                round,
                                eround: e,
                                sender,
                            });
                            self.received.insert(e, (sender, message));
                        }
                    }
                }
            }
        }
        self.round = round + 1;
    }

    fn is_done(&self) -> bool {
        self.round >= self.emulated_rounds * self.epoch_len
    }

    fn next_wake(&self, round: u64) -> u64 {
        if self.is_done() {
            return radio_network::NEVER;
        }
        if matches!(self.key, Keying::Unkeyed) {
            // Unkeyed nodes never transmit or listen; sleep until the
            // session's last round so `is_done` flips in lockstep with
            // the keyed group and the run length stays unchanged.
            let total = self.emulated_rounds * self.epoch_len;
            return total.saturating_sub(1).max(round + 1);
        }
        round + 1
    }
}

/// Outcome of a long-lived session.
#[derive(Clone, Debug)]
pub struct LongLivedReport {
    /// Per node: accepted broadcasts.
    pub received: Vec<BTreeMap<u64, (usize, Vec<u8>)>>,
    /// Physical rounds executed.
    pub rounds: u64,
    /// Physical rounds per emulated round.
    pub epoch_len: u64,
    /// Network statistics.
    pub stats: Stats,
    /// Full trace (for secrecy audits) when requested.
    pub trace: Option<Trace<SealedBox>>,
}

impl LongLivedReport {
    /// Delivery rate of `script` among the key-holding listeners: for each
    /// scripted broadcast, the fraction of other key holders that accepted
    /// exactly `(sender, message)` at that emulated round.
    pub fn delivery_rate(&self, script: &[ScriptEntry], holders: &[bool]) -> f64 {
        let mut ok = 0usize;
        let mut all = 0usize;
        for entry in script {
            for (node, received) in self.received.iter().enumerate() {
                if node == entry.sender || !holders[node] {
                    continue;
                }
                all += 1;
                if received.get(&entry.eround) == Some(&(entry.sender, entry.message.clone())) {
                    ok += 1;
                }
            }
        }
        if all == 0 {
            1.0
        } else {
            ok as f64 / all as f64
        }
    }
}

/// Run a long-lived session.
///
/// `keys[v]` is node `v`'s group key (or `None`); `script` lists the
/// broadcasts. One emulated round costs [`Params::epoch_rounds`] physical
/// rounds.
///
/// # Errors
///
/// Propagates engine failures; panics on scripts that reference unkeyed
/// senders (a configuration bug, mirrored by an assert).
pub fn run_longlived<A>(
    params: &Params,
    keys: &[Option<SymmetricKey>],
    script: &[ScriptEntry],
    adversary: A,
    seed: u64,
    keep_trace: bool,
) -> Result<LongLivedReport, EngineError>
where
    A: Adversary<SealedBox>,
{
    run_longlived_inner(params, keys, script, adversary, seed, keep_trace, None)
}

/// Like [`run_longlived`]'s `keep_trace = false` run, also handing every
/// finished round to `sink` (e.g. a
/// [`ChannelSink`](radio_network::ChannelSink) streaming the trace to a
/// file). The execution is bit-identical; the report's `trace` field is
/// `None` — the stream is the product.
///
/// # Errors
///
/// Same as [`run_longlived`].
pub fn run_longlived_streaming<A>(
    params: &Params,
    keys: &[Option<SymmetricKey>],
    script: &[ScriptEntry],
    adversary: A,
    seed: u64,
    sink: Box<dyn TraceSink<SealedBox>>,
) -> Result<LongLivedReport, EngineError>
where
    A: Adversary<SealedBox>,
{
    run_longlived_inner(params, keys, script, adversary, seed, false, Some(sink))
}

/// The in-memory history window a non-`keep_trace` long-lived run retains
/// for its trace-mining adversaries (rounds).
pub const LONGLIVED_TRACE_WINDOW: usize = 8;

/// The nodes of a long-lived session and its length in emulated rounds —
/// the one node assembly behind [`LongLivedSession::open`] and corpus
/// replay.
///
/// The session lasts `max(horizon, last scripted eround + 1)` emulated
/// rounds; node `v` broadcasts its entries of `script` and holds
/// `keys[v]`; only keyed nodes carry the `rekeys` schedule.
///
/// # Panics
///
/// Panics when `keys` and `params.n()` disagree or a scripted sender has
/// no group key (configuration bugs).
pub fn session_nodes(
    params: &Params,
    keys: &[Option<SymmetricKey>],
    script: &[ScriptEntry],
    rekeys: &[(u64, SymmetricKey)],
    horizon: u64,
) -> (Vec<LongLivedNode>, u64) {
    assert_eq!(keys.len(), params.n(), "one key slot per node");
    let emulated_rounds = script
        .iter()
        .map(|e| e.eround + 1)
        .max()
        .unwrap_or(0)
        .max(horizon);
    for entry in script {
        assert!(
            keys[entry.sender].is_some(),
            "scripted sender {} has no group key",
            entry.sender
        );
    }
    let nodes = (0..params.n())
        .map(|id| {
            let my_script: BTreeMap<u64, Vec<u8>> = script
                .iter()
                .filter(|e| e.sender == id)
                .map(|e| (e.eround, e.message.clone()))
                .collect();
            let node = LongLivedNode::new(id, params.clone(), keys[id], my_script, emulated_rounds);
            if keys[id].is_some() {
                node.with_rekeys(rekeys.iter().copied())
            } else {
                node
            }
        })
        .collect();
    (nodes, emulated_rounds)
}

/// An open long-lived session as a *steppable handle*: the same network,
/// nodes, and drive order as [`run_longlived`], but advanced one physical
/// round at a time by the caller instead of run-to-completion. This is
/// what the session gateway multiplexes — each worker owns many open
/// sessions and interleaves their [`LongLivedSession::step`] calls — and
/// `run_longlived` itself is the degenerate one-session case
/// ([`LongLivedSession::run`]), so both paths are bit-identical by
/// construction.
pub struct LongLivedSession<A: Adversary<SealedBox>> {
    sim: Simulation<LongLivedNode, A>,
    epoch_len: u64,
    total: u64,
}

impl<A: Adversary<SealedBox>> LongLivedSession<A> {
    /// Open a session.
    ///
    /// `keys[v]` is node `v`'s group key (or `None` for the ≤ t nodes the
    /// setup could not reach); `script` lists the broadcasts; `rekeys`
    /// schedules group-wide key rotations (applied to every keyed node;
    /// see [`LongLivedNode::with_rekeys`]). The session lasts
    /// `max(horizon, last scripted eround + 1)` emulated rounds — pass
    /// `horizon = 0` to derive the length from the script alone, as
    /// [`run_longlived`] does ([`session_nodes`] builds the nodes).
    /// `retention` is the in-memory history the adversary observes;
    /// `sink` optionally observes finished rounds (e.g. streaming them to
    /// a trace file) without changing the run.
    ///
    /// # Errors
    ///
    /// Propagates engine configuration failures.
    ///
    /// # Panics
    ///
    /// Panics when `keys` and `params.n()` disagree or a scripted sender
    /// has no group key (configuration bugs).
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        params: &Params,
        keys: &[Option<SymmetricKey>],
        script: &[ScriptEntry],
        rekeys: &[(u64, SymmetricKey)],
        horizon: u64,
        adversary: A,
        seed: u64,
        retention: TraceRetention,
        sink: Option<Box<dyn TraceSink<SealedBox>>>,
    ) -> Result<Self, EngineError> {
        let (nodes, emulated_rounds) = session_nodes(params, keys, script, rekeys, horizon);
        let cfg = NetworkConfig::new(params.c(), params.t())?
            .with_channel_model(params.channel_model().clone())
            .with_retention(retention);
        let sim = match sink {
            Some(sink) => Simulation::with_sink(cfg, nodes, adversary, seed, sink)?,
            None => Simulation::new(cfg, nodes, adversary, seed)?,
        };
        Ok(LongLivedSession {
            sim,
            epoch_len: params.epoch_rounds(),
            total: emulated_rounds * params.epoch_rounds(),
        })
    }

    /// Advance the session by one physical round.
    ///
    /// # Errors
    ///
    /// Propagates engine failures; the round is re-queued, so a caller
    /// may retry.
    pub fn step(&mut self) -> Result<(), EngineError> {
        self.sim.step()
    }

    /// `true` once every node has finished its emulated rounds.
    pub fn is_done(&self) -> bool {
        self.sim.all_done()
    }

    /// Physical rounds stepped so far.
    pub fn rounds(&self) -> u64 {
        self.sim.trace().completed_rounds()
    }

    /// Physical rounds per emulated round.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Nominal session length in physical rounds (`emulated rounds ×
    /// epoch length`); [`LongLivedSession::run`] allows two rounds of
    /// slack beyond it, matching [`run_longlived`].
    pub fn total_rounds(&self) -> u64 {
        self.total
    }

    /// The nodes, for reading acceptance logs and received broadcasts.
    pub fn nodes(&self) -> &[LongLivedNode] {
        self.sim.nodes()
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &Stats {
        self.sim.stats()
    }

    /// Drive the session to completion and wrap up the standard report.
    /// Rounds count from the session's start, including any already
    /// taken with [`LongLivedSession::step`].
    ///
    /// # Errors
    ///
    /// Engine failures, or `RoundLimitExceeded` past the session length.
    pub fn run(&mut self, keep_trace: bool) -> Result<LongLivedReport, EngineError> {
        let limit = (self.total + 2).saturating_sub(self.rounds());
        let report = self.sim.run(limit)?;
        let trace = keep_trace.then(|| self.sim.trace().clone());
        Ok(LongLivedReport {
            received: self
                .sim
                .nodes()
                .iter()
                .map(|n| n.received().clone())
                .collect(),
            rounds: self.rounds(),
            epoch_len: self.epoch_len,
            stats: report.stats,
            trace,
        })
    }
}

fn run_longlived_inner<A>(
    params: &Params,
    keys: &[Option<SymmetricKey>],
    script: &[ScriptEntry],
    adversary: A,
    seed: u64,
    keep_trace: bool,
    sink: Option<Box<dyn TraceSink<SealedBox>>>,
) -> Result<LongLivedReport, EngineError>
where
    A: Adversary<SealedBox>,
{
    let retention = if keep_trace {
        TraceRetention::All
    } else {
        TraceRetention::LastRounds(LONGLIVED_TRACE_WINDOW)
    };
    let mut session = LongLivedSession::open(
        params,
        keys,
        script,
        &[],
        0,
        adversary,
        seed,
        retention,
        sink,
    )?;
    session.run(keep_trace)
}

#[cfg(test)]
mod codec_tests {
    use super::{decode, encode};

    #[test]
    fn roundtrip() {
        for (sender, eround, msg) in [
            (0usize, 0u64, &b""[..]),
            (7, 42, b"hello"),
            (usize::from(u32::MAX as u16), u64::MAX, b"edge"),
        ] {
            let bytes = encode(sender, eround, msg);
            assert_eq!(decode(&bytes), Some((sender, eround, msg.to_vec())));
        }
    }

    #[test]
    fn short_input_rejected() {
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[0u8; 11]), None);
        // Exactly the header with empty message is fine.
        assert!(decode(&[0u8; 12]).is_some());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_crypto::prf::ChannelHopper;
    use radio_network::adversaries::{NoAdversary, RandomJammer, Spoofer};

    fn params() -> Params {
        Params::minimal(40, 2).unwrap()
    }

    fn keys(p: &Params, missing: &[usize]) -> Vec<Option<SymmetricKey>> {
        let k = SymmetricKey::from_bytes([42u8; 32]);
        (0..p.n())
            .map(|v| if missing.contains(&v) { None } else { Some(k) })
            .collect()
    }

    fn script() -> Vec<ScriptEntry> {
        vec![
            ScriptEntry {
                eround: 0,
                sender: 3,
                message: b"hello group".to_vec(),
            },
            ScriptEntry {
                eround: 1,
                sender: 17,
                message: b"second broadcast".to_vec(),
            },
            ScriptEntry {
                eround: 2,
                sender: 3,
                message: b"third".to_vec(),
            },
        ]
    }

    #[test]
    fn quiet_channel_delivers_everything() {
        let p = params();
        let ks = keys(&p, &[]);
        let report = run_longlived(&p, &ks, &script(), NoAdversary, 5, false).unwrap();
        let holders = vec![true; p.n()];
        assert!((report.delivery_rate(&script(), &holders) - 1.0).abs() < 1e-9);
        assert_eq!(report.rounds, 3 * p.epoch_rounds());
    }

    #[test]
    fn run_after_step_counts_rounds_from_session_start() {
        let p = params();
        let ks = keys(&p, &[]);
        let open = || {
            LongLivedSession::open(
                &p,
                &ks,
                &script(),
                &[],
                0,
                RandomJammer::new(7),
                9,
                TraceRetention::LastRounds(LONGLIVED_TRACE_WINDOW),
                None,
            )
            .unwrap()
        };
        let whole = open().run(false).unwrap();
        let mut stepped = open();
        for _ in 0..5 {
            stepped.step().unwrap();
        }
        assert_eq!(stepped.rounds(), 5);
        let report = stepped.run(false).unwrap();
        assert_eq!(report.rounds, whole.rounds);
        assert_eq!(stepped.rounds(), whole.rounds);
        assert_eq!(report.stats, whole.stats);
        assert_eq!(report.received, whole.received);
    }

    #[test]
    fn jammed_channel_still_delivers_whp() {
        let p = params();
        let ks = keys(&p, &[]);
        let report = run_longlived(&p, &ks, &script(), RandomJammer::new(7), 9, false).unwrap();
        let holders = vec![true; p.n()];
        let rate = report.delivery_rate(&script(), &holders);
        assert!(rate > 0.999, "delivery rate {rate} too low under jamming");
    }

    #[test]
    fn unkeyed_nodes_hear_nothing() {
        let p = params();
        let ks = keys(&p, &[0, 1]);
        let report = run_longlived(&p, &ks, &script(), NoAdversary, 5, false).unwrap();
        assert!(report.received[0].is_empty());
        assert!(report.received[1].is_empty());
    }

    #[test]
    fn spoofed_frames_are_rejected() {
        let p = params();
        let ks = keys(&p, &[]);
        let wrong_key = SymmetricKey::from_bytes([13u8; 32]);
        let spoofer = Spoofer::new(3, move |round, _ch| {
            SealedBox::seal(&wrong_key, round / 74, &encode(3, round / 74, b"FORGED"))
        });
        let report = run_longlived(&p, &ks, &script(), spoofer, 5, false).unwrap();
        for (node, received) in report.received.iter().enumerate() {
            for (e, (sender, message)) in received {
                let genuine = script()
                    .iter()
                    .any(|s| s.eround == *e && s.sender == *sender && &s.message == message);
                assert!(genuine, "node {node} accepted a forged frame at {e}");
            }
        }
    }

    /// A listener (node 1, scripting nothing) in a 3-eround session.
    fn listener(p: &Params, key: SymmetricKey) -> LongLivedNode {
        LongLivedNode::new(1, p.clone(), Some(key), BTreeMap::new(), 3)
    }

    /// Drive one round of `node` in which it hears `frame`.
    fn hear(node: &mut LongLivedNode, round: u64, frame: &SealedBox) {
        let Action::Listen { channel } = node.begin_round(round) else {
            panic!("a keyed node without a script listens");
        };
        node.end_round(
            round,
            Some(Reception {
                channel,
                frame: Some(frame),
            }),
        );
    }

    #[test]
    fn forgery_ahead_of_the_genuine_frame_does_not_block_it() {
        let p = params();
        let key = SymmetricKey::from_bytes([42u8; 32]);
        let wrong = SymmetricKey::from_bytes([13u8; 32]);
        let e = 1;
        let start = e * p.epoch_rounds();
        let mut node = listener(&p, key);
        // Right nonce, right header, wrong key: fails the MAC.
        let forged = SealedBox::seal(&wrong, e, &encode(3, e, b"FORGED"));
        hear(&mut node, start, &forged);
        hear(&mut node, start + 1, &forged);
        assert!(node.received().is_empty() && node.accepts().is_empty());
        let genuine = SealedBox::seal(&key, e, &encode(3, e, b"genuine"));
        hear(&mut node, start + 2, &genuine);
        assert_eq!(
            node.accepts(),
            &[Accept {
                round: start + 2,
                eround: e,
                sender: 3,
            }]
        );
        assert_eq!(node.received()[&e], (3, b"genuine".to_vec()));
    }

    #[test]
    fn frames_after_acceptance_change_nothing() {
        let p = params();
        let key = SymmetricKey::from_bytes([42u8; 32]);
        let wrong = SymmetricKey::from_bytes([13u8; 32]);
        let e = 1;
        let start = e * p.epoch_rounds();
        let mut node = listener(&p, key);
        let genuine = SealedBox::seal(&key, e, &encode(3, e, b"genuine"));
        hear(&mut node, start, &genuine);
        let (received, accepts) = (node.received().clone(), node.accepts().to_vec());
        assert_eq!(accepts.len(), 1);
        let late = [
            // A forgery with the right nonce.
            SealedBox::seal(&wrong, e, &encode(5, e, b"FORGED")),
            // A replay of the previous emulated round's broadcast.
            SealedBox::seal(&key, e - 1, &encode(3, e - 1, b"old")),
            // The same broadcast again, and a second key holder's frame.
            genuine.clone(),
            SealedBox::seal(&key, e, &encode(9, e, b"second")),
        ];
        for (i, frame) in late.iter().enumerate() {
            hear(&mut node, start + 1 + i as u64, frame);
            assert_eq!(node.received(), &received, "frame {i}");
            assert_eq!(node.accepts(), &accepts[..], "frame {i}");
        }
    }

    /// Emulated round 2 starts in mid hop block (the epoch is not a
    /// multiple of 32 rounds), so this also pins that a rekey starts a
    /// fresh block under the new key.
    #[test]
    fn rekey_switches_to_the_new_keys_hop_sequence() {
        let p = params();
        assert!(
            !(2 * p.epoch_rounds()).is_multiple_of(32),
            "rekey in mid block"
        );
        let old = SymmetricKey::from_bytes([42u8; 32]);
        let new = SymmetricKey::from_bytes([43u8; 32]);
        let mut node = listener(&p, old).with_rekeys(BTreeMap::from([(2, new)]));
        let (mut before, mut after) = (
            ChannelHopper::new(&old, p.c()),
            ChannelHopper::new(&new, p.c()),
        );
        for round in 0..3 * p.epoch_rounds() {
            let expected = if round / p.epoch_rounds() < 2 {
                &mut before
            } else {
                &mut after
            };
            let Action::Listen { channel } = node.begin_round(round) else {
                panic!("round {round}: a keyed node without a script listens");
            };
            assert_eq!(channel.0, expected.channel_for(round), "round {round}");
            node.end_round(round, None);
        }
    }

    /// Rotations given out of order apply in emulated-round order; of two
    /// for one round the later given wins, as in a map of the entries.
    #[test]
    fn rekeys_apply_in_round_order_and_the_last_given_wins() {
        let p = params();
        let key = |b: u8| SymmetricKey::from_bytes([b; 32]);
        let mut node =
            listener(&p, key(1)).with_rekeys(vec![(2, key(4)), (1, key(2)), (2, key(3))]);
        let mut hoppers: Vec<ChannelHopper> =
            [1, 2, 3].map(|b| ChannelHopper::new(&key(b), p.c())).into();
        for round in 0..3 * p.epoch_rounds() {
            let Action::Listen { channel } = node.begin_round(round) else {
                panic!("round {round}: a keyed node without a script listens");
            };
            let e = (round / p.epoch_rounds()) as usize;
            assert_eq!(channel.0, hoppers[e].channel_for(round), "round {round}");
            node.end_round(round, None);
        }
    }

    /// A broadcaster seals once per emulated round and resends the same
    /// bytes: over a broadcasting epoch it pays exactly one seal (4
    /// compressions) more than a listener under the same key, and every
    /// copy it transmits is the frame `SealedBox::seal` gives.
    #[test]
    fn one_seal_per_broadcasting_epoch() {
        use radio_crypto::sha256::compressions::during;
        let p = params();
        let key = SymmetricKey::from_bytes([42u8; 32]);
        let script = BTreeMap::from([(0, b"hello".to_vec()), (1, b"again".to_vec())]);
        let mut sender = LongLivedNode::new(3, p.clone(), Some(key), script.clone(), 3);
        let mut quiet = listener(&p, key);
        for e in 0..3u64 {
            let rounds = e * p.epoch_rounds()..(e + 1) * p.epoch_rounds();
            let mut frames = Vec::new();
            let (_, sending) = during(|| {
                for round in rounds.clone() {
                    if let Action::Transmit { frame, .. } = sender.begin_round(round) {
                        frames.push(frame);
                    }
                    sender.end_round(round, None);
                }
            });
            let (_, listening) = during(|| {
                for round in rounds.clone() {
                    let _ = quiet.begin_round(round);
                    quiet.end_round(round, None);
                }
            });
            match script.get(&e) {
                Some(message) => {
                    assert_eq!(sending, listening + 4, "eround {e}: one seal");
                    assert_eq!(frames.len() as u64, p.epoch_rounds());
                    let expected = SealedBox::seal(&key, e, &encode(3, e, message));
                    assert!(frames.iter().all(|f| f == &expected), "eround {e}");
                }
                None => {
                    assert_eq!(sending, listening, "eround {e}: no seal");
                    assert!(frames.is_empty());
                }
            }
        }
    }

    #[test]
    fn debug_of_node_is_redacted() {
        let p = params();
        let key = SymmetricKey::from_bytes([42u8; 32]);
        let next = SymmetricKey::from_bytes([43u8; 32]);
        let mut node = listener(&p, key).with_rekeys(BTreeMap::from([(1, next)]));
        let _ = node.begin_round(0); // builds the held hop schedule
        let mut dbg = format!("{node:?}");
        assert!(dbg.contains("HmacKey(<redacted>)"), "no held hopper: {dbg}");
        assert!(!dbg.contains("42, 42"), "raw key bytes leaked: {dbg}");
        assert!(!dbg.contains("43, 43"), "raw key bytes leaked: {dbg}");
        // The public fingerprint prefixes may show; drop them, then no
        // number the size of a midstate word may remain (a leaked
        // midstate shows as sixteen random u32s).
        for k in [key, next] {
            dbg = dbg.replace(&k.fingerprint().short_hex(), "");
        }
        for token in dbg.split(|c: char| !c.is_ascii_alphanumeric()) {
            if let Ok(v) = token.parse::<u64>() {
                assert!(v < 1_000_000, "midstate-sized number {v} in: {dbg}");
            }
            assert!(
                token.len() < 8 || !token.bytes().all(|b| b.is_ascii_hexdigit()),
                "hex word {token} in: {dbg}"
            );
        }
    }

    #[test]
    fn frames_on_air_are_ciphertext() {
        let p = params();
        let ks = keys(&p, &[]);
        let report = run_longlived(&p, &ks, &script(), NoAdversary, 5, true).unwrap();
        let trace = report.trace.expect("kept");
        for rec in trace.records() {
            for (_, _, frame) in rec.transmissions() {
                // The plaintext never appears in the ciphertext.
                for entry in script() {
                    if frame.ciphertext.len() >= entry.message.len() {
                        assert!(
                            !frame
                                .ciphertext
                                .windows(entry.message.len())
                                .any(|w| w == entry.message.as_slice()),
                            "plaintext leaked on the air"
                        );
                    }
                }
            }
        }
    }
}
