//! # radio-network
//!
//! A synchronous, multi-channel, single-hop radio network simulator with a
//! malicious (jamming + spoofing) adversary, implementing the exact model of
//!
//! > Dolev, Gilbert, Guerraoui, Newport.
//! > *Secure Communication Over Radio Channels.* PODC 2008, Section 3.
//!
//! ## Model
//!
//! * `n` honest nodes, `C > 1` channels, lock-step synchronous rounds.
//! * Per round each node either **transmits** on one channel, **listens** on
//!   one channel, or **sleeps**.
//! * If exactly one transmitter (honest or adversarial) is active on a
//!   channel, every listener on that channel receives the frame. If zero or
//!   two-or-more transmitters are active, listeners receive nothing — and
//!   nodes *cannot* distinguish silence from collision (no collision
//!   detection).
//! * The adversary transmits on up to `t < C` channels per round and listens
//!   on all `C` channels. It can **jam** (collide with an honest frame) and
//!   **spoof** (inject a fake frame on an otherwise idle channel). It learns
//!   every completed round in full — including the honest nodes' random
//!   choices — but never the current round's choices before acting.
//!
//! ## Architecture (module ↦ paper section)
//!
//! * [`Network`] (`engine`) — pure round-resolution engine implementing
//!   the §3 channel semantics above. Its round loop is arena-backed and
//!   **activity-proportional**: an epoch-stamped active-channel worklist
//!   plus per-channel transmitter/listener spans make a round cost
//!   O(active channels + participants), not O(C) — and its single entry
//!   point, [`Network::resolve_round_sparse`], accepts only the awake
//!   nodes' actions so cost is independent of `n` too. It returns a
//!   borrowed [`RoundView`] over reused flat storage, so steady-state
//!   rounds are allocation-free.
//! * [`testing::ReferenceNetwork`] (`testing`) — the §3 rule written out
//!   plainly (per-channel `Vec`s, owned [`testing::ChannelOutcome`]s):
//!   the one independent oracle the engine is property-tested against,
//!   and the `dense` side of `replay --engine both`.
//! * [`Protocol`] (`node`) — the state-machine trait honest §3 nodes
//!   implement, including the sleep/wake contract
//!   ([`Protocol::next_wake`] / [`NEVER`]) that lets long-sleeping nodes
//!   skip their idle rounds.
//! * [`ChannelModel`] (`channel_model`) — the pluggable physical-layer
//!   policy deciding what each listener hears from a channel's
//!   transmitter/adversary spans. [`ChannelModelSpec::Ideal`] (the
//!   default) reproduces the §3 semantics bit-for-bit; `Lossy`,
//!   `Capture`, and `Geometric` bend them (see
//!   `docs/CHANNEL_MODELS.md`). Models are pure functions of a derived
//!   seed, so every run replays deterministically.
//! * [`Adversary`] (`adversary`) — the §3 attacker trait (budget `t`,
//!   full hindsight); batteries included in [`adversaries`].
//! * [`Simulation`] — drives a vector of protocol nodes plus one adversary
//!   against a [`Network`] until completion, enforcing the §3 information
//!   flow, collecting a [`Trace`] and [`Stats`]. Its per-round loop pops
//!   a wake-queue and visits only the due nodes, feeding the sparse
//!   engine entry point.
//! * [`Trace`] (`trace`) — the execution history a [`Network`] retains
//!   per [`NetworkConfig::with_retention`]: what the adversary observes
//!   and tests read back. The config is the one place that decides it.
//! * [`TraceSink`] (`sink`) — an optional observer of finished
//!   [`RoundRecord`]s that never changes a run: [`ChannelSink`] streams
//!   them off the round loop to a line-delimited JSON file through a
//!   background writer thread (format in `docs/TRACE_FORMAT.md`).
//! * `seed` — deterministic seed-stream derivation, the reproducibility
//!   substrate every experiment relies on (not in the paper).
//!
//! ## Example
//!
//! ```rust
//! use radio_network::{adversaries::RandomJammer, NetworkConfig, Simulation};
//! use radio_network::testing::BeaconNode;
//!
//! # fn main() -> Result<(), radio_network::EngineError> {
//! // Three channels, adversary may disrupt up to two per round.
//! let cfg = NetworkConfig::new(3, 2)?;
//! // Ten beacon nodes that broadcast/listen at random (a toy protocol).
//! let nodes: Vec<BeaconNode> = (0..10).map(|i| BeaconNode::new(i, 3, 7)).collect();
//! let adversary = RandomJammer::new(42);
//! let mut sim = Simulation::new(cfg, nodes, adversary, 99)?;
//! let report = sim.run(1_000)?;
//! assert!(report.rounds <= 1_000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversaries;
mod adversary;
mod channel_model;
mod engine;
mod error;
mod node;
pub mod seed;
mod simulation;
mod sink;
mod stats;
pub mod testing;
mod trace;

pub use adversary::{Adversary, AdversaryAction, AdversaryView, Emission};
pub use channel_model::{
    ChannelContext, ChannelModel, ChannelModelSpec, ChannelVerdict, EmissionKind, ListenerOutcome,
    TxSpan,
};
pub use engine::{Network, NetworkConfig, OutcomeView, Participants, RoundView};
pub use error::EngineError;
pub use node::{Action, ChannelId, NodeId, Protocol, Reception, NEVER};
pub use simulation::{Inspector, Simulation, SimulationReport};
pub use sink::{
    json_escape, record_line, send_bounded, ChannelSink, OverflowPolicy, SinkReport, TraceSink,
};
pub use stats::Stats;
pub use trace::{RoundRecord, Trace, TraceRetention};
