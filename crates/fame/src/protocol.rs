//! The f-AME protocol (Section 5.4): a distributed simulation of the
//! starred-edge removal game over the adversarial radio network.
//!
//! Every node keeps an identical local copy of the game (graph `G`, starred
//! set `S`, surrogate pools). Each simulated move costs
//! `1 + k·Θ((C/(C−t))·log n)` physical rounds:
//!
//! 1. **Message-transmission round** — the canonical greedy proposal is
//!    mapped to channels by [`build_schedule`]; each channel carries one
//!    honest transmitter (item node, edge source, or surrogate), watched by
//!    its witness block and (for edges) the destination.
//! 2. **Feedback phase** — one `communication-feedback` invocation
//!    ([`FeedbackCore`]) lets all nodes agree on the set `D` of channels
//!    that escaped jamming; `D` *is* the referee's response.
//!
//! Termination is Lemma 3's condition, at which point the disruption graph
//! has vertex cover at most `t` — optimal by Theorem 2.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use radio_network::{
    Action, Adversary, ChannelId, EngineError, NetworkConfig, Protocol, Reception, Simulation,
    Stats, TraceRetention, TraceSink,
};
use removal_game::game::{GameError, GameState, ProposalItem};

use crate::feedback::FeedbackCore;
use crate::messages::{FameFrame, MessageVector};
use crate::params::FeedbackMode;
use crate::problem::{AmeInstance, AmeOutcome, PairResult};
use crate::schedule::{build_schedule, MoveSchedule, ScheduleError};
use crate::tree_feedback::TreeFeedbackCore;
use crate::Params;

/// The per-move feedback engine: sequential (Figure 1) or tree (§5.5
/// Case 2), selected by [`Params::feedback_mode`].
#[derive(Clone, Debug)]
enum FeedbackEngine {
    Seq(FeedbackCore),
    Tree(TreeFeedbackCore),
}

impl FeedbackEngine {
    fn action(&mut self, local_round: u64) -> radio_network::Action<FameFrame> {
        match self {
            FeedbackEngine::Seq(core) => core.action(local_round),
            FeedbackEngine::Tree(core) => core.action(local_round),
        }
    }

    fn observe(&mut self, local_round: u64, reception: Option<Reception<&FameFrame>>) {
        match self {
            FeedbackEngine::Seq(core) => core.observe(local_round, reception),
            FeedbackEngine::Tree(core) => core.observe(local_round, reception),
        }
    }

    fn into_disrupted(self) -> std::collections::BTreeSet<usize> {
        match self {
            FeedbackEngine::Seq(core) => core.into_disrupted(),
            FeedbackEngine::Tree(core) => core.into_disrupted(),
        }
    }
}

/// Errors from assembling or running f-AME.
#[derive(Clone, PartialEq, Debug)]
pub enum FameError {
    /// The instance's node count disagrees with the parameters.
    InstanceMismatch {
        /// Nodes in the instance.
        instance_n: usize,
        /// Nodes in the parameters.
        params_n: usize,
    },
    /// Game initialization failed.
    Game(GameError),
    /// Schedule construction failed (Invariant violation — should be
    /// unreachable with validated parameters).
    Schedule(ScheduleError),
    /// The underlying network engine rejected something.
    Engine(EngineError),
    /// Parameter validation failed.
    Params(crate::params::ParamsError),
}

impl fmt::Display for FameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FameError::InstanceMismatch {
                instance_n,
                params_n,
            } => write!(f, "instance has n={instance_n} but params say n={params_n}"),
            FameError::Game(e) => write!(f, "game error: {e}"),
            FameError::Schedule(e) => write!(f, "schedule error: {e}"),
            FameError::Engine(e) => write!(f, "engine error: {e}"),
            FameError::Params(e) => write!(f, "parameter error: {e}"),
        }
    }
}

impl Error for FameError {}

impl From<GameError> for FameError {
    fn from(e: GameError) -> Self {
        FameError::Game(e)
    }
}

impl From<ScheduleError> for FameError {
    fn from(e: ScheduleError) -> Self {
        FameError::Schedule(e)
    }
}

impl From<EngineError> for FameError {
    fn from(e: EngineError) -> Self {
        FameError::Engine(e)
    }
}

impl From<crate::params::ParamsError> for FameError {
    fn from(e: crate::params::ParamsError) -> Self {
        FameError::Params(e)
    }
}

/// One f-AME protocol node.
///
/// Construct with [`FameNode::new`]; drive through
/// [`radio_network::Simulation`] (or use [`run_fame`], which does both).
#[derive(Clone, Debug)]
pub struct FameNode {
    id: usize,
    params: Params,
    /// My private outgoing messages `w -> m_{id,w}`.
    outbox: MessageVector,
    /// Vectors I hold as a surrogate: `owner -> M_owner`.
    learned: BTreeMap<usize, MessageVector>,
    /// My local copy of the game.
    game: GameState,
    /// Starred node -> surrogate pool (witness block at star time).
    surrogates: BTreeMap<usize, Vec<usize>>,
    /// The current move's schedule (None once terminated).
    schedule: Option<MoveSchedule>,
    /// Round index inside the current move (0 = transmission round).
    move_round: u64,
    /// Feedback state machine for the current move.
    feedback: Option<FeedbackEngine>,
    /// What I heard during the transmission round of the current move.
    heard_tx: Option<Reception<FameFrame>>,
    /// Messages I accepted as destination: `(v, w=me) -> payload`.
    inbox: BTreeMap<(usize, usize), crate::messages::Payload>,
    /// Edges removed from the game so far (public knowledge).
    delivered_pairs: BTreeSet<(usize, usize)>,
    /// Moves simulated so far.
    moves: usize,
    /// Unrecoverable schedule failure (surfaced by the runner).
    failure: Option<ScheduleError>,
    seed: u64,
    done: bool,
}

impl FameNode {
    /// Build node `id`.
    ///
    /// `pairs` is the public exchange set `E`; `outbox` is this node's
    /// private message slice (`instance.outbox_of(id)`).
    ///
    /// # Errors
    ///
    /// Game or schedule construction failures.
    pub fn new(
        id: usize,
        params: Params,
        pairs: &[(usize, usize)],
        outbox: MessageVector,
        seed: u64,
    ) -> Result<Self, FameError> {
        let game = GameState::new(params.n(), pairs.iter().copied(), params.t())?
            .with_proposal_cap(params.proposal_cap())?;
        let surrogates = BTreeMap::new();
        let schedule = build_schedule(&params, &game, &surrogates)?;
        let done = schedule.is_none();
        Ok(FameNode {
            id,
            params,
            outbox,
            learned: BTreeMap::new(),
            game,
            surrogates,
            schedule,
            move_round: 0,
            feedback: None,
            heard_tx: None,
            inbox: BTreeMap::new(),
            delivered_pairs: BTreeSet::new(),
            moves: 0,
            failure: None,
            seed,
            done,
        })
    }

    /// Node id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The local game copy (for invariant inspection in tests).
    pub fn game(&self) -> &GameState {
        &self.game
    }

    /// The local surrogate map (for invariant inspection in tests).
    pub fn surrogates(&self) -> &BTreeMap<usize, Vec<usize>> {
        &self.surrogates
    }

    /// Vectors this node holds as a surrogate.
    pub fn learned(&self) -> &BTreeMap<usize, MessageVector> {
        &self.learned
    }

    /// Simulated game moves so far.
    pub fn moves(&self) -> usize {
        self.moves
    }

    /// Messages accepted as destination.
    pub fn inbox(&self) -> &BTreeMap<(usize, usize), crate::messages::Payload> {
        &self.inbox
    }

    /// Pairs this node believes were delivered (public knowledge derived
    /// from the shared game simulation — the basis of sender awareness).
    pub fn delivered_pairs(&self) -> &BTreeSet<(usize, usize)> {
        &self.delivered_pairs
    }

    /// A fatal schedule failure, if one occurred.
    pub fn failure(&self) -> Option<&ScheduleError> {
        self.failure.as_ref()
    }

    /// The message vector this node would broadcast on behalf of `owner`.
    fn vector_of(&self, owner: usize) -> MessageVector {
        if owner == self.id {
            self.outbox.clone()
        } else {
            self.learned.get(&owner).cloned().unwrap_or_default()
        }
    }

    /// Set up the feedback state machine after the transmission round.
    fn start_feedback(&mut self) {
        let schedule = self.schedule.as_ref().expect("in a move");
        let k = schedule.k();
        let witness_sets: Vec<Vec<usize>> = schedule.feedback_witnesses.clone();
        let my_flags: Vec<Option<bool>> = (0..k)
            .map(|c| {
                if schedule.is_feedback_witness(self.id, c) {
                    // My flag: did I receive a frame on channel c during
                    // the transmission round? (I listened there.)
                    let heard = matches!(
                        &self.heard_tx,
                        Some(Reception {
                            channel,
                            frame: Some(_)
                        }) if channel.index() == c
                    );
                    Some(heard)
                } else {
                    None
                }
            })
            .collect();
        let move_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.moves as u64);
        self.feedback = Some(match self.params.feedback_mode() {
            FeedbackMode::Sequential => FeedbackEngine::Seq(FeedbackCore::new(
                self.id,
                &self.params,
                witness_sets,
                my_flags,
                move_seed,
            )),
            FeedbackMode::Tree => FeedbackEngine::Tree(TreeFeedbackCore::new(
                self.id,
                &self.params,
                witness_sets,
                my_flags,
                move_seed,
            )),
        });
    }

    /// Apply the referee response `D` at the end of the move.
    fn apply_move(&mut self, d: BTreeSet<usize>) {
        let schedule = self.schedule.take().expect("in a move");
        let response: Vec<ProposalItem> = d
            .iter()
            .filter(|&&c| c < schedule.k())
            .map(|&c| schedule.channels[c].item)
            .collect();

        if !response.is_empty() {
            // Safe: response items come from the validated proposal.
            self.game
                .apply_response(&schedule.proposal, &response)
                .expect("referee response derived from the proposal");

            for &c in &d {
                if c >= schedule.k() {
                    continue;
                }
                let plan = &schedule.channels[c];
                match plan.item {
                    ProposalItem::Node(v) => {
                        // v is starred: its vector is now held by the whole
                        // witness block (Invariant 2).
                        self.surrogates
                            .insert(v, schedule.witness_blocks[c].clone());
                        if schedule.witness_blocks[c].binary_search(&self.id).is_ok() {
                            if let Some(Reception {
                                frame: Some(FameFrame::Vector { owner, messages }),
                                channel,
                            }) = &self.heard_tx
                            {
                                if channel.index() == c && *owner == v {
                                    self.learned.insert(v, messages.clone());
                                }
                            }
                        }
                    }
                    ProposalItem::Edge(v, w) => {
                        self.delivered_pairs.insert((v, w));
                        if w == self.id {
                            // I was the scheduled receiver on channel c; a
                            // successful channel means I heard the owner's
                            // vector. Structural authentication: accept only
                            // the frame from my scheduled slot.
                            if let Some(Reception {
                                frame: Some(FameFrame::Vector { owner, messages }),
                                channel,
                            }) = &self.heard_tx
                            {
                                if channel.index() == c && *owner == v {
                                    if let Some(m) = messages.get(&w) {
                                        self.inbox.insert((v, w), m.clone());
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        self.moves += 1;
        self.heard_tx = None;
        self.feedback = None;
        self.move_round = 0;

        match build_schedule(&self.params, &self.game, &self.surrogates) {
            Ok(Some(next)) => self.schedule = Some(next),
            Ok(None) => self.done = true,
            Err(e) => {
                self.failure = Some(e);
                self.done = true;
            }
        }
    }
}

impl Protocol for FameNode {
    type Msg = FameFrame;

    fn begin_round(&mut self, _round: u64) -> Action<FameFrame> {
        if self.done {
            return Action::Sleep;
        }
        let schedule = self.schedule.as_ref().expect("active move");
        if self.move_round == 0 {
            // Message-transmission round.
            if let Some(c) = schedule.transmit_channel(self.id) {
                let owner = schedule.channels[c].owner;
                return Action::Transmit {
                    channel: ChannelId(c),
                    frame: FameFrame::Vector {
                        owner,
                        messages: self.vector_of(owner),
                    },
                };
            }
            if let Some(c) = schedule.receive_channel(self.id) {
                return Action::Listen {
                    channel: ChannelId(c),
                };
            }
            if let Some(c) = schedule.witness_channel(self.id) {
                return Action::Listen {
                    channel: ChannelId(c),
                };
            }
            return Action::Sleep;
        }
        // Feedback rounds.
        self.feedback
            .as_mut()
            .expect("feedback started")
            .action(self.move_round - 1)
    }

    fn end_round(&mut self, _round: u64, reception: Option<Reception<&FameFrame>>) {
        if self.done {
            return;
        }
        let k = self.schedule.as_ref().expect("active move").k();
        let feedback_rounds = self.params.feedback_rounds(k);
        if self.move_round == 0 {
            self.heard_tx = reception.map(|r| r.cloned());
            self.start_feedback();
            self.move_round = 1;
            return;
        }
        let fb = self.feedback.as_mut().expect("feedback running");
        fb.observe(self.move_round - 1, reception);
        if self.move_round == feedback_rounds {
            let d = self
                .feedback
                .take()
                .expect("feedback running")
                .into_disrupted();
            self.apply_move(d);
        } else {
            self.move_round += 1;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Everything a completed f-AME execution yields.
#[derive(Clone, Debug)]
pub struct FameRun {
    /// The AME outcome (per-pair results, sender views, round count).
    pub outcome: AmeOutcome,
    /// Simulated game moves (as counted by node 0).
    pub moves: usize,
    /// Network statistics (collisions, spoof attempts, …).
    pub stats: Stats,
}

/// A conservative upper bound on the rounds an execution may take, used as
/// the watchdog limit.
pub fn round_budget(params: &Params, pair_count: usize) -> u64 {
    let moves = (pair_count + params.n() + 2) as u64;
    moves * params.move_rounds(params.proposal_cap()) * 2 + 16
}

/// Assemble the node vector for an instance.
///
/// # Errors
///
/// Propagates construction failures.
pub fn make_nodes(
    instance: &AmeInstance,
    params: &Params,
    seed: u64,
) -> Result<Vec<FameNode>, FameError> {
    if instance.n() != params.n() {
        return Err(FameError::InstanceMismatch {
            instance_n: instance.n(),
            params_n: params.n(),
        });
    }
    (0..params.n())
        .map(|id| {
            FameNode::new(
                id,
                params.clone(),
                instance.pairs(),
                instance.outbox_of(id),
                seed ^ ((id as u64) << 32),
            )
        })
        .collect()
}

/// Extract the [`AmeOutcome`] from finished nodes.
pub fn extract_outcome(instance: &AmeInstance, nodes: &[FameNode], rounds: u64) -> AmeOutcome {
    let mut outcome = AmeOutcome {
        rounds,
        ..AmeOutcome::default()
    };
    for &(v, w) in instance.pairs() {
        let dest = &nodes[w];
        let result = match dest.inbox().get(&(v, w)) {
            Some(m) => PairResult::Delivered(m.clone()),
            None => PairResult::Failed,
        };
        outcome.results.insert((v, w), result);
        // Sender awareness: v's belief comes from v's own game copy.
        let sender_thinks = nodes[v].delivered_pairs().contains(&(v, w));
        outcome.sender_view.insert((v, w), sender_thinks);
    }
    outcome
}

/// Run f-AME end to end against `adversary`.
///
/// # Errors
///
/// Engine/validation failures, or a round-budget overrun (which would
/// indicate a protocol bug — f-AME always terminates).
pub fn run_fame<A>(
    instance: &AmeInstance,
    params: &Params,
    adversary: A,
    seed: u64,
) -> Result<FameRun, FameError>
where
    A: Adversary<FameFrame>,
{
    run_fame_with_inspector(instance, params, adversary, seed, &mut |_, _| {})
}

/// Like [`run_fame`] but invoking `inspector(round, nodes)` after every
/// physical round — used by the invariant-checking tests.
///
/// # Errors
///
/// Same as [`run_fame`].
pub fn run_fame_with_inspector<A>(
    instance: &AmeInstance,
    params: &Params,
    adversary: A,
    seed: u64,
    inspector: &mut dyn FnMut(u64, &[FameNode]),
) -> Result<FameRun, FameError>
where
    A: Adversary<FameFrame>,
{
    run_fame_inner(instance, params, adversary, seed, None, inspector)
}

/// Like [`run_fame`], also handing every finished round to `sink` (e.g. a
/// [`ChannelSink`](radio_network::ChannelSink) streaming the trace to a
/// file). The execution is bit-identical to [`run_fame`]'s.
///
/// # Errors
///
/// Same as [`run_fame`].
pub fn run_fame_streaming<A>(
    instance: &AmeInstance,
    params: &Params,
    adversary: A,
    seed: u64,
    sink: Box<dyn TraceSink<FameFrame>>,
) -> Result<FameRun, FameError>
where
    A: Adversary<FameFrame>,
{
    run_fame_inner(
        instance,
        params,
        adversary,
        seed,
        Some(sink),
        &mut |_, _| {},
    )
}

/// The in-memory history window every f-AME run retains for its
/// trace-mining adversaries (rounds).
pub const FAME_TRACE_WINDOW: usize = 64;

fn run_fame_inner<A>(
    instance: &AmeInstance,
    params: &Params,
    adversary: A,
    seed: u64,
    sink: Option<Box<dyn TraceSink<FameFrame>>>,
    inspector: &mut dyn FnMut(u64, &[FameNode]),
) -> Result<FameRun, FameError>
where
    A: Adversary<FameFrame>,
{
    let nodes = make_nodes(instance, params, seed)?;
    let cfg = NetworkConfig::new(params.c(), params.t())?
        .with_channel_model(params.channel_model().clone())
        .with_retention(TraceRetention::LastRounds(FAME_TRACE_WINDOW));
    let mut sim = match sink {
        Some(sink) => Simulation::with_sink(cfg, nodes, adversary, seed, sink)?,
        None => Simulation::new(cfg, nodes, adversary, seed)?,
    };
    let report = sim.run_with_inspector(round_budget(params, instance.len()), inspector)?;
    let nodes = sim.into_nodes();
    if let Some(node) = nodes.iter().find(|n| n.failure().is_some()) {
        return Err(FameError::Schedule(
            node.failure().cloned().expect("checked"),
        ));
    }
    let outcome = extract_outcome(instance, &nodes, report.rounds);
    Ok(FameRun {
        outcome,
        moves: nodes[0].moves(),
        stats: report.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_network::adversaries::{NoAdversary, RandomJammer, Spoofer};

    fn params() -> Params {
        Params::minimal(40, 2).unwrap()
    }

    fn instance(p: &Params, pairs: &[(usize, usize)]) -> AmeInstance {
        AmeInstance::new(p.n(), pairs.iter().copied()).unwrap()
    }

    #[test]
    fn empty_instance_finishes_immediately() {
        let p = params();
        let inst = instance(&p, &[]);
        let run = run_fame(&inst, &p, NoAdversary, 7).unwrap();
        assert_eq!(run.outcome.rounds, 0);
        assert_eq!(run.moves, 0);
    }

    #[test]
    fn quiet_network_is_t_disruptable_and_authentic() {
        // Even with no adversary, the game legitimately stops once the
        // residual graph has a vertex cover of at most t (exactly t+1 items
        // are needed to form a proposal), so delivery of *all* pairs is not
        // guaranteed — only t-disruptability is. That is the paper's
        // contract (Definition 1 + Theorem 6).
        let p = params();
        let pairs = [(0, 5), (1, 6), (2, 7), (3, 8), (9, 4)];
        let inst = instance(&p, &pairs);
        let run = run_fame(&inst, &p, NoAdversary, 7).unwrap();
        assert!(run.outcome.is_d_disruptable(p.t()));
        // Disjoint pairs: a cover of size t blocks at most t pairs.
        assert!(run.outcome.delivered_count() >= pairs.len() - p.t());
        assert!(run.outcome.authentication_violations(&inst).is_empty());
        assert!(run.outcome.awareness_violations().is_empty());
        // Delivered payloads are the instance's ground truth.
        for &(v, w) in &pairs {
            if let PairResult::Delivered(m) = &run.outcome.results[&(v, w)] {
                assert_eq!(m, &format!("m:{v}->{w}").into_bytes());
            }
        }
    }

    #[test]
    fn random_jamming_keeps_t_disruptability() {
        let p = params();
        let pairs: Vec<(usize, usize)> = (0..12).map(|i| (i, (i + 13) % 40)).collect();
        let inst = instance(&p, &pairs);
        let run = run_fame(&inst, &p, RandomJammer::new(3), 21).unwrap();
        assert!(
            run.outcome.is_d_disruptable(p.t()),
            "disruption cover {} exceeds t={} (failed: {:?})",
            run.outcome.disruption_cover(),
            p.t(),
            run.outcome.disruption_edges()
        );
        assert!(run.outcome.authentication_violations(&inst).is_empty());
        assert!(run.outcome.awareness_violations().is_empty());
    }

    #[test]
    fn spoofer_never_gets_a_message_accepted() {
        let p = params();
        let pairs = [(0, 5), (1, 6), (2, 7)];
        let inst = instance(&p, &pairs);
        let forged = FameFrame::Vector {
            owner: 0,
            messages: [(5usize, b"forged".to_vec())].into_iter().collect(),
        };
        let run = run_fame(&inst, &p, Spoofer::new(9, move |_, _| forged.clone()), 23).unwrap();
        // Authentication: nothing forged is ever accepted.
        assert!(run.outcome.authentication_violations(&inst).is_empty());
        assert!(run.outcome.awareness_violations().is_empty());
        assert!(run.outcome.is_d_disruptable(p.t()));
    }

    #[test]
    fn sender_awareness_matches_destinations() {
        let p = params();
        let pairs: Vec<(usize, usize)> = (0..10).map(|i| (i, i + 10)).collect();
        let inst = instance(&p, &pairs);
        let run = run_fame(&inst, &p, RandomJammer::new(8), 29).unwrap();
        assert!(run.outcome.awareness_violations().is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let p = params();
        let pairs = [(0, 5), (1, 6), (2, 7), (3, 8)];
        let inst = instance(&p, &pairs);
        let a = run_fame(&inst, &p, RandomJammer::new(5), 99).unwrap();
        let b = run_fame(&inst, &p, RandomJammer::new(5), 99).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.moves, b.moves);
    }

    #[test]
    fn wide_regime_uses_bigger_moves_and_fewer_rounds() {
        // C = 2t: proposals of 2t items, O(log n) feedback — Section 5.5.
        let t = 3;
        let n = Params::min_nodes(t, 2 * t).max(Params::min_nodes(t, t + 1));
        let wide = Params::new(n, t, 2 * t).unwrap();
        let minimal = Params::new(n, t, t + 1).unwrap();
        let pairs: Vec<(usize, usize)> = (0..16).map(|i| (i, i + 20)).collect();
        let inst = AmeInstance::new(n, pairs.iter().copied()).unwrap();
        let run_wide = run_fame(&inst, &wide, RandomJammer::new(5), 3).unwrap();
        let run_min = run_fame(&inst, &minimal, RandomJammer::new(5), 3).unwrap();
        assert!(run_wide.outcome.is_d_disruptable(t));
        assert!(run_min.outcome.is_d_disruptable(t));
        assert!(
            run_wide.outcome.rounds < run_min.outcome.rounds,
            "wide {} rounds should beat minimal {}",
            run_wide.outcome.rounds,
            run_min.outcome.rounds
        );
    }

    #[test]
    fn tree_regime_end_to_end() {
        // C = 2t² = 8 with t = 2: the protocol selects tree feedback.
        let t = 2;
        let c = 8;
        let n = Params::min_nodes(t, c);
        let p = Params::new(n, t, c).unwrap();
        assert_eq!(p.feedback_mode(), crate::params::FeedbackMode::Tree);
        let pairs: Vec<(usize, usize)> = (0..10).map(|i| (i, i + 12)).collect();
        let inst = AmeInstance::new(n, pairs.iter().copied()).unwrap();
        let run = run_fame(&inst, &p, RandomJammer::new(2), 17).unwrap();
        assert!(run.outcome.is_d_disruptable(t));
        assert!(run.outcome.authentication_violations(&inst).is_empty());
        assert!(run.outcome.awareness_violations().is_empty());
    }

    #[test]
    fn mismatched_instance_rejected() {
        let p = params();
        let inst = AmeInstance::new(10, [(0, 1)]).unwrap();
        assert!(matches!(
            run_fame(&inst, &p, NoAdversary, 1),
            Err(FameError::InstanceMismatch { .. })
        ));
    }
}
