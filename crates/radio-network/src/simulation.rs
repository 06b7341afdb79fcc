//! The simulation driver: protocol nodes + adversary + network, run to
//! completion.
//!
//! The driver's per-round loop is O(awake), not O(n): nodes advertise
//! their next wake round through [`Protocol::next_wake`] and a
//! min-heap wake-queue visits only the nodes due this round, feeding
//! their `(node, action)` pairs to the engine's sparse entry point
//! ([`Network::resolve_round_sparse`]). Protocols that don't override
//! `next_wake` are visited every round, exactly like the classic dense
//! driver.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::adversary::{Adversary, AdversaryView};
use crate::engine::{Network, NetworkConfig};
use crate::error::EngineError;
use crate::node::{Action, NodeId, Protocol, Reception, NEVER};
use crate::sink::TraceSink;
use crate::stats::Stats;
use crate::trace::Trace;

/// Outcome of a completed simulation run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimulationReport {
    /// Rounds executed before every node terminated.
    pub rounds: u64,
    /// Final statistics snapshot.
    pub stats: Stats,
}

/// A hook invoked after every resolved round, used by tests to check
/// cross-node invariants (the paper's Invariants 1–3) without the nodes
/// sharing any state at runtime.
pub type Inspector<'a, P> = dyn FnMut(u64, &[P]) + 'a;

/// Drives `n` protocol nodes and one adversary against a [`Network`].
///
/// The driver enforces the information flow of the model: nodes see only
/// their own receptions; the adversary sees the full trace of completed
/// rounds but never the current round's actions.
///
/// Per round, the driver pops the due nodes off its wake-queue (every
/// node starts queued for round 0), collects their actions into a sparse
/// node-sorted buffer, resolves the round, delivers receptions to the
/// listeners among them, and re-queues each node at its
/// [`Protocol::next_wake`] round ([`NEVER`] leaves the queue for good).
/// A node the queue skips behaves exactly as if it had returned
/// [`Action::Sleep`] — sparse visiting is a cost optimization, never a
/// behavior change.
#[derive(Debug)]
pub struct Simulation<P: Protocol, A> {
    nodes: Vec<P>,
    adversary: A,
    network: Network<P::Msg>,
    /// Per-round sparse action buffer — only the awake nodes' actions,
    /// sorted by node id — reused so the steady-state driver loop
    /// allocates nothing (the engine's [`RoundView`] borrows it).
    actions: Vec<(NodeId, Action<P::Msg>)>,
    /// Min-heap of `(wake_round, node)`: the nodes still participating,
    /// each queued exactly once.
    wake: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per-node done flag as of the last visit, backing the incremental
    /// `unfinished` count.
    done: Vec<bool>,
    /// Number of nodes whose last observed [`Protocol::is_done`] was
    /// `false` — keeps [`Simulation::all_done`] O(1) instead of an O(n)
    /// scan per round.
    unfinished: usize,
}

impl<P, A> Simulation<P, A>
where
    P: Protocol,
    P::Msg: Clone + std::fmt::Debug + Send + 'static,
    A: Adversary<P::Msg>,
{
    /// Assemble a simulation.
    ///
    /// `seed` is fanned out into one deterministic stream per node via
    /// [`seed::derive`](crate::seed::derive) and handed to each node through
    /// [`Protocol::reseed`] before round 0 — so randomized nodes replay
    /// bit-identically for the same `seed` regardless of how they were
    /// constructed. Protocols that manage their own randomness keep the
    /// default no-op `reseed` and are unaffected.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the network constructor (none
    /// today, `cfg` is pre-validated; kept fallible for future proofing).
    pub fn new(
        cfg: NetworkConfig,
        nodes: Vec<P>,
        adversary: A,
        seed: u64,
    ) -> Result<Self, EngineError> {
        Self::assemble(nodes, adversary, Network::new(cfg), seed)
    }

    /// Like [`Simulation::new`], also showing every finished round to
    /// `sink` (see [`Network::with_sink`]). The sink only observes, so the
    /// run is bit-identical to [`Simulation::new`]'s.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::new`].
    pub fn with_sink(
        cfg: NetworkConfig,
        nodes: Vec<P>,
        adversary: A,
        seed: u64,
        sink: Box<dyn TraceSink<P::Msg>>,
    ) -> Result<Self, EngineError> {
        Self::assemble(nodes, adversary, Network::with_sink(cfg, sink), seed)
    }

    fn assemble(
        mut nodes: Vec<P>,
        adversary: A,
        mut network: Network<P::Msg>,
        seed: u64,
    ) -> Result<Self, EngineError> {
        for (i, node) in nodes.iter_mut().enumerate() {
            node.reseed(crate::seed::derive(seed, i as u64));
        }
        // The channel model draws from its own reserved stream so adding a
        // node never perturbs the channel randomness (and vice versa).
        network.seed_channel_model(crate::seed::derive(seed, u64::MAX));
        // Every node starts queued for round 0 — even an already-done
        // node, whose default `next_wake` keeps it visited, matching the
        // dense driver exactly.
        let wake: BinaryHeap<Reverse<(u64, u32)>> =
            (0..nodes.len()).map(|i| Reverse((0, i as u32))).collect();
        let done: Vec<bool> = nodes.iter().map(Protocol::is_done).collect();
        let unfinished = done.iter().filter(|d| !**d).count();
        Ok(Simulation {
            nodes,
            adversary,
            network,
            actions: Vec::new(),
            wake,
            done,
            unfinished,
        })
    }

    /// The nodes, for post-run output extraction.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Consume the simulation, returning the nodes.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// The adversary, for post-run inspection.
    pub fn adversary(&self) -> &A {
        &self.adversary
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace<P::Msg> {
        self.network.trace()
    }

    /// The statistics so far.
    pub fn stats(&self) -> &Stats {
        self.network.stats()
    }

    /// `true` once every node reports [`Protocol::is_done`] — O(1): the
    /// unfinished count is maintained incrementally on `end_round`
    /// transitions instead of scanning all `n` nodes every round.
    pub fn all_done(&self) -> bool {
        self.unfinished == 0
    }

    // detlint: deny-alloc(start) wake-queue driver round (Simulation::step)
    //
    // The action buffer and the wake heap are reused across rounds; a
    // steady-state step must stay allocation-free end to end
    // (tests/zero_alloc.rs drives a full Simulation under this claim).
    /// Execute exactly one round, visiting only the nodes the wake-queue
    /// says are due.
    ///
    /// # Errors
    ///
    /// Propagates engine validation failures (bad channels, adversary
    /// over budget). The failed round did not run: the due nodes are
    /// re-queued for the same round, so a retried `step` re-polls them
    /// exactly as the dense driver would have.
    pub fn step(&mut self) -> Result<(), EngineError> {
        let round = self.network.round();

        // Adversary commits first, seeing only completed rounds.
        let view = AdversaryView {
            channels: self.network.config().channels(),
            budget: self.network.config().budget(),
            nodes: self.nodes.len(),
            trace: self.network.trace(),
        };
        let adv_action = self.adversary.act(round, &view);

        // Awake nodes choose their actions. Within one round every queued
        // entry carries the same wake round, so the min-heap pops in
        // ascending node order — the sorted sparse list the engine
        // requires — and the buffer is reused across rounds, keeping the
        // steady-state driver loop allocation-free.
        self.actions.clear();
        while let Some(&Reverse((when, id))) = self.wake.peek() {
            if when > round {
                break;
            }
            self.wake.pop();
            let action = self.nodes[id as usize].begin_round(round);
            self.actions.push((NodeId(id as usize), action));
        }

        let resolution = match self
            .network
            .resolve_round_sparse(&self.actions, &adv_action)
        {
            Ok(view) => view,
            Err(e) => {
                for (id, _) in &self.actions {
                    self.wake.push(Reverse((round, id.index() as u32)));
                }
                return Err(e);
            }
        };

        // Deliver receptions, borrowed straight from the round view — a
        // node clones only if it keeps the frame (`Reception::cloned`) —
        // then track done transitions and re-queue per `next_wake`.
        for (id, action) in &self.actions {
            let node = &mut self.nodes[id.index()];
            let reception = match action {
                Action::Listen { channel } => Some(Reception {
                    channel: *channel,
                    frame: resolution.reception_for(*id, *channel),
                }),
                _ => None,
            };
            node.end_round(round, reception);
            let now_done = node.is_done();
            let was_done = &mut self.done[id.index()];
            if now_done != *was_done {
                *was_done = now_done;
                if now_done {
                    self.unfinished -= 1;
                } else {
                    self.unfinished += 1;
                }
            }
            let next = node.next_wake(round);
            if next != NEVER {
                self.wake
                    .push(Reverse((next.max(round + 1), id.index() as u32)));
            }
        }
        Ok(())
    }
    // detlint: deny-alloc(end)

    /// Run until every node is done, or until `max_rounds` have elapsed.
    ///
    /// # Errors
    ///
    /// [`EngineError::RoundLimitExceeded`] if nodes are still running at the
    /// limit, plus any engine validation failure from [`Simulation::step`].
    pub fn run(&mut self, max_rounds: u64) -> Result<SimulationReport, EngineError> {
        self.run_with_inspector(max_rounds, &mut |_, _| {})
    }

    /// Like [`Simulation::run`], invoking `inspector` after every round with
    /// the round number and a read-only view of all nodes.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run`].
    pub fn run_with_inspector(
        &mut self,
        max_rounds: u64,
        inspector: &mut Inspector<'_, P>,
    ) -> Result<SimulationReport, EngineError> {
        let start = self.network.round();
        while !self.all_done() {
            if self.network.round() - start >= max_rounds {
                return Err(EngineError::RoundLimitExceeded {
                    limit: max_rounds,
                    unfinished: self.nodes.iter().filter(|n| !n.is_done()).count(),
                });
            }
            self.step()?;
            inspector(self.network.round() - 1, &self.nodes);
        }
        Ok(SimulationReport {
            rounds: self.network.round() - start,
            stats: *self.network.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries::NoAdversary;
    use crate::node::ChannelId;

    /// A node that transmits its id on round 0..k (if `talker`) then stops.
    struct CountdownNode {
        id: usize,
        remaining: u32,
        talker: bool,
        heard: Vec<u32>,
    }

    impl Protocol for CountdownNode {
        type Msg = u32;

        fn begin_round(&mut self, _round: u64) -> Action<u32> {
            if self.remaining == 0 {
                return Action::Sleep;
            }
            if self.talker {
                Action::Transmit {
                    channel: ChannelId(0),
                    frame: self.id as u32,
                }
            } else {
                Action::Listen {
                    channel: ChannelId(0),
                }
            }
        }

        fn end_round(&mut self, _round: u64, reception: Option<Reception<&u32>>) {
            if self.remaining > 0 {
                self.remaining -= 1;
            }
            if let Some(Reception {
                frame: Some(frame), ..
            }) = reception
            {
                self.heard.push(*frame);
            }
        }

        fn is_done(&self) -> bool {
            self.remaining == 0
        }
    }

    fn countdown(id: usize, remaining: u32, talker: bool) -> CountdownNode {
        CountdownNode {
            id,
            remaining,
            talker,
            heard: vec![],
        }
    }

    #[test]
    fn listener_hears_single_talker() {
        let cfg = NetworkConfig::new(2, 1).unwrap();
        let nodes = vec![countdown(0, 3, true), countdown(1, 3, false)];
        let mut sim = Simulation::new(cfg, nodes, NoAdversary, 0).unwrap();
        let report = sim.run(10).unwrap();
        assert_eq!(report.rounds, 3);
        assert_eq!(sim.nodes()[1].heard, vec![0, 0, 0]);
    }

    #[test]
    fn round_limit_is_an_error() {
        let cfg = NetworkConfig::new(2, 1).unwrap();
        let nodes = vec![countdown(0, 100, true)];
        let mut sim = Simulation::new(cfg, nodes, NoAdversary, 0).unwrap();
        let err = sim.run(5).unwrap_err();
        assert_eq!(
            err,
            EngineError::RoundLimitExceeded {
                limit: 5,
                unfinished: 1
            }
        );
    }

    #[test]
    fn inspector_sees_every_round() {
        let cfg = NetworkConfig::new(2, 1).unwrap();
        let nodes = vec![countdown(0, 4, true)];
        let mut sim = Simulation::new(cfg, nodes, NoAdversary, 0).unwrap();
        let mut seen = Vec::new();
        sim.run_with_inspector(10, &mut |round, nodes| {
            assert_eq!(nodes.len(), 1);
            seen.push(round);
        })
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_done_tracks_out_of_order_finishers() {
        // Nodes finish at rounds 1, 4, and 2 — the incremental unfinished
        // count must agree with a full scan after every single round.
        let cfg = NetworkConfig::new(2, 1).unwrap();
        let nodes = vec![
            countdown(0, 1, true),
            countdown(1, 4, false),
            countdown(2, 2, true),
        ];
        let mut sim = Simulation::new(cfg, nodes, NoAdversary, 0).unwrap();
        assert!(!sim.all_done());
        for _ in 0..4 {
            sim.step().unwrap();
            let scanned = sim.nodes().iter().all(Protocol::is_done);
            assert_eq!(sim.all_done(), scanned);
        }
        assert!(sim.all_done());
    }

    /// A node that naps: visited at round 0, it asks to wake again only at
    /// `wake_at`, then runs every round until `done_at`. Records every
    /// `begin_round` visit to prove the driver skipped the nap.
    struct NapNode {
        wake_at: u64,
        done_at: u64,
        round: u64,
        visits: Vec<u64>,
    }

    impl Protocol for NapNode {
        type Msg = u32;

        fn begin_round(&mut self, round: u64) -> Action<u32> {
            self.visits.push(round);
            Action::Sleep
        }

        fn end_round(&mut self, round: u64, _reception: Option<Reception<&u32>>) {
            self.round = round + 1;
        }

        fn is_done(&self) -> bool {
            self.round >= self.done_at
        }

        fn next_wake(&self, round: u64) -> u64 {
            if self.is_done() {
                crate::node::NEVER
            } else if round == 0 {
                self.wake_at
            } else {
                round + 1
            }
        }
    }

    #[test]
    fn wake_queue_skips_napping_nodes() {
        let cfg = NetworkConfig::new(2, 1).unwrap();
        let nap = NapNode {
            wake_at: 5,
            done_at: 8,
            round: 0,
            visits: vec![],
        };
        let mut sim = Simulation::new(cfg, vec![nap], NoAdversary, 0).unwrap();
        let report = sim.run(20).unwrap();
        // Rounds 1–4 still ran (the network clock is global) but never
        // visited the napping node.
        assert_eq!(sim.nodes()[0].visits, vec![0, 5, 6, 7]);
        assert_eq!(report.rounds, 8);
    }

    #[test]
    fn never_waking_done_node_leaves_the_queue() {
        let cfg = NetworkConfig::new(2, 1).unwrap();
        let nap = NapNode {
            wake_at: 1,
            done_at: 1,
            round: 0,
            visits: vec![],
        };
        let mut sim = Simulation::new(cfg, vec![nap], NoAdversary, 0).unwrap();
        let report = sim.run(10).unwrap();
        assert_eq!(report.rounds, 1);
        assert_eq!(sim.nodes()[0].visits, vec![0]);
    }
}
