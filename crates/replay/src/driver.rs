//! Replay drivers: a sink that captures re-encoded trace lines, and a
//! dense driver over the independent reference oracle.
//!
//! [`CollectorSink`] is the replay-side counterpart of
//! [`radio_network::ChannelSink`]: every resolved round is re-encoded
//! through the shared [`record_line`] encoder (same `Debug` frame
//! rendering) into an in-memory line list, so a replayed run can be
//! compared byte-for-byte against the original file.
//!
//! [`run_dense`] drives **all** nodes every round — no wake queue —
//! through [`ReferenceNetwork`], the plain second implementation of the
//! §3 round rule that shares no resolution code with the engine. By the
//! [`radio_network::Protocol`] sleep contract (`next_wake` is "purely a
//! cost optimization and must not change behavior"), this produces the
//! same execution as [`radio_network::Simulation`]'s sparse engine loop,
//! so `--engine both` is a real differential: the differential tests and
//! the golden corpus pin that equivalence on real traces.

use std::fmt;
use std::sync::{Arc, Mutex};

use radio_network::seed;
use radio_network::testing::ReferenceNetwork;
use radio_network::{
    Action, Adversary, AdversaryView, NetworkConfig, Protocol, Reception, RoundRecord, TraceSink,
};

pub use radio_network::record_line;

/// Which round-resolution engine drives a replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineMode {
    /// All nodes through the [`ReferenceNetwork`] oracle every round.
    Dense,
    /// The production [`radio_network::Simulation`] wake-queue loop
    /// (`resolve_round_sparse`).
    Sparse,
}

impl EngineMode {
    /// Human-readable engine name (`"dense"` / `"sparse"`).
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Dense => "dense",
            EngineMode::Sparse => "sparse",
        }
    }
}

/// The shared line buffer a [`CollectorSink`] appends to.
pub type SharedLines = Arc<Mutex<Vec<String>>>;

/// A [`TraceSink`] that re-encodes every round through [`record_line`]
/// (with the default `Debug` frame rendering, matching
/// [`radio_network::ChannelSink::create`]) into a shared in-memory line
/// list. History-mining adversaries see the history the network config
/// retains, exactly as in the original run.
#[derive(Debug)]
pub struct CollectorSink {
    lines: SharedLines,
}

impl CollectorSink {
    /// A collector; the returned handle reads the captured lines after
    /// the run.
    pub fn new() -> (Self, SharedLines) {
        let lines: SharedLines = Arc::default();
        (
            CollectorSink {
                lines: Arc::clone(&lines),
            },
            lines,
        )
    }
}

/// Take the captured lines out of a [`SharedLines`] handle once the run
/// (and its sink) is finished.
pub fn collected_lines(lines: &SharedLines) -> Vec<String> {
    lines
        .lock()
        .expect("collector line buffer poisoned")
        .clone()
}

impl<M: fmt::Debug> TraceSink<M> for CollectorSink {
    fn record(&mut self, record: &RoundRecord<M>) {
        self.lines
            .lock()
            .expect("collector line buffer poisoned")
            .push(record_line(record, |f| format!("{f:?}")));
    }
}

/// Drive `nodes` for exactly `rounds` rounds through the
/// [`ReferenceNetwork`] oracle, mirroring [`radio_network::Simulation`]'s
/// per-round order: the adversary acts first (seeing the retained
/// trace), then every node's `begin_round`, then
/// [`ReferenceNetwork::resolve_round_dense`], then every node's `end_round`
/// (with a [`Reception`] iff it listened). Nodes are reseeded with
/// [`seed::derive`]`(seed, i)` exactly as [`radio_network::Simulation::new`] does.
///
/// # Errors
/// Any [`radio_network::EngineError`] from round resolution, rendered
/// with its round number.
pub fn run_dense<P, A>(
    cfg: NetworkConfig,
    mut nodes: Vec<P>,
    mut adversary: A,
    seed: u64,
    rounds: u64,
    sink: Box<dyn TraceSink<P::Msg>>,
) -> Result<Vec<P>, String>
where
    P: Protocol,
    P::Msg: fmt::Debug + Send + 'static,
    A: Adversary<P::Msg>,
{
    let (channels, budget) = (cfg.channels(), cfg.budget());
    let mut network = ReferenceNetwork::with_sink(cfg, sink);
    // Same reserved stream Simulation::assemble uses, so a model-bearing
    // replay is bit-identical to the original sparse run.
    network.seed_channel_model(seed::derive(seed, u64::MAX));
    for (i, node) in nodes.iter_mut().enumerate() {
        node.reseed(seed::derive(seed, i as u64));
    }
    let mut actions: Vec<Action<P::Msg>> = Vec::with_capacity(nodes.len());
    for _ in 0..rounds {
        let round = network.round();
        let adversary_action = {
            let view = AdversaryView {
                channels,
                budget,
                nodes: nodes.len(),
                trace: network.trace(),
            };
            adversary.act(round, &view)
        };
        actions.clear();
        for node in nodes.iter_mut() {
            actions.push(node.begin_round(round));
        }
        network
            .resolve_round_dense(&actions, &adversary_action)
            .map_err(|e| format!("round {round}: {e}"))?;
        // One reception per listener, in node order.
        let mut receptions = network.receptions().iter();
        for (node, action) in nodes.iter_mut().zip(&actions) {
            let reception = match action {
                Action::Listen { channel } => Some(Reception {
                    channel: *channel,
                    frame: receptions
                        .next()
                        .expect("the oracle reports every listener")
                        .1
                        .as_ref(),
                }),
                _ => None,
            };
            node.end_round(round, reception);
        }
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_network::adversaries::RandomJammer;
    use radio_network::testing::BeaconNode;
    use radio_network::{Simulation, TraceRetention};

    fn beacons(n: usize, channels: usize) -> Vec<BeaconNode> {
        (0..n).map(|i| BeaconNode::new(i, channels, 20)).collect()
    }

    #[test]
    fn oracle_driver_matches_simulation_byte_for_byte() {
        let cfg = NetworkConfig::new(3, 1)
            .expect("valid config")
            .with_retention(TraceRetention::LastRounds(4));

        let (sink, sparse_lines) = CollectorSink::new();
        let mut sim = Simulation::with_sink(
            cfg.clone(),
            beacons(5, 3),
            RandomJammer::new(99),
            7,
            Box::new(sink),
        )
        .expect("simulation assembles");
        for _ in 0..20 {
            sim.step().expect("sparse step");
        }
        drop(sim);

        let (sink, dense_lines) = CollectorSink::new();
        run_dense(
            cfg,
            beacons(5, 3),
            RandomJammer::new(99),
            7,
            20,
            Box::new(sink),
        )
        .expect("dense run");

        let sparse = collected_lines(&sparse_lines);
        let dense = collected_lines(&dense_lines);
        assert_eq!(sparse.len(), 20);
        assert_eq!(sparse, dense);
        assert!(sparse.iter().any(|l| l.contains("\"kind\":\"noise\"")));
    }
}
