//! The spectrum-waterfall demo scenario, shared between
//! `examples/spectrum_trace.rs` and `tests/spectrum_replay.rs`.
//!
//! Earlier versions of the example kept their round history privately in
//! memory, so the run it showed could not be re-driven. The demo now
//! streams every round through the workspace's canonical
//! [`record_line`](crate::net::record_line) encoder (via
//! [`ChannelSink`]), producing a first-class
//! JSONL trace (`docs/TRACE_FORMAT.md`) that the `replay` crate can
//! re-execute byte-for-byte. `tests/spectrum_replay.rs` pins that round
//! trip: it records a run here, rebuilds the same nodes, re-drives them
//! with a `ScriptedAdversary` parsed from the file, and compares every
//! line.

use std::error::Error;
use std::path::Path;

use crate::fame::adversaries::{FeedbackPolicy, OmniscientJammer, TransmissionPolicy};
use crate::fame::protocol::{make_nodes, round_budget};
use crate::fame::{AmeInstance, FameFrame, Params};
use crate::net::{ChannelSink, NetworkConfig, OverflowPolicy, RoundRecord, Simulation, Stats};

/// Seed for node randomness and the engine (also reseeds the replay).
pub const SPECTRUM_SEED: u64 = 7;

/// The four sender → receiver pairs of the demo f-AME instance.
pub const SPECTRUM_PAIRS: [(usize, usize); 4] = [(0, 20), (1, 21), (2, 22), (3, 23)];

/// Queue capacity handed to the streaming trace sink.
pub const SPECTRUM_QUEUE: usize = 1024;

/// The demo's parameters (`Params::minimal(40, 2)`) and instance.
///
/// # Errors
/// Propagates parameter or instance validation failures (none occur for
/// the built-in constants).
pub fn spectrum_instance() -> Result<(Params, AmeInstance), Box<dyn Error>> {
    let params = Params::minimal(40, 2)?;
    let instance = AmeInstance::new(params.n(), SPECTRUM_PAIRS)?;
    Ok((params, instance))
}

/// Run the demo: a schedule-aware spoofing [`OmniscientJammer`] against
/// the f-AME instance, with every round streamed to a JSONL trace at
/// `trace_path` *and* handed to `on_round` (the example draws the
/// waterfall from it; the replay test passes a no-op). Returns the
/// engine statistics and the number of rounds driven.
///
/// # Errors
/// Trace-file I/O failures and engine errors.
pub fn run_spectrum_demo(
    trace_path: &Path,
    mut on_round: impl FnMut(&RoundRecord<FameFrame>),
) -> Result<(Stats, u64), Box<dyn Error>> {
    let (params, instance) = spectrum_instance()?;
    let adversary = OmniscientJammer::new(
        &params,
        instance.pairs(),
        TransmissionPolicy::PreferEdges,
        FeedbackPolicy::Random,
        5,
    )
    .with_spoofing();

    let nodes = make_nodes(&instance, &params, SPECTRUM_SEED)?;
    let cfg = NetworkConfig::new(params.c(), params.t())?;
    let sink = ChannelSink::create(trace_path, SPECTRUM_QUEUE, OverflowPolicy::Block)?;
    let mut sim = Simulation::with_sink(cfg, nodes, adversary, SPECTRUM_SEED, Box::new(sink))?;

    let budget = round_budget(&params, instance.len());
    let mut rounds = 0u64;
    while !sim.all_done() && rounds < budget {
        sim.step()?;
        on_round(sim.trace().last().expect("just stepped"));
        rounds += 1;
    }
    let stats = *sim.stats();
    // Dropping the simulation drains and flushes the channel sink, so the
    // trace file is complete once we return.
    drop(sim);
    Ok((stats, rounds))
}
