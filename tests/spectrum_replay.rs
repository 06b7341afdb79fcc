//! Satellite: the `spectrum_trace` example emits through the shared
//! `record_line` path, so its output is a real replayable trace. This
//! smoke test runs the demo scenario, then re-drives the recorded
//! schedule through `ScriptedAdversary` and checks the replay is
//! byte-identical.

use replay::driver::collected_lines;
use replay::{
    compare, decode_fame_frame, run_dense, CollectorSink, GapPolicy, ScriptedAdversary, TraceFile,
};
use secure_radio::fame::protocol::make_nodes;
use secure_radio::net::NetworkConfig;
use secure_radio::spectrum::{run_spectrum_demo, spectrum_instance, SPECTRUM_SEED};

#[test]
fn spectrum_demo_output_replays_byte_identically() {
    let path = std::env::temp_dir().join(format!(
        "spectrum-replay-smoke-{}.jsonl",
        std::process::id()
    ));
    let (stats, rounds) = run_spectrum_demo(&path, |_| {}).expect("demo runs");
    assert!(rounds > 0);
    assert!(stats.adversary_transmissions > 0, "the jammer should jam");

    let trace = TraceFile::load(&path, GapPolicy::Reject).expect("demo trace is clean JSONL");
    std::fs::remove_file(&path).expect("cleanup");
    assert_eq!(trace.total_rounds(), rounds);

    // Rebuild the exact same protocol state the demo started from and
    // re-drive it under the recorded adversary schedule.
    let (params, instance) = spectrum_instance().expect("demo instance");
    let nodes = make_nodes(&instance, &params, SPECTRUM_SEED).expect("demo nodes");
    let cfg = NetworkConfig::new(params.c(), params.t()).expect("demo config");
    let scripted =
        ScriptedAdversary::from_records(&trace.records, trace.total_rounds(), decode_fame_frame)
            .expect("schedule parses (incl. spoofed Vector frames)");

    let (sink, lines) = CollectorSink::new();
    run_dense(cfg, nodes, scripted, SPECTRUM_SEED, rounds, Box::new(sink)).expect("replay runs");

    let report = compare(&trace, &collected_lines(&lines));
    assert!(
        report.identical(),
        "spectrum replay diverged:\n{}",
        report.divergence.expect("divergence").render()
    );
    assert_eq!(report.rounds_compared, rounds);
}
