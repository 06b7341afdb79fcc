//! A hostile trace — one whose recorded adversary move the engine must
//! reject — fails the replay cleanly on both engines: an `Err` naming
//! the offending round, never a panic.

use std::path::PathBuf;

use radio_network::{ChannelId, Emission};
use replay::{CorpusScenario, EngineMode, GapPolicy, TraceFile};
use secure_radio_bench::scenario::Workload;
use secure_radio_bench::{AdversaryChoice, ScenarioSpec};

/// The round whose adversary move is doctored.
const ROUND: usize = 3;

/// A small f-AME run on C = 3 channels with budget t = 2, so a duplicate
/// channel fits within the budget and is reported as a duplicate.
fn scenario() -> CorpusScenario {
    CorpusScenario::Fame {
        spec: ScenarioSpec::new("hostile", 40, 2, 3)
            .with_workload(Workload::RandomPairs { edges: 3 })
            .with_seed(31)
            .with_adversary(AdversaryChoice::RandomJam),
        trial: 0,
    }
}

fn recorded_trace(scenario: &CorpusScenario) -> TraceFile {
    let path: PathBuf =
        std::env::temp_dir().join(format!("replay-hostile-{}.jsonl", std::process::id()));
    scenario.record(&path).expect("recording succeeds");
    let trace = TraceFile::load(&path, GapPolicy::Reject).expect("recorded trace is clean");
    std::fs::remove_file(&path).expect("remove temp trace");
    trace
}

#[test]
fn hostile_adversary_moves_fail_naming_the_round() {
    let scenario = scenario();
    let clean = recorded_trace(&scenario);
    assert!(clean.total_rounds() > ROUND as u64);
    let cases: [(&str, &[usize], &str); 3] = [
        (
            "out-of-range channel",
            &[99],
            "round 3: adversary used ch99 but only 3 channels exist",
        ),
        (
            "same channel twice",
            &[1, 1],
            "round 3: adversary listed ch1 twice in round 3",
        ),
        (
            "over budget",
            &[0, 1, 2],
            "round 3: adversary transmitted on 3 channels in round 3, budget is 2",
        ),
    ];
    for (case, channels, expected) in cases {
        let mut trace = clean.clone();
        let record = &mut trace.records[ROUND];
        record.adv_channels = channels.iter().map(|&ch| ChannelId(ch)).collect();
        record.adv_emissions = vec![Emission::Noise; channels.len()];
        for mode in [EngineMode::Dense, EngineMode::Sparse] {
            let err = scenario
                .replay(&trace, mode)
                .expect_err("a hostile move must fail the replay");
            assert_eq!(err, expected, "{case} [{}]", mode.label());
        }
    }
}
