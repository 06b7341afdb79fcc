//! Cross-process sharding: splitting a scenario grid into `k`-of-`N`
//! shard runs and merging the shard files must reproduce the unsharded
//! `BENCH_*.json` **byte-identically** — the guarantee that makes
//! multi-process (and multi-machine) sweeps trustworthy.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use fame::Params;
use proptest::prelude::*;
use radio_network::OverflowPolicy;
use secure_radio_bench::{
    merge_shards, AdversaryChoice, ExperimentRunner, ScenarioSpec, Shard, ShardedReport,
    TraceOutput, TrialOutcome, Workload,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh private directory per call (proptest cases run many merges).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "secure-radio-sharding-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Drive a synthetic grid through a [`ShardedReport`]: per-scenario trial
/// counts and seeds vary, trial outcomes are seed-deterministic, and
/// every third scenario burns ~100x the work of its neighbours (skewed
/// per-scenario costs — the load shape sharding exists for).
fn run_synthetic(shard: Option<Shard>, scenarios: &[(usize, u64)]) -> ShardedReport {
    let runner = ExperimentRunner::with_threads(3);
    let mut report = ShardedReport::new("synthetic", shard);
    for (i, &(trials, seed)) in scenarios.iter().enumerate() {
        let roster = AdversaryChoice::roster();
        let spec = ScenarioSpec::new(format!("s{i} seed={seed}"), 40, 2, 3)
            .with_workload(Workload::RandomPairs { edges: 4 + i })
            .with_adversary(roster[i % roster.len()].clone())
            .with_trials(trials)
            .with_seed(seed);
        let spins: u64 = if i.is_multiple_of(3) { 50_000 } else { 500 };
        report
            .run(&spec, || {
                runner.run(&spec, |ctx| {
                    let mut acc = ctx.seed | 1;
                    for _ in 0..spins {
                        acc = acc
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                    }
                    Ok(TrialOutcome {
                        rounds: acc % 100_000,
                        moves: ctx.seed % 17,
                        cover: if ctx.trial.is_multiple_of(3) {
                            None
                        } else {
                            Some((ctx.seed % 7) as usize)
                        },
                        violations: ctx.seed % 3,
                        ok: acc.is_multiple_of(2),
                        dropped_records: ctx.seed % 5,
                    })
                })
            })
            .expect("synthetic scenario runs");
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Splitting an arbitrary grid into 1, 2, 3 and 7 shards, running
    /// each shard independently, and merging the shard files yields a
    /// `BENCH_*.json` byte-identical to the unsharded run — for any
    /// seeds, scenario counts, and trial counts, under skewed
    /// per-scenario costs.
    #[test]
    fn shard_merge_is_byte_identical_to_unsharded(
        seed in 0u64..u64::MAX,
        scenario_count in 1usize..8,
    ) {
        let scenarios: Vec<(usize, u64)> = (0..scenario_count)
            .map(|i| {
                (
                    i % 4 + 1,
                    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )
            })
            .collect();
        let full_dir = temp_dir("full");
        let full_path = run_synthetic(None, &scenarios)
            .write(&full_dir)
            .expect("unsharded write");
        let reference = std::fs::read_to_string(&full_path).expect("unsharded bytes");
        for count in [1usize, 2, 3, 7] {
            let dir = temp_dir("split");
            for index in 1..=count {
                run_synthetic(Some(Shard { index, count }), &scenarios)
                    .write(&dir)
                    .expect("shard write");
            }
            let merged = merge_shards(&dir, "synthetic").expect("merge");
            prop_assert_eq!(
                &std::fs::read_to_string(merged).expect("merged bytes"),
                &reference
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&full_dir).ok();
    }
}

/// Run the real f-AME trial over a small grid, streaming every trial's
/// trace to `trace_dir`.
fn run_fame_grid(shard: Option<Shard>, trace_dir: &Path) -> ShardedReport {
    let n = Params::min_nodes(1, 2);
    let runner = ExperimentRunner::with_threads(2);
    let mut report = ShardedReport::new("stream_shard", shard);
    for (i, edges) in [4usize, 6, 5].into_iter().enumerate() {
        // A history-mining adversary: proves streamed shard runs keep the
        // in-memory window (and thus the execution) of unsharded runs.
        let spec = ScenarioSpec::new(format!("fame E={edges} #{i}"), n, 1, 2)
            .with_workload(Workload::RandomPairs { edges })
            .with_adversary(AdversaryChoice::BusyChannel { window: 8 })
            .with_trials(2)
            .with_seed(33 + i as u64)
            .with_trace_output(TraceOutput::Stream {
                dir: trace_dir.to_path_buf(),
                policy: OverflowPolicy::Block,
            });
        report
            .run(&spec, || runner.run_fame_scenario(&spec))
            .expect("fame scenario runs");
    }
    report
}

/// Sorted `(file name, contents)` pairs of a trace directory.
fn trace_files(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("trace dir")
        .map(|entry| {
            let path = entry.expect("entry").path();
            (
                path.file_name().unwrap().to_str().unwrap().to_string(),
                std::fs::read_to_string(&path).expect("trace contents"),
            )
        })
        .collect();
    files.sort();
    files
}

/// The same guarantee for real f-AME scenarios that stream their traces:
/// the merged report is byte-identical, and the union of the shard runs'
/// trace files equals the unsharded run's trace files (same names — the
/// hashed slugs keep scenarios apart — and same bytes).
#[test]
fn streamed_trace_shards_merge_byte_identically() {
    let full_traces = temp_dir("fame-traces-full");
    let full_dir = temp_dir("fame-full");
    let full_path = run_fame_grid(None, &full_traces)
        .write(&full_dir)
        .expect("unsharded write");
    let reference = std::fs::read_to_string(&full_path).expect("unsharded bytes");

    let shard_traces = temp_dir("fame-traces-sharded");
    let shard_dir = temp_dir("fame-sharded");
    for index in 1..=2 {
        run_fame_grid(Some(Shard { index, count: 2 }), &shard_traces)
            .write(&shard_dir)
            .expect("shard write");
    }
    let merged = merge_shards(&shard_dir, "stream_shard").expect("merge");
    assert_eq!(
        std::fs::read_to_string(merged).expect("merged bytes"),
        reference
    );
    // The shard processes together produced exactly the unsharded trace
    // set — no missing scenario, no cross-scenario clobbering.
    assert_eq!(trace_files(&shard_traces), trace_files(&full_traces));
    assert!(!trace_files(&full_traces).is_empty());

    for dir in [full_traces, full_dir, shard_traces, shard_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The shard files a run writes survive the merge directory also holding
/// unrelated reports' shards: merging selects by report name.
#[test]
fn merge_ignores_other_reports_shards() {
    let dir = temp_dir("mixed");
    let scenarios = [(2usize, 7u64), (1, 8), (3, 9)];
    run_synthetic(None, &scenarios)
        .write(&dir)
        .expect("reference");
    let reference =
        std::fs::read_to_string(dir.join("BENCH_synthetic.json")).expect("reference bytes");
    for index in 1..=2 {
        run_synthetic(Some(Shard { index, count: 2 }), &scenarios)
            .write(&dir)
            .expect("shard write");
    }
    // An unrelated report's shard file in the same directory.
    let mut other = ShardedReport::new("other_report", Some(Shard { index: 1, count: 1 }));
    let spec = ScenarioSpec::new("other", 40, 2, 3).with_trials(1);
    other
        .run(&spec, || {
            ExperimentRunner::sequential().run(&spec, |_| Ok(TrialOutcome::default()))
        })
        .expect("other scenario runs");
    other.write(&dir).expect("other shard write");

    let merged = merge_shards(&dir, "synthetic").expect("merge");
    assert_eq!(
        std::fs::read_to_string(merged).expect("merged bytes"),
        reference
    );
    std::fs::remove_dir_all(&dir).ok();
}
