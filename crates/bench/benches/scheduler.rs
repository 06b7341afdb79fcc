//! Scheduler bench: the sequential runner (`ExperimentRunner::sequential`,
//! the reference execution order) vs the work-stealing runner at
//! `THREADS` workers, on two trial mixes:
//!
//! * **skewed** — the first `TRIALS/THREADS` trials cost ~100× the rest,
//!   the "slow scenario prefix" of real sweeps (omniscient jammers first,
//!   cheap baselines after); stealing spreads them across all workers;
//! * **uniform** — every trial costs the same.
//!
//! Besides the usual criterion output, `main` writes the measured times to
//! `BENCH_scheduler.json` so the sequential-vs-stealing delta is tracked
//! in-repo.

use criterion::{black_box, summaries_json, Criterion, Summary};
use secure_radio_bench::{ExperimentRunner, ScenarioSpec, TrialCtx, TrialError, TrialOutcome};
use std::thread;

const TRIALS: usize = 64;
const THREADS: usize = 8;
const EXPENSIVE_SPINS: u64 = 400_000;
const CHEAP_SPINS: u64 = 4_000;

/// Deterministic spin work standing in for a simulation trial.
fn spin(seed: u64, spins: u64) -> TrialOutcome {
    let mut acc = seed | 1;
    for i in 0..spins {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    TrialOutcome {
        rounds: acc % 997,
        moves: acc % 31,
        cover: None,
        violations: 0,
        ok: true,
        dropped_records: 0,
    }
}

/// The expensive trials all sit in the prefix `0..TRIALS/THREADS`.
fn skewed(ctx: &TrialCtx<'_>) -> Result<TrialOutcome, TrialError> {
    let spins = if ctx.trial < TRIALS / THREADS {
        EXPENSIVE_SPINS
    } else {
        CHEAP_SPINS
    };
    Ok(spin(ctx.seed, spins))
}

fn uniform(ctx: &TrialCtx<'_>) -> Result<TrialOutcome, TrialError> {
    Ok(spin(ctx.seed, CHEAP_SPINS))
}

fn main() {
    let mut c = Criterion::default();
    // The spec only feeds trial count and seeds; the trial closures above
    // never touch the network stack.
    let spec = ScenarioSpec::new("sched", 0, 1, 2)
        .with_trials(TRIALS)
        .with_seed(7);

    for (mix, trial) in [
        ("skewed", skewed as fn(&TrialCtx<'_>) -> _),
        ("uniform", uniform as fn(&TrialCtx<'_>) -> _),
    ] {
        let mut group = c.benchmark_group(&format!("scheduler/{mix}"));
        group.sample_size(15);
        group.bench_function("sequential", |b| {
            let runner = ExperimentRunner::sequential();
            b.iter(|| black_box(runner.run(&spec, trial).expect("runs")))
        });
        group.bench_function("stealing", |b| {
            let runner = ExperimentRunner::with_threads(THREADS);
            b.iter(|| black_box(runner.run(&spec, trial).expect("runs")))
        });
        group.finish();
    }

    // Sanity: both schedulers produce identical results.
    let sequential = ExperimentRunner::sequential()
        .run(&spec, skewed)
        .expect("runs");
    let stealing = ExperimentRunner::with_threads(THREADS)
        .run(&spec, skewed)
        .expect("runs");
    assert_eq!(sequential, stealing, "schedulers disagree on outcomes");

    let summaries: Vec<Summary> = c.take_summaries();
    if summaries.iter().all(|s| s.median_ns > 0.0) {
        // The delta only materializes with real cores: on a 1-core host
        // both runners serialize and measure ~1x. Record the host's
        // parallelism next to the numbers so they stay interpretable.
        let host = thread::available_parallelism().map_or(1, |n| n.get());
        let json = format!(
            "{{\n  \"host_threads\": {host},\n  \"workers\": {THREADS},\n  \
             \"trials\": {TRIALS},\n  \"summaries\": {}}}\n",
            summaries_json(&summaries)
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scheduler.json");
        std::fs::write(path, json).expect("write BENCH_scheduler.json");
        println!(
            "\nwrote BENCH_scheduler.json (times are ns per {TRIALS}-trial scenario; \
             host has {host} hardware threads)"
        );
        for mix in ["skewed", "uniform"] {
            let median = |needle: &str| {
                summaries
                    .iter()
                    .find(|s| s.id == format!("scheduler/{mix}/{needle}"))
                    .map(|s| s.median_ns)
            };
            if let (Some(sequential), Some(stealing)) = (median("sequential"), median("stealing")) {
                println!(
                    "{mix}: sequential {:.2} ms -> stealing {:.2} ms ({:.2}x)",
                    sequential / 1e6,
                    stealing / 1e6,
                    sequential / stealing
                );
            }
        }
    }
}
