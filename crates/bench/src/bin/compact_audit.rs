//! E10: **Section 5.6** — the constant-message-size variant.
//!
//! Paper claims: protocol messages shrink from `O(n)` AME values per frame
//! to `O(1)`, while authenticity and `t`-disruptability are preserved; the
//! reconstruction-hash chains prune the exponentially many candidate
//! vectors to a polynomial set from which the vector signature selects the
//! authentic one.
//!
//! Runs through [`Experiment`]: both variants are multi-trial
//! scenarios on the same star workload (worst case for plain frame size),
//! each trial under fresh spoofer/jammer coins, trials in parallel under
//! the work-stealing scheduler; aggregates land in
//! `BENCH_compact_audit.json`.

use std::sync::atomic::{AtomicU64, Ordering};

use fame::compact::{reconstruction_hashes, run_compact_fame};
use fame::messages::FameFrame;

use radio_network::adversaries::{RandomJammer, Spoofer};
use radio_network::seed;
use secure_radio_bench::{
    fame_run_for_trial, smoke_trials, Accepts, AdversaryChoice, Experiment, ScenarioSpec, Table,
    TrialError, TrialOutcome, Workload,
};

fn main() {
    // The plain f-AME scenarios honor --trace-out; the compact-vector
    // variant drives its own chunked exchange internally and keeps
    // traces in memory (its specs say so).
    let mut exp = Experiment::new("compact_audit", Accepts::TRACES);
    let base_seed = 0xC0;
    let t = 2;
    let trials = smoke_trials(6);
    println!("# Compact f-AME (Section 5.6): constant-size frames — {trials} trials/variant\n");

    let mut table = Table::new(
        "plain vs compact f-AME under gossip-phase spoof flood + jamming",
        &[
            "variant",
            "t",
            "|E|",
            "max values/frame",
            "rounds p50",
            "delivered",
            "forged accepted",
            "cover<=t",
        ],
    );

    // A star workload maximizes one node's outbox (worst case for plain
    // frame size: node 0 carries |E|/2 values in every vector frame).
    let leaves = 10;

    // ---- Plain f-AME under jamming -----------------------------------------
    let plain_spec = ScenarioSpec::new("E10 plain", 40, t, t + 1)
        .with_workload(Workload::Star { leaves })
        .with_adversary(AdversaryChoice::RandomJam)
        .with_trials(trials)
        .with_seed(base_seed)
        .with_trace_output(exp.trace());
    let params = plain_spec.params();
    let instance = plain_spec.instance();
    let plain_max_values = instance.outbox_of(0).len();
    let delivered_plain = AtomicU64::new(0);
    let plain = exp.run(&plain_spec, |ctx| {
        // Streaming-aware: honors the spec's --trace-out.
        let run = fame_run_for_trial(&params, &instance, ctx)?;
        delivered_plain.fetch_add(run.outcome.delivered_count() as u64, Ordering::Relaxed);
        let forged = run.outcome.authentication_violations(&instance).len() as u64;
        let cover = run.outcome.disruption_cover();
        Ok(TrialOutcome {
            rounds: run.outcome.rounds,
            moves: run.moves as u64,
            cover: Some(cover),
            violations: forged,
            ok: forged == 0 && cover <= t,
            dropped_records: 0,
        })
    });
    if let Some(plain) = plain {
        table.row([
            "plain f-AME".to_string(),
            t.to_string(),
            instance.len().to_string(),
            plain_max_values.to_string(),
            plain.aggregate.rounds.median.to_string(),
            format!(
                "{}/{}",
                delivered_plain.into_inner(),
                instance.len() * trials
            ),
            plain.aggregate.violations.to_string(),
            format!(
                "{}/{}",
                plain.aggregate.cover_within_t, plain.aggregate.cover_measured
            ),
        ]);
    }

    // ---- Compact f-AME under spoof flood + jamming -------------------------
    // The gossip-phase spoofer is bespoke (it forges *plausible* chunks with
    // self-consistent terminal hashes, the worst case for reconstruction);
    // the spec's adversary field carries the closest roster label.
    let compact_spec = ScenarioSpec::new("E10 compact", 40, t, t + 1)
        .with_workload(Workload::Star { leaves })
        .with_adversary(AdversaryChoice::Spoof)
        .with_trials(trials)
        .with_seed(base_seed ^ 0xC0117AC7);
    let delivered_compact = AtomicU64::new(0);
    let max_frame_values = AtomicU64::new(0);
    let gossip_stats = AtomicU64::new(0); // packed: misses summed
    let compact = exp.run(&compact_spec, |ctx| {
        let spoofer = Spoofer::new(seed::derive(ctx.seed, 1), |round, _ch| {
            let forged = format!("forged-{round}").into_bytes();
            let tag = reconstruction_hashes(std::slice::from_ref(&forged))[0];
            FameFrame::GossipChunk {
                owner: (round % 11) as usize,
                index: 0,
                payload: forged,
                reconstruction: tag,
            }
        });
        let run = run_compact_fame(
            &instance,
            &params,
            spoofer,
            RandomJammer::new(seed::derive(ctx.seed, 2)),
            ctx.seed,
        )
        .map_err(|e| TrialError {
            trial: ctx.trial,
            message: e.to_string(),
        })?;
        delivered_compact.fetch_add(run.outcome.delivered_count() as u64, Ordering::Relaxed);
        max_frame_values.fetch_max(run.max_frame_values as u64, Ordering::Relaxed);
        gossip_stats.fetch_add(run.gossip_misses as u64, Ordering::Relaxed);
        let forged = run.outcome.authentication_violations(&instance).len() as u64;
        let cover = run.outcome.disruption_cover();
        Ok(TrialOutcome {
            rounds: run.outcome.rounds,
            cover: Some(cover),
            violations: forged,
            ok: forged == 0 && cover <= t,
            ..TrialOutcome::default()
        })
    });
    let compact_max = max_frame_values.into_inner();
    if let Some(compact) = compact {
        table.row([
            "compact f-AME".to_string(),
            t.to_string(),
            instance.len().to_string(),
            compact_max.to_string(),
            compact.aggregate.rounds.median.to_string(),
            format!(
                "{}/{}",
                delivered_compact.into_inner(),
                instance.len() * trials
            ),
            compact.aggregate.violations.to_string(),
            format!(
                "{}/{}",
                compact.aggregate.cover_within_t, compact.aggregate.cover_measured
            ),
        ]);
    }

    println!("{table}");
    println!(
        "gossip misses across {trials} trials: {}",
        gossip_stats.into_inner()
    );
    exp.finish();
    println!(
        "\nReading: frames drop from {plain_max_values} AME values to \
         {compact_max} (payload + reconstruction hash) with no authenticity \
         loss — the forged chunks the spoofer injected were pruned by the \
         hash chains and the vector signature."
    );
}
