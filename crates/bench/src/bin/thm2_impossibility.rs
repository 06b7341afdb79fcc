//! E5: **Theorem 2** — no protocol beats `t`-disruptability, because a
//! purely randomized exchange cannot be authenticated.
//!
//! The simulating adversary mirrors each naive sender's channel
//! distribution with a forged payload; real and forged executions are
//! indistinguishable to the receiver, so the first accepted frame is
//! forged with probability `≈ 1/2`. f-AME's deterministic slot ownership
//! removes the ambiguity: its spoof-acceptance count is structurally zero
//! in the very same adversarial model.
//!
//! Runs through [`Experiment`]: both protocols are multi-trial
//! scenarios (each naive trial is one independent exchange under fresh
//! coins; each f-AME trial faces the spoofing schedule-aware jammer),
//! trials execute in parallel under the work-stealing scheduler, and
//! aggregates land in `BENCH_thm2_impossibility.json`.

use std::sync::atomic::{AtomicU64, Ordering};

use fame::baselines::naive::run_naive_exchange;
use fame::Params;
use secure_radio_bench::{
    fame_run_for_trial, smoke, smoke_trials, Accepts, AdversaryChoice, Experiment, ScenarioSpec,
    Table, TrialError, TrialOutcome, Workload,
};

fn main() {
    // The f-AME scenarios honor --trace-out; the naive baseline runs its
    // own randomized exchange internally and keeps traces in memory.
    let mut exp = Experiment::new("thm2_impossibility", Accepts::TRACES);
    let seed = 0xBAD_C0DE;
    let ts: &[usize] = if smoke() { &[1] } else { &[1, 2, 3] };
    println!("# Theorem 2 — authentication is impossible without structure\n");

    let mut table = Table::new(
        "naive randomized exchange vs f-AME under spoofing adversaries",
        &[
            "protocol",
            "t",
            "trials",
            "accepted real",
            "accepted fake",
            "fooled",
            "undecided",
        ],
    );

    for &t in ts {
        let trials = smoke_trials(80);
        let rounds = 40 * (t as u64 + 1);
        // The simulating adversary lives inside run_naive_exchange; the
        // spec's adversary field is the closest roster label.
        let spec = ScenarioSpec::new(format!("E5 naive t={t}"), 4 * t, t, t + 1)
            .with_workload(Workload::None)
            .with_adversary(AdversaryChoice::Spoof)
            .with_trials(trials)
            .with_seed(seed ^ t as u64);
        let (real, fake, undecided) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let result = exp.run(&spec, |ctx| {
            let r = run_naive_exchange(4 * t, t, rounds, ctx.seed).map_err(|e| TrialError {
                trial: ctx.trial,
                message: e.to_string(),
            })?;
            real.fetch_add(r.accepted_real as u64, Ordering::Relaxed);
            fake.fetch_add(r.accepted_fake as u64, Ordering::Relaxed);
            undecided.fetch_add(r.undecided as u64, Ordering::Relaxed);
            Ok(TrialOutcome {
                rounds,
                violations: r.accepted_fake as u64,
                ok: r.accepted_fake == 0,
                ..TrialOutcome::default()
            })
        });
        if result.is_none() {
            continue;
        }
        let (real, fake, undecided) =
            (real.into_inner(), fake.into_inner(), undecided.into_inner());
        let decided = real + fake;
        table.row([
            "naive-random".to_string(),
            t.to_string(),
            trials.to_string(),
            real.to_string(),
            fake.to_string(),
            format!("{:.1}%", 100.0 * fake as f64 / decided.max(1) as f64),
            undecided.to_string(),
        ]);
    }

    for &t in ts {
        let trials = smoke_trials(6);
        let n = Params::min_nodes(t, t + 1).max(24);
        let pairs_count = (n / 2).min(8);
        let spec = ScenarioSpec::new(format!("E5 f-AME t={t}"), n, t, t + 1)
            .with_workload(Workload::Disjoint { pairs: pairs_count })
            .with_adversary(AdversaryChoice::OmniSpoof)
            .with_trials(trials)
            .with_seed(seed ^ (t as u64) << 4)
            .with_trace_output(exp.trace());
        let params = spec.params();
        let instance = spec.instance();
        let delivered_total = AtomicU64::new(0);
        let Some(result) = exp.run(&spec, |ctx| {
            // Streaming-aware: honors the spec's --trace-out.
            let run = fame_run_for_trial(&params, &instance, ctx)?;
            let delivered = run.outcome.delivered_count() as u64;
            delivered_total.fetch_add(delivered, Ordering::Relaxed);
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
        }) else {
            continue;
        };
        let delivered = delivered_total.into_inner();
        let forged = result.aggregate.violations;
        table.row([
            "f-AME (spoofing jammer)".to_string(),
            t.to_string(),
            trials.to_string(),
            delivered.to_string(),
            forged.to_string(),
            format!("{:.1}%", 100.0 * forged as f64 / delivered.max(1) as f64),
            ((pairs_count * trials) as u64 - delivered).to_string(),
        ]);
    }

    println!("{table}");
    exp.finish();
    println!(
        "Paper claim: the naive receiver accepts the forgery with \
         probability 1/2 (Theorem 2's indistinguishability argument); \
         f-AME accepts zero forgeries because every receiving slot has a \
         deterministic owner."
    );
}
