//! E12 + E13 + E15: the Section 8 extensions.
//!
//! * **E12 (residual delivery, §8 open question 3)** — f-AME faithfully
//!   stops at a residue with vertex cover ≤ t; the residual phase sweeps
//!   the leftovers best-effort. Measured: the upgrade in delivered pairs,
//!   with awareness preserved.
//! * **E13 (Byzantine-robust variant, §8 open question 1)** — surrogates
//!   eliminated, every message direct from its source: `2t`-disruptable,
//!   as the paper sketches.
//! * **E15 (concurrent point-to-point channels, §8 open question 4)** —
//!   per-pair hopping keys let up to `C` pairs share one broadcast slot.
//!
//! Runs through [`Experiment`]: every point is a multi-trial
//! scenario under fresh per-trial coins, trials execute in parallel under
//! the work-stealing scheduler, and all aggregates land in
//! `BENCH_extensions.json`.

use std::sync::atomic::{AtomicU64, Ordering};

use fame::byzantine::run_byzantine_fame;
use fame::pointtopoint::{run_pairwise_slot, PairSession};
use fame::residual::run_fame_with_residual;
use fame::Params;
use radio_crypto::key::SymmetricKey;
use radio_network::adversaries::{NoAdversary, RandomJammer};
use radio_network::seed;
use secure_radio_bench::workloads::disjoint_pairs;
use secure_radio_bench::{
    smoke, smoke_trials, Accepts, AdversaryChoice, Experiment, ScenarioSpec, Table, TrialError,
    TrialOutcome, Workload,
};

fn main() {
    // Every Section 8 trial (residual re-runs, Byzantine variant, pairwise
    // slots) drives bespoke multi-phase runners that do not stream traces
    // yet, so `--trace-out` is refused rather than silently not streaming.
    let mut exp = Experiment::new("extensions", Accepts::SHARDS);
    let base_seed = 0xE57;
    let trials = smoke_trials(4);
    println!(
        "# Section 8 extensions: residual delivery, Byzantine-robust variant, \
         pairwise channels — {trials} trials/point\n"
    );

    // ---- E12: residual upgrade ---------------------------------------------
    let mut table = Table::new(
        "E12 — residual sweeps upgrade the leftover t-cover (t=2)",
        &[
            "adversary",
            "|E|",
            "plain delivered",
            "with residual",
            "extra rounds",
            "aware",
        ],
    );
    let p = Params::minimal(40, 2).expect("params");
    let e12_adversaries: &[AdversaryChoice] = if smoke() {
        &[AdversaryChoice::RandomJam]
    } else {
        &[AdversaryChoice::None, AdversaryChoice::RandomJam]
    };
    let e12_sizes: &[usize] = if smoke() { &[7] } else { &[7, 13, 19] };
    for adversary in e12_adversaries {
        for &m in e12_sizes {
            let spec = ScenarioSpec::new(
                format!("E12 {} E={m}", adversary.label()),
                p.n(),
                p.t(),
                p.c(),
            )
            .with_workload(Workload::Disjoint { pairs: m })
            .with_adversary(adversary.clone())
            .with_trials(trials)
            .with_seed(base_seed ^ (m as u64) << 8);
            let instance = spec.instance();
            let plain_delivered = AtomicU64::new(0);
            let merged_delivered = AtomicU64::new(0);
            let extra_rounds = AtomicU64::new(0);
            let Some(result) = exp.run(&spec, |ctx| {
                let jam = matches!(spec.adversary, AdversaryChoice::RandomJam);
                let (merged, plain) = if jam {
                    run_fame_with_residual(
                        &instance,
                        &p,
                        RandomJammer::new(seed::derive(ctx.seed, 1)),
                        RandomJammer::new(seed::derive(ctx.seed, 2)),
                        2,
                        ctx.seed,
                    )
                } else {
                    run_fame_with_residual(&instance, &p, NoAdversary, NoAdversary, 2, ctx.seed)
                }
                .map_err(|e| TrialError {
                    trial: ctx.trial,
                    message: e.to_string(),
                })?;
                plain_delivered
                    .fetch_add(plain.outcome.delivered_count() as u64, Ordering::Relaxed);
                merged_delivered.fetch_add(merged.delivered_count() as u64, Ordering::Relaxed);
                extra_rounds.fetch_add(merged.rounds - plain.outcome.rounds, Ordering::Relaxed);
                let aware = merged.awareness_violations().is_empty();
                Ok(TrialOutcome {
                    rounds: merged.rounds,
                    moves: plain.moves as u64,
                    violations: merged.awareness_violations().len() as u64,
                    ok: aware,
                    ..TrialOutcome::default()
                })
            }) else {
                continue;
            };
            table.row([
                spec.adversary.label().to_string(),
                m.to_string(),
                format!("{}/{}", plain_delivered.into_inner(), m * trials),
                format!("{}/{}", merged_delivered.into_inner(), m * trials),
                format!("{:.0}", extra_rounds.into_inner() as f64 / trials as f64),
                if result.aggregate.ok_count == trials {
                    "yes".to_string()
                } else {
                    format!("NO ({}/{trials})", result.aggregate.ok_count)
                },
            ]);
        }
    }
    println!("{table}");

    // ---- E13: Byzantine-robust variant --------------------------------------
    let mut table = Table::new(
        "E13 — Byzantine-robust (no surrogates): 2t-disruptable, direct-only",
        &[
            "t",
            "|E|",
            "rounds p50",
            "moves p50",
            "delivered",
            "cover max",
            "<=2t",
            "forged",
        ],
    );
    let e13_ts: &[usize] = if smoke() { &[2] } else { &[2, 3] };
    for &t in e13_ts {
        let spec = ScenarioSpec::new(
            format!("E13 byzantine t={t}"),
            Params::min_nodes(t, t + 1),
            t,
            t + 1,
        )
        .with_workload(Workload::RandomPairs { edges: 24 })
        .with_adversary(AdversaryChoice::RandomJam)
        .with_trials(trials)
        .with_seed(base_seed ^ (t as u64) << 16);
        let instance = spec.instance();
        let p13 = spec.params();
        let delivered = AtomicU64::new(0);
        let cover_max = AtomicU64::new(0);
        let Some(result) = exp.run(&spec, |ctx| {
            let (outcome, moves) = run_byzantine_fame(
                &instance,
                &p13,
                RandomJammer::new(seed::derive(ctx.seed, 1)),
                ctx.seed,
            )
            .map_err(|e| TrialError {
                trial: ctx.trial,
                message: e.to_string(),
            })?;
            delivered.fetch_add(outcome.delivered_count() as u64, Ordering::Relaxed);
            let cover = outcome.disruption_cover();
            cover_max.fetch_max(cover as u64, Ordering::Relaxed);
            let forged = outcome.authentication_violations(&instance).len() as u64;
            Ok(TrialOutcome {
                rounds: outcome.rounds,
                moves: moves as u64,
                // The aggregate's cover_within_t judges against t, but
                // this variant's bound is 2t — keep the cover out of
                // the generic aggregate (a legitimate cover in (t, 2t]
                // would read as a violation) and judge it in `ok`.
                cover: None,
                violations: forged,
                ok: cover <= 2 * t && forged == 0,
                dropped_records: 0,
            })
        }) else {
            continue;
        };
        assert_eq!(
            result.aggregate.ok_count, trials,
            "Byzantine-robust variant exceeded 2t-disruptability at t={t}"
        );
        table.row([
            t.to_string(),
            24.to_string(),
            result.aggregate.rounds.median.to_string(),
            result.aggregate.moves.median.to_string(),
            format!("{}/{}", delivered.into_inner(), 24 * trials),
            cover_max.into_inner().to_string(),
            "yes".to_string(),
            result.aggregate.violations.to_string(),
        ]);
    }
    println!("{table}");

    // ---- E15: concurrent point-to-point channels ----------------------------
    let mut table = Table::new(
        "E15 — concurrent pairwise channels (one Θ(t log n) slot, jamming)",
        &["pairs/slot", "slot rounds", "delivered", "throughput ×"],
    );
    let group = SymmetricKey::from_bytes([0x42; 32]);
    let first_pairs = if smoke() { p.c() } else { 1 };
    for pairs in first_pairs..=p.c() {
        let spec = ScenarioSpec::new(format!("E15 pairs={pairs}"), p.n(), p.t(), p.c())
            .with_workload(Workload::Disjoint { pairs })
            .with_adversary(AdversaryChoice::RandomJam)
            .with_trials(trials)
            .with_seed(base_seed ^ (pairs as u64) << 24);
        let sessions: Vec<PairSession> = disjoint_pairs(p.n(), pairs)
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| PairSession {
                a,
                b,
                message: format!("p2p-{i}").into_bytes(),
            })
            .collect();
        let delivered = AtomicU64::new(0);
        let Some(result) = exp.run(&spec, |ctx| {
            let r = run_pairwise_slot(
                &p,
                &group,
                &sessions,
                RandomJammer::new(seed::derive(ctx.seed, 1)),
                ctx.seed,
            )
            .map_err(|e| TrialError {
                trial: ctx.trial,
                message: e.to_string(),
            })?;
            let got = r.delivered.iter().filter(|d| d.is_some()).count() as u64;
            delivered.fetch_add(got, Ordering::Relaxed);
            Ok(TrialOutcome {
                rounds: r.rounds,
                violations: pairs as u64 - got,
                ok: got == pairs as u64,
                ..TrialOutcome::default()
            })
        }) else {
            continue;
        };
        let got = delivered.into_inner();
        table.row([
            pairs.to_string(),
            result.aggregate.rounds.median.to_string(),
            format!("{got}/{}", pairs * trials),
            format!("{:.1}", got as f64 / trials as f64),
        ]);
    }
    println!("{table}");

    exp.finish();
    println!(
        "Reading: residual sweeps recover every leftover pair when the \
         adversary is absent or oblivious (no worst-case guarantee exists — \
         Theorem 2); the surrogate-free variant pays the predicted factor \
         of two in resilience; and per-pair hopping keys let up to C pairs \
         share one broadcast slot — Section 8's three practical sketches."
    );
}
