//! E9: gossip vs f-AME — what authentication and optimal resilience cost.
//!
//! The paper (Sections 1–2) argues that gossip in the style of \[13\]
//! cannot solve AME: it provides **no authentication** (receivers accept
//! any rumor frame), only suboptimal (`2t`) resilience, and — for the
//! oblivious schedules \[13\] analyses — exponential running time in `t`.
//!
//! This experiment runs our randomized gossip and f-AME on the same
//! all-to-all workload and tabulates the property gap alongside the round
//! counts. Gossip's raw delivery can be fast (randomized, unauthenticated
//! flooding is cheap); what it cannot do is tell real rumors from forged
//! ones — the `forged accepted` column — or bound which nodes fail.
//!
//! Runs through [`ExperimentRunner`]: both protocols are multi-trial
//! scenarios with parallel, deterministically seeded trials; aggregates
//! land in `BENCH_gossip_vs_fame.json`.

use fame::Params;
use radio_network::adversaries::Spoofer;
use radio_network::{seed, ChannelId};
use secure_radio_bench::{
    smoke, smoke_trials, AdversaryChoice, ExperimentRunner, ScenarioSpec, ShardMode, ShardedReport,
    Table, TraceOutput, TrialError, TrialOutcome, Workload,
};

fn main() {
    let shard = ShardMode::from_args();
    if shard.handle_merge("gossip_vs_fame") {
        return;
    }
    // The f-AME scenarios honor --trace-out; the gossip baseline runs its
    // own unauthenticated flood internally and keeps traces in memory.
    let trace = TraceOutput::from_args();
    let base_seed = 0x60551;
    let trials = smoke_trials(6);
    let ts: &[usize] = if smoke() { &[1] } else { &[1, 2] };
    println!("# Gossip vs f-AME (E9): the price and value of authentication\n");

    let runner = ExperimentRunner::new();
    let mut table = Table::new(
        format!("all-to-all exchange, spoofing + jamming adversaries ({trials} trials)"),
        &[
            "protocol",
            "t",
            "n",
            "rounds p50",
            "rounds max",
            "completed",
            "forged accepted",
            "resilience",
            "sender awareness",
        ],
    );
    let mut report = ShardedReport::new("gossip_vs_fame", shard);

    for &t in ts {
        let n = Params::min_nodes(t, t + 1).max(18);

        // Gossip under a spoofer (it also jams by colliding).
        let gossip_spec = ScenarioSpec::new(format!("gossip t={t}"), n, t, t + 1)
            .with_workload(Workload::AllToAll)
            .with_adversary(AdversaryChoice::Spoof) // label only; frames forged below
            .with_trials(trials)
            .with_seed(base_seed);
        let gossip = report
            .run(&gossip_spec, || {
                runner.run(&gossip_spec, |ctx| {
                    let spoofer =
                        Spoofer::new(seed::derive(ctx.seed, 1), |round, ch: ChannelId| {
                            fame::baselines::gossip::RumorFrame {
                                origin: (round as usize + ch.index()) % 7,
                                payload: format!("forged-{round}").into_bytes(),
                            }
                        });
                    let run = fame::baselines::gossip::run_gossip(n, t, spoofer, 400_000, ctx.seed)
                        .map_err(|e| TrialError {
                            trial: ctx.trial,
                            message: e.to_string(),
                        })?;
                    Ok(TrialOutcome {
                        rounds: run.rounds,
                        moves: 0,
                        cover: None,
                        violations: run.forged_slots as u64,
                        // "ok" = the flood completed; the forgery gap shows up
                        // in `violations`.
                        ok: run.completed,
                        dropped_records: 0,
                    })
                })
            })
            .expect("gossip scenario runs");
        if let Some(gossip) = gossip {
            table.row([
                "oblivious-gossip".to_string(),
                t.to_string(),
                n.to_string(),
                gossip.aggregate.rounds.median.to_string(),
                gossip.aggregate.rounds.max.to_string(),
                format!("{}/{}", gossip.aggregate.ok_count, trials),
                gossip.aggregate.violations.to_string(),
                "2t (almost-gossip)".to_string(),
                "none".to_string(),
            ]);
        }

        // f-AME on the complete exchange with jamming.
        let fame_spec = ScenarioSpec::new(format!("f-AME t={t}"), n, t, t + 1)
            .with_workload(Workload::AllToAll)
            .with_adversary(AdversaryChoice::RandomJam)
            .with_trials(trials)
            .with_seed(base_seed)
            .with_trace_output(trace.clone());
        let fame_result = report
            .run(&fame_spec, || runner.run_fame_scenario(&fame_spec))
            .expect("fame scenario runs");
        if let Some(fame_result) = fame_result {
            table.row([
                "f-AME".to_string(),
                t.to_string(),
                n.to_string(),
                fame_result.aggregate.rounds.median.to_string(),
                fame_result.aggregate.rounds.max.to_string(),
                format!(
                    "{}/{} (t-disruptable)",
                    fame_result.aggregate.ok_count, trials
                ),
                fame_result.aggregate.violations.to_string(),
                format!("t (max cover = {})", fame_result.aggregate.cover_max),
                "yes".to_string(),
            ]);
        }
    }

    println!("{table}");
    let path = report.write_default().expect("write BENCH json");
    println!("wrote {}", path.display());
    trace.announce();
    println!(
        "Reading: gossip floods fast but accepts forged rumors and cannot \
         certify who failed; f-AME pays a polylog factor in rounds and in \
         exchange gets zero forgeries, exact sender awareness, and an \
         optimal t-bounded disruption cover — the paper's core trade-off."
    );
}
