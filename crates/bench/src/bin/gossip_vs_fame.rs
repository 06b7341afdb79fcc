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
//! Runs through [`Experiment`]: both protocols are multi-trial
//! scenarios with parallel, deterministically seeded trials; aggregates
//! land in `BENCH_gossip_vs_fame.json`.

use fame::Params;
use radio_network::adversaries::Spoofer;
use radio_network::{seed, ChannelId};
use secure_radio_bench::{
    smoke, smoke_trials, Accepts, AdversaryChoice, Experiment, ScenarioSpec, Table, TrialError,
    TrialOutcome, Workload,
};

fn main() {
    // The f-AME scenarios honor --trace-out; the gossip baseline runs its
    // own unauthenticated flood internally and keeps traces in memory.
    let mut exp = Experiment::new("gossip_vs_fame", Accepts::TRACES);
    let base_seed = 0x60551;
    let trials = smoke_trials(6);
    let ts: &[usize] = if smoke() { &[1] } else { &[1, 2] };
    println!("# Gossip vs f-AME (E9): the price and value of authentication\n");

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

    for &t in ts {
        let n = Params::min_nodes(t, t + 1).max(18);

        // Gossip under a spoofer (it also jams by colliding).
        let gossip_spec = ScenarioSpec::new(format!("gossip t={t}"), n, t, t + 1)
            .with_workload(Workload::AllToAll)
            .with_adversary(AdversaryChoice::Spoof) // label only; frames forged below
            .with_trials(trials)
            .with_seed(base_seed);
        let gossip = exp.run(&gossip_spec, |ctx| {
            let spoofer = Spoofer::new(seed::derive(ctx.seed, 1), |round, ch: ChannelId| {
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
        });
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
            .with_trace_output(exp.trace());
        if let Some(fame_result) = exp.run_fame(&fame_spec) {
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
    exp.finish();
    println!(
        "Reading: gossip floods fast but accepts forged rumors and cannot \
         certify who failed; f-AME pays a polylog factor in rounds and in \
         exchange gets zero forgeries, exact sender awareness, and an \
         optimal t-bounded disruption cover — the paper's core trade-off."
    );
}
