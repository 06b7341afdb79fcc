//! E7: **Section 6** — group-key establishment scaling.
//!
//! Paper claims:
//! * total cost `Θ(n·t³·log n)` rounds, dominated by Part 1 (f-AME over
//!   the leader spanner);
//! * Part 2 costs `Θ(n·t²·log n)`, Part 3 `Θ(t³·log n)`;
//! * all but at most `t` nodes adopt the same group key.
//!
//! Runs through [`Experiment`]: every `(n, t)` point is a
//! multi-trial scenario (fresh protocol and jammer coins per trial — the
//! seed tree derives one stream per phase), trials execute in parallel
//! under the work-stealing scheduler, and aggregates land in
//! `BENCH_group_key_scaling.json`. The per-part breakdown is accumulated
//! on the side (sums are order-independent, so the table stays
//! deterministic under stealing).

use std::sync::Mutex;

use fame::group_key::{establish_group_key, GroupKeyRounds};
use radio_network::adversaries::RandomJammer;
use radio_network::seed;
use secure_radio_bench::{
    ratio, smoke, smoke_trials, Accepts, AdversaryChoice, Experiment, ScenarioSpec, Table,
    TrialError, TrialOutcome, Workload,
};

const BASE_SEED: u64 = 0x6B07;

/// One scenario: [`smoke_trials`]`(4)` independent group-key
/// establishments at `(n, t)`, with per-part round counts collected for
/// the table.
fn run_point(exp: &mut Experiment, table: &mut Table, sweep: &str, n: usize, t: usize) {
    let trials = smoke_trials(4);
    let spec = ScenarioSpec::new(format!("E7 {sweep} n={n} t={t}"), n, t, t + 1)
        .with_workload(Workload::None)
        .with_adversary(AdversaryChoice::RandomJam)
        .with_trials(trials)
        .with_seed(BASE_SEED);
    let params = spec.params();
    let parts: Mutex<Vec<(usize, GroupKeyRounds, usize, bool)>> = Mutex::new(Vec::new());
    let Some(result) = exp.run(&spec, |ctx| {
        let gk = establish_group_key(
            &params,
            RandomJammer::new(seed::derive(ctx.seed, 1)),
            RandomJammer::new(seed::derive(ctx.seed, 2)),
            RandomJammer::new(seed::derive(ctx.seed, 3)),
            ctx.seed,
            false,
        )
        .map_err(|e| TrialError {
            trial: ctx.trial,
            message: e.to_string(),
        })?;
        let holders = gk.holders();
        let agree = gk.agreement();
        parts
            .lock()
            .expect("no poisoned trial")
            .push((ctx.trial, gk.rounds, holders, agree));
        Ok(TrialOutcome {
            rounds: gk.rounds.total(),
            moves: gk.fame_moves as u64,
            violations: u64::from(!agree),
            ok: agree && holders + t >= n,
            ..TrialOutcome::default()
        })
    }) else {
        return;
    };
    let mut parts = parts.into_inner().expect("no poisoned trial");
    parts.sort_unstable_by_key(|&(trial, ..)| trial);
    let mean = |f: fn(&GroupKeyRounds) -> u64| {
        parts.iter().map(|(_, r, ..)| f(r)).sum::<u64>() as f64 / parts.len().max(1) as f64
    };
    let holders_min = parts.iter().map(|&(_, _, h, _)| h).min().unwrap_or(0);
    let theory = n as f64 * ((t + 1) * (t + 1) * (t + 1)) as f64 * (n as f64).ln();
    table.row([
        sweep.to_string(),
        n.to_string(),
        t.to_string(),
        format!("{:.0}", mean(|r| r.part1)),
        format!("{:.0}", mean(|r| r.part2)),
        format!("{:.0}", mean(|r| r.part3)),
        result.aggregate.rounds.median.to_string(),
        format!("{theory:.0}"),
        ratio(result.aggregate.rounds.median, theory),
        format!("{holders_min}/{n}"),
        if result.aggregate.ok_count == trials {
            "yes".to_string()
        } else {
            format!("NO ({}/{trials})", result.aggregate.ok_count)
        },
    ]);
}

fn main() {
    // Group-key trials chain three internal simulations whose round
    // numbering restarts per part, which the per-trial trace-file format
    // cannot express yet, so `--trace-out` is refused rather than
    // silently not streaming.
    let mut exp = Experiment::new("group_key_scaling", Accepts::SHARDS);
    println!(
        "# Group key establishment (Section 6) — {} trials/point\n",
        smoke_trials(4)
    );

    let mut table = Table::new(
        "rounds vs n and t (jamming adversary on every part; parts are means)",
        &[
            "sweep",
            "n",
            "t",
            "part1",
            "part2",
            "part3",
            "total p50",
            "n (t+1)^3 ln n",
            "p50/theory",
            "holders min",
            "agree",
        ],
    );

    let ns: &[usize] = if smoke() { &[36] } else { &[36, 48, 64, 88] };
    for &n in ns {
        run_point(&mut exp, &mut table, "vs-n", n, 2);
    }
    if !smoke() {
        for &t in &[1usize, 2, 3] {
            let n = fame::Params::min_nodes(t, t + 1).max(64);
            run_point(&mut exp, &mut table, "vs-t", n, t);
        }
    }

    println!("{table}");
    exp.finish();
    println!(
        "Shape checks: p50/theory stays ~constant across the n sweep \
         (Θ(n·t³·log n)); part1 dominates; holders >= n - t with full \
         agreement."
    );
}
