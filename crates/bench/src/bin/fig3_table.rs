//! E1–E3: regenerate **Figure 3** — the complexity table of Section 5.5.
//!
//! For each channel regime (`C = t+1`, `C = 2t`, `C = 2t²`) we measure the
//! three columns of the paper's table:
//!
//! * **greedy-removal** — moves of the standalone game against the
//!   minimum-concession adversarial referee (theory: `O(|E|)` moves for
//!   `C = t+1`, `O(|E|/t)` with wider proposals);
//! * **communication-feedback** — physical rounds of one invocation
//!   (theory: `O(t² log n)`, `O(t log n)`, `O(log² n)`);
//! * **f-AME** — physical rounds of a full run against a schedule-aware
//!   jammer (theory: `O(|E| t² log n)`, `O(|E| log n)`, `O(|E| log² n/t)`).
//!
//! Runs through [`Experiment`]: every `(regime, t, |E|)` point is a
//! multi-trial [`ScenarioSpec`] (the E1 game draws a fresh random instance
//! per trial; E2/E3 vary the protocol/adversary coins), trials execute in
//! parallel under the work-stealing scheduler, and all aggregates land in
//! `BENCH_fig3_table.json`. Absolute constants are implementation-specific;
//! the *shape* columns (measured p50 / theory) should be flat across each
//! sweep.

use fame::feedback::{default_witness_sets, run_feedback, run_feedback_streaming};
use fame::params::FeedbackMode;
use radio_network::adversaries::RandomJammer;
use radio_network::seed;
use removal_game::game::GameState;
use removal_game::greedy::play;
use removal_game::referee::AdversarialReferee;
use secure_radio_bench::workloads::random_pairs;
use secure_radio_bench::{
    ratio, smoke, smoke_trials, Accepts, AdversaryChoice, Experiment, Regime, ScenarioSpec, Table,
    TrialError, TrialOutcome, Workload,
};

/// Moves of the standalone game under the adversarial referee.
fn greedy_moves(n: usize, pairs: &[(usize, usize)], t: usize, cap: usize) -> usize {
    let mut game = GameState::new(n, pairs.iter().copied(), t)
        .expect("valid game")
        .with_proposal_cap(cap)
        .expect("valid cap");
    play(&mut game, &mut AdversarialReferee::new()).expect("legal referee")
}

fn main() {
    // E2 (feedback) and E3 (f-AME) trials drive the radio network and
    // honor --trace-out; E1 is the standalone game — no rounds, no trace.
    let mut exp = Experiment::new("fig3_table", Accepts::TRACES);
    let seed = 20080818; // PODC'08 started August 18.
    let trials = smoke_trials(6);
    let regimes: &[Regime] = if smoke() {
        &[Regime::Minimal]
    } else {
        &Regime::ALL
    };
    let ts: &[usize] = if smoke() { &[2] } else { &[2, 3] };
    let e1_edges: &[usize] = if smoke() { &[40] } else { &[40, 80, 160] };
    let e3_edges: &[usize] = if smoke() { &[20] } else { &[20, 40, 80] };
    println!("# Figure 3 — f-AME complexity across channel regimes ({trials} trials/point)\n");

    // ---- Column 1: greedy-removal (E1) -------------------------------------
    let mut t1 = Table::new(
        "greedy-removal: game moves (adversarial referee)",
        &[
            "regime",
            "t",
            "|E|",
            "moves p50",
            "moves max",
            "theory",
            "p50/theory",
        ],
    );
    for &regime in regimes {
        for &t in ts {
            let p = regime.params(t, 0);
            for &e in e1_edges {
                let edges = e.min(p.n() * (p.n() - 1) / 2);
                let spec = ScenarioSpec::new(
                    format!("E1 {} t={t} E={edges}", regime.label()),
                    p.n(),
                    t,
                    p.c(),
                )
                .with_workload(Workload::RandomPairs { edges })
                .with_adversary(AdversaryChoice::None)
                .with_trials(trials)
                .with_seed(seed ^ (edges as u64) << 8);
                let Some(result) = exp.run(&spec, |ctx| {
                    // Fresh random instance per trial: the aggregate
                    // sweeps the instance distribution, not one draw.
                    let pairs = random_pairs(p.n(), edges, ctx.seed);
                    let moves = greedy_moves(p.n(), &pairs, t, p.proposal_cap());
                    Ok(TrialOutcome {
                        moves: moves as u64,
                        ok: true,
                        ..TrialOutcome::default()
                    })
                }) else {
                    continue;
                };
                // Theory: each move concedes >= max(1, cap - t) items.
                let per_move = (p.proposal_cap() - t).max(1);
                let theory = (edges + p.n()) as f64 / per_move as f64;
                t1.row([
                    regime.label().to_string(),
                    t.to_string(),
                    edges.to_string(),
                    result.aggregate.moves.median.to_string(),
                    result.aggregate.moves.max.to_string(),
                    format!("(|E|+n)/{per_move}"),
                    ratio(result.aggregate.moves.median, theory),
                ]);
            }
        }
    }
    println!("{t1}");

    // ---- Column 2: communication-feedback (E2) ------------------------------
    let mut t2 = Table::new(
        "communication-feedback: rounds per invocation (k = proposal cap blocks)",
        &[
            "regime",
            "t",
            "n",
            "k",
            "rounds",
            "theory",
            "rounds/theory",
            "agreement",
        ],
    );
    for &regime in regimes {
        for &t in ts {
            let p = regime.params(t, 0);
            let k = p.proposal_cap();
            let rounds = p.feedback_rounds(k);
            let ln_n = (p.n() as f64).ln();
            let theory = match (regime, p.feedback_mode()) {
                (Regime::Minimal, _) => (t * t) as f64 * ln_n,
                (Regime::Wide, _) => t as f64 * ln_n,
                (Regime::UltraWide, FeedbackMode::Tree) => ln_n * ln_n,
                (Regime::UltraWide, FeedbackMode::Sequential) => t as f64 * ln_n,
            };
            let flags: Vec<bool> = (0..k).map(|i| i % 2 == 0).collect();
            let runnable = k * p.c() <= p.n() && p.feedback_mode() == FeedbackMode::Sequential;
            // Agreement is verified by running one invocation per trial
            // (flags alternate true/false) under per-trial jamming coins —
            // only where the sequential layout applies. Non-runnable
            // regimes get a table row (the round count is a schedule
            // constant) but no trials and no BENCH row: a report row must
            // describe runs that actually happened.
            let agreement = if runnable {
                let spec =
                    ScenarioSpec::new(format!("E2 {} t={t}", regime.label()), p.n(), t, p.c())
                        .with_workload(Workload::None)
                        .with_adversary(AdversaryChoice::RandomJam)
                        .with_trials(trials)
                        .with_seed(seed ^ 0xE2)
                        .with_trace_output(exp.trace());
                let result = exp.run(&spec, |ctx| {
                    let sink = ctx.spec.trial_sink(ctx.trial).map_err(|e| TrialError {
                        trial: ctx.trial,
                        message: format!("trace sink: {e}"),
                    })?;
                    let witness_sets = default_witness_sets(&p, flags.len());
                    let jammer = RandomJammer::new(seed::derive(ctx.seed, 1));
                    let ds = match sink {
                        Some(sink) => {
                            run_feedback_streaming(&p, witness_sets, &flags, jammer, ctx.seed, sink)
                        }
                        None => run_feedback(&p, witness_sets, &flags, jammer, ctx.seed),
                    }
                    .map_err(|e| TrialError {
                        trial: ctx.trial,
                        message: e.to_string(),
                    })?;
                    let expected: std::collections::BTreeSet<usize> = flags
                        .iter()
                        .enumerate()
                        .filter(|(_, &b)| b)
                        .map(|(i, _)| i)
                        .collect();
                    Ok(TrialOutcome {
                        rounds,
                        ok: ds.iter().all(|d| d == &expected),
                        ..TrialOutcome::default()
                    })
                });
                match result {
                    Some(result) if result.aggregate.ok_count == trials => "yes".to_string(),
                    Some(result) => format!("NO ({}/{trials})", result.aggregate.ok_count),
                    None => "(other shard)".to_string(),
                }
            } else {
                "(see fame runs)".to_string()
            };
            t2.row([
                regime.label().to_string(),
                t.to_string(),
                p.n().to_string(),
                k.to_string(),
                rounds.to_string(),
                match regime {
                    Regime::Minimal => "t^2 ln n".to_string(),
                    Regime::Wide => "t ln n".to_string(),
                    Regime::UltraWide => "ln^2 n".to_string(),
                },
                ratio(rounds, theory),
                agreement,
            ]);
        }
    }
    println!("{t2}");

    // ---- Column 3: f-AME (E3) ------------------------------------------------
    let mut t3 = Table::new(
        "f-AME: total rounds vs |E| (schedule-aware PreferEdges jammer)",
        &[
            "regime",
            "t",
            "n",
            "|E|",
            "rounds p50",
            "moves p50",
            "theory",
            "p50/theory",
        ],
    );
    for &regime in regimes {
        let t = 2;
        let p = regime.params(t, 0);
        for &e in e3_edges {
            let spec = ScenarioSpec::new(
                format!("E3 {} t={t} E={e}", regime.label()),
                p.n(),
                t,
                p.c(),
            )
            .with_workload(Workload::RandomPairs { edges: e })
            .with_adversary(AdversaryChoice::OmniPreferEdges)
            .with_trials(trials)
            .with_seed(seed + e as u64)
            .with_trace_output(exp.trace());
            let Some(result) = exp.run_fame(&spec) else {
                continue;
            };
            assert_eq!(
                result.aggregate.cover_within_t, result.aggregate.cover_measured,
                "disruptability violated in the harness ({})",
                spec.name,
            );
            let ln_n = (p.n() as f64).ln();
            let theory = match regime {
                Regime::Minimal => e as f64 * (t * t) as f64 * ln_n,
                Regime::Wide => e as f64 * ln_n,
                Regime::UltraWide => e as f64 * ln_n * ln_n / t as f64,
            };
            t3.row([
                regime.label().to_string(),
                t.to_string(),
                p.n().to_string(),
                e.to_string(),
                result.aggregate.rounds.median.to_string(),
                result.aggregate.moves.median.to_string(),
                match regime {
                    Regime::Minimal => "|E| t^2 ln n",
                    Regime::Wide => "|E| ln n",
                    Regime::UltraWide => "|E| ln^2 n / t",
                }
                .to_string(),
                ratio(result.aggregate.rounds.median, theory),
            ]);
        }
    }
    println!("{t3}");

    exp.finish();
    println!(
        "Interpretation: within each regime the p50/theory column is \
         ~constant across the |E| sweep, reproducing the scaling shape of \
         Figure 3; absolute constants depend on the Θ multipliers in \
         `Params` (see the whp_knee experiment)."
    );
}
