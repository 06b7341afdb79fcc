//! E8: **Section 7** — the long-lived secure channel.
//!
//! Paper claims: after setup, one emulated round costs `Θ(t·log n)` real
//! rounds (`O(log n)` once `C ≥ 2t`), with w.h.p. delivery, secrecy, and
//! authentication.
//!
//! Runs through [`Experiment`]: every `(regime, t, adversary)` point
//! is a multi-trial [`Workload::Broadcasts`] scenario — each trial replays
//! the scripted broadcasts under fresh protocol/jammer coins — trials
//! execute in parallel under the work-stealing scheduler, and aggregates
//! land in `BENCH_longlived_latency.json`.
//!
//! Pass `--trace-out <dir>` to additionally stream every trial's full
//! execution trace to a line-delimited JSON file (schema in
//! `docs/TRACE_FORMAT.md`); `--trace-lossy` drops (and counts) records
//! instead of blocking when the writer thread falls behind.

use std::sync::atomic::{AtomicU64, Ordering};

use fame::longlived::{run_longlived, run_longlived_streaming, ScriptEntry};
use radio_crypto::cipher::SealedBox;
use radio_crypto::key::SymmetricKey;
use radio_network::adversaries::{BusyChannelJammer, NoAdversary, RandomJammer};
use radio_network::{seed, Adversary};
use secure_radio_bench::{
    ratio, smoke, smoke_trials, Accepts, AdversaryChoice, Experiment, Regime, ScenarioSpec, Table,
    TrialError, TrialOutcome, Workload,
};

fn script(broadcasts: u64, n: usize) -> Vec<ScriptEntry> {
    (0..broadcasts)
        .map(|e| ScriptEntry {
            eround: e,
            sender: (3 + 5 * e as usize) % n,
            message: format!("broadcast #{e}").into_bytes(),
        })
        .collect()
}

/// The long-lived service speaks [`SealedBox`] frames, so the roster's
/// `FameFrame` builder does not apply; the jamming subset is rebuilt here.
fn sealed_adversary(choice: &AdversaryChoice, seed: u64) -> Box<dyn Adversary<SealedBox>> {
    match choice {
        AdversaryChoice::None => Box::new(NoAdversary),
        AdversaryChoice::RandomJam => Box::new(RandomJammer::new(seed)),
        AdversaryChoice::BusyChannel { window } => Box::new(BusyChannelJammer::new(seed, *window)),
        other => unreachable!(
            "longlived sweep uses jamming adversaries only, got {}",
            other.label()
        ),
    }
}

fn main() {
    let base_seed = 0x1096u64;
    let mut exp = Experiment::new("longlived_latency", Accepts::TRACES);
    let trials = smoke_trials(4);
    let broadcasts: u64 = if smoke() { 5 } else { 20 };
    let regimes: &[Regime] = if smoke() {
        &[Regime::Minimal]
    } else {
        &[Regime::Minimal, Regime::Wide]
    };
    let ts: &[usize] = if smoke() { &[2] } else { &[1, 2, 3] };
    println!(
        "# Long-lived communication service (Section 7) — {broadcasts} broadcasts, \
         {trials} trials/point\n"
    );

    let mut table = Table::new(
        "emulated-round cost and delivery rate",
        &[
            "regime",
            "t",
            "n",
            "rounds/emulated",
            "theory",
            "cost/theory",
            "adversary",
            "delivery",
        ],
    );

    for &regime in regimes {
        for &t in ts {
            let p = regime.params(t, 40);
            let n = p.n();
            let ln_n = (n as f64).ln();
            let theory = match regime {
                Regime::Minimal => (t + 1) as f64 * ln_n,
                _ => ln_n,
            };
            for adversary in [
                AdversaryChoice::None,
                AdversaryChoice::RandomJam,
                AdversaryChoice::BusyChannel { window: 8 },
            ] {
                let spec = ScenarioSpec::new(
                    format!("E8 {} t={t} {}", regime.label(), adversary.label()),
                    n,
                    t,
                    p.c(),
                )
                .with_workload(Workload::Broadcasts { count: broadcasts })
                .with_adversary(adversary)
                .with_trials(trials)
                .with_seed(base_seed ^ (t as u64) << 8)
                .with_trace_output(exp.trace());
                let entries = script(broadcasts, n);
                let key = SymmetricKey::from_bytes([7u8; 32]);
                let keys: Vec<Option<SymmetricKey>> = (0..n).map(|_| Some(key)).collect();
                let (hits, slots) = (AtomicU64::new(0), AtomicU64::new(0));
                let result = exp.run(&spec, |ctx| {
                    let adv = sealed_adversary(&spec.adversary, seed::derive(ctx.seed, 1));
                    let sink = ctx.spec.trial_sink(ctx.trial).map_err(|e| TrialError {
                        trial: ctx.trial,
                        message: format!("trace sink: {e}"),
                    })?;
                    let r = match sink {
                        Some(sink) => {
                            run_longlived_streaming(&p, &keys, &entries, adv, ctx.seed, sink)
                        }
                        None => run_longlived(&p, &keys, &entries, adv, ctx.seed, false),
                    }
                    .map_err(|e| TrialError {
                        trial: ctx.trial,
                        message: e.to_string(),
                    })?;
                    let mut missed = 0u64;
                    let mut total = 0u64;
                    for entry in &entries {
                        for (node, received) in r.received.iter().enumerate() {
                            if node == entry.sender {
                                continue;
                            }
                            total += 1;
                            let got = received.get(&entry.eround);
                            if got.is_none_or(|(s, m)| *s != entry.sender || *m != entry.message) {
                                missed += 1;
                            }
                        }
                    }
                    hits.fetch_add(total - missed, Ordering::Relaxed);
                    slots.fetch_add(total, Ordering::Relaxed);
                    Ok(TrialOutcome {
                        rounds: r.rounds,
                        violations: missed,
                        ok: missed == 0,
                        dropped_records: r.stats.dropped_records,
                        ..TrialOutcome::default()
                    })
                });
                if result.is_none() {
                    continue;
                }
                let rate = hits.into_inner() as f64 / slots.into_inner().max(1) as f64;
                table.row([
                    regime.label().to_string(),
                    t.to_string(),
                    n.to_string(),
                    p.epoch_rounds().to_string(),
                    match regime {
                        Regime::Minimal => "t ln n".to_string(),
                        _ => "ln n".to_string(),
                    },
                    ratio(p.epoch_rounds(), theory),
                    spec.adversary.label().to_string(),
                    format!("{:.2}%", rate * 100.0),
                ]);
            }
        }
    }
    println!("{table}");
    exp.finish();
    println!(
        "Shape checks: emulated-round cost tracks t·ln n (minimal) and \
         ln n (C >= 2t); delivery stays at 100% w.h.p. because the hopping \
         sequence is keyed — even the history-aware busy-channel jammer \
         cannot predict the next channel."
    );
}
