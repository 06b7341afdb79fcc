//! E11: the w.h.p. "knee" of Lemma 5's Θ-constant.
//!
//! The paper states `communication-feedback` repeats each channel's report
//! `Θ((C/(C−t))·log n)` times. This experiment sweeps the hidden constant
//! (`feedback_scale`) and measures the **agreement failure rate** — the
//! fraction of trials in which some node's `D` differs from the true flag
//! set — under random jamming. Failures collapse exponentially once the
//! constant clears the Chernoff threshold, justifying the default of 4.
//!
//! Runs through [`Experiment`]: each scale is a scenario whose 40
//! trials execute in parallel with deterministic per-trial seeds; the `ok`
//! column counts agreeing trials and lands in `BENCH_whp_knee.json`.
//!
//! With `--channel-model <model|list|all>` the sweep reruns once per
//! channel model — the same scales, the same seeds — and lands in
//! `BENCH_channel_models_knee.json` instead, charting how far the knee
//! moves when deliveries can drop (`lossy`), resolve by power
//! (`capture`), or fall out of earshot (`geometric`). Lemma 5's Chernoff
//! argument assumes every non-jammed report is heard, so under loss the
//! default constant no longer drives failures to zero — the report shows
//! by how much.

use std::collections::BTreeSet;

use fame::feedback::{default_witness_sets, run_feedback, run_feedback_streaming};
use fame::Params;
use radio_network::adversaries::RandomJammer;
use radio_network::seed;
use radio_network::ChannelModelSpec;
use secure_radio_bench::{
    smoke, smoke_trials, Accepts, AdversaryChoice, Experiment, ScenarioSpec, Table, TrialError,
    TrialOutcome, Workload,
};

fn main() {
    // `--channel-model` swaps the sweep onto its own grid and report; the
    // classic run stays byte-identical to before the axis existed.
    let mut exp = Experiment::new(
        "whp_knee",
        Accepts::TRACES.with_model_axis("channel_models_knee"),
    );
    println!("# Lemma 5 w.h.p. knee: feedback_scale sweep (E11)\n");

    let trials = smoke_trials(40);
    let (n, t) = (40, 2);
    let models: Vec<ChannelModelSpec> = match exp.models() {
        Some(choices) => choices.iter().map(|c| c.spec_for(n)).collect(),
        None => vec![ChannelModelSpec::Ideal],
    };
    let axis_active = exp.models().is_some();
    let mut headers = vec![
        "scale",
        "reps/channel",
        "failures",
        "trials",
        "failure rate",
    ];
    if axis_active {
        headers.insert(0, "model");
    }
    let mut table = Table::new(
        format!("agreement failure rate vs feedback_scale (t={t}, n={n}, {trials} trials)"),
        &headers,
    );

    let scales: &[f64] = if smoke() {
        &[0.1, 4.0]
    } else {
        &[0.1, 0.25, 0.5, 1.0, 2.0, 4.0]
    };
    for model in &models {
        for &scale in scales {
            let name = if axis_active {
                format!("CM {} scale={scale}", model.label())
            } else {
                format!("scale={scale}")
            };
            let spec = ScenarioSpec::new(name, n, t, t + 1)
                .with_workload(Workload::None)
                .with_adversary(AdversaryChoice::RandomJam)
                .with_trials(trials)
                .with_seed(0x5CA1E)
                .with_channel_model(model.clone())
                .with_trace_output(exp.trace());
            let p = Params::minimal(n, t)
                .expect("params")
                .with_feedback_scale(scale)
                .expect("positive scale")
                .with_channel_model(model.clone());
            let flags = [true, false, true];
            let expected: BTreeSet<usize> = [0usize, 2].into_iter().collect();

            let Some(result) = exp.run(&spec, |ctx| {
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
                Ok(TrialOutcome {
                    ok: ds.iter().all(|d| d == &expected),
                    ..TrialOutcome::default()
                })
            }) else {
                continue;
            };

            let failures = trials - result.aggregate.ok_count;
            let mut cells = vec![
                format!("{scale}"),
                p.feedback_reps().to_string(),
                failures.to_string(),
                trials.to_string(),
                format!("{:.1}%", 100.0 * failures as f64 / trials as f64),
            ];
            if axis_active {
                cells.insert(0, model.label());
            }
            table.row(cells);
        }
    }
    println!("{table}");
    exp.finish();
    println!(
        "Reading: below the knee, listeners miss <true, r> reports and \
         nodes disagree on D; at the default scale the failure rate is 0 \
         across all trials — the constant behind Lemma 5's w.h.p."
    );
}
