//! E11: the w.h.p. "knee" of Lemma 5's Θ-constant.
//!
//! The paper states `communication-feedback` repeats each channel's report
//! `Θ((C/(C−t))·log n)` times. This experiment sweeps the hidden constant
//! (`feedback_scale`) and measures the **agreement failure rate** — the
//! fraction of trials in which some node's `D` differs from the true flag
//! set — under random jamming. Failures collapse exponentially once the
//! constant clears the Chernoff threshold, justifying the default of 4.
//!
//! Runs through [`ExperimentRunner`]: each scale is a scenario whose 40
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
use radio_network::{ChannelModelSpec, TraceRetention};
use secure_radio_bench::{
    smoke, smoke_trials, AdversaryChoice, ChannelModelAxis, ExperimentRunner, ScenarioSpec,
    ShardMode, ShardedReport, Table, TraceOutput, TrialError, TrialOutcome, Workload,
};

fn main() {
    let axis = ChannelModelAxis::from_args();
    // `--channel-model` swaps the sweep onto its own grid and report; the
    // classic run stays byte-identical to before the axis existed.
    let report_name = if axis.models().is_some() {
        "channel_models_knee"
    } else {
        "whp_knee"
    };
    let shard = ShardMode::from_args();
    if shard.handle_merge(report_name) {
        return;
    }
    let trace = TraceOutput::from_args();
    println!("# Lemma 5 w.h.p. knee: feedback_scale sweep (E11)\n");

    let trials = smoke_trials(40);
    let (n, t) = (40, 2);
    let models: Vec<ChannelModelSpec> = match axis.models() {
        Some(choices) => choices.iter().map(|c| c.spec_for(n)).collect(),
        None => vec![ChannelModelSpec::Ideal],
    };
    let axis_active = axis.models().is_some();
    let runner = ExperimentRunner::new();
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
    let mut report = ShardedReport::new(report_name, shard);

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
                .with_trace_output(trace.clone());
            let p = Params::minimal(n, t)
                .expect("params")
                .with_feedback_scale(scale)
                .expect("positive scale")
                .with_channel_model(model.clone());
            let flags = [true, false, true];
            let expected: BTreeSet<usize> = [0usize, 2].into_iter().collect();

            let Some(result) = report
                .run(&spec, || {
                    runner.run(&spec, |ctx| {
                        // Standalone feedback runs keep the full in-memory
                        // trace; a streamed trial retains the same history so
                        // it stays bit-identical to an unstreamed one.
                        let sink = ctx
                            .spec
                            .trial_sink(ctx.trial, TraceRetention::All)
                            .map_err(|e| TrialError {
                                trial: ctx.trial,
                                message: format!("trace sink: {e}"),
                            })?;
                        let witness_sets = default_witness_sets(&p, flags.len());
                        let jammer = RandomJammer::new(seed::derive(ctx.seed, 1));
                        let ds = match sink {
                            Some(sink) => run_feedback_streaming(
                                &p,
                                witness_sets,
                                &flags,
                                jammer,
                                ctx.seed,
                                sink,
                            ),
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
                    })
                })
                .expect("feedback scenario runs")
            else {
                continue; // another shard's scenario
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
    let path = report.write_default().expect("write BENCH json");
    println!("wrote {}", path.display());
    trace.announce();
    println!(
        "Reading: below the knee, listeners miss <true, r> reports and \
         nodes disagree on D; at the default scale the failure rate is 0 \
         across all trials — the constant behind Lemma 5's w.h.p."
    );
}
