//! E14: the channel dividend — f-AME cost as `C` grows from `t+1` to
//! `2t²` at fixed `n`, `t`, `|E|`.
//!
//! Section 5.5 is a table of three operating points; this experiment fills
//! in the curve between them: each extra channel buys shorter feedback
//! (escape probability `(C−t)/C` rises) and — past `2t` — bigger game
//! moves. The regime boundaries of Figure 3 appear as visible knees.
//!
//! Runs through [`Experiment`]: every channel count is a
//! [`ScenarioSpec`] whose trials execute in parallel with deterministic
//! per-trial seeds; aggregates land in `BENCH_channel_sweep.json`.
//!
//! Pass `--trace-out <dir>` to additionally stream every trial's full
//! execution trace to `<dir>/C-<c>-<hash>.trial<k>.jsonl` (one JSON
//! object per round; schema in `docs/TRACE_FORMAT.md`). Writing happens
//! on a background thread per trial; add `--trace-lossy` to drop (and
//! count) records instead of blocking when the writer falls behind.
//!
//! Supports the shared sharding contract (`--shard k/N`, `--merge <dir>`;
//! see `secure_radio_bench::experiment`) for splitting the sweep across
//! processes or machines.

use fame::Params;
use secure_radio_bench::{
    smoke, smoke_trials, Accepts, AdversaryChoice, Aggregate, Experiment, ScenarioSpec, Table,
    Workload,
};

fn main() {
    let seed = 0xC5EE9;
    let mut exp = Experiment::new("channel_sweep", Accepts::TRACES);
    let trials = smoke_trials(8);
    let t = 2;
    // n large enough for every C in the sweep.
    let n = (t + 1..=2 * t * t)
        .map(|c| Params::min_nodes(t, c))
        .max()
        .unwrap()
        .max(64);

    println!(
        "# Channel sweep (E14): rounds vs C at fixed n={n}, t={t}, |E|=24 \
         ({trials} trials/point)\n"
    );

    let mut headers = vec!["C", "regime", "cap", "feedback mode"];
    headers.extend(Aggregate::table_headers());
    let mut table = Table::new("f-AME cost per channel count (random jammer)", &headers);

    // Smoke mode samples the regime endpoints instead of the full curve.
    let channel_counts: Vec<usize> = if smoke() {
        vec![t + 1, 2 * t * t]
    } else {
        (t + 1..=2 * t * t).collect()
    };
    for c in channel_counts {
        let spec = ScenarioSpec::new(format!("C={c}"), n, t, c)
            .with_workload(Workload::RandomPairs { edges: 24 })
            .with_adversary(AdversaryChoice::RandomJam)
            .with_trials(trials)
            .with_seed(seed)
            .with_trace_output(exp.trace());
        let p = spec.params();
        let Some(result) = exp.run_fame(&spec) else {
            continue;
        };
        let regime = if c >= 2 * t * t {
            "2t^2"
        } else if c >= 2 * t {
            "2t..2t^2"
        } else {
            "t+1..2t"
        };
        let mut cells = vec![
            c.to_string(),
            regime.to_string(),
            p.proposal_cap().to_string(),
            format!("{:?}", p.feedback_mode()),
        ];
        cells.extend(result.aggregate.table_cells());
        table.row(cells);
    }
    println!("{table}");
    exp.finish();
    println!(
        "Reading: adding channels pays twice — cheaper feedback everywhere \
         (the (C−t)/C escape probability), and from C = 2t on, double-size \
         game moves. The knees match the Figure 3 regime boundaries. Note \
         the tree-feedback point: at small t its constants exceed the \
         sequential loop (the asymptotic win needs k = C/t >> log k; see \
         `fame::tree_feedback` tests) — Figure 3's third row is an \
         asymptotic statement, faithfully reproduced as such."
    );
}
