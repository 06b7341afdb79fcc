//! # secure-radio-bench
//!
//! The experiment harness that regenerates every table and figure of
//! Dolev, Gilbert, Guerraoui & Newport (PODC 2008). Each binary under
//! `src/bin/` prints one experiment's table and records its results in a
//! `BENCH_<name>.json` report (schema in `docs/BENCH_FORMAT.md`):
//!
//! | binary | experiment | paper source |
//! |---|---|---|
//! | `fig3_table` | E1–E3 | Figure 3 (the complexity table) |
//! | `thm2_impossibility` | E5 | Theorem 2 |
//! | `disruptability` | E4, E6 | Theorem 6 + §5 intro |
//! | `group_key_scaling` | E7 | Section 6 |
//! | `longlived_latency` | E8 | Section 7 |
//! | `gossip_vs_fame` | E9 | Section 2 / \[13\] |
//! | `compact_audit` | E10 | Section 5.6 |
//! | `whp_knee` | E11 | Lemma 5 constants |
//! | `extensions` | E12, E13, E15 | Section 8 open questions (1), (3), (4) |
//! | `channel_sweep` | E14 | Section 5.5, between the table rows |
//!
//! Every binary runs its sweep through one [`Experiment`]: it parses the
//! shared CLI contract once (`--shard k/N`, `--merge <dir>`,
//! `--trace-out <dir>`, `--trace-lossy`, `--channel-model <list>`; any
//! other argument is a startup error), fans each scenario's trials across
//! the work-stealing [`ExperimentRunner`], and writes the aggregates to
//! `BENCH_<name>.json` (schema: `docs/BENCH_FORMAT.md`). Set
//! `BENCH_SMOKE=1` (see [`smoke`]) to shrink every sweep to a CI-sized
//! grid.
//!
//! Module map: [`experiment`] is the bins' driver ([`Experiment`] and its
//! CLI parse); [`scenario`] describes *what* to run
//! ([`ScenarioSpec`], [`Workload`], [`AdversaryChoice`], and
//! [`TraceOutput`] — per-trial trace streaming to line-delimited JSON
//! files, schema in `docs/TRACE_FORMAT.md`); [`runner`] is *how* trials
//! execute and fold ([`ExperimentRunner`], [`Aggregate`],
//! [`BenchReport`]); [`shard`] splits a bin's scenario grid across
//! processes/machines and merges the shard files back byte-identically;
//! [`channel_axis`] fixes the `--channel-model` axis's four models;
//! [`json`] is the hand-rolled no-serde JSON reader behind the merge;
//! [`workloads`] generates pair lists; [`table`] renders aligned text
//! tables.
//!
//! The measured quantity is **rounds of the synchronous model** — the unit
//! all the paper's theorems are stated in. The Criterion benches under
//! `benches/` additionally track wall-clock time of the simulator itself.

pub mod channel_axis;
pub mod experiment;
pub mod json;
pub mod runner;
pub mod scenario;
pub mod shard;
pub mod table;
pub mod workloads;

pub use channel_axis::ChannelModelChoice;
pub use experiment::{Accepts, Experiment};
pub use runner::{
    fame_run_for_trial, fame_trial_outcome, Aggregate, BenchReport, ExperimentRunner, TrialCtx,
    TrialError, TrialOutcome,
};
pub use scenario::{channel_model_from_json, AdversaryChoice, ScenarioSpec, TraceOutput, Workload};
pub use shard::{merge_shards, Shard, ShardedReport};
pub use table::Table;

use fame::Params;

/// The three channel regimes of Figure 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Regime {
    /// `C = t + 1` — the minimal configuration.
    Minimal,
    /// `C = 2t` — Section 5.5, Case 1.
    Wide,
    /// `C = 2t²` — Section 5.5, Case 2 (tree feedback).
    UltraWide,
}

impl Regime {
    /// All regimes in table order.
    pub const ALL: [Regime; 3] = [Regime::Minimal, Regime::Wide, Regime::UltraWide];

    /// The channel count for threshold `t`.
    ///
    /// `Wide`/`UltraWide` degenerate at `t = 1`; callers should skip those
    /// rows (`channels` still returns a valid count).
    pub fn channels(&self, t: usize) -> usize {
        match self {
            Regime::Minimal => t + 1,
            Regime::Wide => (2 * t).max(t + 1),
            Regime::UltraWide => (2 * t * t).max(t + 1),
        }
    }

    /// Human-readable label matching Figure 3's rows.
    pub fn label(&self) -> &'static str {
        match self {
            Regime::Minimal => "C = t+1",
            Regime::Wide => "C = 2t",
            Regime::UltraWide => "C = 2t^2",
        }
    }

    /// Validated parameters with the smallest admissible `n` unless a
    /// larger `n` is given.
    ///
    /// # Panics
    ///
    /// Panics on invalid combinations (harness configuration errors).
    pub fn params(&self, t: usize, n: usize) -> Params {
        let c = self.channels(t);
        let n = n.max(Params::min_nodes(t, c));
        Params::new(n, t, c).expect("harness params valid")
    }
}

/// `true` when the `BENCH_SMOKE` environment variable is set: every
/// experiment binary shrinks its sweep to a tiny scenario grid with few
/// trials, so CI can execute all ten bins end-to-end in seconds (see the
/// `experiments-smoke` job in `.github/workflows/ci.yml`).
pub fn smoke() -> bool {
    // detlint: allow(ambient-entropy) BENCH_SMOKE is CI's explicit sweep-shrink switch; it selects a grid, never a seed
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// `full` trials per scenario normally, 2 under [`smoke`] mode.
pub fn smoke_trials(full: usize) -> usize {
    if smoke() {
        full.min(2)
    } else {
        full
    }
}

/// Format a `f64` ratio to two decimals (for the "measured/theory" table
/// columns).
pub fn ratio(measured: u64, theory: f64) -> String {
    if theory == 0.0 {
        "-".to_string()
    } else {
        format!("{:.2}", measured as f64 / theory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regime_channels() {
        assert_eq!(Regime::Minimal.channels(3), 4);
        assert_eq!(Regime::Wide.channels(3), 6);
        assert_eq!(Regime::UltraWide.channels(3), 18);
        // t = 1 degeneracy: floors at t+1.
        assert_eq!(Regime::Wide.channels(1), 2);
    }

    #[test]
    fn regime_params_validate() {
        for regime in Regime::ALL {
            let p = regime.params(2, 0);
            assert_eq!(p.t(), 2);
            assert_eq!(p.c(), regime.channels(2));
            assert!(p.n() >= Params::min_nodes(2, regime.channels(2)));
        }
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(100, 50.0), "2.00");
        assert_eq!(ratio(1, 0.0), "-");
    }
}
