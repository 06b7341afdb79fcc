//! The experiment runner: fans a scenario's independent trials across
//! threads with deterministic per-trial seeding, then folds the outcomes
//! into an [`Aggregate`] with text-table and JSON emitters.
//!
//! ## Scheduling
//!
//! Workers *steal* trials from a shared atomic claim index rather than
//! being dealt contiguous chunks up front. Trial costs are wildly
//! heterogeneous (an omniscient-jammer trial or a group-key setup can cost
//! orders of magnitude more than a feedback invocation), so static
//! chunking routinely parked every other thread behind one slow chunk;
//! with stealing, a worker that finishes a cheap trial immediately claims
//! the next unclaimed index, keeping all cores busy until the scenario
//! drains. `benches/scheduler.rs` measures stealing against the
//! sequential runner on a deliberately skewed workload and records it in
//! `BENCH_scheduler.json`.
//!
//! ## Determinism contract
//!
//! A trial function must be a pure function of `(spec, trial index, seed)`.
//! The runner derives the seed for trial `i` as
//! [`ScenarioSpec::trial_seed`]`(i)` — never from thread identity or claim
//! order — and each worker tags every outcome with its trial index. After
//! the join, outcomes are sorted back into trial order before folding, so
//! *which* worker ran a trial (and when it was stolen) is invisible in the
//! result: a run is bit-identical across any thread count, including the
//! sequential one. When trials fail, the error reported is the
//! lowest-*indexed* failure, not the first one observed on the wall clock.
//! `tests/determinism.rs` property-tests both guarantees across 1/2/7/16
//! threads under a skewed-cost trial function.
//!
//! ## Trace retention
//!
//! Multi-trial sweeps should not retain full execution traces (a long
//! group-key setup can retain gigabytes). The fame-layer helpers inherit
//! `run_fame`'s bounded `TraceRetention::LastRounds(64)`; a streamed
//! trial ([`ScenarioSpec::trial_sink`]) writes every round to its file
//! without changing what the run retains.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use fame::problem::AmeInstance;
use fame::protocol::{run_fame, run_fame_streaming};
use fame::Params;
use radio_network::json_escape;

use crate::scenario::ScenarioSpec;
use crate::Table;

/// Everything a trial function gets to see.
#[derive(Clone, Copy, Debug)]
pub struct TrialCtx<'a> {
    /// The scenario being run.
    pub spec: &'a ScenarioSpec,
    /// Trial index within the scenario (`0..spec.trials`).
    pub trial: usize,
    /// This trial's seed (= `spec.trial_seed(trial)`).
    pub seed: u64,
}

/// The measured quantities of one trial.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TrialOutcome {
    /// Physical rounds of the synchronous model.
    pub rounds: u64,
    /// Removal-game moves (0 where the experiment has no game).
    pub moves: u64,
    /// Minimum vertex cover of the disruption graph, if measured.
    pub cover: Option<usize>,
    /// Authentication/forgery violations observed.
    pub violations: u64,
    /// Experiment-specific success flag (agreement reached, properties
    /// held, exchange completed, …).
    pub ok: bool,
    /// Round records a lossy trace sink discarded during this trial
    /// (see [`radio_network::Stats::dropped_records`]); 0 for in-memory
    /// and lossless-streamed trials.
    pub dropped_records: u64,
}

impl TrialOutcome {
    /// This outcome as a single-line JSON object. Shard files carry every
    /// trial outcome verbatim (`docs/BENCH_FORMAT.md`, *Shard files*), so
    /// the merger can re-fold [`Aggregate`]s through the exact same
    /// [`Aggregate::from_outcomes`] an unsharded run uses — that is what
    /// makes the merged report byte-identical.
    pub fn json(&self) -> String {
        let cover = match self.cover {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"rounds\":{},\"moves\":{},\"cover\":{cover},\"violations\":{},\
             \"ok\":{},\"dropped_records\":{}}}",
            self.rounds, self.moves, self.violations, self.ok, self.dropped_records,
        )
    }

    /// Parse an outcome from the object [`TrialOutcome::json`] emits.
    ///
    /// # Errors
    ///
    /// A message naming the missing/mistyped field.
    pub fn from_json(v: &crate::json::Json) -> Result<TrialOutcome, String> {
        use crate::json::{field, u64_field};
        const CTX: &str = "trial outcome";
        let cover_field = field(v, "cover", CTX)?;
        let cover = if cover_field.is_null() {
            None
        } else {
            Some(
                cover_field
                    .as_usize()
                    .ok_or_else(|| format!("{CTX}: field \"cover\" is not an integer or null"))?,
            )
        };
        Ok(TrialOutcome {
            rounds: u64_field(v, "rounds", CTX)?,
            moves: u64_field(v, "moves", CTX)?,
            cover,
            violations: u64_field(v, "violations", CTX)?,
            ok: field(v, "ok", CTX)?
                .as_bool()
                .ok_or_else(|| format!("{CTX}: field \"ok\" is not a boolean"))?,
            dropped_records: u64_field(v, "dropped_records", CTX)?,
        })
    }
}

/// A trial that could not produce an outcome (engine error, round-budget
/// overrun, …).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TrialError {
    /// Trial index that failed.
    pub trial: usize,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for TrialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial {} failed: {}", self.trial, self.message)
    }
}

impl std::error::Error for TrialError {}

/// Distribution summary of a per-trial quantity.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Dist {
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (lower-of-middle-two for even counts — exact, not
    /// interpolated, to keep parallel/sequential aggregates bit-identical).
    pub median: u64,
    /// 95th percentile by nearest rank.
    pub p95: u64,
}

impl Dist {
    /// Summarize `samples` (empty input yields all zeros).
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Dist::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let nearest_rank = |q_num: usize, q_den: usize| {
            let rank = (sorted.len() * q_num).div_ceil(q_den).max(1);
            sorted[rank - 1]
        };
        Dist {
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            // u128 accumulator: a u64 sum wraps silently once round counts
            // times trial counts get large enough.
            mean: sorted.iter().map(|&s| u128::from(s)).sum::<u128>() as f64 / sorted.len() as f64,
            median: sorted[(sorted.len() - 1) / 2],
            p95: nearest_rank(95, 100),
        }
    }
}

/// Per-scenario aggregate over all trials.
#[derive(Clone, PartialEq, Debug)]
pub struct Aggregate {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Distribution of round counts.
    pub rounds: Dist,
    /// Distribution of game-move counts.
    pub moves: Dist,
    /// Trials that measured a disruption cover.
    pub cover_measured: usize,
    /// Of those, trials whose cover stayed within the scenario's `t`.
    pub cover_within_t: usize,
    /// Largest cover observed (0 if never measured).
    pub cover_max: usize,
    /// Total violations across trials.
    pub violations: u64,
    /// Trials whose success flag was set.
    pub ok_count: usize,
    /// Total trace records dropped by lossy sinks across trials — nonzero
    /// only for streamed traces under
    /// [`OverflowPolicy::DropNewest`](radio_network::OverflowPolicy::DropNewest),
    /// so lossy trace files are visible in `BENCH_*.json`.
    pub dropped_records: u64,
}

impl Aggregate {
    /// Fold trial outcomes (in trial order) into an aggregate.
    pub fn from_outcomes(t: usize, outcomes: &[TrialOutcome]) -> Self {
        let rounds: Vec<u64> = outcomes.iter().map(|o| o.rounds).collect();
        let moves: Vec<u64> = outcomes.iter().map(|o| o.moves).collect();
        let covers: Vec<usize> = outcomes.iter().filter_map(|o| o.cover).collect();
        Aggregate {
            trials: outcomes.len(),
            rounds: Dist::from_samples(&rounds),
            moves: Dist::from_samples(&moves),
            cover_measured: covers.len(),
            cover_within_t: covers.iter().filter(|&&c| c <= t).count(),
            cover_max: covers.iter().copied().max().unwrap_or(0),
            violations: outcomes.iter().map(|o| o.violations).sum(),
            ok_count: outcomes.iter().filter(|o| o.ok).count(),
            dropped_records: outcomes.iter().map(|o| o.dropped_records).sum(),
        }
    }

    /// Table headers matching [`Aggregate::table_cells`].
    pub fn table_headers() -> [&'static str; 9] {
        [
            "trials",
            "rounds p50",
            "rounds mean",
            "rounds p95",
            "rounds max",
            "moves p50",
            "cover<=t",
            "violations",
            "ok",
        ]
    }

    /// This aggregate as table cells (pair with [`Aggregate::table_headers`]).
    pub fn table_cells(&self) -> [String; 9] {
        [
            self.trials.to_string(),
            self.rounds.median.to_string(),
            format!("{:.1}", self.rounds.mean),
            self.rounds.p95.to_string(),
            self.rounds.max.to_string(),
            self.moves.median.to_string(),
            format!("{}/{}", self.cover_within_t, self.cover_measured),
            self.violations.to_string(),
            format!("{}/{}", self.ok_count, self.trials),
        ]
    }
}

/// Result of running one scenario: ordered per-trial outcomes plus their
/// aggregate.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioResult {
    /// Outcomes indexed by trial.
    pub outcomes: Vec<TrialOutcome>,
    /// The fold of `outcomes`.
    pub aggregate: Aggregate,
}

/// Executes scenarios, fanning trials across OS threads.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentRunner {
    threads: usize,
}

impl Default for ExperimentRunner {
    fn default() -> Self {
        ExperimentRunner::new()
    }
}

impl ExperimentRunner {
    /// A runner using every available core.
    pub fn new() -> Self {
        let threads = thread::available_parallelism().map_or(4, |n| n.get());
        ExperimentRunner { threads }
    }

    /// A single-threaded runner (the reference execution order).
    pub fn sequential() -> Self {
        ExperimentRunner { threads: 1 }
    }

    /// A runner with an explicit thread count (floored at 1).
    pub fn with_threads(threads: usize) -> Self {
        ExperimentRunner {
            threads: threads.max(1),
        }
    }

    /// Run every trial of `spec` through `trial`, work-stealing across the
    /// runner's threads, collecting outcomes by trial index.
    ///
    /// Workers claim trial indices from a shared atomic counter, so a slow
    /// trial never strands the rest of its (former) chunk behind it; every
    /// idle worker immediately picks up the next unclaimed trial.
    ///
    /// `trial` must be deterministic in its [`TrialCtx`] (see the module
    /// docs); under that contract the result is independent of the thread
    /// count and of the claim order.
    ///
    /// # Errors
    ///
    /// The lowest-indexed failing trial's [`TrialError`], if any trial
    /// fails — regardless of which worker observed a failure first.
    ///
    /// # Panics
    ///
    /// Panics if `trial` panics (the panic is propagated).
    pub fn run<F>(&self, spec: &ScenarioSpec, trial: F) -> Result<ScenarioResult, TrialError>
    where
        F: Fn(&TrialCtx<'_>) -> Result<TrialOutcome, TrialError> + Sync,
    {
        let trials = spec.trials;
        let workers = self.threads.min(trials).max(1);
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, Result<TrialOutcome, TrialError>)>> =
            Mutex::new(Vec::with_capacity(trials));
        thread::scope(|scope| {
            for _ in 0..workers {
                let (next, collected, trial) = (&next, &collected, &trial);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= trials {
                            break;
                        }
                        let ctx = TrialCtx {
                            spec,
                            trial: index,
                            seed: spec.trial_seed(index),
                        };
                        local.push((index, trial(&ctx)));
                    }
                    // One merge per worker, after its last trial: the lock
                    // is never contended while trials run.
                    collected
                        .lock()
                        .expect("no poisoned worker")
                        .append(&mut local);
                });
            }
        });
        let mut collected = collected.into_inner().expect("no poisoned worker");
        collected.sort_unstable_by_key(|&(index, _)| index);
        let mut outcomes = Vec::with_capacity(trials);
        for (slot, (index, result)) in collected.into_iter().enumerate() {
            assert_eq!(slot, index, "every trial claimed exactly once");
            match result {
                Ok(outcome) => outcomes.push(outcome),
                // Sorted by index, so the first error is the lowest-indexed.
                Err(err) => return Err(err),
            }
        }
        let aggregate = Aggregate::from_outcomes(spec.t, &outcomes);
        Ok(ScenarioResult {
            outcomes,
            aggregate,
        })
    }

    /// [`ExperimentRunner::run`] with the standard f-AME trial
    /// ([`fame_trial_outcome`]).
    ///
    /// # Errors
    ///
    /// Same as [`ExperimentRunner::run`].
    pub fn run_fame_scenario(&self, spec: &ScenarioSpec) -> Result<ScenarioResult, TrialError> {
        // Workload/instance are trial-invariant: build once, share.
        let params = spec.params();
        let instance = spec.instance();
        self.run(spec, |ctx| fame_trial_outcome(&params, &instance, ctx))
    }
}

/// Run f-AME for one trial with the scenario's adversary, honoring the
/// spec's [`TraceOutput`](crate::TraceOutput): when the scenario streams,
/// the trial goes through `run_fame_streaming` with a per-trial
/// [`ChannelSink`](radio_network::ChannelSink), and runs bit-identically
/// either way.
///
/// This is the single streaming-aware f-AME entry the standard
/// [`fame_trial_outcome`] *and* the bins' bespoke trial closures share —
/// a bin that measures something custom still honors `--trace-out` by
/// running its instance through here.
///
/// # Errors
///
/// [`TrialError`] on sink creation or engine/validation failure.
pub fn fame_run_for_trial(
    params: &Params,
    instance: &AmeInstance,
    ctx: &TrialCtx<'_>,
) -> Result<fame::protocol::FameRun, TrialError> {
    let adversary = ctx.spec.adversary.build(params, instance.pairs(), ctx.seed);
    let sink = ctx.spec.trial_sink(ctx.trial).map_err(|e| TrialError {
        trial: ctx.trial,
        message: format!("trace sink: {e}"),
    })?;
    match sink {
        Some(sink) => run_fame_streaming(instance, params, adversary, ctx.seed, sink),
        None => run_fame(instance, params, adversary, ctx.seed),
    }
    .map_err(|e| TrialError {
        trial: ctx.trial,
        message: e.to_string(),
    })
}

/// The single source of truth for f-AME trial accounting: run the trial
/// through [`fame_run_for_trial`] and fold the run into a
/// [`TrialOutcome`] (rounds, moves, disruption cover, property
/// violations, `ok = cover <= t && violations == 0`). Public so bins
/// composing their own sweeps (e.g. the `--channel-model` axis, which
/// must tolerate round-budget overruns) reuse the exact accounting
/// [`ExperimentRunner::run_fame_scenario`] applies.
///
/// # Errors
///
/// [`TrialError`] on sink creation or engine/validation failure.
pub fn fame_trial_outcome(
    params: &Params,
    instance: &AmeInstance,
    ctx: &TrialCtx<'_>,
) -> Result<TrialOutcome, TrialError> {
    let run = fame_run_for_trial(params, instance, ctx)?;
    let cover = run.outcome.disruption_cover();
    let violations = run.outcome.authentication_violations(instance).len() as u64
        + run.outcome.awareness_violations().len() as u64;
    Ok(TrialOutcome {
        rounds: run.outcome.rounds,
        moves: run.moves as u64,
        cover: Some(cover),
        violations,
        ok: cover <= ctx.spec.t && violations == 0,
        dropped_records: run.stats.dropped_records,
    })
}

/// A named collection of `(scenario, aggregate)` rows with a table and a
/// `BENCH_<name>.json` emitter.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    name: String,
    rows: Vec<(ScenarioSpec, Aggregate)>,
}

impl BenchReport {
    /// An empty report named `name` (written to `BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            rows: Vec::new(),
        }
    }

    /// Append one scenario's aggregate.
    pub fn push(&mut self, spec: ScenarioSpec, aggregate: Aggregate) -> &mut Self {
        self.rows.push((spec, aggregate));
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table (scenario columns + aggregate
    /// columns).
    pub fn table(&self, title: &str) -> Table {
        let mut headers = vec!["scenario", "n", "t", "C", "workload", "adversary"];
        headers.extend(Aggregate::table_headers());
        let mut table = Table::new(title, &headers);
        for (spec, agg) in &self.rows {
            let mut cells = vec![
                spec.name.clone(),
                spec.n.to_string(),
                spec.t.to_string(),
                spec.channels.to_string(),
                spec.workload.label(),
                spec.adversary.label().to_string(),
            ];
            cells.extend(agg.table_cells());
            table.row(cells);
        }
        table
    }

    /// The report as a JSON document (hand-rolled — the offline build has
    /// no serde).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"report\": \"{}\",\n", json_escape(&self.name)));
        out.push_str("  \"scenarios\": [\n");
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(spec, a)| {
                // Emitted only for non-ideal models so every pre-model
                // report regenerates byte-identically.
                let model = if spec.channel_model.is_ideal() {
                    String::new()
                } else {
                    format!(
                        ",\"channel_model\":\"{}\"",
                        json_escape(&spec.channel_model.label())
                    )
                };
                format!(
                    "    {{\"scenario\":\"{}\",\"n\":{},\"t\":{},\"channels\":{},\
                     \"workload\":\"{}\",\"adversary\":\"{}\"{},\"trials\":{},\
                     \"base_seed\":{},\"rounds\":{{\"min\":{},\"median\":{},\"mean\":{:.2},\
                     \"p95\":{},\"max\":{}}},\"moves\":{{\"min\":{},\"median\":{},\
                     \"mean\":{:.2},\"p95\":{},\"max\":{}}},\"cover_measured\":{},\
                     \"cover_within_t\":{},\"cover_max\":{},\"violations\":{},\"ok\":{},\
                     \"dropped_records\":{}}}",
                    json_escape(&spec.name),
                    spec.n,
                    spec.t,
                    spec.channels,
                    json_escape(&spec.workload.label()),
                    json_escape(spec.adversary.label()),
                    model,
                    spec.trials,
                    spec.base_seed,
                    a.rounds.min,
                    a.rounds.median,
                    a.rounds.mean,
                    a.rounds.p95,
                    a.rounds.max,
                    a.moves.min,
                    a.moves.median,
                    a.moves.mean,
                    a.moves.p95,
                    a.moves.max,
                    a.cover_measured,
                    a.cover_within_t,
                    a.cover_max,
                    a.violations,
                    a.ok_count,
                    a.dropped_records,
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write `BENCH_<name>.json` under `dir`, returning the path.
    ///
    /// The write is atomic-by-rename ([`write_atomic`]): a reader (or the
    /// shard merger) never observes a truncated report, even if the
    /// process is killed mid-write.
    ///
    /// # Errors
    ///
    /// I/O errors from file creation/write/rename.
    pub fn write(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let path = dir.as_ref().join(format!("BENCH_{}.json", self.name));
        write_atomic(&path, &self.json())?;
        Ok(path)
    }
}

/// Write `contents` to `path` atomically: write a `<file>.tmp` sibling in
/// the same directory, then rename it over `path`.
///
/// `File::create` + `write_all` in place used to leave a truncated
/// `BENCH_*.json` behind when the process was killed mid-write — exactly
/// the torn file a later shard merge would try to ingest. Rename within
/// one directory is atomic on POSIX, so readers observe either the old
/// complete file or the new complete file, never a prefix.
///
/// # Errors
///
/// I/O errors from temp-file creation/write or the rename.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AdversaryChoice, Workload};

    fn tiny_spec(trials: usize) -> ScenarioSpec {
        ScenarioSpec::new("tiny", Params::min_nodes(1, 2), 1, 2)
            .with_workload(Workload::RandomPairs { edges: 4 })
            .with_adversary(AdversaryChoice::RandomJam)
            .with_trials(trials)
            .with_seed(11)
    }

    #[test]
    fn dist_summaries() {
        let d = Dist::from_samples(&[5, 1, 9, 3, 7]);
        assert_eq!(d.min, 1);
        assert_eq!(d.max, 9);
        assert_eq!(d.median, 5);
        assert_eq!(d.p95, 9);
        assert!((d.mean - 5.0).abs() < 1e-9);
        assert_eq!(Dist::from_samples(&[]), Dist::default());
        // Even count: lower-of-middle-two.
        assert_eq!(Dist::from_samples(&[1, 2, 3, 4]).median, 2);
    }

    #[test]
    fn aggregate_counts() {
        let outcomes = [
            TrialOutcome {
                rounds: 10,
                moves: 2,
                cover: Some(1),
                violations: 0,
                ok: true,
                dropped_records: 0,
            },
            TrialOutcome {
                rounds: 30,
                moves: 4,
                cover: Some(5),
                violations: 2,
                ok: false,
                dropped_records: 7,
            },
            TrialOutcome {
                rounds: 20,
                moves: 3,
                cover: None,
                violations: 0,
                ok: true,
                dropped_records: 3,
            },
        ];
        let a = Aggregate::from_outcomes(2, &outcomes);
        assert_eq!(a.trials, 3);
        assert_eq!(a.cover_measured, 2);
        assert_eq!(a.cover_within_t, 1);
        assert_eq!(a.cover_max, 5);
        assert_eq!(a.violations, 2);
        assert_eq!(a.ok_count, 2);
        assert_eq!(a.rounds.median, 20);
        assert_eq!(a.dropped_records, 10);
    }

    #[test]
    fn parallel_matches_sequential() {
        let spec = tiny_spec(8);
        let seq = ExperimentRunner::sequential()
            .run_fame_scenario(&spec)
            .unwrap();
        let par = ExperimentRunner::with_threads(4)
            .run_fame_scenario(&spec)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.outcomes.len(), 8);
    }

    #[test]
    fn errors_surface_lowest_trial() {
        let spec = tiny_spec(6);
        let err = ExperimentRunner::with_threads(3)
            .run(&spec, |ctx| {
                if ctx.trial >= 2 {
                    Err(TrialError {
                        trial: ctx.trial,
                        message: "boom".into(),
                    })
                } else {
                    Ok(TrialOutcome::default())
                }
            })
            .unwrap_err();
        assert_eq!(err.trial, 2);
    }

    #[test]
    fn first_trial_failure_wins_even_when_later_trials_succeed() {
        // Under work stealing, trial 0 (made the slowest here) is typically
        // the *last* failure observed on the wall clock; the runner must
        // still report it, not a faster-failing or succeeding later trial.
        let spec = tiny_spec(8);
        let err = ExperimentRunner::with_threads(4)
            .run(&spec, |ctx| {
                if ctx.trial == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Err(TrialError {
                        trial: 0,
                        message: "slow failure".into(),
                    })
                } else if ctx.trial == 5 {
                    Err(TrialError {
                        trial: 5,
                        message: "fast failure".into(),
                    })
                } else {
                    Ok(TrialOutcome::default())
                }
            })
            .unwrap_err();
        assert_eq!(err.trial, 0);
        assert_eq!(err.message, "slow failure");
    }

    #[test]
    fn zero_trials_yields_empty_result() {
        let spec = tiny_spec(0);
        let result = ExperimentRunner::with_threads(4)
            .run(&spec, |_| panic!("no trial should run"))
            .unwrap();
        assert!(result.outcomes.is_empty());
        assert_eq!(result.aggregate.trials, 0);
        assert_eq!(result.aggregate.rounds, Dist::default());
    }

    #[test]
    fn more_threads_than_trials() {
        let spec = tiny_spec(3);
        let few = ExperimentRunner::with_threads(1)
            .run_fame_scenario(&spec)
            .unwrap();
        let many = ExperimentRunner::with_threads(16)
            .run_fame_scenario(&spec)
            .unwrap();
        assert_eq!(few, many);
        assert_eq!(many.outcomes.len(), 3);
    }

    #[test]
    fn dist_mean_does_not_wrap_near_u64_max() {
        let samples = vec![u64::MAX - 2, u64::MAX - 1, u64::MAX];
        let d = Dist::from_samples(&samples);
        // A u64 accumulator would wrap twice; the mean must sit next to
        // u64::MAX instead of near zero.
        assert!(d.mean > u64::MAX as f64 * 0.99, "mean wrapped: {}", d.mean);
        assert_eq!(d.min, u64::MAX - 2);
        assert_eq!(d.max, u64::MAX);
    }

    #[test]
    fn json_escape_handles_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\\b\"c"), "a\\\\b\\\"c");
        assert_eq!(
            json_escape("line\nbreak\tand\rmore"),
            "line\\nbreak\\tand\\rmore"
        );
        assert_eq!(json_escape("bell\u{7}null\u{0}"), "bell\\u0007null\\u0000");
    }

    #[test]
    fn report_emits_control_safe_labels() {
        let spec = ScenarioSpec::new("evil\nname\t\"quoted\"", 0, 1, 2).with_trials(1);
        let mut report = BenchReport::new("esc");
        report.push(
            spec,
            Aggregate::from_outcomes(1, &[TrialOutcome::default()]),
        );
        let json = report.json();
        assert!(json.contains("evil\\nname\\t\\\"quoted\\\""));
        assert!(!json.contains("evil\nname"));
    }

    #[test]
    #[should_panic(expected = "below Params::min_nodes")]
    fn undersized_n_is_rejected_not_inflated() {
        // Regression: params() used to floor n to min_nodes silently, so a
        // BENCH_*.json row could describe a network that was never run.
        let spec = ScenarioSpec::new("undersized", 4, 1, 2).with_trials(1);
        assert!(spec.n < Params::min_nodes(spec.t, spec.channels));
        let _ = ExperimentRunner::sequential().run_fame_scenario(&spec);
    }

    #[test]
    fn report_n_matches_the_network_that_ran() {
        let spec = tiny_spec(1);
        let params_n = spec.params().n();
        assert_eq!(spec.n, params_n);
        let result = ExperimentRunner::sequential()
            .run_fame_scenario(&spec)
            .unwrap();
        let mut report = BenchReport::new("n_check");
        report.push(spec.clone(), result.aggregate);
        assert!(report.json().contains(&format!("\"n\":{params_n},")));
    }

    #[test]
    fn report_json_and_table() {
        let spec = tiny_spec(2);
        let result = ExperimentRunner::sequential()
            .run_fame_scenario(&spec)
            .unwrap();
        let mut report = BenchReport::new("unit");
        report.push(spec, result.aggregate);
        let json = report.json();
        assert!(json.contains("\"report\": \"unit\""));
        assert!(json.contains("\"scenario\":\"tiny\""));
        assert!(json.contains("\"rounds\":{\"min\":"));
        let table = report.table("unit");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn report_rows_label_non_ideal_models_only() {
        use radio_network::ChannelModelSpec;
        let mut report = BenchReport::new("cm");
        report.push(
            tiny_spec(1),
            Aggregate::from_outcomes(1, &[TrialOutcome::default()]),
        );
        report.push(
            tiny_spec(1).with_channel_model(ChannelModelSpec::Capture { threshold: 128 }),
            Aggregate::from_outcomes(1, &[TrialOutcome::default()]),
        );
        let json = report.json();
        assert_eq!(json.matches("\"channel_model\"").count(), 1);
        assert!(
            json.contains("\"channel_model\":\"capture-t128\""),
            "{json}"
        );
    }

    #[test]
    fn report_write_is_atomic_by_rename() {
        let dir = std::env::temp_dir().join(format!("bench-atomic-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = tiny_spec(1);
        let mut report = BenchReport::new("atomic_unit");
        report.push(
            spec,
            Aggregate::from_outcomes(1, &[TrialOutcome::default()]),
        );
        // Pre-existing (stale) report: replaced whole, tmp file cleaned up.
        let final_path = dir.join("BENCH_atomic_unit.json");
        std::fs::write(&final_path, "stale half-written garbag").unwrap();
        let path = report.write(&dir).unwrap();
        assert_eq!(path, final_path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), report.json());
        assert!(
            !dir.join("BENCH_atomic_unit.json.tmp").exists(),
            "temp file must not outlive the rename"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
