//! Cross-process scenario sharding: split one experiment's scenario grid
//! across `N` independent processes (or machines), then merge the shard
//! reports back into the canonical `BENCH_<name>.json` — **byte-identical**
//! to what a single unsharded run writes.
//!
//! ## The contract
//!
//! Every experiment bin walks a deterministic scenario grid (the same
//! specs, in the same order, for the same `BENCH_SMOKE` setting). Each
//! walked scenario gets a **grid index** in walk order, and a shard run
//! `--shard k/N` executes exactly the scenarios with
//! `grid_index % N == k - 1` — round-robin, so heterogeneous per-scenario
//! costs spread evenly across shards instead of one shard inheriting the
//! expensive tail of the grid. A shard run writes
//! `BENCH_<name>.shard<k>of<N>.json` carrying, per scenario, the full
//! [`ScenarioSpec`] (lossless JSON, [`ScenarioSpec::json`]) and **every
//! per-trial [`TrialOutcome`]** — not the aggregate. `--merge <dir>` then
//! collects all `N` shard files, re-sorts rows by grid index, re-folds the
//! aggregates through the same [`Aggregate::from_outcomes`] an unsharded
//! run uses, and writes the canonical report. Because both the spec fields
//! and the per-trial samples round-trip exactly (integers are never
//! laundered through `f64` — see [`json`](crate::json)), the merged bytes
//! equal the unsharded bytes; `tests/sharding.rs` property-tests that for
//! 1/2/3/7-way splits.
//!
//! All shard/merge writes are atomic-by-rename
//! ([`write_atomic`]), and the merger rejects
//! a shard file that fails to parse with an error naming the file — a
//! torn write can therefore be *seen*, never silently ingested.
//!
//! Shard runs must execute the same grid (same code, same `BENCH_SMOKE`).
//! Because every shard process *walks* the whole grid (it skips executing
//! unowned scenarios, but sees their specs), each shard file records a
//! fingerprint of the full walk (`grid_scenarios`, `grid_fingerprint`);
//! the merger refuses to combine shards whose fingerprints disagree, so a
//! mixed-grid merge cannot silently produce a plausible-looking report —
//! even when the two grids happen to have the same scenario count.
//!
//! ## CLI
//!
//! `--shard k/N` and `--merge <dir>` belong to the one experiment CLI
//! contract, parsed once by [`Experiment::new`](crate::Experiment::new)
//! (see [`experiment`](crate::experiment)):
//!
//! ```text
//! <bin>                 # unsharded: run everything, write BENCH_<name>.json
//! <bin> --shard 1/2     # run scenarios 0, 2, 4, … -> BENCH_<name>.shard1of2.json
//! <bin> --shard 2/2     # run scenarios 1, 3, 5, … -> BENCH_<name>.shard2of2.json
//! <bin> --merge <dir>   # merge <dir>'s shard files -> <dir>/BENCH_<name>.json
//! ```
//!
//! On one machine, run the `N` shard processes from the shell (e.g. in
//! the background) and merge their directory; the CI `shard-smoke` job
//! diffs the merged report against an unsharded run. A misspelled flag
//! (`--shard1/2`) is a startup error like any unknown argument: it must
//! not quietly run the whole grid and overwrite the canonical report.

use std::path::{Path, PathBuf};
use std::thread;

use radio_network::json_escape;

use crate::json::{field, usize_field, Json};
use crate::runner::{write_atomic, Aggregate, ScenarioResult, TrialError};
use crate::{BenchReport, ScenarioSpec, TraceOutput, TrialOutcome};

/// One shard's identity in a `k`-of-`N` split (`1 <= index <= count`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shard {
    /// 1-based shard index `k`.
    pub index: usize,
    /// Total shard count `N`.
    pub count: usize,
}

impl Shard {
    /// `true` when this shard executes the scenario at `grid_index`
    /// (round-robin by grid index).
    pub fn owns(&self, grid_index: usize) -> bool {
        grid_index % self.count == self.index - 1
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Parse a `--shard` value `k/N`.
pub(crate) fn parse_shard(value: &str) -> Result<Shard, String> {
    let usage = || format!("--shard wants k/N with 1 <= k <= N, got \"{value}\"");
    let (k, n) = value.split_once('/').ok_or_else(usage)?;
    let index: usize = k.parse().map_err(|_| usage())?;
    let count: usize = n.parse().map_err(|_| usage())?;
    if index == 0 || count == 0 || index > count {
        return Err(usage());
    }
    Ok(Shard { index, count })
}

/// A shard/merge failure: what went wrong, naming the offending file
/// where there is one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardError {
    message: String,
}

impl ShardError {
    fn new(message: impl Into<String>) -> Self {
        ShardError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ShardError {}

/// One recorded scenario of a (possibly sharded) run: its position in the
/// experiment's grid, the spec that ran, and every per-trial outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct ShardRow {
    /// Position in the bin's deterministic scenario walk.
    pub grid_index: usize,
    /// The scenario that ran.
    pub spec: ScenarioSpec,
    /// Per-trial outcomes, in trial order.
    pub outcomes: Vec<TrialOutcome>,
}

/// The sharding-aware replacement for accumulating a [`BenchReport`] in an
/// experiment bin: every grid scenario is offered to
/// [`ShardedReport::run`]; the report decides (by its optional [`Shard`])
/// whether the scenario executes, records executed rows with their grid
/// indices and per-trial outcomes, and [`ShardedReport::write`] emits
/// either the canonical `BENCH_<name>.json` (unsharded) or the
/// `BENCH_<name>.shard<k>of<N>.json` shard file.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    name: String,
    shard: Option<Shard>,
    next_index: usize,
    grid_fingerprint: u64,
    rows: Vec<ShardRow>,
}

impl ShardedReport {
    /// An empty report for `BENCH_<name>`, running every scenario
    /// (`None`) or only `shard`'s.
    pub fn new(name: impl Into<String>, shard: Option<Shard>) -> Self {
        ShardedReport {
            name: name.into(),
            shard,
            next_index: 0,
            grid_fingerprint: FNV_OFFSET,
            rows: Vec::new(),
        }
    }

    /// Offer the next grid scenario: assigns the scenario the next grid
    /// index and, when this invocation owns it, executes `run` and records
    /// the row. Returns `Ok(None)` when the scenario belongs to another
    /// shard (the bin skips its table row and moves on).
    ///
    /// Every bin must offer **the same scenarios in the same order** in
    /// every invocation — the grid index is assigned by call order, and the
    /// shard/unsharded equivalence rests on it.
    ///
    /// # Errors
    ///
    /// Whatever `run` returns, propagated (the row is not recorded).
    pub fn run<F>(
        &mut self,
        spec: &ScenarioSpec,
        run: F,
    ) -> Result<Option<ScenarioResult>, TrialError>
    where
        F: FnOnce() -> Result<ScenarioResult, TrialError>,
    {
        let grid_index = self.next_index;
        self.next_index += 1;
        // Every offered spec — owned or not — feeds the grid fingerprint,
        // so shard files from different grids can't merge (see module
        // docs).
        self.grid_fingerprint = fnv1a(self.grid_fingerprint, grid_identity(spec).as_bytes());
        if !self.shard.is_none_or(|shard| shard.owns(grid_index)) {
            return Ok(None);
        }
        let result = run()?;
        self.rows.push(ShardRow {
            grid_index,
            spec: spec.clone(),
            outcomes: result.outcomes.clone(),
        });
        Ok(Some(result))
    }

    /// The recorded rows as a plain [`BenchReport`], aggregates re-folded
    /// from the per-trial outcomes — the exact fold an unsharded run
    /// performs, shared with the merger.
    pub fn to_report(&self) -> BenchReport {
        rows_to_report(&self.name, &self.rows)
    }

    /// Write this invocation's output under `dir`, returning the path:
    /// the canonical `BENCH_<name>.json` when unsharded, else the
    /// `BENCH_<name>.shard<k>of<N>.json` shard file. Both writes are
    /// atomic-by-rename.
    ///
    /// # Errors
    ///
    /// I/O errors from file creation/write/rename.
    pub fn write(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let Some(shard) = self.shard else {
            return self.to_report().write(dir);
        };
        let path = dir
            .as_ref()
            .join(shard_file_name(&self.name, shard.index, shard.count));
        write_atomic(&path, &self.shard_json(shard))?;
        Ok(path)
    }

    /// The shard-file JSON document (`docs/BENCH_FORMAT.md`, *Shard
    /// files*): report name, shard provenance (`shard`, `shards`,
    /// `host_threads`), the grid fingerprint, and per-scenario rows
    /// carrying the lossless spec plus every trial outcome.
    fn shard_json(&self, shard: Shard) -> String {
        let host_threads = thread::available_parallelism().map_or(1, |n| n.get());
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let outcomes: Vec<String> = row.outcomes.iter().map(TrialOutcome::json).collect();
                format!(
                    "    {{\"grid_index\":{},\"spec\":{},\"outcomes\":[{}]}}",
                    row.grid_index,
                    row.spec.json(),
                    outcomes.join(","),
                )
            })
            .collect();
        format!(
            "{{\n  \"report\": \"{}\",\n  \"shard\": {},\n  \"shards\": {},\n  \
             \"host_threads\": {host_threads},\n  \"grid_scenarios\": {},\n  \
             \"grid_fingerprint\": {},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
            json_escape(&self.name),
            shard.index,
            shard.count,
            self.next_index,
            self.grid_fingerprint,
            rows.join(",\n"),
        )
    }
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` (plus a terminator, so concatenations can't alias) into
/// a running FNV-1a state.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for byte in bytes.iter().chain(&[0xffu8]) {
        state ^= u64::from(*byte);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// The fingerprint contribution of one offered spec: its lossless JSON
/// with the trace *directory* blanked — where trace files land varies
/// legitimately across shard hosts and never changes the scheduled work,
/// but everything else (including the overflow policy, which shapes
/// `dropped_records`) must match across shards.
fn grid_identity(spec: &ScenarioSpec) -> String {
    let mut normalized = spec.clone();
    if let TraceOutput::Stream { dir, .. } = &mut normalized.trace {
        *dir = PathBuf::new();
    }
    normalized.json()
}

/// `BENCH_<report>.shard<k>of<N>.json`.
fn shard_file_name(report: &str, index: usize, count: usize) -> String {
    format!("BENCH_{report}.shard{index}of{count}.json")
}

/// Fold rows (assumed grid-sorted) into a [`BenchReport`] via
/// [`Aggregate::from_outcomes`] — the single fold shared by unsharded
/// writes and the merger.
fn rows_to_report(name: &str, rows: &[ShardRow]) -> BenchReport {
    let mut report = BenchReport::new(name);
    for row in rows {
        let aggregate = Aggregate::from_outcomes(row.spec.t, &row.outcomes);
        report.push(row.spec.clone(), aggregate);
    }
    report
}

/// One parsed shard file.
struct ShardFile {
    path: PathBuf,
    shard: Shard,
    grid_scenarios: usize,
    grid_fingerprint: u64,
    rows: Vec<ShardRow>,
}

/// Merge the `BENCH_<report>.shard<k>of<N>.json` files in `dir` into the
/// canonical `<dir>/BENCH_<report>.json`, byte-identical to an unsharded
/// run of the same grid. Validates that the shard set is complete (every
/// `k` in `1..=N` exactly once, one consistent `N`), that every shard
/// file parses (a torn/truncated file is rejected with an error naming
/// it), and that the union of grid indices is exactly `0..len`.
///
/// # Errors
///
/// [`ShardError`] describing the first inconsistency, always naming the
/// offending file where there is one.
pub fn merge_shards(dir: &Path, report: &str) -> Result<PathBuf, ShardError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ShardError::new(format!("cannot read {}: {e}", dir.display())))?;
    let mut files: Vec<ShardFile> = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| ShardError::new(format!("cannot scan {}: {e}", dir.display())))?;
        let file_name = entry.file_name();
        let Some(name) = file_name.to_str() else {
            continue;
        };
        if let Some((index, count)) = match_shard_file(name, report) {
            files.push(parse_shard_file(&entry.path(), report, index, count)?);
        }
    }
    if files.is_empty() {
        return Err(ShardError::new(format!(
            "no BENCH_{report}.shard<k>of<N>.json files in {}",
            dir.display()
        )));
    }

    // One consistent N, every k exactly once.
    let count = files[0].shard.count;
    if let Some(odd) = files.iter().find(|f| f.shard.count != count) {
        return Err(ShardError::new(format!(
            "inconsistent shard counts: {} says {} shards, {} says {} — \
             these files are from different splits",
            files[0].path.display(),
            count,
            odd.path.display(),
            odd.shard.count,
        )));
    }
    files.sort_by_key(|f| f.shard.index);
    for (slot, file) in files.iter().enumerate() {
        let expected = slot + 1;
        match file.shard.index.cmp(&expected) {
            std::cmp::Ordering::Greater => {
                return Err(ShardError::new(format!(
                    "shard {expected}/{count} of report \"{report}\" is missing from {}",
                    dir.display()
                )))
            }
            std::cmp::Ordering::Less => {
                return Err(ShardError::new(format!(
                    "duplicate shard {}/{count}: {}",
                    file.shard.index,
                    file.path.display()
                )))
            }
            std::cmp::Ordering::Equal => {}
        }
    }
    if files.len() != count {
        return Err(ShardError::new(format!(
            "report \"{report}\" splits into {count} shards but {} of {} files are present in {}",
            files.len(),
            count,
            dir.display()
        )));
    }

    // Every shard must have walked the same grid: equal scenario counts
    // and equal fingerprints over every offered spec. This catches shards
    // run on different code or different `BENCH_SMOKE` settings even when
    // the scenario counts happen to coincide.
    let reference = &files[0];
    if let Some(odd) = files.iter().find(|f| {
        (f.grid_scenarios, f.grid_fingerprint)
            != (reference.grid_scenarios, reference.grid_fingerprint)
    }) {
        return Err(ShardError::new(format!(
            "shard files disagree on the scenario grid: {} walked {} scenarios \
             (fingerprint {}), {} walked {} (fingerprint {}) — were all shards \
             run on the same code and BENCH_SMOKE setting?",
            reference.path.display(),
            reference.grid_scenarios,
            reference.grid_fingerprint,
            odd.path.display(),
            odd.grid_scenarios,
            odd.grid_fingerprint,
        )));
    }
    let grid_scenarios = reference.grid_scenarios;

    // Union of grid indices must be exactly 0..len.
    let mut rows: Vec<(PathBuf, ShardRow)> = Vec::new();
    for file in files {
        let path = file.path;
        rows.extend(file.rows.into_iter().map(|row| (path.clone(), row)));
    }
    rows.sort_by_key(|(_, row)| row.grid_index);
    if rows.len() != grid_scenarios {
        return Err(ShardError::new(format!(
            "the merged set has {} scenarios but every shard walked a \
             {grid_scenarios}-scenario grid — shard files are inconsistent",
            rows.len(),
        )));
    }
    for (slot, (path, row)) in rows.iter().enumerate() {
        if row.grid_index != slot {
            return Err(ShardError::new(format!(
                "grid index {slot} is {} in the merged set (next is {} from {}); \
                 were all shards run on the same grid (same code, same BENCH_SMOKE)?",
                if row.grid_index > slot {
                    "missing"
                } else {
                    "duplicated"
                },
                row.grid_index,
                path.display(),
            )));
        }
    }

    let rows: Vec<ShardRow> = rows.into_iter().map(|(_, row)| row).collect();
    rows_to_report(report, &rows)
        .write(dir)
        .map_err(|e| ShardError::new(format!("cannot write merged report: {e}")))
}

/// Parse `name` as `BENCH_<report>.shard<k>of<N>.json`, returning
/// `(k, N)`.
fn match_shard_file(name: &str, report: &str) -> Option<(usize, usize)> {
    let middle = name
        .strip_prefix("BENCH_")?
        .strip_prefix(report)?
        .strip_prefix(".shard")?
        .strip_suffix(".json")?;
    let (k, n) = middle.split_once("of")?;
    Some((k.parse().ok()?, n.parse().ok()?))
}

fn parse_shard_file(
    path: &Path,
    report: &str,
    file_index: usize,
    file_count: usize,
) -> Result<ShardFile, ShardError> {
    let named = |what: String| ShardError::new(format!("shard file {}: {what}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| named(format!("cannot read: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| {
        named(format!(
            "does not parse as JSON — torn/truncated write, or not a shard file? ({e})"
        ))
    })?;
    let ctx = "shard file";
    let found_report = crate::json::str_field(&doc, "report", ctx).map_err(&named)?;
    if found_report != report {
        return Err(named(format!(
            "is a shard of report \"{found_report}\", expected \"{report}\""
        )));
    }
    let shard = Shard {
        index: usize_field(&doc, "shard", ctx).map_err(&named)?,
        count: usize_field(&doc, "shards", ctx).map_err(&named)?,
    };
    if shard.index == 0 || shard.count == 0 || shard.index > shard.count {
        return Err(named(format!("invalid shard identity {shard}")));
    }
    if (shard.index, shard.count) != (file_index, file_count) {
        return Err(named(format!(
            "file name says shard {file_index}/{file_count} but the contents say {shard} — \
             was the file renamed?"
        )));
    }
    let grid_scenarios = usize_field(&doc, "grid_scenarios", ctx).map_err(&named)?;
    let grid_fingerprint = crate::json::u64_field(&doc, "grid_fingerprint", ctx).map_err(&named)?;
    let scenarios = field(&doc, "scenarios", ctx)
        .map_err(&named)?
        .as_array()
        .ok_or_else(|| named("field \"scenarios\" is not an array".into()))?;
    let mut rows = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let row_ctx = "shard scenario";
        let grid_index = usize_field(scenario, "grid_index", row_ctx).map_err(&named)?;
        let spec = ScenarioSpec::from_json(field(scenario, "spec", row_ctx).map_err(&named)?)
            .map_err(&named)?;
        let outcomes = field(scenario, "outcomes", row_ctx)
            .map_err(&named)?
            .as_array()
            .ok_or_else(|| named("field \"outcomes\" is not an array".into()))?
            .iter()
            .map(TrialOutcome::from_json)
            .collect::<Result<Vec<TrialOutcome>, String>>()
            .map_err(&named)?;
        rows.push(ShardRow {
            grid_index,
            spec,
            outcomes,
        });
    }
    Ok(ShardFile {
        path: path.to_path_buf(),
        shard,
        grid_scenarios,
        grid_fingerprint,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AdversaryChoice, Workload};

    #[test]
    fn round_robin_ownership_partitions_the_grid() {
        for count in 1..=7 {
            for grid_index in 0..40 {
                let owners: Vec<usize> = (1..=count)
                    .filter(|&index| Shard { index, count }.owns(grid_index))
                    .collect();
                assert_eq!(owners.len(), 1, "grid {grid_index} over {count} shards");
                assert_eq!(owners[0], grid_index % count + 1);
            }
        }
    }

    #[test]
    fn shard_file_name_matching() {
        assert_eq!(
            match_shard_file("BENCH_x.shard1of2.json", "x"),
            Some((1, 2))
        );
        assert_eq!(
            match_shard_file("BENCH_channel_sweep.shard12of20.json", "channel_sweep"),
            Some((12, 20))
        );
        assert_eq!(match_shard_file("BENCH_x.json", "x"), None);
        assert_eq!(match_shard_file("BENCH_y.shard1of2.json", "x"), None);
        assert_eq!(match_shard_file("BENCH_x.shard1of2.json.tmp", "x"), None);
        assert_eq!(match_shard_file("BENCH_x.shardof.json", "x"), None);
    }

    fn sample_spec(name: &str, trials: usize) -> ScenarioSpec {
        ScenarioSpec::new(name, 40, 2, 3)
            .with_workload(Workload::RandomPairs { edges: 6 })
            .with_adversary(AdversaryChoice::RandomJam)
            .with_trials(trials)
            .with_seed(99)
    }

    fn synthetic_outcome(seed: u64) -> TrialOutcome {
        TrialOutcome {
            rounds: seed % 997,
            moves: seed % 13,
            cover: if seed.is_multiple_of(3) {
                None
            } else {
                Some((seed % 5) as usize)
            },
            violations: seed % 2,
            ok: !seed.is_multiple_of(4),
            dropped_records: seed % 7,
        }
    }

    fn run_grid(name: &str, shard: Option<Shard>, scenarios: usize) -> ShardedReport {
        let mut report = ShardedReport::new(name, shard);
        for s in 0..scenarios {
            let spec = sample_spec(&format!("s{s}"), 3);
            report
                .run(&spec, || {
                    let outcomes: Vec<TrialOutcome> = (0..spec.trials)
                        .map(|trial| synthetic_outcome(spec.trial_seed(trial)))
                        .collect();
                    let aggregate = Aggregate::from_outcomes(spec.t, &outcomes);
                    Ok(ScenarioResult {
                        outcomes,
                        aggregate,
                    })
                })
                .unwrap();
        }
        report
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bench-shard-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn merge_rejects_missing_and_mixed_shards() {
        let dir = temp_dir("missing");
        run_grid("m", Some(Shard { index: 1, count: 3 }), 5)
            .write(&dir)
            .unwrap();
        run_grid("m", Some(Shard { index: 3, count: 3 }), 5)
            .write(&dir)
            .unwrap();
        let err = merge_shards(&dir, "m").unwrap_err().to_string();
        assert!(err.contains("shard 2/3"), "{err}");
        assert!(err.contains("missing"), "{err}");
        // A shard from a different split is flagged as inconsistent.
        run_grid("m", Some(Shard { index: 2, count: 4 }), 5)
            .write(&dir)
            .unwrap();
        let err = merge_shards(&dir, "m").unwrap_err().to_string();
        assert!(err.contains("inconsistent shard counts"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_rejects_torn_shard_file_naming_it() {
        let dir = temp_dir("torn");
        run_grid("t", Some(Shard { index: 1, count: 2 }), 4)
            .write(&dir)
            .unwrap();
        // Simulate the pre-atomic-write failure mode: a prefix of a real
        // shard file, as left behind by a process killed mid-write.
        let full = run_grid("t", Some(Shard { index: 2, count: 2 }), 4)
            .shard_json(Shard { index: 2, count: 2 });
        let torn_path = dir.join(shard_file_name("t", 2, 2));
        std::fs::write(&torn_path, &full[..full.len() / 2]).unwrap();
        let err = merge_shards(&dir, "t").unwrap_err().to_string();
        assert!(
            err.contains(torn_path.file_name().unwrap().to_str().unwrap()),
            "error must name the torn file: {err}"
        );
        assert!(err.contains("torn/truncated"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_rejects_grid_gaps_and_renamed_files() {
        let dir = temp_dir("gaps");
        // Shard 1/2 of a 5-scenario grid, but shard 2/2 of a 2-scenario
        // grid: the walk fingerprints disagree.
        run_grid("g", Some(Shard { index: 1, count: 2 }), 5)
            .write(&dir)
            .unwrap();
        run_grid("g", Some(Shard { index: 2, count: 2 }), 2)
            .write(&dir)
            .unwrap();
        let err = merge_shards(&dir, "g").unwrap_err().to_string();
        assert!(err.contains("disagree on the scenario grid"), "{err}");
        // A renamed shard file is caught by the name/contents cross-check.
        let dir2 = temp_dir("renamed");
        run_grid("g", Some(Shard { index: 1, count: 2 }), 4)
            .write(&dir2)
            .unwrap();
        std::fs::rename(
            dir2.join(shard_file_name("g", 1, 2)),
            dir2.join(shard_file_name("g", 2, 2)),
        )
        .unwrap();
        let err = merge_shards(&dir2, "g").unwrap_err().to_string();
        assert!(err.contains("renamed"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn merge_rejects_count_preserving_grid_mismatch() {
        // Two shard runs over grids with the SAME scenario count but
        // different specs (one changed seed) — the failure mode plain
        // index bookkeeping cannot see; the fingerprint catches it.
        let run_with = |index: usize, seed: u64| {
            let mut report = ShardedReport::new("fp", Some(Shard { index, count: 2 }));
            for s in 0..4 {
                let spec = sample_spec(&format!("s{s}"), 2).with_seed(seed);
                report
                    .run(&spec, || {
                        let outcomes = vec![synthetic_outcome(spec.trial_seed(0)); 2];
                        let aggregate = Aggregate::from_outcomes(spec.t, &outcomes);
                        Ok(ScenarioResult {
                            outcomes,
                            aggregate,
                        })
                    })
                    .unwrap();
            }
            report
        };
        let dir = temp_dir("fingerprint");
        run_with(1, 99).write(&dir).unwrap();
        run_with(2, 100).write(&dir).unwrap();
        let err = merge_shards(&dir, "fp").unwrap_err().to_string();
        assert!(err.contains("disagree on the scenario grid"), "{err}");
        assert!(err.contains("fingerprint"), "{err}");
        // Same seed everywhere: merges cleanly.
        run_with(2, 99).write(&dir).unwrap();
        assert!(merge_shards(&dir, "fp").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_rejects_channel_model_only_grid_mismatch() {
        // Regression for the channel-model axis: two shard runs identical
        // in every classical dimension (n, t, C, workload, adversary,
        // trials, seed) but differing in channel model must refuse to
        // merge — the model is part of the spec's lossless JSON, so it
        // feeds the grid fingerprint like any other axis.
        use radio_network::ChannelModelSpec;
        let run_with = |index: usize, model: ChannelModelSpec| {
            let mut report = ShardedReport::new("cm", Some(Shard { index, count: 2 }));
            for s in 0..4 {
                let spec = sample_spec(&format!("s{s}"), 2).with_channel_model(model.clone());
                report
                    .run(&spec, || {
                        let outcomes = vec![synthetic_outcome(spec.trial_seed(0)); 2];
                        let aggregate = Aggregate::from_outcomes(spec.t, &outcomes);
                        Ok(ScenarioResult {
                            outcomes,
                            aggregate,
                        })
                    })
                    .unwrap();
            }
            report
        };
        let dir = temp_dir("channel-model-fp");
        run_with(1, ChannelModelSpec::Ideal).write(&dir).unwrap();
        run_with(2, ChannelModelSpec::Lossy { p_loss_ppm: 50_000 })
            .write(&dir)
            .unwrap();
        let err = merge_shards(&dir, "cm").unwrap_err().to_string();
        assert!(err.contains("disagree on the scenario grid"), "{err}");
        assert!(err.contains("fingerprint"), "{err}");
        // Matching models merge cleanly.
        run_with(2, ChannelModelSpec::Ideal).write(&dir).unwrap();
        assert!(merge_shards(&dir, "cm").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grid_identity_ignores_trace_dir_but_not_policy() {
        use radio_network::OverflowPolicy;
        let base = sample_spec("s", 2);
        let stream = |dir: &str, policy| {
            base.clone().with_trace_output(TraceOutput::Stream {
                dir: PathBuf::from(dir),
                policy,
            })
        };
        // Different hosts stream to different directories: same grid.
        assert_eq!(
            grid_identity(&stream("/scratch/a", OverflowPolicy::Block)),
            grid_identity(&stream("/tmp/b", OverflowPolicy::Block))
        );
        // A lossy shard next to a lossless one is not the same sweep.
        assert_ne!(
            grid_identity(&stream("/tmp/b", OverflowPolicy::Block)),
            grid_identity(&stream("/tmp/b", OverflowPolicy::DropNewest))
        );
        assert_ne!(
            grid_identity(&base),
            grid_identity(&base.clone().with_seed(1))
        );
    }

    #[test]
    fn merge_requires_matching_report_name() {
        let dir = temp_dir("name");
        let report = run_grid("a", Some(Shard { index: 1, count: 1 }), 2);
        let json = report.shard_json(Shard { index: 1, count: 1 });
        // File named for report "b" but contents say "a".
        std::fs::write(dir.join(shard_file_name("b", 1, 1)), json).unwrap();
        let err = merge_shards(&dir, "b").unwrap_err().to_string();
        assert!(err.contains("\"a\""), "{err}");
        let err = merge_shards(&dir, "c").unwrap_err().to_string();
        assert!(err.contains("no BENCH_c.shard"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_shard_merge_matches_full_run() {
        let dir = temp_dir("single");
        let full = run_grid("one", None, 6);
        run_grid("one", Some(Shard { index: 1, count: 1 }), 6)
            .write(&dir)
            .unwrap();
        let merged = merge_shards(&dir, "one").unwrap();
        assert_eq!(
            std::fs::read_to_string(merged).unwrap(),
            full.to_report().json()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn outcome_json_round_trips() {
        for seed in 0..40u64 {
            let outcome = synthetic_outcome(seed.wrapping_mul(0x9E3779B97F4A7C15));
            let parsed = TrialOutcome::from_json(&Json::parse(&outcome.json()).unwrap()).unwrap();
            assert_eq!(parsed, outcome);
        }
        let max = TrialOutcome {
            rounds: u64::MAX,
            moves: u64::MAX - 1,
            cover: Some(usize::MAX),
            violations: u64::MAX - 2,
            ok: false,
            dropped_records: u64::MAX - 3,
        };
        let parsed = TrialOutcome::from_json(&Json::parse(&max.json()).unwrap()).unwrap();
        assert_eq!(parsed, max);
    }
}
