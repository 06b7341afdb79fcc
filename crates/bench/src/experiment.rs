//! The experiment driver every bin runs through: one argv parse, the
//! merge dispatch, and the report lifecycle.
//!
//! ## CLI
//!
//! All ten experiment bins share one contract:
//!
//! ```text
//! <bin>                          # run everything, write BENCH_<name>.json
//! <bin> --shard k/N              # run this shard's scenarios -> BENCH_<name>.shard<k>of<N>.json
//! <bin> --merge <dir>            # merge <dir>'s shard files -> <dir>/BENCH_<name>.json
//! <bin> --trace-out <dir>        # also stream every trial's trace (bins that stream)
//! <bin> --trace-lossy            # ... dropping and counting records instead of blocking
//! <bin> --channel-model <list>   # ideal|lossy|capture|geometric|all, comma lists compose
//!                                #   (the disruptability and whp_knee axis bins)
//! ```
//!
//! Every value flag also takes the `--flag=value` form, the only way to
//! pass a value that starts with `--`. Anything else is a startup error
//! naming the argument: a typo (`--tarce-out`, `--shard1/2`), a positional
//! argument, a flag the bin does not accept (`--channel-model` outside the
//! axis bins, `--trace-out` on a bin whose trials do not stream), a flag
//! given twice, or a combination that cannot mean anything (`--shard` with
//! `--merge`, `--merge` with `--trace-out`, `--trace-lossy` alone). A
//! misused invocation exits non-zero before it runs or writes anything.

use std::path::PathBuf;

use radio_network::OverflowPolicy;

use crate::channel_axis::parse_model_list;
use crate::runner::ScenarioResult;
use crate::shard::{merge_shards, parse_shard};
use crate::{
    ChannelModelChoice, ExperimentRunner, ScenarioSpec, Shard, ShardedReport, TraceOutput,
    TrialCtx, TrialError, TrialOutcome,
};

/// The optional parts of the CLI contract a bin accepts; `--shard` and
/// `--merge` are always accepted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Accepts {
    /// `--trace-out <dir>` and `--trace-lossy`: the bin's trials stream
    /// their traces.
    pub traces: bool,
    /// `--channel-model <list>`: with the flag the bin sweeps its model
    /// axis and writes the report named here instead of its classic one.
    pub model_report: Option<&'static str>,
}

impl Accepts {
    /// Only `--shard` and `--merge`.
    pub const SHARDS: Accepts = Accepts {
        traces: false,
        model_report: None,
    };
    /// `--shard`, `--merge`, `--trace-out` and `--trace-lossy`.
    pub const TRACES: Accepts = Accepts {
        traces: true,
        model_report: None,
    };

    /// Also accept `--channel-model`, writing `report` when it is given.
    #[must_use]
    pub const fn with_model_axis(self, report: &'static str) -> Accepts {
        Accepts {
            model_report: Some(report),
            ..self
        }
    }
}

/// One parsed invocation (see the [module docs](self) for the contract).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Cli {
    /// `--shard k/N`: run only this shard's scenarios.
    shard: Option<Shard>,
    /// `--merge <dir>`: run nothing, merge `<dir>`'s shard files.
    merge: Option<PathBuf>,
    /// `--trace-out <dir>` (+ `--trace-lossy`), else in-memory traces.
    trace: TraceOutput,
    /// `--channel-model <list>`, in request order; `None` without the
    /// flag (the bin runs its classic grid).
    models: Option<Vec<ChannelModelChoice>>,
}

impl Cli {
    /// Parse `args` (without the program name) against what the bin
    /// `accepts`.
    ///
    /// # Errors
    ///
    /// A usage message naming the offending argument.
    fn parse(args: &[String], accepts: Accepts) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let (mut trace_dir, mut lossy) = (None, false);
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if arg == "--trace-lossy" {
                if !accepts.traces {
                    return Err(not_accepted(arg, "its trials do not stream traces"));
                }
                if lossy {
                    return Err("--trace-lossy given twice".into());
                }
                lossy = true;
                continue;
            }
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value)),
                None => (arg.as_str(), None),
            };
            if !["--shard", "--merge", "--trace-out", "--channel-model"].contains(&flag) {
                return Err(format!("unknown argument \"{arg}\""));
            }
            if flag == "--trace-out" && !accepts.traces {
                return Err(not_accepted(flag, "its trials do not stream traces"));
            }
            if flag == "--channel-model" && accepts.model_report.is_none() {
                return Err(not_accepted(flag, "it has no channel-model axis"));
            }
            let value = match inline {
                Some("") => return Err(format!("{flag}= needs a non-empty value")),
                Some(value) => value,
                None => match iter.next() {
                    None => return Err(format!("{flag} needs a value")),
                    Some(value) if value.starts_with("--") => {
                        return Err(format!(
                            "{flag} {value}: the value looks like another flag; \
                             use {flag}={value} if that really is the value"
                        ))
                    }
                    Some(value) => value,
                },
            };
            let twice = match flag {
                "--shard" => cli.shard.replace(parse_shard(value)?).is_some(),
                "--merge" => cli.merge.replace(PathBuf::from(value)).is_some(),
                "--trace-out" => trace_dir.replace(PathBuf::from(value)).is_some(),
                _ => cli.models.replace(parse_model_list(value)?).is_some(),
            };
            if twice {
                return Err(format!("{flag} given twice"));
            }
        }
        match (trace_dir, lossy) {
            (Some(dir), lossy) => {
                let policy = if lossy {
                    OverflowPolicy::DropNewest
                } else {
                    OverflowPolicy::Block
                };
                cli.trace = TraceOutput::Stream { dir, policy };
            }
            (None, true) => {
                return Err("--trace-lossy without --trace-out has no effect: nothing \
                            streams, so nothing can be lossy"
                    .into())
            }
            (None, false) => {}
        }
        if cli.merge.is_some() && cli.shard.is_some() {
            return Err(
                "--shard and --merge are mutually exclusive: a process either \
                        runs one shard or merges finished shard files"
                    .into(),
            );
        }
        if cli.merge.is_some() && cli.trace.is_stream() {
            return Err(
                "--merge with --trace-out: a merge runs nothing, so nothing streams".into(),
            );
        }
        Ok(cli)
    }
}

fn not_accepted(flag: &str, why: &str) -> String {
    format!("\"{flag}\" is not accepted by this experiment: {why}")
}

/// Print `error: <message>` and exit with `status`.
fn fail(status: i32, message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(status)
}

/// One experiment bin's run: the parsed CLI, the runner, and the
/// (possibly sharded) report. Bins offer every grid scenario to
/// [`Experiment::run`] or [`Experiment::run_fame`], in the same order in
/// every mode, then call [`Experiment::finish`].
#[derive(Debug)]
pub struct Experiment {
    runner: ExperimentRunner,
    report: ShardedReport,
    name: &'static str,
    trace: TraceOutput,
    models: Option<Vec<ChannelModelChoice>>,
}

impl Experiment {
    /// Parse the process arguments for the bin writing `BENCH_<report>.json`
    /// (or its `accepts.model_report` under `--channel-model`).
    ///
    /// A misused CLI prints the error and exits with status 2. Under
    /// `--merge` the merge runs right here: the merged path is printed
    /// and the process exits 0, or the error is printed and it exits 1.
    pub fn new(report: &'static str, accepts: Accepts) -> Experiment {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let cli = Cli::parse(&args, accepts).unwrap_or_else(|e| fail(2, &format!("{report}: {e}")));
        let name = match (&cli.models, accepts.model_report) {
            (Some(_), Some(model_report)) => model_report,
            _ => report,
        };
        if let Some(dir) = &cli.merge {
            match merge_shards(dir, name) {
                Ok(path) => {
                    println!("merged shard files into {}", path.display());
                    std::process::exit(0)
                }
                Err(err) => fail(1, &err.to_string()),
            }
        }
        Experiment {
            runner: ExperimentRunner::new(),
            report: ShardedReport::new(name, cli.shard),
            name,
            trace: cli.trace,
            models: cli.models,
        }
    }

    /// Where this run's traces go: give it to the specs whose trials
    /// stream ([`ScenarioSpec::with_trace_output`]).
    pub fn trace(&self) -> TraceOutput {
        self.trace.clone()
    }

    /// The `--channel-model` selection, `None` without the flag.
    pub fn models(&self) -> Option<&[ChannelModelChoice]> {
        self.models.as_deref()
    }

    /// Offer the next grid scenario, running every trial through `trial`
    /// when this invocation owns it. `None` means the scenario belongs to
    /// another shard: the bin skips its table row.
    ///
    /// A failing trial prints `error: <report> scenario "<name>": …` and
    /// exits with status 1.
    pub fn run<F>(&mut self, spec: &ScenarioSpec, trial: F) -> Option<ScenarioResult>
    where
        F: Fn(&TrialCtx<'_>) -> Result<TrialOutcome, TrialError> + Sync,
    {
        let runner = self.runner;
        let result = self.report.run(spec, || runner.run(spec, trial));
        self.settle(spec, result)
    }

    /// [`Experiment::run`] with the standard f-AME trial
    /// ([`ExperimentRunner::run_fame_scenario`]).
    pub fn run_fame(&mut self, spec: &ScenarioSpec) -> Option<ScenarioResult> {
        let runner = self.runner;
        let result = self.report.run(spec, || runner.run_fame_scenario(spec));
        self.settle(spec, result)
    }

    fn settle(
        &self,
        spec: &ScenarioSpec,
        result: Result<Option<ScenarioResult>, TrialError>,
    ) -> Option<ScenarioResult> {
        result
            .unwrap_or_else(|e| fail(1, &format!("{} scenario \"{}\": {e}", self.name, spec.name)))
    }

    /// Write the canonical report (or this shard's file) into the current
    /// directory, print its path, and say where streamed traces went.
    pub fn finish(self) {
        match self.report.write(".") {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => fail(1, &format!("{}: cannot write the report: {e}", self.name)),
        }
        if let TraceOutput::Stream { dir, .. } = &self.trace {
            println!(
                "streamed per-trial traces to {} (schema: docs/TRACE_FORMAT.md)",
                dir.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_contract() {
        use ChannelModelChoice::{Capture, Geometric, Lossy};
        let plain = Accepts::SHARDS;
        let traced = Accepts::TRACES;
        let axis = Accepts::TRACES.with_model_axis("axis");
        let stream = |dir: &str, policy| TraceOutput::Stream {
            dir: PathBuf::from(dir),
            policy,
        };
        let ok = |cli: Cli| Ok::<Cli, &str>(cli);
        let shard = |index, count| Some(Shard { index, count });
        // (arguments, what the bin accepts, the parse or a piece of the
        // error message)
        let rows: Vec<(Vec<&str>, Accepts, Result<Cli, &str>)> = vec![
            (vec![], plain, ok(Cli::default())),
            (
                vec!["--shard", "2/3"],
                plain,
                ok(Cli {
                    shard: shard(2, 3),
                    ..Cli::default()
                }),
            ),
            (
                vec!["--shard=7/7", "--trace-out", "t"],
                traced,
                ok(Cli {
                    shard: shard(7, 7),
                    trace: stream("t", OverflowPolicy::Block),
                    ..Cli::default()
                }),
            ),
            (
                vec!["--merge", "shards"],
                plain,
                ok(Cli {
                    merge: Some(PathBuf::from("shards")),
                    ..Cli::default()
                }),
            ),
            (
                vec!["--merge=."],
                plain,
                ok(Cli {
                    merge: Some(PathBuf::from(".")),
                    ..Cli::default()
                }),
            ),
            // A merge of an axis report names the axis.
            (
                vec!["--merge", ".", "--channel-model", "all"],
                axis,
                ok(Cli {
                    merge: Some(PathBuf::from(".")),
                    models: Some(ChannelModelChoice::ALL.to_vec()),
                    ..Cli::default()
                }),
            ),
            // No --channel-model: the classic grid.
            (
                vec!["--shard", "1/2"],
                axis,
                ok(Cli {
                    shard: shard(1, 2),
                    ..Cli::default()
                }),
            ),
            (
                vec!["--channel-model=lossy"],
                axis,
                ok(Cli {
                    models: Some(vec![Lossy]),
                    ..Cli::default()
                }),
            ),
            (
                vec!["--channel-model", "capture,geometric"],
                axis,
                ok(Cli {
                    models: Some(vec![Capture, Geometric]),
                    ..Cli::default()
                }),
            ),
            (
                vec!["--trace-out", "traces"],
                traced,
                ok(Cli {
                    trace: stream("traces", OverflowPolicy::Block),
                    ..Cli::default()
                }),
            ),
            (
                vec!["--trace-out=traces", "--trace-lossy"],
                traced,
                ok(Cli {
                    trace: stream("traces", OverflowPolicy::DropNewest),
                    ..Cli::default()
                }),
            ),
            // The `=` form is the only way to name a directory that
            // starts with `--`.
            (
                vec!["--trace-out=--odd-dir"],
                traced,
                ok(Cli {
                    trace: stream("--odd-dir", OverflowPolicy::Block),
                    ..Cli::default()
                }),
            ),
            // --shard / --merge misuse.
            (vec!["--shard"], plain, Err("--shard needs a value")),
            (vec!["--shard", "3/2"], plain, Err("1 <= k <= N")),
            (vec!["--shard", "0/2"], plain, Err("1 <= k <= N")),
            (vec!["--shard", "1of2"], plain, Err("1 <= k <= N")),
            (vec!["--shard", "a/b"], plain, Err("1 <= k <= N")),
            (vec!["--shard", "--merge"], plain, Err("--shard=--merge")),
            (vec!["--merge"], plain, Err("--merge needs a value")),
            (
                vec!["--shard", "1/2", "--merge", "d"],
                plain,
                Err("mutually exclusive"),
            ),
            (vec!["--shard=1/0"], plain, Err("1 <= k <= N")),
            (vec!["--merge="], plain, Err("--merge= needs")),
            (vec!["--shard-exec", "2"], plain, Err("\"--shard-exec\"")),
            (vec!["--shard1/2"], plain, Err("\"--shard1/2\"")),
            (vec!["--sharding", "1/2"], plain, Err("\"--sharding\"")),
            (vec!["--merge-dir", "d"], plain, Err("\"--merge-dir\"")),
            (
                vec!["--shard", "1/2", "--shard", "2/2"],
                plain,
                Err("twice"),
            ),
            // --channel-model misuse.
            (
                vec!["--channel-model"],
                axis,
                Err("--channel-model needs a value"),
            ),
            (
                vec!["--channel-model", "--shard"],
                axis,
                Err("--channel-model=--shard"),
            ),
            (vec!["--channel-model", "fading"], axis, Err("\"fading\"")),
            (
                vec!["--channel-model", "lossy,lossy"],
                axis,
                Err("listed twice"),
            ),
            (
                vec!["--channel-model", "lossy", "--channel-model", "capture"],
                axis,
                Err("given twice"),
            ),
            (
                vec!["--channel-models", "all"],
                axis,
                Err("\"--channel-models\""),
            ),
            (
                vec!["--channel-model="],
                axis,
                Err("--channel-model= needs"),
            ),
            (
                vec!["--channel-model", "lossy"],
                traced,
                Err("\"--channel-model\" is not accepted"),
            ),
            // --trace-out / --trace-lossy misuse.
            (
                vec!["--trace-out", "--trace-lossy"],
                traced,
                Err("--trace-out=--trace-lossy"),
            ),
            (
                vec!["--trace-out"],
                traced,
                Err("--trace-out needs a value"),
            ),
            (vec!["--trace-out="], traced, Err("--trace-out= needs")),
            (
                vec!["--trace-outdir", "t"],
                traced,
                Err("\"--trace-outdir\""),
            ),
            (
                vec!["--tracelossy", "--trace-out", "t"],
                traced,
                Err("\"--tracelossy\""),
            ),
            (vec!["--trace-lossy"], traced, Err("without --trace-out")),
            (vec!["--tarce-out", "x"], traced, Err("\"--tarce-out\"")),
            (
                vec!["--trace-out", "t"],
                plain,
                Err("\"--trace-out\" is not accepted"),
            ),
            (
                vec!["--trace-lossy"],
                plain,
                Err("\"--trace-lossy\" is not accepted"),
            ),
            (
                vec!["--merge", "d", "--trace-out", "t"],
                traced,
                Err("a merge runs nothing"),
            ),
            // Positional arguments mean nothing.
            (vec!["results"], plain, Err("unknown argument \"results\"")),
            (vec!["--shard", "1/2", "2/2"], plain, Err("\"2/2\"")),
        ];
        for (args, accepts, expected) in rows {
            let args: Vec<String> = args.into_iter().map(String::from).collect();
            let parsed = Cli::parse(&args, accepts);
            match (&parsed, expected) {
                (Ok(cli), Ok(want)) => assert_eq!(cli, &want, "{args:?}"),
                (Err(err), Err(needle)) => assert!(err.contains(needle), "{args:?}: {err}"),
                _ => panic!("{args:?} under {accepts:?} parsed to {parsed:?}"),
            }
        }
    }
}
