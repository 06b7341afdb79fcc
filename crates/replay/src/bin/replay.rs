//! The differential trace replayer.
//!
//! ```text
//! replay --trace <file.jsonl> [--meta <file>] [--protocol fame|longlived]
//!        [--engine dense|sparse|both] [--expect-identical] [--allow-gaps]
//!        [--mutate <round>]
//! replay --regen <dir>
//! ```
//!
//! Replays a recorded trace through the [`replay::ScriptedAdversary`]
//! against the honest side described by the trace's `.meta.json`
//! sidecar, and compares the re-encoded rounds byte-for-byte —
//! `--engine dense` through the independent
//! `radio_network::testing::ReferenceNetwork` oracle, `sparse` through
//! the production engine, `both` (the default) through each. On a
//! mismatch, the first divergent round is printed with both records
//! pretty-printed; with `--expect-identical` that is also a non-zero
//! exit. `--mutate <round>` corrupts the expected side of one round
//! first — the self-check that the differ really bisects to the exact
//! round. `--regen <dir>` re-records the whole golden corpus.

use std::path::PathBuf;
use std::process::ExitCode;

use replay::corpus::{meta_path, regen_corpus, validate_corpus_entry};
use replay::{compare, CorpusScenario, EngineMode, GapPolicy, TraceFile};

struct Options {
    trace: Option<PathBuf>,
    meta: Option<PathBuf>,
    protocol: Option<String>,
    engines: Vec<EngineMode>,
    expect_identical: bool,
    allow_gaps: bool,
    mutate: Option<u64>,
    regen: Option<PathBuf>,
}

const USAGE: &str = "usage: replay --trace <file.jsonl> [--meta <file>] \
                     [--protocol fame|longlived] [--engine dense|sparse|both] \
                     [--expect-identical] [--allow-gaps] [--mutate <round>]\n       \
                     replay --regen <dir>";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        trace: None,
        meta: None,
        protocol: None,
        engines: vec![EngineMode::Dense, EngineMode::Sparse],
        expect_identical: false,
        allow_gaps: false,
        mutate: None,
        regen: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--trace" => opts.trace = Some(PathBuf::from(value("--trace")?)),
            "--meta" => opts.meta = Some(PathBuf::from(value("--meta")?)),
            "--protocol" => opts.protocol = Some(value("--protocol")?),
            "--engine" => {
                opts.engines = match value("--engine")?.as_str() {
                    "dense" => vec![EngineMode::Dense],
                    "sparse" => vec![EngineMode::Sparse],
                    "both" => vec![EngineMode::Dense, EngineMode::Sparse],
                    other => return Err(format!("unknown engine \"{other}\"\n{USAGE}")),
                }
            }
            "--expect-identical" => opts.expect_identical = true,
            "--allow-gaps" => opts.allow_gaps = true,
            "--mutate" => {
                let round = value("--mutate")?;
                opts.mutate = Some(
                    round
                        .parse::<u64>()
                        .map_err(|e| format!("--mutate {round}: {e}"))?,
                );
            }
            "--regen" => opts.regen = Some(PathBuf::from(value("--regen")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument \"{other}\"\n{USAGE}")),
        }
    }
    if opts.trace.is_none() && opts.regen.is_none() {
        return Err(format!("one of --trace or --regen is required\n{USAGE}"));
    }
    Ok(opts)
}

fn protocol_kind(scenario: &CorpusScenario) -> &'static str {
    match scenario {
        CorpusScenario::Fame { .. } => "fame",
        CorpusScenario::LongLived { .. } => "longlived",
        CorpusScenario::Gateway { .. } => "gateway",
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    if let Some(dir) = &opts.regen {
        let written = regen_corpus(dir)?;
        for path in &written {
            println!("recorded {}", path.display());
        }
        println!(
            "regenerated {} corpus trace(s) in {}",
            written.len(),
            dir.display()
        );
        return Ok(true);
    }

    let trace_path = opts.trace.as_deref().expect("checked in parse_args");
    let meta = opts.meta.clone().unwrap_or_else(|| meta_path(trace_path));
    let meta_text = std::fs::read_to_string(&meta)
        .map_err(|e| format!("read sidecar {}: {e}", meta.display()))?;
    let scenario = CorpusScenario::from_json_str(meta_text.trim())?;
    if let Some(expected) = &opts.protocol {
        let actual = protocol_kind(&scenario);
        if expected != actual {
            return Err(format!(
                "--protocol {expected} does not match the sidecar ({actual})"
            ));
        }
    }

    let policy = if opts.allow_gaps {
        GapPolicy::Skip
    } else {
        GapPolicy::Reject
    };
    let mut trace = TraceFile::load(trace_path, policy)?;
    if let Some(round) = opts.mutate {
        trace.mutate_round(round)?;
        println!("mutated expected side of round {round} (negative control)");
    }
    println!(
        "replaying {} ({}, {} recorded round(s), {} skipped)",
        trace_path.display(),
        scenario.label(),
        trace.records.len(),
        trace.skipped,
    );

    let mut identical = true;
    for &engine in &opts.engines {
        let replayed = scenario.replay(&trace, engine)?;
        let report = compare(&trace, &replayed);
        match &report.divergence {
            None => println!(
                "[{}] identical: {} round(s) byte-for-byte",
                engine.label(),
                report.rounds_compared
            ),
            Some(div) => {
                identical = false;
                println!("[{}] {}", engine.label(), div.render());
            }
        }
    }
    Ok(identical)
}

/// Validate a corpus entry statically (used by `--trace` runs on corpus
/// files as a cheap pre-check when the trace has no gaps).
fn static_check(opts: &Options) {
    let (Some(trace_path), None, false) = (opts.trace.as_deref(), opts.mutate, opts.allow_gaps)
    else {
        return;
    };
    let meta = opts.meta.clone().unwrap_or_else(|| meta_path(trace_path));
    if let (Ok(trace_text), Ok(meta_text)) = (
        std::fs::read_to_string(trace_path),
        std::fs::read_to_string(&meta),
    ) {
        if let Err(e) = validate_corpus_entry(&trace_text, &meta_text) {
            eprintln!("warning: corpus schema check: {e}");
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    static_check(&opts);
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            if opts.expect_identical {
                eprintln!("replay diverged and --expect-identical was set");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
