//! The repository benchmark: served long-lived sessions and group-key
//! setup, with a per-layer ledger timed from outside the library.
//!
//! Run `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <name> --seed <n> --seconds <s> --trace <0|1>` from the
//! repository root. An untraced run (`--trace 0`) prints the end-to-end
//! metrics, a traced run (`--trace 1`) the per-layer ledger (both tables
//! are in `report.rs`). The last line of
//! standard output is one JSON object; `LEDGER.md` maps every metric to
//! the public call it times.

mod adapters;
mod crypto_costs;
mod gateway_bench;
mod group_key_bench;
mod report;
mod stats;

use report::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["gateway-quiet", "gateway-jammed", "group-key-setup"];

/// Jamming intensity of `gateway-jammed` (channels per round, = t).
pub const JAMMED_INTENSITY: usize = 2;

/// Sessions of the gateway probe a `group-key-setup` traced run adds for
/// the gateway layers it does not drive itself.
const GATEWAY_PROBE_SESSIONS: usize = 8;

/// Establishments of the group-key probe a gateway traced run adds for
/// the group-key layers it does not drive itself.
const GROUP_KEY_PROBE: usize = 1;

/// One invocation's arguments.
#[derive(Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the untraced run measures for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A missing, unknown or malformed argument.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(format!("unknown workload {value}")),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    });
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Run one invocation and render its result.
///
/// Returns whether every correctness check passed, and the text to print
/// (its last line is the JSON result).
///
/// # Errors
///
/// A library error, or a result missing a metric.
pub fn execute(args: &Args) -> Result<(bool, String), String> {
    let mut out = match (args.workload.as_str(), args.trace) {
        ("gateway-quiet", false) => {
            gateway_bench::run(args.seed, 0, args.seconds).map_err(|e| e.to_string())?
        }
        ("gateway-jammed", false) => gateway_bench::run(args.seed, JAMMED_INTENSITY, args.seconds)
            .map_err(|e| e.to_string())?,
        ("group-key-setup", false) => {
            group_key_bench::run(args.seed, args.seconds).map_err(|e| e.to_string())?
        }
        (name, true) => traced(name, args.seed)?,
        (name, false) => return Err(format!("unknown workload {name}")),
    };
    out.note(format!(
        "host_threads={} workload={} seed={} seconds={} trace={}",
        stats::host_threads(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    Ok((out.correct(), out.render(table)?))
}

/// The traced run: crypto unit costs, then the workload's own ledger,
/// then a small probe for the layers the workload does not drive (so
/// every traced run prints the whole ledger). Its `attempted` and
/// `failed` count the replay checks made and failed.
fn traced(workload: &str, seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let crypto = crypto_costs::measure(&mut out);
    let establishments = group_key_bench::traced_seeds(seed);
    let service_seed = gateway_bench::service_seeds(seed)[0];
    if workload == "group-key-setup" {
        group_key_bench::ledger(&establishments, &mut out).map_err(|e| e.to_string())?;
        let probe = gateway_bench::config(service_seed, JAMMED_INTENSITY, GATEWAY_PROBE_SESSIONS);
        out.note(format!(
            "gateway.* longlived.* crypto.predicted_share: from a {GATEWAY_PROBE_SESSIONS}-session \
             gateway-jammed probe"
        ));
        gateway_bench::ledger(&probe, &crypto, &mut out).map_err(|e| e.to_string())?;
    } else {
        let intensity = if workload == "gateway-quiet" {
            0
        } else {
            JAMMED_INTENSITY
        };
        let cfg = gateway_bench::config(service_seed, intensity, gateway_bench::SESSIONS);
        gateway_bench::ledger(&cfg, &crypto, &mut out).map_err(|e| e.to_string())?;
        out.note(format!(
            "group_key.* fame.*: from a {GROUP_KEY_PROBE}-establishment group-key-setup probe"
        ));
        group_key_bench::ledger(&establishments[..GROUP_KEY_PROBE], &mut out)
            .map_err(|e| e.to_string())?;
    }
    out.attempted = out.checks();
    out.failed = out.failed_checks();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "gateway-jammed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "gateway-jammed");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "gateway-quiet",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "gateway-quiet", "--seed", "1", "--trace", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "gateway-quiet",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
