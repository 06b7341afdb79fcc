//! The metric catalogue and the result a run prints.
//!
//! Every metric the benchmark reports is named here once, with its unit.
//! A run fills an [`Outcome`]; [`Outcome::render`] refuses to print a
//! result that misses a metric of its table or holds a non-finite value.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: its name and unit, as `BENCHMARK.json` lists them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("completions_per_s", "1/s"),
    m("rounds_per_s", "1/s"),
    m("latency_rounds_p50", "rounds"),
    m("latency_rounds_tail", "rounds"),
    m("success_share", "share"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("gateway.tick_us_p50", "us"),
    m("gateway.tick_us_p99", "us"),
    m("gateway.admit_ns_per_request", "ns"),
    m("gateway.open_sessions_ms", "ms"),
    m("gateway.worker_busy_frac_min", "share"),
    m("gateway.worker_busy_frac_max", "share"),
    m("gateway.unexplained_share", "share"),
    m("longlived.begin_round_ns", "ns"),
    m("longlived.end_round_ns", "ns"),
    m("longlived.transmits", "count"),
    m("longlived.listens", "count"),
    m("longlived.frames_received", "count"),
    m("longlived.accepts", "count"),
    m("longlived.accepts_per_frame", "ratio"),
    m("network.step_self_ns", "ns"),
    m("network.active_nodes_per_round", "count"),
    m("adversary.act_ns", "ns"),
    m("crypto.sha256_block_ns", "ns"),
    m("crypto.hmac_short_ns", "ns"),
    m("crypto.hop_ns", "ns"),
    m("crypto.seal_ns", "ns"),
    m("crypto.open_ns", "ns"),
    m("crypto.open_reject_ns", "ns"),
    m("crypto.dh_shared_key_ns", "ns"),
    m("crypto.predicted_share", "share"),
    m("group_key.part1_ms", "ms"),
    m("group_key.part2_ms", "ms"),
    m("group_key.part3_ms", "ms"),
    m("group_key.part1_rounds", "count"),
    m("group_key.part2_rounds", "count"),
    m("group_key.part3_rounds", "count"),
    m("fame.moves", "count"),
    m("fame.node_ns_per_round", "ns"),
    m("trace_overhead_share", "share"),
];

/// What one run found: correctness failures, the work attempted and
/// failed, metric values, and context lines printed before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Work items attempted (deliveries + requests, or establishments).
    pub attempted: u64,
    /// Work items that failed (undelivered, dropped, rejected, or a
    /// failed establishment).
    pub failed: u64,
    checks: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    /// Record a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks += 1;
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// Checks made so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Checks failed so far.
    pub fn failed_checks(&self) -> u64 {
        self.failures.len() as u64
    }

    /// `true` while every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Set a metric (the last value set wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set a metric unless it is already present.
    pub fn set_missing(&mut self, name: &'static str, value: f64) {
        self.metrics.entry(name).or_insert(value);
    }

    /// A metric value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Add a context line (printed before the metrics).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The printed result: context lines, failed checks, one aligned line
    /// per metric of `table`, and last the one-line JSON object.
    ///
    /// # Errors
    ///
    /// A metric of `table` is missing or not finite.
    pub fn render(&self, table: &[MetricDef]) -> Result<String, String> {
        let mut out = String::new();
        for line in &self.notes {
            writeln!(out, "# {line}").expect("write to String");
        }
        for failure in &self.failures {
            writeln!(out, "# CHECK FAILED: {failure}").expect("write to String");
        }
        let mut json = String::new();
        for (i, def) in table.iter().enumerate() {
            let value = self.get(def.name).ok_or_else(|| {
                format!(
                    "metric {} was not measured (failed checks: {:?})",
                    def.name, self.failures
                )
            })?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", def.name));
            }
            writeln!(out, "{:<34} {:>16} {}", def.name, value, def.unit).expect("write");
            if i > 0 {
                json.push_str(", ");
            }
            write!(
                json,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
            .expect("write to String");
        }
        writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
        )
        .expect("write to String");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl Iterator<Item = &'static MetricDef> {
        END_TO_END.iter().chain(PER_LAYER)
    }

    #[test]
    fn names_and_units_use_the_allowed_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for def in all() {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                def.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {}",
                def.name
            );
            assert!(
                def.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                def.unit
            );
        }
    }

    #[test]
    fn output_lists_every_metric_with_its_unit() {
        for table in [END_TO_END, PER_LAYER] {
            let mut o = Outcome {
                attempted: 3,
                ..Outcome::default()
            };
            for (i, def) in table.iter().enumerate() {
                o.set(def.name, 1.5 + i as f64);
            }
            let text = o.render(table).unwrap();
            let last = text.lines().last().unwrap();
            assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
            for def in table {
                let entry = format!("\"{}\": {{\"value\": ", def.name);
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{} missing", def.name));
                let unit = format!("\"unit\": \"{}\"}}", def.unit);
                assert!(last[at..].starts_with(&entry) && last[at..].contains(&unit));
            }
        }
    }

    #[test]
    fn missing_or_non_finite_metrics_are_refused() {
        let mut o = Outcome::default();
        assert!(o.render(END_TO_END).is_err());
        for def in END_TO_END {
            o.set(def.name, 1.0);
        }
        assert!(o.render(END_TO_END).is_ok());
        o.set("setup_s", f64::NAN);
        assert!(o.render(END_TO_END).is_err());
    }

    #[test]
    fn a_failed_check_marks_the_result_incorrect() {
        let mut o = Outcome::default();
        for def in END_TO_END {
            o.set(def.name, 1.0);
        }
        o.check(false, "delivered != expected");
        let text = o.render(END_TO_END).unwrap();
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_manifest_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside the bench");
        let listed = manifest.matches("\"name\": ").count();
        for def in all() {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Every metric plus the workloads, and nothing else.
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
    }
}
