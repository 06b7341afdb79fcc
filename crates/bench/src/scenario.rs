//! Scenario descriptions for the experiment runner: *what* to run, fully
//! parameterized and seed-deterministic, decoupled from *how* trials are
//! executed (see [`runner`](crate::runner)).

use std::path::PathBuf;

use fame::adversaries::{FeedbackPolicy, OmniscientJammer, TransmissionPolicy};
use fame::problem::AmeInstance;
use fame::{FameFrame, Params};
use radio_network::adversaries::{
    BusyChannelJammer, NoAdversary, RandomJammer, Spoofer, SweepJammer,
};
use radio_network::{
    json_escape, seed, Adversary, ChannelModelSpec, ChannelSink, OverflowPolicy, TraceSink,
};

use crate::json::{field, kind, str_field, u64_field, usize_field, Json};
use crate::workloads::{complete_pairs, disjoint_pairs, random_pairs, ring_pairs, star_pairs};

/// The message-exchange workload a scenario runs over.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `edges` random distinct ordered pairs (seeded from the scenario's
    /// base seed, so every trial sees the same instance).
    RandomPairs {
        /// Number of distinct ordered pairs.
        edges: usize,
    },
    /// The complete directed graph over all `n` nodes.
    AllToAll,
    /// `pairs` node-disjoint exchanges.
    Disjoint {
        /// Number of disjoint pairs (`2 * pairs <= n`).
        pairs: usize,
    },
    /// A directed ring over all nodes.
    Ring,
    /// A star centred on node 0 with `leaves` spokes, both directions.
    Star {
        /// Number of leaf nodes.
        leaves: usize,
    },
    /// `count` scripted broadcasts over the long-lived service (Section 7)
    /// — no AME pair list; the script is derived by the trial closure.
    Broadcasts {
        /// Number of emulated-round broadcasts.
        count: u64,
    },
    /// No AME instance — for experiments (e.g. feedback sub-protocol
    /// sweeps) that drive the stack below the AME layer.
    None,
}

impl Workload {
    /// Materialize the pair list for an `n`-node network.
    pub fn pairs(&self, n: usize, seed: u64) -> Vec<(usize, usize)> {
        match *self {
            Workload::RandomPairs { edges } => random_pairs(n, edges, seed),
            Workload::AllToAll => complete_pairs(n),
            Workload::Disjoint { pairs } => disjoint_pairs(n, pairs),
            Workload::Ring => ring_pairs(n),
            Workload::Star { leaves } => star_pairs(leaves),
            Workload::Broadcasts { .. } | Workload::None => Vec::new(),
        }
    }

    /// Short label for tables and JSON.
    pub fn label(&self) -> String {
        match *self {
            Workload::RandomPairs { edges } => format!("random-{edges}"),
            Workload::AllToAll => "all-to-all".into(),
            Workload::Disjoint { pairs } => format!("disjoint-{pairs}"),
            Workload::Ring => "ring".into(),
            Workload::Star { leaves } => format!("star-{leaves}"),
            Workload::Broadcasts { count } => format!("broadcasts-{count}"),
            Workload::None => "none".into(),
        }
    }

    /// This workload as a tagged JSON object — the exact (lossless)
    /// counterpart of the lossy display [`Workload::label`], inverted by
    /// [`Workload::from_json`]. Part of the shard-file spec encoding
    /// (`docs/BENCH_FORMAT.md`).
    pub fn json(&self) -> String {
        match *self {
            Workload::RandomPairs { edges } => {
                format!("{{\"kind\":\"random_pairs\",\"edges\":{edges}}}")
            }
            Workload::AllToAll => "{\"kind\":\"all_to_all\"}".into(),
            Workload::Disjoint { pairs } => format!("{{\"kind\":\"disjoint\",\"pairs\":{pairs}}}"),
            Workload::Ring => "{\"kind\":\"ring\"}".into(),
            Workload::Star { leaves } => format!("{{\"kind\":\"star\",\"leaves\":{leaves}}}"),
            Workload::Broadcasts { count } => {
                format!("{{\"kind\":\"broadcasts\",\"count\":{count}}}")
            }
            Workload::None => "{\"kind\":\"none\"}".into(),
        }
    }

    /// Parse a workload from the tagged object [`Workload::json`] emits.
    ///
    /// # Errors
    ///
    /// A message naming the missing/mistyped field or unknown kind.
    pub fn from_json(v: &Json) -> Result<Workload, String> {
        const CTX: &str = "workload";
        Ok(match kind(v, CTX)? {
            "random_pairs" => Workload::RandomPairs {
                edges: usize_field(v, "edges", CTX)?,
            },
            "all_to_all" => Workload::AllToAll,
            "disjoint" => Workload::Disjoint {
                pairs: usize_field(v, "pairs", CTX)?,
            },
            "ring" => Workload::Ring,
            "star" => Workload::Star {
                leaves: usize_field(v, "leaves", CTX)?,
            },
            "broadcasts" => Workload::Broadcasts {
                count: u64_field(v, "count", CTX)?,
            },
            "none" => Workload::None,
            other => return Err(format!("{CTX}: unknown kind \"{other}\"")),
        })
    }
}

/// Which attacker a scenario pits the protocol against — the full roster
/// from the disruptability experiment, constructible from a trial seed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AdversaryChoice {
    /// No interference.
    None,
    /// Jams `t` uniformly random channels per round.
    RandomJam,
    /// Deterministically sweeps channel blocks.
    SweepJam,
    /// Jams the historically busiest channels (window of recent rounds).
    BusyChannel {
        /// How many recent rounds to mine for channel usage.
        window: usize,
    },
    /// Spoofs forged vector frames on random channels.
    Spoof,
    /// Schedule-aware jammer preferring in-play edges, quiet in feedback.
    OmniPreferEdges,
    /// [`AdversaryChoice::OmniPreferEdges`] plus spoofed frames — the
    /// Theorem 2 setting: jamming and forgery from one schedule-aware
    /// attacker.
    OmniSpoof,
    /// Schedule-aware jammer preferring high-degree nodes, random feedback.
    OmniPreferNodes,
    /// Schedule-aware jammer focusing victims, sweeping feedback, spoofing.
    OmniVictimsSpoof {
        /// The victim node ids to focus on.
        victims: Vec<usize>,
    },
}

impl AdversaryChoice {
    /// Every standard attacker (as in the disruptability roster).
    pub fn roster() -> Vec<AdversaryChoice> {
        vec![
            AdversaryChoice::None,
            AdversaryChoice::RandomJam,
            AdversaryChoice::SweepJam,
            AdversaryChoice::BusyChannel { window: 8 },
            AdversaryChoice::Spoof,
            AdversaryChoice::OmniPreferEdges,
            AdversaryChoice::OmniSpoof,
            AdversaryChoice::OmniPreferNodes,
            AdversaryChoice::OmniVictimsSpoof {
                victims: vec![0, 1, 2, 3],
            },
        ]
    }

    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryChoice::None => "none",
            AdversaryChoice::RandomJam => "random-jammer",
            AdversaryChoice::SweepJam => "sweep-jammer",
            AdversaryChoice::BusyChannel { .. } => "busy-channel",
            AdversaryChoice::Spoof => "spoofer",
            AdversaryChoice::OmniPreferEdges => "omni/prefer-edges",
            AdversaryChoice::OmniSpoof => "omni/prefer-edges+spoof",
            AdversaryChoice::OmniPreferNodes => "omni/prefer-nodes",
            AdversaryChoice::OmniVictimsSpoof { .. } => "omni/victims+spoof",
        }
    }

    /// This choice as a tagged JSON object — lossless, unlike
    /// [`AdversaryChoice::label`] (which collapses `BusyChannel`'s window
    /// and `OmniVictimsSpoof`'s victim list). Inverted by
    /// [`AdversaryChoice::from_json`].
    pub fn json(&self) -> String {
        match self {
            AdversaryChoice::None => "{\"kind\":\"none\"}".into(),
            AdversaryChoice::RandomJam => "{\"kind\":\"random_jam\"}".into(),
            AdversaryChoice::SweepJam => "{\"kind\":\"sweep_jam\"}".into(),
            AdversaryChoice::BusyChannel { window } => {
                format!("{{\"kind\":\"busy_channel\",\"window\":{window}}}")
            }
            AdversaryChoice::Spoof => "{\"kind\":\"spoof\"}".into(),
            AdversaryChoice::OmniPreferEdges => "{\"kind\":\"omni_prefer_edges\"}".into(),
            AdversaryChoice::OmniSpoof => "{\"kind\":\"omni_spoof\"}".into(),
            AdversaryChoice::OmniPreferNodes => "{\"kind\":\"omni_prefer_nodes\"}".into(),
            AdversaryChoice::OmniVictimsSpoof { victims } => {
                let victims: Vec<String> = victims.iter().map(ToString::to_string).collect();
                format!(
                    "{{\"kind\":\"omni_victims_spoof\",\"victims\":[{}]}}",
                    victims.join(",")
                )
            }
        }
    }

    /// Parse a choice from the tagged object [`AdversaryChoice::json`]
    /// emits.
    ///
    /// # Errors
    ///
    /// A message naming the missing/mistyped field or unknown kind.
    pub fn from_json(v: &Json) -> Result<AdversaryChoice, String> {
        const CTX: &str = "adversary";
        Ok(match kind(v, CTX)? {
            "none" => AdversaryChoice::None,
            "random_jam" => AdversaryChoice::RandomJam,
            "sweep_jam" => AdversaryChoice::SweepJam,
            "busy_channel" => AdversaryChoice::BusyChannel {
                window: usize_field(v, "window", CTX)?,
            },
            "spoof" => AdversaryChoice::Spoof,
            "omni_prefer_edges" => AdversaryChoice::OmniPreferEdges,
            "omni_spoof" => AdversaryChoice::OmniSpoof,
            "omni_prefer_nodes" => AdversaryChoice::OmniPreferNodes,
            "omni_victims_spoof" => {
                let victims = field(v, "victims", CTX)?
                    .as_array()
                    .ok_or_else(|| format!("{CTX}: field \"victims\" is not an array"))?
                    .iter()
                    .map(|x| {
                        x.as_usize()
                            .ok_or_else(|| format!("{CTX}: victim is not an unsigned integer"))
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
                AdversaryChoice::OmniVictimsSpoof { victims }
            }
            other => return Err(format!("{CTX}: unknown kind \"{other}\"")),
        })
    }

    /// Build the attacker for one trial.
    pub fn build(
        &self,
        params: &Params,
        pairs: &[(usize, usize)],
        seed: u64,
    ) -> Box<dyn Adversary<FameFrame>> {
        match self {
            AdversaryChoice::None => Box::new(NoAdversary),
            AdversaryChoice::RandomJam => Box::new(RandomJammer::new(seed)),
            AdversaryChoice::SweepJam => Box::new(SweepJammer::new()),
            AdversaryChoice::BusyChannel { window } => {
                Box::new(BusyChannelJammer::new(seed, *window))
            }
            AdversaryChoice::Spoof => {
                let forged = FameFrame::Vector {
                    owner: 0,
                    messages: [(1usize, b"forged".to_vec())].into_iter().collect(),
                };
                Box::new(Spoofer::new(seed, move |_, _| forged.clone()))
            }
            AdversaryChoice::OmniPreferEdges => Box::new(OmniscientJammer::new(
                params,
                pairs,
                TransmissionPolicy::PreferEdges,
                FeedbackPolicy::Quiet,
                seed,
            )),
            AdversaryChoice::OmniSpoof => Box::new(
                OmniscientJammer::new(
                    params,
                    pairs,
                    TransmissionPolicy::PreferEdges,
                    FeedbackPolicy::Quiet,
                    seed,
                )
                .with_spoofing(),
            ),
            AdversaryChoice::OmniPreferNodes => Box::new(OmniscientJammer::new(
                params,
                pairs,
                TransmissionPolicy::PreferNodes,
                FeedbackPolicy::Random,
                seed,
            )),
            AdversaryChoice::OmniVictimsSpoof { victims } => Box::new(
                OmniscientJammer::new(
                    params,
                    pairs,
                    TransmissionPolicy::Victims(victims.clone()),
                    FeedbackPolicy::Sweep,
                    seed,
                )
                .with_spoofing(),
            ),
        }
    }
}

/// Where a scenario's execution traces go.
///
/// The default keeps traces in memory per the executing layer's retention
/// policy (bounded windows for multi-trial sweeps). [`TraceOutput::Stream`]
/// additionally streams every round record to a line-delimited JSON file
/// per trial via a [`ChannelSink`] — serialization and I/O run on a
/// background writer thread, off the round loop. The schema is specified
/// in `docs/TRACE_FORMAT.md`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum TraceOutput {
    /// In-memory only (the executing layer's retention policy applies).
    #[default]
    Memory,
    /// Stream each trial's trace to `<dir>/<scenario-slug>.trial<k>.jsonl`.
    Stream {
        /// Directory for the trace files (created if missing).
        dir: PathBuf,
        /// What to do when the writer falls behind the round loop:
        /// lossless backpressure or counted drops.
        policy: OverflowPolicy,
    },
}

impl TraceOutput {
    /// `true` when trials stream their traces to files.
    pub fn is_stream(&self) -> bool {
        matches!(self, TraceOutput::Stream { .. })
    }

    /// This output as a tagged JSON object (part of the shard-file spec
    /// encoding). Inverted by [`TraceOutput::from_json`]; non-UTF-8
    /// stream directories are encoded lossily.
    pub fn json(&self) -> String {
        match self {
            TraceOutput::Memory => "{\"kind\":\"memory\"}".into(),
            TraceOutput::Stream { dir, policy } => {
                let policy = match policy {
                    OverflowPolicy::Block => "block",
                    OverflowPolicy::DropNewest => "drop_newest",
                };
                format!(
                    "{{\"kind\":\"stream\",\"dir\":\"{}\",\"policy\":\"{policy}\"}}",
                    json_escape(&dir.to_string_lossy())
                )
            }
        }
    }

    /// Parse an output from the tagged object [`TraceOutput::json`]
    /// emits.
    ///
    /// # Errors
    ///
    /// A message naming the missing/mistyped field or unknown kind.
    pub fn from_json(v: &Json) -> Result<TraceOutput, String> {
        const CTX: &str = "trace";
        Ok(match kind(v, CTX)? {
            "memory" => TraceOutput::Memory,
            "stream" => TraceOutput::Stream {
                dir: PathBuf::from(str_field(v, "dir", CTX)?),
                policy: match str_field(v, "policy", CTX)? {
                    "block" => OverflowPolicy::Block,
                    "drop_newest" => OverflowPolicy::DropNewest,
                    other => return Err(format!("{CTX}: unknown policy \"{other}\"")),
                },
            },
            other => return Err(format!("{CTX}: unknown kind \"{other}\"")),
        })
    }
}

/// Bounded queue capacity (records) between a trial's round loop and its
/// trace-writer thread under [`TraceOutput::Stream`].
pub const TRACE_QUEUE_CAPACITY: usize = 1024;

/// A fully parameterized experiment point: one network configuration, one
/// workload, one adversary, `trials` independent repetitions.
///
/// Everything downstream — per-trial seeds, the workload instance, the
/// attacker — derives deterministically from `base_seed`, so a scenario is
/// a pure description: running it twice (sequentially or in parallel)
/// yields bit-identical results.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioSpec {
    /// Scenario name (also the row label in reports).
    pub name: String,
    /// Honest node count `n`.
    pub n: usize,
    /// Adversary budget `t`.
    pub t: usize,
    /// Channel count `C` (`t < C`).
    pub channels: usize,
    /// The exchange workload.
    pub workload: Workload,
    /// The attacker.
    pub adversary: AdversaryChoice,
    /// Independent repetitions.
    pub trials: usize,
    /// Root of the scenario's deterministic seed tree.
    pub base_seed: u64,
    /// Where execution traces go (in memory, or streamed to files).
    pub trace: TraceOutput,
    /// The physical-layer channel model the trials run under
    /// ([`ChannelModelSpec::Ideal`] by default — the paper's §3
    /// semantics).
    pub channel_model: ChannelModelSpec,
}

impl ScenarioSpec {
    /// A scenario at explicit `(n, t, C)`.
    ///
    /// `n` is stored verbatim — it is what the trial simulates and what
    /// reports emit. The fame-layer helpers go through
    /// [`ScenarioSpec::params`], which *rejects* an `n` below the
    /// protocol's minimum admissible node count rather than silently
    /// inflating it (size the spec via [`Regime::params`](crate::Regime::params)
    /// or [`Params::min_nodes`]); custom trial closures that bypass `params`
    /// may use any `n` their own simulation accepts.
    pub fn new(name: impl Into<String>, n: usize, t: usize, channels: usize) -> Self {
        ScenarioSpec {
            name: name.into(),
            n,
            t,
            channels,
            workload: Workload::AllToAll,
            adversary: AdversaryChoice::RandomJam,
            trials: 1,
            base_seed: 0,
            trace: TraceOutput::Memory,
            channel_model: ChannelModelSpec::Ideal,
        }
    }

    /// Set the workload.
    #[must_use]
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Set the adversary.
    #[must_use]
    pub fn with_adversary(mut self, adversary: AdversaryChoice) -> Self {
        self.adversary = adversary;
        self
    }

    /// Set the number of trials.
    #[must_use]
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Set the base seed.
    #[must_use]
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Set the trace output (see [`TraceOutput`]).
    #[must_use]
    pub fn with_trace_output(mut self, trace: TraceOutput) -> Self {
        self.trace = trace;
        self
    }

    /// Set the physical-layer channel model (see [`ChannelModelSpec`]).
    #[must_use]
    pub fn with_channel_model(mut self, model: ChannelModelSpec) -> Self {
        self.channel_model = model;
        self
    }

    /// The trace-file path trial `trial` streams to under
    /// [`TraceOutput::Stream`] (`None` for in-memory scenarios). The file
    /// name is the scenario name with non-alphanumeric characters mapped
    /// to `-`, plus an 8-hex-digit hash of the **exact** name: the slug
    /// alone is lossy (`fame:n=64` and `fame-n-64` slug identically), and
    /// two scenarios streaming into one `--trace-out` directory used to
    /// silently interleave-clobber each other's `.jsonl` files. Distinct
    /// names now get distinct files.
    pub fn trace_path(&self, trial: usize) -> Option<PathBuf> {
        let TraceOutput::Stream { dir, .. } = &self.trace else {
            return None;
        };
        let slug: String = self
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        // FNV-1a, folded to 32 bits — collision-safe at per-directory
        // scenario counts, and short enough to keep file names readable.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let disambiguator = (hash ^ (hash >> 32)) & 0xffff_ffff;
        Some(dir.join(format!("{slug}-{disambiguator:08x}.trial{trial}.jsonl")))
    }

    /// Build the per-trial streaming sink this spec requests, if any.
    /// The sink only observes, so a streamed trial runs bit-identically to
    /// a non-streamed one. Frames are rendered with their `Debug` form, as
    /// `docs/TRACE_FORMAT.md` specifies.
    ///
    /// # Errors
    ///
    /// Directory/file creation errors.
    pub fn trial_sink<M>(&self, trial: usize) -> std::io::Result<Option<Box<dyn TraceSink<M>>>>
    where
        M: Clone + std::fmt::Debug + Send + 'static,
    {
        let TraceOutput::Stream { dir, policy } = &self.trace else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = self.trace_path(trial).expect("stream output has a path");
        let sink = ChannelSink::create(path, TRACE_QUEUE_CAPACITY, *policy)?;
        // Non-ideal models stamp the trace with a header line so a replay
        // can rebuild the exact network (docs/TRACE_FORMAT.md); ideal
        // traces stay headerless, byte-identical to the pre-model format.
        let sink = if self.channel_model.is_ideal() {
            sink
        } else {
            sink.with_header(self.channel_model.header_line())
        };
        Ok(Some(Box::new(sink)))
    }

    /// Validated protocol parameters for this scenario, at exactly
    /// [`ScenarioSpec::n`] nodes.
    ///
    /// # Panics
    ///
    /// Panics on invalid `(n, t, C)` combinations — scenario construction
    /// is harness configuration, not user input. In particular an `n`
    /// below [`Params::min_nodes`] is rejected, **not** silently inflated:
    /// a silently resized network would leave `BENCH_*.json` describing a
    /// run that never happened. Size the spec explicitly with
    /// [`Regime::params`](crate::Regime::params) or [`Params::min_nodes`].
    pub fn params(&self) -> Params {
        let min = Params::min_nodes(self.t, self.channels);
        assert!(
            self.n >= min,
            "scenario '{}' requests n={} below Params::min_nodes({}, {}) = {min}; \
             size the spec explicitly (Regime::params or Params::min_nodes)",
            self.name,
            self.n,
            self.t,
            self.channels,
        );
        Params::new(self.n, self.t, self.channels)
            .expect("scenario params valid")
            .with_channel_model(self.channel_model.clone())
    }

    /// The seed stream for trial `trial` (stream 0 is reserved for the
    /// workload, so trials start at stream 1).
    pub fn trial_seed(&self, trial: usize) -> u64 {
        seed::derive(self.base_seed, trial as u64 + 1)
    }

    /// The workload's pair list — identical across all trials of this
    /// scenario (only protocol/adversary coins vary per trial).
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        self.workload
            .pairs(self.params().n(), seed::derive(self.base_seed, 0))
    }

    /// The AME instance for this scenario.
    ///
    /// # Panics
    ///
    /// Panics if the workload produces an invalid instance (harness
    /// configuration error).
    pub fn instance(&self) -> AmeInstance {
        AmeInstance::new(self.params().n(), self.pairs()).expect("scenario instance valid")
    }

    /// This spec as a single-line JSON object, in the workspace's
    /// hand-rolled no-serde style (cf.
    /// [`BenchReport::json`](crate::BenchReport::json)). Lossless:
    /// [`ScenarioSpec::from_json`]
    /// reconstructs an equal spec, which is what lets a merged shard
    /// report re-emit rows byte-identically to an unsharded run
    /// (`docs/BENCH_FORMAT.md`, *Shard files*).
    pub fn json(&self) -> String {
        // The channel model is appended only when non-ideal, so every
        // pre-model spec encoding (committed shard files, corpus
        // sidecars, grid fingerprints) stays byte-identical.
        let model = if self.channel_model.is_ideal() {
            String::new()
        } else {
            format!(",\"channel_model\":{}", self.channel_model.json())
        };
        format!(
            "{{\"name\":\"{}\",\"n\":{},\"t\":{},\"channels\":{},\"workload\":{},\
             \"adversary\":{},\"trials\":{},\"base_seed\":{},\"trace\":{}{}}}",
            json_escape(&self.name),
            self.n,
            self.t,
            self.channels,
            self.workload.json(),
            self.adversary.json(),
            self.trials,
            self.base_seed,
            self.trace.json(),
            model,
        )
    }

    /// Parse a spec from the object [`ScenarioSpec::json`] emits.
    ///
    /// # Errors
    ///
    /// A message naming the missing/mistyped field — including any
    /// *unknown* field: a spec written by a newer binary (say, with a
    /// `channel_model` this one does not know) must fail loudly, never
    /// silently run a different experiment than the file describes.
    pub fn from_json(v: &Json) -> Result<ScenarioSpec, String> {
        const CTX: &str = "scenario spec";
        const KNOWN: &[&str] = &[
            "name",
            "n",
            "t",
            "channels",
            "workload",
            "adversary",
            "trials",
            "base_seed",
            "trace",
            "channel_model",
        ];
        if let Json::Obj(fields) = v {
            for (key, _) in fields {
                if !KNOWN.contains(&key.as_str()) {
                    return Err(format!("{CTX}: unknown field \"{key}\""));
                }
            }
        }
        let channel_model = match v.get("channel_model") {
            None => ChannelModelSpec::Ideal,
            Some(m) => channel_model_from_json(m)?,
        };
        Ok(ScenarioSpec {
            name: str_field(v, "name", CTX)?.to_string(),
            n: usize_field(v, "n", CTX)?,
            t: usize_field(v, "t", CTX)?,
            channels: usize_field(v, "channels", CTX)?,
            workload: Workload::from_json(field(v, "workload", CTX)?)?,
            adversary: AdversaryChoice::from_json(field(v, "adversary", CTX)?)?,
            trials: usize_field(v, "trials", CTX)?,
            base_seed: u64_field(v, "base_seed", CTX)?,
            trace: TraceOutput::from_json(field(v, "trace", CTX)?)?,
            channel_model,
        })
    }
}

/// Parse a [`ChannelModelSpec`] from the tagged object
/// [`ChannelModelSpec::json`] emits (also the payload of a trace file's
/// `{"channel_model":…}` header line — see `docs/TRACE_FORMAT.md`).
///
/// # Errors
///
/// A message naming the missing/mistyped field or unknown kind.
pub fn channel_model_from_json(v: &Json) -> Result<ChannelModelSpec, String> {
    const CTX: &str = "channel model";
    Ok(match kind(v, CTX)? {
        "ideal" => ChannelModelSpec::Ideal,
        "lossy" => ChannelModelSpec::Lossy {
            p_loss_ppm: u64_field(v, "p_loss_ppm", CTX)?
                .try_into()
                .map_err(|_| format!("{CTX}: field \"p_loss_ppm\" does not fit in u32"))?,
        },
        "capture" => ChannelModelSpec::Capture {
            threshold: u64_field(v, "threshold", CTX)?
                .try_into()
                .map_err(|_| format!("{CTX}: field \"threshold\" does not fit in u32"))?,
        },
        "geometric" => {
            let radius = u64_field(v, "radius", CTX)?;
            let positions = field(v, "positions", CTX)?
                .as_array()
                .ok_or_else(|| format!("{CTX}: field \"positions\" is not an array"))?
                .iter()
                .map(|p| {
                    let pair = p
                        .as_array()
                        .filter(|xy| xy.len() == 2)
                        .ok_or_else(|| format!("{CTX}: position is not an [x,y] pair"))?;
                    let coord = |v: &Json| {
                        v.as_i64()
                            .ok_or_else(|| format!("{CTX}: coordinate is not an integer"))
                    };
                    Ok((coord(&pair[0])?, coord(&pair[1])?))
                })
                .collect::<Result<Vec<(i64, i64)>, String>>()?;
            ChannelModelSpec::Geometric { positions, radius }
        }
        other => return Err(format!("{CTX}: unknown kind \"{other}\"")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_pairs_deterministic() {
        let w = Workload::RandomPairs { edges: 12 };
        assert_eq!(w.pairs(20, 7), w.pairs(20, 7));
        assert_ne!(w.pairs(20, 7), w.pairs(20, 8));
        assert_eq!(w.pairs(20, 7).len(), 12);
        assert_eq!(Workload::AllToAll.pairs(5, 0).len(), 20);
        assert!(Workload::None.pairs(5, 0).is_empty());
        assert!(Workload::Broadcasts { count: 9 }.pairs(5, 0).is_empty());
        assert_eq!(Workload::Broadcasts { count: 9 }.label(), "broadcasts-9");
    }

    #[test]
    fn spec_seed_streams_are_distinct() {
        let spec = ScenarioSpec::new("s", 40, 2, 3).with_seed(99);
        let mut seeds: Vec<u64> = (0..50).map(|i| spec.trial_seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 50);
        // Same instance for every trial.
        assert_eq!(spec.pairs(), spec.pairs());
    }

    #[test]
    fn roster_builds_against_params() {
        let spec = ScenarioSpec::new("s", 40, 2, 3)
            .with_workload(Workload::RandomPairs { edges: 10 })
            .with_seed(3);
        let p = spec.params();
        let pairs = spec.pairs();
        for choice in AdversaryChoice::roster() {
            let _ = choice.build(&p, &pairs, 42);
            assert!(!choice.label().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "below Params::min_nodes")]
    fn params_rejects_undersized_n() {
        let _ = ScenarioSpec::new("s", 1, 2, 3).params();
    }

    #[test]
    fn params_keeps_admissible_n_verbatim() {
        let n = Params::min_nodes(2, 3) + 5;
        assert_eq!(ScenarioSpec::new("s", n, 2, 3).params().n(), n);
    }

    #[test]
    fn trace_paths_distinguish_colliding_slugs() {
        // Regression: both names slug to `fame-n-64`, so they used to
        // stream to the same trial files and silently clobber each other.
        let stream = TraceOutput::Stream {
            dir: PathBuf::from("traces"),
            policy: OverflowPolicy::Block,
        };
        let a = ScenarioSpec::new("fame:n=64", 40, 2, 3).with_trace_output(stream.clone());
        let b = ScenarioSpec::new("fame-n-64", 40, 2, 3).with_trace_output(stream.clone());
        let (pa, pb) = (a.trace_path(0).unwrap(), b.trace_path(0).unwrap());
        assert_ne!(pa, pb);
        for p in [&pa, &pb] {
            let name = p.file_name().unwrap().to_str().unwrap();
            assert!(name.starts_with("fame-n-64-"), "{name}");
            assert!(name.ends_with(".trial0.jsonl"), "{name}");
        }
        // Deterministic across calls and trials share the scenario stem.
        assert_eq!(pa, a.trace_path(0).unwrap());
        assert_ne!(pa, a.trace_path(1).unwrap());
        assert_eq!(ScenarioSpec::new("x", 4, 1, 2).trace_path(0), None);
    }

    #[test]
    fn spec_json_round_trips() {
        let workloads = [
            Workload::RandomPairs { edges: 24 },
            Workload::AllToAll,
            Workload::Disjoint { pairs: 3 },
            Workload::Ring,
            Workload::Star { leaves: 5 },
            Workload::Broadcasts { count: 9 },
            Workload::None,
        ];
        let traces = [
            TraceOutput::Memory,
            TraceOutput::Stream {
                dir: PathBuf::from("traces/deep dir"),
                policy: OverflowPolicy::Block,
            },
            TraceOutput::Stream {
                dir: PathBuf::from("t"),
                policy: OverflowPolicy::DropNewest,
            },
        ];
        let models = [
            ChannelModelSpec::Ideal,
            ChannelModelSpec::Lossy { p_loss_ppm: 50_000 },
            ChannelModelSpec::Capture { threshold: 128 },
            ChannelModelSpec::Geometric {
                positions: vec![(0, 0), (2, -3), (-7, 5)],
                radius: 4,
            },
        ];
        let mut count = 0;
        for workload in &workloads {
            for adversary in AdversaryChoice::roster() {
                for trace in &traces {
                    for model in &models {
                        let spec = ScenarioSpec::new("E5 \"naïve\"\tt=2", 40, 2, 3)
                            .with_workload(workload.clone())
                            .with_adversary(adversary.clone())
                            .with_trials(17)
                            .with_seed(u64::MAX - 3)
                            .with_trace_output(trace.clone())
                            .with_channel_model(model.clone());
                        let parsed =
                            ScenarioSpec::from_json(&Json::parse(&spec.json()).unwrap()).unwrap();
                        assert_eq!(parsed, spec);
                        // The pre-model encoding is preserved verbatim:
                        // ideal specs never mention the model.
                        assert_eq!(
                            spec.json().contains("channel_model"),
                            !model.is_ideal(),
                            "{}",
                            spec.json()
                        );
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(
            count,
            workloads.len() * AdversaryChoice::roster().len() * 3 * 4
        );
    }

    #[test]
    fn spec_from_json_names_bad_fields() {
        let spec = ScenarioSpec::new("s", 40, 2, 3);
        let good = Json::parse(&spec.json()).unwrap();
        let err = ScenarioSpec::from_json(&Json::parse("{}").unwrap()).unwrap_err();
        assert!(err.contains("\"name\""), "{err}");
        // Unknown adversary kind is named.
        let doc = spec.json().replace("random_jam", "quantum_jam");
        let err = ScenarioSpec::from_json(&Json::parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("quantum_jam"), "{err}");
        assert!(ScenarioSpec::from_json(&good).is_ok());
        // Unknown top-level fields are a hard error naming the field —
        // a spec from a newer binary must never silently degrade.
        let doc = spec.json().replace("\"trials\"", "\"channel_mode1\"");
        let err = ScenarioSpec::from_json(&Json::parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("channel_mode1"), "{err}");
        // Unknown channel-model kinds are named too.
        let doc = spec.json().replace(
            "\"trace\":",
            "\"channel_model\":{\"kind\":\"quantum\"},\"trace\":",
        );
        let err = ScenarioSpec::from_json(&Json::parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("quantum"), "{err}");
    }

    #[test]
    fn channel_model_json_round_trips() {
        let models = [
            ChannelModelSpec::Ideal,
            ChannelModelSpec::Lossy { p_loss_ppm: 1 },
            ChannelModelSpec::Capture { threshold: 1023 },
            ChannelModelSpec::Geometric {
                positions: vec![(i64::MIN, i64::MAX), (0, -1)],
                radius: u64::MAX,
            },
        ];
        for model in &models {
            let parsed = channel_model_from_json(&Json::parse(&model.json()).unwrap()).unwrap();
            assert_eq!(&parsed, model);
        }
        // Malformed positions are refused with context.
        let err = channel_model_from_json(
            &Json::parse("{\"kind\":\"geometric\",\"radius\":2,\"positions\":[[1]]}").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("[x,y]"), "{err}");
    }

    #[test]
    fn params_carry_the_channel_model() {
        let model = ChannelModelSpec::Lossy { p_loss_ppm: 9 };
        let spec = ScenarioSpec::new("s", 40, 2, 3).with_channel_model(model.clone());
        assert_eq!(spec.params().channel_model(), &model);
    }
}
