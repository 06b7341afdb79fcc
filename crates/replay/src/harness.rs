//! Protocol-aware replay: rebuild the exact honest-side run a corpus
//! trace was recorded from, drive it against the [`ScriptedAdversary`],
//! and hand back the re-encoded lines for byte comparison.
//!
//! Every corpus trace ships with a `.meta.json` sidecar describing the
//! run — a [`CorpusScenario`]. The honest side is fully determined by
//! the sidecar (nodes, seeds, retention window); the adversary side
//! comes verbatim from the trace itself, so the *same* sidecar replays
//! a healthy trace bit-identically and exposes the first divergent
//! round of a corrupted one.

use std::fmt;
use std::path::Path;

use fame::longlived::{
    run_longlived_streaming, session_nodes, LongLivedSession, ScriptEntry, LONGLIVED_TRACE_WINDOW,
};
use fame::protocol::{make_nodes, run_fame_streaming, FAME_TRACE_WINDOW};
use fame::Params;
use radio_crypto::{SealedBox, SymmetricKey};
use radio_network::adversaries::{BusyChannelJammer, NoAdversary, RandomJammer, SweepJammer};
use radio_network::{
    Adversary, ChannelSink, NetworkConfig, OverflowPolicy, Protocol, Simulation, TraceRetention,
};
use secure_radio_bench::json::{self, Json};
use secure_radio_bench::scenario::TRACE_QUEUE_CAPACITY;
use secure_radio_bench::{AdversaryChoice, ScenarioSpec};

use gateway::{session_engine_seed, session_jammer, session_keys, session_plan, ServiceConfig};

use crate::driver::{collected_lines, run_dense, CollectorSink, EngineMode};
use crate::frames::decode_fame_frame;
use crate::reader::TraceFile;
use crate::scripted::ScriptedAdversary;

/// The fixed group key corpus long-lived sessions run under (the session
/// is a regression fixture, not a security artifact).
fn corpus_key() -> SymmetricKey {
    SymmetricKey::from_bytes([42u8; 32])
}

/// One recorded run, as described by a corpus `.meta.json` sidecar:
/// everything needed to rebuild the honest side of the execution.
#[derive(Clone, PartialEq, Debug)]
pub enum CorpusScenario {
    /// One trial of a bench [`ScenarioSpec`] driven through wide-band
    /// f-AME ([`run_fame_streaming`]).
    Fame {
        /// The scenario (workload, adversary, seeds) — lossless JSON via
        /// [`ScenarioSpec::json`].
        spec: ScenarioSpec,
        /// Which trial of the scenario was recorded.
        trial: usize,
    },
    /// A long-lived emulated-channel session
    /// ([`run_longlived_streaming`]), under a noise-only adversary.
    LongLived {
        /// Honest node count.
        n: usize,
        /// Adversary budget.
        t: usize,
        /// Channel count.
        channels: usize,
        /// Simulation seed.
        seed: u64,
        /// The (noise-only) attacker.
        adversary: AdversaryChoice,
        /// Node ids holding the group key.
        keyed: Vec<usize>,
        /// The broadcast script.
        script: Vec<ScriptEntry>,
    },
    /// One session of the gateway's canonical service workload
    /// ([`gateway::workload`]), exactly as a worker shard opens it —
    /// pinning the serving layer's seed fan-out, keyed-set churn, rekey
    /// schedule, and intensity jammer byte-for-byte.
    Gateway {
        /// Total sessions in the service (the keyed-churn axis).
        sessions: usize,
        /// Honest node count per session.
        n: usize,
        /// Adversary budget per session.
        t: usize,
        /// Channel count.
        channels: usize,
        /// Service horizon in emulated rounds.
        horizon: u64,
        /// Rekey cadence in emulated rounds (0 = never).
        rekey_every: u64,
        /// Broadcast probability per slot, in percent.
        broadcast_pct: u8,
        /// Jamming intensity (channels jammed per round).
        intensity: usize,
        /// Service seed (every per-session seed fans out of it).
        seed: u64,
        /// The recorded session's id.
        session: usize,
    },
}

/// Build a noise-only adversary generically over the frame type — the
/// long-lived channel's frames ([`SealedBox`]) cannot be forged from a
/// recorded string, so spoofing roster members are rejected here.
fn noise_adversary<M: 'static>(
    choice: &AdversaryChoice,
    seed: u64,
) -> Result<Box<dyn Adversary<M>>, String> {
    match choice {
        AdversaryChoice::None => Ok(Box::new(NoAdversary)),
        AdversaryChoice::RandomJam => Ok(Box::new(RandomJammer::new(seed))),
        AdversaryChoice::SweepJam => Ok(Box::new(SweepJammer::new())),
        AdversaryChoice::BusyChannel { window } => {
            Ok(Box::new(BusyChannelJammer::new(seed, *window)))
        }
        other => Err(format!(
            "adversary \"{}\" spoofs protocol frames and cannot drive the long-lived channel",
            other.label()
        )),
    }
}

/// Rebuild the validated service config a [`CorpusScenario::Gateway`]
/// sidecar describes, plus the per-session network shape and the
/// recorded session id.
fn gateway_config(scenario: &CorpusScenario) -> Result<(ServiceConfig, Params, usize), String> {
    let CorpusScenario::Gateway {
        sessions,
        n,
        t,
        channels,
        horizon,
        rekey_every,
        broadcast_pct,
        intensity,
        seed,
        session,
    } = scenario
    else {
        return Err("not a gateway corpus scenario".into());
    };
    // One worker: the gateway's outcomes are bit-identical across worker
    // counts (pinned by its determinism proptest), so the sidecar does
    // not need to remember the fleet shape the trace was served under.
    let cfg = ServiceConfig::new(*sessions, 1, *n, *t, *channels, *horizon, *seed)
        .with_rekey_every(*rekey_every)
        .with_broadcast_pct(*broadcast_pct)
        .with_intensity(*intensity);
    cfg.validate()
        .map_err(|e| format!("gateway sidecar: {e}"))?;
    if *session >= cfg.sessions {
        return Err(format!(
            "gateway sidecar: session {session} outside the {}-session service",
            cfg.sessions
        ));
    }
    let params = Params::new(cfg.n, cfg.t, cfg.channels)
        .map_err(|e| format!("gateway session shape: {e:?}"))?;
    Ok((cfg, params, *session))
}

/// Fail on any object key outside `allowed`, naming the field — sidecar
/// parsing is strict so a partially-understood scenario can never replay
/// as the wrong run.
fn reject_unknown_fields(v: &Json, allowed: &[&str], context: &str) -> Result<(), String> {
    if let Json::Obj(entries) = v {
        for (key, _) in entries {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("{context}: unknown field \"{key}\""));
            }
        }
    }
    Ok(())
}

/// Drive a prepared node vector against a scripted schedule for exactly
/// `rounds` rounds and return the re-encoded lines.
fn drive<P>(
    cfg: NetworkConfig,
    nodes: Vec<P>,
    scripted: ScriptedAdversary<P::Msg>,
    seed: u64,
    rounds: u64,
    mode: EngineMode,
) -> Result<Vec<String>, String>
where
    P: Protocol,
    P::Msg: fmt::Debug + Send + 'static,
{
    let (sink, lines) = CollectorSink::new();
    match mode {
        EngineMode::Dense => {
            run_dense(cfg, nodes, scripted, seed, rounds, Box::new(sink))?;
        }
        EngineMode::Sparse => {
            let mut sim = Simulation::with_sink(cfg, nodes, scripted, seed, Box::new(sink))
                .map_err(|e| format!("assemble replay simulation: {e}"))?;
            for round in 0..rounds {
                sim.step().map_err(|e| format!("round {round}: {e}"))?;
            }
        }
    }
    Ok(collected_lines(&lines))
}

impl CorpusScenario {
    /// Replay `trace` under this scenario's honest side with the chosen
    /// engine, returning the re-encoded line per driven round.
    ///
    /// # Errors
    /// On spec/trace mismatches (undecodable spoof frames, invalid
    /// parameters) or engine errors mid-replay.
    pub fn replay(&self, trace: &TraceFile, mode: EngineMode) -> Result<Vec<String>, String> {
        let rounds = trace.total_rounds();
        match self {
            CorpusScenario::Fame { spec, trial } => {
                let params = spec.params();
                let instance = spec.instance();
                let seed = spec.trial_seed(*trial);
                let nodes = make_nodes(&instance, &params, seed)
                    .map_err(|e| format!("assemble f-AME nodes: {e}"))?;
                let scripted =
                    ScriptedAdversary::from_records(&trace.records, rounds, decode_fame_frame)?;
                let cfg = NetworkConfig::new(params.c(), params.t())
                    .map_err(|e| format!("network config: {e}"))?
                    .with_retention(TraceRetention::LastRounds(FAME_TRACE_WINDOW))
                    .with_channel_model(spec.channel_model.clone());
                drive(cfg, nodes, scripted, seed, rounds, mode)
            }
            CorpusScenario::LongLived {
                n,
                t,
                channels,
                seed,
                adversary: _,
                keyed,
                script,
            } => {
                let params = Params::new(*n, *t, *channels)
                    .map_err(|e| format!("long-lived params: {e:?}"))?;
                let keys: Vec<Option<SymmetricKey>> = (0..*n)
                    .map(|id| keyed.contains(&id).then(corpus_key))
                    .collect();
                for entry in script {
                    if keys.get(entry.sender).is_none_or(Option::is_none) {
                        return Err(format!("scripted sender {} has no group key", entry.sender));
                    }
                }
                let (nodes, _) = session_nodes(&params, &keys, script, &[], 0);
                let scripted: ScriptedAdversary<SealedBox> =
                    ScriptedAdversary::from_records(&trace.records, rounds, |s| {
                        Err(format!(
                            "long-lived corpus adversaries never spoof; cannot decode a \
                             SealedBox from \"{s}\""
                        ))
                    })?;
                let cfg = NetworkConfig::new(params.c(), params.t())
                    .map_err(|e| format!("network config: {e}"))?
                    .with_retention(TraceRetention::LastRounds(LONGLIVED_TRACE_WINDOW));
                drive(cfg, nodes, scripted, *seed, rounds, mode)
            }
            CorpusScenario::Gateway { .. } => {
                let (service, params, session) = gateway_config(self)?;
                let (script, rekeys) = session_plan(&service, session);
                let keys = session_keys(&service, session);
                let (nodes, _) = session_nodes(&params, &keys, &script, &rekeys, service.horizon);
                let scripted: ScriptedAdversary<SealedBox> =
                    ScriptedAdversary::from_records(&trace.records, rounds, |s| {
                        Err(format!(
                            "gateway corpus jammers never spoof; cannot decode a \
                             SealedBox from \"{s}\""
                        ))
                    })?;
                let cfg = NetworkConfig::new(params.c(), params.t())
                    .map_err(|e| format!("network config: {e}"))?
                    .with_retention(TraceRetention::LastRounds(LONGLIVED_TRACE_WINDOW));
                drive(
                    cfg,
                    nodes,
                    scripted,
                    session_engine_seed(&service, session),
                    rounds,
                    mode,
                )
            }
        }
    }

    /// Record this scenario's trace to `path` through the shared
    /// [`radio_network::record_line`] encoder (via [`ChannelSink`]) —
    /// the corpus (re)generation path.
    ///
    /// # Errors
    /// On I/O failure or a failed run.
    pub fn record(&self, path: &Path) -> Result<(), String> {
        match self {
            CorpusScenario::Fame { spec, trial } => {
                let params = spec.params();
                let instance = spec.instance();
                let seed = spec.trial_seed(*trial);
                let adversary = spec.adversary.build(&params, instance.pairs(), seed);
                let mut sink =
                    ChannelSink::create(path, TRACE_QUEUE_CAPACITY, OverflowPolicy::Block)
                        .map_err(|e| format!("create {}: {e}", path.display()))?;
                if !spec.channel_model.is_ideal() {
                    sink = sink.with_header(spec.channel_model.header_line());
                }
                run_fame_streaming(&instance, &params, adversary, seed, Box::new(sink))
                    .map_err(|e| format!("record f-AME run: {e}"))?;
                Ok(())
            }
            CorpusScenario::LongLived {
                n,
                t,
                channels,
                seed,
                adversary,
                keyed,
                script,
            } => {
                let params = Params::new(*n, *t, *channels)
                    .map_err(|e| format!("long-lived params: {e:?}"))?;
                let keys: Vec<Option<SymmetricKey>> = (0..*n)
                    .map(|id| keyed.contains(&id).then(corpus_key))
                    .collect();
                let adversary = noise_adversary::<SealedBox>(adversary, *seed)?;
                let sink = ChannelSink::create(path, TRACE_QUEUE_CAPACITY, OverflowPolicy::Block)
                    .map_err(|e| format!("create {}: {e}", path.display()))?;
                run_longlived_streaming(&params, &keys, script, adversary, *seed, Box::new(sink))
                    .map_err(|e| format!("record long-lived run: {e}"))?;
                Ok(())
            }
            CorpusScenario::Gateway { .. } => {
                let (service, params, session) = gateway_config(self)?;
                let (script, rekeys) = session_plan(&service, session);
                let keys = session_keys(&service, session);
                let sink = ChannelSink::create(path, TRACE_QUEUE_CAPACITY, OverflowPolicy::Block)
                    .map_err(|e| format!("create {}: {e}", path.display()))?;
                let mut live = LongLivedSession::open(
                    &params,
                    &keys,
                    &script,
                    &rekeys,
                    service.horizon,
                    session_jammer(&service, session),
                    session_engine_seed(&service, session),
                    TraceRetention::LastRounds(LONGLIVED_TRACE_WINDOW),
                    Some(Box::new(sink)),
                )
                .map_err(|e| format!("open gateway session: {e}"))?;
                live.run(false)
                    .map_err(|e| format!("record gateway session: {e}"))?;
                Ok(())
            }
        }
    }

    /// This scenario as a single-line `.meta.json` sidecar object.
    pub fn json(&self) -> String {
        match self {
            CorpusScenario::Fame { spec, trial } => {
                format!(
                    "{{\"kind\":\"fame\",\"trial\":{trial},\"spec\":{}}}",
                    spec.json()
                )
            }
            CorpusScenario::LongLived {
                n,
                t,
                channels,
                seed,
                adversary,
                keyed,
                script,
            } => {
                let keyed: Vec<String> = keyed.iter().map(usize::to_string).collect();
                let script: Vec<String> = script
                    .iter()
                    .map(|e| {
                        let bytes: Vec<String> = e.message.iter().map(u8::to_string).collect();
                        format!(
                            "{{\"eround\":{},\"sender\":{},\"message\":[{}]}}",
                            e.eround,
                            e.sender,
                            bytes.join(",")
                        )
                    })
                    .collect();
                format!(
                    "{{\"kind\":\"longlived\",\"n\":{n},\"t\":{t},\"channels\":{channels},\
                     \"seed\":{seed},\"adversary\":{},\"keyed\":[{}],\"script\":[{}]}}",
                    adversary.json(),
                    keyed.join(","),
                    script.join(",")
                )
            }
            CorpusScenario::Gateway {
                sessions,
                n,
                t,
                channels,
                horizon,
                rekey_every,
                broadcast_pct,
                intensity,
                seed,
                session,
            } => format!(
                "{{\"kind\":\"gateway\",\"sessions\":{sessions},\"n\":{n},\"t\":{t},\
                 \"channels\":{channels},\"horizon\":{horizon},\"rekey_every\":{rekey_every},\
                 \"broadcast_pct\":{broadcast_pct},\"intensity\":{intensity},\"seed\":{seed},\
                 \"session\":{session}}}"
            ),
        }
    }

    /// Parse a `.meta.json` sidecar.
    ///
    /// Unknown fields are a **hard error** naming the field: a sidecar
    /// the replayer does not fully understand could describe a run it
    /// cannot faithfully rebuild, and silently ignoring the field would
    /// turn that into a spurious replay divergence (or worse, a spurious
    /// match).
    ///
    /// # Errors
    /// On malformed JSON, an unknown `kind`, or any unknown field.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        const CTX: &str = "corpus meta";
        let v = Json::parse(text).map_err(|e| format!("{CTX}: {e}"))?;
        match json::kind(&v, CTX)? {
            "fame" => {
                reject_unknown_fields(&v, &["kind", "trial", "spec"], CTX)?;
                Ok(CorpusScenario::Fame {
                    spec: ScenarioSpec::from_json(json::field(&v, "spec", CTX)?)?,
                    trial: json::usize_field(&v, "trial", CTX)?,
                })
            }
            "longlived" => {
                reject_unknown_fields(
                    &v,
                    &[
                        "kind",
                        "n",
                        "t",
                        "channels",
                        "seed",
                        "adversary",
                        "keyed",
                        "script",
                    ],
                    CTX,
                )?;
                let keyed = json::field(&v, "keyed", CTX)?
                    .as_array()
                    .ok_or_else(|| format!("{CTX}: \"keyed\" is not an array"))?
                    .iter()
                    .map(|e| {
                        e.as_usize()
                            .ok_or_else(|| format!("{CTX}: keyed entry is not an index"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let mut script = Vec::new();
                for (i, entry) in json::field(&v, "script", CTX)?
                    .as_array()
                    .ok_or_else(|| format!("{CTX}: \"script\" is not an array"))?
                    .iter()
                    .enumerate()
                {
                    let ctx = format!("script[{i}]");
                    reject_unknown_fields(entry, &["eround", "sender", "message"], &ctx)?;
                    let message = json::field(entry, "message", &ctx)?
                        .as_array()
                        .ok_or_else(|| format!("{ctx}: \"message\" is not an array"))?
                        .iter()
                        .map(|b| {
                            b.as_u64()
                                .and_then(|n| u8::try_from(n).ok())
                                .ok_or_else(|| format!("{ctx}: message byte out of range"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    script.push(ScriptEntry {
                        eround: json::u64_field(entry, "eround", &ctx)?,
                        sender: json::usize_field(entry, "sender", &ctx)?,
                        message,
                    });
                }
                Ok(CorpusScenario::LongLived {
                    n: json::usize_field(&v, "n", CTX)?,
                    t: json::usize_field(&v, "t", CTX)?,
                    channels: json::usize_field(&v, "channels", CTX)?,
                    seed: json::u64_field(&v, "seed", CTX)?,
                    adversary: AdversaryChoice::from_json(json::field(&v, "adversary", CTX)?)?,
                    keyed,
                    script,
                })
            }
            "gateway" => {
                reject_unknown_fields(
                    &v,
                    &[
                        "kind",
                        "sessions",
                        "n",
                        "t",
                        "channels",
                        "horizon",
                        "rekey_every",
                        "broadcast_pct",
                        "intensity",
                        "seed",
                        "session",
                    ],
                    CTX,
                )?;
                let broadcast_pct = json::u64_field(&v, "broadcast_pct", CTX)?;
                let broadcast_pct = u8::try_from(broadcast_pct)
                    .map_err(|_| format!("{CTX}: \"broadcast_pct\" out of range"))?;
                Ok(CorpusScenario::Gateway {
                    sessions: json::usize_field(&v, "sessions", CTX)?,
                    n: json::usize_field(&v, "n", CTX)?,
                    t: json::usize_field(&v, "t", CTX)?,
                    channels: json::usize_field(&v, "channels", CTX)?,
                    horizon: json::u64_field(&v, "horizon", CTX)?,
                    rekey_every: json::u64_field(&v, "rekey_every", CTX)?,
                    broadcast_pct,
                    intensity: json::usize_field(&v, "intensity", CTX)?,
                    seed: json::u64_field(&v, "seed", CTX)?,
                    session: json::usize_field(&v, "session", CTX)?,
                })
            }
            other => Err(format!("{CTX}: unknown kind \"{other}\"")),
        }
    }

    /// A short human label (used in corpus file names and reports).
    pub fn label(&self) -> String {
        match self {
            CorpusScenario::Fame { spec, trial } => format!("fame/{} trial {trial}", spec.name),
            CorpusScenario::LongLived { adversary, .. } => {
                format!("longlived/{}", adversary.label())
            }
            CorpusScenario::Gateway {
                session, intensity, ..
            } => format!("gateway/session {session} (intensity {intensity})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn longlived_scenario() -> CorpusScenario {
        CorpusScenario::LongLived {
            n: 40,
            t: 2,
            channels: 3,
            seed: 11,
            adversary: AdversaryChoice::RandomJam,
            keyed: vec![0, 1, 2, 3, 4],
            script: vec![
                ScriptEntry {
                    eround: 0,
                    sender: 0,
                    message: b"hello".to_vec(),
                },
                ScriptEntry {
                    eround: 1,
                    sender: 3,
                    message: Vec::new(),
                },
            ],
        }
    }

    fn gateway_scenario() -> CorpusScenario {
        CorpusScenario::Gateway {
            sessions: 6,
            n: 18,
            t: 1,
            channels: 2,
            horizon: 3,
            rekey_every: 2,
            broadcast_pct: 60,
            intensity: 1,
            seed: 3000,
            session: 3,
        }
    }

    #[test]
    fn meta_sidecars_roundtrip() {
        let fame = CorpusScenario::Fame {
            spec: ScenarioSpec::new("corpus", 40, 2, 3),
            trial: 0,
        };
        for scenario in [fame, longlived_scenario(), gateway_scenario()] {
            let encoded = scenario.json();
            let decoded = CorpusScenario::from_json_str(&encoded).expect("parses");
            assert_eq!(decoded, scenario, "{encoded}");
        }
    }

    #[test]
    fn unknown_sidecar_fields_are_hard_errors_naming_the_field() {
        let fame = CorpusScenario::Fame {
            spec: ScenarioSpec::new("corpus", 40, 2, 3),
            trial: 0,
        };
        // Smuggle an extra key into each object level of a valid sidecar.
        let err = CorpusScenario::from_json_str(&fame.json().replacen("\"trial\"", "\"tril\"", 1))
            .unwrap_err();
        assert!(err.contains("unknown field \"tril\""), "{err}");

        let longlived = longlived_scenario().json();
        let err = CorpusScenario::from_json_str(&longlived.replacen(
            "\"seed\":11",
            "\"seed\":11,\"sede\":11",
            1,
        ))
        .unwrap_err();
        assert!(err.contains("unknown field \"sede\""), "{err}");
        let err = CorpusScenario::from_json_str(&longlived.replacen(
            "\"sender\":0",
            "\"sender\":0,\"loud\":true",
            1,
        ))
        .unwrap_err();
        assert!(err.contains("unknown field \"loud\""), "{err}");
        assert!(err.contains("script[0]"), "{err}");

        let gateway = gateway_scenario().json();
        let err = CorpusScenario::from_json_str(&gateway.replacen(
            "\"intensity\":1",
            "\"intensity\":1,\"workers\":4",
            1,
        ))
        .unwrap_err();
        assert!(err.contains("unknown field \"workers\""), "{err}");
    }

    #[test]
    fn gateway_sidecars_reject_out_of_range_sessions() {
        let encoded = gateway_scenario()
            .json()
            .replacen("\"session\":3", "\"session\":9", 1);
        let scenario = CorpusScenario::from_json_str(&encoded).expect("parses");
        let err = gateway_config(&scenario).expect_err("session 9 of 6");
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn fame_sidecars_roundtrip_non_ideal_channel_models() {
        let scenario = CorpusScenario::Fame {
            spec: ScenarioSpec::new("corpus", 40, 2, 3)
                .with_channel_model(radio_network::ChannelModelSpec::Capture { threshold: 128 }),
            trial: 1,
        };
        let encoded = scenario.json();
        assert!(encoded.contains("\"channel_model\""), "{encoded}");
        let decoded = CorpusScenario::from_json_str(&encoded).expect("parses");
        assert_eq!(decoded, scenario);
    }

    #[test]
    fn spoofing_adversaries_cannot_drive_longlived() {
        let err = match noise_adversary::<SealedBox>(&AdversaryChoice::Spoof, 1) {
            Err(e) => e,
            Ok(_) => panic!("spoofing adversary must be rejected"),
        };
        assert!(err.contains("spoof"), "{err}");
    }
}
