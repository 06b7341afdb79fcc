//! The `gateway-quiet` and `gateway-jammed` workloads: `gateway::serve`
//! over the canonical mixed workload, and the traced replicas that
//! split its time by layer.

use std::collections::BTreeMap;
use std::thread;

use fame::longlived::LongLivedNode;
use fame::Params;
use gateway::{
    keyed_nodes, serve, session_engine_seed, session_jammer, session_keys, session_plan, workload,
    Delivery, GatewayReport, Request, ServeError, ServiceConfig, SessionOutcome, WorkerShard,
};
use radio_network::{seed, NetworkConfig, Simulation, TraceRetention};

use crate::adapters::{
    step_self_ns, total_ledger, AdversaryLedger, NodeLedger, TimedAdversary, TimedNode,
};
use crate::crypto_costs::CryptoCosts;
use crate::report::Outcome;
use crate::stats::{median, now, ns_since, peak_rss_mb, percentile, tail_percentile, Fnv};

/// Sessions per serve.
pub const SESSIONS: usize = 32;
/// Worker threads per serve.
pub const WORKERS: usize = 2;
/// Nodes, adversary budget and channels of every session.
pub const SHAPE: (usize, usize, usize) = (36, 2, 3);
/// Emulated rounds each session lives for.
pub const HORIZON: u64 = 6;
/// Emulated rounds between group-key rotations.
pub const REKEY_EVERY: u64 = 2;
/// Percent of `(session, eround)` slots carrying a broadcast.
pub const BROADCAST_PCT: u8 = 60;
/// Distinct service seeds a run cycles through.
pub const SERVICE_SEEDS: u64 = 12;
/// Set-ups measured before each serve (the median is reported).
const SETUPS_PER_SERVE: usize = 8;
/// Repetitions of each traced measurement.
const TRACE_REPS: usize = 5;

/// The service configuration of one serve.
pub fn config(service_seed: u64, intensity: usize, sessions: usize) -> ServiceConfig {
    let (n, t, c) = SHAPE;
    ServiceConfig::new(sessions, WORKERS, n, t, c, HORIZON, service_seed)
        .with_rekey_every(REKEY_EVERY)
        .with_broadcast_pct(BROADCAST_PCT)
        .with_intensity(intensity)
}

/// The service seeds a run with workload seed `seed` cycles through.
pub fn service_seeds(seed: u64) -> Vec<u64> {
    (0..SERVICE_SEEDS)
        .map(|i| seed::derive(seed, 1 + i))
        .collect()
}

/// Serve the canonical workload; returns the report and the wall time of
/// `serve` in seconds.
fn serve_canonical(cfg: &ServiceConfig) -> Result<(GatewayReport, f64), ServeError> {
    let start = now();
    let report = serve(cfg, |client| {
        for s in 0..cfg.sessions {
            for req in workload(cfg, s) {
                client.submit(req);
            }
        }
    })?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// A digest of every session's outcome and delivery transcript.
pub fn outcome_digest(outcomes: &[SessionOutcome]) -> u64 {
    let mut h = Fnv::default();
    for o in outcomes {
        for x in [
            o.session as u64,
            o.rounds,
            o.delivered,
            o.expected,
            o.broadcasts,
        ] {
            h.word(x);
        }
        for d in &o.transcript {
            for x in [d.node as u64, d.sender as u64, d.eround, d.round] {
                h.word(x);
            }
        }
    }
    h.finish()
}

/// Every delivery's latency in physical rounds, ascending.
fn latencies(outcomes: &[SessionOutcome], epoch_len: u64) -> Vec<u64> {
    let mut lat: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| &o.transcript)
        .map(|d| d.round - d.eround * epoch_len + 1)
        .collect();
    lat.sort_unstable();
    lat
}

/// Failed work of one serve: undelivered plus dropped plus rejected.
fn failed_of(r: &GatewayReport) -> u64 {
    r.expected.saturating_sub(r.delivered) + r.dropped + r.rejected
}

/// Check one serve's report; quiet serves must deliver everything.
fn check_report(out: &mut Outcome, r: &GatewayReport, cfg: &ServiceConfig) {
    let tag = format!("service seed {:#x}", cfg.seed);
    out.check(
        r.outcomes.len() == cfg.sessions,
        format!("{tag}: every session finished"),
    );
    out.check(
        r.dropped == 0,
        format!("{tag}: no ingress drops under Block"),
    );
    if cfg.intensity == 0 {
        out.check(
            r.delivered == r.expected,
            format!(
                "{tag}: quiet channel delivered {} of {}",
                r.delivered, r.expected
            ),
        );
    }
}

/// The gateway's set-up on the calling thread: generate the workload,
/// then `WorkerShard::new`, `admit` and `open_sessions` for every shard.
fn set_up(cfg: &ServiceConfig) -> Result<Vec<WorkerShard>, ServeError> {
    let mut shards = (0..cfg.workers)
        .map(|w| WorkerShard::new(cfg, w))
        .collect::<Result<Vec<_>, _>>()?;
    for s in 0..cfg.sessions {
        for req in workload(cfg, s) {
            shards[s % cfg.workers].admit(req);
        }
    }
    for shard in &mut shards {
        shard.open_sessions()?;
    }
    Ok(shards)
}

/// The untraced run: serve the cycled service seeds for `seconds`.
///
/// # Errors
///
/// A gateway error (configuration or engine).
pub fn run(seed: u64, intensity: usize, seconds: f64) -> Result<Outcome, ServeError> {
    let mut out = Outcome::default();
    let seeds = service_seeds(seed);
    let cfgs: Vec<ServiceConfig> = seeds
        .iter()
        .map(|&s| config(s, intensity, SESSIONS))
        .collect();
    out.note(format!(
        "gateway: sessions={SESSIONS} workers={WORKERS} n,t,C={SHAPE:?} horizon={HORIZON} \
         rekey_every={REKEY_EVERY} broadcast_pct={BROADCAST_PCT} intensity={intensity} \
         ingress=Block service_seeds={seeds:x?}"
    ));

    // One untimed serve first: both workers' cores come up to speed.
    serve_canonical(&cfgs[0])?;

    // Serve until `seconds` have passed and every seed was served once,
    // setting up a few times before each serve so that the set-up
    // samples span the same window as the serves.
    let mut setup = Vec::new();
    let mut first: BTreeMap<u64, GatewayReport> = BTreeMap::new();
    let (mut delivery_rates, mut round_rates) = (Vec::new(), Vec::new());
    let start = now();
    let mut i = 0;
    while i < cfgs.len() || start.elapsed().as_secs_f64() < seconds {
        let cfg = &cfgs[i % cfgs.len()];
        // The first set-up after a serve only warms the heap; each later
        // one is timed while the previous one is still alive, so it
        // allocates from a warm heap rather than from pages just handed
        // back to the kernel.
        let mut held = set_up(cfg)?;
        for _ in 0..SETUPS_PER_SERVE {
            let t = now();
            let shards = set_up(cfg)?;
            setup.push(t.elapsed().as_secs_f64());
            held = shards;
        }
        drop(held);
        let (report, wall) = serve_canonical(cfg)?;
        check_report(&mut out, &report, cfg);
        out.attempted += report.expected + report.submitted;
        out.failed += failed_of(&report);
        delivery_rates.push(report.delivered as f64 / wall);
        round_rates.push(report.steps_per_worker.iter().sum::<u64>() as f64 / wall);
        match first.get(&cfg.seed) {
            Some(seen) => out.check(
                seen.outcomes == report.outcomes,
                format!(
                    "service seed {:#x}: a repeated serve changed its outcome",
                    cfg.seed
                ),
            ),
            None => {
                first.insert(cfg.seed, report);
            }
        }
        i += 1;
    }
    let measured = start.elapsed().as_secs_f64();

    // Worker-count bit-identity: one worker serves the first seed alike.
    let solo = ServiceConfig {
        workers: 1,
        ..cfgs[0]
    };
    let (solo_report, _) = serve_canonical(&solo)?;
    let multi = &first[&cfgs[0].seed];
    let (a, b) = (
        outcome_digest(&multi.outcomes),
        outcome_digest(&solo_report.outcomes),
    );
    out.check(
        a == b,
        format!("{WORKERS}-worker digest {a:016x} != 1-worker digest {b:016x}"),
    );

    let mut lat = Vec::new();
    for (s, report) in &first {
        out.note(format!(
            "outcome_digest service_seed={s:#x} {:016x}",
            outcome_digest(&report.outcomes)
        ));
        lat.extend(latencies(&report.outcomes, report.epoch_len));
    }
    lat.sort_unstable();
    out.check(!lat.is_empty(), "some delivery happened");
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("completions_per_s", median(&delivery_rates));
    out.set("rounds_per_s", median(&round_rates));
    out.set("success_share", 1.0 - failed_share);
    if !lat.is_empty() {
        let tail = tail_percentile(lat.len());
        out.note(format!(
            "serves={i} measured_s={measured:.3} latency_samples={} tail=p{tail} \
             failed_share={failed_share}",
            lat.len(),
        ));
        out.set("latency_rounds_p50", percentile(&lat, 50) as f64);
        out.set("latency_rounds_tail", percentile(&lat, tail) as f64);
    }
    out.set("setup_s", median(&setup));
    if let Some(rss) = peak_rss_mb() {
        out.set("peak_rss_mb", rss);
    }
    Ok(out)
}

/// One shard's phases in the shard replica.
struct ShardRun {
    admit_ns: u64,
    admitted: u64,
    open_ns: u64,
    tick_ns: Vec<u64>,
    /// `new` + `admit` + `open_sessions` + every `tick` + `take_outcomes`.
    covered_ns: u64,
    outcomes: Vec<SessionOutcome>,
}

/// Requests routed to each worker, in `serve`'s submission order.
fn routed(cfg: &ServiceConfig) -> Vec<Vec<Request>> {
    let mut per_worker = vec![Vec::new(); cfg.workers];
    for s in 0..cfg.sessions {
        per_worker[s % cfg.workers].extend(workload(cfg, s));
    }
    per_worker
}

/// `serve` without its queues: one thread per worker drives a
/// `WorkerShard` through its public lifecycle, each call timed. Returns
/// the shard runs and the wall time from spawning to the last join.
fn shard_replica(cfg: &ServiceConfig) -> Result<(Vec<ShardRun>, u64), ServeError> {
    let inputs = routed(cfg);
    let start = now();
    let runs = thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(worker, reqs)| {
                scope.spawn(move || -> Result<ShardRun, ServeError> {
                    let t = now();
                    let mut shard = WorkerShard::new(cfg, worker)?;
                    let new_ns = ns_since(t);
                    let admitted = reqs.len() as u64;
                    let t = now();
                    for req in reqs {
                        shard.admit(req);
                    }
                    let admit_ns = ns_since(t);
                    let t = now();
                    shard.open_sessions()?;
                    let open_ns = ns_since(t);
                    let mut tick_ns = Vec::new();
                    while shard.live_sessions() > 0 {
                        let t = now();
                        shard.tick()?;
                        tick_ns.push(ns_since(t));
                    }
                    let t = now();
                    let outcomes = shard.take_outcomes();
                    let take_ns = ns_since(t);
                    Ok(ShardRun {
                        admit_ns,
                        admitted,
                        open_ns,
                        covered_ns: new_ns
                            + admit_ns
                            + open_ns
                            + tick_ns.iter().sum::<u64>()
                            + take_ns,
                        tick_ns,
                        outcomes,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard replica thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((runs, ns_since(start)))
}

/// One worker's share of the simulation replica.
struct SimRun {
    step_ns: u64,
    steps: u64,
    /// Stepping plus transcript drain: the replica's tick time.
    busy_ns: u64,
    nodes: NodeLedger,
    adversary: AdversaryLedger,
    outcomes: Vec<SessionOutcome>,
}

/// One open session of the simulation replica.
struct ReplicaSession {
    id: usize,
    sim: Simulation<TimedNode<LongLivedNode>, TimedAdversary<gateway::IntensityJammer>>,
    adversary: std::rc::Rc<std::cell::RefCell<AdversaryLedger>>,
    cursors: Vec<usize>,
    transcript: Vec<Delivery>,
    rounds: u64,
    expected: u64,
    broadcasts: u64,
}

/// Open session `s` exactly as `LongLivedSession::open` does for the
/// gateway, over adapted nodes and an adapted jammer.
fn open_replica(cfg: &ServiceConfig, params: &Params, s: usize) -> ReplicaSession {
    let (script, rekeys) = session_plan(cfg, s);
    let keys = session_keys(cfg, s);
    let rekey_map: BTreeMap<_, _> = rekeys.iter().copied().collect();
    let nodes: Vec<TimedNode<LongLivedNode>> = (0..params.n())
        .map(|id| {
            let mine: BTreeMap<u64, Vec<u8>> = script
                .iter()
                .filter(|e| e.sender == id)
                .map(|e| (e.eround, e.message.clone()))
                .collect();
            let node = LongLivedNode::new(id, params.clone(), keys[id], mine, cfg.horizon);
            TimedNode::new(if keys[id].is_some() {
                node.with_rekeys(rekey_map.clone())
            } else {
                node
            })
        })
        .collect();
    let net = NetworkConfig::new(params.c(), params.t())
        .expect("validated shape")
        .with_channel_model(params.channel_model().clone())
        .with_retention(TraceRetention::None);
    let (jammer, adversary) = TimedAdversary::new(session_jammer(cfg, s));
    let sim = Simulation::new(net, nodes, jammer, session_engine_seed(cfg, s))
        .expect("network config validated");
    let keyed = keyed_nodes(cfg, s).iter().filter(|&&k| k).count() as u64;
    let broadcasts = script.len() as u64;
    ReplicaSession {
        id: s,
        sim,
        adversary,
        cursors: vec![0; params.n()],
        transcript: Vec::new(),
        rounds: 0,
        expected: broadcasts * (keyed - 1),
        broadcasts,
    }
}

/// The gateway's tick over a `Simulation` replica of each session, every
/// node and the jammer adapted: one thread per worker, each stepping its
/// sessions round by round and draining acceptances as `tick` does.
fn sim_replica(cfg: &ServiceConfig) -> Result<Vec<SimRun>, radio_network::EngineError> {
    let params = Params::new(cfg.n, cfg.t, cfg.channels).expect("validated shape");
    thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|worker| {
                let params = &params;
                scope.spawn(move || -> Result<SimRun, radio_network::EngineError> {
                    let mut live: Vec<ReplicaSession> = (worker..cfg.sessions)
                        .step_by(cfg.workers)
                        .map(|s| open_replica(cfg, params, s))
                        .collect();
                    let (mut step_ns, mut steps, mut busy_ns) = (0, 0, 0);
                    while live.iter().any(|r| !r.sim.all_done()) {
                        let tick = now();
                        for r in live.iter_mut().filter(|r| !r.sim.all_done()) {
                            let t = now();
                            r.sim.step()?;
                            step_ns += ns_since(t);
                            steps += 1;
                            r.rounds += 1;
                            for (node_idx, node) in r.sim.nodes().iter().enumerate() {
                                let log = node.inner().accepts();
                                for a in &log[r.cursors[node_idx]..] {
                                    r.transcript.push(Delivery {
                                        node: node_idx,
                                        sender: a.sender,
                                        eround: a.eround,
                                        round: a.round,
                                    });
                                }
                                r.cursors[node_idx] = log.len();
                            }
                        }
                        busy_ns += ns_since(tick);
                    }
                    let mut nodes = NodeLedger::default();
                    let mut adversary = AdversaryLedger::default();
                    let mut outcomes = Vec::new();
                    for r in live {
                        nodes.merge(&total_ledger(r.sim.nodes()));
                        adversary.merge(&r.adversary.borrow());
                        outcomes.push(SessionOutcome {
                            session: r.id,
                            rounds: r.rounds,
                            delivered: r.transcript.len() as u64,
                            expected: r.expected,
                            broadcasts: r.broadcasts,
                            transcript: r.transcript,
                        });
                    }
                    Ok(SimRun {
                        step_ns,
                        steps,
                        busy_ns,
                        nodes,
                        adversary,
                        outcomes,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulation replica thread panicked"))
            .collect()
    })
}

/// Merge per-worker outcomes into `serve`'s session order.
fn merged(mut outcomes: Vec<SessionOutcome>) -> Vec<SessionOutcome> {
    outcomes.sort_unstable_by_key(|o| o.session);
    outcomes
}

/// The traced run's gateway ledger over one serve of `cfg`. Each of
/// `TRACE_REPS` repetitions runs untraced `serve`, then the shard
/// replica, then the simulation replica, back to back, so the ratios
/// between them compare neighbouring measurements; every replica is
/// checked against `serve`'s outcome. Sets `gateway.*`, `longlived.*`,
/// `network.*`, `adversary.act_ns`, `crypto.predicted_share` and
/// `trace_overhead_share` (each only if not yet set).
///
/// # Errors
///
/// A gateway error (configuration or engine).
pub fn ledger(
    cfg: &ServiceConfig,
    crypto: &CryptoCosts,
    out: &mut Outcome,
) -> Result<(), ServeError> {
    let (mut ticks, mut admit, mut open) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy_min, mut busy_max) = (Vec::new(), Vec::new());
    let (mut unexplained, mut overhead) = (Vec::new(), Vec::new());
    let mut nodes = NodeLedger::default();
    let mut adversary = AdversaryLedger::default();
    let (mut step_ns, mut steps) = (0u64, 0u64);
    let mut counted: Option<(NodeLedger, Vec<SessionOutcome>)> = None;
    let mut reference: Option<GatewayReport> = None;
    for _ in 0..TRACE_REPS {
        let (report, serve_wall) = serve_canonical(cfg)?;
        check_report(out, &report, cfg);
        let digest = outcome_digest(&report.outcomes);
        if let Some(first) = &reference {
            out.check(
                first.outcomes == report.outcomes,
                "repeated serve is identical",
            );
        }

        // Layer 1: the shard lifecycle, each call timed.
        let (runs, wall_ns) = shard_replica(cfg)?;
        let outcomes = merged(runs.iter().flat_map(|r| r.outcomes.clone()).collect());
        out.check(
            outcome_digest(&outcomes) == digest,
            "shard replica reproduces serve's transcripts",
        );
        let busy: Vec<f64> = runs
            .iter()
            .map(|r| r.tick_ns.iter().sum::<u64>() as f64 / wall_ns as f64)
            .collect();
        busy_min.push(busy.iter().copied().fold(f64::INFINITY, f64::min));
        busy_max.push(busy.iter().copied().fold(0.0, f64::max));
        ticks.extend(runs.iter().flat_map(|r| r.tick_ns.iter().copied()));
        let admitted = runs.iter().map(|r| r.admitted).sum::<u64>().max(1);
        admit.push(runs.iter().map(|r| r.admit_ns).sum::<u64>() as f64 / admitted as f64);
        open.push(runs.iter().map(|r| r.open_ns).sum::<u64>() as f64 / 1e6);
        let covered = runs.iter().map(|r| r.covered_ns).max().unwrap_or(0);
        unexplained.push(1.0 - covered as f64 / (serve_wall * 1e9));
        let tick_total: u64 = runs.iter().flat_map(|r| &r.tick_ns).sum();

        // Layer 2: the long-lived nodes, the engine and the jammer.
        let sims = sim_replica(cfg)?;
        let outcomes = merged(sims.iter().flat_map(|r| r.outcomes.clone()).collect());
        out.check(
            outcome_digest(&outcomes) == digest,
            "simulation replica reproduces serve's transcripts",
        );
        let lat = latencies(&outcomes, report.epoch_len);
        out.check(
            report.latency.is_some_and(|l| {
                !lat.is_empty()
                    && (l.p50, l.p95, l.p99)
                        == (
                            percentile(&lat, 50),
                            percentile(&lat, 95),
                            percentile(&lat, 99),
                        )
            }),
            "simulation replica reproduces serve's latency percentiles",
        );
        let mut rep_nodes = NodeLedger::default();
        let mut busy_ns = 0;
        for r in &sims {
            rep_nodes.merge(&r.nodes);
            adversary.merge(&r.adversary);
            step_ns += r.step_ns;
            steps += r.steps;
            busy_ns += r.busy_ns;
        }
        overhead.push(busy_ns as f64 / tick_total as f64 - 1.0);
        nodes.merge(&rep_nodes);
        counted.get_or_insert((rep_nodes, outcomes));
        reference.get_or_insert(report);
    }
    let reference = reference.expect("TRACE_REPS > 0");
    let (counts, outcomes) = counted.expect("TRACE_REPS > 0");
    out.note(format!(
        "outcome_digest service_seed={:#x} {:016x} (sessions={} intensity={})",
        cfg.seed,
        outcome_digest(&reference.outcomes),
        cfg.sessions,
        cfg.intensity
    ));

    ticks.sort_unstable();
    out.set_missing("gateway.tick_us_p50", percentile(&ticks, 50) as f64 / 1e3);
    out.set_missing("gateway.tick_us_p99", percentile(&ticks, 99) as f64 / 1e3);
    out.set_missing("gateway.admit_ns_per_request", median(&admit));
    out.set_missing("gateway.open_sessions_ms", median(&open));
    out.set_missing("gateway.worker_busy_frac_min", median(&busy_min));
    out.set_missing("gateway.worker_busy_frac_max", median(&busy_max));
    out.set_missing("gateway.unexplained_share", median(&unexplained));

    // Counts are exact per replay: report one replay's.
    let accepts: u64 = outcomes.iter().map(|o| o.delivered).sum();
    out.set_missing("longlived.begin_round_ns", nodes.begin_round.mean_ns());
    out.set_missing("longlived.end_round_ns", nodes.end_round.mean_ns());
    out.set_missing("longlived.transmits", counts.transmits as f64);
    out.set_missing("longlived.listens", counts.listens as f64);
    out.set_missing("longlived.frames_received", counts.frames_received as f64);
    out.set_missing("longlived.accepts", accepts as f64);
    out.set_missing(
        "longlived.accepts_per_frame",
        accepts as f64 / counts.frames_received.max(1) as f64,
    );
    out.set_missing(
        "network.step_self_ns",
        step_self_ns(step_ns, steps, &nodes, &adversary),
    );
    out.set_missing(
        "network.active_nodes_per_round",
        nodes.begin_round.calls as f64 / steps.max(1) as f64,
    );
    out.set_missing("adversary.act_ns", adversary.act.mean_ns());
    let predicted = (nodes.transmits + nodes.listens) as f64 * crypto.hop_ns
        + nodes.transmits as f64 * crypto.seal_ns
        + nodes.frames_received as f64 * crypto.open_ns;
    out.set_missing("crypto.predicted_share", predicted / step_ns.max(1) as f64);
    out.set_missing("trace_overhead_share", median(&overhead));
    out.note(format!(
        "gateway ledger: reps={TRACE_REPS} session_rounds={} begin_round_calls={} \
         node_share_of_step={:.4} act_share_of_step={:.4} crypto_residual_share={:.4}",
        steps / TRACE_REPS as u64,
        counts.begin_round.calls,
        nodes.node_ns() / step_ns.max(1) as f64,
        adversary.act.total_ns() / step_ns.max(1) as f64,
        1.0 - predicted / step_ns.max(1) as f64,
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_reproduce_a_small_serve() {
        for intensity in [0, 1] {
            let cfg = ServiceConfig::new(5, 2, 18, 1, 2, 3, 41)
                .with_rekey_every(1)
                .with_intensity(intensity);
            let (report, _) = serve_canonical(&cfg).unwrap();
            let digest = outcome_digest(&report.outcomes);
            let (shards, _) = shard_replica(&cfg).unwrap();
            let outcomes = merged(shards.into_iter().flat_map(|r| r.outcomes).collect());
            assert_eq!(outcome_digest(&outcomes), digest);
            let sims = sim_replica(&cfg).unwrap();
            let outcomes = merged(sims.into_iter().flat_map(|r| r.outcomes).collect());
            assert_eq!(outcomes, report.outcomes);
        }
    }
}
