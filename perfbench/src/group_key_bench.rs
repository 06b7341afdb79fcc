//! The `group-key-setup` workload: Section 6 group-key establishments
//! under a random jammer per phase, and the traced replicas that split
//! their time by phase and layer.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use fame::group_key::{establish_group_key, GroupKeyReport, GroupKeyRounds};
use fame::protocol::{make_nodes, round_budget};
use fame::{AmeInstance, FameError, Params, FAME_TRACE_WINDOW};
use radio_crypto::dh::{DhConfig, KeyPair};
use radio_network::adversaries::RandomJammer;
use radio_network::{seed, NetworkConfig, Protocol, Simulation, TraceRetention};
use removal_game::spanner::leader_spanner;

use crate::adapters::{
    step_self_ns, total_ledger, AdversaryLedger, NodeLedger, TimedAdversary, TimedNode,
};
use crate::report::Outcome;
use crate::stats::{
    host_threads, median, now, ns_since, peak_rss_mb, percentile, tail_percentile, Fnv,
};

/// Nodes, adversary budget and channels.
pub const SHAPE: (usize, usize, usize) = (36, 2, 3);
/// Establishments in a run's fixed seed list.
pub const ESTABLISHMENTS: usize = 40;
/// Establishments per timed chunk (the throughput sample).
const CHUNK: usize = 8;
/// Most threads a run uses (fewer when the host has fewer).
pub const MAX_THREADS: usize = 2;
/// Set-ups per timed batch (one batch before each chunk).
const SETUP_BATCH: usize = 4000;
/// Establishments the traced run replays.
const TRACED: usize = 4;

/// The fixed establishment seeds of workload seed `seed`.
pub fn establishment_seeds(seed: u64) -> Vec<u64> {
    (0..ESTABLISHMENTS as u64)
        .map(|i| seed::derive(seed, 1 + i))
        .collect()
}

/// The shape every establishment runs at.
fn params() -> Params {
    let (n, t, c) = SHAPE;
    Params::new(n, t, c).expect("n=36, t=2, C=3 is a valid shape")
}

/// The jammer of phase `part` (1–3) of establishment `est`.
fn jammer(est: u64, part: u64) -> RandomJammer {
    RandomJammer::new(seed::derive(est, part))
}

/// The set-up one establishment needs: its `Params` and adversaries.
fn set_up(est: u64) -> (Params, [RandomJammer; 3]) {
    (params(), [jammer(est, 1), jammer(est, 2), jammer(est, 3)])
}

/// One establishment, untraced.
fn establish(est: u64) -> Result<GroupKeyReport, FameError> {
    let (p, [a1, a2, a3]) = set_up(est);
    establish_group_key(&p, a1, a2, a3, est, false)
}

/// What an establishment must reproduce on replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Summary {
    rounds: GroupKeyRounds,
    moves: usize,
    holders: usize,
    agreement: bool,
    adopted: u64,
}

fn summarize(r: &GroupKeyReport) -> Summary {
    let mut h = Fnv::default();
    for a in &r.adopted {
        match a {
            Some((leader, key)) => {
                h.word(*leader as u64);
                h.bytes(key.as_bytes());
            }
            None => h.word(u64::MAX),
        }
    }
    Summary {
        rounds: r.rounds,
        moves: r.fame_moves,
        holders: r.holders(),
        agreement: r.agreement(),
        adopted: h.finish(),
    }
}

/// The line both runs print per establishment, so a traced run's
/// outcomes can be compared with the untraced run's.
fn outcome_line(est: u64, s: &Summary) -> String {
    format!(
        "outcome est_seed={est:#x} rounds={}+{}+{} moves={} holders={} agreement={} \
         adopted={:016x}",
        s.rounds.part1, s.rounds.part2, s.rounds.part3, s.moves, s.holders, s.agreement, s.adopted
    )
}

/// `true` when all but at most `t` nodes hold one agreed key.
fn succeeded(s: &Summary) -> bool {
    let (n, t, _) = SHAPE;
    s.agreement && s.holders >= n - t
}

/// Run `indices` of the seed list on up to `threads` threads; returns the
/// summaries in `indices` order and the wall time in seconds.
fn run_chunk(
    seeds: &[u64],
    indices: &[usize],
    threads: usize,
) -> Result<(Vec<Summary>, f64), FameError> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Summary>>> = Mutex::new(vec![None; indices.len()]);
    let start = now();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(indices.len()))
            .map(|_| {
                scope.spawn(|| -> Result<(), FameError> {
                    loop {
                        // Relaxed: the counter publishes no other data.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = indices.get(k) else {
                            return Ok(());
                        };
                        let summary = summarize(&establish(seeds[i])?);
                        results.lock().expect("no establishment panicked")[k] = Some(summary);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("establishment thread panicked"))
    })?;
    let wall = start.elapsed().as_secs_f64();
    let summaries = results
        .into_inner()
        .expect("no establishment panicked")
        .into_iter()
        .map(|s| s.expect("every index ran"))
        .collect();
    Ok((summaries, wall))
}

/// The untraced run: cycle the fixed seed list in chunks for `seconds`.
///
/// # Errors
///
/// A protocol or engine failure.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, FameError> {
    let mut out = Outcome::default();
    let seeds = establishment_seeds(seed);
    let threads = MAX_THREADS.min(host_threads());
    out.note(format!(
        "group-key: n,t,C={SHAPE:?} establishments={ESTABLISHMENTS} chunk={CHUNK} \
         threads={threads} adversary=random-jammer per phase workload_seed={seed:#x}"
    ));

    // Cycle the seed list in chunks until `seconds` have passed and every
    // seed ran once, timing a batch of set-ups before each chunk so that
    // the set-up samples span the same window as the chunks.
    let mut setup = Vec::new();
    let mut first: Vec<Option<Summary>> = vec![None; seeds.len()];
    let (mut est_rates, mut round_rates) = (Vec::new(), Vec::new());
    let start = now();
    let mut cursor = 0usize;
    while cursor < seeds.len() || start.elapsed().as_secs_f64() < seconds {
        let t = now();
        for i in 0..SETUP_BATCH {
            black_box(set_up(black_box(seeds[(cursor + i) % seeds.len()])));
        }
        setup.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);

        let indices: Vec<usize> = (cursor..cursor + CHUNK).map(|k| k % seeds.len()).collect();
        cursor += CHUNK;
        let (summaries, wall) = run_chunk(&seeds, &indices, threads)?;
        let rounds: u64 = summaries.iter().map(|s| s.rounds.total()).sum();
        est_rates.push(indices.len() as f64 / wall);
        round_rates.push(rounds as f64 / wall);
        for (&i, s) in indices.iter().zip(&summaries) {
            out.attempted += 1;
            if !succeeded(s) {
                out.failed += 1;
            }
            match first[i] {
                Some(seen) => out.check(
                    seen == *s,
                    format!(
                        "establishment {:#x}: a repeat changed its outcome",
                        seeds[i]
                    ),
                ),
                None => first[i] = Some(*s),
            }
        }
    }
    let measured = start.elapsed().as_secs_f64();

    let firsts: Vec<Summary> = first.into_iter().map(|s| s.expect("full pass")).collect();
    for (est, s) in seeds.iter().zip(&firsts) {
        out.note(outcome_line(*est, s));
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    let misses = firsts.iter().filter(|s| !succeeded(s)).count();
    let mut rounds: Vec<u64> = firsts.iter().map(|s| s.rounds.total()).collect();
    rounds.sort_unstable();
    let tail = tail_percentile(rounds.len());
    out.note(format!(
        "chunks={} measured_s={measured:.3} round_samples={} tail=p{tail} \
         seed_list_misses={misses} failed_share={failed_share}",
        est_rates.len(),
        rounds.len(),
    ));
    out.set("completions_per_s", median(&est_rates));
    out.set("rounds_per_s", median(&round_rates));
    out.set("latency_rounds_p50", percentile(&rounds, 50) as f64);
    out.set("latency_rounds_tail", percentile(&rounds, tail) as f64);
    out.set("success_share", 1.0 - failed_share);
    out.set("setup_s", median(&setup));
    if let Some(rss) = peak_rss_mb() {
        out.set("peak_rss_mb", rss);
    }
    Ok(out)
}

/// The f-AME instance Part 1 of establishment `est` runs: the leader
/// spanner carrying one Diffie–Hellman public value per pair.
fn part1_instance(p: &Params, est: u64) -> AmeInstance {
    let dh = DhConfig::default();
    let keypairs: Vec<KeyPair> = (0..p.n())
        .map(|v| KeyPair::generate(&dh, est ^ ((v as u64) << 24) ^ 0xD1F))
        .collect();
    let pairs = leader_spanner(p.n(), p.t());
    let mut instance = AmeInstance::new(p.n(), pairs.iter().copied()).expect("valid spanner");
    for &(v, w) in &pairs {
        instance = instance
            .with_message(v, w, keypairs[v].public().0.to_be_bytes().to_vec())
            .expect("pair exists");
    }
    instance
}

/// Part 1 as `run_fame` drives it: its round count, node 0's move count
/// and the wall time of the run, plus the ledgers when adapted.
#[derive(Default)]
struct Part1 {
    rounds: u64,
    moves: usize,
    wall_ns: u64,
    step_ns: u64,
    nodes: NodeLedger,
    adversary: AdversaryLedger,
}

fn part1_net(p: &Params) -> NetworkConfig {
    NetworkConfig::new(p.c(), p.t())
        .expect("validated shape")
        .with_channel_model(p.channel_model().clone())
        .with_retention(TraceRetention::LastRounds(FAME_TRACE_WINDOW))
}

/// Part 1 over plain `FameNode`s.
fn part1_plain(p: &Params, instance: &AmeInstance, est: u64) -> Result<Part1, FameError> {
    let nodes = make_nodes(instance, p, est)?;
    let start = now();
    let mut sim = Simulation::new(part1_net(p), nodes, jammer(est, 1), est)?;
    let report = sim.run(round_budget(p, instance.len()))?;
    let wall_ns = ns_since(start);
    Ok(Part1 {
        rounds: report.rounds,
        moves: sim.nodes()[0].moves(),
        wall_ns,
        ..Part1::default()
    })
}

/// Part 1 over adapted `FameNode`s and an adapted jammer, each step timed.
fn part1_timed(p: &Params, instance: &AmeInstance, est: u64) -> Result<Part1, FameError> {
    let nodes: Vec<_> = make_nodes(instance, p, est)?
        .into_iter()
        .map(TimedNode::new)
        .collect();
    let (adv, adv_ledger) = TimedAdversary::new(jammer(est, 1));
    let budget = round_budget(p, instance.len());
    let start = now();
    let mut sim = Simulation::new(part1_net(p), nodes, adv, est)?;
    let (mut rounds, mut step_ns) = (0u64, 0u64);
    while !sim.all_done() {
        if rounds >= budget {
            return Err(FameError::Engine(
                radio_network::EngineError::RoundLimitExceeded {
                    limit: budget,
                    unfinished: sim.nodes().iter().filter(|n| !n.is_done()).count(),
                },
            ));
        }
        let t = now();
        sim.step()?;
        step_ns += ns_since(t);
        rounds += 1;
    }
    let wall_ns = ns_since(start);
    let adversary = *adv_ledger.borrow();
    Ok(Part1 {
        rounds,
        moves: sim.nodes()[0].inner().moves(),
        wall_ns,
        step_ns,
        nodes: total_ledger(sim.nodes()),
        adversary,
    })
}

/// The traced run's group-key ledger over establishments `seeds`: each
/// is run untraced, then with adapted phase adversaries, and its Part 1
/// replayed over plain and adapted `FameNode`s, every replay checked
/// against the untraced outcome. Sets `group_key.*`, `fame.*`,
/// `network.*`, `adversary.act_ns` and `trace_overhead_share` (each only
/// if not yet set).
///
/// # Errors
///
/// A protocol or engine failure.
pub fn ledger(seeds: &[u64], out: &mut Outcome) -> Result<(), FameError> {
    let p = params();
    let mut spans = [Vec::new(), Vec::new(), Vec::new()];
    let mut rounds = GroupKeyRounds::default();
    let mut moves = 0u64;
    let (mut step_ns, mut steps) = (0u64, 0u64);
    let mut overhead = Vec::new();
    let mut nodes = NodeLedger::default();
    let mut adversary = AdversaryLedger::default();
    for &est in seeds {
        let reference = summarize(&establish(est)?);
        out.note(outcome_line(est, &reference));

        let (a1, l1) = TimedAdversary::new(jammer(est, 1));
        let (a2, l2) = TimedAdversary::new(jammer(est, 2));
        let (a3, l3) = TimedAdversary::new(jammer(est, 3));
        let traced = summarize(&establish_group_key(&p, a1, a2, a3, est, false)?);
        out.check(
            traced == reference,
            format!("establishment {est:#x}: adapted adversaries changed the outcome"),
        );
        for (span, l) in spans.iter_mut().zip([l1, l2, l3]) {
            span.push(l.borrow().span_ms());
        }
        rounds.part1 += traced.rounds.part1;
        rounds.part2 += traced.rounds.part2;
        rounds.part3 += traced.rounds.part3;
        moves += traced.moves as u64;

        let instance = part1_instance(&p, est);
        let plain = part1_plain(&p, &instance, est)?;
        let timed = part1_timed(&p, &instance, est)?;
        for (what, run) in [("plain", &plain), ("adapted", &timed)] {
            out.check(
                (run.rounds, run.moves) == (reference.rounds.part1, reference.moves),
                format!("establishment {est:#x}: {what} Part 1 replica diverged"),
            );
        }
        overhead.push(timed.wall_ns as f64 / plain.wall_ns as f64 - 1.0);
        step_ns += timed.step_ns;
        steps += timed.rounds;
        nodes.merge(&timed.nodes);
        adversary.merge(&timed.adversary);
    }
    out.set_missing("group_key.part1_ms", median(&spans[0]));
    out.set_missing("group_key.part2_ms", median(&spans[1]));
    out.set_missing("group_key.part3_ms", median(&spans[2]));
    out.set_missing("group_key.part1_rounds", rounds.part1 as f64);
    out.set_missing("group_key.part2_rounds", rounds.part2 as f64);
    out.set_missing("group_key.part3_rounds", rounds.part3 as f64);
    out.set_missing("fame.moves", moves as f64);
    out.set_missing(
        "fame.node_ns_per_round",
        nodes.node_ns() / steps.max(1) as f64,
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
    out.set_missing("trace_overhead_share", median(&overhead));
    out.note(format!(
        "group-key ledger: establishments={} part1_replica_rounds={steps} \
         node_share_of_step={:.4}",
        seeds.len(),
        nodes.node_ns() / step_ns.max(1) as f64
    ));
    Ok(())
}

/// The first `TRACED` seeds of the list: what the traced run replays.
pub fn traced_seeds(seed: u64) -> Vec<u64> {
    establishment_seeds(seed)[..TRACED].to_vec()
}
