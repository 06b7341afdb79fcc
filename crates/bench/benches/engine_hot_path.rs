//! Hot-path bench: raw `Network::resolve_round_sparse` throughput.
//!
//! Measures the arena-backed engine against
//! [`ReferenceNetwork`] — the plain reference oracle of the §3 round rule
//! (fresh per-channel `Vec`s every round, owned outcomes, unconditional
//! record construction) — across the trace-retention policies, for a
//! cheap `u64` frame and a clone-heavy `Vec<u8>` frame.
//!
//! Four groups:
//!
//! * `resolve_round/*` — the engine as consumers drive it: per-round
//!   adversary construction, borrowed [`RoundView`] result;
//!   `baseline_last64` is the oracle with a 64-round window.
//! * `arena/*` — the arena round core isolated: adversary actions are
//!   pre-built once and reused, so a timed round performs **zero**
//!   steady-state allocations with retention off, and only recycled
//!   bounded-window retention otherwise (`tests/zero_alloc.rs` pins the
//!   zero with a counting allocator).
//! * `sinks/*` — where finished records go, as (retention, `TraceSink`)
//!   pairs on a larger grid, where retention cost dominates.
//! * `sparse/*` — O(active) resolution at fixed activity (24 awake nodes)
//!   as the population grows: `dense_n*` rows drive the oracle over all
//!   `n` dense actions, `sparse_n*` rows feed only the awake pairs to
//!   the engine, and `sim_n*` rows drive the full [`Simulation`]
//!   wake-queue from n = 10³ to 10⁶ — the headline claim is
//!   ns-per-active-node staying flat as `n` grows 1000×.
//!
//! Besides the usual criterion output, `main` writes the measured
//! per-round times to `BENCH_engine.json` so the perf trajectory of this
//! path is tracked in-repo. Under `BENCH_SMOKE=1` (the CI per-push leg)
//! sample counts shrink, the JSON baseline is left untouched, and a loose
//! sanity gate panics if the arena path regresses past the oracle — an
//! allocation-storm regression fails the build loudly instead of
//! silently drifting `BENCH_engine.json`.

use criterion::{black_box, summaries_json, Criterion, Summary};
use radio_network::testing::{to_sparse, ReferenceNetwork};
use radio_network::{
    Action, AdversaryAction, ChannelId, ChannelSink, Network, NetworkConfig, NodeId,
    OverflowPolicy, RoundView, Simulation, TraceRetention,
};
use secure_radio_bench::smoke;
use std::fmt::Debug;

const CHANNELS: usize = 8;
const BUDGET: usize = 2;
const NODES: usize = 64;
const ROUNDS_PER_ITER: usize = 64;
/// The sink-comparison grid: long enough that what happens to finished
/// records (retain / stream / drop) dominates over per-round constants.
const SINK_ROUNDS_PER_ITER: usize = 1024;
/// Queue capacity between the round loop and the trace-writer thread.
const SINK_QUEUE: usize = 256;

/// The actions of one synthetic round: a deterministic mix of transmitters
/// (some colliding), listeners, and sleepers.
fn actions<M: Clone>(round: usize, frame: &M) -> Vec<Action<M>> {
    (0..NODES)
        .map(|i| match i % 4 {
            0 => Action::Transmit {
                channel: ChannelId((i + round) % CHANNELS),
                frame: frame.clone(),
            },
            1 | 2 => Action::Listen {
                channel: ChannelId((i + 2 * round) % CHANNELS),
            },
            _ => Action::Sleep,
        })
        .collect()
}

fn adversary<M>(round: usize) -> AdversaryAction<M> {
    AdversaryAction::jam([
        ChannelId(round % CHANNELS),
        ChannelId((round + 3) % CHANNELS),
    ])
}

/// Drain the parts of a [`RoundView`] a protocol driver touches, without
/// materializing anything — what the steady-state consumer costs.
fn consume_view<M>(view: &RoundView<'_, M>) -> usize {
    let mut delivered = 0usize;
    for ch in 0..view.channels() {
        if view.heard_on(ChannelId(ch)).is_some() {
            delivered += 1;
        }
    }
    delivered
}

fn sample_size(full: usize) -> usize {
    if smoke() {
        3
    } else {
        full
    }
}

fn bench_frame_kind<M: Clone + Debug + Send + 'static>(c: &mut Criterion, kind: &str, frame: &M) {
    let mut group = c.benchmark_group(&format!("resolve_round/{kind}"));
    group.sample_size(sample_size(20));

    // Pre-build the action schedule once, dense for the oracle and as
    // awake pairs for the engine.
    let schedule: Vec<Vec<Action<M>>> = (0..ROUNDS_PER_ITER).map(|r| actions(r, frame)).collect();
    let pairs: Vec<Vec<(NodeId, Action<M>)>> = schedule.iter().map(|a| to_sparse(a)).collect();

    // Each timed iteration is a self-contained unit — fresh network, then
    // ROUNDS_PER_ITER resolved rounds — so no variant accumulates state
    // across iterations (under `All` an ever-growing trace would otherwise
    // distort later samples) and all variants stay comparable.
    group.bench_function("baseline_last64", |b| {
        let cfg = NetworkConfig::new(CHANNELS, BUDGET)
            .unwrap()
            .with_retention(TraceRetention::LastRounds(64));
        b.iter(|| {
            let mut net: ReferenceNetwork<M> = ReferenceNetwork::new(cfg.clone());
            for (r, acts) in schedule.iter().enumerate() {
                black_box(net.resolve_round_dense(acts, &adversary(r)).unwrap());
            }
        })
    });

    for (label, retention) in [
        ("engine_all", TraceRetention::All),
        ("engine_last64", TraceRetention::LastRounds(64)),
        ("engine_none", TraceRetention::None),
    ] {
        group.bench_function(label, |b| {
            let cfg = NetworkConfig::new(CHANNELS, BUDGET)
                .unwrap()
                .with_retention(retention);
            b.iter(|| {
                let mut net: Network<M> = Network::new(cfg.clone());
                let mut delivered = 0usize;
                for (r, acts) in pairs.iter().enumerate() {
                    let adv = adversary(r);
                    let view = net.resolve_round_sparse(acts, &adv).unwrap();
                    delivered += consume_view(black_box(&view));
                }
                delivered
            })
        });
    }
    group.finish();
}

/// The arena round core isolated: actions *and* adversary moves are
/// pre-built, so a timed round is exactly the engine's own work — gather,
/// counting-sort spans, slot tags, stats, and (for the retention-on rows)
/// the recycled record arena.
fn bench_arena<M: Clone + Debug + Send + 'static>(c: &mut Criterion, kind: &str, frame: &M) {
    let mut group = c.benchmark_group(&format!("arena/{kind}"));
    group.sample_size(sample_size(20));

    let schedule: Vec<Vec<(NodeId, Action<M>)>> = (0..ROUNDS_PER_ITER)
        .map(|r| to_sparse(&actions(r, frame)))
        .collect();
    let adversaries: Vec<AdversaryAction<M>> = (0..ROUNDS_PER_ITER).map(adversary).collect();

    for (label, retention) in [
        ("view_none", TraceRetention::None),
        ("view_last64", TraceRetention::LastRounds(64)),
    ] {
        group.bench_function(label, |b| {
            let cfg = NetworkConfig::new(CHANNELS, BUDGET)
                .unwrap()
                .with_retention(retention);
            b.iter(|| {
                let mut net: Network<M> = Network::new(cfg.clone());
                let mut delivered = 0usize;
                for (acts, adv) in schedule.iter().zip(&adversaries) {
                    let view = net.resolve_round_sparse(acts, adv).unwrap();
                    delivered += consume_view(black_box(&view));
                }
                delivered
            })
        });
    }
    group.finish();
}

/// The sink shoot-out: identical schedule and full record construction
/// for every variant except the record-free `null` floor (retention off,
/// no sink); only the destination of finished records differs:
/// `inmemory_all` retains everything in the network's trace, the
/// `channel_*` rows retain nothing and stream through a [`ChannelSink`].
///
/// Unlike the `resolve_round/*` group, the network (and its sink) lives
/// across *all* samples of a variant and each timed iteration advances it
/// by another `SINK_ROUNDS_PER_ITER` rounds — the steady-state regime of
/// a long experiment, which is where retention policy matters: the
/// in-memory `All` trace keeps growing for the whole measurement, while
/// the streaming sinks stay flat and pay only the channel handoff on the
/// timed loop (serialization and I/O run on the writer thread; the final
/// drain/join happens after measurement). On a single-core host the
/// writer thread competes with the round loop for the one CPU, so the
/// channel rows are an upper bound there — real cores only widen the gap.
fn bench_sinks<M: Clone + Debug + Send + 'static>(c: &mut Criterion, kind: &str, frame: &M) {
    let mut group = c.benchmark_group(&format!("sinks/{kind}"));
    group.sample_size(sample_size(10));

    let schedule: Vec<Vec<(NodeId, Action<M>)>> = (0..SINK_ROUNDS_PER_ITER)
        .map(|r| to_sparse(&actions(r, frame)))
        .collect();
    let adversaries: Vec<AdversaryAction<M>> = (0..SINK_ROUNDS_PER_ITER).map(adversary).collect();
    let cfg = NetworkConfig::new(CHANNELS, BUDGET).unwrap();
    let trace_path = std::env::temp_dir().join(format!(
        "secure-radio-bench-sink-{}-{kind}.jsonl",
        std::process::id()
    ));

    // (label, retention, streaming policy): every row is one
    // (retention, sink) pair.
    let variants = [
        ("inmemory_all", TraceRetention::All, None),
        (
            "channel_block",
            TraceRetention::None,
            Some(OverflowPolicy::Block),
        ),
        (
            "channel_drop",
            TraceRetention::None,
            Some(OverflowPolicy::DropNewest),
        ),
        ("null", TraceRetention::None, None),
    ];
    for (label, retention, policy) in variants {
        let cfg = cfg.clone().with_retention(retention);
        let mut net: Network<M> = match policy {
            Some(policy) => {
                let sink = ChannelSink::create(&trace_path, SINK_QUEUE, policy)
                    .expect("create trace file");
                Network::with_sink(cfg, Box::new(sink))
            }
            None => Network::new(cfg),
        };
        let mut round = 0usize;
        group.bench_function(label, |b| {
            b.iter(|| {
                for i in 0..SINK_ROUNDS_PER_ITER {
                    let slot = (round + i) % SINK_ROUNDS_PER_ITER;
                    let view = net
                        .resolve_round_sparse(&schedule[slot], &adversaries[slot])
                        .unwrap();
                    black_box(view.round());
                }
                round += SINK_ROUNDS_PER_ITER;
                net.stats().dropped_records
            })
        });
        // Teardown (drain + join for the channel sinks) outside the
        // measurement, like a real experiment finishing after its sweep.
        drop(net);
    }
    group.finish();
    std::fs::remove_file(&trace_path).ok();
}

/// Fixed activity for the `sparse/*` group: 8 transmitters (one per
/// channel, modulo jamming) + 16 listeners, regardless of population.
const ACTIVE_TX: usize = 8;
const ACTIVE: usize = 24;

/// The action of the `i`-th *active* slot (the population sleeps).
fn active_action(i: usize, round: usize) -> Action<u64> {
    if i < ACTIVE_TX {
        Action::Transmit {
            channel: ChannelId((i + round) % CHANNELS),
            frame: (round * 1000 + i) as u64,
        }
    } else {
        Action::Listen {
            channel: ChannelId((i + 2 * round) % CHANNELS),
        }
    }
}

/// A population node for the `sim_n*` rows: the 24 active slots follow
/// the fixed schedule every round; everyone else sleeps once at round 0
/// and then advertises [`radio_network::NEVER`], leaving the wake-queue.
#[derive(Debug)]
struct SparseSimNode {
    /// Active-slot index (< [`ACTIVE`]), or `ACTIVE` for a sleeper.
    slot: usize,
}

impl radio_network::Protocol for SparseSimNode {
    type Msg = u64;

    fn begin_round(&mut self, round: u64) -> Action<u64> {
        if self.slot < ACTIVE {
            active_action(self.slot, round as usize)
        } else {
            Action::Sleep
        }
    }

    fn end_round(&mut self, _round: u64, _reception: Option<radio_network::Reception<&u64>>) {}

    fn is_done(&self) -> bool {
        false // driven by an explicit step loop
    }

    fn next_wake(&self, round: u64) -> u64 {
        if self.slot < ACTIVE {
            round + 1
        } else {
            radio_network::NEVER
        }
    }
}

/// The O(active) scaling group: identical activity (8 tx + 16 listeners +
/// the reused 2-channel jammer), population as the only variable.
/// Retention is off everywhere — this measures resolution, not tracing.
fn bench_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse/u64");
    group.sample_size(sample_size(10));
    let adversaries: Vec<AdversaryAction<u64>> = (0..ROUNDS_PER_ITER).map(adversary).collect();
    let cfg = NetworkConfig::new(CHANNELS, BUDGET)
        .unwrap()
        .with_retention(TraceRetention::None);

    // Dense rows: the oracle over one reusable n-slot action buffer, only
    // the 24 active slots rewritten per round — its gather walks all n.
    for n in [10_000usize, 100_000] {
        group.bench_function(format!("dense_n{n}").as_str(), |b| {
            let mut net: ReferenceNetwork<u64> = ReferenceNetwork::new(cfg.clone());
            let mut acts: Vec<Action<u64>> = vec![Action::Sleep; n];
            b.iter(|| {
                let mut delivered = 0usize;
                for (r, adv) in adversaries.iter().enumerate() {
                    for (i, slot) in acts.iter_mut().enumerate().take(ACTIVE) {
                        *slot = active_action(i, r);
                    }
                    let outcomes = net.resolve_round_dense(&acts, adv).unwrap();
                    delivered += black_box(&outcomes)
                        .iter()
                        .filter(|o| o.heard().is_some())
                        .count();
                }
                delivered
            })
        });
    }

    // Sparse rows: the same 24 actions as node-sorted pairs (ids spread
    // across the nominal population); n never enters the engine.
    for n in [10_000usize, 100_000] {
        group.bench_function(format!("sparse_n{n}").as_str(), |b| {
            let mut net: Network<u64> = Network::new(cfg.clone());
            let stride = n / ACTIVE;
            let mut pairs: Vec<(NodeId, Action<u64>)> = (0..ACTIVE)
                .map(|i| (NodeId(i * stride), Action::Sleep))
                .collect();
            b.iter(|| {
                let mut delivered = 0usize;
                for (r, adv) in adversaries.iter().enumerate() {
                    for (i, pair) in pairs.iter_mut().enumerate() {
                        pair.1 = active_action(i, r);
                    }
                    let view = net.resolve_round_sparse(&pairs, adv).unwrap();
                    delivered += consume_view(black_box(&view));
                }
                delivered
            })
        });
    }

    // Full-driver n-scaling rows: the wake-queue visits 24 nodes per
    // round no matter the population. The simulation persists across
    // samples (like `sinks/*`); round 0 — the one O(n) round, where every
    // node is polled once and the sleepers leave the queue — runs before
    // measurement.
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        group.bench_function(format!("sim_n{n}").as_str(), |b| {
            let stride = n / ACTIVE;
            let nodes: Vec<SparseSimNode> = (0..n)
                .map(|id| SparseSimNode {
                    slot: if id % stride == 0 && id / stride < ACTIVE {
                        id / stride
                    } else {
                        ACTIVE
                    },
                })
                .collect();
            let mut sim = Simulation::new(
                cfg.clone(),
                nodes,
                radio_network::adversaries::NoAdversary,
                7,
            )
            .unwrap();
            sim.step().unwrap(); // round 0: drain the sleepers
            b.iter(|| {
                for _ in 0..ROUNDS_PER_ITER {
                    sim.step().unwrap();
                }
                sim.stats().rounds
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_frame_kind(&mut c, "u64", &0xFEEDu64);
    bench_frame_kind(&mut c, "vec256", &vec![0xA5u8; 256]);
    bench_arena(&mut c, "u64", &0xFEEDu64);
    bench_arena(&mut c, "vec256", &vec![0xA5u8; 256]);
    bench_sinks(&mut c, "u64", &0xFEEDu64);
    bench_sinks(&mut c, "vec256", &vec![0xA5u8; 256]);
    bench_sparse(&mut c);

    let summaries: Vec<Summary> = c.take_summaries();
    if summaries.iter().all(|s| s.median_ns > 0.0) {
        // Normalize to per-round cost (each iteration resolves a full
        // schedule — ROUNDS_PER_ITER rounds for the `resolve_round/*` and
        // `arena/*` groups, SINK_ROUNDS_PER_ITER for `sinks/*`) before
        // writing the JSON baseline.
        let per_round: Vec<Summary> = summaries
            .iter()
            .map(|s| {
                let rounds = if s.id.starts_with("sinks/") {
                    SINK_ROUNDS_PER_ITER as f64
                } else {
                    ROUNDS_PER_ITER as f64
                };
                Summary {
                    id: s.id.clone(),
                    samples: s.samples,
                    iters_per_sample: s.iters_per_sample,
                    median_ns: s.median_ns / rounds,
                    mean_ns: s.mean_ns / rounds,
                    min_ns: s.min_ns / rounds,
                    max_ns: s.max_ns / rounds,
                }
            })
            .collect();
        let median = |needle: &str| {
            per_round
                .iter()
                .find(|s| s.id == needle)
                .map(|s| s.median_ns)
        };
        // The smoke-mode regression gate: the arena path with recycled
        // bounded retention must never fall behind the reference oracle.
        // The 1.0x threshold is deliberately loose (the steady-state gap
        // is severalfold) so CI timing noise cannot trip it, while an
        // accidental per-round allocation storm still fails the push
        // loudly instead of silently drifting BENCH_engine.json.
        for kind in ["u64", "vec256"] {
            if let (Some(naive), Some(arena)) = (
                median(&format!("resolve_round/{kind}/baseline_last64")),
                median(&format!("arena/{kind}/view_last64")),
            ) {
                assert!(
                    arena <= naive,
                    "arena regression ({kind}): view_last64 {arena:.0} ns/round is slower than \
                     the reference oracle {naive:.0} ns/round"
                );
            }
        }
        // The large-n sparse gate: at matched activity (24 awake nodes),
        // the engine must never be slower than the dense oracle — the
        // oracle's gather walks all n actions, the engine's only the
        // awake pairs, so the margin is ~n/activity and timing noise
        // cannot close it unless the worklist machinery regresses badly.
        for n in [10_000usize, 100_000] {
            if let (Some(dense), Some(sparse)) = (
                median(&format!("sparse/u64/dense_n{n}")),
                median(&format!("sparse/u64/sparse_n{n}")),
            ) {
                assert!(
                    sparse <= dense,
                    "sparse regression (n={n}): sparse {sparse:.0} ns/round is slower than \
                     the dense oracle {dense:.0} ns/round at identical activity"
                );
            }
        }
        if smoke() {
            println!(
                "\nsmoke mode: sanity gate passed; BENCH_engine.json left untouched \
                 (run without BENCH_SMOKE to refresh it)"
            );
            return;
        }
        // cargo runs benches with the package dir as CWD; write the
        // baseline next to the other BENCH_*.json at the workspace root.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
        std::fs::write(path, summaries_json(&per_round)).expect("write BENCH_engine.json");
        println!("\nwrote BENCH_engine.json (times are ns per resolved round)");
        for kind in ["u64", "vec256"] {
            if let (Some(naive), Some(lean)) = (
                median(&format!("resolve_round/{kind}/baseline_last64")),
                median(&format!("resolve_round/{kind}/engine_none")),
            ) {
                println!(
                    "{kind}: baseline {naive:.0} ns/round -> retention-none engine \
                     {lean:.0} ns/round ({:.2}x)",
                    naive / lean
                );
            }
            if let (Some(naive), Some(view), Some(none)) = (
                median(&format!("resolve_round/{kind}/baseline_last64")),
                median(&format!("arena/{kind}/view_last64")),
                median(&format!("arena/{kind}/view_none")),
            ) {
                println!(
                    "{kind} arena: retention-on view {view:.0} ns/round ({:.2}x vs baseline), \
                     zero-alloc view {none:.0} ns/round ({:.2}x)",
                    naive / view,
                    naive / none
                );
            }
            if let (Some(mem), Some(drop), Some(null)) = (
                median(&format!("sinks/{kind}/inmemory_all")),
                median(&format!("sinks/{kind}/channel_drop")),
                median(&format!("sinks/{kind}/null")),
            ) {
                println!(
                    "{kind} sinks @{SINK_ROUNDS_PER_ITER} rounds: in-memory {mem:.0} \
                     ns/round, channel(drop) {drop:.0} ns/round ({:.2}x), \
                     null {null:.0} ns/round ({:.2}x)",
                    mem / drop,
                    mem / null
                );
            }
        }
        for n in [10_000usize, 100_000] {
            if let (Some(dense), Some(sparse)) = (
                median(&format!("sparse/u64/dense_n{n}")),
                median(&format!("sparse/u64/sparse_n{n}")),
            ) {
                println!(
                    "sparse engine n={n} @{ACTIVE} active: dense {dense:.0} ns/round -> \
                     sparse {sparse:.0} ns/round ({:.1}x)",
                    dense / sparse
                );
            }
        }
        let mut scaling = String::new();
        for n in [1_000usize, 10_000, 100_000, 1_000_000] {
            if let Some(m) = median(&format!("sparse/u64/sim_n{n}")) {
                use std::fmt::Write as _;
                write!(
                    scaling,
                    " n={n}: {m:.0} ns/round ({:.1} ns/active-node);",
                    m / ACTIVE as f64
                )
                .expect("write to String");
            }
        }
        if !scaling.is_empty() {
            println!("sparse sim n-scaling @{ACTIVE} active:{scaling}");
        }
    }
}
