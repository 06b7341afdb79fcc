//! Counting-allocator proof of the arena round core's headline claim:
//! after warm-up, **a steady-state round performs zero heap
//! allocations** —
//!
//! * with trace retention off and no sink (`Network::new` under
//!   `TraceRetention::None`: no record is built at all),
//! * with a *bounded in-memory window* (`LastRounds(k)`), where the
//!   record arena plus [`Trace::push_swap`]'s recycling keep even the
//!   retention-on loop allocation-free for inline frames,
//! * through the full [`Simulation`] driver (reused action buffer,
//!   borrowed receptions),
//! * and on the sparse path at large `n` (100 000 nodes, 8 awake): the
//!   wake-queue driver plus the active-channel worklist keep the
//!   steady-state round allocation-free even when the population dwarfs
//!   the activity.
//!
//! The file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread inside a measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use radio_network::adversaries::NoAdversary;
use radio_network::testing::to_sparse;
use radio_network::{
    Action, AdversaryAction, ChannelId, ChannelModelSpec, Network, NetworkConfig, NodeId, Protocol,
    Reception, Simulation, TraceRetention,
};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocator event, then delegates to the system allocator.
struct CountingAllocator;

// SAFETY: pure pass-through to `System`; the counters are lock-free
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn snapshot() -> (u64, u64, u64) {
    (
        ALLOCS.load(Ordering::SeqCst),
        REALLOCS.load(Ordering::SeqCst),
        DEALLOCS.load(Ordering::SeqCst),
    )
}

/// Assert the workload performs zero allocator events of any kind (no
/// alloc, no realloc, and no dealloc — steady state must not churn).
///
/// The counters are process-global, and the libtest harness owns
/// background threads that may lazily allocate once (panic-hook setup,
/// slow-test timers); a window polluted that way is retried, because a
/// *real* regression — the round loop touching the allocator — dirties
/// every window, so it can never pass the retry.
fn assert_zero_alloc(label: &str, mut f: impl FnMut()) {
    let mut last = (0, 0, 0);
    for _attempt in 0..3 {
        let before = snapshot();
        f();
        let after = snapshot();
        last = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        if last == (0, 0, 0) {
            return;
        }
    }
    panic!(
        "{label}: steady-state rounds hit the allocator in every window \
         (allocs={}, reallocs={}, deallocs={})",
        last.0, last.1, last.2
    );
}

const CHANNELS: usize = 8;
const NODES: usize = 64;
/// Enough rounds to cycle the whole action schedule several times, so
/// every per-channel load shape the schedule produces has warmed the
/// arena (and, for `LastRounds`, filled + recycled the window).
const WARMUP: usize = 256;
const MEASURED: usize = 512;

/// The awake `(node, action)` pairs of one round, per round of a
/// schedule.
type Schedule = Vec<Vec<(NodeId, Action<u64>)>>;

/// One deterministic round schedule: transmitters (some colliding),
/// listeners, sleepers — the same mix `benches/engine_hot_path.rs` times.
fn schedule() -> Schedule {
    (0..64)
        .map(|round| {
            let actions: Vec<Action<u64>> = (0..NODES)
                .map(|i| match i % 4 {
                    0 => Action::Transmit {
                        channel: ChannelId((i + round) % CHANNELS),
                        frame: (round * 1000 + i) as u64,
                    },
                    1 | 2 => Action::Listen {
                        channel: ChannelId((i + 2 * round) % CHANNELS),
                    },
                    _ => Action::Sleep,
                })
                .collect();
            to_sparse(&actions)
        })
        .collect()
}

/// Like [`schedule`], but with exactly one transmitter per channel (the
/// [`LeanNode`] pattern), so channels actually deliver — the shape the
/// lossy model needs: only deliverable frames can be dropped.
fn lone_tx_schedule() -> Schedule {
    (0..64)
        .map(|round| {
            let actions: Vec<Action<u64>> = (0..NODES)
                .map(|i| match i % 8 {
                    0 => Action::Transmit {
                        channel: ChannelId((i / 8 + round) % CHANNELS),
                        frame: (round * 1000 + i) as u64,
                    },
                    1..=3 => Action::Listen {
                        channel: ChannelId((i + 2 * round) % CHANNELS),
                    },
                    _ => Action::Sleep,
                })
                .collect();
            to_sparse(&actions)
        })
        .collect()
}

/// Drive `net` through `rounds` rounds of the schedule with a reused
/// jamming adversary action, consuming each view without materializing.
fn drive(
    net: &mut Network<u64>,
    schedule: &[Vec<(NodeId, Action<u64>)>],
    adversaries: &[AdversaryAction<u64>],
    rounds: usize,
) -> usize {
    let mut delivered = 0;
    for r in 0..rounds {
        let acts = &schedule[r % schedule.len()];
        let adv = &adversaries[r % adversaries.len()];
        let view = net.resolve_round_sparse(acts, adv).expect("round resolves");
        for ch in 0..view.channels() {
            if view.heard_on(ChannelId(ch)).is_some() {
                delivered += 1;
            }
        }
    }
    delivered
}

/// A minimal protocol node for the full-stack check: deterministic
/// transmit/listen pattern, counts receptions instead of storing them.
#[derive(Debug)]
struct LeanNode {
    id: usize,
    round: u64,
    frames_heard: u64,
}

impl Protocol for LeanNode {
    type Msg = u64;

    fn begin_round(&mut self, round: u64) -> Action<u64> {
        self.round = round;
        // Exactly one transmitter per channel (ids 0, 8, …, 56 spread over
        // the 8 channels), so frames actually deliver; the rest rotate
        // between listening and sleeping.
        match self.id % 8 {
            0 => Action::Transmit {
                channel: ChannelId((self.id / 8 + round as usize) % CHANNELS),
                frame: self.id as u64,
            },
            1..=3 => Action::Listen {
                channel: ChannelId((self.id + 2 * round as usize) % CHANNELS),
            },
            _ => Action::Sleep,
        }
    }

    fn end_round(&mut self, _round: u64, reception: Option<Reception<&u64>>) {
        if let Some(Reception { frame: Some(_), .. }) = reception {
            self.frames_heard += 1;
        }
    }

    fn is_done(&self) -> bool {
        false // driven by an explicit step loop below
    }
}

/// A node for the large-`n` sparse check: the first [`SPARSE_ACTIVE`]
/// slots transmit or listen every round; everyone else sleeps forever and
/// advertises it, so the wake queue drains them after round 0.
#[derive(Debug)]
struct SparseNode {
    /// `< SPARSE_ACTIVE` for the active minority, `SPARSE_ACTIVE` for
    /// the sleepers.
    slot: usize,
}

const SPARSE_NODES: usize = 100_000;
const SPARSE_ACTIVE: usize = 8;

impl Protocol for SparseNode {
    type Msg = u64;

    fn begin_round(&mut self, round: u64) -> Action<u64> {
        let r = round as usize;
        match self.slot {
            s if s < SPARSE_ACTIVE / 2 => Action::Transmit {
                channel: ChannelId((s + r) % CHANNELS),
                frame: (round * 1000 + s as u64),
            },
            s if s < SPARSE_ACTIVE => Action::Listen {
                channel: ChannelId((s + 2 * r) % CHANNELS),
            },
            _ => Action::Sleep,
        }
    }

    fn end_round(&mut self, _round: u64, _reception: Option<Reception<&u64>>) {}

    fn is_done(&self) -> bool {
        false
    }

    fn next_wake(&self, round: u64) -> u64 {
        if self.slot < SPARSE_ACTIVE {
            round + 1
        } else {
            radio_network::NEVER
        }
    }
}

#[test]
fn steady_state_round_loop_allocates_nothing() {
    let schedule = schedule();
    // Adversary actions built once and *reused* (the engine borrows
    // them) — jamming included, so the zero covers collision accounting.
    let adversaries: Vec<AdversaryAction<u64>> = (0..schedule.len())
        .map(|r| AdversaryAction::jam([ChannelId(r % CHANNELS), ChannelId((r + 3) % CHANNELS)]))
        .collect();

    // 1. Retention off and no sink: the record-free path, where a round
    //    only counts itself in the trace.
    let cfg_off = NetworkConfig::new(CHANNELS, 2)
        .unwrap()
        .with_retention(TraceRetention::None);
    let mut net: Network<u64> = Network::new(cfg_off);
    drive(&mut net, &schedule, &adversaries, WARMUP);
    assert_zero_alloc("retention off", || {
        drive(&mut net, &schedule, &adversaries, MEASURED);
    });
    assert_eq!(net.stats().rounds as usize, WARMUP + MEASURED);
    assert_eq!(net.trace().completed_rounds() as usize, WARMUP + MEASURED);
    assert!(net.trace().is_empty());

    // 2. Bounded in-memory retention: the record arena plus
    //    Trace::push_swap's window recycling keep even the retention-on
    //    loop off the allocator once the window has filled and every
    //    recycled record's vectors have seen the schedule's maxima.
    let cfg_last = NetworkConfig::new(CHANNELS, 2)
        .unwrap()
        .with_retention(TraceRetention::LastRounds(64));
    let mut net: Network<u64> = Network::new(cfg_last);
    drive(&mut net, &schedule, &adversaries, WARMUP);
    assert_zero_alloc("LastRounds(64) recycled window", || {
        drive(&mut net, &schedule, &adversaries, MEASURED);
    });
    assert_eq!(net.trace().len(), 64);

    // 3. The full Simulation driver: reused action buffer, borrowed
    //    receptions, idle adversary (a jamming Adversary impl returns an
    //    owned action per round, which is the attacker's allocation, not
    //    the driver's).
    let cfg_sim = NetworkConfig::new(CHANNELS, 2)
        .unwrap()
        .with_retention(TraceRetention::None);
    let nodes: Vec<LeanNode> = (0..NODES)
        .map(|id| LeanNode {
            id,
            round: 0,
            frames_heard: 0,
        })
        .collect();
    let mut sim = Simulation::new(cfg_sim, nodes, NoAdversary, 7).unwrap();
    for _ in 0..WARMUP {
        sim.step().unwrap();
    }
    assert_zero_alloc("Simulation::step", || {
        for _ in 0..MEASURED {
            sim.step().unwrap();
        }
    });
    let heard: u64 = sim.nodes().iter().map(|n| n.frames_heard).sum();
    assert!(heard > 0, "the lean protocol must actually communicate");

    // 4. The sparse path at large n: 100 000 nodes of which 8 are awake.
    //    Round 0 visits everyone (heap + action buffer reach their
    //    high-water marks) and drains the 99 992 never-waking sleepers
    //    from the queue; from then on each round touches only the awake
    //    minority and the channels they occupy, and must stay off the
    //    allocator — wake-queue requeues included.
    let cfg_sparse = NetworkConfig::new(CHANNELS, 2)
        .unwrap()
        .with_retention(TraceRetention::None);
    let nodes: Vec<SparseNode> = (0..SPARSE_NODES)
        .map(|id| SparseNode {
            slot: if id < SPARSE_ACTIVE {
                id
            } else {
                SPARSE_ACTIVE
            },
        })
        .collect();
    let mut sim = Simulation::new(cfg_sparse, nodes, NoAdversary, 7).unwrap();
    for _ in 0..WARMUP {
        sim.step().unwrap();
    }
    assert_zero_alloc("sparse n=100_000, 8 awake", || {
        for _ in 0..MEASURED {
            sim.step().unwrap();
        }
    });
    assert_eq!(sim.stats().rounds, (WARMUP + MEASURED) as u64);
    assert!(
        sim.stats().honest_deliveries > 0,
        "the awake minority must actually communicate"
    );

    // 5. A diverging channel model (Lossy at 25% drop): per-listener
    //    outcomes are pure derive() draws with no sequential state, and
    //    the record arena's reception vectors recycle like every other
    //    column, so the model layer adds nothing to the steady-state
    //    allocation count — with retention off and with a bounded window
    //    (where divergent receptions are actually recorded).
    let lossy = ChannelModelSpec::Lossy {
        p_loss_ppm: 250_000,
    };
    let lone_schedule = lone_tx_schedule();
    let cfg_lossy = NetworkConfig::new(CHANNELS, 2)
        .unwrap()
        .with_retention(TraceRetention::None)
        .with_channel_model(lossy);
    let mut net: Network<u64> = Network::new(cfg_lossy);
    net.seed_channel_model(99);
    drive(&mut net, &lone_schedule, &adversaries, WARMUP);
    assert_zero_alloc("lossy model, retention off", || {
        drive(&mut net, &lone_schedule, &adversaries, MEASURED);
    });
    assert!(
        net.stats().silent_receptions > 0,
        "25% loss must actually drop frames"
    );

    // The recorded-window variant drops *every* deliverable frame: a
    // fractional rate makes the per-round reception count stochastic, so
    // recycled buffers keep meeting new all-time maxima (and realloc)
    // indefinitely; full drop makes each round's reception column a pure
    // function of the schedule shape. The window holds 64 records plus
    // the arena's — 65 buffers rotating one slot per round over the
    // 64-round schedule — so 65 cycles of warm-up let every buffer meet
    // every shape's high-water mark.
    let cfg_lossy_window = NetworkConfig::new(CHANNELS, 2)
        .unwrap()
        .with_retention(TraceRetention::LastRounds(64))
        .with_channel_model(ChannelModelSpec::Lossy {
            p_loss_ppm: 1_000_000,
        });
    let mut net: Network<u64> = Network::new(cfg_lossy_window);
    net.seed_channel_model(99);
    drive(&mut net, &lone_schedule, &adversaries, 65 * 64);
    assert_zero_alloc("lossy model, LastRounds(64) recycled window", || {
        drive(&mut net, &lone_schedule, &adversaries, MEASURED);
    });
    assert!(
        net.trace().records().any(|r| !r.reception_nodes.is_empty()),
        "the retained window must contain divergent receptions"
    );
}
