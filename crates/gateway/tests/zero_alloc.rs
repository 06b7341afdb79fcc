//! Counting-allocator proof of the gateway's headline claim: after the
//! opening epoch has warmed every buffer, **a multi-session steady-state
//! tick performs zero heap allocations** — the sparse engine round, the
//! held hop block, the acceptance-cursor drain, and the pre-sized
//! transcript pushes all stay off the allocator, across every live
//! session the shard owns, and across a group-key rotation: applying a
//! rekey replaces the nodes' held per-key crypto in place.
//!
//! The file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread inside a measurement window (the same discipline as
//! `radio-network/tests/zero_alloc.rs`, which pins the engine layer this
//! builds on).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gateway::{keyed_nodes, Request, ServiceConfig, WorkerShard};
use radio_crypto::key::SymmetricKey;

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

/// Assert the workload performs zero allocator events of any kind,
/// retrying a polluted window (libtest background threads may lazily
/// allocate once; a real regression dirties every window).
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
        "{label}: steady-state gateway ticks hit the allocator in every window \
         (allocs={}, reallocs={}, deallocs={})",
        last.0, last.1, last.2
    );
}

const SESSIONS: usize = 8;

#[test]
fn steady_state_multi_session_tick_allocates_nothing() {
    // One shard owning 8 sessions of the minimal long-lived shape
    // (n = 18, t = 1, C = 2; epoch = 35 physical rounds), horizon 3
    // emulated rounds. Every session broadcasts at emulated round 0 and
    // then listens, and rotates its group key at emulated round 2 — so
    // the measured window exercises the steady state a long-lived service
    // actually lives in: all nodes hopping and listening, acceptance logs
    // quiet, jammer idle, and one key rotation.
    let cfg = ServiceConfig::new(SESSIONS, 1, 18, 1, 2, 3, 77);
    let mut shard = WorkerShard::new(&cfg, 0).expect("shard opens");
    for s in 0..SESSIONS {
        let keyed = keyed_nodes(&cfg, s);
        let sender = (0..cfg.n).find(|&v| keyed[v]).expect("some node is keyed");
        shard.admit(Request::Broadcast {
            session: s,
            sender,
            eround: 0,
            payload: vec![0xAB; 11],
        });
        shard.admit(Request::Rekey {
            session: s,
            eround: 2,
            key: SymmetricKey::from_bytes([s as u8 + 1; 32]),
        });
    }
    shard.open_sessions().expect("sessions open");
    assert_eq!(shard.live_sessions(), SESSIONS);
    assert_eq!(shard.rejected(), 0, "every broadcast and rekey admitted");

    let epoch = 35u64; // Params(18, 1, 2).epoch_rounds()

    // Warm-up: the whole broadcasting epoch (seal/open allocations,
    // acceptance pushes, arena high-water marks) plus a few rounds of
    // the listening regime.
    for _ in 0..epoch + 5 {
        shard.tick().expect("tick");
    }

    // Measured window: one full epoch of multi-session steady state,
    // strictly inside the session lifetime (3 epochs total), crossing
    // the rekey at round 2 * epoch = 70.
    assert_zero_alloc("8-session steady-state tick", || {
        for _ in 0..epoch {
            shard.tick().expect("tick");
        }
    });

    // The window measured live work, and the sessions still finish
    // correctly afterwards: every broadcast reaches every other keyed
    // node.
    assert_eq!(shard.live_sessions(), SESSIONS);
    while shard.live_sessions() > 0 {
        shard.tick().expect("tick");
    }
    let outcomes = shard.take_outcomes();
    assert_eq!(outcomes.len(), SESSIONS);
    for o in &outcomes {
        assert!(o.expected > 0);
        assert_eq!(
            o.delivered, o.expected,
            "session {} dropped deliveries on a quiet channel",
            o.session
        );
    }
}
