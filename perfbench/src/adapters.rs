//! Bench-side adapters that time or count every call a simulation makes
//! into a protocol node or an adversary.
//!
//! The library stays uninstrumented: a [`TimedNode`] wraps any
//! [`Protocol`] and forwards each trait method unchanged, so a simulation
//! over adapted nodes computes exactly what the plain one does (the
//! `forwarding` tests pin this). Every call is counted; `begin_round`,
//! `end_round` and the adversary's `act` are also timed, on a
//! pseudo-random one in [`STRIDE`] of their calls, because a clock read
//! costs about as much as an f-AME node's whole round. Means come from
//! the timed calls, minus the clock's own share ([`Clock`]); totals are
//! mean × calls.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use radio_network::{seed, Action, Adversary, AdversaryAction, AdversaryView, Protocol, Reception};

use crate::stats::{median, now};

/// One in this many calls is timed.
pub const STRIDE: u64 = 32;

/// The cost of the clock itself, measured once per process.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    /// What a span around no work reads, in nanoseconds: subtracted from
    /// every timed call.
    pub empty_span_ns: f64,
    /// Wall time one timed call adds (two clock reads), in nanoseconds.
    pub timed_call_ns: f64,
}

/// The calibrated [`Clock`].
pub fn clock() -> Clock {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    *CLOCK.get_or_init(|| {
        const N: u32 = 100_000;
        let (mut spans, mut pairs) = (Vec::new(), Vec::new());
        for _ in 0..7 {
            let start = now();
            let mut recorded = 0u128;
            for _ in 0..N {
                let t = now();
                recorded += t.elapsed().as_nanos();
            }
            pairs.push(start.elapsed().as_nanos() as f64 / f64::from(N));
            spans.push(recorded as f64 / f64::from(N));
        }
        Clock {
            empty_span_ns: median(&spans),
            timed_call_ns: median(&pairs),
        }
    })
}

/// Calls made, how many were timed, and the time inside the timed ones.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Tally {
    /// Calls counted.
    pub calls: u64,
    /// Calls timed.
    pub timed: u64,
    /// Nanoseconds inside the timed calls, net of the clock's own share.
    pub ns: f64,
}

impl Tally {
    /// Count one call of `f`, timing it when this call is sampled.
    fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let due = seed::derive(self.calls, 0x5A3B).is_multiple_of(STRIDE);
        self.calls += 1;
        if !due {
            return f();
        }
        let bias = clock().empty_span_ns;
        let start = now();
        let r = f();
        let ns = start.elapsed().as_nanos() as f64 - bias;
        self.timed += 1;
        self.ns += ns.max(0.0);
        r
    }

    /// Mean nanoseconds per call (0 when none was timed).
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.ns / self.timed as f64
        }
    }

    /// Estimated nanoseconds inside all calls.
    pub fn total_ns(&self) -> f64 {
        self.mean_ns() * self.calls as f64
    }

    /// Wall time the timing itself added to the caller.
    pub fn overhead_ns(&self) -> f64 {
        self.timed as f64 * clock().timed_call_ns
    }

    fn merge(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.ns += other.ns;
    }
}

/// What one adapted node (or a sum of them) saw the simulation do.
#[derive(Clone, Debug, Default)]
pub struct NodeLedger {
    /// `reseed` calls.
    pub reseed: u64,
    /// `begin_round` calls and time.
    pub begin_round: Tally,
    /// `end_round` calls and time.
    pub end_round: Tally,
    /// `is_done` calls (`&self`, hence the cell).
    pub is_done: Cell<u64>,
    /// `next_wake` calls (`&self`, hence the cell).
    pub next_wake: Cell<u64>,
    /// `begin_round` results that transmitted.
    pub transmits: u64,
    /// `begin_round` results that listened.
    pub listens: u64,
    /// Receptions handed to `end_round` that carried a frame.
    pub frames_received: u64,
}

impl NodeLedger {
    /// Add `other`'s counts and times into `self`.
    pub fn merge(&mut self, other: &NodeLedger) {
        self.reseed += other.reseed;
        self.begin_round.merge(&other.begin_round);
        self.end_round.merge(&other.end_round);
        self.is_done.set(self.is_done.get() + other.is_done.get());
        self.next_wake
            .set(self.next_wake.get() + other.next_wake.get());
        self.transmits += other.transmits;
        self.listens += other.listens;
        self.frames_received += other.frames_received;
    }

    /// Estimated nanoseconds inside the node's `begin_round` and
    /// `end_round` calls.
    pub fn node_ns(&self) -> f64 {
        self.begin_round.total_ns() + self.end_round.total_ns()
    }

    /// Wall time the timing added to the simulation step.
    pub fn overhead_ns(&self) -> f64 {
        self.begin_round.overhead_ns() + self.end_round.overhead_ns()
    }
}

/// A protocol node whose every trait method is forwarded to `inner` and
/// timed or counted in its [`NodeLedger`].
#[derive(Debug)]
pub struct TimedNode<P> {
    inner: P,
    ledger: NodeLedger,
}

impl<P> TimedNode<P> {
    /// Wrap `inner`.
    pub fn new(inner: P) -> Self {
        TimedNode {
            inner,
            ledger: NodeLedger::default(),
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The calls recorded so far.
    pub fn ledger(&self) -> &NodeLedger {
        &self.ledger
    }
}

impl<P: Protocol> Protocol for TimedNode<P> {
    type Msg = P::Msg;

    fn reseed(&mut self, seed: u64) {
        self.ledger.reseed += 1;
        self.inner.reseed(seed);
    }

    fn begin_round(&mut self, round: u64) -> Action<P::Msg> {
        let action = self
            .ledger
            .begin_round
            .call(|| self.inner.begin_round(round));
        match action {
            Action::Transmit { .. } => self.ledger.transmits += 1,
            Action::Listen { .. } => self.ledger.listens += 1,
            Action::Sleep => {}
        }
        action
    }

    fn end_round(&mut self, round: u64, reception: Option<Reception<&P::Msg>>) {
        if reception.is_some_and(|r| r.frame.is_some()) {
            self.ledger.frames_received += 1;
        }
        self.ledger
            .end_round
            .call(|| self.inner.end_round(round, reception));
    }

    fn is_done(&self) -> bool {
        self.ledger.is_done.set(self.ledger.is_done.get() + 1);
        self.inner.is_done()
    }

    fn next_wake(&self, round: u64) -> u64 {
        self.ledger.next_wake.set(self.ledger.next_wake.get() + 1);
        self.inner.next_wake(round)
    }
}

/// Sum the ledgers of a node slice.
pub fn total_ledger<P>(nodes: &[TimedNode<P>]) -> NodeLedger {
    let mut total = NodeLedger::default();
    for node in nodes {
        total.merge(node.ledger());
    }
    total
}

/// The simulation's own time per step: `step_ns` over `steps` steps, minus
/// the estimated time inside the adapted node and adversary calls and
/// minus what timing them added.
pub fn step_self_ns(step_ns: u64, steps: u64, nodes: &NodeLedger, adv: &AdversaryLedger) -> f64 {
    let inside = nodes.node_ns() + adv.act.total_ns();
    let added = nodes.overhead_ns() + adv.overhead_ns();
    (step_ns as f64 - inside - added) / steps.max(1) as f64
}

/// What an adapted adversary saw: its `act` calls and the wall-clock span
/// from the start of its first call to the start of its last.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdversaryLedger {
    /// `act` calls and time.
    pub act: Tally,
    /// `name` calls.
    pub name: u64,
    /// Start of the first `act` call.
    pub first: Option<Instant>,
    /// Start of the last `act` call.
    pub last: Option<Instant>,
}

impl AdversaryLedger {
    /// Milliseconds from the first `act` to the last (0 when the
    /// adversary acted at most once).
    pub fn span_ms(&self) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64() * 1e3,
            _ => 0.0,
        }
    }

    /// Add `other`'s calls into `self` (the span is not merged).
    pub fn merge(&mut self, other: &AdversaryLedger) {
        self.act.merge(&other.act);
        self.name += other.name;
    }

    /// Wall time the recording added to the simulation step: the timed calls plus
    /// one clock read per call for the span.
    pub fn overhead_ns(&self) -> f64 {
        self.act.overhead_ns() + self.act.calls as f64 * clock().timed_call_ns / 2.0
    }
}

/// An adversary forwarding to `inner`, recording into a shared
/// [`AdversaryLedger`] — shared, because the library's run functions take the
/// adversary by value and drop it when a phase ends.
#[derive(Debug)]
pub struct TimedAdversary<A> {
    inner: A,
    ledger: Rc<RefCell<AdversaryLedger>>,
}

impl<A> TimedAdversary<A> {
    /// Wrap `inner`; read the calls back through the returned handle.
    pub fn new(inner: A) -> (Self, Rc<RefCell<AdversaryLedger>>) {
        let ledger = Rc::new(RefCell::new(AdversaryLedger::default()));
        (
            TimedAdversary {
                inner,
                ledger: Rc::clone(&ledger),
            },
            ledger,
        )
    }
}

impl<M, A: Adversary<M>> Adversary<M> for TimedAdversary<A> {
    fn act(&mut self, round: u64, view: &AdversaryView<'_, M>) -> AdversaryAction<M> {
        let now = now();
        let mut ledger = self.ledger.borrow_mut();
        ledger.first.get_or_insert(now);
        ledger.last = Some(now);
        ledger.act.call(|| self.inner.act(round, view))
    }

    fn name(&self) -> &'static str {
        self.ledger.borrow_mut().name += 1;
        self.inner.name()
    }
}

#[cfg(test)]
mod forwarding {
    use super::*;
    use fame::longlived::{LongLivedNode, ScriptEntry};
    use fame::protocol::{extract_outcome, make_nodes, round_budget};
    use fame::{AmeInstance, Params};
    use radio_crypto::key::SymmetricKey;
    use radio_network::adversaries::RandomJammer;
    use radio_network::testing::BeaconNode;
    use radio_network::{NetworkConfig, Simulation, TraceRetention};
    use std::collections::BTreeMap;

    fn adapt<P>(nodes: Vec<P>) -> Vec<TimedNode<P>> {
        nodes.into_iter().map(TimedNode::new).collect()
    }

    #[test]
    fn randomized_nodes_see_reseed_and_every_round() {
        let cfg = NetworkConfig::new(3, 1).unwrap();
        let nodes = || {
            (0..8)
                .map(|i| BeaconNode::new(i, 3, 40))
                .collect::<Vec<_>>()
        };
        let mut plain = Simulation::new(cfg.clone(), nodes(), RandomJammer::new(5), 11).unwrap();
        let (adv, adv_ledger) = TimedAdversary::new(RandomJammer::new(5));
        let mut timed = Simulation::new(cfg, adapt(nodes()), adv, 11).unwrap();
        let a = plain.run(100).unwrap();
        let b = timed.run(100).unwrap();
        assert_eq!(a, b);
        for (p, t) in plain.nodes().iter().zip(timed.nodes()) {
            assert_eq!(p.heard(), t.inner().heard());
        }
        let ledger = total_ledger(timed.nodes());
        assert_eq!(ledger.reseed, 8, "reseed reaches every node");
        assert_eq!(ledger.begin_round.calls, 8 * a.rounds);
        assert_eq!(ledger.end_round.calls, 8 * a.rounds);
        assert!(ledger.is_done.get() > 0 && ledger.next_wake.get() > 0);
        assert_eq!(ledger.transmits, a.stats.honest_transmissions);
        assert_eq!(ledger.frames_received, a.stats.frames_received);
        assert_eq!(adv_ledger.borrow().act.calls, a.rounds);
        assert_eq!(Adversary::<u64>::name(timed.adversary()), "random-jammer");
        assert_eq!(adv_ledger.borrow().name, 1);
        assert!(
            ledger.begin_round.timed > 0 && ledger.begin_round.timed < ledger.begin_round.calls
        );
    }

    #[test]
    fn adapted_longlived_session_equals_plain() {
        let params = Params::new(18, 1, 2).unwrap();
        let key = SymmetricKey::from_bytes([7u8; 32]);
        let keys: Vec<Option<SymmetricKey>> = (0..18).map(|v| (v != 4).then_some(key)).collect();
        let script = [
            ScriptEntry {
                eround: 0,
                sender: 2,
                message: b"one".to_vec(),
            },
            ScriptEntry {
                eround: 1,
                sender: 9,
                message: b"two".to_vec(),
            },
        ];
        let nodes = || {
            (0..18)
                .map(|id| {
                    let mine: BTreeMap<u64, Vec<u8>> = script
                        .iter()
                        .filter(|e| e.sender == id)
                        .map(|e| (e.eround, e.message.clone()))
                        .collect();
                    LongLivedNode::new(id, params.clone(), keys[id], mine, 2)
                })
                .collect::<Vec<_>>()
        };
        let cfg = NetworkConfig::new(2, 1)
            .unwrap()
            .with_retention(TraceRetention::None);
        let mut plain = Simulation::new(cfg.clone(), nodes(), RandomJammer::new(3), 9).unwrap();
        let (adv, _) = TimedAdversary::new(RandomJammer::new(3));
        let mut timed = Simulation::new(cfg, adapt(nodes()), adv, 9).unwrap();
        let budget = 2 * params.epoch_rounds() + 2;
        assert_eq!(plain.run(budget).unwrap(), timed.run(budget).unwrap());
        for (p, t) in plain.nodes().iter().zip(timed.nodes()) {
            assert_eq!(p.accepts(), t.inner().accepts());
        }
        let ledger = total_ledger(timed.nodes());
        let accepts: usize = plain.nodes().iter().map(|n| n.accepts().len()).sum();
        assert!(accepts > 0 && ledger.frames_received >= accepts as u64);
    }

    #[test]
    fn adapted_fame_run_equals_plain() {
        let params = Params::minimal(40, 2).unwrap();
        let instance = AmeInstance::new(40, [(0, 5), (1, 6), (6, 1), (2, 7)]).unwrap();
        let cfg = NetworkConfig::new(params.c(), params.t()).unwrap();
        let budget = round_budget(&params, instance.len());
        let nodes = make_nodes(&instance, &params, 17).unwrap();
        let mut plain =
            Simulation::new(cfg.clone(), nodes.clone(), RandomJammer::new(2), 17).unwrap();
        let (adv, _) = TimedAdversary::new(RandomJammer::new(2));
        let mut timed = Simulation::new(cfg, adapt(nodes), adv, 17).unwrap();
        let a = plain.run(budget).unwrap();
        let b = timed.run(budget).unwrap();
        assert_eq!(a, b);
        let inner: Vec<_> = timed.nodes().iter().map(|n| n.inner().clone()).collect();
        assert_eq!(
            extract_outcome(&instance, plain.nodes(), a.rounds),
            extract_outcome(&instance, &inner, b.rounds)
        );
        assert_eq!(plain.nodes()[0].moves(), inner[0].moves());
    }
}
