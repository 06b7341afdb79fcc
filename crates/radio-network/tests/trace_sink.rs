//! Integration tests for the [`ChannelSink`] pipeline: bounded-queue
//! backpressure, drop-policy accounting, flush-on-drop, and the central
//! determinism property — attaching a sink must not change the
//! execution, whatever the configured retention.

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

use proptest::prelude::*;

use radio_network::adversaries::BusyChannelJammer;
use radio_network::testing::BeaconNode;
use radio_network::{
    record_line, ChannelSink, NetworkConfig, OverflowPolicy, RoundRecord, Simulation, Stats,
    TraceRetention, TraceSink,
};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("radio-sink-{}-{tag}.jsonl", std::process::id()))
}

fn record(round: u64) -> RoundRecord<u32> {
    RoundRecord::from_parts(
        round,
        vec![(radio_network::NodeId(0), radio_network::ChannelId(0), 1)],
        vec![],
        vec![],
        vec![Some(1), None],
    )
}

/// A writer whose every write blocks until the test opens a gate; the
/// first write signals that the writer thread has dequeued a record.
#[derive(Clone)]
struct GatedWriter {
    state: Arc<(Mutex<GateState>, Condvar)>,
}

#[derive(Default)]
struct GateState {
    writes_started: usize,
    open: bool,
}

impl GatedWriter {
    fn new() -> Self {
        GatedWriter {
            state: Arc::new((Mutex::new(GateState::default()), Condvar::new())),
        }
    }

    /// Wait until the writer thread has started its first write.
    fn wait_first_write(&self) {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        while st.writes_started == 0 {
            st = cvar.wait(st).unwrap();
        }
    }

    /// Let every pending and future write proceed.
    fn open(&self) {
        let (lock, cvar) = &*self.state;
        lock.lock().unwrap().open = true;
        cvar.notify_all();
    }
}

impl Write for GatedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        st.writes_started += 1;
        cvar.notify_all();
        while !st.open {
            st = cvar.wait(st).unwrap();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An encoder that signals the test when the writer thread dequeues its
/// first record, then blocks until released — giving tests a writer
/// thread frozen at a known point with an empty queue.
fn gated_encoder(
    gate: Arc<(Mutex<bool>, Condvar)>,
    first: mpsc::Sender<()>,
) -> impl Fn(&u32) -> String + Send + 'static {
    let signalled = Mutex::new(false);
    move |m: &u32| {
        {
            let mut s = signalled.lock().unwrap();
            if !*s {
                *s = true;
                first.send(()).ok();
            }
        }
        let (lock, cvar) = &*gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        m.to_string()
    }
}

#[test]
fn drop_policy_counts_exactly_the_overflow() {
    // Freeze the writer thread inside the encoding of record 0 (queue
    // drained), fill the queue of capacity 2, and verify that every
    // further record is counted as dropped — then release the writer and
    // check exactly the surviving records reached the output.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let (first_tx, first_rx) = mpsc::channel();
    let mut sink: ChannelSink<u32> = ChannelSink::with_encoder(
        io::sink(),
        2,
        OverflowPolicy::DropNewest,
        gated_encoder(gate.clone(), first_tx),
    );

    sink.record(&record(0));
    first_rx.recv().unwrap(); // writer holds record 0; queue is empty
    sink.record(&record(1));
    sink.record(&record(2)); // queue now full (capacity 2)
    for r in 3..10 {
        sink.record(&record(r));
    }
    assert_eq!(sink.dropped_records(), 7);

    let (lock, cvar) = &*gate;
    *lock.lock().unwrap() = true;
    cvar.notify_all();
    let report = sink.finish().unwrap();
    assert_eq!(report.written, 3);
    assert_eq!(report.dropped, 7);
}

#[test]
fn block_policy_is_lossless_under_backpressure() {
    // A slow writer (gated, then opened) with a tiny queue: the Block
    // policy must stall the producer rather than lose records.
    let writer = GatedWriter::new();
    let handle = writer.clone();
    let mut sink: ChannelSink<u32> =
        ChannelSink::with_encoder(writer, 1, OverflowPolicy::Block, |m: &u32| m.to_string());
    // Produce from a thread so the test can open the gate afterwards;
    // with capacity 1 the producer must block long before round 100.
    let producer = std::thread::spawn(move || {
        for r in 0..100 {
            sink.record(&record(r));
        }
        sink.finish().unwrap()
    });
    handle.wait_first_write();
    handle.open();
    let report = producer.join().unwrap();
    assert_eq!(report.written, 100);
    assert_eq!(report.dropped, 0);
}

#[test]
fn writer_thread_flushes_on_drop() {
    // Dropping the sink (not calling finish) must still drain the queue
    // and flush the BufWriter before the file handle closes.
    let path = tmp_path("flush-on-drop");
    {
        let mut sink: ChannelSink<u32> =
            ChannelSink::create(&path, 8, OverflowPolicy::Block).unwrap();
        for r in 0..64 {
            sink.record(&record(r));
        }
        // sink dropped here, file closed after the writer drains
    }
    let contents = std::fs::read_to_string(&path).unwrap();
    assert_eq!(contents.lines().count(), 64);
    assert!(contents
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"round\":63,"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulation_drop_flushes_streamed_trace() {
    // The same guarantee through the full stack: a Simulation owning a
    // ChannelSink is simply dropped; the trace file must be complete.
    let path = tmp_path("sim-drop");
    let cfg = NetworkConfig::new(3, 1).unwrap();
    let rounds;
    {
        let nodes: Vec<BeaconNode> = (0..6).map(|i| BeaconNode::new(i, 3, 40)).collect();
        let sink: ChannelSink<u64> = ChannelSink::create(&path, 4, OverflowPolicy::Block).unwrap();
        let mut sim =
            Simulation::with_sink(cfg, nodes, BusyChannelJammer::new(5, 8), 11, Box::new(sink))
                .unwrap();
        rounds = sim.run(1_000).unwrap().rounds;
    }
    let contents = std::fs::read_to_string(&path).unwrap();
    assert_eq!(contents.lines().count() as u64, rounds);
    std::fs::remove_file(&path).ok();
}

/// Run the beacon/busy-jammer stack under `retention`, with `sink`
/// attached if given; return the round count, the final stats, and what
/// the network retained, rendered through the shared encoder.
fn run_stack(
    seed: u64,
    retention: TraceRetention,
    sink: Option<Box<dyn TraceSink<u64>>>,
) -> (u64, Stats, Vec<String>) {
    let cfg = NetworkConfig::new(4, 2).unwrap().with_retention(retention);
    let nodes: Vec<BeaconNode> = (0..8).map(|i| BeaconNode::new(i, 4, 30)).collect();
    // A history-mining adversary: any divergence in the history it
    // observes changes its jamming choices, and with them the trace.
    let adversary = BusyChannelJammer::new(seed ^ 0xAD, 16);
    let mut sim = match sink {
        Some(sink) => Simulation::with_sink(cfg, nodes, adversary, seed, sink),
        None => Simulation::new(cfg, nodes, adversary, seed),
    }
    .unwrap();
    let report = sim.run(1_000).unwrap();
    let lines = sim
        .trace()
        .records()
        .map(|r| record_line(r, |m| format!("{m:?}")))
        .collect();
    (report.rounds, report.stats, lines)
}

fn retention() -> impl Strategy<Value = TraceRetention> {
    prop_oneof![
        Just(TraceRetention::All),
        Just(TraceRetention::LastRounds(8)),
        Just(TraceRetention::None),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole property: for any seed and any retention, streaming
    /// records through a bounded channel to a background writer
    /// (ChannelSink) leaves the run exactly as `Simulation::new` makes
    /// it — same rounds, stats, and retained history — and the file holds
    /// one line per round.
    #[test]
    fn channel_sink_matches_in_memory_sink(seed in any::<u64>(), retention in retention()) {
        let path = tmp_path(&format!("prop-{seed:x}"));
        let (mem_rounds, mem_stats, mem_lines) = run_stack(seed, retention, None);
        let sink = ChannelSink::create(&path, 4, OverflowPolicy::Block).unwrap();
        let (ch_rounds, ch_stats, ch_lines) = run_stack(seed, retention, Some(Box::new(sink)));

        prop_assert_eq!(mem_rounds, ch_rounds);
        prop_assert_eq!(mem_stats, ch_stats);
        prop_assert_eq!(&mem_lines, &ch_lines);

        // The streamed file holds every round in order; what the network
        // retained is its tail.
        let file_lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(file_lines.len() as u64, mem_rounds);
        prop_assert_eq!(&mem_lines[..], &file_lines[file_lines.len() - mem_lines.len()..]);
    }
}
