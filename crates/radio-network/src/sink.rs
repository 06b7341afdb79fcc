//! Observers of finished [`RoundRecord`]s.
//!
//! The history a run keeps — what the §3 adversary mines and what tests
//! read back — belongs to the network: [`NetworkConfig::with_retention`]
//! alone decides it, and [`Network::trace`] exposes it. A [`TraceSink`]
//! only *observes*: the engine hands it every finished record by
//! reference and then retains (or drops) the record per the config, so
//! attaching a sink never changes a run.
//!
//! [`ChannelSink`] streams records through a bounded channel to a
//! background writer thread that emits one line of JSON per round (the
//! format specified in `docs/TRACE_FORMAT.md`), so serialization and I/O
//! never run on the round loop. On a full queue it either blocks
//! (lossless backpressure) or drops the newest record and counts it
//! ([`OverflowPolicy`]); the drop counter surfaces as
//! [`Stats::dropped_records`](crate::Stats::dropped_records).
//!
//! Sinks are attached with [`Network::with_sink`] or
//! [`Simulation::with_sink`](crate::Simulation::with_sink).
//!
//! [`NetworkConfig::with_retention`]: crate::NetworkConfig::with_retention
//! [`Network::trace`]: crate::Network::trace
//! [`Network::with_sink`]: crate::Network::with_sink

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{self, SyncSender};
use std::thread::{self, JoinHandle};

use crate::adversary::Emission;
use crate::trace::RoundRecord;

/// An observer of finished [`RoundRecord`]s.
///
/// [`Network::resolve_round_sparse`](crate::Network::resolve_round_sparse)
/// builds each round's record whenever a sink is attached, hands it to
/// [`TraceSink::record`], and only then retains it in the network's own
/// [`Trace`](crate::Trace) per the config's
/// [`TraceRetention`](crate::TraceRetention). The sink sees every round
/// whatever the retention, and what the adversary observes is the same
/// with or without a sink.
///
/// # Example
///
/// Stream a short run to a line-delimited JSON trace; the run itself is
/// the one [`Simulation::new`](crate::Simulation::new) would produce:
///
/// ```rust
/// use radio_network::{ChannelSink, NetworkConfig, OverflowPolicy, Simulation};
/// use radio_network::adversaries::RandomJammer;
/// use radio_network::testing::BeaconNode;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let path = std::env::temp_dir().join("trace-sink-doctest.jsonl");
/// let cfg = NetworkConfig::new(3, 1)?;
/// let nodes: Vec<BeaconNode> = (0..4).map(|i| BeaconNode::new(i, 3, 5)).collect();
/// let sink = ChannelSink::create(&path, 64, OverflowPolicy::Block)?;
/// let mut sim = Simulation::with_sink(cfg, nodes, RandomJammer::new(7), 9, Box::new(sink))?;
/// let report = sim.run(100)?;
/// assert_eq!(report.stats.dropped_records, 0);
/// drop(sim); // closes the channel; the writer thread flushes and exits
/// let lines = std::fs::read_to_string(&path)?;
/// assert_eq!(lines.lines().count() as u64, report.rounds);
/// # std::fs::remove_file(&path).ok();
/// # Ok(())
/// # }
/// ```
pub trait TraceSink<M>: fmt::Debug + Send {
    /// Observe the finished record of one round, by reference: the engine
    /// builds it in a record arena reused across rounds, so a sink copies
    /// only what it streams ([`ChannelSink`] clones once to hand the
    /// record to its writer thread). Records arrive in round order,
    /// exactly one per resolved round.
    fn record(&mut self, record: &RoundRecord<M>);

    /// Records this sink has discarded so far (lossy sinks only; the
    /// engine mirrors this into [`Stats`](crate::Stats) every round).
    fn dropped_records(&self) -> u64 {
        0
    }
}

/// What [`ChannelSink`] does when the bounded queue to the writer thread
/// is full.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverflowPolicy {
    /// Block the round loop until the writer catches up. Lossless: every
    /// record reaches the file, at the price of round-loop stalls when
    /// the writer is slower than the engine.
    #[default]
    Block,
    /// Drop the newest record and increment the drop counter. The round
    /// loop never stalls; the trace file has gaps, visible as
    /// [`Stats::dropped_records`](crate::Stats::dropped_records) (and in
    /// `BENCH_*.json` rows).
    DropNewest,
}

/// Push `msg` into a bounded queue honoring `policy`, returning `true`
/// if it was enqueued and `false` if it was lost (a full queue under
/// [`OverflowPolicy::DropNewest`], or a disconnected receiver under
/// either policy — a vanished consumer can never absorb the message, so
/// even [`OverflowPolicy::Block`] reports it as lost rather than stall
/// forever).
///
/// This is the one backpressure primitive shared by every bounded
/// producer/consumer pair in the workspace: [`ChannelSink`] uses it to
/// feed its writer thread, and the session gateway uses it for its
/// ingress/egress queues, so "lossless" and "counted drops" mean exactly
/// the same thing everywhere a queue can fill.
pub fn send_bounded<T>(tx: &SyncSender<T>, msg: T, policy: OverflowPolicy) -> bool {
    match policy {
        OverflowPolicy::Block => tx.send(msg).is_ok(),
        OverflowPolicy::DropNewest => tx.try_send(msg).is_ok(),
    }
}

/// Summary returned by [`ChannelSink::finish`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SinkReport {
    /// Records the writer thread wrote to the output.
    pub written: u64,
    /// Records dropped on the sending side (full queue under
    /// [`OverflowPolicy::DropNewest`], or a dead writer).
    pub dropped: u64,
}

/// What flows over a [`ChannelSink`]'s queue to the writer thread:
/// round records, or the one optional header line written before them.
enum SinkMsg<M> {
    /// A raw line written verbatim (the trace header; see
    /// `docs/TRACE_FORMAT.md`). Not counted as a written record.
    Header(String),
    /// One round's record, encoded by the writer thread. Boxed so a
    /// queued record costs the channel slot one pointer, not the whole
    /// struct-of-arrays header block.
    Record(Box<RoundRecord<M>>),
}

/// Streams records through a bounded channel to a background writer
/// thread emitting one line of JSON per round (see
/// `docs/TRACE_FORMAT.md`).
///
/// The round loop pays only for the channel send — serialization and I/O
/// happen on the writer thread. Closing the sink (drop or
/// [`ChannelSink::finish`]) closes the channel, joins the writer, and
/// flushes the output, so a dropped sink never loses buffered lines.
pub struct ChannelSink<M> {
    tx: Option<SyncSender<SinkMsg<M>>>,
    writer: Option<JoinHandle<io::Result<u64>>>,
    policy: OverflowPolicy,
    dropped: u64,
}

impl<M> fmt::Debug for ChannelSink<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelSink")
            .field("policy", &self.policy)
            .field("dropped", &self.dropped)
            .field("open", &self.tx.is_some())
            .finish()
    }
}

impl<M: fmt::Debug + Send + 'static> ChannelSink<M> {
    /// A sink writing to the file at `path` (created/truncated), with a
    /// queue of `capacity` records and the given overflow `policy`.
    /// Frames are rendered with their `Debug` form; use
    /// [`ChannelSink::with_encoder`] for a custom rendering.
    ///
    /// # Errors
    ///
    /// File creation errors.
    pub fn create(
        path: impl AsRef<Path>,
        capacity: usize,
        policy: OverflowPolicy,
    ) -> io::Result<Self> {
        Ok(Self::to_writer(File::create(path)?, capacity, policy))
    }

    /// Like [`ChannelSink::create`] for any writer (the writer moves to
    /// the background thread, which wraps it in a [`BufWriter`]).
    pub fn to_writer<W: Write + Send + 'static>(
        out: W,
        capacity: usize,
        policy: OverflowPolicy,
    ) -> Self {
        Self::with_encoder(out, capacity, policy, |frame: &M| format!("{frame:?}"))
    }
}

impl<M: Send + 'static> ChannelSink<M> {
    /// The fully general constructor: `frame` renders one frame to the
    /// string stored in the trace line's `"frame"` fields (it runs on the
    /// writer thread, never on the round loop).
    pub fn with_encoder<W, F>(out: W, capacity: usize, policy: OverflowPolicy, frame: F) -> Self
    where
        W: Write + Send + 'static,
        F: Fn(&M) -> String + Send + 'static,
    {
        let (tx, rx) = mpsc::sync_channel::<SinkMsg<M>>(capacity.max(1));
        let writer = thread::Builder::new()
            .name("trace-writer".into())
            .spawn(move || -> io::Result<u64> {
                let mut out = BufWriter::new(out);
                let mut written = 0u64;
                for msg in rx {
                    match msg {
                        SinkMsg::Header(line) => {
                            out.write_all(line.as_bytes())?;
                            out.write_all(b"\n")?;
                        }
                        SinkMsg::Record(record) => {
                            out.write_all(record_line(&record, &frame).as_bytes())?;
                            out.write_all(b"\n")?;
                            written += 1;
                        }
                    }
                }
                out.flush()?;
                Ok(written)
            })
            .expect("spawn trace-writer thread");
        ChannelSink {
            tx: Some(tx),
            writer: Some(writer),
            policy,
            dropped: 0,
        }
    }

    /// Write `line` verbatim as the file's first line, ahead of every
    /// record. Recording tools use it to pin the channel model a trace
    /// was produced under (see `docs/TRACE_FORMAT.md`); call it at
    /// construction time, before any record is sent. The header is
    /// delivered through the same ordered queue as the records, so it
    /// always lands first.
    #[must_use]
    pub fn with_header(self, line: impl Into<String>) -> Self {
        if let Some(tx) = &self.tx {
            // The queue is empty at construction time, so this cannot
            // block; a dead writer surfaces later through the drop count.
            let _ = tx.send(SinkMsg::Header(line.into()));
        }
        self
    }

    /// Close the channel, join the writer thread, and return the final
    /// written/dropped counts.
    ///
    /// # Errors
    ///
    /// Any I/O error the writer thread hit (such records count as
    /// dropped).
    pub fn finish(mut self) -> io::Result<SinkReport> {
        let written = self.close()?;
        Ok(SinkReport {
            written,
            dropped: self.dropped,
        })
    }

    fn close(&mut self) -> io::Result<u64> {
        drop(self.tx.take());
        match self.writer.take() {
            Some(handle) => handle.join().expect("trace-writer thread panicked"),
            None => Ok(0),
        }
    }
}

impl<M> Drop for ChannelSink<M> {
    fn drop(&mut self) {
        // Close the channel and wait for the writer to drain + flush; a
        // dropped sink must never lose buffered lines. Send-side losses
        // after a writer failure are in the drop counter, but an I/O
        // error during the final drain/flush has no channel to report
        // through — be loud rather than silently truncate the trace
        // (call [`ChannelSink::finish`] to handle it programmatically).
        drop(self.tx.take());
        if let Some(handle) = self.writer.take() {
            match handle.join() {
                Ok(Ok(_written)) => {}
                Ok(Err(e)) => eprintln!(
                    "trace writer failed while draining: {e}; the trace file is incomplete"
                ),
                // Never panic from Drop (a double panic aborts).
                Err(_) => eprintln!("trace-writer thread panicked; the trace file is incomplete"),
            }
        }
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> TraceSink<M> for ChannelSink<M> {
    /// Hand one record to the writer thread, honoring the overflow
    /// policy. The writer owns its copy; the one clone of the arena
    /// record happens here, off the engine's zero-allocation path only
    /// when streaming is actually on.
    fn record(&mut self, record: &RoundRecord<M>) {
        let Some(tx) = &self.tx else {
            self.dropped += 1;
            return;
        };
        // The writer disappears only on I/O failure; count the loss.
        if !send_bounded(tx, SinkMsg::Record(Box::new(record.clone())), self.policy) {
            self.dropped += 1;
        }
    }

    fn dropped_records(&self) -> u64 {
        self.dropped
    }
}

/// Escape `s` for embedding inside a JSON string literal (backslash,
/// quote, and control characters). The single escaper shared by the
/// trace encoder ([`record_line`]) and the workspace's hand-rolled JSON
/// emitters (no serde in the offline build).
pub fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out
}

/// Render one [`RoundRecord`] as the single line of JSON specified in
/// `docs/TRACE_FORMAT.md` (no trailing newline). `frame` renders a frame
/// to the plain string stored in the `"frame"` fields — it is escaped and
/// quoted here.
///
/// This is the one encoder shared by [`ChannelSink`], tests, and replay
/// tooling, so a retained in-memory trace and a streamed trace file can
/// be compared line for line.
pub fn record_line<M>(record: &RoundRecord<M>, frame: impl Fn(&M) -> String) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(128);
    write!(out, "{{\"round\":{},\"transmissions\":[", record.round).expect("write to String");
    for (i, (node, channel, f)) in record.transmissions().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"node\":{},\"channel\":{},\"frame\":\"{}\"}}",
            node.0,
            channel.0,
            json_escape(&frame(f))
        )
        .expect("write to String");
    }
    out.push_str("],\"listeners\":[");
    for (i, (node, channel)) in record.listeners().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{{\"node\":{},\"channel\":{}}}", node.0, channel.0).expect("write to String");
    }
    out.push_str("],\"adversary\":[");
    for (i, (channel, emission)) in record.adversary().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match emission {
            Emission::Noise => {
                write!(out, "{{\"channel\":{},\"kind\":\"noise\"}}", channel.0)
                    .expect("write to String");
            }
            Emission::Spoof(f) => {
                write!(
                    out,
                    "{{\"channel\":{},\"kind\":\"spoof\",\"frame\":\"{}\"}}",
                    channel.0,
                    json_escape(&frame(f))
                )
                .expect("write to String");
            }
        }
    }
    // The record stores delivered frames sparsely (active channels only);
    // the wire format stays the dense per-channel array with nulls.
    out.push_str("],\"delivered\":[");
    for (i, slot) in record.delivered_dense().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match slot {
            Some(f) => {
                write!(out, "\"{}\"", json_escape(&frame(f))).expect("write to String");
            }
            None => out.push_str("null"),
        }
    }
    out.push(']');
    // Per-listener receptions that diverged from the wire outcome exist
    // only under per-listener channel models; the field is omitted when
    // empty, so ideal-model lines are byte-identical to the pre-model
    // format.
    if !record.reception_nodes.is_empty() {
        out.push_str(",\"receptions\":[");
        for (i, (node, heard)) in record.receptions().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match heard {
                Some(f) => write!(
                    out,
                    "{{\"node\":{},\"frame\":\"{}\"}}",
                    node.0,
                    json_escape(&frame(f))
                )
                .expect("write to String"),
                None => {
                    write!(out, "{{\"node\":{},\"frame\":null}}", node.0).expect("write to String")
                }
            }
        }
        out.push(']');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{ChannelId, NodeId};

    fn record(round: u64) -> RoundRecord<u32> {
        RoundRecord::from_parts(
            round,
            vec![(NodeId(0), ChannelId(1), 7)],
            vec![(NodeId(2), ChannelId(1))],
            vec![
                (ChannelId(0), Emission::Noise),
                (ChannelId(2), Emission::Spoof(9)),
            ],
            vec![None, Some(7), Some(9)],
        )
    }

    #[test]
    fn record_line_shape() {
        let line = record_line(&record(3), |m| m.to_string());
        assert_eq!(
            line,
            "{\"round\":3,\
             \"transmissions\":[{\"node\":0,\"channel\":1,\"frame\":\"7\"}],\
             \"listeners\":[{\"node\":2,\"channel\":1}],\
             \"adversary\":[{\"channel\":0,\"kind\":\"noise\"},\
             {\"channel\":2,\"kind\":\"spoof\",\"frame\":\"9\"}],\
             \"delivered\":[null,\"7\",\"9\"]}"
        );
    }

    #[test]
    fn record_line_escapes_frames() {
        let mut rec: RoundRecord<String> = RoundRecord::from_parts(
            0,
            vec![(NodeId(0), ChannelId(0), "evil\"\n".into())],
            vec![],
            vec![],
            vec![None],
        );
        let line = record_line(&rec, |m| m.clone());
        assert!(line.contains("evil\\\"\\n"));
        rec.tx_nodes.clear();
        rec.tx_channels.clear();
        rec.tx_frames.clear();
        assert!(!record_line(&rec, |m| m.clone()).contains('\n'));
    }

    #[test]
    fn channel_sink_streams_every_record_in_order() {
        let path = std::env::temp_dir().join(format!("sink-order-{}.jsonl", std::process::id()));
        let mut sink: ChannelSink<u32> =
            ChannelSink::create(&path, 4, OverflowPolicy::Block).unwrap();
        for r in 0..50 {
            sink.record(&record(r));
        }
        let report = sink.finish().unwrap();
        assert_eq!(report.written, 50);
        assert_eq!(report.dropped, 0);
        let contents = std::fs::read_to_string(&path).unwrap();
        for (r, line) in contents.lines().enumerate() {
            assert!(line.starts_with(&format!("{{\"round\":{r},")));
        }
        assert_eq!(contents.lines().count(), 50);
        std::fs::remove_file(&path).ok();
    }
}
