//! Pluggable destinations for finished [`RoundRecord`]s.
//!
//! The engine used to push every record onto an in-memory `Vec`; under
//! [`TraceRetention::All`] that retention dominated both the time and the
//! memory of
//! [`Network::resolve_round_sparse`](crate::Network::resolve_round_sparse)
//! on long runs. A [`TraceSink`] decouples *observing* the network from
//! *storing* the observation:
//!
//! * [`InMemorySink`] — the classic behavior: retain records in a
//!   [`Trace`] per [`TraceRetention`] (what
//!   [`Network::new`](crate::Network::new) installs by default);
//! * [`NullSink`] — retain nothing, count rounds (the retention-off fast
//!   path: the engine skips building records entirely);
//! * [`ChannelSink`] — stream records through a bounded channel to a
//!   background writer thread that emits one line of JSON per round (the
//!   format specified in `docs/TRACE_FORMAT.md`), so serialization and
//!   I/O never run on the round loop. On a full queue it either blocks
//!   (lossless backpressure) or drops the newest record and counts it
//!   ([`OverflowPolicy`]); the drop counter surfaces as
//!   [`Stats::dropped_records`](crate::Stats::dropped_records).
//!
//! Sinks are installed with
//! [`Network::with_sink`](crate::Network::with_sink) or
//! [`Simulation::with_sink`](crate::Simulation::with_sink).

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{self, SyncSender};
use std::thread::{self, JoinHandle};

use crate::adversary::Emission;
use crate::trace::{RoundRecord, Trace, TraceRetention};

/// A destination for finished [`RoundRecord`]s.
///
/// [`Network::resolve_round_sparse`](crate::Network::resolve_round_sparse) hands each
/// completed round to exactly one sink: the full record when
/// [`TraceSink::wants_records`] is `true`, a bare
/// [`TraceSink::note_round`] tick otherwise (in which case the engine
/// never builds the record at all — the allocation-free fast path).
///
/// Every sink also exposes a [`Trace`] *history* so the adversary (which,
/// per the model, learns all completed rounds) and post-run inspection
/// keep working: [`InMemorySink`] retains records there, streaming/null
/// sinks report an empty history with an exact completed-round count —
/// the same contract as [`TraceRetention::None`] today.
///
/// # Example
///
/// Stream a short run to a line-delimited JSON trace and keep behavior
/// otherwise identical to the in-memory default:
///
/// ```rust
/// use radio_network::{
///     ChannelSink, NetworkConfig, OverflowPolicy, Simulation, TraceRetention,
/// };
/// use radio_network::adversaries::RandomJammer;
/// use radio_network::testing::BeaconNode;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let path = std::env::temp_dir().join("trace-sink-doctest.jsonl");
/// let cfg = NetworkConfig::new(3, 1)?;
/// let nodes: Vec<BeaconNode> = (0..4).map(|i| BeaconNode::new(i, 3, 5)).collect();
/// let sink = ChannelSink::create(&path, 64, OverflowPolicy::Block)?
///     .with_history(TraceRetention::All);
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
    /// `true` if this sink wants full [`RoundRecord`]s. When `false` the
    /// engine skips record construction and calls
    /// [`TraceSink::note_round`] instead.
    fn wants_records(&self) -> bool {
        true
    }

    /// Accept the finished record of one round, by reference: the engine
    /// builds it in a record arena reused across rounds, so a sink copies
    /// only what it retains or streams ([`Trace::push_ref`] recycles
    /// bounded-window storage; [`ChannelSink`] clones once to hand the
    /// record to its writer thread). Records arrive in round order,
    /// exactly one per resolved round.
    fn record(&mut self, record: &RoundRecord<M>);

    /// Accept the finished record with permission to **swap**: `record`
    /// is the engine's record arena, rebuilt from scratch next round, so
    /// a sink retaining a bounded window may take the buffers wholesale
    /// and hand equally warm evicted buffers back
    /// ([`Trace::push_swap`]) — retaining a round then costs no element
    /// copies at all. The default forwards to [`TraceSink::record`];
    /// implementations overriding this must leave `record` holding *some*
    /// valid buffers (contents are free to differ).
    fn record_mut(&mut self, record: &mut RoundRecord<M>) {
        self.record(record);
    }

    /// Count a completed round for which no record was built (only called
    /// while [`TraceSink::wants_records`] is `false`).
    fn note_round(&mut self);

    /// The retained in-memory history. Sinks that keep nothing return an
    /// empty trace whose completed-round count is still exact.
    fn history(&self) -> &Trace<M>;

    /// Records this sink has discarded so far (lossy sinks only; the
    /// engine mirrors this into [`Stats`](crate::Stats) every round).
    fn dropped_records(&self) -> u64 {
        0
    }
}

/// The classic in-memory sink: retains records in a [`Trace`] according
/// to a [`TraceRetention`] policy.
///
/// [`Network::new`](crate::Network::new) installs this sink (with the
/// config's retention), so existing behavior is unchanged: adversaries
/// mine the retained history, tests read it back, and
/// [`TraceRetention::None`] keeps the record-free fast path.
#[derive(Clone, Debug)]
pub struct InMemorySink<M> {
    trace: Trace<M>,
}

impl<M> InMemorySink<M> {
    /// A sink retaining records per `retention`.
    pub fn new(retention: TraceRetention) -> Self {
        InMemorySink {
            trace: Trace::new(retention),
        }
    }
}

impl<M> Default for InMemorySink<M> {
    fn default() -> Self {
        InMemorySink::new(TraceRetention::default())
    }
}

impl<M: Clone + fmt::Debug + Send> TraceSink<M> for InMemorySink<M> {
    fn wants_records(&self) -> bool {
        self.trace.retention().keeps_records()
    }

    fn record(&mut self, record: &RoundRecord<M>) {
        self.trace.push_ref(record);
    }

    // detlint: deny-alloc(start) in-memory sink steady-state paths
    fn record_mut(&mut self, record: &mut RoundRecord<M>) {
        self.trace.push_swap(record);
    }

    fn note_round(&mut self) {
        self.trace.note_round();
    }
    // detlint: deny-alloc(end)

    fn history(&self) -> &Trace<M> {
        &self.trace
    }
}

/// A sink that retains nothing: rounds are counted, records are never
/// built. The fastest possible observer — use it for multi-trial sweeps
/// where aggregate [`Stats`](crate::Stats) are the only product.
#[derive(Clone, Debug)]
pub struct NullSink<M> {
    trace: Trace<M>,
}

impl<M> NullSink<M> {
    /// A fresh null sink.
    pub fn new() -> Self {
        NullSink {
            trace: Trace::new(TraceRetention::None),
        }
    }
}

impl<M> Default for NullSink<M> {
    fn default() -> Self {
        NullSink::new()
    }
}

// detlint: deny-alloc(start) null sink (the record-free floor)
impl<M: fmt::Debug + Send> TraceSink<M> for NullSink<M> {
    fn wants_records(&self) -> bool {
        false
    }

    fn record(&mut self, _record: &RoundRecord<M>) {
        // Only reachable through direct calls; count it like a tick.
        self.trace.note_round();
    }

    fn note_round(&mut self) {
        self.trace.note_round();
    }

    fn history(&self) -> &Trace<M> {
        &self.trace
    }
}
// detlint: deny-alloc(end)

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
///
/// By default the sink keeps no in-memory history (adversaries that mine
/// the trace see an empty one); [`ChannelSink::with_history`] additionally
/// retains records like an [`InMemorySink`] — use it when the attacker or
/// the caller must observe the same history the in-memory default would
/// have kept.
pub struct ChannelSink<M> {
    tx: Option<SyncSender<SinkMsg<M>>>,
    writer: Option<JoinHandle<io::Result<u64>>>,
    policy: OverflowPolicy,
    dropped: u64,
    history: Trace<M>,
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
            history: Trace::new(TraceRetention::None),
        }
    }

    /// Additionally retain records in memory per `retention`, exactly as
    /// an [`InMemorySink`] would (records are cloned before streaming).
    #[must_use]
    pub fn with_history(mut self, retention: TraceRetention) -> Self {
        self.history = Trace::new(retention);
        self
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

impl<M: Clone + fmt::Debug + Send + 'static> ChannelSink<M> {
    /// Hand one record to the writer thread, honoring the overflow
    /// policy. The writer owns its copy; the one clone of the arena
    /// record happens here, off the engine's zero-allocation path only
    /// when streaming is actually on.
    fn send(&mut self, record: &RoundRecord<M>) {
        let Some(tx) = &self.tx else {
            self.dropped += 1;
            return;
        };
        // The writer disappears only on I/O failure; count the loss.
        if !send_bounded(tx, SinkMsg::Record(Box::new(record.clone())), self.policy) {
            self.dropped += 1;
        }
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> TraceSink<M> for ChannelSink<M> {
    fn record(&mut self, record: &RoundRecord<M>) {
        if self.history.retention().keeps_records() {
            self.history.push_ref(record);
        } else {
            self.history.note_round();
        }
        self.send(record);
    }

    fn record_mut(&mut self, record: &mut RoundRecord<M>) {
        // Send first (needs the contents), then let the history take the
        // buffers by swap.
        self.send(record);
        if self.history.retention().keeps_records() {
            self.history.push_swap(record);
        } else {
            self.history.note_round();
        }
    }

    fn note_round(&mut self) {
        self.history.note_round();
    }

    fn history(&self) -> &Trace<M> {
        &self.history
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
    fn in_memory_sink_keeps_retention_semantics() {
        let mut sink: InMemorySink<u32> = InMemorySink::new(TraceRetention::LastRounds(2));
        assert!(sink.wants_records());
        for r in 0..5 {
            sink.record(&record(r));
        }
        assert_eq!(sink.history().completed_rounds(), 5);
        assert_eq!(sink.history().len(), 2);
        assert_eq!(sink.dropped_records(), 0);

        let lean: InMemorySink<u32> = InMemorySink::new(TraceRetention::None);
        assert!(!lean.wants_records());
    }

    #[test]
    fn null_sink_counts_rounds_only() {
        let mut sink: NullSink<u32> = NullSink::new();
        assert!(!sink.wants_records());
        sink.note_round();
        sink.note_round();
        assert_eq!(sink.history().completed_rounds(), 2);
        assert!(sink.history().is_empty());
    }

    #[test]
    fn channel_sink_streams_every_record_in_order() {
        let path = std::env::temp_dir().join(format!("sink-order-{}.jsonl", std::process::id()));
        let mut sink: ChannelSink<u32> =
            ChannelSink::create(&path, 4, OverflowPolicy::Block).unwrap();
        for r in 0..50 {
            sink.record(&record(r));
        }
        assert_eq!(sink.history().completed_rounds(), 50);
        assert!(sink.history().is_empty(), "no history by default");
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

    #[test]
    fn channel_sink_history_retains_records() {
        let mut sink: ChannelSink<u32> =
            ChannelSink::to_writer(io::sink(), 4, OverflowPolicy::Block)
                .with_history(TraceRetention::All);
        for r in 0..10 {
            sink.record(&record(r));
        }
        assert_eq!(sink.history().len(), 10);
        assert_eq!(sink.history().round(7).unwrap().round, 7);
    }
}
