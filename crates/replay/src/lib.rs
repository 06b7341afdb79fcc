//! Trace replay & differential harness: every JSONL trace is a
//! regression corpus entry.
//!
//! The workspace's trace files (`docs/TRACE_FORMAT.md`) were write-only:
//! a disruption could be recorded but not re-driven. This crate closes
//! the loop:
//!
//! - [`parse`] inverts [`radio_network::record_line`]: one JSONL round
//!   line back into a [`radio_network::RoundRecord`] whose frames are the
//!   recorded frame strings. `record_line ∘ parse ≡ identity` on lines
//!   the encoder produced (proptested in `tests/roundtrip.rs`).
//! - [`reader`] loads whole trace files, enforcing consecutive round
//!   numbers ([`GapPolicy::Reject`]) or counting the holes
//!   ([`GapPolicy::Skip`]).
//! - [`scripted`] wraps a parsed schedule in [`ScriptedAdversary`], which
//!   re-emits the recorded adversary moves verbatim through the normal
//!   [`radio_network::Adversary`] trait — so a recorded run can be
//!   re-driven against any protocol variant, resolver (the dense
//!   reference oracle or the sparse engine), or
//!   [`radio_network::TraceRetention`].
//! - [`frames`] decodes the `Debug`-encoded [`fame::FameFrame`] strings
//!   that spoofing adversaries inject.
//! - [`driver`] drives a replay: a [`CollectorSink`] that captures the
//!   re-encoded lines, and [`run_dense`], a dense all-nodes-every-round
//!   driver over [`radio_network::testing::ReferenceNetwork`], equivalent
//!   (by the [`radio_network::Protocol`] sleep contract) to the sparse
//!   [`radio_network::Simulation`] loop.
//! - [`differ`] compares original and replayed lines and names the first
//!   divergent round, both records pretty-printed.
//! - [`harness`] ties it together for the two recorded protocol shapes
//!   (an f-AME scenario trial and a long-lived session) and the
//!   committed golden corpus under `tests/corpus/`.
//!
//! The `replay` binary is the command-line entry point:
//!
//! ```text
//! replay --trace tests/corpus/fame-spoofer.jsonl --engine both --expect-identical
//! replay --regen tests/corpus
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod differ;
pub mod driver;
pub mod frames;
pub mod harness;
pub mod parse;
pub mod reader;
pub mod scripted;

pub use corpus::{corpus_members, regen_corpus, validate_corpus_entry};
pub use differ::{compare, Divergence, ReplayReport};
pub use driver::{run_dense, CollectorSink, EngineMode};
pub use frames::decode_fame_frame;
pub use harness::CorpusScenario;
pub use parse::parse_record_line;
pub use reader::{GapPolicy, TraceFile};
pub use scripted::ScriptedAdversary;
