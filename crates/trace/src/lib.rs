//! Flight recorder for the FANcY reproduction.
//!
//! The paper's headline claims are *timeline* claims — detection within
//! ~1 s of failure onset, reroute before TCP collapses (§5) — so an
//! experiment that only reports end-of-run aggregates cannot explain a
//! slow detection or a missed drop. This crate provides the replayable
//! record: a stream of typed [`TraceEvent`]s emitted by the simulator,
//! the FANcY data plane and the TCP model, plus the sinks that capture
//! them and the JSONL encoding that persists them.
//!
//! Design rules, in priority order:
//!
//! 1. **Zero cost when disabled.** Nothing here is consulted unless a
//!    sink is installed; the instrumented crates guard every emission
//!    behind a single `Option` check (see `Kernel::trace` in
//!    `fancy-sim`), with event construction deferred into a closure.
//! 2. **Observational only.** A sink receives events but can never feed
//!    anything back into the simulation, so an attached recorder cannot
//!    perturb the schedule: traces are bit-identical with or without an
//!    observer, and across `FANCY_THREADS` settings.
//! 3. **No external dependencies.** The JSONL encoder *and* parser are
//!    hand-rolled ([`json`], also the codec of the cell cache and the
//!    metrics snapshots); the trace schema is restricted to flat objects
//!    of unsigned integers, strings, and small integer arrays so that
//!    round-tripping is exact (no floats anywhere).

pub mod event;
pub mod json;
pub mod profile;
pub mod sink;

pub use event::{parse_jsonl, DropCause, ParseError, TraceEvent, TraceKind, UNIT_TREE};
pub use profile::Profiler;
pub use sink::{
    events_to_jsonl, merge_shard_streams, JsonlWriter, RingRecorder, SharedRecorder, TraceSink,
};
