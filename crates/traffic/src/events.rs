//! The `.events` compiler — compiled binary trace pipeline, write side.
//!
//! The CAIDA experiments replay multi-second slices with hundreds of
//! thousands of flows. Synthesizing that schedule in-process is cheap
//! once, but the Table 3 harness replays the *same* trace across every
//! loss-rate point, sweep cell, and process invocation. This module
//! lowers a finished [`SyntheticTrace`] (or any uniform-RTO
//! [`ScheduledFlow`] schedule) into a compact little-endian binary
//! `.events` file that [`crate::reader::EventsReader`] streams back
//! without re-synthesis — the same preprocess/replay split the
//! delayed-hits reproduction uses for its CAIDA pipeline.
//!
//! # Frame layout (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "FANCYEVT"
//!      8     4  format version (u32, = 1)
//!     12     4  spec id (u32)
//!     16     8  spec bit rate (bps)
//!     24     8  spec packet rate (pps)
//!     32     8  spec flow arrival rate (fps)
//!     40     8  spec prefix universe size
//!     48     8  spec Zipf exponent (f64 bits)
//!     56     8  synthesis scale (f64 bits)
//!     64     8  synthesis seed
//!     72     8  slice duration (ns)
//!     80     8  uniform initial RTO (ns)
//!     88     8  prefix-table length (count)
//!     96     8  flow-record count
//!    104    4p  prefix table: one u32 /24 per rank (rank 0 first)
//! 104+4p   32f  flow records: start ns (u64), dst addr (u32),
//!               packet size (u32), rate (bps, u64), total packets (u64)
//!    EOF-8   8  FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! Every field a replay needs is either stored exactly (flow records,
//! prefix ranks) or recomputed from stored inputs by a pure function
//! (Zipf weights from the prefix count and exponent), so
//! `read(compile(trace))` reproduces the in-process schedule
//! byte-for-byte — the property the equivalence gate in ci.sh pins.
//!
//! Corruption, truncation, and version drift on the read side are
//! **typed errors** ([`EventsError`]), never panics: a damaged trace
//! file must degrade to a diagnosable failure, not take down a sweep.

use std::fmt;
use std::path::{Path, PathBuf};

use fancy_sim::SimDuration;
use fancy_tcp::{ScheduledFlow, DEFAULT_RTO};

use crate::caida::SyntheticTrace;

/// First eight bytes of every `.events` file.
pub const EVENTS_MAGIC: [u8; 8] = *b"FANCYEVT";

/// Format version this build writes and reads.
pub const EVENTS_VERSION: u32 = 1;

/// Fixed byte length of the magic + version + header region.
pub const EVENTS_HEADER_BYTES: usize = 104;

/// Fixed byte length of one flow record.
pub const EVENTS_RECORD_BYTES: usize = 32;

/// Byte length of one prefix-table entry.
pub const EVENTS_PREFIX_BYTES: usize = 4;

/// Byte length of the trailing checksum.
pub const EVENTS_TRAILER_BYTES: usize = 8;

/// FNV-1a 64 — the frame checksum (and, by construction, a content
/// fingerprint of the compiled trace).
pub use fancy_net::fnv1a64;

/// Typed failure of the compiled-trace pipeline. Every read-side
/// validation failure maps to exactly one variant; nothing in this
/// module panics on untrusted bytes.
#[derive(Debug)]
pub enum EventsError {
    /// Reading or writing the file failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The first eight bytes are not [`EVENTS_MAGIC`].
    BadMagic,
    /// The file's version field is one this build cannot decode.
    UnsupportedVersion {
        /// The version stored in the file.
        found: u32,
    },
    /// The file is shorter than its header and counts require.
    Truncated {
        /// Bytes the frame needs to be complete.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The file is *longer* than its header and counts describe.
    TrailingGarbage {
        /// Bytes the frame should occupy.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The trailing checksum does not match the frame contents.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the frame.
        computed: u64,
    },
    /// Header counts overflow a 64-bit byte size (hostile input).
    Malformed(&'static str),
    /// The schedule mixes retransmission timeouts; the frame stores a
    /// single RTO for all flows, so compilation refuses rather than
    /// silently altering the schedule.
    MixedRto {
        /// Index of the first flow whose RTO disagrees with flow 0's.
        flow: usize,
    },
}

impl fmt::Display for EventsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventsError::Io { path, source } => {
                write!(f, "events I/O on {}: {source}", path.display())
            }
            EventsError::BadMagic => write!(f, "not a .events file (bad magic)"),
            EventsError::UnsupportedVersion { found } => write!(
                f,
                "unsupported .events version {found} (this build reads {EVENTS_VERSION})"
            ),
            EventsError::Truncated { expected, got } => {
                write!(
                    f,
                    ".events file truncated: need {expected} bytes, got {got}"
                )
            }
            EventsError::TrailingGarbage { expected, got } => write!(
                f,
                ".events file has trailing garbage: frame is {expected} bytes, file is {got}"
            ),
            EventsError::ChecksumMismatch { stored, computed } => write!(
                f,
                ".events checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            EventsError::Malformed(what) => write!(f, "malformed .events header: {what}"),
            EventsError::MixedRto { flow } => write!(
                f,
                "cannot compile: flow {flow} has a different RTO than flow 0 \
                 (the .events frame stores one uniform RTO)"
            ),
        }
    }
}

impl std::error::Error for EventsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EventsError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Summary of one compiled `.events` file, returned by [`compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    /// Where the frame was written.
    pub path: PathBuf,
    /// Total file size in bytes (header + tables + records + trailer).
    pub bytes: u64,
    /// The trailing FNV-1a checksum — doubles as the file's content
    /// fingerprint for cache salts.
    pub checksum: u64,
    /// Flow records written.
    pub flows: u64,
    /// Prefix-table entries written.
    pub prefixes: u64,
}

/// Encode `trace` into an in-memory `.events` frame (header, prefix
/// table, flow records, trailing checksum). Fails with
/// [`EventsError::MixedRto`] if the schedule's flows do not share one
/// retransmission timeout — the frame stores a single RTO.
pub fn encode(trace: &SyntheticTrace) -> Result<Vec<u8>, EventsError> {
    let rto = uniform_rto(&trace.flows)?;
    let n_prefixes = trace.prefixes_by_rank.len();
    let n_flows = trace.flows.len();
    let total = EVENTS_HEADER_BYTES
        + n_prefixes * EVENTS_PREFIX_BYTES
        + n_flows * EVENTS_RECORD_BYTES
        + EVENTS_TRAILER_BYTES;
    let mut buf = Vec::with_capacity(total);

    buf.extend_from_slice(&EVENTS_MAGIC);
    buf.extend_from_slice(&EVENTS_VERSION.to_le_bytes());
    buf.extend_from_slice(&u32::from(trace.spec.id).to_le_bytes());
    buf.extend_from_slice(&trace.spec.bit_rate_bps.to_le_bytes());
    buf.extend_from_slice(&trace.spec.pkt_rate_pps.to_le_bytes());
    buf.extend_from_slice(&trace.spec.flow_rate_fps.to_le_bytes());
    buf.extend_from_slice(&(trace.spec.prefixes as u64).to_le_bytes());
    buf.extend_from_slice(&trace.spec.zipf_s.to_bits().to_le_bytes());
    buf.extend_from_slice(&trace.scale.to_bits().to_le_bytes());
    buf.extend_from_slice(&trace.seed.to_le_bytes());
    buf.extend_from_slice(&trace.duration.as_nanos().to_le_bytes());
    buf.extend_from_slice(&rto.as_nanos().to_le_bytes());
    buf.extend_from_slice(&(n_prefixes as u64).to_le_bytes());
    buf.extend_from_slice(&(n_flows as u64).to_le_bytes());
    debug_assert_eq!(buf.len(), EVENTS_HEADER_BYTES);

    for p in &trace.prefixes_by_rank {
        buf.extend_from_slice(&p.0.to_le_bytes());
    }
    for f in trace.flows.iter() {
        buf.extend_from_slice(&f.start.0.to_le_bytes());
        buf.extend_from_slice(&f.dst.to_le_bytes());
        buf.extend_from_slice(&f.cfg.pkt_size.to_le_bytes());
        buf.extend_from_slice(&f.cfg.rate_bps.to_le_bytes());
        buf.extend_from_slice(&f.cfg.total_packets.to_le_bytes());
    }
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    debug_assert_eq!(buf.len(), total);
    Ok(buf)
}

/// Compile `trace` to a `.events` file at `path`, atomically (temp
/// file then rename, so a concurrent reader sees either nothing or a
/// complete frame; two compilers racing on one path write identical
/// bytes).
pub fn compile(trace: &SyntheticTrace, path: &Path) -> Result<CompiledTrace, EventsError> {
    let buf = encode(trace)?;
    let io_err = |source| EventsError::Io {
        path: path.to_path_buf(),
        source,
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(io_err)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &buf).map_err(io_err)?;
    if let Err(source) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(io_err(source));
    }
    let checksum = u64::from_le_bytes(
        buf[buf.len() - EVENTS_TRAILER_BYTES..]
            .try_into()
            .expect("trailer is 8 bytes"),
    );
    Ok(CompiledTrace {
        path: path.to_path_buf(),
        bytes: buf.len() as u64,
        checksum,
        flows: trace.flows.len() as u64,
        prefixes: trace.prefixes_by_rank.len() as u64,
    })
}

/// The single RTO shared by every flow ([`DEFAULT_RTO`] for an empty
/// schedule), or the index of the first disagreement.
fn uniform_rto(flows: &[ScheduledFlow]) -> Result<SimDuration, EventsError> {
    let Some(first) = flows.first() else {
        return Ok(DEFAULT_RTO);
    };
    let rto = first.cfg.initial_rto;
    match flows.iter().position(|f| f.cfg.initial_rto != rto) {
        Some(flow) => Err(EventsError::MixedRto { flow }),
        None => Ok(rto),
    }
}
