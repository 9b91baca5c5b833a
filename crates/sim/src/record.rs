//! Ground truth and detection records.
//!
//! The kernel keeps two kinds of bookkeeping that experiments need:
//!
//! * **ground truth** — which packets gray failures actually dropped, per
//!   entry (the paper's TPR definitions compare detector output against
//!   packets *actually* lost, §5.1: "When we do not detect any failure ...
//!   we report a TPR of 0"), and
//! * **detections** — what the detectors running inside switches reported,
//!   pushed through [`crate::kernel::Kernel::report`].

use fancy_net::{FnvMap, Prefix};

use crate::event::{NodeId, PortId};
use crate::time::SimTime;

/// What a detection refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectionScope {
    /// A single monitored entry (dedicated counter hit).
    Entry(Prefix),
    /// A hash path through a FANcY hash-based tree. Maps to one or a few
    /// entries; the experiment harness resolves paths against the entry
    /// universe with the tree's hash functions.
    HashPath(Vec<u8>),
    /// A uniform random failure over the whole link (§5.1.3).
    Uniform,
    /// The link itself is unresponsive (the sender FSM exhausted its
    /// `X = 5` Start/Stop retransmissions).
    LinkDown,
}

impl DetectionScope {
    /// Short stable name used as a metric label value (matches the
    /// flight recorder's scope names).
    pub fn metric_name(&self) -> &'static str {
        match self {
            DetectionScope::Entry(_) => "entry",
            DetectionScope::HashPath(_) => "path",
            DetectionScope::Uniform => "uniform",
            DetectionScope::LinkDown => "link_down",
        }
    }
}

/// Which mechanism produced a detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// A FANcY dedicated (high-priority) counter mismatch.
    DedicatedCounter,
    /// A FANcY hash-tree leaf counter mismatch after zooming.
    HashTree,
    /// FANcY's majority-of-root-counters uniform-failure check.
    UniformCheck,
    /// The counting protocol's retransmission limit (hard link failure).
    ProtocolTimeout,
    /// A baseline detector, identified by name.
    Baseline(&'static str),
}

impl DetectorKind {
    /// Short stable name used as a metric label value. Baselines use
    /// their bare name (the flight recorder's `baseline:` prefix is a
    /// trace-format concern, not a label).
    pub fn metric_name(&self) -> &'static str {
        match self {
            DetectorKind::DedicatedCounter => "dedicated",
            DetectorKind::HashTree => "tree",
            DetectorKind::UniformCheck => "uniform",
            DetectorKind::ProtocolTimeout => "timeout",
            DetectorKind::Baseline(name) => name,
        }
    }
}

/// One detection event reported by an in-switch detector.
#[derive(Debug, Clone)]
pub struct DetectionRecord {
    /// Simulated time at which the detector flagged the failure.
    pub time: SimTime,
    /// Node that detected (the upstream switch of the counting session).
    pub node: NodeId,
    /// Egress port (link) the detection refers to.
    pub port: PortId,
    /// Affected traffic.
    pub scope: DetectionScope,
    /// Producing mechanism.
    pub detector: DetectorKind,
}

/// Per-entry ground-truth drop statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropStats {
    /// Packets dropped by gray failures for this entry.
    pub count: u64,
    /// Bytes dropped by gray failures for this entry.
    pub bytes: u64,
    /// Time of the first gray drop.
    pub first: Option<SimTime>,
    /// Time of the last gray drop.
    pub last: Option<SimTime>,
}

impl DropStats {
    fn observe(&mut self, now: SimTime, bytes: u64) {
        self.count += 1;
        self.bytes += bytes;
        if self.first.is_none() {
            self.first = Some(now);
        }
        self.last = Some(now);
    }
}

/// All records accumulated during one simulation run.
#[derive(Debug, Default)]
pub struct Records {
    /// Detections reported by in-switch detectors.
    pub detections: Vec<DetectionRecord>,
    /// Ground truth: gray drops per entry.
    pub gray_drops: FnvMap<Prefix, DropStats>,
    /// Total congestion (traffic-manager) drops — never gray failures.
    pub congestion_drops: u64,
}

impl Records {
    /// Record a gray drop for `entry` at `now`.
    pub(crate) fn gray_drop(&mut self, entry: Prefix, now: SimTime, bytes: u64) {
        self.gray_drops
            .entry(entry)
            .or_default()
            .observe(now, bytes);
    }

    /// Total gray drops across all entries.
    pub fn total_gray_drops(&self) -> u64 {
        self.gray_drops.values().map(|s| s.count).sum()
    }

    /// The first gray-drop time for `entry`, if any packet was dropped.
    pub fn first_drop(&self, entry: Prefix) -> Option<SimTime> {
        self.gray_drops.get(&entry).and_then(|s| s.first)
    }

    /// Detections of a given kind.
    pub fn detections_by(&self, kind: DetectorKind) -> impl Iterator<Item = &DetectionRecord> {
        self.detections.iter().filter(move |d| d.detector == kind)
    }

    /// The earliest detection whose scope is exactly `Entry(entry)`.
    pub fn first_entry_detection(&self, entry: Prefix) -> Option<&DetectionRecord> {
        self.detections
            .iter()
            .filter(|d| d.scope == DetectionScope::Entry(entry))
            .min_by_key(|d| d.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_stats_track_first_and_last() {
        let mut r = Records::default();
        let e = Prefix(42);
        r.gray_drop(e, SimTime(100), 1500);
        r.gray_drop(e, SimTime(300), 500);
        let s = r.gray_drops[&e];
        assert_eq!(s.count, 2);
        assert_eq!(s.bytes, 2000);
        assert_eq!(s.first, Some(SimTime(100)));
        assert_eq!(s.last, Some(SimTime(300)));
        assert_eq!(r.total_gray_drops(), 2);
        assert_eq!(r.first_drop(e), Some(SimTime(100)));
        assert_eq!(r.first_drop(Prefix(1)), None);
    }

    #[test]
    fn detection_queries() {
        let mut r = Records::default();
        r.detections.push(DetectionRecord {
            time: SimTime(200),
            node: 0,
            port: 0,
            scope: DetectionScope::Entry(Prefix(7)),
            detector: DetectorKind::DedicatedCounter,
        });
        r.detections.push(DetectionRecord {
            time: SimTime(100),
            node: 0,
            port: 0,
            scope: DetectionScope::Entry(Prefix(7)),
            detector: DetectorKind::HashTree,
        });
        assert_eq!(r.detections_by(DetectorKind::DedicatedCounter).count(), 1);
        assert_eq!(
            r.first_entry_detection(Prefix(7)).unwrap().time,
            SimTime(100)
        );
    }
}
