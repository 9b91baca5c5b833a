//! Network-wide incident aggregation.
//!
//! FANcY's per-switch output is deliberately minimal: flagged entries and
//! hash paths per port (Fig. 1). An operator runs many switches; what they
//! actually triage is an *incident* — "link S1→S2 is gray-dropping traffic
//! for these entries since 01:13, still ongoing". This module folds the
//! stream of [`DetectionRecord`]s from any number of switches into such
//! incidents, with a lifecycle:
//!
//! * detections for the same (node, port) within `merge_window` belong to
//!   one incident (a zooming tree emits several leaf reports for one
//!   failure episode);
//! * an incident *clears* when no new detection arrives for
//!   `clear_after` — e.g. after the fast-reroute app moved the traffic or
//!   the device was repaired;
//! * uniform / link-down detections escalate the incident's severity.

use std::collections::HashMap;

use fancy_net::Prefix;
use fancy_sim::metrics::{Labels, MetricsHub};
use fancy_sim::{
    DetectionRecord, DetectionScope, DetectorKind, NodeId, PortId, SimDuration, SimTime,
};

/// How bad an incident is, in escalating order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// One or a few entries are losing packets.
    EntryLoss,
    /// All entries on the link lose packets uniformly.
    UniformLoss,
    /// The link does not respond to the counting protocol at all.
    LinkDown,
}

impl Severity {
    /// Stable label used in trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::EntryLoss => "entry_loss",
            Severity::UniformLoss => "uniform_loss",
            Severity::LinkDown => "link_down",
        }
    }
}

/// An aggregated failure incident on one link.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Reporting (upstream) switch.
    pub node: NodeId,
    /// Egress port = the suffering link.
    pub port: PortId,
    /// First detection time.
    pub opened: SimTime,
    /// Most recent detection time.
    pub last_seen: SimTime,
    /// Entries implicated via dedicated counters.
    pub entries: Vec<Prefix>,
    /// Hash paths implicated via the tree (resolve with the switch's
    /// hasher for candidate entries).
    pub hash_paths: Vec<Vec<u8>>,
    /// Escalation level.
    pub severity: Severity,
    /// Number of detections folded in.
    pub detections: usize,
    /// Set when the incident has been closed by inactivity.
    pub cleared_at: Option<SimTime>,
}

impl Incident {
    /// Is the incident still open at `now`, given the clear timeout?
    pub fn open(&self) -> bool {
        self.cleared_at.is_none()
    }
}

/// Aggregation parameters.
#[derive(Debug, Clone, Copy)]
pub struct IncidentConfig {
    /// Detections within this window of `last_seen` join the incident.
    pub merge_window: SimDuration,
    /// The incident clears after this much silence.
    pub clear_after: SimDuration,
}

impl Default for IncidentConfig {
    fn default() -> Self {
        IncidentConfig {
            merge_window: SimDuration::from_secs(5),
            clear_after: SimDuration::from_secs(30),
        }
    }
}

/// Folds detection records into incidents.
#[derive(Debug, Default)]
pub struct IncidentTracker {
    cfg: IncidentConfig,
    /// Closed incidents, in open order.
    pub history: Vec<Incident>,
    active: HashMap<(NodeId, PortId), Incident>,
}

impl IncidentTracker {
    /// A tracker with the given configuration.
    pub fn new(cfg: IncidentConfig) -> Self {
        IncidentTracker {
            cfg,
            history: Vec::new(),
            active: HashMap::new(),
        }
    }

    fn severity_of(rec: &DetectionRecord) -> Severity {
        match (&rec.scope, rec.detector) {
            (DetectionScope::LinkDown, _) | (_, DetectorKind::ProtocolTimeout) => {
                Severity::LinkDown
            }
            (DetectionScope::Uniform, _) => Severity::UniformLoss,
            _ => Severity::EntryLoss,
        }
    }

    /// Feed one detection. Call in time order (the simulator's record list
    /// already is, per link).
    pub fn observe(&mut self, rec: &DetectionRecord) {
        self.expire(rec.time);
        let inc = self
            .active
            .entry((rec.node, rec.port))
            .or_insert_with(|| Incident {
                node: rec.node,
                port: rec.port,
                opened: rec.time,
                last_seen: rec.time,
                entries: Vec::new(),
                hash_paths: Vec::new(),
                severity: Severity::EntryLoss,
                detections: 0,
                cleared_at: None,
            });
        inc.last_seen = rec.time;
        inc.detections += 1;
        inc.severity = inc.severity.max(Self::severity_of(rec));
        match &rec.scope {
            DetectionScope::Entry(p) if !inc.entries.contains(p) => {
                inc.entries.push(*p);
            }
            DetectionScope::HashPath(path) if !inc.hash_paths.contains(path) => {
                inc.hash_paths.push(path.clone());
            }
            _ => {}
        }
    }

    /// Close incidents whose last detection is older than `clear_after`.
    pub fn expire(&mut self, now: SimTime) {
        let clear = self.cfg.clear_after;
        let mut expired: Vec<(NodeId, PortId)> = self
            .active
            .iter()
            .filter(|(_, inc)| now.saturating_since(inc.last_seen) > clear)
            .map(|(&k, _)| k)
            .collect();
        // HashMap iteration order is arbitrary: keep the history order of
        // simultaneous clears deterministic.
        expired.sort_unstable();
        for k in expired {
            let mut inc = self.active.remove(&k).expect("key just listed");
            inc.cleared_at = Some(inc.last_seen + clear);
            self.history.push(inc);
        }
    }

    /// Fold a whole record list (e.g. post-run) and close everything.
    pub fn ingest_all(&mut self, records: &[DetectionRecord], end: SimTime) -> Vec<Incident> {
        let mut recs: Vec<&DetectionRecord> = records.iter().collect();
        recs.sort_by_key(|r| r.time);
        for r in recs {
            self.observe(r);
        }
        self.expire(end + self.cfg.clear_after + SimDuration::from_nanos(1));
        let mut out = self.history.clone();
        out.extend(self.active.values().cloned());
        out.sort_by_key(|i| i.opened);
        out
    }

    /// [`IncidentTracker::ingest_all`], additionally folding the incident
    /// lifecycle into `hub`'s registry: `fancy_incidents_total{severity}`
    /// counts incidents, `fancy_incident_detections_total` sums the
    /// detections they absorbed, and `fancy_incident_duration_ns{severity}`
    /// histograms open→clear dwell times. Incidents are walked in opened
    /// order, so the resulting snapshot is deterministic.
    pub fn ingest_all_metered(
        &mut self,
        records: &[DetectionRecord],
        end: SimTime,
        hub: &MetricsHub,
    ) -> Vec<Incident> {
        let out = self.ingest_all(records, end);
        hub.with(|r| {
            for inc in &out {
                let sev = Labels::new().with("severity", inc.severity.name());
                r.inc("fancy_incidents_total", sev.clone());
                r.add(
                    "fancy_incident_detections_total",
                    Labels::new(),
                    inc.detections as u64,
                );
                if let Some(cleared) = inc.cleared_at {
                    r.observe(
                        "fancy_incident_duration_ns",
                        sev,
                        cleared.duration_since(inc.opened).as_nanos(),
                    );
                }
            }
        });
        out
    }

    /// Currently open incidents.
    pub fn open_incidents(&self) -> impl Iterator<Item = &Incident> {
        self.active.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        t_ms: u64,
        node: NodeId,
        port: PortId,
        scope: DetectionScope,
        d: DetectorKind,
    ) -> DetectionRecord {
        DetectionRecord {
            time: SimTime(t_ms * 1_000_000),
            node,
            port,
            scope,
            detector: d,
        }
    }

    #[test]
    fn detections_on_one_link_merge_into_one_incident() {
        let mut t = IncidentTracker::new(IncidentConfig::default());
        let recs = vec![
            rec(
                1000,
                1,
                2,
                DetectionScope::Entry(Prefix(7)),
                DetectorKind::DedicatedCounter,
            ),
            rec(
                1200,
                1,
                2,
                DetectionScope::HashPath(vec![3, 4, 5]),
                DetectorKind::HashTree,
            ),
            rec(
                1900,
                1,
                2,
                DetectionScope::Entry(Prefix(9)),
                DetectorKind::DedicatedCounter,
            ),
        ];
        let incidents = t.ingest_all(&recs, SimTime(60_000_000_000));
        assert_eq!(incidents.len(), 1);
        let i = &incidents[0];
        assert_eq!(i.entries, vec![Prefix(7), Prefix(9)]);
        assert_eq!(i.hash_paths, vec![vec![3, 4, 5]]);
        assert_eq!(i.detections, 3);
        assert_eq!(i.severity, Severity::EntryLoss);
        assert!(i.cleared_at.is_some(), "closed by end-of-run expiry");
    }

    #[test]
    fn different_links_are_different_incidents() {
        let mut t = IncidentTracker::new(IncidentConfig::default());
        let recs = vec![
            rec(
                1000,
                1,
                2,
                DetectionScope::Entry(Prefix(7)),
                DetectorKind::DedicatedCounter,
            ),
            rec(
                1000,
                3,
                0,
                DetectionScope::Entry(Prefix(7)),
                DetectorKind::DedicatedCounter,
            ),
        ];
        let incidents = t.ingest_all(&recs, SimTime(60_000_000_000));
        assert_eq!(incidents.len(), 2);
    }

    #[test]
    fn silence_clears_and_recurrence_reopens() {
        let mut t = IncidentTracker::new(IncidentConfig {
            merge_window: SimDuration::from_secs(5),
            clear_after: SimDuration::from_secs(10),
        });
        let recs = vec![
            rec(
                1_000,
                1,
                2,
                DetectionScope::Entry(Prefix(7)),
                DetectorKind::DedicatedCounter,
            ),
            // 60 s later: a new episode on the same link.
            rec(
                61_000,
                1,
                2,
                DetectionScope::Entry(Prefix(7)),
                DetectorKind::DedicatedCounter,
            ),
        ];
        let incidents = t.ingest_all(&recs, SimTime(120_000_000_000));
        assert_eq!(incidents.len(), 2, "two distinct episodes");
        assert!(incidents[0].cleared_at.unwrap() < incidents[1].opened);
    }

    #[test]
    fn severity_escalates_and_never_downgrades() {
        let mut t = IncidentTracker::new(IncidentConfig::default());
        let recs = vec![
            rec(
                1000,
                1,
                2,
                DetectionScope::Entry(Prefix(7)),
                DetectorKind::DedicatedCounter,
            ),
            rec(
                1100,
                1,
                2,
                DetectionScope::Uniform,
                DetectorKind::UniformCheck,
            ),
            rec(
                1200,
                1,
                2,
                DetectionScope::Entry(Prefix(8)),
                DetectorKind::DedicatedCounter,
            ),
        ];
        let incidents = t.ingest_all(&recs, SimTime(60_000_000_000));
        assert_eq!(incidents[0].severity, Severity::UniformLoss);
        // Link-down beats everything.
        let mut t = IncidentTracker::new(IncidentConfig::default());
        let recs = vec![
            rec(
                1000,
                1,
                2,
                DetectionScope::Uniform,
                DetectorKind::UniformCheck,
            ),
            rec(
                1100,
                1,
                2,
                DetectionScope::LinkDown,
                DetectorKind::ProtocolTimeout,
            ),
        ];
        let incidents = t.ingest_all(&recs, SimTime(60_000_000_000));
        assert_eq!(incidents[0].severity, Severity::LinkDown);
    }

    #[test]
    fn metered_ingest_counts_incidents_by_severity() {
        let mut t = IncidentTracker::new(IncidentConfig::default());
        let recs = vec![
            rec(
                1000,
                1,
                2,
                DetectionScope::Entry(Prefix(7)),
                DetectorKind::DedicatedCounter,
            ),
            rec(
                1200,
                1,
                2,
                DetectionScope::Entry(Prefix(8)),
                DetectorKind::DedicatedCounter,
            ),
            rec(
                1000,
                3,
                0,
                DetectionScope::LinkDown,
                DetectorKind::ProtocolTimeout,
            ),
        ];
        let hub = MetricsHub::new();
        let incidents = t.ingest_all_metered(&recs, SimTime(60_000_000_000), &hub);
        assert_eq!(incidents.len(), 2);
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter(
                "fancy_incidents_total",
                &Labels::new().with("severity", "entry_loss")
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter(
                "fancy_incidents_total",
                &Labels::new().with("severity", "link_down")
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter("fancy_incident_detections_total", &Labels::new()),
            Some(3)
        );
        let h = snap
            .histogram(
                "fancy_incident_duration_ns",
                &Labels::new().with("severity", "entry_loss"),
            )
            .expect("duration histogram recorded");
        // opened 1.0 s, last_seen 1.2 s, cleared 31.2 s → 30.2 s dwell.
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 30_200_000_000);
    }

    #[test]
    fn open_incidents_visible_before_expiry() {
        let mut t = IncidentTracker::new(IncidentConfig::default());
        t.observe(&rec(
            1000,
            1,
            2,
            DetectionScope::Entry(Prefix(7)),
            DetectorKind::DedicatedCounter,
        ));
        assert_eq!(t.open_incidents().count(), 1);
        assert!(t.open_incidents().next().unwrap().open());
        t.expire(SimTime(200_000_000_000));
        assert_eq!(t.open_incidents().count(), 0);
        assert_eq!(t.history.len(), 1);
    }
}
