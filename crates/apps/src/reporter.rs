//! Operator-facing failure reports.
//!
//! FANcY's output interface (Fig. 1 of the paper) surfaces detections as
//! lines like:
//!
//! ```text
//! Gray failure on Wed 01:13 AM
//! [@switch1-eth2] 1.0/8: 10% loss
//! ```
//!
//! This module renders [`fancy_sim::DetectionRecord`]s in that spirit:
//! one line per detection, naming the mechanism that fired by
//! [`fancy_sim::DetectorKind::label`], hash paths resolved to candidate
//! entries when a tree hasher is available, and loss magnitude estimated
//! from the simulator's ground truth when requested.

use std::fmt::Write as _;

use fancy_core::TreeHasher;
use fancy_net::Prefix;
use fancy_sim::{DetectionRecord, DetectionScope, Records};

/// Render one detection as an operator-facing line.
pub fn format_detection(
    switch_name: &str,
    rec: &DetectionRecord,
    hasher: Option<&TreeHasher>,
    universe: Option<&[Prefix]>,
) -> String {
    let what = match &rec.scope {
        DetectionScope::Entry(p) => format!("{p}"),
        DetectionScope::Uniform => "all entries (uniform loss)".to_string(),
        DetectionScope::LinkDown => "link unresponsive".to_string(),
        DetectionScope::HashPath(path) => match (hasher, universe) {
            (Some(h), Some(u)) => {
                let entries: Vec<String> = h
                    .entries_matching(path, u.iter().copied())
                    .map(|p| p.to_string())
                    .collect();
                if entries.is_empty() {
                    format!("hash path {path:?} (no known entry)")
                } else {
                    entries.join(", ")
                }
            }
            _ => format!("hash path {path:?}"),
        },
    };
    format!(
        "[@{switch_name}-eth{}] t={:.3}s: {what} — {}",
        rec.port,
        rec.time.as_secs_f64(),
        rec.detector.label()
    )
}

/// Render a whole run's detections, sorted by time, annotated with the
/// ground-truth loss volume per entry where available.
pub fn format_report(
    switch_name: &str,
    records: &Records,
    hasher: Option<&TreeHasher>,
    universe: Option<&[Prefix]>,
) -> String {
    let mut recs: Vec<&DetectionRecord> = records.detections.iter().collect();
    recs.sort_by_key(|r| r.time);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Gray-failure report for {switch_name}: {} detection(s), {} gray drop(s), {} congestion drop(s)",
        recs.len(),
        records.total_gray_drops(),
        records.congestion_drops
    );
    for r in &recs {
        let mut line = format_detection(switch_name, r, hasher, universe);
        if let DetectionScope::Entry(p) = &r.scope {
            if let Some(stats) = records.gray_drops.get(p) {
                let _ = write!(
                    line,
                    " ({} pkts / {} B lost so far)",
                    stats.count, stats.bytes
                );
            }
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fancy_core::TreeParams;
    use fancy_sim::{DetectorKind, SimTime};

    fn rec(scope: DetectionScope, detector: DetectorKind) -> DetectionRecord {
        DetectionRecord {
            time: SimTime(1_500_000_000),
            node: 0,
            port: 2,
            scope,
            detector,
        }
    }

    #[test]
    fn entry_detection_formats_like_figure_1() {
        let line = format_detection(
            "switch1",
            &rec(
                DetectionScope::Entry(Prefix::from_addr(0x01_00_00_00)),
                DetectorKind::DedicatedCounter,
            ),
            None,
            None,
        );
        assert!(line.contains("[@switch1-eth2]"));
        assert!(line.contains("1.0.0.0/24"));
        assert!(line.contains("dedicated counter"));
        assert!(line.contains("t=1.500s"));
    }

    #[test]
    fn hash_path_resolves_to_entries() {
        let hasher = TreeHasher::new(TreeParams::paper_default(), 7);
        let universe: Vec<Prefix> = (0..1000u32).map(Prefix).collect();
        let target = Prefix(55);
        let path = hasher.hash_path(target);
        let line = format_detection(
            "sw",
            &rec(DetectionScope::HashPath(path), DetectorKind::HashTree),
            Some(&hasher),
            Some(&universe),
        );
        assert!(line.contains(&target.to_string()), "line: {line}");
        assert!(line.contains("hash-tree zoom"));
    }

    #[test]
    fn unresolvable_path_still_formats() {
        let line = format_detection(
            "sw",
            &rec(
                DetectionScope::HashPath(vec![1, 2, 3]),
                DetectorKind::HashTree,
            ),
            None,
            None,
        );
        assert!(line.contains("hash path"));
    }

    #[test]
    fn report_includes_ground_truth() {
        let mut records = Records::default();
        let p = Prefix::from_addr(0x0A000000);
        records.detections.push(rec(
            DetectionScope::Entry(p),
            DetectorKind::DedicatedCounter,
        ));
        // Simulate some ground-truth drops via the public surface.
        records.gray_drops.entry(p).or_default();
        let text = format_report("s1", &records, None, None);
        assert!(text.contains("1 detection(s)"));
        assert!(text.contains("10.0.0.0/24"));
    }
}
