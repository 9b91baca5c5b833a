//! The Tofino fast-reroute case study (Figure 10, §6.1).
//!
//! Topology: `sender — S1 — link switch — S2 — receiver` with a backup
//! path through the same link switch. At t = 2 s the link switch starts
//! dropping 1 %, 10 % or 100 % of the monitored entry's packets; FANcY
//! detects the mismatch and reroutes only the affected entry to the backup
//! port in under a second. We run the experiment twice per loss rate: once
//! with the entry covered by a dedicated counter, once covered by the
//! hash-based tree — the two panels of Figure 10.
//!
//! The paper drives 50 Gbps of TCP plus 50 Mbps of UDP on 100 Gbps
//! hardware; the default harness scales the rates down (keeping their
//! ratio) so a software run stays fast, and prints the scale used.

use fancy_apps::{ScenarioError, ScenarioSpec};
use fancy_net::Prefix;
use fancy_sim::LinkConfig;
use fancy_sim::{GrayFailure, SimDuration, SimTime};
use fancy_tcp::{ReceiverHost, ThroughputProbe};
use fancy_traffic::{generate, EntrySize};

use crate::env::Scale;

/// Which mechanism covers the monitored entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Covered by a dedicated counter.
    Dedicated,
    /// Covered by the hash-based tree.
    Tree,
}

/// Result of one case-study run.
#[derive(Debug, Clone)]
pub struct Fig10Run {
    /// Loss rate in percent.
    pub loss_pct: f64,
    /// Covering mechanism.
    pub kind: EntryKind,
    /// Received throughput of the monitored entry, Gbps per 100 ms bucket.
    pub gbps_series: Vec<f64>,
    /// Detection latency after the failure, seconds (None = undetected).
    pub detection_s: Option<f64>,
    /// Offered TCP rate of the run, bits per second.
    pub offered_bps: u64,
}

/// The failure injection time (the paper fails at t = 2 s).
pub const FAIL_AT: SimTime = SimTime(2_000_000_000);

/// Run one Figure 10 experiment.
pub fn run_case_study(
    loss_pct: f64,
    kind: EntryKind,
    scale: &Scale,
    seed: u64,
) -> Result<Fig10Run, ScenarioError> {
    // Paper: 50 Gbps TCP + 50 Mbps UDP on 100 Gbps links. Scaled default:
    // 1 Gbps TCP + 1 Mbps UDP on 2 Gbps links (same ratios).
    let (tcp_bps, udp_bps, link_bps) = if scale.full {
        (20_000_000_000u64, 20_000_000u64, 100_000_000_000u64)
    } else {
        (1_000_000_000, 1_000_000, 2_000_000_000)
    };
    let duration = SimDuration::from_secs(5);
    let entry = Prefix::from_addr(0x0A_00_07_00);
    let size = EntrySize {
        total_bps: tcp_bps,
        flows_per_sec: (tcp_bps / 2_000_000).max(4) as f64,
    };
    let flows = generate(&[entry], size, duration, seed).flows;

    let high_priority = match kind {
        EntryKind::Dedicated => vec![entry],
        EntryKind::Tree => Vec::new(),
    };
    // The case study's defaults are the §6.1 prototype's: Tofino tree,
    // 250 ms dedicated sessions, 200 ms zooming.
    let mut cs = ScenarioSpec::case_study()
        .seed(seed)
        .high_priority(high_priority)
        .flows(flows)
        .udp_background(udp_bps, 0x0B_00_00_01, duration)
        .core_link(LinkConfig::new(link_bps, SimDuration::from_micros(5)))
        .probe(ThroughputProbe::for_entries(
            "monitored entry",
            vec![entry],
            SimDuration::from_millis(100),
        ))
        .build()?;
    cs.fail(GrayFailure::single_entry(entry, loss_pct / 100.0, FAIL_AT));
    cs.net.run_until(SimTime::ZERO + duration);

    let detection_s = cs
        .detection_of(entry)
        .map(|d| d.time.duration_since(FAIL_AT).as_secs_f64());

    let rx: &ReceiverHost = cs.net.node(cs.receivers[0]);
    let gbps_series = rx.probes[0]
        .bps_series()
        .into_iter()
        .map(|b| b / 1e9)
        .collect();
    Ok(Fig10Run {
        loss_pct,
        kind,
        gbps_series,
        detection_s,
        offered_bps: tcp_bps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            reps: 1,
            duration: SimDuration::from_secs(5),
            multi_entries: 3,
            trace_scale: 0.005,
            trace_failures: 4,
            full: false,
        }
    }

    #[test]
    fn dedicated_blackhole_recovers_sub_second() -> Result<(), ScenarioError> {
        let r = run_case_study(100.0, EntryKind::Dedicated, &tiny(), 3)?;
        let d = r.detection_s.expect("must detect blackhole");
        assert!(d < 1.0, "detection took {d}s");
        assert_eq!(d.to_bits(), 4575984894382169753);
        // Throughput in the last second is back above half the pre-failure
        // average (TCP needs a moment to ramp back up after rerouting).
        let pre: f64 = r.gbps_series[10..19].iter().sum::<f64>() / 9.0;
        let post: f64 = r.gbps_series[r.gbps_series.len() - 10..]
            .iter()
            .sum::<f64>()
            / 10.0;
        assert!(
            post > pre * 0.5,
            "throughput must recover: pre {pre:.3} post {post:.3}"
        );
        Ok(())
    }

    #[test]
    fn tree_one_percent_loss_detected_under_a_second() -> Result<(), ScenarioError> {
        let r = run_case_study(1.0, EntryKind::Tree, &tiny(), 4)?;
        let d = r.detection_s.expect("1% loss must be detected");
        // ≈ 3 zooming sessions on sub-ms links.
        assert!(d < 1.2, "tree detection took {d}s");
        assert_eq!(d.to_bits(), 4601106617010302702);
        Ok(())
    }
}
