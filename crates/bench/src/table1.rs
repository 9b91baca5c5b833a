//! Table 1: one detection demo per real-world gray-failure class.
//!
//! Table 1 of the paper classifies vendor bugs by affected entries ×
//! affected packets. Each demo here injects a failure of one class —
//! modelled on the cited Cisco/Juniper bugs — and verifies FANcY detects
//! it, reporting which mechanism fired and how fast.

use fancy_apps::{ScenarioError, ScenarioSpec};
use fancy_net::Prefix;
use fancy_sim::{FailureMatcher, GrayFailure, SimDuration, SimTime};
use fancy_tcp::{FlowConfig, ScheduledFlow};

use crate::env::Scale;
use crate::runner::Sweep;

/// Outcome of one failure-class demo.
#[derive(Debug, Clone)]
pub struct ClassDemo {
    /// Class label (one Table 1 cell).
    pub class: &'static str,
    /// The real bug it is modelled on.
    pub bug: &'static str,
    /// Was the failure detected at all?
    pub detected: bool,
    /// Detection latency in seconds (if detected).
    pub detection_s: Option<f64>,
    /// The mechanism that fired first.
    pub mechanism: Option<&'static str>,
}

fn flows_for(entries: &[Prefix], rate: u64, duration: SimDuration) -> Vec<ScheduledFlow> {
    let mut flows = Vec::new();
    let n = duration.as_secs_f64().ceil() as u64;
    for (k, &e) in entries.iter().enumerate() {
        for i in 0..n {
            flows.push(ScheduledFlow {
                start: SimTime(i * 1_000_000_000 + (k as u64 % 7) * 29_000_000),
                dst: e.host(1),
                cfg: FlowConfig::for_rate(rate, 1.0),
            });
        }
    }
    flows.sort_by_key(|f| f.start);
    flows
}

/// One class demo's inputs (a cell in the Table 1 sweep).
struct ClassSpec {
    class: &'static str,
    bug: &'static str,
    matcher: FailureMatcher,
    drop_prob: f64,
    entries: Vec<Prefix>,
    high_priority: Vec<Prefix>,
    seed: u64,
}

fn run_class(spec: &ClassSpec, scale: &Scale) -> Result<ClassDemo, ScenarioError> {
    let duration = SimDuration::from_secs(8).min(scale.duration);
    let flows = flows_for(&spec.entries, 2_000_000, duration);
    let mut sc = ScenarioSpec::linear()
        .seed(spec.seed)
        .flows(flows)
        .high_priority(spec.high_priority.clone())
        .build()?;
    let fail_at = SimTime(1_000_000_000);
    sc.fail(GrayFailure {
        matcher: spec.matcher.clone(),
        drop_prob: spec.drop_prob,
        start: fail_at,
        end: SimTime::FAR_FUTURE,
    });
    sc.net.run_until(SimTime::ZERO + duration);
    let first = sc
        .net
        .kernel
        .records
        .detections
        .iter()
        .filter(|d| d.time >= fail_at)
        .min_by_key(|d| d.time);
    Ok(ClassDemo {
        class: spec.class,
        bug: spec.bug,
        detected: first.is_some(),
        detection_s: first.map(|d| d.time.duration_since(fail_at).as_secs_f64()),
        mechanism: first.map(|d| d.detector.label()),
    })
}

/// Run every Table 1 class demo, fanned out through [`Sweep`].
pub fn run_all(scale: &Scale, seed: u64) -> Result<Vec<ClassDemo>, ScenarioError> {
    let e = |i: u32| Prefix(0x0A_10_00 + i);
    let some_entries: Vec<Prefix> = (0..4).map(e).collect();
    // Uniform-loss classification needs most root counters (width 190)
    // to carry traffic: give the uniform/flap demos a wide entry set.
    let many_entries: Vec<Prefix> = (0..400).map(e).collect();

    let specs = vec![
        ClassSpec {
            class: "one/some prefixes, all packets",
            bug: "Cisco CSCti14290: specific IP prefixes blackholed",
            matcher: FailureMatcher::Entries(vec![e(1)]),
            drop_prob: 1.0,
            entries: some_entries.clone(),
            high_priority: vec![e(1)],
            seed,
        },
        ClassSpec {
            class: "one/some prefixes, some packets",
            bug: "Juniper PR1398407-style partial per-prefix drops",
            matcher: FailureMatcher::Entries(vec![e(2)]),
            drop_prob: 0.3,
            entries: some_entries.clone(),
            high_priority: vec![e(2)],
            seed: seed ^ 1,
        },
        ClassSpec {
            class: "all prefixes, packets of specific sizes",
            bug: "Cisco CSCtc33158: drops random sized packets",
            // Our 2 Mbps flows use 1500 B segments and 64 B ACKs; dropping
            // the 1400–1500 B range hits every entry's data packets.
            matcher: FailureMatcher::PacketSize {
                min: 1400,
                max: 1500,
            },
            drop_prob: 1.0,
            entries: some_entries.clone(),
            high_priority: vec![e(0)],
            seed: seed ^ 2,
        },
        ClassSpec {
            class: "all prefixes, packets with a specific IP ID",
            bug: "Cisco CSCuv31196: drops IP ID 0xE000",
            // Hosts cycle the 16-bit IP ID; ≈1/65536 of packets match, so
            // the demo detects only once a matching packet is actually
            // dropped — exactly as the paper qualifies.
            matcher: FailureMatcher::IpId(0xE000),
            drop_prob: 1.0,
            entries: some_entries.clone(),
            high_priority: vec![e(0)],
            seed: seed ^ 3,
        },
        ClassSpec {
            class: "packets from a specific line card",
            bug: "Cisco CSCea91692: drops traffic from one PSA/line card",
            matcher: FailureMatcher::SourceRange {
                lo: 0x01_00_00_00,
                hi: 0x01_FF_FF_FF, // the sender host's address range
            },
            drop_prob: 1.0,
            entries: some_entries.clone(),
            high_priority: vec![e(0)],
            seed: seed ^ 4,
        },
        ClassSpec {
            class: "all prefixes, random packets (CRC corruption)",
            bug: "Juniper PR1313977: CRC-errored drops on et- interfaces",
            matcher: FailureMatcher::Uniform,
            drop_prob: 0.3,
            entries: many_entries.clone(),
            high_priority: Vec::new(),
            seed: seed ^ 5,
        },
        ClassSpec {
            class: "interface flaps",
            bug: "Juniper PR1459698: silent drops upon interface flapping",
            matcher: FailureMatcher::Flap {
                on: SimDuration::from_millis(60),
                off: SimDuration::from_millis(240),
            },
            drop_prob: 1.0,
            entries: many_entries,
            high_priority: Vec::new(),
            seed: seed ^ 6,
        },
    ];

    let (demos, _report) = Sweep::new("table1 classes", specs)
        .seed(seed)
        .try_run(|spec, _ctx| run_class(spec, scale))?;
    Ok(demos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            reps: 1,
            duration: SimDuration::from_secs(8),
            multi_entries: 3,
            trace_scale: 0.005,
            trace_failures: 4,
            full: false,
        }
    }

    #[test]
    fn every_class_except_rare_ipid_is_detected() -> Result<(), ScenarioError> {
        let demos = run_all(&tiny(), 99)?;
        assert_eq!(demos.len(), 7);
        for d in &demos {
            if d.class.contains("IP ID") {
                // A single 16-bit IP ID value matches ~1/65536 packets —
                // typically zero drops in a short run. FANcY detects it
                // only once a matching packet is actually lost, exactly as
                // the paper qualifies ("as long as packets are dropped").
                continue;
            }
            assert!(d.detected, "class not detected: {} ({})", d.class, d.bug);
            let t = d.detection_s.unwrap();
            assert!(t < 5.0, "{}: detection took {t}s", d.class);
        }
        Ok(())
    }

    #[test]
    fn uniform_class_is_classified_uniform() -> Result<(), ScenarioError> {
        let demos = run_all(&tiny(), 7)?;
        let crc = demos
            .iter()
            .find(|d| d.class.contains("random packets"))
            .unwrap();
        assert_eq!(crc.mechanism, Some("uniform check"));
        Ok(())
    }
}
