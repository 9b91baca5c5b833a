//! CAIDA-like trace synthesis (substitute for the traces of Appendix C).
//!
//! The paper evaluates FANcY system-wide on four anonymized CAIDA backbone
//! traces (Table 5). Those traces are access-restricted, so this module
//! synthesizes traffic with the *published* characteristics of each trace:
//! aggregate bit rate, packet rate, flow arrival rate, and ≈250 K /24
//! destination prefixes with Zipf-skewed popularity (the only properties
//! the evaluation depends on — FANcY sees per-entry packet streams, not
//! payload).
//!
//! A `scale` knob shrinks rate and prefix count proportionally so
//! experiments stay laptop-sized while preserving the skew shape; the
//! experiment harness documents the scale it ran at.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fancy_net::Prefix;
use fancy_sim::{SimDuration, SimTime};
use fancy_tcp::{FlowConfig, ScheduledFlow};

use crate::zipf::Zipf;

/// Published characteristics of one CAIDA trace (Table 5 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct CaidaSpec {
    /// Trace ID (1–4).
    pub id: u8,
    /// Trace name as listed in Table 5.
    pub name: &'static str,
    /// Aggregate bit rate.
    pub bit_rate_bps: u64,
    /// Aggregate packet rate.
    pub pkt_rate_pps: u64,
    /// Flow arrival rate.
    pub flow_rate_fps: u64,
    /// Distinct /24 destination prefixes (≈250 K on average, §5.2; the
    /// sensitivity analysis trace has ≈560 K, Appendix D).
    pub prefixes: usize,
    /// Zipf exponent of prefix popularity.
    pub zipf_s: f64,
}

impl CaidaSpec {
    /// Average packet size implied by the published rates, rounded to
    /// the nearest byte. (Truncating twice — integer `/8`, then `/pps`
    /// — biased the implied size low by up to a byte, which compounds
    /// over hundreds of thousands of flows per slice.)
    pub fn avg_pkt_bytes(&self) -> u32 {
        let den = 8 * self.pkt_rate_pps.max(1);
        ((self.bit_rate_bps + den / 2) / den) as u32
    }
}

/// The four traces of Table 5.
pub fn paper_traces() -> [CaidaSpec; 4] {
    [
        CaidaSpec {
            id: 1,
            name: "caida-equinix-chicago.dirB (2014-06-19)",
            bit_rate_bps: 6_250_000_000,
            pkt_rate_pps: 759_100,
            flow_rate_fps: 28_300,
            prefixes: 250_000,
            zipf_s: 1.1,
        },
        CaidaSpec {
            id: 2,
            name: "caida-equinix-nyc.dirA (2018-04-19)",
            bit_rate_bps: 3_860_000_000,
            pkt_rate_pps: 557_000,
            flow_rate_fps: 26_400,
            prefixes: 250_000,
            zipf_s: 1.1,
        },
        CaidaSpec {
            id: 3,
            name: "caida-equinix-nyc.dirB (2018-08-16)",
            bit_rate_bps: 5_790_000_000,
            pkt_rate_pps: 2_030_000,
            flow_rate_fps: 104_500,
            prefixes: 250_000,
            zipf_s: 1.1,
        },
        CaidaSpec {
            id: 4,
            name: "caida-equinix-nyc.dirB (2019-01-17)",
            bit_rate_bps: 4_720_000_000,
            pkt_rate_pps: 1_560_000,
            flow_rate_fps: 90_700,
            prefixes: 560_000, // the Appendix D sensitivity-analysis trace
            zipf_s: 1.1,
        },
    ]
}

/// A synthesized trace slice ready for replay.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    /// The spec this trace was built from.
    pub spec: CaidaSpec,
    /// The scale it was built at.
    pub scale: f64,
    /// The seed it was built from.
    pub seed: u64,
    /// The slice length it was built for.
    pub duration: SimDuration,
    /// Prefixes in popularity order (rank 0 = heaviest).
    pub prefixes_by_rank: Vec<Prefix>,
    /// Normalized traffic share per rank.
    pub weights: Vec<f64>,
    /// Flow schedule, shared by every scenario built from the trace.
    pub flows: Arc<[ScheduledFlow]>,
}

impl SyntheticTrace {
    /// The top `n` prefixes by traffic (dedicated-counter allocation uses
    /// the top 500, "mimicking an allocation based on historical data").
    pub fn top_prefixes(&self, n: usize) -> Vec<Prefix> {
        self.prefixes_by_rank.iter().take(n).copied().collect()
    }

    /// Traffic share of the prefix at `rank`.
    pub fn share_of_rank(&self, rank: usize) -> f64 {
        self.weights[rank]
    }

    /// Measured statistics of the generated schedule (Table 5 check).
    ///
    /// Only packets that land inside `[0, duration)` count: a flow
    /// starting near the end of the window has most of its ~1 s
    /// lifetime clipped, and crediting its full budget anyway
    /// overstated the measured rates by several percent.
    pub fn stats(&self, duration: SimDuration) -> TraceStats {
        let secs = duration.as_secs_f64();
        let mut total_bytes: u64 = 0;
        let mut total_packets: u64 = 0;
        for f in self.flows.iter() {
            let n = packets_in_window(f, duration);
            total_packets += n;
            total_bytes += n * u64::from(f.cfg.pkt_size);
        }
        TraceStats {
            bit_rate_bps: total_bytes as f64 * 8.0 / secs,
            pkt_rate_pps: total_packets as f64 / secs,
            flow_rate_fps: self.flows.len() as f64 / secs,
            distinct_prefixes: self.prefixes_by_rank.len(),
        }
    }
}

/// Aggregate statistics of a synthesized slice.
#[derive(Debug, Clone, Copy)]
pub struct TraceStats {
    /// Offered load in bits per second.
    pub bit_rate_bps: f64,
    /// Offered packets per second.
    pub pkt_rate_pps: f64,
    /// Flow arrivals per second.
    pub flow_rate_fps: f64,
    /// Prefix universe size.
    pub distinct_prefixes: usize,
}

/// Packets of `f` that land inside `[0, duration)` (paced from
/// `f.start` at `pace_interval()`), capped by the flow's own budget.
fn packets_in_window(f: &ScheduledFlow, duration: SimDuration) -> u64 {
    let window = duration.saturating_sub(SimDuration(f.start.0)).as_nanos();
    if window == 0 {
        return 0;
    }
    let pace = f.cfg.pace_interval().as_nanos();
    if pace == 0 {
        return f.cfg.total_packets;
    }
    f.cfg.total_packets.min(window.div_ceil(pace))
}

/// Clamp a flow start so that at least one packet lands inside the
/// slice: starts within one pacing interval of `duration` (or past it,
/// after `from_secs_f64` rounding) would schedule traffic entirely
/// outside the replayed window.
fn clamp_start(start: SimTime, pace: SimDuration, duration: SimDuration) -> SimTime {
    let max_start = duration.as_nanos() - pace.as_nanos().min(duration.as_nanos());
    SimTime(start.0.min(max_start))
}

/// Process-wide count of [`synthesize`] runs. The compiled-trace
/// pipeline exists so sweeps replay one `.events` file instead of
/// re-synthesizing per cell; tests assert on deltas of this counter to
/// prove synthesis ran exactly once (or not at all, on a warm trace
/// directory).
static SYNTHESIS_RUNS: AtomicU64 = AtomicU64::new(0);

/// How many times [`synthesize`] has run in this process.
pub fn synthesis_count() -> u64 {
    SYNTHESIS_RUNS.load(Ordering::Relaxed)
}

/// Synthesize a `duration`-long slice of `spec`, scaled by `scale`
/// (1.0 = published rates; 0.01 = 1 % of rates and prefixes).
pub fn synthesize(spec: CaidaSpec, duration: SimDuration, scale: f64, seed: u64) -> SyntheticTrace {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    SYNTHESIS_RUNS.fetch_add(1, Ordering::Relaxed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_prefixes = ((spec.prefixes as f64 * scale) as usize).max(100);
    let zipf = Zipf::new(n_prefixes, spec.zipf_s);

    // Deterministic but scattered prefix identities: rank r maps to a
    // pseudo-random /24 so hash trees don't see consecutive integers.
    let mut prefixes_by_rank: Vec<Prefix> = Vec::with_capacity(n_prefixes);
    let mut used = std::collections::HashSet::with_capacity(n_prefixes);
    while prefixes_by_rank.len() < n_prefixes {
        let p = Prefix(rng.gen_range(0x0001_0000..0x00DF_FFFF));
        if used.insert(p) {
            prefixes_by_rank.push(p);
        }
    }

    let secs = duration.as_secs_f64();
    let total_flows = ((spec.flow_rate_fps as f64 * scale * secs) as usize).max(n_prefixes / 10);
    let bit_rate = spec.bit_rate_bps as f64 * scale;
    let pkt_size = spec.avg_pkt_bytes().clamp(64, 1500);

    // Flows per prefix proportional to its weight; every flow carries the
    // same rate so that per-prefix traffic follows the Zipf share. Flow
    // durations are ≈1 s (the §5.1 convention), so `total_flows / secs`
    // flows are concurrently active.
    let concurrent = total_flows as f64 / secs;
    let per_flow_bps = (bit_rate / concurrent).max(1_000.0) as u64;

    let mut flows = Vec::with_capacity(total_flows);
    for (rank, &prefix) in prefixes_by_rank.iter().enumerate() {
        let expect = zipf.weight(rank) * total_flows as f64;
        // Round stochastically so light prefixes still appear sometimes.
        let mut n = expect.floor() as usize;
        if rng.gen::<f64>() < expect.fract() {
            n += 1;
        }
        for _ in 0..n {
            let raw = SimTime::ZERO + SimDuration::from_secs_f64(rng.gen::<f64>() * secs);
            let mut cfg = FlowConfig::for_rate(per_flow_bps, 1.0);
            cfg.pkt_size = pkt_size;
            // Rounded, not truncated: low-rate flows otherwise lose up
            // to a packet per second against the trace's byte budget.
            cfg.total_packets = FlowConfig::packets_for((per_flow_bps + 4) / 8, pkt_size);
            flows.push(ScheduledFlow {
                start: clamp_start(raw, cfg.pace_interval(), duration),
                dst: prefix.host(rng.gen_range(1..=254)),
                cfg,
            });
        }
    }
    flows.sort_by_key(|f| f.start);
    SyntheticTrace {
        spec,
        scale,
        seed,
        duration,
        prefixes_by_rank,
        weights: zipf.weights().to_vec(),
        flows: flows.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table_5() {
        let traces = paper_traces();
        assert_eq!(traces.len(), 4);
        assert_eq!(traces[0].bit_rate_bps, 6_250_000_000);
        assert_eq!(traces[2].pkt_rate_pps, 2_030_000);
        // Implied packet sizes are plausible backbone averages.
        for t in &traces {
            let s = t.avg_pkt_bytes();
            assert!((200..1500).contains(&s), "trace {}: {s} B", t.id);
        }
    }

    #[test]
    fn synthesized_rates_track_spec_at_scale() {
        let spec = paper_traces()[1];
        let dur = SimDuration::from_secs(10);
        let scale = 0.02;
        let trace = synthesize(spec, dur, scale, 1);
        let stats = trace.stats(dur);
        let target_bps = spec.bit_rate_bps as f64 * scale;
        let target_fps = spec.flow_rate_fps as f64 * scale;
        // With end-of-window spill clamped out of stats() the measured
        // rates sit well within 15% of Table 5; the old 30% slack only
        // existed to absorb the unclamped overstatement.
        assert!(
            (stats.bit_rate_bps - target_bps).abs() / target_bps < 0.15,
            "bps {} vs {target_bps}",
            stats.bit_rate_bps
        );
        assert!(
            (stats.flow_rate_fps - target_fps).abs() / target_fps < 0.15,
            "fps {} vs {target_fps}",
            stats.flow_rate_fps
        );
    }

    #[test]
    fn avg_pkt_bytes_rounds_to_nearest() {
        // Trace 3: 5.79 Gbps / 2.03 Mpps = 356.527 B/pkt exactly;
        // double truncation used to report 356.
        assert_eq!(paper_traces()[2].avg_pkt_bytes(), 357);
        // A synthetic spec where the fraction is just under half a
        // byte must still round down.
        let spec = CaidaSpec {
            id: 9,
            name: "synthetic",
            bit_rate_bps: 8 * 1000 * 100 + 8 * 49, // 100.49 B/pkt at 1000 pps
            pkt_rate_pps: 1000,
            flow_rate_fps: 1,
            prefixes: 100,
            zipf_s: 1.0,
        };
        assert_eq!(spec.avg_pkt_bytes(), 100);
        // Degenerate zero-pps spec must not divide by zero.
        let zero = CaidaSpec {
            pkt_rate_pps: 0,
            ..spec
        };
        assert_eq!(zero.avg_pkt_bytes(), (zero.bit_rate_bps + 4) as u32 / 8);
    }

    #[test]
    fn stats_clamps_flow_spill_to_the_window() {
        // One flow starting 0.5 s before the end of a 10 s window, with
        // a 1 s budget at 1 ms pacing: only ~500 of its 1000 packets
        // land inside the slice, and stats() must say so.
        let spec = paper_traces()[0];
        let cfg = FlowConfig {
            rate_bps: 12_000_000,
            total_packets: 1000,
            pkt_size: 1500,
            initial_rto: fancy_tcp::DEFAULT_RTO,
        };
        assert_eq!(cfg.pace_interval(), SimDuration::from_millis(1));
        let dur = SimDuration::from_secs(10);
        let trace = SyntheticTrace {
            spec,
            scale: 1.0,
            seed: 0,
            duration: dur,
            prefixes_by_rank: vec![Prefix(0x0001_0000)],
            weights: vec![1.0],
            flows: Arc::new([ScheduledFlow {
                start: SimTime::ZERO + SimDuration::from_millis(9_500),
                dst: Prefix(0x0001_0000).host(1),
                cfg,
            }]),
        };
        let stats = trace.stats(dur);
        let in_window = (stats.pkt_rate_pps * dur.as_secs_f64()).round() as u64;
        assert_eq!(in_window, 500, "spill past the window must not count");
        // A flow fully inside the window still counts its whole budget.
        let mut full = trace.clone();
        Arc::make_mut(&mut full.flows)[0].start = SimTime::ZERO;
        let stats = full.stats(dur);
        assert_eq!(
            (stats.pkt_rate_pps * dur.as_secs_f64()).round() as u64,
            1000
        );
    }

    #[test]
    fn every_flow_lands_a_packet_inside_the_slice() {
        // `from_secs_f64` rounding could previously schedule a flow at
        // start == duration (or within one pacing interval of it),
        // putting its entire lifetime outside the replayed slice.
        let dur = SimDuration::from_secs(5);
        for seed in 0..8 {
            let trace = synthesize(paper_traces()[1], dur, 0.01, seed);
            for f in trace.flows.iter() {
                assert!(
                    f.start.0 + f.cfg.pace_interval().0.min(dur.0) <= dur.0,
                    "flow at {} cannot land a packet inside {dur}",
                    f.start
                );
                assert!(packets_in_window(f, dur) >= 1);
            }
        }
        // The clamp helper itself, at the boundaries.
        let pace = SimDuration::from_millis(1);
        assert_eq!(clamp_start(SimTime(dur.0), pace, dur).0, dur.0 - pace.0);
        assert_eq!(clamp_start(SimTime(0), pace, dur), SimTime(0));
        // Pace longer than the slice: clamp to the epoch.
        assert_eq!(
            clamp_start(SimTime(dur.0), SimDuration::from_secs(9), dur),
            SimTime(0)
        );
    }

    #[test]
    fn synthesis_counter_increments_per_run() {
        let before = synthesis_count();
        synthesize(paper_traces()[0], SimDuration::from_secs(1), 0.002, 3);
        synthesize(paper_traces()[0], SimDuration::from_secs(1), 0.002, 4);
        assert!(synthesis_count() >= before + 2);
    }

    #[test]
    fn traffic_is_skewed_toward_top_ranks() {
        let spec = paper_traces()[0];
        let trace = synthesize(spec, SimDuration::from_secs(10), 0.01, 2);
        // Count flows landing in the top-10% prefixes.
        let top: std::collections::HashSet<Prefix> = trace
            .top_prefixes(trace.prefixes_by_rank.len() / 10)
            .into_iter()
            .collect();
        let in_top = trace
            .flows
            .iter()
            .filter(|f| top.contains(&Prefix::from_addr(f.dst)))
            .count();
        let share = in_top as f64 / trace.flows.len() as f64;
        assert!(share > 0.6, "top-decile share {share}");
    }

    #[test]
    fn determinism_and_distinct_prefixes() {
        let spec = paper_traces()[3];
        let a = synthesize(spec, SimDuration::from_secs(5), 0.005, 9);
        let b = synthesize(spec, SimDuration::from_secs(5), 0.005, 9);
        assert_eq!(a.flows.len(), b.flows.len());
        assert_eq!(a.prefixes_by_rank, b.prefixes_by_rank);
        let set: std::collections::HashSet<_> = a.prefixes_by_rank.iter().collect();
        assert_eq!(set.len(), a.prefixes_by_rank.len(), "duplicate prefixes");
    }

    #[test]
    fn flow_packet_counts_round_to_nearest() {
        // Every synthesized flow's packet count must agree with the
        // shared rounding helper on its own byte budget — truncating
        // here undercounted low-rate flows by up to a packet a second.
        let spec = paper_traces()[2];
        let trace = synthesize(spec, SimDuration::from_secs(5), 0.01, 4);
        assert!(!trace.flows.is_empty());
        for f in trace.flows.iter() {
            let bytes_per_sec = (f.cfg.rate_bps + 4) / 8;
            assert_eq!(
                f.cfg.total_packets,
                FlowConfig::packets_for(bytes_per_sec, f.cfg.pkt_size),
                "flow at {} bps disagrees with the shared rounding",
                f.cfg.rate_bps
            );
            // Rounding to nearest keeps the carried bytes within half
            // a packet of the budget (when the budget fits one packet
            // or more).
            let carried = f.cfg.total_packets * u64::from(f.cfg.pkt_size);
            if bytes_per_sec >= u64::from(f.cfg.pkt_size) {
                let err = carried.abs_diff(bytes_per_sec);
                assert!(
                    err * 2 <= u64::from(f.cfg.pkt_size),
                    "flow at {} bps carries {carried} B for a {bytes_per_sec} B budget",
                    f.cfg.rate_bps
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        synthesize(paper_traces()[0], SimDuration::from_secs(1), 0.0, 1);
    }
}
