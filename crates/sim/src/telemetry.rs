//! Kernel runtime telemetry.
//!
//! The kernel keeps a set of always-on counters that cost one integer
//! add (or max) on paths that already touch the counted object — cheap
//! enough to leave enabled in every run. They answer the operational
//! questions the experiment harness has: is this cell making progress,
//! how deep does its event queue get, how much wall-clock does one
//! simulated second cost, and how many packets did the run actually
//! push.
//!
//! Consumers either read [`crate::kernel::Kernel::telemetry`] directly
//! after a run or attach a [`TelemetrySink`] to the kernel; the network
//! flushes a [`TelemetrySnapshot`] to the sink every time a
//! [`crate::network::Network::run_until`] call returns.
//!
//! Telemetry is strictly observational: no counter feeds back into
//! simulation behavior, so enabling a sink can never change results —
//! the property the parallel sweep runner's bit-identical guarantee
//! rests on.

use std::time::Duration;

use crate::time::SimDuration;

/// Always-on kernel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryCounters {
    /// Events dispatched by the run loop (arrivals + timers).
    pub events_dispatched: u64,
    /// Packet-arrival events dispatched.
    pub packet_arrivals: u64,
    /// Timer events dispatched.
    pub timers_fired: u64,
    /// High-water mark of the pending-event queue length.
    pub queue_high_water: u64,
    /// High-water mark of pending *timer* events specifically. Timers
    /// occupy their own lane of the event queue, so this is just that
    /// lane's length: a protocol storm shows up here long before it
    /// dominates the overall queue depth.
    pub timer_high_water: u64,
    /// Packets that survived the wire (scheduled to arrive at the peer).
    pub packets_forwarded: u64,
    /// Data packets dropped by gray failures.
    pub packets_gray_dropped: u64,
    /// FANcY/baseline control messages dropped by gray failures.
    pub control_drops: u64,
    /// Packets refused by a traffic-manager queue (congestion).
    pub congestion_drops: u64,
    /// High-water mark of simultaneously in-flight packets in the
    /// kernel's packet pool (its peak memory footprint, in slots).
    pub pool_high_water: u64,
    /// Packet-pool slot reuses: check-ins into previously freed slots
    /// plus in-place forwards. High recycle counts against a low pool
    /// high-water mark mean the hot path runs allocation-free.
    pub pool_recycled: u64,
    /// Packets dropped by the chaos layer ([`crate::failure::FaultPlan`]).
    pub chaos_drops: u64,
    /// Wire duplicates injected by the chaos layer.
    pub chaos_dups: u64,
    /// Packets delayed past later traffic (reordered) by the chaos layer.
    pub chaos_reorders: u64,
    /// Chaos actions (drop/dup/reorder) that hit control messages —
    /// the §4.1 robustness scenario's primary dial.
    pub chaos_control_faults: u64,
    /// Times a switch port fell back to degraded port-level counting
    /// after exhausting protocol retries.
    pub degraded_entries: u64,
}

impl TelemetryCounters {
    /// Fold another counter set into this one (sums, and max for the
    /// queue high-water mark). Used by sweep runners to aggregate
    /// per-cell kernels into one report; the result is independent of
    /// fold order, so parallel aggregation stays deterministic.
    pub fn absorb(&mut self, other: &TelemetryCounters) {
        self.events_dispatched += other.events_dispatched;
        self.packet_arrivals += other.packet_arrivals;
        self.timers_fired += other.timers_fired;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.timer_high_water = self.timer_high_water.max(other.timer_high_water);
        self.packets_forwarded += other.packets_forwarded;
        self.packets_gray_dropped += other.packets_gray_dropped;
        self.control_drops += other.control_drops;
        self.congestion_drops += other.congestion_drops;
        self.pool_high_water = self.pool_high_water.max(other.pool_high_water);
        self.pool_recycled += other.pool_recycled;
        self.chaos_drops += other.chaos_drops;
        self.chaos_dups += other.chaos_dups;
        self.chaos_reorders += other.chaos_reorders;
        self.chaos_control_faults += other.chaos_control_faults;
        self.degraded_entries += other.degraded_entries;
    }

    /// Every counter as a stable `(name, value)` list, in declaration
    /// order. The names are a wire format: `fancy-bench`'s result cache
    /// persists counters through them, so renaming a field here without
    /// bumping the cache schema version invalidates nothing and decodes
    /// garbage — keep them in sync with [`TelemetryCounters::from_pairs`].
    pub fn to_pairs(&self) -> [(&'static str, u64); 16] {
        [
            ("events_dispatched", self.events_dispatched),
            ("packet_arrivals", self.packet_arrivals),
            ("timers_fired", self.timers_fired),
            ("queue_high_water", self.queue_high_water),
            ("timer_high_water", self.timer_high_water),
            ("packets_forwarded", self.packets_forwarded),
            ("packets_gray_dropped", self.packets_gray_dropped),
            ("control_drops", self.control_drops),
            ("congestion_drops", self.congestion_drops),
            ("pool_high_water", self.pool_high_water),
            ("pool_recycled", self.pool_recycled),
            ("chaos_drops", self.chaos_drops),
            ("chaos_dups", self.chaos_dups),
            ("chaos_reorders", self.chaos_reorders),
            ("chaos_control_faults", self.chaos_control_faults),
            ("degraded_entries", self.degraded_entries),
        ]
    }

    /// Rebuild counters from a name-keyed lookup (the inverse of
    /// [`TelemetryCounters::to_pairs`]). `None` as soon as any field is
    /// missing, so a decoder over a partial record fails whole rather
    /// than zero-filling silently.
    pub fn from_pairs(mut get: impl FnMut(&str) -> Option<u64>) -> Option<Self> {
        Some(TelemetryCounters {
            events_dispatched: get("events_dispatched")?,
            packet_arrivals: get("packet_arrivals")?,
            timers_fired: get("timers_fired")?,
            queue_high_water: get("queue_high_water")?,
            timer_high_water: get("timer_high_water")?,
            packets_forwarded: get("packets_forwarded")?,
            packets_gray_dropped: get("packets_gray_dropped")?,
            control_drops: get("control_drops")?,
            congestion_drops: get("congestion_drops")?,
            pool_high_water: get("pool_high_water")?,
            pool_recycled: get("pool_recycled")?,
            chaos_drops: get("chaos_drops")?,
            chaos_dups: get("chaos_dups")?,
            chaos_reorders: get("chaos_reorders")?,
            chaos_control_faults: get("chaos_control_faults")?,
            degraded_entries: get("degraded_entries")?,
        })
    }
}

/// The gauge each [`TelemetryCounters::to_pairs`] entry is scraped into,
/// in the same order: the pair's name behind `fancy_kernel_`, spelled out
/// so a scrape formats nothing.
pub const KERNEL_GAUGE_NAMES: [&str; 16] = [
    "fancy_kernel_events_dispatched",
    "fancy_kernel_packet_arrivals",
    "fancy_kernel_timers_fired",
    "fancy_kernel_queue_high_water",
    "fancy_kernel_timer_high_water",
    "fancy_kernel_packets_forwarded",
    "fancy_kernel_packets_gray_dropped",
    "fancy_kernel_control_drops",
    "fancy_kernel_congestion_drops",
    "fancy_kernel_pool_high_water",
    "fancy_kernel_pool_recycled",
    "fancy_kernel_chaos_drops",
    "fancy_kernel_chaos_dups",
    "fancy_kernel_chaos_reorders",
    "fancy_kernel_chaos_control_faults",
    "fancy_kernel_degraded_entries",
];

/// A point-in-time view of a kernel's telemetry, as delivered to sinks.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Cumulative counters since the kernel was created.
    pub counters: TelemetryCounters,
    /// Simulated time elapsed since the start of the run.
    pub sim_elapsed: SimDuration,
    /// Wall-clock time spent inside the run loop so far.
    pub wall_elapsed: Duration,
}

impl TelemetrySnapshot {
    /// Wall-clock seconds the kernel spends per simulated second
    /// (`< 1` means faster than real time). `None` before any
    /// simulated time has passed.
    pub fn wall_secs_per_sim_sec(&self) -> Option<f64> {
        let sim = self.sim_elapsed.as_secs_f64();
        (sim > 0.0).then(|| self.wall_elapsed.as_secs_f64() / sim)
    }

    /// Events dispatched per wall-clock second, the kernel's raw speed.
    pub fn events_per_wall_sec(&self) -> f64 {
        let wall = self.wall_elapsed.as_secs_f64();
        if wall > 0.0 {
            self.counters.events_dispatched as f64 / wall
        } else {
            0.0
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "sim {:.2}s in wall {:.2}s ({:.3} wall-s/sim-s) | {} events ({} arrivals, {} timers), \
             queue high-water {} (timers {}) | fwd {} gray {} ctrl {} cong {} | pool hw {} recycled {} \
             | chaos drop {} dup {} reord {} ctl {} degraded {}",
            self.sim_elapsed.as_secs_f64(),
            self.wall_elapsed.as_secs_f64(),
            self.wall_secs_per_sim_sec().unwrap_or(0.0),
            self.counters.events_dispatched,
            self.counters.packet_arrivals,
            self.counters.timers_fired,
            self.counters.queue_high_water,
            self.counters.timer_high_water,
            self.counters.packets_forwarded,
            self.counters.packets_gray_dropped,
            self.counters.control_drops,
            self.counters.congestion_drops,
            self.counters.pool_high_water,
            self.counters.pool_recycled,
            self.counters.chaos_drops,
            self.counters.chaos_dups,
            self.counters.chaos_reorders,
            self.counters.chaos_control_faults,
            self.counters.degraded_entries,
        )
    }
}

/// Where kernel telemetry is drained to.
///
/// Attached with [`crate::kernel::Kernel::set_telemetry_sink`]; the
/// network calls [`TelemetrySink::record`] once per completed
/// `run_until`, with cumulative counters. `Send` so scenarios carrying
/// a sink can move between sweep worker threads.
pub trait TelemetrySink: Send {
    /// Receive a snapshot. Called after every completed `run_until`.
    fn record(&mut self, snapshot: &TelemetrySnapshot);
}

/// Prints a labelled one-line summary to stderr per snapshot.
#[derive(Debug, Clone)]
pub struct PrintSink {
    /// Prefix for every line (e.g. the experiment cell name).
    pub label: String,
}

impl PrintSink {
    /// A sink printing with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        PrintSink {
            label: label.into(),
        }
    }
}

impl TelemetrySink for PrintSink {
    fn record(&mut self, snapshot: &TelemetrySnapshot) {
        eprintln!("[telemetry {}] {}", self.label, snapshot.summary());
    }
}

/// Keeps every snapshot in memory for later inspection (tests, reports).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// All recorded snapshots, in order.
    pub snapshots: Vec<TelemetrySnapshot>,
}

impl TelemetrySink for MemorySink {
    fn record(&mut self, snapshot: &TelemetrySnapshot) {
        self.snapshots.push(snapshot.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn kernel_gauge_names_follow_to_pairs() {
        let pairs = TelemetryCounters::default().to_pairs();
        for (gauge, (name, _)) in KERNEL_GAUGE_NAMES.iter().zip(pairs) {
            assert_eq!(*gauge, format!("fancy_kernel_{name}"));
        }
    }

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = TelemetryCounters {
            events_dispatched: 10,
            packet_arrivals: 6,
            timers_fired: 4,
            queue_high_water: 3,
            timer_high_water: 2,
            packets_forwarded: 5,
            packets_gray_dropped: 1,
            control_drops: 0,
            congestion_drops: 2,
            pool_high_water: 4,
            pool_recycled: 100,
            chaos_drops: 2,
            chaos_dups: 1,
            chaos_reorders: 0,
            chaos_control_faults: 1,
            degraded_entries: 0,
        };
        let b = TelemetryCounters {
            events_dispatched: 1,
            packet_arrivals: 1,
            timers_fired: 0,
            queue_high_water: 9,
            timer_high_water: 1,
            packets_forwarded: 1,
            packets_gray_dropped: 0,
            control_drops: 3,
            congestion_drops: 0,
            pool_high_water: 7,
            pool_recycled: 11,
            chaos_drops: 3,
            chaos_dups: 0,
            chaos_reorders: 4,
            chaos_control_faults: 2,
            degraded_entries: 1,
        };
        a.absorb(&b);
        assert_eq!(a.events_dispatched, 11);
        assert_eq!(a.queue_high_water, 9);
        assert_eq!(a.timer_high_water, 2);
        assert_eq!(a.control_drops, 3);
        assert_eq!(a.congestion_drops, 2);
        assert_eq!(a.pool_high_water, 7, "pool high-water maxes");
        assert_eq!(a.pool_recycled, 111, "pool recycles sum");
        assert_eq!(a.chaos_drops, 5);
        assert_eq!(a.chaos_dups, 1);
        assert_eq!(a.chaos_reorders, 4);
        assert_eq!(a.chaos_control_faults, 3);
        assert_eq!(a.degraded_entries, 1);
    }

    #[test]
    fn absorb_is_order_independent() {
        let sets = [
            TelemetryCounters {
                events_dispatched: 5,
                queue_high_water: 2,
                ..Default::default()
            },
            TelemetryCounters {
                events_dispatched: 7,
                queue_high_water: 8,
                ..Default::default()
            },
            TelemetryCounters {
                events_dispatched: 1,
                queue_high_water: 4,
                ..Default::default()
            },
        ];
        let mut fwd = TelemetryCounters::default();
        let mut rev = TelemetryCounters::default();
        for s in &sets {
            fwd.absorb(s);
        }
        for s in sets.iter().rev() {
            rev.absorb(s);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn snapshot_rates() {
        let snap = TelemetrySnapshot {
            counters: TelemetryCounters {
                events_dispatched: 1000,
                ..Default::default()
            },
            sim_elapsed: SimDuration::from_secs(4),
            wall_elapsed: Duration::from_secs(2),
        };
        assert_eq!(snap.wall_secs_per_sim_sec(), Some(0.5));
        assert_eq!(snap.events_per_wall_sec(), 500.0);
        assert!(snap.summary().contains("1000 events"));

        let empty = TelemetrySnapshot {
            counters: TelemetryCounters::default(),
            sim_elapsed: SimDuration::from_nanos(0),
            wall_elapsed: Duration::ZERO,
        };
        assert_eq!(empty.wall_secs_per_sim_sec(), None);
        assert_eq!(empty.events_per_wall_sec(), 0.0);
    }

    #[test]
    fn pairs_round_trip_every_field() {
        // Distinct values per field so a swapped name in either
        // direction can't cancel out.
        let pairs: Vec<(&'static str, u64)> = TelemetryCounters::default()
            .to_pairs()
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (*name, 1000 + i as u64))
            .collect();
        let back = TelemetryCounters::from_pairs(|name| {
            pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
        })
        .expect("all fields present");
        assert_eq!(back.to_pairs().to_vec(), pairs);

        // A single missing field fails the whole decode.
        for missing in 0..pairs.len() {
            let partial = TelemetryCounters::from_pairs(|name| {
                pairs
                    .iter()
                    .enumerate()
                    .find(|(i, (n, _))| *n == name && *i != missing)
                    .map(|(_, (_, v))| *v)
            });
            assert_eq!(partial, None, "field {} missing", pairs[missing].0);
        }
    }

    #[test]
    fn memory_sink_collects() {
        let mut sink = MemorySink::default();
        let snap = TelemetrySnapshot {
            counters: TelemetryCounters::default(),
            sim_elapsed: SimDuration::from_secs(1),
            wall_elapsed: Duration::from_millis(1),
        };
        sink.record(&snap);
        sink.record(&snap);
        assert_eq!(sink.snapshots.len(), 2);
    }
}
