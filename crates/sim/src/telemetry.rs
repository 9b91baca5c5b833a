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
//! Consumers read [`crate::kernel::Kernel::telemetry`] directly, or take
//! a [`TelemetrySnapshot`] with
//! [`crate::kernel::Kernel::telemetry_snapshot`], after a run.
//!
//! Telemetry is strictly observational: no counter feeds back into
//! simulation behavior — the property the parallel sweep runner's
//! bit-identical guarantee rests on.

use std::time::Duration;

use crate::time::SimDuration;

/// Declares [`TelemetryCounters`] from one list of `field: sum | max`
/// entries: the struct, [`TelemetryCounters::absorb`] (how two cells'
/// values fold), the `to_pairs`/`from_pairs` wire names and
/// [`KERNEL_GAUGE_NAMES`] all come from it, so they cannot drift apart.
macro_rules! kernel_counters {
    (@fold sum, $mine:expr, $theirs:expr) => {
        $mine += $theirs
    };
    (@fold max, $mine:expr, $theirs:expr) => {
        $mine = $mine.max($theirs)
    };
    ($($(#[$doc:meta])* $field:ident: $fold:ident,)*) => {
        /// Always-on kernel counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TelemetryCounters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl TelemetryCounters {
            /// Fold another counter set into this one (sums, and max for
            /// the high-water marks). Used by sweep runners to aggregate
            /// per-cell kernels into one report; the result is independent
            /// of fold order, so parallel aggregation stays deterministic.
            pub fn absorb(&mut self, other: &TelemetryCounters) {
                $(kernel_counters!(@fold $fold, self.$field, other.$field);)*
            }

            /// Every counter as a stable `(name, value)` list, in
            /// declaration order. The names are a wire format:
            /// `fancy-bench`'s result cache persists counters through them,
            /// so renaming a field here without bumping the cache schema
            /// version invalidates nothing and decodes garbage.
            pub fn to_pairs(&self) -> [(&'static str, u64); 16] {
                [$((stringify!($field), self.$field),)*]
            }

            /// Rebuild counters from a name-keyed lookup (the inverse of
            /// [`TelemetryCounters::to_pairs`]). `None` as soon as any
            /// field is missing, so a decoder over a partial record fails
            /// whole rather than zero-filling silently.
            pub fn from_pairs(mut get: impl FnMut(&str) -> Option<u64>) -> Option<Self> {
                Some(TelemetryCounters {
                    $($field: get(stringify!($field))?,)*
                })
            }
        }

        /// The gauge each [`TelemetryCounters::to_pairs`] entry is scraped
        /// into, in the same order: the pair's name behind `fancy_kernel_`,
        /// spelled out at compile time so a scrape formats nothing.
        pub const KERNEL_GAUGE_NAMES: [&str; 16] =
            [$(concat!("fancy_kernel_", stringify!($field)),)*];
    };
}

kernel_counters! {
    /// Events dispatched by the run loop (arrivals + timers).
    events_dispatched: sum,
    /// Packet-arrival events dispatched.
    packet_arrivals: sum,
    /// Timer events dispatched.
    timers_fired: sum,
    /// High-water mark of the pending-event queue length.
    queue_high_water: max,
    /// High-water mark of pending *timer* events specifically. Timers
    /// occupy their own lane of the event queue, so this is just that
    /// lane's length: a protocol storm shows up here long before it
    /// dominates the overall queue depth.
    timer_high_water: max,
    /// Packets that survived the wire (scheduled to arrive at the peer).
    packets_forwarded: sum,
    /// Data packets dropped by gray failures.
    packets_gray_dropped: sum,
    /// FANcY/baseline control messages dropped by gray failures.
    control_drops: sum,
    /// Packets refused by a traffic-manager queue (congestion).
    congestion_drops: sum,
    /// High-water mark of simultaneously in-flight packets in the
    /// kernel's packet pool (its peak memory footprint, in slots).
    pool_high_water: max,
    /// Packet-pool slot reuses: check-ins into previously freed slots
    /// plus in-place forwards. High recycle counts against a low pool
    /// high-water mark mean the hot path runs allocation-free.
    pool_recycled: sum,
    /// Packets dropped by the chaos layer ([`crate::failure::FaultPlan`]).
    chaos_drops: sum,
    /// Wire duplicates injected by the chaos layer.
    chaos_dups: sum,
    /// Packets delayed past later traffic (reordered) by the chaos layer.
    chaos_reorders: sum,
    /// Chaos actions (drop/dup/reorder) that hit control messages —
    /// the §4.1 robustness scenario's primary dial.
    chaos_control_faults: sum,
    /// Times a switch port fell back to degraded port-level counting
    /// after exhausting protocol retries.
    degraded_entries: sum,
}

/// A point-in-time view of a kernel's telemetry.
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
}
