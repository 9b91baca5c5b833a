//! In-sim metrics scraping: a deterministic "Prometheus server".
//!
//! A [`ScrapeNode`] is an ordinary [`Node`] that ticks a periodic timer
//! at a fixed *sim-time* cadence. Each tick syncs the kernel's always-on
//! [`TelemetryCounters`](crate::telemetry::TelemetryCounters) into
//! gauges, snapshots the attached [`MetricsHub`]'s registry into its
//! scrape series, and emits a [`TraceEvent::Scrape`] marker. Because the
//! cadence is simulated time — not wall clock — the resulting series is
//! a deterministic artifact: the same scenario produces byte-identical
//! scrape rows on any machine at any thread count, unlike a real
//! scraper whose sample points depend on scheduling jitter.
//!
//! The node is opt-in and additive: appending it to a network adds its
//! own timer events to the schedule (so telemetry totals shift by the
//! tick count), but its observations never feed back into simulation
//! state. Attaching a hub *without* a scraper changes nothing at all.

use std::any::Any;

use fancy_trace::TraceEvent;

use crate::event::{PortId, TimerToken};
use crate::kernel::Kernel;
use crate::node::Node;
use crate::pool::PacketRef;
use crate::telemetry::KERNEL_GAUGE_NAMES;
use crate::time::SimDuration;

/// Default scrape cadence: 100 ms of sim time.
pub const DEFAULT_SCRAPE_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// The periodic in-sim scraper. See the module docs.
#[derive(Debug)]
pub struct ScrapeNode {
    interval: SimDuration,
    /// Scrapes completed so far (the `seq` of the next `Scrape` event).
    pub scrapes: u64,
}

impl ScrapeNode {
    /// A scraper ticking every `interval` of sim time.
    ///
    /// # Panics
    /// Panics on a zero interval (it would busy-loop the event queue).
    pub fn new(interval: SimDuration) -> Self {
        assert!(interval > SimDuration::ZERO, "scrape interval must be > 0");
        ScrapeNode {
            interval,
            scrapes: 0,
        }
    }

    fn scrape(&mut self, ctx: &mut Kernel) {
        // Mirror the kernel's flat telemetry into gauges first, so the
        // snapshot carries event-loop/pool/queue state alongside the
        // protocol metrics. Gauges use plain `set`: within one run the
        // counters are monotone, and the cross-cell merge rule (max)
        // keeps high-water semantics.
        let pairs = ctx.telemetry.to_pairs();
        ctx.metrics(|r| {
            for (gauge, (_, v)) in KERNEL_GAUGE_NAMES.iter().zip(pairs) {
                r.gauge_set(gauge, Default::default(), v);
            }
        });
        let samples = match ctx.metrics_hub() {
            Some(hub) => hub.record_scrape(ctx.now().as_nanos()),
            None => 0,
        };
        let seq = self.scrapes;
        self.scrapes += 1;
        ctx.trace(|t| TraceEvent::Scrape {
            t,
            seq,
            samples: samples as u64,
        });
    }
}

impl Node for ScrapeNode {
    fn on_start(&mut self, ctx: &mut Kernel) {
        ctx.schedule_timer(self.interval, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Kernel, _port: PortId, _pkt: PacketRef) {
        // Scrapers have no ports; nothing can arrive. Ignore defensively.
    }

    fn on_timer(&mut self, ctx: &mut Kernel, _token: TimerToken) {
        self.scrape(ctx);
        ctx.schedule_timer(self.interval, 0);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::time::SimTime;
    use fancy_metrics::{Labels, MetricsHub};

    #[test]
    fn scrapes_at_the_configured_cadence() {
        let hub = MetricsHub::new();
        let mut net = Network::new(1);
        net.kernel.set_metrics(hub.clone());
        let scraper = net.add_node(Box::new(ScrapeNode::new(SimDuration::from_millis(10))));
        net.run_until(SimTime(100_000_000));
        // Ticks at 10, 20, …, 100 ms: the tick exactly at the horizon
        // fires (run_until is inclusive of events at the end instant).
        let series = hub.series();
        assert!(
            (9..=10).contains(&series.len()),
            "expected ~10 scrapes, got {}",
            series.len()
        );
        assert_eq!(series[0].0, 10_000_000);
        assert_eq!(series[1].0 - series[0].0, 10_000_000);
        let n: &ScrapeNode = net.node(scraper);
        assert_eq!(n.scrapes as usize, series.len());
        // Kernel telemetry arrived as gauges.
        assert!(series
            .last()
            .unwrap()
            .1
            .gauge("fancy_kernel_events_dispatched", &Labels::new())
            .is_some());
    }

    #[test]
    fn scraper_without_hub_is_harmless() {
        let mut net = Network::new(1);
        net.add_node(Box::new(ScrapeNode::new(SimDuration::from_millis(10))));
        net.run_until(SimTime(50_000_000));
        // No hub: ticks still fire deterministically, nothing recorded.
        assert!(net.kernel.telemetry.timers_fired >= 4);
    }

    #[test]
    fn series_is_deterministic_across_runs() {
        let run = || {
            let hub = MetricsHub::new();
            let mut net = Network::new(7);
            net.kernel.set_metrics(hub.clone());
            net.add_node(Box::new(ScrapeNode::new(SimDuration::from_millis(25))));
            net.run_until(SimTime(200_000_000));
            hub.series()
                .iter()
                .map(|(t, s)| format!("{t} {}", s.to_jsonl()))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(run(), run());
    }
}
