//! Kernel telemetry vs hand-counted ground truth.
//!
//! A three-node scenario (two senders, one sink) with a fully
//! deterministic schedule and an entry-scoped blackhole: every telemetry
//! counter can be predicted exactly from the schedule, and taking
//! snapshots between runs must never change simulation results
//! (telemetry is strictly observational).

use std::any::Any;

use fancy_net::Prefix;
use fancy_sim::prelude::*;
use fancy_sim::telemetry::TelemetrySnapshot;

/// Sends a fixed UDP schedule out of port 0.
struct Blaster {
    schedule: Vec<(SimTime, u32, u32)>, // (time, dst, size)
}

impl Node for Blaster {
    fn on_start(&mut self, ctx: &mut Kernel) {
        for (i, &(t, _, _)) in self.schedule.iter().enumerate() {
            ctx.schedule_timer(t.duration_since(SimTime::ZERO), i as u64);
        }
    }
    fn on_packet(&mut self, _ctx: &mut Kernel, _port: PortId, _pkt: PacketRef) {}
    fn on_timer(&mut self, ctx: &mut Kernel, token: u64) {
        let (_, dst, size) = self.schedule[token as usize];
        let pkt = PacketBuilder::new(
            1,
            dst,
            size,
            PacketKind::Udp {
                flow: 0,
                seq: token,
            },
        )
        .build();
        ctx.send(0, pkt);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn schedule(n: u64, dst: u32, spacing_us: u64) -> Vec<(SimTime, u32, u32)> {
    (0..n)
        .map(|i| (SimTime(i * spacing_us * 1_000), dst, 400))
        .collect()
}

/// Build the 3-node scenario: blasters `a` (victim traffic, blackholed)
/// and `b` (clean traffic) both feeding sink `c`.
fn three_node(n_a: u64, n_b: u64) -> (Network, NodeId) {
    let victim = Prefix(0x0A_11_22);
    let mut net = Network::new(7);
    let a = net.add_node(Box::new(Blaster {
        schedule: schedule(n_a, victim.host(1), 500),
    }));
    let b = net.add_node(Box::new(Blaster {
        schedule: schedule(n_b, 0x0B_00_00_01, 700),
    }));
    let c = net.add_node(Box::new(SinkNode::default()));
    let wide = LinkConfig::new(1_000_000_000, SimDuration::from_millis(1));
    let link_a = net.connect(a, c, wide);
    net.connect(b, c, wide);
    // Blackhole every one of a's packets from the start.
    net.kernel.add_failure(
        link_a,
        a,
        GrayFailure::single_entry(victim, 1.0, SimTime::ZERO),
    );
    (net, c)
}

#[test]
fn counters_match_hand_counted_events() {
    let (n_a, n_b) = (40u64, 25u64);
    let (mut net, c) = three_node(n_a, n_b);
    net.run_until(SimTime::ZERO + SimDuration::from_secs(1));

    let t = net.kernel.telemetry;
    // Every scheduled send is one timer event.
    assert_eq!(t.timers_fired, n_a + n_b);
    // All of a's packets die on the wire; all of b's arrive.
    assert_eq!(t.packets_gray_dropped, n_a);
    assert_eq!(t.packets_forwarded, n_b);
    assert_eq!(t.packet_arrivals, n_b);
    // The run loop dispatched exactly timers + arrivals.
    assert_eq!(t.events_dispatched, t.timers_fired + t.packet_arrivals);
    // Wide links, no control plane: nothing else dropped.
    assert_eq!(t.congestion_drops, 0);
    assert_eq!(t.control_drops, 0);
    // The queue held the full timer schedule at the start (all sends are
    // scheduled in on_start), and never more than every event dispatched.
    assert!(t.queue_high_water >= n_a + n_b);
    assert!(t.queue_high_water <= t.events_dispatched);

    // Pool accounting: every send checks one packet in (no multi-hop
    // forwarding here), and each check-in either grew the pool to a new
    // high-water mark or recycled a freed slot — the two must sum to the
    // total number of sends.
    assert_eq!(t.pool_high_water + t.pool_recycled, n_a + n_b);
    // Packets live at most one link-delay; with these schedules only a
    // handful of slots are ever needed for 65 packets.
    assert!(
        (1..=4).contains(&t.pool_high_water),
        "pool high-water {}",
        t.pool_high_water
    );
    assert_eq!(net.kernel.pool().live(), 0, "run drained: no packet leaked");

    // Telemetry agrees with the kernel's ground-truth records.
    assert_eq!(
        t.packets_gray_dropped,
        net.kernel.records.total_gray_drops()
    );
    assert_eq!(t.congestion_drops, net.kernel.records.congestion_drops);
    assert_eq!(net.node::<SinkNode>(c).packets, n_b);

    // The snapshot reflects the horizon we ran to.
    let snap = net.kernel.telemetry_snapshot();
    assert_eq!(snap.sim_elapsed, SimDuration::from_secs(1));
    assert_eq!(snap.counters, t);
}

#[test]
fn split_runs_snapshot_cumulatively_and_change_nothing() {
    let (mut plain, _) = three_node(40, 25);
    plain.run_until(SimTime::ZERO + SimDuration::from_secs(1));

    // Three run_until calls → three cumulative snapshots.
    let (mut split, _) = three_node(40, 25);
    let mut log: Vec<TelemetrySnapshot> = Vec::new();
    for horizon_ms in [200u64, 600, 1000] {
        split.run_until(SimTime::ZERO + SimDuration::from_millis(horizon_ms));
        log.push(split.kernel.telemetry_snapshot());
    }

    assert_eq!(log.len(), 3);
    // Snapshots are cumulative and the last one matches the kernel.
    for pair in log.windows(2) {
        assert!(pair[0].counters.events_dispatched <= pair[1].counters.events_dispatched);
        assert!(pair[0].sim_elapsed <= pair[1].sim_elapsed);
    }
    assert_eq!(log[2].counters, split.kernel.telemetry);
    assert_eq!(log[2].sim_elapsed, SimDuration::from_secs(1));

    // Splitting a run at snapshot points never changes simulation results.
    assert_eq!(split.kernel.telemetry, plain.kernel.telemetry);
    assert_eq!(
        split.kernel.records.total_gray_drops(),
        plain.kernel.records.total_gray_drops()
    );
}
