//! Network assembly and the main simulation loop.

use crate::event::{Event, NodeId};
use crate::kernel::{Kernel, LinkId};
use crate::link::LinkConfig;
use crate::node::Node;
use crate::time::SimTime;

/// A complete simulated network: kernel plus nodes.
pub struct Network {
    /// The kernel (clock, queue, links, records).
    pub kernel: Kernel,
    nodes: Vec<Box<dyn Node>>,
    started: bool,
}

impl Network {
    /// Create an empty network with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Network {
            kernel: Kernel::new(seed),
            nodes: Vec::new(),
            started: false,
        }
    }

    /// Create an empty network acting as logical shard `shard` of a
    /// sharded build: packet uids are stamped in the shard's own lane so
    /// they stay globally unique when packets cross shard boundaries.
    /// Shard 0 is bit-identical to [`Network::new`].
    pub fn for_shard(seed: u64, shard: usize) -> Self {
        Network {
            kernel: Kernel::new_shard(seed, shard),
            nodes: Vec::new(),
            started: false,
        }
    }

    /// Attach a node, returning its ID.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Connect two nodes with a link. Ports are assigned in connection
    /// order on each node (first connection = port 0, and so on).
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(a < self.nodes.len() && b < self.nodes.len(), "unknown node");
        self.kernel.connect(a, b, cfg, self.nodes.len())
    }

    /// Borrow a node, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node is of a different type.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id]
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrow a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Connect local node `a` to a node owned by another shard (the
    /// egress half of a cross-shard link; see
    /// [`crate::link::RemoteEnd`]). The mirrored half lives in the peer
    /// shard's network.
    pub fn connect_remote(
        &mut self,
        a: NodeId,
        cfg: LinkConfig,
        remote: crate::link::RemoteEnd,
    ) -> LinkId {
        assert!(a < self.nodes.len(), "unknown node");
        self.kernel.connect_remote(a, cfg, remote, self.nodes.len())
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.nodes.len() {
            self.kernel.current = id;
            self.nodes[id].on_start(&mut self.kernel);
        }
    }

    /// Run every node's `on_start` now (idempotent). The sharded executor
    /// primes all shards before computing the first window bound, so
    /// start-time sends are visible to the global minimum.
    pub fn prime(&mut self) {
        self.start_if_needed();
    }

    /// The earliest pending event time, if any — after priming, this is
    /// the shard's contribution to the executor's window computation.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.kernel.peek_next_time()
    }

    /// Run the simulation until the event queue drains or the clock passes
    /// `until`. Events scheduled exactly at `until` still fire.
    ///
    /// Updates the kernel's [`crate::telemetry::TelemetryCounters`] as it
    /// dispatches.
    pub fn run_until(&mut self, until: SimTime) {
        let wall_start = std::time::Instant::now();
        self.start_if_needed();
        while let Some((t, event)) = self.kernel.queue.pop_until(until) {
            // High-water marks are defined pre-pop: reconstruct the depth
            // the queue had before this event was removed from it.
            let depth = self.kernel.queue.len() as u64 + 1;
            if depth > self.kernel.telemetry.queue_high_water {
                self.kernel.telemetry.queue_high_water = depth;
            }
            let timers = self.kernel.queue.pending_timers() as u64
                + u64::from(matches!(event, Event::Timer { .. }));
            if timers > self.kernel.telemetry.timer_high_water {
                self.kernel.telemetry.timer_high_water = timers;
            }
            self.kernel.set_now(t);
            self.kernel.telemetry.events_dispatched += 1;
            match event {
                Event::Arrival { node, port, pkt } => {
                    self.kernel.telemetry.packet_arrivals += 1;
                    self.kernel.current = node;
                    self.nodes[node].on_packet(&mut self.kernel, port, pkt);
                    // A node that consumed the packet (forwarded it, took
                    // it) left the ref stale; one that merely observed it
                    // leaves it live, and the slot is reclaimed here.
                    self.kernel.release_if_live(pkt);
                }
                Event::Timer { node, token } => {
                    self.kernel.telemetry.timers_fired += 1;
                    self.kernel.current = node;
                    self.nodes[node].on_timer(&mut self.kernel, token);
                }
            }
        }
        // Advance the clock to the horizon even if the queue drained early,
        // so post-run queries see a consistent end time.
        if self.kernel.now() < until && until != SimTime::FAR_FUTURE {
            self.kernel.set_now(until);
        }
        let pool_hw = self.kernel.pool.high_water() as u64;
        if pool_hw > self.kernel.telemetry.pool_high_water {
            self.kernel.telemetry.pool_high_water = pool_hw;
        }
        self.kernel.telemetry.pool_recycled = self.kernel.pool.recycled();
        #[cfg(debug_assertions)]
        self.kernel.queue.audit();
        self.kernel.wall_elapsed += wall_start.elapsed();
    }

    /// Run until the event queue is empty.
    pub fn run_to_end(&mut self) {
        self.run_until(SimTime::FAR_FUTURE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::GrayFailure;
    use crate::node::SinkNode;
    use crate::packet::{Packet, PacketBuilder, PacketKind};
    use crate::time::SimDuration;
    use fancy_net::Prefix;
    use std::any::Any;

    /// A node that sends `n` UDP packets to a destination as fast as the
    /// link accepts them.
    struct Blaster {
        port: usize,
        n: u64,
        dst: u32,
        size: u32,
        sent: u64,
        congestion_dropped: u64,
    }

    impl Blaster {
        fn pkt(&self, seq: u64) -> Packet {
            PacketBuilder::new(1, self.dst, self.size, PacketKind::Udp { flow: 1, seq }).build()
        }
    }

    impl Node for Blaster {
        fn on_start(&mut self, ctx: &mut Kernel) {
            for seq in 0..self.n {
                if ctx.send(self.port, self.pkt(seq)) {
                    self.sent += 1;
                } else {
                    self.congestion_dropped += 1;
                }
            }
        }
        fn on_packet(&mut self, _ctx: &mut Kernel, _port: usize, _pkt: crate::pool::PacketRef) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_net(n: u64, failure: Option<GrayFailure>) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(7);
        let tx = net.add_node(Box::new(Blaster {
            port: 0,
            n,
            dst: 0x0A000001,
            size: 1000,
            sent: 0,
            congestion_dropped: 0,
        }));
        let rx = net.add_node(Box::new(SinkNode::default()));
        let cfg =
            LinkConfig::new(8_000_000, SimDuration::from_millis(5)).with_tm_capacity(1_000_000);
        let link = net.connect(tx, rx, cfg);
        if let Some(f) = failure {
            net.kernel.add_failure(link, tx, f);
        }
        (net, tx, rx)
    }

    #[test]
    fn packets_flow_end_to_end() {
        let (mut net, _tx, rx) = two_node_net(10, None);
        net.run_to_end();
        let sink: &SinkNode = net.node(rx);
        assert_eq!(sink.packets, 10);
        assert_eq!(sink.bytes, 10_000);
        assert_eq!(net.kernel.link(0).tx_packets(0), 10);
    }

    #[test]
    fn delivery_respects_serialization_and_delay() {
        // 1000 B at 8 Mbps = 1 ms per packet; delay 5 ms. Last of 10 packets
        // finishes serializing at 10 ms, arrives at 15 ms.
        let (mut net, _tx, _rx) = two_node_net(10, None);
        net.run_to_end();
        assert_eq!(net.kernel.now(), SimTime(15_000_000));
    }

    #[test]
    fn blackhole_failure_drops_everything() {
        let f = GrayFailure::single_entry(Prefix::from_addr(0x0A000001), 1.0, SimTime::ZERO);
        let (mut net, _tx, rx) = two_node_net(10, Some(f));
        net.run_to_end();
        let sink: &SinkNode = net.node(rx);
        assert_eq!(sink.packets, 0);
        assert_eq!(net.kernel.records.total_gray_drops(), 10);
        let stats = net.kernel.records.gray_drops[&Prefix::from_addr(0x0A000001)];
        assert_eq!(stats.count, 10);
        assert_eq!(stats.bytes, 10_000);
    }

    #[test]
    fn failure_on_other_entry_is_harmless() {
        let f = GrayFailure::single_entry(Prefix::from_addr(0x0B000001), 1.0, SimTime::ZERO);
        let (mut net, _tx, rx) = two_node_net(10, Some(f));
        net.run_to_end();
        assert_eq!(net.node::<SinkNode>(rx).packets, 10);
        assert_eq!(net.kernel.records.total_gray_drops(), 0);
    }

    #[test]
    fn tm_overflow_counts_as_congestion_not_gray() {
        let mut net = Network::new(7);
        let tx = net.add_node(Box::new(Blaster {
            port: 0,
            n: 10,
            dst: 0x0A000001,
            size: 1000,
            sent: 0,
            congestion_dropped: 0,
        }));
        let rx = net.add_node(Box::new(SinkNode::default()));
        // Tiny TM queue: room for 3 packets of backlog.
        let cfg = LinkConfig::new(8_000_000, SimDuration::from_millis(5)).with_tm_capacity(3000);
        net.connect(tx, rx, cfg);
        net.run_to_end();
        let sink_packets = net.node::<SinkNode>(rx).packets;
        assert_eq!(sink_packets, 3);
        assert_eq!(net.kernel.records.congestion_drops, 7);
        assert_eq!(net.kernel.records.total_gray_drops(), 0);
        assert_eq!(net.node::<Blaster>(tx).congestion_dropped, 7);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let f = GrayFailure::single_entry(Prefix::from_addr(0x0A000001), 0.5, SimTime::ZERO);
            let (mut net, _tx, rx) = two_node_net(100, Some(f));
            net.run_to_end();
            (
                net.node::<SinkNode>(rx).packets,
                net.kernel.records.total_gray_drops(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let (mut net, _tx, rx) = two_node_net(10, None);
        // First arrival is at 1 ms (serialize) + 5 ms (delay) = 6 ms.
        net.run_until(SimTime(5_999_999));
        assert_eq!(net.node::<SinkNode>(rx).packets, 0);
        net.run_until(SimTime(6_000_000));
        assert_eq!(net.node::<SinkNode>(rx).packets, 1);
        net.run_to_end();
        assert_eq!(net.node::<SinkNode>(rx).packets, 10);
    }
}
