//! Plain (non-FANcY) switches.
//!
//! [`Fib`] is the destination-based forwarding table shared by all switch
//! implementations in the workspace (plain, FANcY, baselines), and
//! [`PortTable`] the port-indexed array their per-port state lives in (the
//! data plane's register arrays, §4 — addressed, not hashed). [`PlainSwitch`]
//! forwards by FIB with no monitoring; [`Bridge`] transparently patches two
//! ports together — it plays the "link switch" role of the paper's Tofino
//! case study (§6.1), where failures are injected on an intermediate device.

use std::any::Any;

use fancy_net::{FnvMap, Prefix};

use crate::event::PortId;
use crate::kernel::Kernel;
use crate::node::Node;
use crate::pool::PacketRef;

/// A destination-prefix forwarding table.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    routes: FnvMap<Prefix, PortId>,
    default_port: Option<PortId>,
}

impl Fib {
    /// An empty FIB.
    pub fn new() -> Self {
        Fib::default()
    }

    /// Route `prefix` out of `port`.
    pub fn route(&mut self, prefix: Prefix, port: PortId) {
        self.routes.insert(prefix, port);
    }

    /// Route everything unmatched out of `port`.
    pub fn default_route(&mut self, port: PortId) {
        self.default_port = Some(port);
    }

    /// Look up the egress port for a destination address.
    pub fn lookup(&self, dst: u32) -> Option<PortId> {
        self.routes
            .get(&Prefix::from_addr(dst))
            .copied()
            .or(self.default_port)
    }

    /// Number of explicit routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if the FIB holds no explicit route.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterate over explicit routes.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &PortId)> {
        self.routes.iter()
    }
}

/// Per-port state addressed by port number: a `Vec` with holes. Ports are
/// dense small integers (`0..port_count`), so a lookup is an index and a
/// bounds check; a port past the end, or one never inserted, is `None`.
#[derive(Debug, Clone)]
pub struct PortTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for PortTable<T> {
    fn default() -> Self {
        PortTable { slots: Vec::new() }
    }
}

impl<T> PortTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The state of `port`, if any was inserted.
    #[inline]
    pub fn get(&self, port: PortId) -> Option<&T> {
        self.slots.get(port)?.as_ref()
    }

    /// Mutable access to the state of `port`, if any was inserted.
    #[inline]
    pub fn get_mut(&mut self, port: PortId) -> Option<&mut T> {
        self.slots.get_mut(port)?.as_mut()
    }

    /// Set the state of `port`, growing the table to reach it; returns the
    /// state it replaces.
    pub fn insert(&mut self, port: PortId, value: T) -> Option<T> {
        self.slot(port).replace(value)
    }

    /// The state of `port`, created by `make` on first use.
    pub fn get_or_insert_with(&mut self, port: PortId, make: impl FnOnce() -> T) -> &mut T {
        self.slot(port).get_or_insert_with(make)
    }

    fn slot(&mut self, port: PortId) -> &mut Option<T> {
        if self.slots.len() <= port {
            self.slots.resize_with(port + 1, || None);
        }
        &mut self.slots[port]
    }

    /// The occupied ports in ascending order, with their state.
    pub fn iter(&self) -> impl Iterator<Item = (PortId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(port, s)| Some((port, s.as_ref()?)))
    }
}

/// A switch that forwards by FIB and does nothing else.
#[derive(Debug, Default)]
pub struct PlainSwitch {
    /// Forwarding table.
    pub fib: Fib,
    /// Packets that matched no route (dropped).
    pub no_route_drops: u64,
}

impl PlainSwitch {
    /// Build a switch around a FIB.
    pub fn new(fib: Fib) -> Self {
        PlainSwitch {
            fib,
            no_route_drops: 0,
        }
    }
}

impl Node for PlainSwitch {
    fn on_packet(&mut self, ctx: &mut Kernel, _port: PortId, pkt: PacketRef) {
        match self.fib.lookup(ctx.pkt(pkt).dst) {
            Some(out) => {
                ctx.forward(out, pkt);
            }
            None => self.no_route_drops += 1,
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A transparent two-port (or N-port pairwise) patch panel: whatever enters
/// port `i` leaves on `pairs[i]`. Gray failures are installed on its links
/// to emulate a faulty intermediate device, as in the paper's Tofino case
/// study.
#[derive(Debug)]
pub struct Bridge {
    /// `pairs[i]` is the egress port for traffic entering port `i`.
    pub pairs: Vec<PortId>,
}

impl Bridge {
    /// A simple two-port bridge (0 ↔ 1).
    pub fn two_port() -> Self {
        Bridge { pairs: vec![1, 0] }
    }

    /// A bridge with explicit port pairing.
    pub fn with_pairs(pairs: Vec<PortId>) -> Self {
        Bridge { pairs }
    }
}

impl Node for Bridge {
    fn on_packet(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
        let out = self.pairs[port];
        ctx.forward(out, pkt);
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
    use crate::link::LinkConfig;
    use crate::network::Network;
    use crate::node::SinkNode;
    use crate::packet::{PacketBuilder, PacketKind};
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn fib_lookup_prefers_explicit_route() {
        let mut fib = Fib::new();
        fib.route(Prefix::from_addr(0x0A000000), 3);
        fib.default_route(9);
        assert_eq!(fib.lookup(0x0A0000FF), Some(3));
        assert_eq!(fib.lookup(0x0B000001), Some(9));
        assert_eq!(fib.len(), 1);
        assert!(!fib.is_empty());
    }

    #[test]
    fn port_table_is_sparse_and_bounds_checked() {
        let mut t: PortTable<&str> = PortTable::new();
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(usize::MAX), None);
        // Inserting past the end grows the table; the holes stay empty.
        assert_eq!(t.insert(5, "five"), None);
        assert_eq!(t.insert(2, "two"), None);
        assert_eq!(t.get(5), Some(&"five"));
        assert_eq!(t.get(2), Some(&"two"));
        assert!([0, 1, 3, 4, 6, 1 << 40].iter().all(|&p| t.get(p).is_none()));
        assert_eq!(t.get_mut(6), None);
        assert_eq!(t.insert(5, "FIVE"), Some("five"));
        *t.get_mut(2).unwrap() = "TWO";
        assert_eq!(*t.get_or_insert_with(2, || "unused"), "TWO");
        assert_eq!(*t.get_or_insert_with(9, || "nine"), "nine");
        let seen: Vec<_> = t.iter().collect();
        assert_eq!(seen, vec![(2, &"TWO"), (5, &"FIVE"), (9, &"nine")]);
    }

    #[test]
    fn fib_without_default_returns_none() {
        let fib = Fib::new();
        assert_eq!(fib.lookup(1), None);
    }

    proptest::proptest! {
        /// `Fib::lookup` against the plainest model there is: an ordered
        /// map of the routes, last insert wins, default as fallback.
        /// Prefixes are drawn from a small universe (clustered low, and
        /// spread over all 24 bits) so re-routes and misses both occur.
        #[test]
        fn fib_lookup_agrees_with_a_btreemap(
            routes in proptest::collection::vec(0u64..u64::MAX, 0..200),
            default in 0usize..4,
        ) {
            let mut fib = Fib::new();
            let mut model = std::collections::BTreeMap::new();
            let default = default.checked_sub(1); // 0 = no default route
            if let Some(port) = default {
                fib.default_route(port);
            }
            let prefix_of = |r: u64| {
                let p = (r >> 8) as u32;
                Prefix(if r & 1 == 0 { p % 64 } else { p & 0x00ff_ffff })
            };
            for &r in &routes {
                let port = (r & 0xff) as PortId;
                fib.route(prefix_of(r), port);
                model.insert(prefix_of(r), port);
            }
            proptest::prop_assert_eq!(fib.len(), model.len());
            let installed = routes.iter().map(|&r| prefix_of(r));
            for prefix in installed.chain((0..128).map(Prefix)) {
                for host in [0u8, 1, 255] {
                    let want = model.get(&prefix).copied().or(default);
                    proptest::prop_assert_eq!(fib.lookup(prefix.host(host)), want);
                }
            }
        }
    }

    #[test]
    fn plain_switch_forwards_by_fib() {
        let mut net = Network::new(1);
        let mut fib = Fib::new();
        fib.default_route(1); // port 1 = second connection
        let sw = net.add_node(Box::new(PlainSwitch::new(fib)));
        let a = net.add_node(Box::new(SinkNode::default()));
        let b = net.add_node(Box::new(SinkNode::default()));
        let cfg = LinkConfig::new(1_000_000_000, SimDuration::from_micros(10));
        net.connect(sw, a, cfg); // switch port 0
        net.connect(sw, b, cfg); // switch port 1
        let pkt = PacketBuilder::new(1, 2, 500, PacketKind::Udp { flow: 0, seq: 0 }).build();
        net.kernel.inject(sw, 0, pkt, SimTime::ZERO);
        net.run_to_end();
        assert_eq!(net.node::<SinkNode>(a).packets, 0);
        assert_eq!(net.node::<SinkNode>(b).packets, 1);
    }

    #[test]
    fn switch_drops_unroutable() {
        let mut net = Network::new(1);
        let sw = net.add_node(Box::new(PlainSwitch::new(Fib::new())));
        let a = net.add_node(Box::new(SinkNode::default()));
        let cfg = LinkConfig::new(1_000_000_000, SimDuration::from_micros(10));
        net.connect(sw, a, cfg);
        let pkt = PacketBuilder::new(1, 2, 500, PacketKind::Udp { flow: 0, seq: 0 }).build();
        net.kernel.inject(sw, 0, pkt, SimTime::ZERO);
        net.run_to_end();
        assert_eq!(net.node::<PlainSwitch>(sw).no_route_drops, 1);
    }

    #[test]
    fn bridge_patches_ports() {
        let mut net = Network::new(1);
        let br = net.add_node(Box::new(Bridge::two_port()));
        let a = net.add_node(Box::new(SinkNode::default()));
        let b = net.add_node(Box::new(SinkNode::default()));
        let cfg = LinkConfig::new(1_000_000_000, SimDuration::from_micros(10));
        net.connect(br, a, cfg); // bridge port 0 ↔ a
        net.connect(br, b, cfg); // bridge port 1 ↔ b
        let pkt = PacketBuilder::new(1, 2, 500, PacketKind::Udp { flow: 0, seq: 0 }).build();
        net.kernel.inject(br, 0, pkt, SimTime::ZERO); // enters on port 0 → leaves port 1 → b
        net.run_to_end();
        assert_eq!(net.node::<SinkNode>(b).packets, 1);
        assert_eq!(net.node::<SinkNode>(a).packets, 0);
    }
}
