//! Packet-trace taps.
//!
//! A [`TraceTap`] is a transparent two-port node that records every packet
//! crossing it — the simulator's equivalent of `tcpdump` on a link. Used
//! for debugging protocols and by tests that assert on exact packet
//! sequences (e.g. "the tag is stripped after one hop").

use std::any::Any;

use fancy_net::FancyTag;

use crate::kernel::Kernel;
use crate::node::Node;
use crate::packet::PacketKind;
use crate::time::SimTime;

/// One captured packet (metadata only; the packet itself moves on).
#[derive(Debug, Clone)]
pub struct Capture {
    /// Capture time.
    pub time: SimTime,
    /// Ingress port at the tap (0 or 1 — direction of travel).
    pub port: usize,
    /// Packet UID.
    pub uid: u64,
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Size in bytes.
    pub size: u32,
    /// FANcY tag, if present when the packet crossed.
    pub tag: Option<FancyTag>,
    /// Short kind label ("data", "ack", "udp", "ctrl", "nack").
    pub kind: &'static str,
}

/// A transparent 2-port capture node (port 0 ↔ port 1).
#[derive(Debug, Default)]
pub struct TraceTap {
    /// Captured packets, in arrival order.
    pub captures: Vec<Capture>,
}

impl TraceTap {
    /// A tap that records every packet crossing it.
    pub fn new() -> Self {
        Self::default()
    }

    fn kind_label(kind: &PacketKind) -> &'static str {
        match kind {
            PacketKind::TcpData { .. } => "data",
            PacketKind::TcpAck { .. } => "ack",
            PacketKind::Udp { .. } => "udp",
            PacketKind::FancyControl(_) => "ctrl",
            PacketKind::NetSeerNack { .. } => "nack",
        }
    }

    /// Captures traveling port 0 → port 1.
    pub fn forward(&self) -> impl Iterator<Item = &Capture> {
        self.captures.iter().filter(|c| c.port == 0)
    }

    /// Captures traveling port 1 → port 0.
    pub fn reverse(&self) -> impl Iterator<Item = &Capture> {
        self.captures.iter().filter(|c| c.port == 1)
    }

    /// Render the capture like a terse tcpdump.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in &self.captures {
            let _ = writeln!(
                out,
                "{:>12.6}s [{}] {:08x} -> {:08x} {:>5}B {}{}",
                c.time.as_secs_f64(),
                if c.port == 0 { ">" } else { "<" },
                c.src,
                c.dst,
                c.size,
                c.kind,
                match c.tag {
                    Some(FancyTag::Dedicated { counter_id }) => format!(" tag=D{counter_id}"),
                    Some(FancyTag::Tree { slot, index }) => format!(" tag=T{slot}:{index}"),
                    None => String::new(),
                }
            );
        }
        out
    }
}

impl Node for TraceTap {
    fn on_packet(&mut self, ctx: &mut Kernel, port: usize, pkt: crate::pool::PacketRef) {
        let p = ctx.pkt(pkt);
        self.captures.push(Capture {
            time: ctx.now(),
            port,
            uid: p.uid,
            src: p.src,
            dst: p.dst,
            size: p.size,
            tag: p.tag,
            kind: Self::kind_label(&p.kind),
        });
        ctx.forward(1 - port, pkt);
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
    use crate::packet::PacketBuilder;
    use crate::time::SimDuration;

    #[test]
    fn tap_records_and_forwards() {
        let mut net = Network::new(1);
        let a = net.add_node(Box::new(SinkNode::default()));
        let tap = net.add_node(Box::new(TraceTap::new()));
        let b = net.add_node(Box::new(SinkNode::default()));
        let cfg = LinkConfig::new(1_000_000_000, SimDuration::from_micros(10));
        net.connect(tap, a, cfg); // tap port 0 ↔ a
        net.connect(tap, b, cfg); // tap port 1 ↔ b
        for seq in 0..5u64 {
            let pkt = PacketBuilder::new(0x11, 0x22, 100, PacketKind::Udp { flow: 1, seq }).build();
            net.kernel.inject(tap, 0, pkt, SimTime(seq * 1000));
        }
        net.run_to_end();
        assert_eq!(net.node::<SinkNode>(b).packets, 5, "forwarding intact");
        let t: &TraceTap = net.node(tap);
        assert_eq!(t.captures.len(), 5);
        assert_eq!(t.forward().count(), 5);
        assert_eq!(t.reverse().count(), 0);
        assert!(t.captures.windows(2).all(|w| w[0].time <= w[1].time));
        let dump = t.dump();
        assert!(dump.contains("udp"), "dump: {dump}");
        assert!(dump.contains("00000022"));
    }
}
