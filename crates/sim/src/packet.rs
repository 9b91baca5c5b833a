//! The simulated packet.
//!
//! Like ns-3, the simulator carries *structured* headers rather than byte
//! buffers — parsing costs would dominate event processing otherwise. The
//! structured forms mirror the wire formats in `fancy-net` one-to-one, and
//! round-trip tests over there guarantee the encodings exist.

use fancy_net::{ControlMessage, FancyTag, Prefix};

use crate::time::SimTime;

/// Identifier of a TCP/UDP flow within one experiment.
pub type FlowId = u64;

/// Transport-level payload of a simulated packet.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// A TCP data segment.
    TcpData {
        /// Flow this segment belongs to.
        flow: FlowId,
        /// Segment sequence number (in packets, not bytes — the flow model
        /// is packet-granular).
        seq: u64,
        /// True if this is a retransmission (Blink keys on this).
        retx: bool,
    },
    /// A (cumulative) TCP acknowledgement.
    TcpAck {
        /// Flow this ACK belongs to.
        flow: FlowId,
        /// Next expected sequence number.
        ack: u64,
    },
    /// An open-loop UDP datagram.
    Udp {
        /// Flow this datagram belongs to.
        flow: FlowId,
        /// Datagram sequence number.
        seq: u64,
    },
    /// A FANcY counting-protocol control message.
    FancyControl(ControlMessage),
    /// A NetSeer-style NACK reporting a gap of lost upstream sequence
    /// numbers on a link (used by the NetSeer baseline).
    NetSeerNack {
        /// First missing link-level sequence number.
        from_seq: u64,
        /// One past the last missing link-level sequence number.
        to_seq: u64,
    },
}

/// A simulated packet.
///
/// Header fields are exactly the ones that gray failures match on (Table 1
/// of the paper) plus what the detectors need.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Unique packet ID within an experiment (assigned by the kernel).
    pub uid: u64,
    /// Source IPv4 address.
    pub src: u32,
    /// Destination IPv4 address; `Prefix::from_addr(dst)` is the FANcY entry.
    pub dst: u32,
    /// Total packet size in bytes, including headers.
    pub size: u32,
    /// IPv4 identification field (some real gray failures match on it).
    pub ip_id: u16,
    /// FANcY tag, if the packet was tagged by an upstream FANcY switch.
    pub tag: Option<FancyTag>,
    /// Link-level sequence number stamped by the NetSeer baseline, if any.
    pub netseer_seq: Option<u64>,
    /// Transport payload.
    pub kind: PacketKind,
    /// Time the packet was first created (for latency accounting).
    pub created: SimTime,
}

impl Packet {
    /// The monitoring entry this packet belongs to (destination /24).
    #[inline]
    pub fn entry(&self) -> Prefix {
        Prefix::from_addr(self.dst)
    }

    /// The transport flow this packet belongs to, if any.
    #[inline]
    pub fn flow(&self) -> Option<FlowId> {
        match self.kind {
            PacketKind::TcpData { flow, .. }
            | PacketKind::TcpAck { flow, .. }
            | PacketKind::Udp { flow, .. } => Some(flow),
            PacketKind::FancyControl(_) | PacketKind::NetSeerNack { .. } => None,
        }
    }

    /// Is this a FANcY control message?
    #[inline]
    pub fn is_control(&self) -> bool {
        matches!(self.kind, PacketKind::FancyControl(_))
    }
}

/// A builder for packets, used by hosts and switches.
///
/// Keeps call sites short without a 8-argument constructor.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src: u32,
    dst: u32,
    size: u32,
    ip_id: u16,
    kind: PacketKind,
}

impl PacketBuilder {
    /// Start building a packet of `size` bytes from `src` to `dst`.
    pub fn new(src: u32, dst: u32, size: u32, kind: PacketKind) -> Self {
        PacketBuilder {
            src,
            dst,
            size,
            ip_id: 0,
            kind,
        }
    }

    /// Set the IPv4 identification field.
    pub fn ip_id(mut self, id: u16) -> Self {
        self.ip_id = id;
        self
    }

    /// Finish the packet. `uid` and `created` are stamped by the kernel when
    /// the packet enters the network; the builder leaves them zeroed.
    pub fn build(self) -> Packet {
        Packet {
            uid: 0,
            src: self.src,
            dst: self.dst,
            size: self.size,
            ip_id: self.ip_id,
            tag: None,
            netseer_seq: None,
            kind: self.kind,
            created: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_is_destination_slash24() {
        let p =
            PacketBuilder::new(1, 0x0A_01_02_03, 1500, PacketKind::Udp { flow: 1, seq: 0 }).build();
        assert_eq!(p.entry(), Prefix::from_addr(0x0A_01_02_FF));
    }

    #[test]
    fn builder_sets_fields() {
        let p = PacketBuilder::new(
            5,
            6,
            640,
            PacketKind::TcpData {
                flow: 9,
                seq: 3,
                retx: true,
            },
        )
        .ip_id(0xE000)
        .build();
        assert_eq!(p.src, 5);
        assert_eq!(p.dst, 6);
        assert_eq!(p.size, 640);
        assert_eq!(p.ip_id, 0xE000);
        assert!(!p.is_control());
    }
}
