//! Links and the traffic-manager queue model.
//!
//! Each link is full-duplex with independent per-direction state. The
//! upstream switch's traffic manager (TM) — where congestion losses happen
//! in real switches (§3 of the paper) — is modelled as a byte-bounded
//! backlog at the head of each link direction: a packet is *admitted* if the
//! serialization backlog has room, and dropped as congestion otherwise.
//! Gray failures are applied strictly after admission, when the packet is
//! put on the wire, mirroring FANcY's counter placement (after the upstream
//! TM, before the downstream one).

use crate::event::{NodeId, PortId};
use crate::failure::{FaultPlan, GrayFailure};
use crate::time::{transmission_time, SimDuration, SimTime};

/// Static link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Traffic-manager queue capacity in bytes (per direction). A packet is
    /// dropped as congestion if the backlog would exceed this.
    pub tm_capacity_bytes: u64,
}

impl LinkConfig {
    /// A convenience constructor with a queue sized for 50 ms of traffic —
    /// a common ISP buffer provisioning rule.
    pub fn new(bandwidth_bps: u64, delay: SimDuration) -> Self {
        LinkConfig {
            bandwidth_bps,
            delay,
            tm_capacity_bytes: (bandwidth_bps / 8) / 20, // 50 ms worth
        }
    }

    /// Override the TM queue capacity.
    pub fn with_tm_capacity(mut self, bytes: u64) -> Self {
        self.tm_capacity_bytes = bytes;
        self
    }
}

impl Default for LinkConfig {
    /// The paper's headline ISP setting: 10 ms inter-switch delay (§5) on a
    /// 100 Gbps link.
    fn default() -> Self {
        LinkConfig::new(100_000_000_000, SimDuration::from_millis(10))
    }
}

/// Per-direction dynamic state.
#[derive(Debug, Default)]
pub(crate) struct LinkDir {
    /// Time at which the serializer becomes free.
    pub next_free: SimTime,
    /// Gray failures installed on this direction.
    pub failures: Vec<GrayFailure>,
    /// Adversarial fault plans (chaos layer) installed on this direction.
    /// Evaluated after `failures`, each with its own seeded RNG.
    pub chaos: Vec<FaultPlan>,
    /// Packets put on the wire on this direction.
    pub tx_packets: u64,
    /// Bytes put on the wire on this direction.
    pub tx_bytes: u64,
    /// Largest backlog observed since the last
    /// [`Link::take_max_backlog`] call (queue-size monitoring, the
    /// paper's footnote 2 on distinguishing congestion in partial
    /// deployments).
    pub max_backlog: u64,
}

/// The far side of a cross-shard half-link: which shard owns the peer
/// node, and the peer's *shard-local* node/port address there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteEnd {
    /// Logical shard owning the receiving node.
    pub shard: usize,
    /// The receiving node's id *within that shard*.
    pub node: NodeId,
    /// The receiving port on that node (port numbering is mirrored from
    /// the global plan, so this equals the port the single-kernel build
    /// would have used).
    pub port: PortId,
}

/// A full-duplex link between two node ports.
///
/// In a sharded build a cut edge becomes two mirrored *half-links*, one
/// per shard. Each half-link models only its own egress direction
/// (`dirs[0]`): admission, serialization, failures and chaos all act at
/// the sender side — the paper's counter placement — and the surviving
/// packet is diverted into the kernel's outbox instead of the local event
/// queue. `ends[1]` then holds the *remote shard-local* address and must
/// never be resolved against local node ids (see [`Link::dir_from`]).
#[derive(Debug)]
pub struct Link {
    /// Static configuration.
    pub cfg: LinkConfig,
    /// The two attachment points: `ends[0]` and `ends[1]`.
    pub ends: [(NodeId, PortId); 2],
    /// `Some` when this is the egress half of a cross-shard link.
    pub(crate) remote: Option<RemoteEnd>,
    pub(crate) dirs: [LinkDir; 2],
}

/// Result of a traffic-manager admission check.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    pub(crate) link: usize,
    /// Direction index: packets flow from `ends[dir]` to `ends[1 - dir]`.
    pub(crate) dir: usize,
    /// Time the last bit leaves the serializer.
    pub departure_end: SimTime,
}

impl Link {
    pub(crate) fn new(cfg: LinkConfig, a: (NodeId, PortId), b: (NodeId, PortId)) -> Self {
        Link {
            cfg,
            ends: [a, b],
            remote: None,
            dirs: [LinkDir::default(), LinkDir::default()],
        }
    }

    /// The egress half of a cross-shard link: local sender `a`, remote
    /// receiver `remote`. `ends[1]` mirrors the remote address for
    /// symmetry with intra-shard links, but direction resolution must go
    /// through [`Link::dir_from`] because those ids live in another
    /// shard's namespace.
    pub(crate) fn new_remote(cfg: LinkConfig, a: (NodeId, PortId), remote: RemoteEnd) -> Self {
        Link {
            cfg,
            ends: [a, (remote.node, remote.port)],
            remote: Some(remote),
            dirs: [LinkDir::default(), LinkDir::default()],
        }
    }

    /// Resolve `from` (a node transmitting on this link) to a direction
    /// index. On a half-link only the local egress direction exists, and
    /// `ends[1]`'s remote-local id must not be matched against local ids.
    ///
    /// # Panics
    /// Panics when `from` is not a valid transmitter on this link.
    pub(crate) fn dir_from(&self, index: usize, from: NodeId) -> usize {
        if self.remote.is_some() {
            assert_eq!(
                self.ends[0].0, from,
                "node {from} is not the local end of cross-shard link {index}"
            );
            return 0;
        }
        if self.ends[0].0 == from {
            0
        } else if self.ends[1].0 == from {
            1
        } else {
            panic!("node {from} is not an endpoint of link {index}");
        }
    }

    /// Current backlog of direction `dir` in bytes, at time `now`.
    pub(crate) fn backlog_bytes(&self, dir: usize, now: SimTime) -> u64 {
        let backlog = self.dirs[dir].next_free.saturating_since(now);
        if backlog.as_nanos() == 0 {
            // Idle serializer — the common case on uncongested links;
            // skip the wide multiply/divide below.
            return 0;
        }
        // bytes = ns * bps / 8e9, in u128 to avoid overflow on fat links.
        ((backlog.as_nanos() as u128 * self.cfg.bandwidth_bps as u128) / 8_000_000_000) as u64
    }

    /// Try to admit `bytes` into direction `dir`'s TM queue at `now`.
    /// On success the serializer is reserved and the departure time returned.
    pub(crate) fn admit(
        &mut self,
        index: usize,
        dir: usize,
        bytes: u64,
        now: SimTime,
    ) -> Option<Admission> {
        let backlog = self.backlog_bytes(dir, now) + bytes;
        if backlog > self.cfg.tm_capacity_bytes {
            let d = &mut self.dirs[dir];
            d.max_backlog = d.max_backlog.max(self.cfg.tm_capacity_bytes);
            return None;
        }
        let d = &mut self.dirs[dir];
        d.max_backlog = d.max_backlog.max(backlog);
        let start = d.next_free.max(now);
        let end = start + transmission_time(bytes as usize, self.cfg.bandwidth_bps);
        d.next_free = end;
        Some(Admission {
            link: index,
            dir,
            departure_end: end,
        })
    }

    /// The receiving end of direction `dir`.
    pub(crate) fn peer(&self, dir: usize) -> (NodeId, PortId) {
        self.ends[1 - dir]
    }

    /// Packets transmitted in direction `dir` so far.
    pub fn tx_packets(&self, dir: usize) -> u64 {
        self.dirs[dir].tx_packets
    }

    /// Bytes transmitted in direction `dir` so far.
    pub fn tx_bytes(&self, dir: usize) -> u64 {
        self.dirs[dir].tx_bytes
    }

    /// The largest TM backlog (bytes) observed in direction `dir` since
    /// the last call, and reset the high-water mark.
    pub fn take_max_backlog(&mut self, dir: usize) -> u64 {
        std::mem::take(&mut self.dirs[dir].max_backlog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        // 8 Mbps link so that 1000 bytes take exactly 1 ms to serialize.
        let cfg = LinkConfig::new(8_000_000, SimDuration::from_millis(10)).with_tm_capacity(3000);
        Link::new(cfg, (0, 0), (1, 0))
    }

    #[test]
    fn admission_reserves_serializer() {
        let mut l = link();
        let a = l.admit(0, 0, 1000, SimTime::ZERO).unwrap();
        assert_eq!(a.departure_end, SimTime(1_000_000));
        // Second packet queues behind the first.
        let b = l.admit(0, 0, 1000, SimTime::ZERO).unwrap();
        assert_eq!(b.departure_end, SimTime(2_000_000));
    }

    #[test]
    fn congestion_drop_when_backlog_full() {
        let mut l = link();
        for _ in 0..3 {
            assert!(l.admit(0, 0, 1000, SimTime::ZERO).is_some());
        }
        // Backlog is now 3000 bytes = capacity; the next packet is dropped.
        assert!(l.admit(0, 0, 1000, SimTime::ZERO).is_none());
        // ... but succeeds once the serializer drains.
        assert!(l.admit(0, 0, 1000, SimTime(1_000_000)).is_some());
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link();
        for _ in 0..3 {
            assert!(l.admit(0, 0, 1000, SimTime::ZERO).is_some());
        }
        assert!(l.admit(0, 0, 1000, SimTime::ZERO).is_none());
        assert!(l.admit(0, 1, 1000, SimTime::ZERO).is_some());
    }

    #[test]
    fn peer_resolution() {
        let l = link();
        assert_eq!(l.peer(0), (1, 0));
        assert_eq!(l.peer(1), (0, 0));
    }

    #[test]
    fn default_is_isp_scale() {
        let cfg = LinkConfig::default();
        assert_eq!(cfg.bandwidth_bps, 100_000_000_000);
        assert_eq!(cfg.delay, SimDuration::from_millis(10));
    }
}
