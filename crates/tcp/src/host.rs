//! Host nodes: TCP senders, the universal receiver, and a UDP source.
//!
//! A [`SenderHost`] runs many concurrent [`TcpFlow`]s with application-rate
//! pacing; a [`ReceiverHost`] stands in for *all* destination hosts (it
//! accepts any destination address, ACKs every data segment, and keeps
//! per-entry byte counts and optional throughput time series). This keeps
//! node counts small even when experiments span hundreds of thousands of
//! destination prefixes.
//!
//! # What the sender feeds the scheduler
//!
//! A [`SenderHost`] keeps at most **one RTO timer per flow and one start
//! timer per host** in the kernel's queue. A flow's RTO deadline moves
//! *later* on almost every ACK; instead of pushing a fresh 200 ms timer
//! each time (and leaving the old one to fire as a no-op), the flow's
//! slot remembers when its one pending timer fires, and the timer
//! re-arms itself at the flow's current deadline when it does. A new
//! timer is pushed only when none is pending or the deadline moved
//! *earlier* than the pending one (the RTO reset by an ACK after a
//! backoff); the superseded timer is left to fire as a no-op. The
//! invariant — whenever `rto_deadline == Some(d)`, a timer firing at or
//! before `d` is pending — means an expiry still happens at exactly `d`,
//! so [`TcpFlow`] sees the same calls at the same times.
//!
//! Flow starts are one chained timer walking the flows in `(start, id)`
//! order: when it fires the host starts every flow that is due and arms
//! the timer for the next. The host checks for due starts ahead of
//! *every* event it handles, so a flow due at `t` starts before anything
//! else the host does at `t` — the order the flows had when each owned a
//! timer pushed at `on_start`, ahead of everything else in the queue. The
//! start timer therefore only wakes the host; its token carries nothing a
//! replayed or forged copy could use. See DESIGN.md, "What the scheduler
//! is fed".

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::Arc;

use fancy_net::{FnvMap, Prefix};
use fancy_sim::metrics::Labels;
use fancy_sim::{
    FlowId, Kernel, Node, PacketBuilder, PacketKind, PacketRef, PortId, SimDuration, SimTime,
    TimerToken, TraceEvent, TraceKind,
};

use crate::flow::{FlowAction, FlowConfig, TcpFlow};

/// Size of a pure ACK on the wire.
pub const ACK_SIZE: u32 = 64;

const KIND_START: u64 = 0;
const KIND_PACE: u64 = 1;
const KIND_RTO: u64 = 2;
const KIND_UDP: u64 = 3;

fn token(kind: u64, flow: FlowId) -> TimerToken {
    (flow << 2) | kind
}

/// Congestion windows are floats internally; trace events carry them in
/// milli-packets so the JSONL schema stays integer-only (exact round trips).
fn mpkt(cwnd: f64) -> u64 {
    (cwnd * 1000.0) as u64
}

fn split_token(t: TimerToken) -> (u64, FlowId) {
    (t & 3, t >> 2)
}

/// A flow waiting to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFlow {
    /// Absolute start time.
    pub start: SimTime,
    /// Destination address (its /24 is the monitored entry).
    pub dst: u32,
    /// Flow parameters.
    pub cfg: FlowConfig,
}

/// Aggregate sender-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Data packets transmitted (including retransmissions).
    pub data_packets: u64,
    /// Retransmitted packets.
    pub retransmissions: u64,
    /// Flows that delivered all their data.
    pub completed_flows: u64,
    /// Congestion (TM) drops observed at the host's own uplink.
    pub local_congestion_drops: u64,
}

/// Everything the host keeps per live flow.
struct FlowSlot {
    flow: TcpFlow,
    dst: u32,
    /// Is the flow's pace timer armed?
    pacing: bool,
    /// `flow.cfg.pace_interval()`, computed once.
    pace_interval: SimDuration,
    /// Fire time of the flow's one tracked RTO timer, if it has not fired.
    rto_timer: Option<SimTime>,
}

/// `slot_of` entry of a flow that holds no slot.
const NO_SLOT: u32 = u32::MAX;

/// A host that originates TCP flows on port 0.
///
/// Per-flow TCP state is held only while a flow is live: a flow takes a
/// slot when it starts and gives it back when its last packet is
/// acknowledged, so the slots grow with the most flows ever running at
/// once, not with the schedule. ACKs and timers that arrive for a flow
/// holding no slot — not started yet, or completed — are ignored.
pub struct SenderHost {
    /// This host's source address.
    pub addr: u32,
    /// The flow schedule, shared with whoever built it; a flow's id is
    /// its index here. Read at `on_start`.
    pub scheduled: Arc<[ScheduledFlow]>,
    /// Live flows' state; a completed flow's slot goes to `free`.
    slots: Vec<FlowSlot>,
    /// Indices into `slots` whose flow has completed.
    free: Vec<u32>,
    /// Parallel to `scheduled`: each flow's index into `slots`, `NO_SLOT`
    /// before it starts and after it completes. Filled at `on_start`.
    slot_of: Vec<u32>,
    /// Flows started so far.
    started: usize,
    /// Flows not yet started, latest `(start, id)` first: the next one to
    /// start is on top. Filled at `on_start`.
    pending_starts: Vec<u32>,
    /// When the flow on top of `pending_starts` starts, and the host's one
    /// start timer fires (`FAR_FUTURE` once every flow has started).
    next_start_at: SimTime,
    ip_id: u16,
    /// Aggregate statistics.
    pub stats: SenderStats,
}

impl SenderHost {
    /// A sender with a list of scheduled flows.
    pub fn new(addr: u32, scheduled: impl Into<Arc<[ScheduledFlow]>>) -> Self {
        SenderHost {
            addr,
            scheduled: scheduled.into(),
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
            started: 0,
            pending_starts: Vec::new(),
            next_start_at: SimTime::FAR_FUTURE,
            ip_id: 0,
            stats: SenderStats::default(),
        }
    }

    /// The slot of a live flow. Flow ids arrive in ACKs and timer
    /// tokens: one that is not running, or is past the schedule
    /// (`UdpSource` stamps `u64::MAX`), has no slot.
    fn slot(&mut self, flow: FlowId) -> Option<&mut FlowSlot> {
        let at = *self.slot_of.get(usize::try_from(flow).ok()?)?;
        self.slots.get_mut(at as usize)
    }

    /// Give a completed flow's slot back for the next flow to start.
    fn release(&mut self, flow: FlowId) {
        let at = std::mem::replace(&mut self.slot_of[flow as usize], NO_SLOT);
        // The flow's state is about to be overwritten: nothing of it may
        // be left for a later ACK or timer to act on.
        let f = &self.slots[at as usize].flow;
        debug_assert_eq!(
            (f.send_una, f.inflight(), f.rto_deadline),
            (f.cfg.total_packets, 0, None),
            "flow {flow} completed with data unacknowledged or a timer armed"
        );
        self.free.push(at);
    }

    /// Give `flow` a slot: a free one if any, else a new one. The slots
    /// grow by doubling but never past the schedule's length, so a host
    /// with two flows keeps two slots.
    fn occupy(&mut self, flow: u32, slot: FlowSlot) {
        let at = match self.free.pop() {
            Some(at) => {
                self.slots[at as usize] = slot;
                at
            }
            None => {
                let len = self.slots.len();
                if len == self.slots.capacity() {
                    let want = (2 * len).max(4).min(self.scheduled.len());
                    self.slots.reserve_exact(want.saturating_sub(len));
                }
                self.slots.push(slot);
                len as u32
            }
        };
        self.slot_of[flow as usize] = at;
    }

    /// Put one segment of `flow` on the wire; `(dst, size)` is copied out
    /// of the flow's slot by the caller, which is done borrowing it.
    fn transmit(
        &mut self,
        ctx: &mut Kernel,
        (dst, size): (u32, u32),
        flow: FlowId,
        seq: u64,
        retx: bool,
    ) {
        self.ip_id = self.ip_id.wrapping_add(1);
        let pkt = PacketBuilder::new(
            self.addr,
            dst,
            size,
            PacketKind::TcpData { flow, seq, retx },
        )
        .ip_id(self.ip_id)
        .build();
        self.stats.data_packets += 1;
        if retx {
            self.stats.retransmissions += 1;
        }
        if !ctx.send(0, pkt) {
            self.stats.local_congestion_drops += 1;
        }
    }

    /// Send one paced packet if the window allows, and keep pacing armed
    /// while there is new data to send.
    fn pace(&mut self, ctx: &mut Kernel, flow: FlowId) {
        let Some(s) = self.slot(flow) else {
            return;
        };
        // Idle unless a packet goes out with more behind it: a finished
        // flow stops, a window-limited one resumes from the ACK path.
        s.pacing = false;
        if !s.flow.can_send_new() {
            return;
        }
        let FlowAction::Send { seq, retx } = s.flow.send_new(ctx.now()) else {
            return;
        };
        let more = s.flow.next_seq < s.flow.cfg.total_packets;
        s.pacing = more;
        let (wire, interval) = ((s.dst, s.flow.cfg.pkt_size), s.pace_interval);
        self.transmit(ctx, wire, flow, seq, retx);
        self.arm_rto(ctx, flow);
        if more {
            ctx.schedule_timer(interval, token(KIND_PACE, flow));
        }
    }

    /// Keep a timer pending that fires no later than `flow`'s RTO
    /// deadline. A pending timer that fires earlier re-arms when it does.
    fn arm_rto(&mut self, ctx: &mut Kernel, flow: FlowId) {
        let Some(s) = self.slot(flow) else {
            return;
        };
        let Some(deadline) = s.flow.rto_deadline else {
            return;
        };
        if s.rto_timer.is_some_and(|at| at <= deadline) {
            return;
        }
        let delay = deadline.saturating_since(ctx.now());
        s.rto_timer = Some(ctx.now() + delay);
        ctx.schedule_timer(delay, token(KIND_RTO, flow));
    }

    /// Start every flow whose time has come, in `(start, id)` order, then
    /// arm the host's one start timer for the next. Runs ahead of every
    /// event the host handles: a flow due at `t` starts before anything
    /// else the host does at `t`, whatever the timer's place in the queue.
    fn start_due(&mut self, ctx: &mut Kernel) {
        if self.next_start_at > ctx.now() {
            return;
        }
        while let Some(&flow) = self.pending_starts.last() {
            let s = &self.scheduled[flow as usize];
            if s.start > ctx.now() {
                break;
            }
            self.pending_starts.pop();
            let slot = FlowSlot {
                flow: TcpFlow::new(s.cfg),
                dst: s.dst,
                pacing: false,
                pace_interval: s.cfg.pace_interval(),
                rto_timer: None,
            };
            self.occupy(flow, slot);
            self.started += 1;
            self.pace(ctx, FlowId::from(flow));
        }
        self.arm_start(ctx);
    }

    /// Arm the start timer for the next flow to start, if any is left.
    fn arm_start(&mut self, ctx: &mut Kernel) {
        let Some(&flow) = self.pending_starts.last() else {
            self.next_start_at = SimTime::FAR_FUTURE;
            return;
        };
        self.next_start_at = self.scheduled[flow as usize].start;
        let delay = self.next_start_at.saturating_since(ctx.now());
        ctx.schedule_timer(delay, token(KIND_START, 0));
    }

    /// Number of flows that have been started, completed ones included.
    pub fn started_flows(&self) -> usize {
        self.started
    }

    /// Iterate over the live flows' states — started and not completed —
    /// in id order (post-run inspection). A completed flow's state is
    /// gone; [`SenderStats`] keeps what it added up to.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &TcpFlow)> {
        (0..)
            .zip(&self.slot_of)
            .filter(|&(_, &at)| at != NO_SLOT)
            .map(|(id, &at)| (id, &self.slots[at as usize].flow))
    }
}

impl Node for SenderHost {
    fn on_start(&mut self, ctx: &mut Kernel) {
        let n = u32::try_from(self.scheduled.len()).expect("flow ids fit in u32");
        self.slot_of = vec![NO_SLOT; n as usize];
        self.pending_starts = (0..n).collect();
        // Flows with equal start times start in id order.
        self.pending_starts
            .sort_unstable_by_key(|&i| Reverse((self.scheduled[i as usize].start, i)));
        self.arm_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Kernel, _port: PortId, pkt: PacketRef) {
        self.start_due(ctx);
        let (flow, ack) = match &ctx.pkt(pkt).kind {
            PacketKind::TcpAck { flow, ack } => (*flow, *ack),
            _ => return, // hosts ignore anything that is not an ACK
        };
        let Some(s) = self.slot(flow) else {
            return;
        };
        let was_done = s.flow.done();
        let cwnd_before = s.flow.cwnd;
        let action = s.flow.on_ack(ack, ctx.now());
        let cwnd_after = s.flow.cwnd;
        // Everything the rest of the ACK path needs, in one slot borrow.
        let wire = (s.dst, s.flow.cfg.pkt_size);
        let (done, resume) = (s.flow.done(), s.flow.can_send_new() && !s.pacing);
        if let FlowAction::Send { seq, retx } = action {
            if retx {
                ctx.metrics(|r| r.inc("fancy_tcp_fast_retx_total", Labels::new()));
            }
            if retx && (ctx.tracing(TraceKind::TcpFastRetx) || ctx.tracing(TraceKind::TcpCwnd)) {
                let node = ctx.self_id() as u64;
                ctx.trace(|t| TraceEvent::TcpFastRetx { t, node, flow, seq });
                if cwnd_after < cwnd_before {
                    ctx.trace(|t| TraceEvent::TcpCwnd {
                        t,
                        node,
                        flow,
                        from_mpkt: mpkt(cwnd_before),
                        to_mpkt: mpkt(cwnd_after),
                    });
                }
            }
            self.transmit(ctx, wire, flow, seq, retx);
        }
        if done {
            if !was_done {
                self.stats.completed_flows += 1;
                self.release(flow);
            }
            return;
        }
        self.arm_rto(ctx, flow);
        // Window opened: resume pacing if it went idle.
        if resume {
            self.pace(ctx, flow);
        }
    }

    fn on_timer(&mut self, ctx: &mut Kernel, t: TimerToken) {
        self.start_due(ctx);
        let (kind, flow) = split_token(t);
        match kind {
            // A start timer only wakes the host; `start_due` did the work.
            KIND_START => {}
            KIND_PACE => self.pace(ctx, flow),
            KIND_RTO => {
                let Some(s) = self.slot(flow) else {
                    return;
                };
                if s.rto_timer.is_some_and(|at| at <= ctx.now()) {
                    s.rto_timer = None;
                }
                let cwnd_before = s.flow.cwnd;
                let action = s.flow.on_rto(ctx.now());
                let (cwnd_after, rto_ns) = (s.flow.cwnd, s.flow.rto.as_nanos());
                let wire = (s.dst, s.flow.cfg.pkt_size);
                if let FlowAction::Send { seq, retx } = action {
                    ctx.metrics(|r| r.inc("fancy_tcp_rto_total", Labels::new()));
                    if ctx.tracing(TraceKind::TcpRto) || ctx.tracing(TraceKind::TcpCwnd) {
                        let node = ctx.self_id() as u64;
                        ctx.trace(|t| TraceEvent::TcpRto {
                            t,
                            node,
                            flow,
                            seq,
                            rto_ns,
                            cwnd_mpkt: mpkt(cwnd_after),
                        });
                        if cwnd_after < cwnd_before {
                            ctx.trace(|t| TraceEvent::TcpCwnd {
                                t,
                                node,
                                flow,
                                from_mpkt: mpkt(cwnd_before),
                                to_mpkt: mpkt(cwnd_after),
                            });
                        }
                    }
                    self.transmit(ctx, wire, flow, seq, retx);
                }
                self.arm_rto(ctx, flow);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A throughput probe: byte counts per fixed time bucket for a set of
/// entries (or all traffic).
#[derive(Debug, Clone)]
pub struct ThroughputProbe {
    /// Human-readable label (printed by experiment harnesses).
    pub label: String,
    /// Entries to match; `None` matches every entry.
    pub entries: Option<Vec<Prefix>>,
    /// Bucket length.
    pub bucket: SimDuration,
    /// Bytes received per bucket.
    pub series: Vec<u64>,
}

impl ThroughputProbe {
    /// A probe over specific entries.
    pub fn for_entries(label: &str, entries: Vec<Prefix>, bucket: SimDuration) -> Self {
        ThroughputProbe {
            label: label.to_string(),
            entries: Some(entries),
            bucket,
            series: Vec::new(),
        }
    }

    /// A probe over all traffic.
    pub fn all(label: &str, bucket: SimDuration) -> Self {
        ThroughputProbe {
            label: label.to_string(),
            entries: None,
            bucket,
            series: Vec::new(),
        }
    }

    fn observe(&mut self, now: SimTime, entry: Prefix, bytes: u64) {
        if let Some(set) = &self.entries {
            if !set.contains(&entry) {
                return;
            }
        }
        let idx = (now.as_nanos() / self.bucket.as_nanos()) as usize;
        if self.series.len() <= idx {
            self.series.resize(idx + 1, 0);
        }
        self.series[idx] += bytes;
    }

    /// The series converted to bits per second.
    pub fn bps_series(&self) -> Vec<f64> {
        let secs = self.bucket.as_secs_f64();
        self.series.iter().map(|&b| b as f64 * 8.0 / secs).collect()
    }
}

/// What a receiver has seen of one entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryCount {
    /// Bytes received.
    pub bytes: u64,
    /// Packets received.
    pub packets: u64,
}

/// The universal receiver: accepts data for any destination address, sends
/// cumulative ACKs back toward the packet's source, and tracks per-entry
/// byte counts.
///
/// Per flow it keeps one word, the next in-order segment it expects. The
/// segments received past a hole live in a second map only while that
/// flow has a hole, so a flow that never saw loss or reordering costs one
/// map slot, and an in-order segment costs one lookup while no flow has a
/// hole.
#[derive(Default)]
pub struct ReceiverHost {
    /// Next expected segment, keyed by `(source address, flow id)`: flow
    /// ids are only unique per sender, and a receiver can serve many
    /// senders at once.
    rcv_next: FnvMap<(u32, FlowId), u64>,
    /// Segments received above `rcv_next`, for the flows that have a hole
    /// (never an empty set: a flow leaves when its last hole fills).
    holes: FnvMap<(u32, FlowId), BTreeSet<u64>>,
    /// Bytes and packets received per entry.
    pub entries: FnvMap<Prefix, EntryCount>,
    /// Optional throughput probes.
    pub probes: Vec<ThroughputProbe>,
    /// Total data packets received.
    pub data_packets: u64,
}

impl ReceiverHost {
    /// A receiver with no probes.
    pub fn new() -> Self {
        Self::default()
    }

    fn note(&mut self, now: SimTime, entry: Prefix, bytes: u64) {
        let seen = self.entries.entry(entry).or_default();
        seen.bytes += bytes;
        seen.packets += 1;
        self.data_packets += 1;
        for p in &mut self.probes {
            p.observe(now, entry, bytes);
        }
    }
}

impl Node for ReceiverHost {
    fn on_packet(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
        let p = ctx.pkt(pkt);
        let (entry, size, src, dst) = (p.entry(), u64::from(p.size), p.src, p.dst);
        match p.kind {
            PacketKind::TcpData { flow, seq, .. } => {
                self.note(ctx.now(), entry, size);
                let key = (src, flow);
                let next = self.rcv_next.entry(key).or_default();
                if seq == *next {
                    *next += 1;
                    if !self.holes.is_empty() {
                        if let Some(above) = self.holes.get_mut(&key) {
                            while above.remove(next) {
                                *next += 1;
                            }
                            if above.is_empty() {
                                self.holes.remove(&key);
                            }
                        }
                    }
                } else if seq > *next {
                    self.holes.entry(key).or_default().insert(seq);
                }
                let ack =
                    PacketBuilder::new(dst, src, ACK_SIZE, PacketKind::TcpAck { flow, ack: *next })
                        .build();
                ctx.send(port, ack);
            }
            PacketKind::Udp { .. } => {
                self.note(ctx.now(), entry, size);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An open-loop constant-rate UDP source (the Tofino case study mixes
/// 50 Mbps of UDP into its workload, §6.1).
pub struct UdpSource {
    /// Source address.
    pub addr: u32,
    /// Destination address.
    pub dst: u32,
    /// Send rate in bits per second.
    pub rate_bps: u64,
    /// Datagram size in bytes.
    pub pkt_size: u32,
    /// Stop time.
    pub until: SimTime,
    seq: u64,
    sent: u64,
}

impl UdpSource {
    /// A UDP source running until `until`.
    pub fn new(addr: u32, dst: u32, rate_bps: u64, pkt_size: u32, until: SimTime) -> Self {
        UdpSource {
            addr,
            dst,
            rate_bps,
            pkt_size,
            until,
            seq: 0,
            sent: 0,
        }
    }

    /// Datagrams sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(self.pkt_size) * 8.0 / self.rate_bps as f64)
    }
}

impl Node for UdpSource {
    fn on_start(&mut self, ctx: &mut Kernel) {
        ctx.schedule_timer(SimDuration::ZERO, token(KIND_UDP, 0));
    }

    fn on_packet(&mut self, _ctx: &mut Kernel, _port: PortId, _pkt: PacketRef) {}

    fn on_timer(&mut self, ctx: &mut Kernel, _t: TimerToken) {
        if ctx.now() >= self.until {
            return;
        }
        let pkt = PacketBuilder::new(
            self.addr,
            self.dst,
            self.pkt_size,
            PacketKind::Udp {
                flow: u64::MAX,
                seq: self.seq,
            },
        )
        .build();
        self.seq += 1;
        self.sent += 1;
        ctx.send(0, pkt);
        ctx.schedule_timer(self.interval(), token(KIND_UDP, 0));
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
    use fancy_sim::{GrayFailure, LinkConfig, Network};

    fn flow_cfg(rate: u64, pkts: u64) -> FlowConfig {
        FlowConfig {
            rate_bps: rate,
            total_packets: pkts,
            pkt_size: 1500,
            initial_rto: crate::flow::DEFAULT_RTO,
        }
    }

    /// host A ── link ── receiver, optional failure on the forward direction.
    fn setup(flows: Vec<ScheduledFlow>, failure: Option<GrayFailure>) -> (Network, usize, usize) {
        let mut net = Network::new(3);
        let a = net.add_node(Box::new(SenderHost::new(0x01000001, flows)));
        let b = net.add_node(Box::new(ReceiverHost::new()));
        let link = net.connect(
            a,
            b,
            LinkConfig::new(1_000_000_000, SimDuration::from_millis(5)),
        );
        if let Some(f) = failure {
            net.kernel.add_failure(link, a, f);
        }
        (net, a, b)
    }

    #[test]
    fn lossless_flow_completes_without_retx() {
        let flows = vec![ScheduledFlow {
            start: SimTime::ZERO,
            dst: 0x0A000005,
            cfg: flow_cfg(10_000_000, 50),
        }];
        let (mut net, a, b) = setup(flows, None);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let tx: &SenderHost = net.node(a);
        assert_eq!(tx.stats.completed_flows, 1);
        assert_eq!(tx.stats.retransmissions, 0);
        let rx: &ReceiverHost = net.node(b);
        assert_eq!(rx.entries[&Prefix::from_addr(0x0A000005)].packets, 50);
    }

    #[test]
    fn blackhole_triggers_backoff_retransmissions() {
        let entry = Prefix::from_addr(0x0A000005);
        let flows = vec![ScheduledFlow {
            start: SimTime::ZERO,
            dst: 0x0A000005,
            cfg: flow_cfg(10_000_000, 50),
        }];
        let (mut net, a, _b) = setup(
            flows,
            Some(GrayFailure::single_entry(entry, 1.0, SimTime::ZERO)),
        );
        net.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let tx: &SenderHost = net.node(a);
        assert_eq!(tx.stats.completed_flows, 0);
        // RTO at 200,400,800,1600,3200,6400 ms → ~6 retransmissions in 10 s.
        assert!(
            tx.stats.retransmissions >= 4 && tx.stats.retransmissions <= 8,
            "retx = {}",
            tx.stats.retransmissions
        );
    }

    #[test]
    fn partial_loss_still_completes_via_recovery() {
        let entry = Prefix::from_addr(0x0A000005);
        let flows = vec![ScheduledFlow {
            start: SimTime::ZERO,
            dst: 0x0A000005,
            cfg: flow_cfg(10_000_000, 200),
        }];
        let (mut net, a, _b) = setup(
            flows,
            Some(GrayFailure::single_entry(entry, 0.05, SimTime::ZERO)),
        );
        net.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let tx: &SenderHost = net.node(a);
        assert_eq!(
            tx.stats.completed_flows, 1,
            "flow should recover from 5% loss"
        );
        assert!(tx.stats.retransmissions > 0);
    }

    #[test]
    fn sender_paces_at_the_configured_rate() {
        // 12 Mbps, 1500 B packets → 1 ms spacing → ~100 packets in 100 ms.
        let flows = vec![ScheduledFlow {
            start: SimTime::ZERO,
            dst: 0x0A000001,
            cfg: flow_cfg(12_000_000, 1000),
        }];
        let (mut net, a, _b) = setup(flows, None);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(100));
        let sent = net.node::<SenderHost>(a).stats.data_packets;
        assert!((80..=110).contains(&sent), "sent = {sent}");
    }

    /// Two scheduled flows, only the first of which starts inside the
    /// 100 ms the tests run for.
    fn one_started_one_pending() -> Vec<ScheduledFlow> {
        [SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(5)]
            .into_iter()
            .map(|start| ScheduledFlow {
                start,
                dst: 0x0A000001,
                cfg: flow_cfg(12_000_000, 1000),
            })
            .collect()
    }

    /// Run `one_started_one_pending` for 100 ms after `disturb` had its
    /// way with the network; returns the sender's stats and flow states.
    fn run_disturbed(disturb: impl FnOnce(&mut Network, usize)) -> (SenderStats, Vec<TcpFlow>) {
        let (mut net, a, _b) = setup(one_started_one_pending(), None);
        disturb(&mut net, a);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(100));
        let tx: &SenderHost = net.node(a);
        assert_eq!(tx.started_flows(), 1);
        assert_eq!(tx.flows().map(|(id, _)| id).collect::<Vec<_>>(), vec![0]);
        (tx.stats, tx.flows().map(|(_, f)| f.clone()).collect())
    }

    fn assert_undisturbed(disturbed: (SenderStats, Vec<TcpFlow>)) {
        let clean = run_disturbed(|_, _| {});
        assert!(
            clean.0.data_packets > 50,
            "the started flow must be sending"
        );
        assert_eq!(format!("{disturbed:?}"), format!("{clean:?}"));
    }

    #[test]
    fn ack_for_unknown_or_out_of_range_flow_is_ignored() {
        // Flow 1 is scheduled but not started; 2 = len, 3 = len + 1;
        // `u64::MAX` is what `UdpSource` stamps.
        assert_undisturbed(run_disturbed(|net, a| {
            for (i, flow) in [1, 2, 3, u64::MAX].into_iter().enumerate() {
                let ack = PacketBuilder::new(9, 1, ACK_SIZE, PacketKind::TcpAck { flow, ack: 5 });
                let at = SimTime::ZERO + SimDuration::from_millis(10 + i as u64);
                net.kernel.inject(a, 0, ack.build(), at);
            }
        }));
    }

    #[test]
    fn stale_rto_timer_for_unstarted_flow_is_ignored() {
        assert_undisturbed(run_disturbed(|net, a| {
            let at = SimTime::ZERO + SimDuration::from_millis(10);
            for flow in [1, 2, 3, u64::MAX >> 2] {
                net.kernel.schedule_timer_for(a, at, token(KIND_RTO, flow));
                net.kernel.schedule_timer_for(a, at, token(KIND_PACE, flow));
            }
            // A start for a flow nobody scheduled starts nothing.
            net.kernel.schedule_timer_for(a, at, token(KIND_START, 2));
            net.kernel
                .schedule_timer_for(a, at, token(KIND_START, u64::MAX >> 2));
        }));
    }

    #[test]
    fn replayed_start_token_does_not_restart_a_running_flow() {
        // Flow 0 has been sending for 10 ms; flow 1 is not due for 5 s. A
        // start token — replayed, early, or made up — only wakes the
        // host: flow 0 must not restart from seq 0, flow 1 must not start.
        assert_undisturbed(run_disturbed(|net, a| {
            let at = SimTime::ZERO + SimDuration::from_millis(10);
            for cursor in [0, 1, 2, u64::MAX >> 2] {
                net.kernel
                    .schedule_timer_for(a, at, token(KIND_START, cursor));
            }
        }));
    }

    /// `n` lossless 12 Mbps flows of `pkts` packets, all started at 0;
    /// returns the kernel's timer high-water mark once all completed.
    fn lossless_timer_high_water(n: u64, pkts: u64) -> u64 {
        let flows = (0..n)
            .map(|i| ScheduledFlow {
                start: SimTime::ZERO,
                dst: 0x0A000001 + i as u32,
                cfg: flow_cfg(12_000_000, pkts),
            })
            .collect();
        let (mut net, a, _b) = setup(flows, None);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let tx: &SenderHost = net.node(a);
        assert_eq!(tx.stats.completed_flows, n);
        assert_eq!(tx.stats.retransmissions, 0);
        net.kernel.telemetry.timer_high_water
    }

    #[test]
    fn lossless_flow_keeps_at_most_three_timers_pending() {
        // One pace timer, one RTO timer, and the start timer before them
        // — not one RTO timer per packet sent and ACK received.
        let hw = lossless_timer_high_water(1, 1000);
        assert!(hw <= 3, "timer high water = {hw}");
    }

    #[test]
    fn concurrent_flows_keep_two_timers_each_pending() {
        for n in [2, 7, 25] {
            let hw = lossless_timer_high_water(n, 200);
            assert!(hw <= 2 * n + 1, "{n} flows: timer high water = {hw}");
        }
    }

    #[test]
    fn rto_after_backoff_then_ack_fires_at_ack_time_plus_initial_rto() {
        // The sender talks into a sink, so the only ACK is the injected
        // one. First expiry at 200 ms backs the RTO off to 400 ms (timer
        // pending for 600 ms); the ACK at 300 ms resets it to 200 ms, so
        // the deadline moves *earlier* than the pending timer, to 500 ms.
        let flows = vec![ScheduledFlow {
            start: SimTime::ZERO,
            dst: 0x0A000001,
            cfg: flow_cfg(12_000_000, 100),
        }];
        let mut net = Network::new(3);
        let a = net.add_node(Box::new(SenderHost::new(0x01000001, flows)));
        let sink = net.add_node(Box::new(fancy_sim::SinkNode::default()));
        net.connect(
            a,
            sink,
            LinkConfig::new(1_000_000_000, SimDuration::from_millis(5)),
        );
        let recorder = fancy_sim::SharedRecorder::new(1 << 10);
        net.kernel.set_tracer(Box::new(recorder.clone()));
        let ack_at = SimTime::ZERO + SimDuration::from_millis(300);
        let ack = PacketBuilder::new(9, 1, ACK_SIZE, PacketKind::TcpAck { flow: 0, ack: 1 });
        net.kernel.inject(a, 0, ack.build(), ack_at);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let expiries: Vec<(u64, u64)> = recorder
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TcpRto { t, seq, .. } => Some((*t, *seq)),
                _ => None,
            })
            .collect();
        // To the nanosecond: ack time + initial RTO, then backoff again
        // from there. The superseded 600 ms timer fires as a no-op.
        let after_ack = (ack_at + crate::flow::DEFAULT_RTO).as_nanos();
        assert_eq!(
            expiries,
            vec![(200_000_000, 0), (after_ack, 1), (900_000_000, 1)]
        );
    }

    #[test]
    fn flow_scheduled_after_construction_still_starts() {
        let (mut net, a, _b) = setup(one_started_one_pending(), None);
        let late = ScheduledFlow {
            start: SimTime::ZERO,
            dst: 0x0A000001,
            cfg: flow_cfg(12_000_000, 10),
        };
        // A longer schedule replaces the one given to `new()`, before
        // on_start: the host sizes everything from what it finds there.
        let mut longer = one_started_one_pending();
        longer.push(late);
        net.node_mut::<SenderHost>(a).scheduled = longer.into();
        net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let tx: &SenderHost = net.node(a);
        assert_eq!(tx.started_flows(), 2);
        assert_eq!(tx.stats.completed_flows, 1);
        // Flow 2 completed and gave its slot back; flow 0 is still running.
        let live: Vec<_> = tx.flows().map(|(id, _)| id).collect();
        assert_eq!(live, vec![0]);
    }

    #[test]
    fn probe_buckets_throughput() {
        let mut probe = ThroughputProbe::all("all", SimDuration::from_millis(100));
        probe.observe(SimTime(50_000_000), Prefix(1), 1000);
        probe.observe(SimTime(150_000_000), Prefix(1), 500);
        probe.observe(SimTime(160_000_000), Prefix(2), 500);
        assert_eq!(probe.series, vec![1000, 1000]);
        assert_eq!(probe.bps_series(), vec![80_000.0, 80_000.0]);
    }

    #[test]
    fn entry_probe_filters() {
        let mut probe =
            ThroughputProbe::for_entries("one", vec![Prefix(1)], SimDuration::from_millis(100));
        probe.observe(SimTime(0), Prefix(1), 100);
        probe.observe(SimTime(0), Prefix(2), 100);
        assert_eq!(probe.series, vec![100]);
    }

    /// Logs every cumulative ACK it is sent: `(to, flow, ack)`.
    #[derive(Default)]
    struct AckLog(Vec<(u32, FlowId, u64)>);

    impl Node for AckLog {
        fn on_packet(&mut self, ctx: &mut Kernel, _port: PortId, pkt: PacketRef) {
            let p = ctx.pkt(pkt);
            if let PacketKind::TcpAck { flow, ack } = p.kind {
                self.0.push((p.dst, flow, ack));
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    proptest::proptest! {
        /// The receiver's cumulative ACK is, segment by segment, the
        /// smallest sequence number of that `(source, flow)` not yet
        /// received, as a `BTreeSet` of everything received computes it:
        /// over in-order, duplicate, reordered and gap-filling segments,
        /// from two sources that use the same flow ids. Once every gap
        /// is filled, no flow is left in the holes map.
        #[test]
        fn cumulative_acks_match_a_set_of_received_segments(
            words in proptest::collection::vec(0u64..2 * 3 * 12, 0..80),
        ) {
            const SOURCES: [u32; 2] = [0x0100_0001, 0x0200_0001];
            // One word is a segment: source (2), flow (3), seq (12).
            let segments: Vec<(u32, FlowId, u64)> =
                words.iter().map(|&w| ((w % 2) as u32, w / 2 % 3, w / 6)).collect();
            let mut net = Network::new(3);
            let rx = net.add_node(Box::new(ReceiverHost::new()));
            let log = net.add_node(Box::new(AckLog::default()));
            net.connect(rx, log, LinkConfig::new(1_000_000_000, SimDuration::from_micros(1)));

            // Fill phase: every (source, flow) seen gets all of 0..=max.
            let mut top = std::collections::BTreeMap::new();
            for &(s, flow, seq) in &segments {
                let max = top.entry((s, flow)).or_insert(seq);
                *max = (*max).max(seq);
            }
            let fill = top.iter().flat_map(|(&(s, flow), &max)| (0..=max).map(move |q| (s, flow, q)));
            let all: Vec<_> = segments.iter().copied().chain(fill).collect();

            let mut received: std::collections::BTreeMap<(u32, FlowId), BTreeSet<u64>> =
                Default::default();
            let mut want = Vec::new();
            for (i, &(s, flow, seq)) in all.iter().enumerate() {
                let src = SOURCES[s as usize];
                let got = received.entry((src, flow)).or_default();
                got.insert(seq);
                want.push((src, flow, (0..).find(|n| !got.contains(n)).expect("finite set")));
                let kind = PacketKind::TcpData { flow, seq, retx: false };
                let pkt = PacketBuilder::new(src, 0x0A00_0001, 1500, kind).build();
                let at = SimTime::ZERO + SimDuration::from_micros(100) * i as u64;
                net.kernel.inject(rx, 0, pkt, at);
                net.run_until(at + SimDuration::from_micros(50));
                let host: &ReceiverHost = net.node(rx);
                proptest::prop_assert!(host.holes.values().all(|h| !h.is_empty()));
            }
            proptest::prop_assert_eq!(&net.node::<AckLog>(log).0, &want);
            let host: &ReceiverHost = net.node(rx);
            proptest::prop_assert!(host.holes.is_empty(), "{:?}", host.holes);
            proptest::prop_assert_eq!(host.rcv_next.len(), received.len());
        }
    }

    #[test]
    fn udp_source_hits_target_rate() {
        let mut net = Network::new(9);
        let until = SimTime::ZERO + SimDuration::from_secs(1);
        let src = net.add_node(Box::new(UdpSource::new(
            1, 0x0B000001, 12_000_000, 1500, until,
        )));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        net.connect(
            src,
            rx,
            LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)),
        );
        net.run_until(until + SimDuration::from_secs(1));
        // 12 Mbps / (1500 B) = 1000 pps for 1 s.
        let got = net.node::<ReceiverHost>(rx).data_packets;
        assert!((995..=1005).contains(&got), "got {got}");
    }
}
