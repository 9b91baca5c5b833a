//! TCP host state, measured with a counting `#[global_allocator]` at two
//! flow counts; the difference is what one more flow costs.
//!
//! A sender's state grows with the flows running at once, not with the
//! flows it was given. One `SenderHost` runs `n` short flows back to
//! back, never more than 50 at once, against a node that echoes an ACK
//! for every segment and remembers nothing, so the sender holds the only
//! per-flow state; the heap's peak while the host is built and run is
//! what is compared.
//!
//! A receiver keeps one word per flow it has seen: the next segment it
//! expects. Every flow here arrives with a hole that then fills, so the
//! heap the receiver still holds afterwards shows that a filled hole
//! leaves nothing behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;

use fancy_sim::{
    Kernel, LinkConfig, Network, Node, PacketBuilder, PacketKind, PacketRef, PortId, SimDuration,
    SimTime, SinkNode,
};
use fancy_tcp::{FlowConfig, ReceiverHost, ScheduledFlow, SenderHost, ACK_SIZE};

thread_local! {
    // Per-thread so the libtest harness's own threads cannot perturb the
    // count; const-initialised, so reading it never allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(by: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + by);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is updating const-initialised, destructor-free thread-locals.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        grow(l.size() as i64);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        grow(-(l.size() as i64));
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - l.size() as i64);
        System.realloc(p, l, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// ACKs every data segment with `seq + 1` on the port it came in on. The
/// link never drops or reorders, so that is the cumulative ACK.
struct EchoAck;

impl Node for EchoAck {
    fn on_packet(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
        let p = ctx.pkt(pkt);
        if let PacketKind::TcpData { flow, seq, .. } = p.kind {
            let ack = PacketKind::TcpAck { flow, ack: seq + 1 };
            let ack = PacketBuilder::new(p.dst, p.src, ACK_SIZE, ack).build();
            ctx.send(port, ack);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Flow `i` starts at `i` × 200 µs and sends four 1500 B packets 1 ms
/// apart over a 2 ms RTT: each runs about 5 ms, so about 25 run at once.
fn schedule(n: u32) -> Arc<[ScheduledFlow]> {
    (0..n)
        .map(|i| ScheduledFlow {
            start: SimTime::ZERO + SimDuration::from_micros(200) * u64::from(i),
            dst: 0x0A00_0001 + i % 256,
            cfg: FlowConfig {
                rate_bps: 12_000_000,
                total_packets: 4,
                pkt_size: 1500,
                initial_rto: fancy_tcp::DEFAULT_RTO,
            },
        })
        .collect()
}

/// Build a sender for `n` flows and run it until all have completed;
/// returns how far the heap's peak rose above where it stood before.
fn peak_growth(n: u32) -> i64 {
    let flows = schedule(n);
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let mut net = Network::new(7);
    let tx = net.add_node(Box::new(SenderHost::new(0x0100_0001, flows.clone())));
    let rx = net.add_node(Box::new(EchoAck));
    net.connect(
        tx,
        rx,
        LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)),
    );
    let end = flows.last().expect("flows").start + SimDuration::from_millis(50);
    let mut most_live = 0;
    while net.kernel.now() < end {
        net.run_until(net.kernel.now() + SimDuration::from_millis(1));
        let running = net
            .node::<SenderHost>(tx)
            .flows()
            .filter(|(_, f)| !f.done());
        most_live = most_live.max(running.count());
    }
    let peak = PEAK.with(Cell::get) - base;
    let host: &SenderHost = net.node(tx);
    assert_eq!(host.stats.completed_flows, u64::from(n));
    assert_eq!(host.stats.retransmissions, 0);
    assert!(
        (10..=50).contains(&most_live),
        "{n} flows: {most_live} ran at once"
    );
    peak
}

#[test]
fn sender_peak_heap_grows_with_live_flows_not_scheduled_ones() {
    let (small, large) = (1_000, 10_000);
    let (p_small, p_large) = (peak_growth(small), peak_growth(large));
    let per_flow = (p_large - p_small) as f64 / f64::from(large - small);
    assert!(
        per_flow <= 16.0,
        "peak heap grows {per_flow:.1} B per scheduled flow \
         ({small} flows: {p_small} B, {large} flows: {p_large} B)"
    );
}

/// Flows fed to the receiver per batch; at most this many have a hole at
/// once, and the event queue and packet pool never hold more than a
/// batch's segments.
const BATCH: u64 = 64;

/// Feed one `ReceiverHost` segments 0, 2, 1, 3 of each of `n` flows (a
/// hole opened and filled), a batch of flows at a time; returns how far
/// the live heap stands above where it stood before, with the host and
/// its network still alive.
fn receiver_growth(n: u64) -> i64 {
    let base = LIVE.with(Cell::get);
    let mut net = Network::new(7);
    let rx = net.add_node(Box::new(ReceiverHost::new()));
    let acks = net.add_node(Box::new(SinkNode::default()));
    net.connect(
        rx,
        acks,
        LinkConfig::new(1_000_000_000, SimDuration::from_micros(1)),
    );
    let step = SimDuration::from_micros(1);
    for first in (0..n).step_by(BATCH as usize) {
        let mut at = net.kernel.now() + step;
        for flow in first..(first + BATCH).min(n) {
            for seq in [0, 2, 1, 3] {
                let kind = PacketKind::TcpData {
                    flow,
                    seq,
                    retx: false,
                };
                let pkt = PacketBuilder::new(0x0100_0001, 0x0A00_0001, 1500, kind).build();
                net.kernel.inject(rx, 0, pkt, at);
                at += step;
            }
        }
        net.run_until(at + SimDuration::from_millis(1));
    }
    assert_eq!(net.node::<ReceiverHost>(rx).data_packets, 4 * n);
    assert_eq!(net.node::<SinkNode>(acks).packets, 4 * n);
    LIVE.with(Cell::get) - base
}

#[test]
fn receiver_heap_holds_one_word_per_flow() {
    // Both counts fill the std hash table to its most entries per bucket
    // (7/8 of 2^11 and 2^14 buckets), so the difference is what an entry
    // costs, not how much head-room the last doubling left.
    let (small, large) = (1_792, 14_336);
    let (g_small, g_large) = (receiver_growth(small), receiver_growth(large));
    let per_flow = (g_large - g_small) as f64 / (large - small) as f64;
    // A 16 B `(source, flow)` key, the 8 B next-expected segment and a
    // control byte, at 7/8 load: 28.6 B. A second word per flow, or a
    // hole that leaves its set behind, does not fit.
    assert!(
        per_flow <= 32.0,
        "the receiver holds {per_flow:.1} B per flow \
         ({small} flows: {g_small} B, {large} flows: {g_large} B)"
    );
}
