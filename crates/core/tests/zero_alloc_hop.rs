//! A warm FANcY data-packet hop performs zero heap allocations: inside
//! one open counting session — no control message, no timer — a packet
//! crossing two `FancySwitch`es (egress tag-and-count at the upstream,
//! ingress count-and-strip at the downstream, two FIB lookups, two TM
//! admissions) touches the allocator not at all. The port- and
//! prefix-indexed tables on that path must stay as allocation-free as
//! the pool and queue under them (`fancy-sim`'s `zero_alloc.rs`).
//! That holds with a fast-reroute table on the upstream's egress port
//! too: with nothing flagged, the per-packet consultation of the output
//! Bloom filter folds each tree entry's hash path as it hashes it and
//! builds nothing. Measured with a counting `#[global_allocator]`, not
//! asserted from inspection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fancy_core::prelude::*;
use fancy_net::{FnvMap, Prefix};
use fancy_sim::{
    Fib, LinkConfig, Network, PacketBuilder, PacketKind, SimDuration, SimTime, SinkNode,
};

thread_local! {
    // Per-thread so the libtest harness's own threads cannot perturb
    // the count; const-initialised, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is bumping a const-initialised, destructor-free thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(p, l, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DEDICATED: Prefix = Prefix(0x0A_00_00);
const BATCH: u64 = 4_096;

/// Inject `BATCH` data packets into S1's host-side port, 1 µs apart from
/// `start`, alternating the dedicated entry with 64 best-effort (tree)
/// entries, and run until they have all drained into the far sink.
fn push_batch(net: &mut Network, s1: usize, start: SimTime) {
    for i in 0..BATCH {
        let entry = if i % 2 == 0 {
            DEDICATED
        } else {
            Prefix(0x0B_00_00 + (i % 64) as u32)
        };
        let pkt = PacketBuilder::new(1, entry.host(1), 1000, PacketKind::Udp { flow: 0, seq: i });
        let at = start + SimDuration::from_micros(i);
        net.kernel.inject(s1, 0, pkt.build(), at);
    }
    net.run_until(start + SimDuration::from_millis(50));
}

/// Run a warm-up batch and a measured batch through
/// sink — S1 ══ S2 — sink (FANcY on S1's port 1; with `reroute`, S1 also
/// protects port 1 with a backup to a third sink on port 2) and return
/// the measured batch's allocations.
fn measured_hop_allocs(reroute: bool) -> u64 {
    // Ten-second sessions: both open at t = 0 and stay in their counting
    // phase, with nothing scheduled, for the whole test.
    let mut timers = TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(1));
    timers.dedicated_interval = SimDuration::from_secs(10);
    timers.zooming_interval = SimDuration::from_secs(10);
    let layout = FancyInput {
        high_priority: vec![DEDICATED],
        memory_bytes_per_port: 1 << 20,
        tree: TreeParams::paper_default(),
        timers,
    }
    .translate()
    .expect("layout");

    // sink — S1 ══ S2 — sink, FANcY on S1's port 1.
    let mut net = Network::new(5);
    let mut fib = Fib::new();
    fib.default_route(1);
    let near = net.add_node(Box::new(SinkNode::default()));
    let s1 = net.add_node(Box::new(FancySwitch::new(
        fib.clone(),
        layout.clone(),
        vec![1],
        1,
    )));
    let s2 = net.add_node(Box::new(FancySwitch::new(fib, layout, Vec::new(), 2)));
    let far = net.add_node(Box::new(SinkNode::default()));
    let link = LinkConfig::new(100_000_000_000, SimDuration::from_millis(1));
    net.connect(near, s1, link);
    net.connect(s1, s2, link);
    net.connect(s2, far, link);
    if reroute {
        let alt = net.add_node(Box::new(SinkNode::default()));
        net.connect(s1, alt, link);
        let backup: FnvMap<_, _> = [(1, 2)].into_iter().collect();
        net.node_mut::<FancySwitch>(s1).reroute = Some(Reroute::port_level(backup));
    }

    // Warm-up: open the sessions, then one batch sizes the pool, both
    // lane heaps, S2's downstream table and the zooming counters.
    net.run_until(SimTime::ZERO + SimDuration::from_millis(100));
    push_batch(&mut net, s1, SimTime::ZERO + SimDuration::from_millis(100));
    let warm = (
        net.node::<FancySwitch>(s1).stats,
        net.kernel.telemetry.timers_fired,
        net.node::<SinkNode>(far).packets,
    );
    assert_eq!(warm.0.tagged_packets, BATCH, "sessions must be counting");
    assert_eq!(warm.2, BATCH);

    let before = ALLOCS.with(Cell::get);
    assert!(before > 0, "counter is dead: set-up must have allocated");
    push_batch(&mut net, s1, SimTime::ZERO + SimDuration::from_millis(200));
    let allocs = ALLOCS.with(Cell::get) - before;

    // The measured window really was a pure data-plane window…
    let stats = net.node::<FancySwitch>(s1).stats;
    assert_eq!(stats.tagged_packets, 2 * BATCH);
    assert_eq!(net.node::<SinkNode>(far).packets, 2 * BATCH);
    assert_eq!(stats.control_sent, warm.0.control_sent, "control in window");
    assert_eq!(
        net.node::<FancySwitch>(s2).stats.control_sent,
        1 + 1,
        "S2 acked the two Starts and nothing else"
    );
    assert_eq!(net.kernel.telemetry.timers_fired, warm.1, "timer in window");
    let s1 = net.node::<FancySwitch>(s1);
    assert_eq!(s1.reroute.as_ref().is_some_and(|r| r.protects(1)), reroute);
    assert_eq!(stats.rerouted_packets, 0, "nothing is flagged");
    allocs
}

#[test]
fn warm_fancy_hop_inside_a_counting_session_never_allocates() {
    let allocs = measured_hop_allocs(false);
    assert_eq!(
        allocs, 0,
        "{BATCH} warm packets through two FANcY switches allocated {allocs} time(s)"
    );
}

#[test]
fn warm_hop_through_a_protected_port_with_nothing_flagged_never_allocates() {
    let allocs = measured_hop_allocs(true);
    assert_eq!(
        allocs, 0,
        "{BATCH} warm packets through a reroute-protected FANcY port allocated {allocs} time(s)"
    );
}
