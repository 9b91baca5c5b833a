//! A FANcY pair holds at most one `slot_count × width` tree counter array
//! per side (the sender's zoom counters and the receiver's registers), and
//! of each only the nodes a path has used: the root, plus a zoom slot once
//! a path holds it. A healthy pair therefore holds one root node per side,
//! 2 / `slot_count` of an array. The receiver answers a repeated Stop from
//! its registers, frozen until the next Start, so it keeps no second copy
//! of its last Report.
//!
//! Measured with a counting `#[global_allocator]`: the heap a warm pair
//! holds is compared at two tree widths, and the difference divided by
//! what one full array grows by is the number of arrays held.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fancy_core::prelude::*;
use fancy_net::Prefix;
use fancy_sim::{
    Fib, GrayFailure, LinkConfig, Network, PacketBuilder, PacketKind, SimDuration, SimTime,
    SinkNode,
};

thread_local! {
    // Per-thread so the libtest harness's own threads cannot perturb the
    // count; const-initialised, so reading it never allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn grow(by: i64) {
    LIVE.with(|l| l.set(l.get() + by));
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is updating a const-initialised, destructor-free thread-local.
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

/// The tree of `width` counters per node (paper shape otherwise).
fn tree(width: u16) -> TreeParams {
    TreeParams {
        width,
        ..TreeParams::paper_default()
    }
}

/// Build sink — S1 ══ S2 — sink with a tree (and no dedicated entry) on
/// S1's port 1, run 100 ms of 1 ms sessions with traffic, then return
/// the least heap the live pair held while sessions kept running: the
/// least, so that no Report in flight is counted. Every packet to a
/// `failed` entry is dropped on S1 → S2, and each of them also sends a
/// packet every 100 µs, so the tree zooms into them.
fn held(width: u16, failed: &[Prefix]) -> i64 {
    let base = LIVE.with(Cell::get);
    let mut timers = TimerConfig::paper_default().for_link_delay(SimDuration::from_micros(10));
    timers.zooming_interval = SimDuration::from_millis(1);
    let layout = FancyInput {
        high_priority: Vec::new(),
        memory_bytes_per_port: 1 << 20,
        tree: tree(width),
        timers,
    }
    .translate()
    .expect("layout");

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
    let link = LinkConfig::new(100_000_000_000, SimDuration::from_micros(10));
    net.connect(near, s1, link);
    let monitored = net.connect(s1, s2, link);
    net.connect(s2, far, link);
    if !failed.is_empty() {
        let failure = GrayFailure::multi_entry(failed.to_vec(), 1.0, SimTime::ZERO);
        net.kernel.add_failure(monitored, s1, failure);
    }

    let warm = SimTime::ZERO + SimDuration::from_millis(100);
    for i in 0..4_000u64 {
        let kind = PacketKind::Udp { flow: i, seq: 0 };
        let pkt = PacketBuilder::new(1, Prefix(i as u32 % 997).host(1), 1000, kind);
        net.kernel
            .inject(s1, 0, pkt.build(), SimTime(i * warm.as_nanos() / 4_000));
    }
    for (f, entry) in failed.iter().enumerate() {
        for i in 0..1_000u64 {
            let kind = PacketKind::Udp {
                flow: 1 << 20 | f as u64,
                seq: i,
            };
            let pkt = PacketBuilder::new(1, entry.host(1), 1000, kind);
            net.kernel
                .inject(s1, 0, pkt.build(), SimTime(i * 100_000 + f as u64));
        }
    }
    net.run_until(warm);
    let sessions = net.node::<FancySwitch>(s1).sessions_completed(1).1;
    assert!(sessions >= 40, "{sessions} tree sessions");
    let detections = net.kernel.records.detections.len();
    assert_eq!(
        failed.is_empty(),
        detections == 0,
        "{detections} detections"
    );

    let mut least = i64::MAX;
    for _ in 0..200 {
        net.run_until(net.kernel.now() + SimDuration::from_micros(50));
        least = least.min(LIVE.with(Cell::get) - base);
    }
    least
}

/// Tree arrays a pair holds: the heap difference between two tree
/// widths over what one full `slot_count × width` array grows by.
fn arrays_held(failed: &[Prefix]) -> f64 {
    let (narrow, wide) = (64, 256);
    let array = |w: u16| (tree(w).slot_count() * usize::from(w) * 4) as f64;
    (held(wide, failed) - held(narrow, failed)) as f64 / (array(wide) - array(narrow))
}

#[test]
fn an_idle_pair_holds_one_root_node_per_side() {
    let roots = 2.0 / tree(64).slot_count() as f64;
    let arrays = arrays_held(&[]);
    assert!(
        (arrays - roots).abs() < 0.05,
        "the pair holds {arrays:.2} tree arrays (want {roots:.2}: one root node per side)"
    );
}

#[test]
fn a_zooming_pair_holds_at_most_one_tree_array_per_side() {
    let failed: Vec<Prefix> = [3, 500, 900].into_iter().map(Prefix).collect();
    let roots = 2.0 / tree(64).slot_count() as f64;
    let arrays = arrays_held(&failed);
    // Above the idle roots: both sides grew to the slots the paths took.
    assert!(
        arrays > roots + 0.05 && arrays <= 2.0,
        "the pair holds {arrays:.2} tree arrays (want more than the idle {roots:.2}, \
         and ≤ 2: the sender's and the receiver's)"
    );
}
