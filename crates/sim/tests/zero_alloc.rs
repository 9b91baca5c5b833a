//! The warm scheduler/pool path performs zero heap allocations per
//! event: once the two lane heaps and the channel arena have grown to
//! the standing backlog and the packet slab's free list is populated,
//! pool check-in → push → pop → check-out touches the allocator not at
//! all. And an idle queue
//! costs nothing: construction allocates only on the first push.
//! Measured with a counting `#[global_allocator]`, not asserted from
//! inspection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fancy_sim::event::{ChannelId, Event, EventQueue};
use fancy_sim::pool::PacketPool;
use fancy_sim::{Network, PacketBuilder, PacketKind, SimTime};

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

/// One steady-state scheduler cycle: check three packets into the slab,
/// schedule one plain arrival, two on `chan` (the second waits behind
/// the first, in the arena) and a timer, pop all four, check the
/// packets out. `t` advances 10 µs per call, like a real run's clock.
fn scheduler_cycle(
    q: &mut EventQueue,
    chan: ChannelId,
    pool: &mut PacketPool,
    t: &mut u64,
    i: u64,
) {
    let mut packet = |n: u64| {
        let seq = 3 * i + n;
        let mut pkt =
            PacketBuilder::new(1, 0x0A00_0001, 1500, PacketKind::Udp { flow: 0, seq }).build();
        pkt.uid = seq + 1;
        pool.insert(pkt)
    };
    let (r0, r1, r2) = (packet(0), packet(1), packet(2));
    q.push_arrival(SimTime(*t), 0, 0, r0);
    q.push_arrival_on(SimTime(*t), chan, r1);
    q.push_arrival_on(SimTime(*t + 1_000), chan, r2);
    q.push_timer(SimTime(*t), 0, i);
    while let Some((_, ev)) = q.pop() {
        if let Event::Arrival { pkt, .. } = ev {
            pool.remove(pkt);
        }
    }
    *t += 10_000;
}

#[test]
fn warm_scheduler_and_pool_path_never_allocates() {
    let mut q = EventQueue::new();
    let chan = q.open_channel(1, 0);
    let mut pool = PacketPool::new();
    let mut t = 0u64;
    // Warm-up: the first cycle sizes both lane heaps, the arena and the
    // slab for this backlog (two heap arrivals, one queued behind, one
    // timer); the rest only show that nothing grows afterwards.
    for i in 0..8_192 {
        scheduler_cycle(&mut q, chan, &mut pool, &mut t, i);
    }
    let before = ALLOCS.with(Cell::get);
    assert!(before > 0, "counter is dead: warm-up must have allocated");
    for i in 8_192..508_192 {
        scheduler_cycle(&mut q, chan, &mut pool, &mut t, i);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        allocs, 0,
        "the steady-state scheduler path allocated {allocs} time(s) over 2M events"
    );
}

#[test]
fn constructing_a_queue_allocates_nothing_before_the_first_push() {
    let before = ALLOCS.with(Cell::get);
    let q = EventQueue::new();
    let net = Network::new(1);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(q.is_empty() && net.next_event_time().is_none());
    assert_eq!(
        allocs, 0,
        "an empty EventQueue / Network::new allocated {allocs} time(s)"
    );
}
