//! `Routes` holds its all-pairs table flat: one cost and one start offset
//! per ordered pair, and the egress edges of every ECMP group back to back
//! in one array, with no per-group or per-row heap block.
//!
//! Measured with a counting `#[global_allocator]`: the heap `Routes`
//! keeps after `compute` returns (everything its Dijkstra runs freed is
//! netted out), divided by the number of ordered switch pairs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fancy_topo::{isp_backbone, Routes};

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

#[test]
fn backbone_routes_hold_at_most_24_bytes_per_ordered_pair() {
    let n = 100;
    let topo = isp_backbone(n, 1).expect("backbone");
    let base = LIVE.with(Cell::get);
    let routes = Routes::compute(&topo).expect("routes");
    let held = LIVE.with(Cell::get) - base;
    let per_pair = held as f64 / (n * n) as f64;
    assert!(
        per_pair <= 24.0,
        "Routes holds {held} B for {n} switches: {per_pair:.1} B per ordered pair (want ≤ 24)"
    );
    drop(routes);
}
