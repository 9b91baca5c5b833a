//! A counting global allocator that is off except around the one rep
//! whose heap behaviour is being measured: timed reps pay a single
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub struct CountingAlloc;

// All statistics: nothing is published through them, so Relaxed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn on_alloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn on_dealloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        on_alloc(l.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        on_dealloc(l.size());
        // SAFETY: `p` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(l.size());
        on_alloc(new_size);
        // SAFETY: forwarded with the caller's own arguments.
        unsafe { System.realloc(p, l, new_size) }
    }
}

/// What one counted region allocated.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapUse {
    /// Allocation calls (reallocs included).
    pub allocs: u64,
    /// Bytes requested over all those calls.
    pub bytes: u64,
    /// Highest live-byte level reached, relative to the level at entry
    /// (memory freed inside the region that was allocated before it can
    /// push the level below zero; the peak is floored at 0).
    pub peak_bytes: u64,
}

/// Run `f` with counting on and report what it allocated. Not
/// re-entrant; the benchmark is single-generator so it never nests.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
    let r = f();
    ENABLED.store(false, Ordering::SeqCst);
    let heap = HeapUse {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
    };
    (r, heap)
}
