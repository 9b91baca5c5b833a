//! A warm FANcY counting session allocates only the Report it puts on the
//! wire, and observing it allocates nothing more. Complete counting
//! sessions (Start → Start-ACK → Stop → Report through the sender and
//! receiver FSMs) and tagged data packets between two `FancySwitch`es
//! reach the allocator exactly once per Report the receiving switch
//! sends — the counters payload of `ControlBody::Report`; FSM transitions
//! return inline action lists and the sender compares the Report it
//! received in place. With a `MetricsHub` and a trace sink attached
//! (every FSM transition counted and traced, every control message
//! traced) the same window allocates exactly as often as with both hooks
//! off, once the first session has created its metric series: label sets
//! and trace vocabulary are borrowed literals. The data-packet hop alone
//! is pinned at zero by `zero_alloc_hop.rs`. Measured with a counting
//! `#[global_allocator]`, not asserted from inspection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fancy_core::prelude::*;
use fancy_net::Prefix;
use fancy_sim::metrics::{Labels, MetricsHub};
use fancy_sim::{
    Fib, LinkConfig, Network, PacketBuilder, PacketKind, SimDuration, SimTime, SinkNode,
    TraceEvent, TraceSink,
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

/// Counts what it is offered by kind and stores nothing — the shape of
/// the harness's flight filter on the events it does not keep.
#[derive(Clone, Default)]
struct CountingSink {
    fsm: Arc<AtomicU64>,
    ctrl: Arc<AtomicU64>,
    fwd: Arc<AtomicU64>,
    /// Reports sent (the receiving switch is the only one that sends them).
    reports: Arc<AtomicU64>,
}

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        // Statistics read after the run; nothing is published through them.
        if let TraceEvent::CounterExchange { body, dir, .. } = ev {
            if body == "report" && dir == "tx" {
                self.reports.fetch_add(1, Ordering::Relaxed);
            }
        }
        let counter = match ev {
            TraceEvent::FsmTransition { .. } => &self.fsm,
            TraceEvent::CounterExchange { .. } => &self.ctrl,
            TraceEvent::PacketForward { .. } => &self.fwd,
            other => panic!("a healthy link traced {other:?}"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

const DEDICATED: Prefix = Prefix(0x0A_00_00);
/// Data packets per window; only those that meet an open session are
/// tagged (a session spends part of its life in handshakes).
const BATCH: u64 = 12_288;
/// Tagged packets the measured window must carry.
const TAGGED: u64 = 4_096;
const SESSION: SimDuration = SimDuration::from_millis(1);
/// Sessions the measured window must complete.
const SESSIONS: u64 = 1_000;

/// Inject `BATCH` dedicated-entry packets into S1's host-side port,
/// evenly over a little more than `SESSIONS` session lengths from
/// `start`, and run until the last has drained into the far sink.
fn push_batch(net: &mut Network, s1: usize, start: SimTime) {
    let span = SESSION.as_nanos() * (SESSIONS + 50);
    for i in 0..BATCH {
        let kind = PacketKind::Udp { flow: 0, seq: i };
        let pkt = PacketBuilder::new(1, DEDICATED.host(1), 1000, kind);
        let at = start + SimDuration::from_nanos(i * span / BATCH);
        net.kernel.inject(s1, 0, pkt.build(), at);
    }
    net.run_until(start + SimDuration::from_nanos(span) + SimDuration::from_millis(10));
}

/// What the measured window did.
struct Window {
    allocs: u64,
    control_sent: u64,
    tagged: u64,
    /// Reports the receiving switch sent (counted by the sink; 0 when no
    /// sink is attached).
    reports: u64,
}

/// Build sink — S1 ══ S2 — sink with FANcY on S1's port 1, attach
/// `hooks` if given, warm up over one batch and measure the next.
fn window(hooks: Option<(MetricsHub, CountingSink)>) -> Window {
    // Millisecond sessions on a 10 µs link: a thousand complete
    // exchanges (dedicated and tree together) per simulated second.
    let mut timers = TimerConfig::paper_default().for_link_delay(SimDuration::from_micros(10));
    timers.dedicated_interval = SESSION;
    timers.zooming_interval = SESSION;
    let layout = FancyInput {
        high_priority: vec![DEDICATED],
        memory_bytes_per_port: 1 << 20,
        tree: TreeParams::paper_default(),
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
    net.connect(s1, s2, link);
    net.connect(s2, far, link);
    let probe = hooks.as_ref().map(|(_, sink)| Arc::clone(&sink.reports));
    let reports = || probe.as_ref().map_or(0, |r| r.load(Ordering::Relaxed));
    if let Some((hub, sink)) = hooks {
        net.kernel.set_metrics(hub);
        net.kernel.set_tracer(Box::new(sink));
    }

    // Warm-up: the first sessions create the metric series; one batch
    // sizes the pool, both lane heaps and the report buffers.
    push_batch(&mut net, s1, SimTime::ZERO);
    let warm = net.node::<FancySwitch>(s1).stats;

    let start = net.kernel.now();
    let reports_before = reports();
    let before = ALLOCS.with(Cell::get);
    assert!(before > 0, "counter is dead: set-up must have allocated");
    push_batch(&mut net, s1, start);
    let allocs = ALLOCS.with(Cell::get) - before;

    let stats = net.node::<FancySwitch>(s1).stats;
    assert_eq!(net.node::<SinkNode>(far).packets, 2 * BATCH);
    Window {
        allocs,
        control_sent: stats.control_sent - warm.control_sent,
        tagged: stats.tagged_packets - warm.tagged_packets,
        reports: reports() - reports_before,
    }
}

#[test]
fn observing_warm_counting_sessions_adds_no_allocation() {
    let hub = MetricsHub::new();
    let sink = CountingSink::default();
    let observed = window(Some((hub.clone(), sink.clone())));
    let plain = window(None);

    // Both windows held the same complete sessions and tagged packets…
    assert_eq!(observed.control_sent, plain.control_sent);
    assert_eq!(observed.tagged, plain.tagged);
    assert!(observed.tagged >= TAGGED, "{} tagged", observed.tagged);
    let transitions = |role: &'static str, to: &'static str| {
        let labels = Labels::new()
            .with("role", role)
            .with("subsystem", "fsm")
            .with("to", to);
        hub.snapshot()
            .counter("fancy_fsm_transitions_total", &labels)
            .unwrap_or(0)
    };
    // (counters cover warm-up and window, equal halves of one schedule)
    let (tx_done, rx_done) = (transitions("tx", "idle") / 2, transitions("rx", "idle") / 2);
    assert!(tx_done >= SESSIONS, "{tx_done} sender sessions per window");
    assert!(
        rx_done >= SESSIONS,
        "{rx_done} receiver sessions per window"
    );
    // …every one of them observed: a session is at least seven FSM
    // transitions and four messages, each seen from both ends…
    let fsm_traced = sink.fsm.load(Ordering::Relaxed) / 2;
    let ctrl_traced = sink.ctrl.load(Ordering::Relaxed) / 2;
    assert!(
        fsm_traced >= 7 * SESSIONS,
        "{fsm_traced} transitions traced"
    );
    assert!(
        ctrl_traced >= 8 * SESSIONS,
        "{ctrl_traced} exchanges traced"
    );
    assert!(sink.fwd.load(Ordering::Relaxed) >= 2 * BATCH);
    // …and observing them never reached the allocator.
    assert_eq!(
        observed.allocs, plain.allocs,
        "{tx_done} sessions and {} tagged packets: {} allocations observed, {} unobserved",
        observed.tagged, observed.allocs, plain.allocs
    );
}

#[test]
fn warm_counting_sessions_allocate_only_the_reports_they_send() {
    let w = window(Some((MetricsHub::new(), CountingSink::default())));
    assert!(w.reports >= SESSIONS, "{} Reports sent", w.reports);
    assert_eq!(
        w.allocs, w.reports,
        "{} allocations for {} Reports sent",
        w.allocs, w.reports
    );
}
