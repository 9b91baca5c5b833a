//! Per-layer probes that are independent of any one workload: unit
//! costs of public functions driven in a tight loop, and the FANcY
//! pipeline differential. Everything here calls the layers' public API
//! from outside; nothing in the simulator is instrumented.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fancy_bench::cache::{cell_key, CachedCell, CellCache, Fingerprint, Record};
use fancy_core::fsm::{ReceiverAction, SenderAction};
use fancy_core::{FancyInput, FancySwitch, ReceiverFsm, SenderFsm};
use fancy_core::{TimerConfig, TreeHasher, TreeParams, ZoomEngine};
use fancy_net::{ControlBody, Prefix};
use fancy_sim::event::{Event, EventQueue};
use fancy_sim::metrics::{Labels, Registry};
use fancy_sim::pool::PacketPool;
use fancy_sim::{
    Fib, LinkConfig, Network, NodeId, PacketBuilder, PacketKind, PlainSwitch, RingRecorder,
    SimDuration, SimTime, SinkNode, TelemetryCounters, TraceEvent, TraceSink,
};
use fancy_tcp::{FlowConfig, TcpFlow, UdpSource, DEFAULT_RTO};

use crate::workloads::{Env, Tracer};

/// Samples per unit cost; the floor is reported.
const SAMPLES: usize = 5;

/// How hard to drive each tight loop.
#[derive(Debug, Clone, Copy)]
struct Loop {
    /// Iteration counts are divided by this (1 = full size; the toy
    /// self-test runs a hundredth).
    div: u64,
}

impl Loop {
    /// Floor, over [`SAMPLES`] batches of `iters` calls, of ns per call.
    fn ns_per_op(self, iters: u64, mut f: impl FnMut(u64)) -> f64 {
        let iters = (iters / self.div).max(16);
        for i in 0..iters / 8 {
            f(i); // warm caches, grow buffers
        }
        let mut best = f64::INFINITY;
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for i in 0..iters {
                f(i);
            }
            best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        best
    }
}

fn packet(i: u64) -> fancy_sim::Packet {
    let mut p =
        PacketBuilder::new(1, 0x0A00_0001, 1500, PacketKind::Udp { flow: 0, seq: i }).build();
    p.uid = i + 1; // outside a kernel nothing else stamps uids
    p
}

/// One push + one pop at a steady backlog of `depth` events, the clock
/// advancing 10 µs per op so the wheel cursors sweep their buckets as in
/// a run. With `rto_mix`, one push in 16 is a 200 ms timer instead of a
/// near event: it goes through the overflow heap and its migration path
/// — the shape TCP retransmission timers give the queue. The queue is
/// pre-filled with the near backlog *and* 200 ms worth of in-flight far
/// timers, so one event comes due per step from the first op on and
/// pushes never land behind the pop cursor.
fn push_pop_ns(l: Loop, depth: u64, rto_mix: bool) -> f64 {
    const STEP: u64 = 10_000;
    const RTO: u64 = 200_000_000;
    // The near wheel spans 33.6 ms: keep the standing backlog inside it,
    // and wide enough that the far timers' phase never drains it.
    let depth = depth.clamp(32, 3_000);
    let mut q = EventQueue::new();
    let mut pool = PacketPool::new();
    let pkt = pool.insert(packet(0));
    for i in 0..depth {
        q.push_arrival(SimTime(i * STEP), 0, 0, pkt);
    }
    if rto_mix {
        for k in 0..RTO / (16 * STEP) {
            q.push_timer(SimTime(k * 16 * STEP), 1, k);
        }
    }
    let mut t = 0u64;
    l.ns_per_op(400_000, |i| {
        if rto_mix && i % 16 == 0 {
            q.push_timer(SimTime(t + RTO), 1, i);
        } else if rto_mix || i & 1 == 0 {
            q.push_arrival(SimTime(t + depth * STEP), 0, 0, pkt);
        } else {
            q.push_timer(SimTime(t + depth * STEP), 0, i);
        }
        if let Some((_, Event::Arrival { pkt, .. })) = q.pop() {
            black_box(pkt);
        }
        t += STEP;
    })
}

fn pool_insert_remove_ns(l: Loop) -> f64 {
    let mut pool = PacketPool::new();
    l.ns_per_op(1_000_000, |i| {
        let r = pool.insert(packet(i));
        black_box(pool.get(r).size);
        black_box(pool.remove(r));
    })
}

fn prefix(i: u64) -> Prefix {
    Prefix(((i % 4096) as u32) << 8)
}

fn tree_hash_path_ns(l: Loop, seed: u64) -> f64 {
    let hasher = TreeHasher::new(TreeParams::paper_default(), seed);
    l.ns_per_op(400_000, |i| {
        black_box(hasher.hash_path(prefix(i)));
    })
}

fn zoom_tag_and_count_ns(l: Loop, seed: u64) -> f64 {
    let mut zoom = ZoomEngine::new(TreeParams::paper_default(), seed);
    zoom.begin_session();
    l.ns_per_op(1_000_000, |i| {
        black_box(zoom.tag_and_count(prefix(i)));
    })
}

/// Closing a lossless counting session: reset plus the full
/// local-vs-remote comparison over every counter of the tree.
fn zoom_end_session_ns(l: Loop, seed: u64) -> f64 {
    let mut zoom = ZoomEngine::new(TreeParams::paper_default(), seed);
    let report = zoom.local_report(); // all zero: matches a fresh session
    l.ns_per_op(20_000, |_| {
        zoom.begin_session();
        black_box(zoom.end_session(&report));
    })
}

fn sender_epoch(actions: &[SenderAction]) -> u64 {
    actions
        .iter()
        .find_map(|a| match a {
            SenderAction::ArmTimer { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .expect("the sender FSM arms a timer on every state it waits in")
}

/// One complete counting session through both FSMs: Start, Start-ACK,
/// counting, Stop, T_wait, Report.
fn fsm_session_roundtrip_ns(l: Loop) -> f64 {
    let timers = TimerConfig::paper_default();
    let mut tx = SenderFsm::new(timers.dedicated_interval, timers);
    let mut rx = ReceiverFsm::new(timers);
    l.ns_per_op(200_000, |_| {
        black_box(tx.open());
        let sid = tx.session_id;
        black_box(rx.on_message(sid, &ControlBody::Start));
        let counting = tx.on_message(sid, &ControlBody::StartAck);
        rx.on_tagged_packet();
        black_box(tx.on_timer(sender_epoch(&counting)));
        let wait = rx.on_message(sid, &ControlBody::Stop);
        let epoch = wait
            .iter()
            .find_map(|a| match a {
                ReceiverAction::ArmTimer { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .expect("a Stop in the counting phase arms T_wait");
        black_box(rx.on_timer(epoch));
        black_box(tx.on_message(sid, &ControlBody::Report(vec![1])));
    })
}

/// One data packet's worth of sender-side TCP work: `send_new` plus the
/// `on_ack` that acknowledges it, with an RTO expiry every 64 packets.
fn tcp_ack_step_ns(l: Loop) -> f64 {
    let mut flow = TcpFlow::new(FlowConfig {
        rate_bps: 1_000_000_000,
        total_packets: u64::MAX / 2,
        pkt_size: 1500,
        initial_rto: DEFAULT_RTO,
    });
    let mut now = 0u64;
    l.ns_per_op(1_000_000, |i| {
        now += 12_000;
        if flow.can_send_new() {
            black_box(flow.send_new(SimTime(now)));
        }
        if i % 64 == 63 {
            black_box(flow.on_rto(SimTime(now + 120_000_000_000)));
        }
        let ack = flow.send_una + 1;
        black_box(flow.on_ack(ack, SimTime(now)));
    })
}

fn sample_event(i: u64) -> TraceEvent {
    TraceEvent::PacketForward {
        t: i * 1_000,
        link: 3,
        dir: i & 1,
        uid: i,
        entry: 0x0A00_0100,
        flow: Some(i % 97),
        size: 1500,
    }
}

fn trace_costs(l: Loop, t: &mut Tracer) {
    let mut ring = RingRecorder::new(1 << 16);
    let ev = sample_event(1);
    t.set(
        "trace.sink.ring_record_ns",
        l.ns_per_op(1_000_000, |_| ring.record(black_box(&ev))),
    );
    t.set(
        "trace.json.encode_ns",
        l.ns_per_op(200_000, |i| {
            black_box(sample_event(i).to_jsonl());
        }),
    );
    let line = ev.to_jsonl();
    t.set(
        "trace.json.parse_ns",
        l.ns_per_op(200_000, |_| {
            black_box(TraceEvent::parse_line(black_box(&line)).expect("own encoding parses"));
        }),
    );
}

/// A registry shaped like a switch's: counters, gauges and histograms
/// over a few dozen label sets.
fn populated_registry(salt: u64) -> Registry {
    let mut r = Registry::new();
    for port in 0..16u64 {
        let labels = || Labels::new().with("port", port.to_string());
        r.add("fancy_sessions", labels(), salt + port);
        r.gauge_max("fancy_queue_depth", labels(), salt * port);
        for v in 0..8 {
            r.observe("fancy_latency_ns", labels(), (salt + v) << (port % 20));
        }
    }
    r
}

fn metrics_costs(l: Loop, t: &mut Tracer) {
    let mut reg = populated_registry(1);
    t.set(
        "metrics.registry.inc_ns",
        l.ns_per_op(400_000, |i| {
            reg.inc(
                "fancy_sessions",
                Labels::new().with("port", (i % 16).to_string()),
            );
        }),
    );
    t.set(
        "metrics.registry.observe_ns",
        l.ns_per_op(400_000, |i| {
            reg.observe(
                "fancy_latency_ns",
                Labels::new().with("port", (i % 16).to_string()),
                i << (i % 24),
            );
        }),
    );
    let mut merged = populated_registry(2).snapshot();
    let other = populated_registry(3).snapshot();
    t.set(
        "metrics.snapshot.merge_ns",
        l.ns_per_op(50_000, |_| merged.merge(black_box(&other))),
    );
    t.set(
        "metrics.snapshot.jsonl_ns",
        l.ns_per_op(5_000, |_| {
            black_box(merged.to_jsonl());
        }),
    );
}

/// Store one cell record and load it back, as a cold-then-warm sweep
/// does per cell.
fn cache_store_load_us(l: Loop, dir: &Path) -> f64 {
    let cache = CellCache::new(dir);
    let salt = Fingerprint::new().with("fancy-benchmark");
    let mut result = Record::default();
    result.put_f64("tpr", 0.75);
    result.put_u64("detected", 1);
    let cell = CachedCell {
        telemetry: TelemetryCounters::default(),
        sim_nanos: 4_000_000_000,
        networks: 1,
        metrics: String::new(),
        result,
    };
    let ns = l.ns_per_op(400, |i| {
        let key = cell_key(&salt, &(i % 32), 7);
        assert!(
            cache.store(key, &cell),
            "cache dir {} is writable",
            dir.display()
        );
        black_box(cache.load(key).expect("a record just stored loads"));
    });
    std::fs::remove_dir_all(dir).ok();
    ns / 1e3
}

/// Which unit costs a workload reports beyond the kernel's: the layers
/// it exercises.
#[derive(Debug, Clone, Copy)]
pub struct UnitCostSet {
    /// `core` and `tcp`: every workload but `fwd_udp`.
    pub protocols: bool,
    /// `trace`, `metrics` and the cell cache: `backbone_netwide` only.
    pub observability: bool,
}

/// Measure the unit costs, with the scheduler driven at the queue depth
/// the workload was observed to reach.
pub fn unit_costs(t: &mut Tracer, which: UnitCostSet, depth: u64, env: &Env) {
    let l = Loop {
        div: if env.toy { 100 } else { 1 },
    };
    let seed = env.seed;
    let open = t.spans.enter("layers.unit_costs");
    t.set("sim.event.push_pop_near_ns", push_pop_ns(l, depth, false));
    t.set("sim.event.push_pop_rto_mix_ns", push_pop_ns(l, depth, true));
    t.set("sim.pool.insert_remove_ns", pool_insert_remove_ns(l));
    if which.protocols {
        t.set("core.tree.hash_path_ns", tree_hash_path_ns(l, seed));
        t.set("core.zoom.tag_and_count_ns", zoom_tag_and_count_ns(l, seed));
        t.set("core.zoom.end_session_ns", zoom_end_session_ns(l, seed));
        t.set("core.fsm.session_roundtrip_ns", fsm_session_roundtrip_ns(l));
        t.set("tcp.flow.ack_step_ns", tcp_ack_step_ns(l));
    }
    if which.observability {
        trace_costs(l, t);
        metrics_costs(l, t);
        let dir = env.tmp.join("unit-cache");
        t.set("bench.cache.store_load_us", cache_store_load_us(l, &dir));
    }
    t.spans.exit(open);
}

/// `source → switch → switch → sink` carrying 1 Gbps of 1500 B UDP over
/// 2 Gbps / 10 µs links, with either two `FancySwitch`es (the first
/// counting on its egress port) or two `PlainSwitch`es. Returns the
/// network and the sink's node id.
///
/// Built by hand: `ScenarioSpec::linear()` rejects UDP background
/// traffic, and the plain variant has no builder at all.
fn switch_pair(fancy: bool, seed: u64, sim: SimDuration) -> (Network, NodeId) {
    const SRC: u32 = 0x0100_0001;
    let link = LinkConfig::new(2_000_000_000, SimDuration::from_micros(10));
    let fib = || {
        let mut fib = Fib::new();
        fib.route(Prefix::from_addr(SRC), 0);
        fib.default_route(1);
        fib
    };
    let mut net = Network::new(seed);
    let src = net.add_node(Box::new(UdpSource::new(
        SRC,
        0x0A00_0001,
        1_000_000_000,
        1500,
        // Stop early so both variants have drained their last packet
        // when the run is cut off at `sim`.
        SimTime::ZERO + SimDuration::from_nanos(sim.as_nanos() / 10 * 9),
    )));
    let (s1, s2) = if fancy {
        let layout = FancyInput {
            timers: TimerConfig::paper_default().for_link_delay(link.delay),
            ..FancyInput::paper_default(Vec::new())
        }
        .translate()
        .expect("the paper's default layout fits its own budget");
        (
            net.add_node(Box::new(FancySwitch::new(
                fib(),
                layout.clone(),
                vec![1],
                seed,
            ))),
            net.add_node(Box::new(FancySwitch::new(
                fib(),
                layout,
                Vec::new(),
                seed + 1,
            ))),
        )
    } else {
        (
            net.add_node(Box::new(PlainSwitch::new(fib()))),
            net.add_node(Box::new(PlainSwitch::new(fib()))),
        )
    };
    let sink = net.add_node(Box::new(SinkNode::default()));
    net.connect(src, s1, link);
    net.connect(s1, s2, link);
    net.connect(s2, sink, link);
    (net, sink)
}

/// Extra host nanoseconds a packet costs per hop through the FANcY
/// pipeline (tag, count, session FSMs, zoom) over plain forwarding —
/// the number P4sim reports for programmable pipelines inside ns-3.
pub fn switch_pipeline_differential(t: &mut Tracer, env: &Env, sim: SimDuration) {
    let seed = env.seed;
    let open = t.spans.enter("layers.switch_pipeline");
    let mut floors = [f64::INFINITY; 2];
    let mut delivered = [0u64; 2];
    for _ in 0..env.probe_reps() {
        for (slot, fancy) in [false, true].into_iter().enumerate() {
            let (mut net, sink) = switch_pair(fancy, seed, sim);
            let name = if fancy {
                "layers.fancy_pair_run"
            } else {
                "layers.plain_pair_run"
            };
            // FANcY sessions re-arm forever: the queue never drains on its own.
            let ((), secs) = t.spans.time(name, || net.run_until(SimTime::ZERO + sim));
            floors[slot] = floors[slot].min(secs);
            delivered[slot] = net.node::<SinkNode>(sink).packets;
        }
    }
    t.spans.exit(open);
    // Both variants must have carried the same traffic for the
    // difference to mean anything.
    if delivered[0] == delivered[1] && delivered[0] > 0 {
        let hops = (delivered[0] * 2) as f64;
        t.set(
            "core.switch.ns_per_pkt_hop",
            (floors[1] - floors[0]) * 1e9 / hops,
        );
    } else {
        t.problem(format!(
            "switch differential: plain delivered {} packets, FANcY {}",
            delivered[0], delivered[1]
        ));
    }
}
