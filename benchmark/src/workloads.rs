//! The five workloads. Each one prepares its inputs from the seed
//! (`setup`), runs one closed-loop repetition of what a user runs
//! (`rep`), and can run a traced pass that times the public calls it
//! makes and reads the layers' own counters afterwards (`trace`).
//!
//! Why these five (one line each; README.md has the full table):
//! * `fwd_udp` — bare kernel, no protocol code: the control for every
//!   optimisation outside `sim.event`/`sim.pool`/`sim.link`.
//! * `caida_sweep` — what a Table 3 user runs: TCP hosts and the FANcY
//!   tag-and-count path dominate, trace preparation lands in set-up.
//! * `backbone_plain` — FANcY sessions on 400 directed links: the timer
//!   lane and the FSMs are the hot path.
//! * `backbone_sharded` — the same spec on the sharded executor: the
//!   only place barrier/exchange cost and worker scaling show.
//! * `backbone_netwide` — what `isp_backbone` runs: the only workload
//!   where recorder, metrics hubs, timeline replay and the sweep runner
//!   do work.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fancy_analysis::recovery::{self, RecoveryContract};
use fancy_analysis::timeline::TimelineReport;
use fancy_apps::{service_prefix, uniform_pair_flows, PairFlow, ScenarioSpec, ShardedScenario};
use fancy_bench::caida_exp::{
    load_table3_traces, run_table3_with, run_trace_failure, FailureOutcome, Table3Row,
};
use fancy_bench::env::Scale;
use fancy_bench::netwide::{
    directed_victim, run_netwide, NetwideConfig, NetwideReport, RECOVERY_LOSS_BUDGET_NS,
};
use fancy_bench::runner::Sweep;
use fancy_core::FancySwitch;
use fancy_net::mix64;
use fancy_sim::metrics::MetricsHub;
use fancy_sim::trace::merge_shard_streams;
use fancy_sim::{
    Bridge, DetectionRecord, DetectionScope, DropCause, GrayFailure, LinkConfig, Network, NodeId,
    SharedRecorder, SimDuration, SimTime, SinkNode, TelemetryCounters, TraceEvent, TraceSink,
};
use fancy_tcp::{FlowConfig, SenderHost, UdpSource};
use fancy_topo::{isp_backbone, BackupPlan, Partition, Routes, Topology};
use fancy_traffic::events::{compile, fnv1a64};
use fancy_traffic::{encode, paper_traces, synthesis_count, synthesize, EventsReader};

use crate::alloc;
use crate::layers::{self, UnitCostSet};
use crate::metrics;
use crate::span::Spans;

/// Workload names, in the order they interleave.
pub const NAMES: [&str; 5] = [
    "fwd_udp",
    "caida_sweep",
    "backbone_plain",
    "backbone_sharded",
    "backbone_netwide",
];

/// Worker threads `backbone_sharded`'s timed reps use: two where the
/// host has more than two CPUs, one otherwise — not the `min(2, nproc)`
/// a quiet host would deserve.
///
/// Two spinning workers keep both CPUs of a two-CPU guest busy, and how
/// fast they then run depends on where the hypervisor has put the two
/// vCPUs, which the guest neither sees nor controls. Measured on a 2-vCPU
/// guest, same build, same seed, no steal reported: 32 two-worker reps
/// over 2.5 minutes never beat 0.62 s, the next set's floor was 0.39 s,
/// and in between a traced run took 0.38 s; ten 22-second runs in a row
/// split 0.36–0.41 s / 0.47–0.50 s. One worker shows no such modes.
/// The count is stamped into every result file and `--compare` refuses
/// two files that disagree on it; the traced pass measures one *and* two
/// workers wherever there are two CPUs at all (`sim.shard.w2_speedup`)
/// and checks that both produce the same `sim_digest`.
pub fn sharded_workers() -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus > 2 {
        2
    } else {
        1
    }
}

/// What every workload is handed.
#[derive(Debug, Clone)]
pub struct Env {
    /// Every input derives from this.
    pub seed: u64,
    /// Toy sizes for the self-test: same code paths, a fraction of the
    /// simulated time.
    pub toy: bool,
    /// Worker threads for `backbone_sharded` (see [`sharded_workers`]);
    /// every other workload is single-threaded.
    pub workers: usize,
    /// Scratch directory inside the build directory.
    pub tmp: PathBuf,
}

impl Env {
    /// Repetitions of each spanned call in the traced pass; the floor is
    /// reported. (The toy self-test checks plumbing, not floors.)
    pub fn span_reps(&self) -> u32 {
        if self.toy {
            2
        } else {
            5
        }
    }

    /// Repetitions of the heavier probes (whole extra runs).
    pub fn probe_reps(&self) -> u32 {
        if self.toy {
            1
        } else {
            3
        }
    }
}

/// What one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    /// Hash of the run's simulated statistics; equal across reps of one
    /// seed, and across commits that change only speed.
    pub digest: u64,
    /// Events the kernel(s) dispatched, where the workload can see them.
    pub events: u64,
    /// Output checks that failed (empty = correct).
    pub problems: Vec<String>,
}

/// FNV-1a over the fed values (the repo's own `fnv1a64`).
#[derive(Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
        self
    }

    fn detections(&mut self, detections: &[DetectionRecord]) -> &mut Self {
        self.u64(detections.len() as u64);
        for d in detections {
            self.u64(d.time.0).u64(d.node as u64).u64(d.port as u64);
            match &d.scope {
                DetectionScope::Entry(p) => self.u64(0).u64(u64::from(p.0)),
                DetectionScope::HashPath(path) => self.u64(1).bytes(path),
                DetectionScope::Uniform => self.u64(2),
                DetectionScope::LinkDown => self.u64(3),
            };
            self.bytes(d.detector.metric_name().as_bytes());
        }
        self
    }

    fn telemetry(&mut self, t: &TelemetryCounters) -> &mut Self {
        self.u64(t.events_dispatched)
            .u64(t.packets_forwarded)
            .u64(t.packets_gray_dropped)
            .u64(t.congestion_drops)
    }

    pub fn finish(&self) -> u64 {
        fnv1a64(&self.0)
    }
}

/// The traced pass's collector: spans plus named per-layer values.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Spans,
    values: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
}

impl Tracer {
    /// Record a per-layer value. The name must be in the dictionary, so
    /// a typo cannot silently create a metric nobody documented.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::per_layer(name).is_some(),
            "'{name}' is not in metrics::PER_LAYER"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn values(&self) -> &BTreeMap<&'static str, f64> {
        &self.values
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// Keep the smaller of `value` and what `name` already holds.
    fn set_min(&mut self, name: &'static str, value: f64) {
        let best = self.get(name).map_or(value, |old| old.min(value));
        self.set(name, best);
    }

    /// Set `metric` from the sum of the spans called `metric` (a
    /// workload made of several cells spends the call once per cell).
    fn set_total(&mut self, metric: &'static str) {
        let total = self.spans.total_s(metric);
        self.set(metric, total);
    }

    /// Set `metric` from the shortest span called `metric`.
    fn set_floor(&mut self, metric: &'static str) {
        if let Some(s) = self.spans.floor_s(metric) {
            self.set(metric, s);
        }
    }
}

pub trait Workload {
    /// One-off input preparation from cold, self-timed: returns the
    /// seconds it took. Called several times; the last call's product is
    /// what the reps use.
    fn setup(&mut self, env: &Env) -> Result<f64, String>;

    /// One closed-loop repetition: returns when the run has finished.
    fn rep(&mut self, env: &Env) -> Result<RepOut, String>;

    /// The traced pass: spans around each public call, the layers'
    /// counters read afterwards, unit costs and differentials.
    fn trace(&mut self, env: &Env, t: &mut Tracer) -> Result<(), String>;
}

pub fn make(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fwd_udp" => Box::new(FwdUdp),
        "caida_sweep" => Box::new(CaidaSweep::default()),
        "backbone_plain" => Box::new(Backbone::new(false)),
        "backbone_sharded" => Box::new(Backbone::new(true)),
        "backbone_netwide" => Box::new(Netwide::default()),
        _ => return None,
    })
}

/// Everything the exact-count metrics read, summable over cells.
#[derive(Debug, Default, Clone)]
struct LayerCounts {
    telemetry: TelemetryCounters,
    tagged_packets: u64,
    control_sent: u64,
    sessions_completed: u64,
    detections: u64,
    data_packets: u64,
    retransmissions: u64,
    windows: u64,
    null_windows: u64,
    msgs: u64,
}

impl LayerCounts {
    fn add_switch(&mut self, sw: &FancySwitch, ports: impl Iterator<Item = usize>) {
        self.tagged_packets += sw.stats.tagged_packets;
        self.control_sent += sw.stats.control_sent;
        for port in ports {
            let (dedicated, tree) = sw.sessions_completed(port);
            self.sessions_completed += dedicated + tree;
        }
    }

    fn add_sender(&mut self, host: &SenderHost) {
        self.data_packets += host.stats.data_packets;
        self.retransmissions += host.stats.retransmissions;
    }

    /// Read one single-kernel scenario after its run. `both_ends`: graph
    /// scenarios count sessions upstream on both ends of every monitored
    /// edge, the linear shape only on `a`.
    fn add_scenario(&mut self, sc: &fancy_apps::Scenario, both_ends: bool) {
        self.telemetry.absorb(&sc.net.kernel.telemetry);
        self.detections += sc.net.kernel.records.detections.len() as u64;
        for &sw in &sc.switches {
            let ports = sc.monitored.iter().flat_map(|&e| {
                let edge = &sc.edges[e];
                let a = (edge.a == sw).then_some(edge.port_a);
                let b = (both_ends && edge.b == sw).then_some(edge.port_b);
                a.into_iter().chain(b)
            });
            self.add_switch(sc.net.node::<FancySwitch>(sw), ports);
        }
        for &host in &sc.senders {
            self.add_sender(sc.net.node::<SenderHost>(host));
        }
    }

    fn add_sharded(&mut self, sc: &ShardedScenario) {
        self.telemetry.absorb(&sc.merged_telemetry());
        self.detections += sc.detections().len() as u64;
        for (i, &(shard, local)) in sc.switch_loc.iter().enumerate() {
            let ports = sc.monitored.iter().flat_map(|&e| {
                let edge = &sc.edges[e];
                let a = ((edge.shard_a, edge.local_a) == (shard, local)).then_some(edge.port_a);
                let b = ((edge.shard_b, edge.local_b) == (shard, local)).then_some(edge.port_b);
                a.into_iter().chain(b)
            });
            self.add_switch(sc.net.shard(shard).node::<FancySwitch>(local), ports);
            let (hs, hl) = sc.sender_loc[i];
            self.add_sender(sc.net.shard(hs).node::<SenderHost>(hl));
        }
        for s in sc.net.stats() {
            self.windows += s.windows;
            self.null_windows += s.null_windows;
            self.msgs += s.msgs_sent;
        }
    }

    fn emit(&self, t: &mut Tracer) {
        let c = &self.telemetry;
        t.set("sim.kernel.events", c.events_dispatched as f64);
        t.set("sim.kernel.packet_arrivals", c.packet_arrivals as f64);
        t.set("sim.kernel.timers_fired", c.timers_fired as f64);
        t.set("sim.kernel.packets_forwarded", c.packets_forwarded as f64);
        t.set("sim.event.queue_high_water", c.queue_high_water as f64);
        t.set("sim.event.timer_high_water", c.timer_high_water as f64);
        t.set("sim.pool.high_water", c.pool_high_water as f64);
        t.set("sim.pool.recycled", c.pool_recycled as f64);
        t.set("sim.failure.gray_drops", c.packets_gray_dropped as f64);
        t.set("sim.link.congestion_drops", c.congestion_drops as f64);
        t.set("core.switch.tagged_packets", self.tagged_packets as f64);
        t.set("core.switch.control_sent", self.control_sent as f64);
        t.set(
            "core.fsm.sessions_completed",
            self.sessions_completed as f64,
        );
        t.set("core.zoom.detections", self.detections as f64);
        t.set("tcp.host.data_packets", self.data_packets as f64);
        t.set("tcp.host.retransmissions", self.retransmissions as f64);
        t.set("sim.shard.windows", self.windows as f64);
        t.set("sim.shard.null_windows", self.null_windows as f64);
        t.set("sim.shard.msgs", self.msgs as f64);
        let stall = if self.windows == 0 {
            0.0
        } else {
            self.null_windows as f64 / self.windows as f64
        };
        t.set("sim.shard.stall_ratio", stall);
    }
}

/// Allocation rates of one rep under the counting allocator.
fn emit_alloc_rates(t: &mut Tracer, heap: alloc::HeapUse, events: u64) {
    let kevents = (events as f64 / 1e3).max(1e-9);
    t.set("host.allocs_per_kevent", heap.allocs as f64 / kevents);
    t.set("host.alloc_bytes_per_kevent", heap.bytes as f64 / kevents);
}

/// Per-event cost and the share of run time the unit-cost model does
/// not explain. The model multiplies each unit cost by the exact count
/// of the operation it times; it is an estimate, not a profile — the
/// unattributed share is printed so nobody reads it as one.
fn emit_model(t: &mut Tracer, tcp_mix: bool, hooks_on: bool) {
    let (Some(run_s), Some(events)) = (t.get("sim.network.run_s"), t.get("sim.kernel.events"))
    else {
        return;
    };
    if events > 0.0 {
        t.set("sim.kernel.ns_per_event", run_s * 1e9 / events);
    }
    let term = |count: &str, cost_ns: &str| -> f64 {
        t.get(count).unwrap_or(0.0) * t.get(cost_ns).unwrap_or(0.0) / 1e9
    };
    let scheduler = if tcp_mix {
        "sim.event.push_pop_rto_mix_ns"
    } else {
        "sim.event.push_pop_near_ns"
    };
    let estimate = term("sim.kernel.events", scheduler)
        + term("sim.kernel.packets_forwarded", "sim.pool.insert_remove_ns")
        + term("core.switch.tagged_packets", "core.zoom.tag_and_count_ns")
        + t.get("core.fsm.sessions_completed").unwrap_or(0.0)
            * (t.get("core.fsm.session_roundtrip_ns").unwrap_or(0.0)
                + t.get("core.zoom.end_session_ns").unwrap_or(0.0))
            / 1e9
        + term("tcp.host.data_packets", "tcp.flow.ack_step_ns");
    // Only where the timed run itself had the hooks installed.
    let hooks = if hooks_on {
        term("trace.events_recorded", "trace.sink.ring_record_ns")
            + term("metrics.samples", "metrics.registry.observe_ns")
    } else {
        0.0
    };
    if run_s > 0.0 {
        t.set("model.unattributed_frac", 1.0 - (estimate + hooks) / run_s);
    }
}

/// How faithfully the hand-built cells of a traced pass match the
/// harness's own. Anything but event-for-event fails the pass: every
/// exact count of the workload would describe a different run.
fn emit_mirror(t: &mut Tracer, cells: usize, mirror_events: u64, harness_events: u64) {
    t.set("bench.mirror.cells", cells as f64);
    t.set(
        "bench.mirror.event_ratio",
        mirror_events as f64 / harness_events.max(1) as f64,
    );
    if mirror_events != harness_events {
        t.problem(format!(
            "rebuilt cells dispatched {mirror_events} events, the harness's {harness_events}: \
             the copy of its private cell set-up has drifted"
        ));
    }
}

/// Unit costs of a workload that runs FANcY and TCP with hooks off.
const PROTOCOL_COSTS: UnitCostSet = UnitCostSet {
    protocols: true,
    observability: false,
};

/// `on ÷ off − 1` over the floors of two span names.
fn overhead_frac(t: &Tracer, on: &str, off: &str) -> Option<f64> {
    Some(t.spans.floor_s(on)? / t.spans.floor_s(off)? - 1.0)
}

/// Hooks on vs off, same input: run `make()`'s network once with a
/// flight recorder installed and once with a metrics hub, `reps` times,
/// and compare the floors with the plain `sim.network.run_s` spans —
/// the "one branch when off" claim, measured from the other side.
fn probe_hooks<S>(
    t: &mut Tracer,
    reps: u32,
    until: SimTime,
    make: impl Fn() -> Result<S, String>,
    net: impl Fn(&mut S) -> &mut Network,
) -> Result<(), String> {
    for rep in 0..reps {
        t.spans.set_rep(rep);
        let mut scenario = make()?;
        let ring = SharedRecorder::new(1 << 16);
        net(&mut scenario).kernel.set_tracer(Box::new(ring.clone()));
        t.spans
            .time("probe.ring_on_run", || net(&mut scenario).run_until(until));
        let offered = ring.len() as f64 + ring.dropped() as f64;
        t.set("trace.events_recorded", offered);

        let mut scenario = make()?;
        let hub = MetricsHub::new();
        net(&mut scenario).kernel.set_metrics(hub.clone());
        t.spans
            .time("probe.hub_on_run", || net(&mut scenario).run_until(until));
        t.set("metrics.samples", hub.snapshot().len() as f64);
    }
    if let Some(f) = overhead_frac(t, "probe.ring_on_run", "sim.network.run_s") {
        t.set("trace.ring_on_overhead_frac", f);
    }
    if let Some(f) = overhead_frac(t, "probe.hub_on_run", "sim.network.run_s") {
        t.set("metrics.hub_on_overhead_frac", f);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// fwd_udp
// ---------------------------------------------------------------------

struct FwdUdp;

impl FwdUdp {
    fn sim_time(env: &Env) -> SimDuration {
        if env.toy {
            SimDuration::from_millis(20)
        } else {
            SimDuration::from_secs(15)
        }
    }

    /// `UdpSource` 1 Gbps × 1500 B → 6 two-port bridges → sink over
    /// 2 Gbps / 10 µs links: timers, TM admission, wire and arrivals with
    /// no protocol logic on top.
    fn chain(env: &Env) -> (Network, NodeId, NodeId) {
        let link = LinkConfig::new(2_000_000_000, SimDuration::from_micros(10));
        let mut net = Network::new(env.seed);
        let src = net.add_node(Box::new(UdpSource::new(
            1,
            0x0A00_0001,
            1_000_000_000,
            1500,
            SimTime::ZERO + Self::sim_time(env),
        )));
        let mut prev = src;
        for _ in 0..6 {
            let b = net.add_node(Box::new(Bridge::two_port()));
            net.connect(prev, b, link);
            prev = b;
        }
        let sink = net.add_node(Box::new(SinkNode::default()));
        net.connect(prev, sink, link);
        (net, src, sink)
    }

    fn finish(net: &Network, src: NodeId, sink: NodeId) -> RepOut {
        let sent = net.node::<UdpSource>(src).sent();
        let got = net.node::<SinkNode>(sink);
        let mut problems = Vec::new();
        if got.packets != sent || sent == 0 {
            problems.push(format!(
                "sink saw {} packets, source sent {sent}",
                got.packets
            ));
        }
        let mut d = Digest::default();
        d.telemetry(&net.kernel.telemetry)
            .u64(sent)
            .u64(got.packets)
            .u64(got.bytes);
        RepOut {
            digest: d.finish(),
            events: net.kernel.telemetry.events_dispatched,
            problems,
        }
    }
}

impl Workload for FwdUdp {
    fn setup(&mut self, env: &Env) -> Result<f64, String> {
        // The only input is the network itself (microseconds; the caller
        // batches set-ups until a sample is long enough to time).
        let start = Instant::now();
        std::hint::black_box(Self::chain(env));
        Ok(start.elapsed().as_secs_f64())
    }

    fn rep(&mut self, env: &Env) -> Result<RepOut, String> {
        let (mut net, src, sink) = Self::chain(env);
        net.run_to_end();
        Ok(Self::finish(&net, src, sink))
    }

    fn trace(&mut self, env: &Env, t: &mut Tracer) -> Result<(), String> {
        let mut counts = LayerCounts::default();
        for rep in 0..env.span_reps() {
            t.spans.set_rep(rep);
            let open = t.spans.enter("rep");
            let (mut net, src, sink) = Self::chain(env);
            t.spans.time("sim.network.run_s", || net.run_to_end());
            t.spans.exit(open);
            let out = Self::finish(&net, src, sink);
            out.problems.into_iter().for_each(|p| t.problem(p));
            if rep == 0 {
                counts.telemetry = net.kernel.telemetry;
            }
        }
        t.set_floor("sim.network.run_s");
        counts.emit(t);
        if let Some(run_s) = t.get("sim.network.run_s") {
            // Every arrival is one packet crossing one hop.
            let hops = counts.telemetry.packet_arrivals.max(1) as f64;
            t.set("sim.kernel.ns_per_pkt_hop", run_s * 1e9 / hops);
        }

        t.spans.set_rep(0);
        let (out, heap) = alloc::counted(|| self.rep(env));
        emit_alloc_rates(t, heap, out?.events);

        probe_hooks(
            t,
            env.probe_reps(),
            SimTime::FAR_FUTURE,
            || Ok(Self::chain(env).0),
            |net| net,
        )?;

        let sim = Self::sim_time(env);
        layers::switch_pipeline_differential(t, env, SimDuration::from_nanos(sim.as_nanos() / 5));
        // The kernel alone: nothing above it runs in this workload.
        let which = UnitCostSet {
            protocols: false,
            observability: false,
        };
        layers::unit_costs(t, which, counts.telemetry.queue_high_water, env);
        emit_model(t, false, false);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// caida_sweep
// ---------------------------------------------------------------------

#[derive(Default)]
struct CaidaSweep {
    dir: PathBuf,
}

/// The loss rate of the swept Table 3 column (percent).
const CAIDA_LOSS_PCT: f64 = 10.0;

impl CaidaSweep {
    fn scale(env: &Env) -> Scale {
        Scale {
            reps: 1,
            duration: if env.toy {
                SimDuration::from_millis(200)
            } else {
                SimDuration::from_secs(12)
            },
            multi_entries: 20,
            trace_scale: if env.toy { 0.003 } else { 0.01 },
            trace_failures: if env.toy { 2 } else { 6 },
            full: false,
        }
    }

    fn digest(rows: &[Table3Row]) -> u64 {
        let mut d = Digest::default();
        for r in rows {
            d.f64(r.loss_pct)
                .f64(r.tpr_bytes)
                .f64(r.tpr_prefixes)
                .f64(r.tpr_dedicated)
                .f64(r.tpr_tree)
                .f64(r.detection_s)
                .f64(r.false_positives);
        }
        d.finish()
    }

    /// Does `row`, as `run_table3_with` returned it, aggregate exactly
    /// these cell outcomes? The harness's arithmetic in the harness's
    /// order, so agreement is to the bit.
    fn row_aggregates(row: &Table3Row, outcomes: &[FailureOutcome], scale: &Scale) -> bool {
        let total_w: f64 = outcomes.iter().map(|o| o.weight).sum();
        let det_w: f64 = outcomes
            .iter()
            .filter(|o| o.detection_s.is_some())
            .map(|o| o.weight)
            .sum();
        let tpr_bytes = if total_w > 0.0 { det_w / total_w } else { 0.0 };
        let times: Vec<f64> = outcomes.iter().filter_map(|o| o.detection_s).collect();
        let detection_s = if times.is_empty() {
            scale.duration.as_secs_f64()
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        };
        let false_positives = outcomes
            .iter()
            .map(|o| o.false_positives as f64)
            .sum::<f64>()
            / outcomes.len().max(1) as f64;
        [tpr_bytes, detection_s, false_positives].map(f64::to_bits)
            == [row.tpr_bytes, row.detection_s, row.false_positives].map(f64::to_bits)
    }

    /// The stratified failure sample `run_table3_with` draws for one
    /// trace — rebuilt here because the harness keeps it private and
    /// returns no per-cell data. The traced pass fails if a sweep over
    /// this sample stops aggregating to the harness's row.
    fn sample_failures(prefixes: usize, n: usize, seed: u64) -> Vec<usize> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let top = ((prefixes as f64 * 0.04) as usize).max(n).min(prefixes);
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let lo = i * top / n;
                let hi = ((i + 1) * top / n).max(lo + 1);
                rng.gen_range(lo..hi)
            })
            .collect()
    }
}

impl Workload for CaidaSweep {
    /// Cold trace preparation: synthesize and compile the two Table 5
    /// traces into an empty directory.
    fn setup(&mut self, env: &Env) -> Result<f64, String> {
        self.dir = env.tmp.join("caida-traces");
        std::fs::remove_dir_all(&self.dir).ok();
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let start = Instant::now();
        let handles = load_table3_traces(&Self::scale(env), env.seed, Some(&self.dir));
        let secs = start.elapsed().as_secs_f64();
        if handles.iter().any(|h| !h.compiled()) {
            return Err(format!(
                "traces did not compile into {}",
                self.dir.display()
            ));
        }
        Ok(secs)
    }

    fn rep(&mut self, env: &Env) -> Result<RepOut, String> {
        let synthesized = synthesis_count();
        let rows = run_table3_with(
            &Self::scale(env),
            env.seed,
            &[CAIDA_LOSS_PCT],
            Some(&self.dir),
        )
        .map_err(|e| e.to_string())?;
        let mut problems = Vec::new();
        if synthesis_count() != synthesized {
            problems
                .push("rep re-synthesized a trace instead of replaying its .events file".into());
        }
        if rows.len() != 1 {
            problems.push(format!("expected one Table 3 row, got {}", rows.len()));
        }
        Ok(RepOut {
            digest: Self::digest(&rows),
            events: 0,
            problems,
        })
    }

    fn trace(&mut self, env: &Env, t: &mut Tracer) -> Result<(), String> {
        let scale = Self::scale(env);
        let specs = &paper_traces()[..2];
        let probe_dir = env.tmp.join("caida-probe");
        std::fs::create_dir_all(&probe_dir).map_err(|e| e.to_string())?;

        // Set-up phases, call by call (floor of 5, summed over both traces).
        for rep in 0..env.span_reps() {
            t.spans.set_rep(rep);
            let mut sums = [0.0f64; 5];
            for spec in specs {
                let seed = env.seed ^ u64::from(spec.id);
                let (trace, s) = t.spans.time("probe.synthesize", || {
                    synthesize(*spec, scale.duration, scale.trace_scale, seed)
                });
                sums[0] += s;
                let (frame, s) = t.spans.time("probe.encode", || encode(&trace));
                frame.map_err(|e| e.to_string())?;
                sums[1] += s;
                let path = probe_dir.join(format!("probe-{}.events", spec.id));
                let (done, s) = t.spans.time("probe.compile", || compile(&trace, &path));
                done.map_err(|e| e.to_string())?;
                sums[2] += s;
                let (reader, s) = t.spans.time("probe.open", || EventsReader::open(&path));
                let reader = reader.map_err(|e| e.to_string())?;
                sums[3] += s;
                let (back, s) = t.spans.time("probe.to_trace", || reader.to_trace());
                sums[4] += s;
                if back.flows != trace.flows {
                    t.problem(format!("trace {} did not replay bit-exactly", spec.id));
                }
            }
            const NAMES: [&str; 5] = [
                "traffic.caida.synthesize_s",
                "traffic.events.encode_s",
                "traffic.events.compile_s",
                "traffic.reader.open_s",
                "traffic.reader.to_trace_s",
            ];
            for (name, sum) in NAMES.into_iter().zip(sums) {
                t.set_min(name, sum);
            }
        }

        // In-process synthesis vs `.events` replay at full trace scale
        // (the first Table 5 trace: ~340 k flows, ~12 MB on disk).
        let big_scale = if env.toy { 0.01 } else { 1.0 };
        let spec = specs[0];
        let mut rates = [0.0f64; 2];
        for rep in 0..env.probe_reps() {
            t.spans.set_rep(rep);
            let (trace, synth_s) = t.spans.time("probe.synthesize_full", || {
                synthesize(spec, scale.duration, big_scale, env.seed)
            });
            let path = probe_dir.join("probe-full.events");
            compile(&trace, &path).map_err(|e| e.to_string())?;
            let (back, replay_s) = t.spans.time("probe.replay_full", || {
                EventsReader::open(&path).map(|r| r.to_trace())
            });
            let back = back.map_err(|e| e.to_string())?;
            let mflows = trace.flows.len() as f64 / 1e6;
            if back.flows.len() != trace.flows.len() {
                t.problem("full-scale replay lost flows".into());
            }
            rates[0] = rates[0].max(mflows / synth_s);
            rates[1] = rates[1].max(mflows / replay_s);
        }
        t.set("traffic.caida.mflows_per_s", rates[0]);
        t.set("traffic.reader.mflows_per_s", rates[1]);
        std::fs::remove_dir_all(&probe_dir).ok();

        // The sweep the rep runs, rebuilt from public pieces so cells can
        // be timed and their counters read.
        let handles = load_table3_traces(&scale, env.seed, Some(&self.dir));
        let per_trace = scale.trace_failures / handles.len().max(1);
        let jobs: Vec<(usize, usize)> = handles
            .iter()
            .enumerate()
            .flat_map(|(ti, h)| {
                Self::sample_failures(
                    h.trace.prefixes_by_rank.len(),
                    per_trace,
                    env.seed ^ ti as u64,
                )
                .into_iter()
                .map(move |rank| (ti, rank))
            })
            .collect();
        let sweep_seed = mix64(env.seed ^ (CAIDA_LOSS_PCT as u64) << 32);
        let rows = run_table3_with(&scale, env.seed, &[CAIDA_LOSS_PCT], Some(&self.dir))
            .map_err(|e| e.to_string())?;
        let mut harness_events = 0;
        for rep in 0..env.probe_reps() {
            t.spans.set_rep(rep);
            let cell_times = Mutex::new(Vec::new());
            let open = t.spans.enter("probe.sweep");
            let result = Sweep::new("fancy-benchmark caida", jobs.clone())
                .threads(1)
                .seed(sweep_seed)
                .try_run(|&(ti, rank), ctx| {
                    let start = Instant::now();
                    let out = run_trace_failure(
                        &handles[ti].trace,
                        rank,
                        CAIDA_LOSS_PCT,
                        scale.duration,
                        ctx,
                    );
                    cell_times
                        .lock()
                        .expect("single-threaded sweep")
                        .push(start.elapsed().as_secs_f64());
                    out
                });
            let sweep_s = t.spans.exit(open);
            let (outcomes, report) = result.map_err(|e| e.to_string())?;
            let agrees = matches!(&rows[..], [row] if Self::row_aggregates(row, &outcomes, &scale));
            if rep == 0 && !agrees {
                t.problem(
                    "run_table3_with's row is not the aggregate of the sweep rebuilt from \
                     public pieces: the copy of its failure sample has drifted"
                        .into(),
                );
            }
            if report.cache_hits != 0 {
                t.problem(format!(
                    "sweep served {} cells from a cache",
                    report.cache_hits
                ));
            }
            harness_events = report.telemetry.events_dispatched;
            let cells = cell_times.into_inner().expect("single-threaded sweep");
            let total: f64 = cells.iter().sum();
            let mean = total / cells.len().max(1) as f64;
            t.set_min("bench.caida_exp.cell_s", mean);
            t.set_min("bench.runner.sweep_overhead_s", (sweep_s - total).max(0.0));
        }

        // The same cells once more, assembled by hand, so the switches'
        // and hosts' own counters can be read after each run.
        let sweep = Sweep::new("seeds", jobs.clone())
            .threads(1)
            .seed(sweep_seed);
        let mut counts = LayerCounts::default();
        let (run, heap) = alloc::counted(|| -> Result<(), String> {
            for (i, &(ti, rank)) in jobs.iter().enumerate() {
                let trace = &handles[ti].trace;
                let seed = sweep.cell_seed(i);
                let failed = trace.prefixes_by_rank[rank];
                // 500 dedicated counters per 250 K prefixes, as the harness scales it.
                let dedicated = (trace.prefixes_by_rank.len() as f64 * (500.0 / 250_000.0))
                    .round()
                    .max(4.0) as usize;
                let (sc, _) = t.spans.time("apps.spec.build_s", || {
                    ScenarioSpec::linear()
                        .seed(seed)
                        .flows(trace.flows.clone())
                        .high_priority(trace.top_prefixes(dedicated))
                        .build()
                });
                let mut sc = sc.map_err(|e| e.to_string())?;
                let fail_at = {
                    use rand::rngs::SmallRng;
                    use rand::{Rng, SeedableRng};
                    let horizon = scale.duration.as_secs_f64();
                    let at = SmallRng::seed_from_u64(seed ^ 0xFA11)
                        .gen_range(1.0..(horizon * 0.4).max(1.5));
                    SimTime::ZERO + SimDuration::from_secs_f64(at)
                };
                sc.fail(GrayFailure::single_entry(
                    failed,
                    CAIDA_LOSS_PCT / 100.0,
                    fail_at,
                ));
                let until = SimTime::ZERO + scale.duration;
                t.spans
                    .time("sim.network.run_s", || sc.net.run_until(until));
                counts.add_scenario(&sc, false);
            }
            Ok(())
        });
        run?;
        t.set_total("apps.spec.build_s");
        t.set_total("sim.network.run_s");
        counts.emit(t);
        emit_alloc_rates(t, heap, counts.telemetry.events_dispatched);
        emit_mirror(
            t,
            jobs.len(),
            counts.telemetry.events_dispatched,
            harness_events,
        );

        layers::unit_costs(t, PROTOCOL_COSTS, counts.telemetry.queue_high_water, env);
        emit_model(t, true, false);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// backbone_plain / backbone_sharded
// ---------------------------------------------------------------------

struct Backbone {
    sharded: bool,
    topo: Option<Topology>,
}

fn backbone_switches(env: &Env) -> usize {
    if env.toy {
        12
    } else {
        100
    }
}

fn backbone_sim_secs(env: &Env) -> f64 {
    if env.toy {
        0.2
    } else {
        4.0
    }
}

impl Backbone {
    fn new(sharded: bool) -> Self {
        Backbone {
            sharded,
            topo: None,
        }
    }

    fn topo(&self) -> Result<&Topology, String> {
        self.topo
            .as_ref()
            .ok_or_else(|| "rep before setup".to_owned())
    }

    /// FANcY on every edge in both directions, two 2 Mbps TCP flows per
    /// switch for the whole run, no failure, hooks off.
    fn spec(topo: &Topology, env: &Env) -> ScenarioSpec {
        let flows = uniform_pair_flows(topo.len(), 2, 2_000_000, backbone_sim_secs(env), env.seed);
        ScenarioSpec::topology(topo.clone())
            .seed(env.seed)
            .pair_flows(flows)
    }

    fn until(env: &Env) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(backbone_sim_secs(env))
    }

    fn out(telemetry: &TelemetryCounters, detections: &[DetectionRecord]) -> RepOut {
        let mut d = Digest::default();
        d.telemetry(telemetry).detections(detections);
        let mut problems = Vec::new();
        if telemetry.packets_forwarded == 0 {
            problems.push("no packet was forwarded".to_owned());
        }
        RepOut {
            digest: d.finish(),
            events: telemetry.events_dispatched,
            problems,
        }
    }

    fn run_plain(
        topo: &Topology,
        env: &Env,
        spans: &mut Spans,
    ) -> Result<fancy_apps::Scenario, String> {
        let (sc, _) = spans.time("apps.spec.build_s", || Self::spec(topo, env).build());
        let mut sc = sc.map_err(|e| e.to_string())?;
        spans.time("sim.network.run_s", || sc.net.run_until(Self::until(env)));
        Ok(sc)
    }

    fn run_sharded(
        topo: &Topology,
        env: &Env,
        workers: usize,
        run_span: &str,
        spans: &mut Spans,
    ) -> Result<ShardedScenario, String> {
        let (sc, _) = spans.time("apps.sharded.build_sharded_s", || {
            Self::spec(topo, env).build_sharded()
        });
        let mut sc = sc.map_err(|e| e.to_string())?;
        spans.time(run_span, || sc.run_until(Self::until(env), workers));
        Ok(sc)
    }

    /// Topology-layer phases behind `setup_s` on every backbone workload.
    fn trace_topology_phases(env: &Env, t: &mut Tracer) -> Result<(), String> {
        for rep in 0..env.span_reps() {
            t.spans.set_rep(rep);
            let (topo, _) = t.spans.time("topo.generators.isp_backbone_s", || {
                isp_backbone(backbone_switches(env), env.seed)
            });
            let topo = topo.map_err(|e| e.to_string())?;
            let (routes, _) = t
                .spans
                .time("topo.routes.compute_s", || Routes::compute(&topo));
            let routes = routes.map_err(|e| e.to_string())?;
            t.spans.time("topo.spider.backup_plan_s", || {
                BackupPlan::compute_partial(&topo, &routes, 0, topo.edges[0].a)
            });
            t.spans
                .time("topo.partition.compute_s", || Partition::compute(&topo));
        }
        for name in [
            "topo.generators.isp_backbone_s",
            "topo.routes.compute_s",
            "topo.spider.backup_plan_s",
            "topo.partition.compute_s",
        ] {
            t.set_floor(name);
        }
        Ok(())
    }
}

impl Workload for Backbone {
    fn setup(&mut self, env: &Env) -> Result<f64, String> {
        let start = Instant::now();
        let topo = isp_backbone(backbone_switches(env), env.seed).map_err(|e| e.to_string())?;
        let secs = start.elapsed().as_secs_f64();
        self.topo = Some(topo);
        Ok(secs)
    }

    fn rep(&mut self, env: &Env) -> Result<RepOut, String> {
        let topo = self.topo()?;
        let mut unused = Spans::default();
        if self.sharded {
            let sc = Self::run_sharded(topo, env, env.workers, "run", &mut unused)?;
            Ok(Self::out(&sc.merged_telemetry(), &sc.detections()))
        } else {
            let sc = Self::run_plain(topo, env, &mut unused)?;
            Ok(Self::out(
                &sc.net.kernel.telemetry,
                &sc.net.kernel.records.detections,
            ))
        }
    }

    fn trace(&mut self, env: &Env, t: &mut Tracer) -> Result<(), String> {
        Self::trace_topology_phases(env, t)?;
        let topo = self.topo()?.clone();
        let mut counts = LayerCounts::default();

        if self.sharded {
            for rep in 0..env.span_reps() {
                t.spans.set_rep(rep);
                let open = t.spans.enter("rep");
                let sc =
                    Self::run_sharded(&topo, env, env.workers, "sim.network.run_s", &mut t.spans)?;
                t.spans.exit(open);
                if rep == 0 {
                    counts.add_sharded(&sc);
                }
            }
            t.set_floor("apps.sharded.build_sharded_s");
            // Same spec on one kernel, and sharded on one and two workers:
            // what the windowed executor costs, what the second worker buys.
            let two_cpus = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
            for rep in 0..env.probe_reps() {
                t.spans.set_rep(rep);
                let plain = {
                    let mut sc = Self::spec(&topo, env).build().map_err(|e| e.to_string())?;
                    t.spans
                        .time("probe.plain_run", || sc.net.run_until(Self::until(env)));
                    sc.net.kernel.telemetry.events_dispatched
                };
                let one = Self::run_sharded(&topo, env, 1, "probe.sharded_w1_run", &mut t.spans)?;
                if plain != one.merged_telemetry().events_dispatched {
                    t.problem("sharded and plain runs dispatched different event counts".into());
                }
                // With one CPU there is no second worker to measure.
                if two_cpus {
                    let two =
                        Self::run_sharded(&topo, env, 2, "probe.sharded_w2_run", &mut t.spans)?;
                    let digest = |sc: &ShardedScenario| {
                        Self::out(&sc.merged_telemetry(), &sc.detections()).digest
                    };
                    if rep == 0 && digest(&one) != digest(&two) {
                        t.problem("one and two workers produced different sim_digests".into());
                    }
                }
            }
            if let Some(f) = overhead_frac(t, "probe.sharded_w1_run", "probe.plain_run") {
                t.set("sim.shard.w1_overhead_frac", f);
            }
            if let (Some(w1), Some(w2)) = (
                t.spans.floor_s("probe.sharded_w1_run"),
                t.spans.floor_s("probe.sharded_w2_run"),
            ) {
                t.set("sim.shard.w2_speedup", w1 / w2);
            }
        } else {
            for rep in 0..env.span_reps() {
                t.spans.set_rep(rep);
                let open = t.spans.enter("rep");
                let sc = Self::run_plain(&topo, env, &mut t.spans)?;
                t.spans.exit(open);
                if rep == 0 {
                    counts.add_scenario(&sc, true);
                }
            }
            t.set_floor("apps.spec.build_s");
            probe_hooks(
                t,
                env.probe_reps(),
                Self::until(env),
                || Self::spec(&topo, env).build().map_err(|e| e.to_string()),
                |sc| &mut sc.net,
            )?;
        }
        t.set_floor("sim.network.run_s");
        counts.emit(t);

        t.spans.set_rep(0);
        let (out, heap) = alloc::counted(|| self.rep(env));
        emit_alloc_rates(t, heap, out?.events);

        layers::unit_costs(t, PROTOCOL_COSTS, counts.telemetry.queue_high_water, env);
        emit_model(t, true, false);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// backbone_netwide
// ---------------------------------------------------------------------

#[derive(Default)]
struct Netwide {
    topo: Option<Topology>,
    edges: Vec<usize>,
}

/// The quick-scale `Scale` the `isp_backbone` example runs at. The
/// network-wide cells fix their own duration (4 sim-s); the scale only
/// salts the (disabled) cell cache.
const QUICK_SCALE: Scale = Scale {
    reps: 3,
    duration: SimDuration::from_secs(12),
    multi_entries: 20,
    trace_scale: 0.01,
    trace_failures: 36,
    full: false,
};

/// The harness's flight-recorder filter (private there): every event
/// the kernel offers is counted, only the causal chain of a failure
/// episode — gray drops, detections, reroute decisions — is kept.
#[derive(Clone, Default)]
struct FlightSink {
    offered: Arc<AtomicU64>,
    kept: Arc<Mutex<Vec<TraceEvent>>>,
}

impl FlightSink {
    fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    fn kept(&self) -> Vec<TraceEvent> {
        self.kept
            .lock()
            .expect("no recorder panics while locked")
            .clone()
    }
}

impl TraceSink for FlightSink {
    fn record(&mut self, ev: &TraceEvent) {
        // A statistic read after the run; nothing is published through it.
        self.offered.fetch_add(1, Ordering::Relaxed);
        let keep = matches!(
            ev,
            TraceEvent::Reroute { .. }
                | TraceEvent::Detection { .. }
                | TraceEvent::Failover { .. }
                | TraceEvent::RerouteDamp { .. }
                | TraceEvent::BackupAlarm { .. }
                | TraceEvent::PacketDrop {
                    cause: DropCause::Gray | DropCause::NoBackup,
                    ..
                }
        );
        if keep {
            self.kept
                .lock()
                .expect("no recorder panics while locked")
                .push(ev.clone());
        }
    }
}

impl Netwide {
    fn config(&self) -> NetwideConfig {
        NetwideConfig {
            edges: Some(self.edges.clone()),
            threads: 1,
            shards: 1,
            ..NetwideConfig::default()
        }
    }

    fn out(report: &NetwideReport) -> RepOut {
        let mut d = Digest::default();
        let mut events = 0;
        for o in &report.outcomes {
            d.u64(o.edge as u64)
                .u64(u64::from(o.carries_traffic))
                .u64(u64::from(o.detected))
                .f64(o.detection_s)
                .u64(o.cross_talk)
                .u64(u64::from(o.protected))
                .f64(o.reroute_s)
                .f64(o.bound_s)
                .u64(u64::from(o.recovery_ok))
                .u64(o.flaps);
            for s in &o.shard_stats {
                d.u64(s.events).u64(s.windows).u64(s.msgs_sent);
                events += s.events;
            }
        }
        let mut problems = Vec::new();
        if report.coverage < 1.0 {
            problems.push(format!("coverage {} < 1", report.coverage));
        }
        if report.recovery_violations > 0 {
            problems.push(format!(
                "{} recovery violation(s)",
                report.recovery_violations
            ));
        }
        RepOut {
            digest: d.finish(),
            events,
            problems,
        }
    }

    fn run(&self, env: &Env) -> Result<NetwideReport, String> {
        let topo = self.topo.as_ref().ok_or("rep before setup")?;
        run_netwide(topo, &self.config(), &QUICK_SCALE, env.seed).map_err(|e| e.to_string())
    }

    /// One failed-edge cell assembled by hand the way the harness's
    /// private `run_edge_cell` does — same flows, same per-shard recorder
    /// filter and metrics hubs — but with sinks that can be read back
    /// afterwards. `bench.mirror.event_ratio` reports whether it still
    /// matches the harness event for event.
    fn mirror_cell(
        topo: &Topology,
        routes: &Routes,
        cfg: &NetwideConfig,
        edge: usize,
        seed: u64,
        t: &mut Tracer,
        counts: &mut LayerCounts,
    ) -> Result<(), String> {
        let Some((src, dst)) = directed_victim(topo, routes, edge) else {
            return Ok(());
        };
        let victim = service_prefix(dst);
        let fail_at = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
        let mut flows =
            uniform_pair_flows(topo.len(), cfg.per_switch_flows, cfg.rate_bps, 1.0, seed);
        for k in 0..4u64 {
            for rep in 0..4u64 {
                flows.push(PairFlow {
                    src,
                    dst,
                    start: SimTime(
                        rep * 1_000_000_000 + k * 130_000_000 + (mix64(seed ^ k) % 50_000_000),
                    ),
                    cfg: FlowConfig::for_rate(cfg.rate_bps, 1.0),
                });
            }
        }
        let spec = || {
            ScenarioSpec::topology(topo.clone())
                .seed(seed)
                .high_priority(vec![victim])
                .pair_flows(flows.clone())
        };
        let name = topo.edges[edge].name.clone();
        let (built, _) = t.spans.time("apps.sharded.build_sharded_s", || {
            spec().protect(&name).build_sharded().or_else(|e| match e {
                fancy_apps::ScenarioError::PathGroup { .. } => spec().build_sharded(),
                e => Err(e),
            })
        });
        let mut sc = built.map_err(|e| e.to_string())?;
        let recorders: Vec<FlightSink> = (0..sc.shard_count())
            .map(|s| {
                let r = FlightSink::default();
                sc.net.shard_mut(s).kernel.set_tracer(Box::new(r.clone()));
                sc.net.shard_mut(s).kernel.set_metrics(MetricsHub::new());
                r
            })
            .collect();
        sc.fail_edge(edge, GrayFailure::single_entry(victim, cfg.loss, fail_at));
        let until = SimTime::ZERO + SimDuration::from_secs(4);
        t.spans.time("sim.network.run_s", || sc.run_until(until, 1));

        let recorded: u64 = recorders.iter().map(FlightSink::offered).sum();
        let samples = sc.merged_metrics().len() as u64;
        t.set(
            "trace.events_recorded",
            t.get("trace.events_recorded").unwrap_or(0.0) + recorded as f64,
        );
        t.set(
            "metrics.samples",
            t.get("metrics.samples").unwrap_or(0.0) + samples as f64,
        );

        // What the harness does with the recorded stream per protected cell.
        let streams = recorders.iter().map(FlightSink::kept).collect();
        t.spans.time("analysis.timeline.replay_s", || {
            let events = merge_shard_streams(streams);
            let timeline = TimelineReport::from_events(&events);
            if let Some(p) = sc.protected.first() {
                let mut contract = RecoveryContract::new(
                    u64::from(victim.0),
                    p.bound.as_nanos(),
                    RECOVERY_LOSS_BUDGET_NS,
                );
                contract.onset_ns = sc.first_drop(victim).map(|at| at.0);
                std::hint::black_box(recovery::verify(&events, &contract));
            }
            std::hint::black_box(timeline.first_reroute_ns)
        });
        counts.add_sharded(&sc);
        Ok(())
    }
}

impl Workload for Netwide {
    /// The backbone plus the choice of which two edges fail: the first
    /// two that provably carry some destination's traffic.
    fn setup(&mut self, env: &Env) -> Result<f64, String> {
        let start = Instant::now();
        let topo = isp_backbone(backbone_switches(env), env.seed).map_err(|e| e.to_string())?;
        let routes = Routes::compute(&topo).map_err(|e| e.to_string())?;
        self.edges = (0..topo.edges.len())
            .filter(|&e| directed_victim(&topo, &routes, e).is_some())
            .take(2)
            .collect();
        let secs = start.elapsed().as_secs_f64();
        if self.edges.len() < 2 {
            return Err("fewer than two traffic-carrying edges".to_owned());
        }
        self.topo = Some(topo);
        Ok(secs)
    }

    fn rep(&mut self, env: &Env) -> Result<RepOut, String> {
        Ok(Self::out(&self.run(env)?))
    }

    fn trace(&mut self, env: &Env, t: &mut Tracer) -> Result<(), String> {
        Backbone::trace_topology_phases(env, t)?;
        let mut harness_events = 0;
        for rep in 0..env.probe_reps() {
            t.spans.set_rep(rep);
            let (report, _) = t.spans.time("probe.run_netwide", || self.run(env));
            let out = Self::out(&report?);
            out.problems.into_iter().for_each(|p| t.problem(p));
            harness_events = out.events;
        }

        let topo = self.topo.as_ref().ok_or("trace before setup")?.clone();
        let routes = Routes::compute(&topo).map_err(|e| e.to_string())?;
        let cfg = self.config();
        let sweep = Sweep::new("seeds", self.edges.clone())
            .threads(1)
            .seed(env.seed);
        let mut counts = LayerCounts::default();
        t.spans.set_rep(0);
        for (i, &edge) in self.edges.iter().enumerate() {
            Self::mirror_cell(
                &topo,
                &routes,
                &cfg,
                edge,
                sweep.cell_seed(i),
                t,
                &mut counts,
            )?;
        }
        t.set_total("apps.sharded.build_sharded_s");
        t.set_total("sim.network.run_s");
        t.set_total("analysis.timeline.replay_s");
        counts.emit(t);
        emit_mirror(
            t,
            self.edges.len(),
            counts.telemetry.events_dispatched,
            harness_events,
        );

        let (out, heap) = alloc::counted(|| self.rep(env));
        emit_alloc_rates(t, heap, out?.events);

        let which = UnitCostSet {
            protocols: true,
            observability: true,
        };
        layers::unit_costs(t, which, counts.telemetry.queue_high_water, env);
        emit_model(t, true, true);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_values_and_field_boundaries() {
        let of = |f: &dyn Fn(&mut Digest) -> &mut Digest| f(&mut Digest::default()).finish();
        assert_eq!(of(&|d| d.u64(1).u64(2)), of(&|d| d.u64(1).u64(2)));
        assert_ne!(of(&|d| d.u64(1).u64(2)), of(&|d| d.u64(2).u64(1)));
        assert_ne!(of(&|d| d.f64(0.0)), of(&|d| d.f64(-0.0)));
        // Length-prefixed: moving a byte across a boundary changes the hash.
        assert_ne!(
            of(&|d| d.bytes(b"ab").bytes(b"c")),
            of(&|d| d.bytes(b"a").bytes(b"bc"))
        );
    }
}
