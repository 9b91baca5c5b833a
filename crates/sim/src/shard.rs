//! The sharded conservative-parallel executor.
//!
//! A [`ShardedNet`] owns one [`Network`] per logical shard (a connected
//! region of the topology, see `fancy_topo::Partition`) and advances them
//! in lock-step *windows* under the classic conservative lower-bound-
//! time-stamp rule:
//!
//! 1. let `t_min` be the earliest pending event across all shards;
//! 2. every shard runs to `window_end = min(until, t_min + lookahead)`,
//!    where `lookahead` is the minimum propagation delay over cut edges;
//! 3. cross-shard packets emitted during the window (each kernel's
//!    outbox) are routed at the barrier and delivered into the receiving
//!    shards' queues.
//!
//! This is safe because a message sent at `s ≥ t_min` over a cut link of
//! delay `d ≥ lookahead` arrives at `s + d ≥ t_min + lookahead ≥
//! window_end`: nothing delivered at a barrier can land inside the window
//! that produced it.
//!
//! ## Determinism
//!
//! The window sequence is a pure function of shard state, shard state is
//! a pure function of the (fixed) shard assignment and per-shard seeds,
//! and each barrier sorts the incoming batch by the canonical
//! `(time, source shard, source seq)` triple before delivery — so the
//! entire schedule, and with it every trace/telemetry/metrics byte, is
//! identical whether the shards are driven by one worker thread or eight.
//! The worker count (`FANCY_SHARDS` at the harness level) only changes
//! which OS thread happens to run a given shard's window.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use fancy_metrics::Labels;

use crate::kernel::OutMsg;
use crate::network::Network;
use crate::telemetry::TelemetryCounters;
use crate::time::{SimDuration, SimTime};

/// Sentinel for "no pending events" / "stop".
const T_NONE: u64 = u64::MAX;

/// Per-shard execution statistics, accumulated across `run_until` calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Events dispatched by this shard's kernel (cumulative).
    pub events: u64,
    /// This shard's simulated clock at the end of the run, in ns.
    pub sim_nanos: u64,
    /// Windows this shard participated in.
    pub windows: u64,
    /// Windows in which this shard had no event to process — the
    /// conservative protocol's "null message" overhead: the shard was
    /// synchronized for nothing.
    pub null_windows: u64,
    /// Cross-shard messages this shard emitted.
    pub msgs_sent: u64,
    /// Cross-shard messages delivered into this shard.
    pub msgs_received: u64,
}

impl ShardStats {
    /// Fraction of windows that were null for this shard (0 when no
    /// window ever ran).
    pub fn stall_ratio(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.null_windows as f64 / self.windows as f64
        }
    }
}

/// A fixed set of logical shards advanced under the conservative window
/// protocol. Construction wires nothing — the scenario builder creates
/// the per-shard [`Network`]s (including the mirrored half-links on cut
/// edges) and hands them over with the partition's lookahead.
pub struct ShardedNet {
    shards: Vec<Network>,
    lookahead: Option<SimDuration>,
    stats: Vec<ShardStats>,
    windows: u64,
}

impl ShardedNet {
    /// Assemble an executor over pre-built shards. `lookahead` is the
    /// minimum cut-edge delay (`None` for a single shard, which then runs
    /// unbounded windows — the degenerate serial case).
    ///
    /// # Panics
    /// Panics on an empty shard vector, or on a zero lookahead with more
    /// than one shard (no conservative window could make progress).
    pub fn new(shards: Vec<Network>, lookahead: Option<SimDuration>) -> Self {
        assert!(!shards.is_empty(), "a sharded net needs at least one shard");
        if shards.len() > 1 {
            let l = lookahead.expect("multi-shard runs need a lookahead");
            assert!(l.as_nanos() > 0, "zero lookahead admits no window");
        }
        let stats = vec![ShardStats::default(); shards.len()];
        ShardedNet {
            shards,
            lookahead,
            stats,
            windows: 0,
        }
    }

    /// Take the shards back out, in shard order (a one-region build
    /// unwraps its lone network this way).
    pub fn into_shards(self) -> Vec<Network> {
        self.shards
    }

    /// Number of logical shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative lookahead bound, if any.
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Borrow shard `i`.
    pub fn shard(&self, i: usize) -> &Network {
        &self.shards[i]
    }

    /// Mutably borrow shard `i` (scenario wiring, failure injection).
    pub fn shard_mut(&mut self, i: usize) -> &mut Network {
        &mut self.shards[i]
    }

    /// All shards, in shard order.
    pub fn shards(&self) -> &[Network] {
        &self.shards
    }

    /// Per-shard execution statistics (valid after a run).
    pub fn stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Global windows executed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Telemetry absorbed across all shards (order-independent).
    pub fn merged_telemetry(&self) -> TelemetryCounters {
        let mut t = TelemetryCounters::default();
        for s in &self.shards {
            t.absorb(&s.kernel.telemetry);
        }
        t
    }

    /// Run all shards until `until`, driven by `workers` threads
    /// (clamped to the shard count; `0` behaves as `1`). The result is
    /// byte-identical for every worker count.
    pub fn run_until(&mut self, until: SimTime, workers: usize) {
        for s in &mut self.shards {
            s.prime();
        }
        // Start-time sends (`on_start`) may already have crossed a cut
        // link. Those packets live in outboxes, invisible to every event
        // queue — deliver them *before* the first window bound is
        // computed, or the window could leap past their arrival times.
        self.exchange_primed();
        let workers = workers.clamp(1, self.shards.len());
        if self.shards.len() == 1 {
            self.shards[0].run_until(until);
        } else if workers == 1 {
            self.run_serial(until);
        } else {
            self.run_threaded(until, workers);
        }
        // Advance every clock to the horizon (mirrors `Network::run_until`
        // semantics for the single-kernel case) and refresh stats.
        if until != SimTime::FAR_FUTURE {
            for s in &mut self.shards {
                s.run_until(until);
            }
        }
        for (i, s) in self.shards.iter().enumerate() {
            self.stats[i].events = s.kernel.telemetry.events_dispatched;
            self.stats[i].sim_nanos = s.kernel.now().as_nanos();
        }
        self.export_shard_gauges();
    }

    /// Run until every shard's queue drains.
    pub fn run_to_end(&mut self, workers: usize) {
        self.run_until(SimTime::FAR_FUTURE, workers);
    }

    /// Deliver cross-shard messages produced while priming (all clocks
    /// still at the start time), so they are visible to the first window
    /// computation. Runs identically for every worker count: it executes
    /// before any thread is spawned.
    fn exchange_primed(&mut self) {
        let n = self.shards.len();
        let mut inbox: Vec<Vec<(usize, OutMsg)>> = (0..n).map(|_| Vec::new()).collect();
        let mut any = false;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            for m in shard.kernel.take_outbox() {
                self.stats[i].msgs_sent += 1;
                inbox[m.dst_shard].push((i, m));
                any = true;
            }
        }
        if any {
            for (i, shard) in self.shards.iter_mut().enumerate() {
                Self::deliver(shard, &mut self.stats[i], std::mem::take(&mut inbox[i]));
            }
        }
    }

    /// The next conservative window end for a given global minimum event
    /// time, or `None` when the run is complete.
    fn window_end(&self, t_min: u64, until: SimTime) -> Option<SimTime> {
        if t_min == T_NONE || t_min > until.as_nanos() {
            return None;
        }
        Some(match self.lookahead {
            Some(l) => SimTime(t_min.saturating_add(l.as_nanos())).min(until),
            None => until,
        })
    }

    /// One shard's share of a window: run to the window end, count null
    /// windows, and drain the outbox.
    fn run_shard_window(
        shard: &mut Network,
        stats: &mut ShardStats,
        window_end: SimTime,
    ) -> Vec<OutMsg> {
        let before = shard.kernel.telemetry.events_dispatched;
        shard.run_until(window_end);
        stats.windows += 1;
        if shard.kernel.telemetry.events_dispatched == before {
            stats.null_windows += 1;
        }
        shard.kernel.take_outbox()
    }

    /// Deliver a batch of cross-shard messages into `shard` in the
    /// canonical `(time, source shard, source seq)` order. The sort makes
    /// the receiving queue's insertion order — and with it every
    /// same-timestamp tiebreak — independent of which worker deposited
    /// which message first. The keys are unique (a shard's seq lane never
    /// repeats), so the unstable sort gives that one order too, without
    /// the stable sort's scratch buffer.
    fn deliver(shard: &mut Network, stats: &mut ShardStats, mut msgs: Vec<(usize, OutMsg)>) {
        msgs.sort_unstable_by_key(|(sa, a)| (a.at, *sa, a.seq));
        stats.msgs_received += msgs.len() as u64;
        for (_, m) in msgs {
            debug_assert!(
                m.at >= shard.kernel.now(),
                "late cross-shard delivery: at={} now={}",
                m.at.as_nanos(),
                shard.kernel.now().as_nanos()
            );
            shard
                .kernel
                .deliver_remote(m.at, m.dst_node, m.dst_port, m.pkt);
        }
    }

    /// The single-worker reference loop: identical per-round calls, in
    /// identical order, to what the threaded path performs — which is the
    /// whole determinism argument, made structural.
    fn run_serial(&mut self, until: SimTime) {
        loop {
            let t_min = self
                .shards
                .iter()
                .filter_map(|s| s.next_event_time())
                .map(SimTime::as_nanos)
                .min()
                .unwrap_or(T_NONE);
            let Some(window_end) = self.window_end(t_min, until) else {
                break;
            };
            let n = self.shards.len();
            let mut inbox: Vec<Vec<(usize, OutMsg)>> = (0..n).map(|_| Vec::new()).collect();
            for (i, shard) in self.shards.iter_mut().enumerate() {
                for m in Self::run_shard_window(shard, &mut self.stats[i], window_end) {
                    self.stats[i].msgs_sent += 1;
                    inbox[m.dst_shard].push((i, m));
                }
            }
            for (i, shard) in self.shards.iter_mut().enumerate() {
                Self::deliver(shard, &mut self.stats[i], std::mem::take(&mut inbox[i]));
            }
            self.windows += 1;
        }
    }

    /// The threaded loop: worker `w` owns shards `w, w + T, w + 2T, …`
    /// and worker 0 doubles as the coordinator. Three barriers per round:
    /// after window publication, after outbox deposit, after delivery +
    /// horizon publication.
    fn run_threaded(&mut self, until: SimTime, workers: usize) {
        let n = self.shards.len();
        let lookahead = self.lookahead;
        let barrier = SpinBarrier::new(workers);
        let window = AtomicU64::new(T_NONE);
        let rounds = AtomicU64::new(0);
        let next_times: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(T_NONE)).collect();
        let mailboxes: Vec<Mutex<Vec<(usize, OutMsg)>>> =
            (0..n).map(|_| Mutex::new(Vec::new())).collect();

        // Seed the first window from the primed shards.
        let t_min = self
            .shards
            .iter()
            .filter_map(|s| s.next_event_time())
            .map(SimTime::as_nanos)
            .min()
            .unwrap_or(T_NONE);
        match self.window_end(t_min, until) {
            Some(we) => window.store(we.as_nanos(), Ordering::Relaxed),
            None => return,
        }

        // Partition shard ownership: worker w gets every T-th shard.
        let mut lanes: Vec<Vec<(usize, &mut Network, &mut ShardStats)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, (shard, stats)) in self
            .shards
            .iter_mut()
            .zip(self.stats.iter_mut())
            .enumerate()
        {
            lanes[i % workers].push((i, shard, stats));
        }

        std::thread::scope(|scope| {
            for (w, mut lane) in lanes.into_iter().enumerate() {
                let barrier = &barrier;
                let window = &window;
                let rounds = &rounds;
                let next_times = &next_times;
                let mailboxes = &mailboxes;
                scope.spawn(move || {
                    loop {
                        barrier.wait(); // A: window end published
                        let we = window.load(Ordering::Acquire);
                        if we == T_NONE {
                            break;
                        }
                        let window_end = SimTime(we);
                        for (i, shard, stats) in lane.iter_mut() {
                            for m in Self::run_shard_window(shard, stats, window_end) {
                                stats.msgs_sent += 1;
                                mailboxes[m.dst_shard]
                                    .lock()
                                    .expect("mailbox poisoned")
                                    .push((*i, m));
                            }
                        }
                        barrier.wait(); // B: all outboxes deposited
                        for (i, shard, stats) in lane.iter_mut() {
                            let msgs = std::mem::take(&mut *mailboxes[*i].lock().expect("mailbox"));
                            Self::deliver(shard, stats, msgs);
                            let t = shard.next_event_time().map_or(T_NONE, |t| t.as_nanos());
                            next_times[*i].store(t, Ordering::Release);
                        }
                        barrier.wait(); // C: all horizons published
                        if w == 0 {
                            rounds.fetch_add(1, Ordering::Relaxed);
                            let t_min = next_times
                                .iter()
                                .map(|t| t.load(Ordering::Acquire))
                                .min()
                                .unwrap_or(T_NONE);
                            let next = if t_min == T_NONE || t_min > until.as_nanos() {
                                T_NONE
                            } else {
                                match lookahead {
                                    Some(l) => {
                                        t_min.saturating_add(l.as_nanos()).min(until.as_nanos())
                                    }
                                    None => until.as_nanos(),
                                }
                            };
                            window.store(next, Ordering::Release);
                        }
                    }
                });
            }
        });
        self.windows += rounds.load(Ordering::Relaxed);
    }

    /// Export the per-shard `fancy_shard_*` gauges into each shard's
    /// metrics hub (when one is attached). Gauge values derive only from
    /// deterministic execution statistics, so merged snapshots stay
    /// byte-identical across worker counts.
    fn export_shard_gauges(&mut self) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if !shard.kernel.metrics_enabled() {
                continue;
            }
            let st = self.stats[i];
            let stall_pct = (st.stall_ratio() * 100.0).round() as u64;
            let labels = Labels::new().with("shard", i.to_string());
            shard.kernel.metrics(|r| {
                for (gauge, v) in [
                    ("fancy_shard_events", st.events),
                    ("fancy_shard_sim_ns", st.sim_nanos),
                    ("fancy_shard_windows", st.windows),
                    ("fancy_shard_null_windows", st.null_windows),
                    ("fancy_shard_msgs_sent", st.msgs_sent),
                    ("fancy_shard_msgs_received", st.msgs_received),
                    ("fancy_shard_stall_pct", stall_pct),
                ] {
                    r.gauge_set(gauge, labels.clone(), v);
                }
            });
        }
    }
}

/// A bounded-spin barrier: spins briefly (the common case when every
/// worker has real work), then yields to the OS scheduler — so the
/// protocol stays correct and non-pathological even when the machine has
/// fewer cores than workers.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Release);
            self.generation.store(generation + 1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::GrayFailure;
    use crate::kernel::Kernel;
    use crate::link::{LinkConfig, RemoteEnd};
    use crate::node::{Node, SinkNode};
    use crate::packet::{PacketBuilder, PacketKind};
    use crate::pool::PacketRef;
    use fancy_net::Prefix;
    use std::any::Any;

    /// A sink that also remembers when the last packet arrived.
    #[derive(Default)]
    struct TimedSink {
        packets: u64,
        last_arrival: SimTime,
    }

    impl Node for TimedSink {
        fn on_packet(&mut self, ctx: &mut Kernel, _port: usize, _pkt: PacketRef) {
            self.packets += 1;
            self.last_arrival = ctx.now();
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one UDP packet per timer tick toward `dst` on port 0.
    struct Pulser {
        dst: u32,
        period: SimDuration,
        remaining: u64,
        sent: u64,
    }

    impl Node for Pulser {
        fn on_start(&mut self, ctx: &mut Kernel) {
            ctx.schedule_timer(self.period, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Kernel, _port: usize, _pkt: PacketRef) {}
        fn on_timer(&mut self, ctx: &mut Kernel, _token: u64) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            self.sent += 1;
            let pkt = PacketBuilder::new(
                1,
                self.dst,
                1000,
                PacketKind::Udp {
                    flow: 1,
                    seq: self.sent,
                },
            )
            .build();
            ctx.send(0, pkt);
            ctx.schedule_timer(self.period, 0);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two shards: a pulser in shard 0 feeding a sink in shard 1 over a
    /// mirrored pair of half-links with 5 ms delay (the lookahead).
    fn two_shard_net(n_packets: u64, failure: Option<GrayFailure>) -> ShardedNet {
        let cfg = LinkConfig::new(8_000_000, SimDuration::from_millis(5));
        let mut s0 = Network::for_shard(7, 0);
        let tx = s0.add_node(Box::new(Pulser {
            dst: 0x0A000001,
            period: SimDuration::from_millis(1),
            remaining: n_packets,
            sent: 0,
        }));
        let mut s1 = Network::for_shard(7, 1);
        let rx = s1.add_node(Box::new(SinkNode::default()));
        let l0 = s0.connect_remote(
            tx,
            cfg,
            RemoteEnd {
                shard: 1,
                node: rx,
                port: 0,
            },
        );
        s1.connect_remote(
            rx,
            cfg,
            RemoteEnd {
                shard: 0,
                node: tx,
                port: 0,
            },
        );
        if let Some(f) = failure {
            s0.kernel.add_failure(l0, tx, f);
        }
        ShardedNet::new(vec![s0, s1], Some(SimDuration::from_millis(5)))
    }

    fn signature(net: &ShardedNet) -> (u64, u64, u64, u64, u64) {
        let t = net.merged_telemetry();
        (
            net.shard(1).kernel.now().as_nanos(),
            net.shard(1).node::<SinkNode>(0).packets,
            t.events_dispatched,
            t.packets_forwarded,
            net.stats()[0].msgs_sent,
        )
    }

    #[test]
    fn packets_cross_the_shard_boundary() {
        let mut net = two_shard_net(10, None);
        net.run_to_end(1);
        assert_eq!(net.shard(1).node::<SinkNode>(0).packets, 10);
        assert_eq!(net.stats()[0].msgs_sent, 10);
        assert_eq!(net.stats()[1].msgs_received, 10);
        assert!(net.windows() > 1, "multiple conservative windows expected");
    }

    #[test]
    fn cross_shard_timing_matches_single_kernel() {
        let pulser = || {
            Box::new(Pulser {
                dst: 0x0A000001,
                period: SimDuration::from_millis(1),
                remaining: 10,
                sent: 0,
            })
        };
        let cfg = LinkConfig::new(8_000_000, SimDuration::from_millis(5));

        // Single-kernel reference: pulser → sink over one ordinary link.
        let mut reference = Network::new(7);
        let tx = reference.add_node(pulser());
        let rx = reference.add_node(Box::new(TimedSink::default()));
        reference.connect(tx, rx, cfg);
        reference.run_to_end();
        let expect = reference.node::<TimedSink>(rx).last_arrival;

        // Same wiring, split at the link: serialization + propagation must
        // behave identically across the shard boundary.
        let mut s0 = Network::for_shard(7, 0);
        let tx = s0.add_node(pulser());
        let mut s1 = Network::for_shard(7, 1);
        let rx = s1.add_node(Box::new(TimedSink::default()));
        s0.connect_remote(
            tx,
            cfg,
            RemoteEnd {
                shard: 1,
                node: rx,
                port: 0,
            },
        );
        s1.connect_remote(
            rx,
            cfg,
            RemoteEnd {
                shard: 0,
                node: tx,
                port: 0,
            },
        );
        let mut net = ShardedNet::new(vec![s0, s1], Some(SimDuration::from_millis(5)));
        net.run_to_end(1);
        let got = net.shard(1).node::<TimedSink>(0);
        assert_eq!(got.packets, 10);
        assert_eq!(got.last_arrival, expect);
    }

    #[test]
    fn gray_failure_on_half_link_drops_at_sender() {
        let f = GrayFailure::single_entry(Prefix::from_addr(0x0A000001), 1.0, SimTime::ZERO);
        let mut net = two_shard_net(10, Some(f));
        net.run_to_end(1);
        assert_eq!(net.shard(1).node::<SinkNode>(0).packets, 0);
        assert_eq!(net.shard(0).kernel.records.total_gray_drops(), 10);
        assert_eq!(net.stats()[0].msgs_sent, 0);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            let mut net = two_shard_net(50, None);
            net.run_until(SimTime::ZERO + SimDuration::from_millis(200), workers);
            signature(&net)
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one.1, 50);
    }

    #[test]
    fn uid_lanes_do_not_collide() {
        let mut net = two_shard_net(3, None);
        net.run_to_end(1);
        // Shard 0 stamped uids in lane 0 (1, 2, 3). Shard 1 never stamps
        // (it only receives), but its lane base is reserved anyway.
        assert_eq!(net.stats()[0].msgs_sent, 3);
        assert!(net.shard(0).kernel.records.wire_packets == 3);
    }

    /// Logs `(arrival time, source shard, source seq)` of every packet,
    /// read back from what `barrier_batch` stamped into it.
    #[derive(Default)]
    struct ArrivalLog(Vec<(SimTime, u64, u64)>);

    impl Node for ArrivalLog {
        fn on_packet(&mut self, ctx: &mut Kernel, _port: usize, pkt: PacketRef) {
            if let PacketKind::Udp { flow, seq } = ctx.pkt(pkt).kind {
                self.0.push((ctx.now(), flow, seq));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// 48 messages for node 0 of shard 2: eight from each of source
    /// shards 0 and 1 at each of three arrival times, in an order no
    /// worker would produce — latest time first, shards interleaved,
    /// seqs descending.
    fn barrier_batch() -> Vec<(usize, OutMsg)> {
        let mut msgs = Vec::new();
        for at_ms in [30, 20, 10] {
            for seq in (0..8u64).rev() {
                for src in [1, 0] {
                    let kind = PacketKind::Udp {
                        flow: src as u64,
                        seq: at_ms * 100 + seq,
                    };
                    let mut pkt = PacketBuilder::new(1, 0x0A000001, 100, kind).build();
                    pkt.uid = 1 + msgs.len() as u64;
                    let at = SimTime::ZERO + SimDuration::from_millis(at_ms);
                    let msg = OutMsg {
                        at,
                        seq: at_ms * 100 + seq,
                        dst_shard: 2,
                        dst_node: 0,
                        dst_port: 0,
                        pkt,
                    };
                    msgs.push((src, msg));
                }
            }
        }
        msgs
    }

    #[test]
    fn barrier_delivers_tied_times_in_source_shard_then_seq_order() {
        let batch = barrier_batch();
        assert!(batch.len() > 20, "past the small-sort cutoff");
        let mut expect: Vec<_> = batch
            .iter()
            .map(|(src, m)| (m.at, *src as u64, m.seq))
            .collect();
        expect.sort();
        let mut shard = Network::for_shard(7, 2);
        shard.add_node(Box::new(ArrivalLog::default()));
        let mut stats = ShardStats::default();
        ShardedNet::deliver(&mut shard, &mut stats, batch);
        shard.run_until(SimTime::ZERO + SimDuration::from_millis(40));
        assert_eq!(stats.msgs_received, 48);
        assert_eq!(shard.node::<ArrivalLog>(0).0, expect);
    }

    #[test]
    fn single_shard_degenerates_to_plain_run() {
        let mut s0 = Network::new(7);
        let tx = s0.add_node(Box::new(Pulser {
            dst: 0x0A000001,
            period: SimDuration::from_millis(1),
            remaining: 5,
            sent: 0,
        }));
        let rx = s0.add_node(Box::new(SinkNode::default()));
        s0.connect(
            tx,
            rx,
            LinkConfig::new(8_000_000, SimDuration::from_millis(5)),
        );
        let mut net = ShardedNet::new(vec![s0], None);
        net.run_to_end(4);
        assert_eq!(net.shard(0).node::<SinkNode>(1).packets, 5);
    }
}
