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
//! Every worker count runs the same rounds through the same loop; the
//! worker count (`FANCY_SHARDS` at the harness level) only changes which
//! OS thread happens to run a given shard's window.

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

    /// Borrow shard `i`.
    pub fn shard(&self, i: usize) -> &Network {
        &self.shards[i]
    }

    /// Mutably borrow shard `i` (scenario wiring, failure injection).
    pub fn shard_mut(&mut self, i: usize) -> &mut Network {
        &mut self.shards[i]
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
        if self.shards.len() == 1 {
            self.shards[0].run_until(until);
        } else {
            self.run_windows(until, workers.clamp(1, self.shards.len()));
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

    /// The conservative window loop, one for every worker count. Shard
    /// `i` belongs to lane `i % workers`; worker 0 is the caller, so one
    /// worker starts no thread. A round: each lane runs its shards to the
    /// window end and deposits their outboxes, one append per destination
    /// (never a lock per message); barrier. Each lane delivers its
    /// shards' inboxes and folds their next event times into `t_min`;
    /// barrier. Worker 0 applies the window rule; barrier. Round 0 runs
    /// no window: it only exchanges what `on_start` sent across a cut, so
    /// those arrivals bound the first window.
    fn run_windows(&mut self, until: SimTime, workers: usize) {
        let n = self.shards.len();
        let barrier = SpinBarrier::new(workers);
        // Each shard's inbox for the round.
        let mailboxes: Vec<Mutex<Vec<OutMsg>>> = (0..n).map(|_| Mutex::default()).collect();
        // The earliest next event time over all shards; worker 0 takes
        // it (resetting it) once every lane has folded its shards in.
        let t_min = AtomicU64::new(T_NONE);
        // The next window end in ns, set by worker 0; `T_NONE` stops.
        let window = AtomicU64::new(T_NONE);
        // One worker's part of every round; returns the windows run
        // (counted by worker 0 alone).
        let run_lane = |mut lane: Vec<(usize, &mut Network, &mut ShardStats)>, lead: bool| {
            let mut out: Vec<Vec<OutMsg>> = (0..n).map(|_| Vec::new()).collect();
            let mut we = None; // round 0 runs no window
            let mut windows = 0;
            loop {
                for (_, shard, stats) in &mut lane {
                    if let Some(we) = we {
                        let before = shard.kernel.telemetry.events_dispatched;
                        shard.run_until(we);
                        stats.windows += 1;
                        if shard.kernel.telemetry.events_dispatched == before {
                            stats.null_windows += 1;
                        }
                    }
                    for m in shard.kernel.take_outbox() {
                        stats.msgs_sent += 1;
                        out[m.dst_shard].push(m);
                    }
                }
                for (batch, mailbox) in out.iter_mut().zip(&mailboxes) {
                    if !batch.is_empty() {
                        let mut mailbox = mailbox.lock().expect("mailbox poisoned");
                        // Hand the batch over whole when it is the first.
                        if mailbox.is_empty() {
                            std::mem::swap(&mut *mailbox, batch);
                        } else {
                            mailbox.append(batch);
                        }
                    }
                }
                barrier.wait(); // every outbox deposited
                for (i, shard, stats) in &mut lane {
                    let msgs =
                        std::mem::take(&mut *mailboxes[*i].lock().expect("mailbox poisoned"));
                    Self::deliver(shard, stats, msgs);
                    let t = shard.next_event_time().map_or(T_NONE, SimTime::as_nanos);
                    t_min.fetch_min(t, Ordering::AcqRel);
                }
                barrier.wait(); // every next event time folded in
                if lead {
                    let t = t_min.swap(T_NONE, Ordering::AcqRel);
                    let next = window_end(self.lookahead, t, until);
                    windows += u64::from(next != T_NONE);
                    window.store(next, Ordering::Release);
                }
                barrier.wait(); // the next window published
                match window.load(Ordering::Acquire) {
                    T_NONE => return windows,
                    next => we = Some(SimTime(next)),
                }
            }
        };
        let mut lanes: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, (shard, stats)) in self.shards.iter_mut().zip(&mut self.stats).enumerate() {
            lanes[i % workers].push((i, shard, stats));
        }
        let mut lanes = lanes.into_iter();
        let lane0 = lanes.next().expect("at least one worker");
        let run_lane = &run_lane;
        self.windows += std::thread::scope(|scope| {
            for lane in lanes {
                scope.spawn(move || run_lane(lane, false));
            }
            run_lane(lane0, true)
        });
    }

    /// Deliver a batch of cross-shard messages into `shard` in the
    /// canonical `(time, source shard, source seq)` order: `(at, seq)`,
    /// as a seq carries its shard's lane in its high bits. The sort makes
    /// the receiving queue's insertion order — and with it every
    /// same-timestamp tiebreak — independent of which worker deposited
    /// which message first. The keys are unique (a shard's seq lane never
    /// repeats), so the unstable sort gives that one order too, without
    /// the stable sort's scratch buffer. Each packet keeps the uid it was
    /// stamped with at origin: `inject` stamps only an unstamped one.
    fn deliver(shard: &mut Network, stats: &mut ShardStats, mut msgs: Vec<OutMsg>) {
        msgs.sort_unstable_by_key(|m| (m.at, m.seq));
        stats.msgs_received += msgs.len() as u64;
        for m in msgs {
            debug_assert!(
                m.at >= shard.kernel.now(),
                "late cross-shard delivery: at={} now={}",
                m.at.as_nanos(),
                shard.kernel.now().as_nanos()
            );
            debug_assert!(m.pkt.uid != 0, "cross-shard packet lost its uid");
            shard.kernel.inject(m.dst_node, m.dst_port, m.pkt, m.at);
        }
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

/// The conservative window rule: the next window ends `lookahead` past
/// the earliest pending event `t_min`, clamped to `until`; `T_NONE` once
/// nothing is pending at or before `until`.
fn window_end(lookahead: Option<SimDuration>, t_min: u64, until: SimTime) -> u64 {
    if t_min == T_NONE || t_min > until.as_nanos() {
        return T_NONE;
    }
    match lookahead {
        Some(l) => t_min.saturating_add(l.as_nanos()).min(until.as_nanos()),
        None => until.as_nanos(),
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
    use crate::kernel::{Kernel, UID_LANE_SHIFT};
    use crate::link::{LinkConfig, RemoteEnd};
    use crate::node::{Node, SinkNode};
    use crate::packet::{PacketBuilder, PacketKind};
    use crate::pool::PacketRef;
    use fancy_net::Prefix;
    use std::any::Any;

    /// Sends `remaining` UDP packets out port 0, one per millisecond, the
    /// first from `on_start` (before any window runs), and logs every
    /// arrival as `(time, flow, seq)`. `pulser(0)` is a logging sink.
    #[derive(Default)]
    struct Pulser {
        remaining: u64,
        sent: u64,
        log: Vec<(SimTime, u64, u64)>,
    }

    fn pulser(remaining: u64) -> Box<Pulser> {
        Box::new(Pulser {
            remaining,
            ..Pulser::default()
        })
    }

    impl Node for Pulser {
        fn on_start(&mut self, ctx: &mut Kernel) {
            self.on_timer(ctx, 0);
        }
        fn on_packet(&mut self, ctx: &mut Kernel, _port: usize, pkt: PacketRef) {
            if let PacketKind::Udp { flow, seq } = ctx.pkt(pkt).kind {
                self.log.push((ctx.now(), flow, seq));
            }
        }
        fn on_timer(&mut self, ctx: &mut Kernel, _token: u64) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            self.sent += 1;
            let kind = PacketKind::Udp {
                flow: 1,
                seq: self.sent,
            };
            ctx.send(0, PacketBuilder::new(1, 0x0A000001, 1000, kind).build());
            ctx.schedule_timer(SimDuration::from_millis(1), 0);
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
        let tx = s0.add_node(pulser(n_packets));
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

    /// Three shards in a ring: shard `i`'s port 0 is a cut link to shard
    /// `i + 1`'s port 1, with delays 5, 7 and 11 ms (lookahead 5 ms).
    fn three_shard_ring() -> ShardedNet {
        let link =
            |i: usize| LinkConfig::new(8_000_000, SimDuration::from_millis([5, 7, 11][i % 3]));
        let end = |shard: usize, port| RemoteEnd {
            shard: shard % 3,
            node: 0,
            port,
        };
        let shards = (0..3)
            .map(|i| {
                let mut net = Network::for_shard(7, i);
                let node = net.add_node(pulser(20));
                net.connect_remote(node, link(i), end(i + 1, 1));
                net.connect_remote(node, link(i + 2), end(i + 2, 0));
                net
            })
            .collect();
        ShardedNet::new(shards, Some(SimDuration::from_millis(5)))
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
        let cfg = LinkConfig::new(8_000_000, SimDuration::from_millis(5));

        // Single-kernel reference: pulser → sink over one ordinary link.
        let mut reference = Network::new(7);
        let tx = reference.add_node(pulser(10));
        let rx = reference.add_node(pulser(0));
        reference.connect(tx, rx, cfg);
        reference.run_to_end();
        let expect = reference.node::<Pulser>(rx).log.last().map(|a| a.0);

        // Same wiring, split at the link: serialization + propagation must
        // behave identically across the shard boundary.
        let mut s0 = Network::for_shard(7, 0);
        let tx = s0.add_node(pulser(10));
        let mut s1 = Network::for_shard(7, 1);
        let rx = s1.add_node(pulser(0));
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
        let got = &net.shard(1).node::<Pulser>(0).log;
        assert_eq!(got.len(), 10);
        assert_eq!(got.last().map(|a| a.0), expect);
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
            (signature(&net), net.stats().to_vec(), net.windows())
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(3));
        assert_eq!(one.0 .1, 50);

        // Every shard sends across a cut from `on_start`, and at two
        // workers lane 0 owns shards 0 and 2.
        let ring = |workers: usize| {
            let mut net = three_shard_ring();
            net.run_to_end(workers);
            let logs: Vec<_> = (0..3)
                .map(|i| net.shard(i).node::<Pulser>(0).log.clone())
                .collect();
            (net.stats().to_vec(), net.windows(), logs)
        };
        let one = ring(1);
        assert_eq!(one, ring(2));
        assert_eq!(one, ring(3));
        for (st, log) in one.0.iter().zip(&one.2) {
            assert_eq!((st.msgs_sent, st.msgs_received, log.len()), (20, 20, 20));
        }
        // The start-time packets arrive first: 1 ms on the wire plus the
        // cut's delay (shard 0's comes from shard 2 over 11 ms).
        assert_eq!(one.2[1][0], (SimTime(6_000_000), 1, 1));
        assert_eq!(one.2[0][0], (SimTime(12_000_000), 1, 1));
    }

    #[test]
    fn uid_lanes_do_not_collide() {
        let mut net = two_shard_net(3, None);
        net.run_to_end(1);
        // Shard 0 stamped uids in lane 0 (1, 2, 3). Shard 1 never stamps
        // (it only receives), but its lane base is reserved anyway.
        assert_eq!(net.stats()[0].msgs_sent, 3);
        assert_eq!(net.shard(0).kernel.link(0).tx_packets(0), 3);
    }

    /// 48 messages for node 0 of shard 2: eight from each of source
    /// shards 0 and 1 at each of three arrival times, in an order no
    /// worker would produce — latest time first, shards interleaved,
    /// seqs descending.
    fn barrier_batch() -> Vec<OutMsg> {
        let mut msgs = Vec::new();
        for at_ms in [30, 20, 10] {
            for seq in (0..8u64).rev() {
                for src in [1u64, 0] {
                    let kind = PacketKind::Udp {
                        flow: src,
                        seq: at_ms * 100 + seq,
                    };
                    let mut pkt = PacketBuilder::new(1, 0x0A000001, 100, kind).build();
                    pkt.uid = 1 + msgs.len() as u64;
                    let at = SimTime::ZERO + SimDuration::from_millis(at_ms);
                    msgs.push(OutMsg {
                        at,
                        seq: (src << UID_LANE_SHIFT) + at_ms * 100 + seq,
                        dst_shard: 2,
                        dst_node: 0,
                        dst_port: 0,
                        pkt,
                    });
                }
            }
        }
        msgs
    }

    #[test]
    fn barrier_delivers_tied_times_in_source_shard_then_seq_order() {
        let batch = barrier_batch();
        assert!(batch.len() > 20, "past the small-sort cutoff");
        let lane = |seq: u64| (seq >> UID_LANE_SHIFT, seq & ((1 << UID_LANE_SHIFT) - 1));
        let mut expect: Vec<_> = batch
            .iter()
            .map(|m| (m.at, lane(m.seq).0, lane(m.seq).1))
            .collect();
        expect.sort();
        let mut shard = Network::for_shard(7, 2);
        shard.add_node(pulser(0));
        let mut stats = ShardStats::default();
        ShardedNet::deliver(&mut shard, &mut stats, batch);
        shard.run_until(SimTime::ZERO + SimDuration::from_millis(40));
        assert_eq!(stats.msgs_received, 48);
        assert_eq!(shard.node::<Pulser>(0).log, expect);
    }

    #[test]
    fn single_shard_degenerates_to_plain_run() {
        let mut s0 = Network::new(7);
        let tx = s0.add_node(pulser(5));
        let rx = s0.add_node(Box::new(SinkNode::default()));
        s0.connect(
            tx,
            rx,
            LinkConfig::new(8_000_000, SimDuration::from_millis(5)),
        );
        let mut net = ShardedNet::new(vec![s0], None);
        net.run_to_end(4);
        assert_eq!(net.shard(0).node::<SinkNode>(1).packets, 5);
        // A lone region runs the plain kernel loop: no window, no message.
        let st = net.stats()[0];
        assert!(st.events > 0 && st.sim_nanos > 0);
        let only_clock = ShardStats {
            events: st.events,
            sim_nanos: st.sim_nanos,
            ..ShardStats::default()
        };
        assert_eq!(st, only_clock);
        assert_eq!(net.windows(), 0);
    }
}
