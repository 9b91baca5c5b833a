//! The simulation kernel: clock, event queue, links, RNG, records.
//!
//! Nodes interact with the world exclusively through `&mut Kernel` — it is
//! the `ctx` handle passed to every [`crate::node::Node`] callback.

use fancy_metrics::{Labels, MetricsHub, Registry};
use fancy_trace::{DropCause, TraceEvent, TraceKind, TraceSink};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::event::{EventQueue, NodeId, PortId, TimerToken};
use crate::failure::{FaultPlan, FaultVerdict, GrayFailure};
use crate::link::{Admission, Link, LinkConfig, RemoteEnd};
use crate::packet::{Packet, PacketKind};
use crate::pool::{PacketPool, PacketRef};
use crate::record::{DetectionRecord, DetectionScope, DetectorKind, Records};
use crate::telemetry::{TelemetryCounters, TelemetrySnapshot};
use crate::time::{SimDuration, SimTime};

/// Index of a link within the kernel.
pub type LinkId = usize;

/// Each logical shard stamps packet uids in its own lane so cross-shard
/// packets never collide with locally-stamped ones: shard `s` allocates
/// uids starting at `s << UID_LANE_SHIFT`. Shard 0 (and every
/// non-sharded kernel) therefore keeps the legacy `1, 2, 3, …` sequence.
/// Outbox seqs ([`OutMsg::seq`]) use the same lanes.
pub const UID_LANE_SHIFT: u32 = 48;

/// A packet leaving this shard over a cross-shard half-link, queued in
/// the kernel's outbox until the executor's next barrier routes it.
///
/// `(at, seq)` is the canonical cross-shard ordering: the receiving shard
/// sorts its incoming batch by that pair before delivery, making the
/// merged schedule independent of worker-thread interleaving.
#[derive(Debug)]
pub struct OutMsg {
    /// Arrival time at the remote node (departure + propagation delay).
    pub at: SimTime,
    /// The source shard's seq lane: `shard << UID_LANE_SHIFT` plus a
    /// per-shard count, so `seq` orders by source shard, then send order.
    pub seq: u64,
    /// Receiving logical shard.
    pub dst_shard: usize,
    /// Receiving node, in the *destination shard's* id space.
    pub dst_node: NodeId,
    /// Receiving port on that node.
    pub dst_port: PortId,
    /// The packet itself, by value — it left this shard's pool.
    pub pkt: Packet,
}

/// The `(uid, entry, flow)` a packet's trace events report.
fn trace_ids(p: &Packet) -> (u64, u64, Option<u64>) {
    (p.uid, u64::from(p.entry().0), p.flow())
}

/// The simulation kernel.
pub struct Kernel {
    now: SimTime,
    pub(crate) queue: EventQueue,
    /// The slab of in-flight packets. Events reference slots by
    /// [`PacketRef`]; the pool recycles storage as packets are
    /// delivered, dropped or forwarded.
    pub(crate) pool: PacketPool,
    pub(crate) links: Vec<Link>,
    /// `(node, port) → (link, direction)` attachment map.
    pub(crate) ports: Vec<Vec<(LinkId, usize)>>,
    /// Node currently being dispatched (so `send` etc. know the caller).
    pub(crate) current: NodeId,
    next_uid: u64,
    /// Cross-shard egress buffer, drained by the sharded executor at each
    /// window barrier ([`Kernel::take_outbox`]). Always empty outside
    /// sharded runs.
    outbox: Vec<OutMsg>,
    /// The seq the next outbox message gets (see [`OutMsg::seq`]).
    next_out_seq: u64,
    rng: SmallRng,
    /// Experiment records (ground truth + detections).
    pub records: Records,
    /// Always-on runtime counters (events, queue depth, drop classes).
    /// Strictly observational: nothing here feeds back into simulation.
    pub telemetry: TelemetryCounters,
    /// Wall-clock time accumulated inside `run_until` loops.
    pub(crate) wall_elapsed: std::time::Duration,
    /// Flight recorder. `None` (the default) keeps every emission site a
    /// single branch; see [`Kernel::trace`].
    pub(crate) tracer: Option<Box<dyn TraceSink>>,
    /// The [`TraceKind::mask`] of what `tracer` wants; 0 without one.
    trace_mask: u64,
    /// Metrics plane. Same contract as the tracer: `None` (the default)
    /// keeps every instrumentation site a single branch, and nothing
    /// recorded here can influence the schedule; see [`Kernel::metrics`].
    pub(crate) metrics: Option<MetricsHub>,
}

impl Kernel {
    pub(crate) fn new(seed: u64) -> Self {
        Kernel::new_shard(seed, 0)
    }

    pub(crate) fn new_shard(seed: u64, shard: usize) -> Self {
        Kernel {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            pool: PacketPool::new(),
            links: Vec::new(),
            ports: Vec::new(),
            current: 0,
            next_uid: ((shard as u64) << UID_LANE_SHIFT) + 1,
            outbox: Vec::new(),
            next_out_seq: (shard as u64) << UID_LANE_SHIFT,
            rng: SmallRng::seed_from_u64(seed),
            records: Records::default(),
            telemetry: TelemetryCounters::default(),
            wall_elapsed: std::time::Duration::ZERO,
            tracer: None,
            trace_mask: 0,
            metrics: None,
        }
    }

    /// Attach a [`TraceSink`]; every subsequent kernel- and node-level
    /// trace emission of a kind it [wants](TraceSink::wants) lands in it.
    /// Replaces any previous sink. Like telemetry, tracing is strictly
    /// observational — the sink cannot influence the schedule, so traces
    /// are identical run-to-run.
    pub fn set_tracer(&mut self, tracer: Box<dyn TraceSink>) {
        self.trace_mask = TraceKind::mask(|k| tracer.wants(k));
        self.tracer = Some(tracer);
    }

    /// Does the attached sink want events of `kind`? Emission sites check
    /// this before preparing an event (reading the packet, cloning a
    /// path), so with no sink, or one that declines the kind, the site
    /// costs one mask test.
    #[inline]
    pub fn tracing(&self, kind: TraceKind) -> bool {
        self.trace_mask & kind.bit() != 0
    }

    /// Emit a trace event. The closure receives the current time in
    /// nanoseconds and is only invoked when a sink is attached; the event
    /// reaches the sink only if it wants the event's kind.
    #[inline]
    pub fn trace(&mut self, make: impl FnOnce(u64) -> TraceEvent) {
        let t = self.now.as_nanos();
        if let Some(tr) = self.tracer.as_deref_mut() {
            let ev = make(t);
            if self.trace_mask & ev.trace_kind().bit() != 0 {
                tr.record(&ev);
            }
        }
    }

    /// Attach a [`MetricsHub`]; every subsequent kernel- and node-level
    /// metric update lands in it. Replaces any previous hub. The caller
    /// keeps a clone to read snapshots after (or during) the run.
    pub fn set_metrics(&mut self, hub: MetricsHub) {
        self.metrics = Some(hub);
    }

    /// Borrow the attached metrics hub, if any (the scrape node reads
    /// through this without detaching).
    pub fn metrics_hub(&self) -> Option<&MetricsHub> {
        self.metrics.as_ref()
    }

    /// Is a metrics hub attached? Instrumentation sites with non-trivial
    /// preparation (label building, latency lookups) check this first so
    /// the disabled path stays a single branch — the [`Kernel::tracing`]
    /// contract, applied to metrics.
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Update metrics. The closure only runs when a hub is attached, so
    /// the disabled cost is one `Option` discriminant check.
    #[inline]
    pub fn metrics(&mut self, f: impl FnOnce(&mut Registry)) {
        if let Some(hub) = self.metrics.as_ref() {
            hub.with(f);
        }
    }

    /// A point-in-time snapshot of this kernel's telemetry.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.telemetry,
            sim_elapsed: self.now.duration_since(SimTime::ZERO),
            wall_elapsed: self.wall_elapsed,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn set_now(&mut self, t: SimTime) {
        debug_assert!(
            t >= self.now,
            "time went backwards: t={} now={}",
            t.as_nanos(),
            self.now.as_nanos()
        );
        self.now = t;
    }

    /// The deterministic RNG for this run.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// The node currently being dispatched.
    #[inline]
    pub fn self_id(&self) -> NodeId {
        self.current
    }

    /// Schedule a timer for the *current* node after `delay`.
    pub fn schedule_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let node = self.current;
        self.queue.push_timer(self.now + delay, node, token);
    }

    /// Schedule a timer for an explicit node (used by experiment setup).
    pub fn schedule_timer_for(&mut self, node: NodeId, at: SimTime, token: TimerToken) {
        self.queue.push_timer(at, node, token);
    }

    /// Stamp a fresh packet (uid, creation time) and check it into the
    /// pool. This is the *single* point where packets enter the network;
    /// the pool rejects unstamped packets, so a `PacketBuilder::build`
    /// result can no longer slip in with `uid: 0` through some side door.
    fn check_in(&mut self, mut pkt: Packet, created: SimTime) -> PacketRef {
        if pkt.uid == 0 {
            pkt.uid = self.next_uid;
            self.next_uid += 1;
            pkt.created = created;
        }
        self.pool.insert(pkt)
    }

    /// Deliver a packet directly to a node, bypassing any link — used by
    /// experiment harnesses to inject traffic at a switch's ingress, and
    /// by the sharded executor for packets that crossed a cut (they keep
    /// the uid stamped at their origin shard).
    pub fn inject(&mut self, node: NodeId, port: PortId, pkt: Packet, at: SimTime) {
        let r = self.check_in(pkt, at);
        self.queue.push_arrival(at, node, port, r);
    }

    /// Borrow a pooled packet.
    ///
    /// # Panics
    /// Panics if `r` is stale (already delivered, dropped or forwarded).
    #[inline]
    pub fn pkt(&self, r: PacketRef) -> &Packet {
        self.pool.get(r)
    }

    /// Mutably borrow a pooled packet (tag rewriting in switch pipelines).
    ///
    /// # Panics
    /// Panics if `r` is stale.
    #[inline]
    pub fn pkt_mut(&mut self, r: PacketRef) -> &mut Packet {
        self.pool.get_mut(r)
    }

    /// Check a packet out of the pool, consuming the ref. For consumers
    /// that need the packet by value (e.g. a switch absorbing a control
    /// message addressed to it).
    pub fn take_packet(&mut self, r: PacketRef) -> Packet {
        self.pool.remove(r)
    }

    /// Explicitly drop a pooled packet, freeing its slot. Nodes that
    /// simply *ignore* a delivered packet don't need this — the dispatch
    /// loop reclaims unconsumed refs after `on_packet` returns.
    pub fn release(&mut self, r: PacketRef) {
        let _ = self.pool.remove(r);
    }

    /// Reclaim `r` if the node left it in the pool (delivery loop cleanup).
    pub(crate) fn release_if_live(&mut self, r: PacketRef) {
        if self.pool.is_live(r) {
            let _ = self.pool.remove(r);
        }
    }

    /// The in-flight packet pool (observational: high-water, recycles).
    pub fn pool(&self) -> &PacketPool {
        &self.pool
    }

    /// Resolve the current node's `port` to its link attachment.
    fn resolve(&self, port: PortId) -> (LinkId, usize) {
        self.ports[self.current][port]
    }

    /// Try to admit `size` bytes into the egress TM queue of `port`. A
    /// refusal is counted as a congestion drop and traced with the
    /// packet's `(uid, entry, flow)`, which `ids` reads only when a
    /// tracer is attached. The one admission path for [`Self::send`] and
    /// [`Self::tm_admit_ref`].
    fn admit(
        &mut self,
        port: PortId,
        size: u64,
        ids: impl FnOnce(&Self) -> (u64, u64, Option<u64>),
    ) -> Option<Admission> {
        let (lid, dir) = self.resolve(port);
        let adm = self.links[lid].admit(lid, dir, size, self.now);
        if adm.is_none() {
            self.records.congestion_drops += 1;
            self.telemetry.congestion_drops += 1;
            if self.tracing(TraceKind::PacketDrop) {
                let (uid, entry, flow) = ids(self);
                let node = self.current as u64;
                self.trace(|t| TraceEvent::PacketDrop {
                    t,
                    cause: DropCause::Congestion,
                    node,
                    link: Some(lid as u64),
                    dir: Some(dir as u64),
                    uid,
                    entry,
                    flow,
                    size,
                });
            }
        }
        adm
    }

    /// Phase 1 of sending a packet already in the pool: try to admit it
    /// into the egress TM queue of `port`. Returns an [`Admission`] on
    /// success; on failure the packet is accounted as a congestion drop.
    /// Does *not* consume the ref: on congestion the caller still holds
    /// the packet (the dispatch loop reclaims it if the caller just
    /// returns).
    ///
    /// Switch implementations that count packets (FANcY) call this first,
    /// count/tag only admitted packets, then call [`Self::wire_forward`] —
    /// exactly the "after the upstream TM" counter placement of the paper.
    pub fn tm_admit_ref(&mut self, port: PortId, r: PacketRef) -> Option<Admission> {
        let size = u64::from(self.pool.get(r).size);
        self.admit(port, size, |k| trace_ids(k.pool.get(r)))
    }

    /// Phase 2: put a packet admitted by [`Self::tm_admit_ref`] on the
    /// wire. Consumes the ref: the packet rides the next arrival event
    /// under a fresh generation, without being moved.
    pub fn wire_forward(&mut self, r: PacketRef, adm: Admission) {
        let r = self.pool.rebrand(r);
        self.wire_pooled(r, adm);
    }

    /// Put a pooled, admitted packet on the wire. Applies gray failures
    /// and, if the packet survives, schedules its arrival at the peer
    /// after the propagation delay — by ref; the packet never moves. The
    /// arrival goes on the direction's queue channel: departures never
    /// run backwards and the delay is constant, so only a chaos-delayed
    /// packet's successors ever miss the channel's order.
    fn wire_pooled(&mut self, r: PacketRef, adm: Admission) {
        // Gray failures act on the wire, at the packet's departure time.
        let when = adm.departure_end;
        let mut dropped = false;
        // The chaos layer's combined verdict across installed fault plans:
        // first drop wins, duplication/reordering compose.
        let mut verdict = FaultVerdict::default();
        // Split borrows: failures need &mut rng, &pool and &mut link.dirs.
        let pkt = self.pool.get(r);
        let size = u64::from(pkt.size);
        let is_control = matches!(
            pkt.kind,
            PacketKind::FancyControl(_) | PacketKind::NetSeerNack { .. }
        );
        let (delay, remote);
        {
            let link = &mut self.links[adm.link];
            remote = link.remote;
            let dir = &mut link.dirs[adm.dir];
            dir.tx_packets += 1;
            dir.tx_bytes += size;
            for f in &dir.failures {
                if f.drops(pkt, when, &mut self.rng) {
                    dropped = true;
                    break;
                }
            }
            if !dropped {
                // Chaos plans draw from their own RNGs, never the kernel's,
                // so installing one cannot shift unrelated randomness.
                for plan in &mut dir.chaos {
                    let v = plan.apply(pkt, when);
                    if v.drop {
                        verdict.drop = true;
                        break;
                    }
                    verdict.duplicate |= v.duplicate;
                    if verdict.extra_delay.is_none() {
                        verdict.extra_delay = v.extra_delay;
                    }
                }
                if verdict.duplicate {
                    // The wire copy is real transmitted traffic.
                    dir.tx_packets += 1;
                    dir.tx_bytes += size;
                }
            }
            delay = link.cfg.delay;
        }
        if verdict.drop {
            self.telemetry.chaos_drops += 1;
            if is_control {
                self.telemetry.chaos_control_faults += 1;
            }
            if self.tracing(TraceKind::ChaosInject) {
                let uid = self.pool.get(r).uid;
                self.trace(|_| TraceEvent::ChaosInject {
                    t: when.as_nanos(),
                    link: adm.link as u64,
                    dir: adm.dir as u64,
                    action: "drop".into(),
                    uid,
                    control: u64::from(is_control),
                });
            }
            dropped = true;
        }
        if dropped {
            // The slot is recycled on the spot: drops free pool storage.
            let pkt = self.pool.remove(r);
            let cause = match pkt.kind {
                PacketKind::FancyControl(_) | PacketKind::NetSeerNack { .. } => {
                    self.telemetry.control_drops += 1;
                    DropCause::Control
                }
                _ => {
                    let entry = pkt.entry();
                    self.records.gray_drop(entry, when, size);
                    self.telemetry.packets_gray_dropped += 1;
                    DropCause::Gray
                }
            };
            if self.tracing(TraceKind::PacketDrop) {
                let node = self.current as u64;
                let (uid, entry, flow) = trace_ids(&pkt);
                // The wire acts at the packet's departure time, which may
                // trail `now` by the serialization backlog.
                self.trace(|_| TraceEvent::PacketDrop {
                    t: when.as_nanos(),
                    cause,
                    node,
                    link: Some(adm.link as u64),
                    dir: Some(adm.dir as u64),
                    uid,
                    entry,
                    flow,
                    size,
                });
            }
            return;
        }
        self.telemetry.packets_forwarded += 1;
        if self.tracing(TraceKind::PacketForward) {
            let (uid, entry, flow) = trace_ids(self.pool.get(r));
            self.trace(|_| TraceEvent::PacketForward {
                t: when.as_nanos(),
                link: adm.link as u64,
                dir: adm.dir as u64,
                uid,
                entry,
                flow,
                size,
            });
        }
        let arrive = when + delay;
        let chan = 2 * adm.link + adm.dir;
        if verdict.duplicate {
            // A wire duplicate: the copy keeps the original's uid (it is
            // the same packet twice, as a downstream dedup would see it)
            // and arrives undelayed even if the original is reordered.
            let copy = self.pool.get(r).clone();
            let uid = copy.uid;
            match remote {
                // Cross-shard: the copy travels by value in its own
                // outbox message; it never enters the local pool.
                Some(re) => self.outbox_push(arrive, re, copy),
                None => {
                    let r2 = self.pool.insert(copy);
                    self.queue.push_arrival_on(arrive, chan, r2);
                }
            }
            self.telemetry.packets_forwarded += 1;
            self.telemetry.chaos_dups += 1;
            if is_control {
                self.telemetry.chaos_control_faults += 1;
            }
            if self.tracing(TraceKind::ChaosInject) {
                self.trace(|_| TraceEvent::ChaosInject {
                    t: when.as_nanos(),
                    link: adm.link as u64,
                    dir: adm.dir as u64,
                    action: "dup".into(),
                    uid,
                    control: u64::from(is_control),
                });
            }
        }
        let arrive = match verdict.extra_delay {
            Some(extra) => {
                self.telemetry.chaos_reorders += 1;
                if is_control {
                    self.telemetry.chaos_control_faults += 1;
                }
                if self.tracing(TraceKind::ChaosInject) {
                    let uid = self.pool.get(r).uid;
                    self.trace(|_| TraceEvent::ChaosInject {
                        t: when.as_nanos(),
                        link: adm.link as u64,
                        dir: adm.dir as u64,
                        action: "reorder".into(),
                        uid,
                        control: u64::from(is_control),
                    });
                }
                arrive + extra
            }
            None => arrive,
        };
        match remote {
            // Cross-shard egress: the packet leaves this shard's pool and
            // rides an outbox message to the barrier.
            Some(re) => {
                let pkt = self.pool.remove(r);
                self.outbox_push(arrive, re, pkt);
            }
            None => self.queue.push_arrival_on(arrive, chan, r),
        }
    }

    /// Queue a cross-shard message on the outbox, stamping this shard's
    /// next seq-lane value.
    fn outbox_push(&mut self, at: SimTime, re: RemoteEnd, pkt: Packet) {
        let seq = self.next_out_seq;
        self.next_out_seq += 1;
        self.outbox.push(OutMsg {
            at,
            seq,
            dst_shard: re.shard,
            dst_node: re.node,
            dst_port: re.port,
            pkt,
        });
    }

    /// Drain the cross-shard outbox (the executor calls this at each
    /// window barrier).
    pub fn take_outbox(&mut self) -> Vec<OutMsg> {
        std::mem::take(&mut self.outbox)
    }

    /// The timestamp of the earliest pending event, if any — the shard's
    /// contribution to the executor's global window bound.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Send a new packet out `port` (hosts, simple switches): TM
    /// admission, then the wire. Returns false if the packet was dropped
    /// by the TM (congestion). Only an admitted packet is stamped and
    /// checked into the pool, so a refused one uses up no uid.
    pub fn send(&mut self, port: PortId, pkt: Packet) -> bool {
        let Some(adm) = self.admit(port, u64::from(pkt.size), |_| trace_ids(&pkt)) else {
            return false;
        };
        let r = self.check_in(pkt, self.now);
        self.wire_pooled(r, adm);
        true
    }

    /// Forward a pooled packet out `port`: TM admission, then the wire.
    /// Consumes the ref either way — on success the packet rides the next
    /// arrival event under a fresh generation; on congestion its slot is
    /// freed. Returns false on a congestion drop.
    pub fn forward(&mut self, port: PortId, r: PacketRef) -> bool {
        match self.tm_admit_ref(port, r) {
            Some(adm) => {
                self.wire_forward(r, adm);
                true
            }
            None => {
                let _ = self.pool.remove(r);
                false
            }
        }
    }

    /// Report a detection from the current node.
    pub fn report(&mut self, port: PortId, scope: DetectionScope, detector: DetectorKind) {
        if self.metrics_enabled() {
            let detector_name = detector.metric_name();
            let scope_name = scope.metric_name();
            // Detection latency against ground truth: an entry-scoped
            // detection measures from that entry's first gray drop; wider
            // scopes measure from the earliest drop of the run (a `min`
            // over the map's values, so hash iteration order is moot).
            let onset = match &scope {
                DetectionScope::Entry(p) => self.records.gray_drops.get(p).and_then(|s| s.first),
                _ => self
                    .records
                    .gray_drops
                    .values()
                    .filter_map(|s| s.first)
                    .min(),
            };
            let now = self.now;
            self.metrics(|r| {
                r.inc(
                    "fancy_detections_total",
                    Labels::new()
                        .with("detector", detector_name)
                        .with("scope", scope_name),
                );
                if let Some(first) = onset.filter(|&first| first <= now) {
                    r.observe(
                        "fancy_detection_latency_ns",
                        Labels::new().with("detector", detector_name),
                        now.duration_since(first).as_nanos(),
                    );
                }
            });
        }
        if self.tracing(TraceKind::Detection) {
            let node = self.current as u64;
            let (scope_name, entry, path) = match &scope {
                DetectionScope::Entry(p) => ("entry", Some(u64::from(p.0)), Vec::new()),
                DetectionScope::HashPath(p) => {
                    ("path", None, p.iter().map(|&b| u64::from(b)).collect())
                }
                DetectionScope::Uniform => ("uniform", None, Vec::new()),
                DetectionScope::LinkDown => ("link_down", None, Vec::new()),
            };
            let detector_name = match detector {
                DetectorKind::Baseline(name) => format!("baseline:{name}").into(),
                fancy => fancy.metric_name().into(),
            };
            self.trace(|t| TraceEvent::Detection {
                t,
                node,
                port: port as u64,
                detector: detector_name,
                scope: scope_name.into(),
                entry,
                path,
            });
        }
        let rec = DetectionRecord {
            time: self.now,
            node: self.current,
            port,
            scope,
            detector,
        };
        self.records.detections.push(rec);
    }

    /// Install a gray failure on a link direction. `from` names the node
    /// whose *egress* traffic is affected.
    pub fn add_failure(&mut self, link: LinkId, from: NodeId, failure: GrayFailure) {
        let l = &mut self.links[link];
        let dir = l.dir_from(link, from);
        l.dirs[dir].failures.push(failure);
    }

    /// Install an adversarial [`FaultPlan`] on a link direction. `from`
    /// names the node whose *egress* traffic the plan acts on — installing
    /// different plans per direction gives asymmetric loss. Plans apply
    /// after gray failures, at the packet's departure time.
    pub fn add_fault_plan(&mut self, link: LinkId, from: NodeId, plan: FaultPlan) {
        let l = &mut self.links[link];
        let dir = l.dir_from(link, from);
        l.dirs[dir].chaos.push(plan);
    }

    /// Access a link's static configuration and counters.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id]
    }

    /// Number of links installed so far. Because ids are assigned in
    /// connect order, this is also the id the *next* link will get —
    /// scenario builders use it to name a link in error context.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// High-water TM backlog (bytes) of the current node's egress `port`
    /// since the last call; resets the mark. Lets switches discard
    /// measurements taken while queues were long (the paper's footnote 2).
    pub fn take_max_backlog(&mut self, port: PortId) -> u64 {
        let (lid, dir) = self.resolve(port);
        self.links[lid].take_max_backlog(dir)
    }

    /// High-water TM backlog of an arbitrary link direction (`from` names
    /// the transmitting node), resetting the mark. This models queue-depth
    /// telemetry exported by path devices — what a partial FANcY
    /// deployment polls to discard congestion-tainted measurements
    /// (footnote 2 of the paper).
    pub fn take_link_max_backlog(&mut self, link: LinkId, from: NodeId) -> u64 {
        let l = &mut self.links[link];
        let dir = l.dir_from(link, from);
        l.take_max_backlog(dir)
    }

    pub(crate) fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        cfg: LinkConfig,
        nodes_len: usize,
    ) -> LinkId {
        while self.ports.len() < nodes_len {
            self.ports.push(Vec::new());
        }
        let pa = self.ports[a].len();
        let pb = self.ports[b].len();
        let id = self.add_link(Link::new(cfg, (a, pa), (b, pb)));
        self.ports[a].push((id, 0));
        self.ports[b].push((id, 1));
        id
    }

    /// Install `link` and open the arrival channels of its two
    /// directions, `2·id` and `2·id + 1` (see [`Kernel::wire_pooled`]).
    fn add_link(&mut self, link: Link) -> LinkId {
        let id = self.links.len();
        for dir in 0..2 {
            let (node, port) = link.peer(dir);
            let chan = self.queue.open_channel(node, port);
            debug_assert_eq!(chan, 2 * id + dir);
        }
        self.links.push(link);
        id
    }

    /// Attach the egress half of a cross-shard link: local node `a`
    /// transmits toward `remote` (a node in another shard). Only `a`'s
    /// side consumes a local port; the mirrored half-link in the peer
    /// shard covers the opposite direction.
    pub(crate) fn connect_remote(
        &mut self,
        a: NodeId,
        cfg: LinkConfig,
        remote: RemoteEnd,
        nodes_len: usize,
    ) -> LinkId {
        while self.ports.len() < nodes_len {
            self.ports.push(Vec::new());
        }
        let pa = self.ports[a].len();
        let id = self.add_link(Link::new_remote(cfg, (a, pa), remote));
        self.ports[a].push((id, 0));
        id
    }
}
