//! The FANcY switch: a `fancy_sim::Node` wiring everything together.
//!
//! Per monitored egress port the switch runs, as *upstream*: one sender FSM
//! and counter per dedicated entry, plus one sender FSM and [`ZoomEngine`]
//! for the hash-based tree, plus the output structures (flag array and
//! Bloom filter). As *downstream* (created when the first Start arrives on
//! a port) it runs the matching receiver FSMs and counter blocks.
//!
//! The FSMs are pure (§4.1): every input — a session opening, a control
//! message, a timer — goes through one step function per role
//! (`step_sender`, `step_receiver`), which traces the transition and
//! applies the emitted actions in the order they are emitted. A completed
//! session reopens by going back through `step_sender`. Two accessors,
//! `UpstreamPort::sender` and `DownstreamPort::receiver`, are the only
//! places that pick the tree's or a dedicated entry's instance.
//!
//! The data path follows the paper's counter placement exactly:
//!
//! 1. ingress: count tagged packets (before this switch's TM), strip tag;
//! 2. FIB lookup, then `steer` (the fast-reroute consultation, §6.1);
//! 3. TM admission — congestion drops happen here, *uncounted*;
//! 4. egress: count + tag admitted packets if the session is counting;
//! 5. wire — where gray failures live.
//!
//! What acts on the output structures beyond the paper's latch — backup
//! chains, cascaded failover, reroute damping — is the `failover` child
//! module, reached through `steer` and `drive_damp`.

use std::any::Any;

use fancy_net::{ControlBody, ControlMessage, FancyTag, FnvMap, Prefix, SessionKind};
use fancy_sim::metrics::Labels;
use fancy_sim::{
    DetectionScope, DetectorKind, DropCause, Kernel, Node, PacketKind, PacketRef, PortId,
    PortTable, TimerToken, TraceEvent, TraceKind, UNIT_TREE,
};

use crate::config::{FancyLayout, TimerConfig};
use crate::fsm::{Actions, ReceiverAction, ReceiverFsm, SenderAction, SenderFsm};
use crate::output::{FlagArray, OutputBloom};
use crate::tree::TreeHasher;
use crate::zoom::{ZoomEngine, ZoomOutcome, ZoomStep};

mod failover;

use failover::DampState;
pub use failover::Reroute;

/// `kind` value marking the tree session in timer tokens and dispatch.
const KIND_TREE: u16 = u16::MAX;
/// `kind` value marking the per-port congestion-guard poll timer.
const KIND_GUARD: u16 = u16::MAX - 1;

const ROLE_SENDER: u64 = 0;
const ROLE_RECEIVER: u64 = 1;

fn make_token(role: u64, port: PortId, kind: u16, epoch: u64) -> TimerToken {
    debug_assert!(port < 1024);
    role | ((port as u64) << 1) | (u64::from(kind) << 11) | (epoch << 27)
}

fn split_token(t: TimerToken) -> (u64, PortId, u16, u64) {
    (
        t & 1,
        ((t >> 1) & 0x3ff) as PortId,
        ((t >> 11) & 0xffff) as u16,
        t >> 27,
    )
}

/// Trace-event `unit` for a session kind given as the internal `kind` id.
fn unit_of(kind: u16) -> u64 {
    if kind == KIND_TREE {
        UNIT_TREE
    } else {
        u64::from(kind)
    }
}

/// The wire form of an internal `kind` id.
fn session_kind(kind: u16) -> SessionKind {
    if kind == KIND_TREE {
        SessionKind::Tree
    } else {
        SessionKind::Dedicated { counter_id: kind }
    }
}

fn body_label(body: &ControlBody) -> &'static str {
    match body {
        ControlBody::Start => "start",
        ControlBody::StartAck => "start_ack",
        ControlBody::Stop => "stop",
        ControlBody::Report(_) => "report",
    }
}

/// Emit an FSM-transition trace event (and bump the transition counter)
/// if the state actually changed. Cheap enough to call unconditionally:
/// the names are static strings and the kernel's trace and metrics
/// guards are each a single branch.
fn trace_fsm(
    ctx: &mut Kernel,
    port: PortId,
    kind: u16,
    role: &'static str,
    from: &'static str,
    to: &'static str,
) {
    if from == to {
        return;
    }
    if ctx.metrics_enabled() {
        ctx.metrics(|r| {
            r.inc(
                "fancy_fsm_transitions_total",
                Labels::new()
                    .with("role", role)
                    .with("subsystem", "fsm")
                    .with("to", to),
            );
        });
    }
    if ctx.tracing(TraceKind::FsmTransition) {
        let node = ctx.self_id() as u64;
        ctx.trace(|t| TraceEvent::FsmTransition {
            t,
            node,
            port: port as u64,
            role: role.into(),
            unit: unit_of(kind),
            from: from.into(),
            to: to.into(),
        });
    }
}

/// Trace a data packet the switch drops itself (no route, or no healthy
/// backup left).
fn trace_drop(ctx: &mut Kernel, pkt: PacketRef, cause: DropCause) {
    if ctx.tracing(TraceKind::PacketDrop) {
        let node = ctx.self_id() as u64;
        let p = ctx.pkt(pkt);
        let (uid, entry, flow, size) = (p.uid, u64::from(p.entry().0), p.flow(), u64::from(p.size));
        ctx.trace(|t| TraceEvent::PacketDrop {
            t,
            cause,
            node,
            link: None,
            dir: None,
            uid,
            entry,
            flow,
            size,
        });
    }
}

fn trace_degraded(ctx: &mut Kernel, port: PortId, on: u64) {
    let node = ctx.self_id() as u64;
    ctx.trace(|t| TraceEvent::DegradedMode {
        t,
        node,
        port: port as u64,
        on,
    });
}

/// Congestion guard for partial deployments (the paper's footnote 2):
/// "systematic failures can be distinguished from congestion even in
/// partial deployments of FANcY by monitoring queue sizes on all devices,
/// and discarding all measurements collected during periods where queue
/// sizes were excessively long." The guard periodically polls queue-depth
/// telemetry of the watched links (what real deployments get from
/// SNMP/INT) and suppresses comparisons while — and shortly after —
/// any watched queue ran long.
#[derive(Debug, Clone)]
pub struct CongestionGuard {
    /// A watched queue counts as congested above this backlog (bytes).
    pub threshold_bytes: u64,
    /// Telemetry polling period; measurements within 2 windows of a
    /// congested poll are discarded.
    pub window: fancy_sim::SimDuration,
    /// Links to watch: `(link, transmitting node)` pairs along the
    /// monitored path.
    pub watched: Vec<(fancy_sim::LinkId, fancy_sim::NodeId)>,
}

/// Aggregate switch statistics (overhead accounting, §5.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Control messages sent.
    pub control_sent: u64,
    /// Control bytes sent (with minimum-frame padding).
    pub control_bytes: u64,
    /// Data packets tagged on egress.
    pub tagged_packets: u64,
    /// Data packets rerouted to a backup port.
    pub rerouted_packets: u64,
    /// Data packets dropped for lack of a route.
    pub no_route_drops: u64,
    /// Session comparisons discarded by the congestion guard.
    pub discarded_sessions: u64,
    /// Cascaded failovers: the active backup of a rerouted entry changed
    /// because an earlier alternate turned unhealthy.
    pub failovers: u64,
    /// Data packets dropped because every ranked alternate was unhealthy
    /// (drop-and-alarm).
    pub alarm_drops: u64,
}

struct DedicatedUp {
    entry: Prefix,
    fsm: SenderFsm,
    count: u32,
    damp: DampState,
}

struct UpstreamPort {
    dedicated: Vec<DedicatedUp>,
    tree_fsm: SenderFsm,
    zoom: ZoomEngine,
    flags: FlagArray,
    bloom: OutputBloom,
    /// Last time a watched queue was seen congested (congestion guard).
    last_congested: Option<fancy_sim::SimTime>,
    /// Latched link-down state: set on the first protocol timeout, cleared
    /// when any session on the port completes again. Keeps LinkDown
    /// reports rising-edge like the other output registers.
    link_down: bool,
    /// Degraded port-level counting: entered when a sender FSM exhausts
    /// its retries (the control plane across this link is unusable), left
    /// when any session completes again. While degraded the switch stops
    /// tagging and instead keeps one aggregate egress counter for the
    /// port — the coarsest signal that still notices a blackhole.
    degraded: bool,
    /// Egress packets counted while in degraded mode.
    port_level_count: u64,
}

impl UpstreamPort {
    /// The sender FSM of session `kind`: the tree's, or a dedicated
    /// entry's (`None` past the dedicated table).
    fn sender(&mut self, kind: u16) -> Option<&mut SenderFsm> {
        if kind == KIND_TREE {
            Some(&mut self.tree_fsm)
        } else {
            self.dedicated
                .get_mut(usize::from(kind))
                .map(|d| &mut d.fsm)
        }
    }

    /// Does the output Bloom filter flag `entry`'s hash path? The path is
    /// folded as it is hashed, so the per-packet check never allocates.
    fn tree_flags(&self, entry: Prefix) -> bool {
        self.bloom
            .contains_path(self.zoom.hasher().path_iter(entry))
    }
}

/// One receiver FSM and the counters its sessions fill: one for a
/// dedicated entry, `slot_count × width` for the tree. The counters are
/// also what a duplicated Stop is answered from: after `T_wait` the FSM
/// is `Idle` and nothing touches them until the next Start resets them,
/// the way a Tofino answers from its frozen registers.
struct ReceiverUnit {
    fsm: ReceiverFsm,
    counters: Vec<u32>,
}

impl ReceiverUnit {
    fn new(timers: TimerConfig, len: usize) -> Self {
        ReceiverUnit {
            fsm: ReceiverFsm::new(timers),
            counters: vec![0; len],
        }
    }
}

/// The receiving end of a port, created by the first Start heard on it.
struct DownstreamPort {
    dedicated: Vec<ReceiverUnit>,
    tree: ReceiverUnit,
    /// Where to address replies (the upstream's control source address).
    reply_to: u32,
}

impl DownstreamPort {
    fn new(layout: &FancyLayout) -> Self {
        let tree_len = layout.tree.slot_count() * usize::from(layout.tree.width);
        DownstreamPort {
            dedicated: layout
                .high_priority
                .iter()
                .map(|_| ReceiverUnit::new(layout.timers, 1))
                .collect(),
            tree: ReceiverUnit::new(layout.timers, tree_len),
            reply_to: 0,
        }
    }

    /// The receiver of session `kind`: the tree's, or a dedicated
    /// entry's (`None` past the dedicated table).
    fn receiver(&mut self, kind: u16) -> Option<&mut ReceiverUnit> {
        if kind == KIND_TREE {
            Some(&mut self.tree)
        } else {
            self.dedicated.get_mut(usize::from(kind))
        }
    }
}

/// A FANcY-capable switch.
pub struct FancySwitch {
    /// Forwarding table.
    pub fib: fancy_sim::Fib,
    layout: FancyLayout,
    dedicated_index: FnvMap<Prefix, u16>,
    seed: u64,
    monitored: Vec<PortId>,
    upstream: PortTable<UpstreamPort>,
    downstream: PortTable<DownstreamPort>,
    /// Fast-reroute table; `None` disables rerouting.
    pub reroute: Option<Reroute>,
    /// Congestion guards per monitored port (footnote 2; partial
    /// deployments).
    pub guards: PortTable<CongestionGuard>,
    /// This switch's own address, used as the source of control messages
    /// so they can be routed back across legacy hops (partial deployment,
    /// §4.3). 0 works for adjacent deployments.
    pub addr: u32,
    /// Destination address for control messages per monitored port. For
    /// adjacent switches the default 0 is consumed at the next hop; for
    /// remote (partial) deployment set it to the peer FANcY switch's
    /// address so legacy switches in between can route it.
    pub control_dst: PortTable<u32>,
    /// Aggregate statistics.
    pub stats: SwitchStats,
    /// `(primary port, entry) → backup port currently in use` — the
    /// active alternate of the failover cascade. Never cleared, so its
    /// first insert marks the first reroute (one Reroute event) and each
    /// change of value one Failover event, not per-packet noise. Always
    /// maintained: `stats.failovers` must not depend on whether tracing
    /// or metrics are on.
    active_backup: FnvMap<(PortId, Prefix), PortId>,
    /// `(primary port, entry)` pairs whose exhausted-cascade alarm has
    /// been traced (rising edge). Only populated while tracing or
    /// metrics are enabled.
    alarmed: FnvMap<(PortId, Prefix), ()>,
}

impl FancySwitch {
    /// Build a switch from a translated layout. `monitored` lists the
    /// egress ports on which this switch acts as the counting upstream
    /// (FANcY is "deployed at every switch, so that it can monitor all
    /// links, one by one" in full deployments, §4.3).
    pub fn new(
        fib: fancy_sim::Fib,
        layout: FancyLayout,
        monitored: Vec<PortId>,
        seed: u64,
    ) -> Self {
        let dedicated_index = layout
            .high_priority
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i as u16))
            .collect();
        let mut sw = FancySwitch {
            fib,
            layout,
            dedicated_index,
            seed,
            monitored: monitored.clone(),
            upstream: PortTable::new(),
            downstream: PortTable::new(),
            reroute: None,
            guards: PortTable::new(),
            addr: 0,
            control_dst: PortTable::new(),
            stats: SwitchStats::default(),
            active_backup: FnvMap::default(),
            alarmed: FnvMap::default(),
        };
        for port in monitored {
            sw.upstream.insert(port, sw.make_upstream(port));
        }
        sw
    }

    /// The upstream state of a monitored port; asking about any other
    /// port is a caller bug.
    fn up(&self, port: PortId) -> &UpstreamPort {
        self.upstream
            .get(port)
            .expect("not a monitored egress port")
    }

    fn up_mut(&mut self, port: PortId) -> &mut UpstreamPort {
        self.upstream
            .get_mut(port)
            .expect("not a monitored egress port")
    }

    fn make_upstream(&self, port: PortId) -> UpstreamPort {
        let t = self.layout.timers;
        UpstreamPort {
            dedicated: self
                .layout
                .high_priority
                .iter()
                .map(|&entry| DedicatedUp {
                    entry,
                    fsm: SenderFsm::new(t.dedicated_interval, t),
                    count: 0,
                    damp: DampState::new(),
                })
                .collect(),
            tree_fsm: SenderFsm::new(t.zooming_interval, t),
            zoom: ZoomEngine::new(self.layout.tree, self.seed ^ ((port as u64) << 32)),
            flags: FlagArray::new(self.layout.high_priority.len()),
            bloom: OutputBloom::tofino_default(self.seed ^ 0xB100),
            last_congested: None,
            link_down: false,
            degraded: false,
            port_level_count: 0,
        }
    }

    /// The internal `kind` of a dedicated counter id read off the wire:
    /// `None` past this switch's dedicated table (an id it has no counter
    /// for; `0xFFFF` would even alias the tree).
    fn dedicated_kind(&self, counter_id: u16) -> Option<u16> {
        (usize::from(counter_id) < self.layout.high_priority.len()).then_some(counter_id)
    }

    /// The hash functions used on `port`'s tree (experiments resolve
    /// reported hash paths against the entry universe with this).
    pub fn tree_hasher(&self, port: PortId) -> &TreeHasher {
        self.up(port).zoom.hasher()
    }

    /// Dedicated entries currently flagged on `port`.
    pub fn flagged_entries(&self, port: PortId) -> Vec<Prefix> {
        let up = self.up(port);
        up.flags
            .flagged()
            .into_iter()
            .map(|id| up.dedicated[usize::from(id)].entry)
            .collect()
    }

    /// Does `port`'s output Bloom filter flag this entry's hash path?
    pub fn tree_flags_entry(&self, port: PortId, entry: Prefix) -> bool {
        self.up(port).tree_flags(entry)
    }

    /// Completed counting sessions on `port` (dedicated, tree).
    pub fn sessions_completed(&self, port: PortId) -> (u64, u64) {
        let up = self.up(port);
        (
            up.dedicated.iter().map(|d| d.fsm.sessions_completed).sum(),
            up.tree_fsm.sessions_completed,
        )
    }

    /// Is the port currently latched link-down (protocol timeouts and no
    /// completed session since)?
    pub fn is_link_down(&self, port: PortId) -> bool {
        self.upstream.get(port).is_some_and(|u| u.link_down)
    }

    /// Is the port in degraded port-level counting (protocol retries
    /// exhausted, no completed session since)?
    pub fn is_degraded(&self, port: PortId) -> bool {
        self.upstream.get(port).is_some_and(|u| u.degraded)
    }

    /// Egress packets counted at port level while `port` was degraded.
    pub fn port_level_count(&self, port: PortId) -> u64 {
        self.upstream.get(port).map_or(0, |u| u.port_level_count)
    }

    // ------------------------------------------------------------------
    // The two FSM drivers.
    // ------------------------------------------------------------------

    fn send_control(
        &mut self,
        ctx: &mut Kernel,
        port: PortId,
        dst: u32,
        kind: u16,
        session_id: u32,
        body: ControlBody,
    ) {
        let msg = ControlMessage {
            kind: session_kind(kind),
            session_id,
            body,
        };
        let size = msg.frame_len() as u32;
        self.stats.control_sent += 1;
        self.stats.control_bytes += u64::from(size);
        if ctx.tracing(TraceKind::CounterExchange) {
            let node = ctx.self_id() as u64;
            let body = body_label(&msg.body);
            ctx.trace(|t| TraceEvent::CounterExchange {
                t,
                node,
                port: port as u64,
                unit: unit_of(kind),
                session: u64::from(session_id),
                body: body.into(),
                dir: "tx".into(),
                len: u64::from(size),
            });
        }
        let pkt =
            fancy_sim::PacketBuilder::new(self.addr, dst, size, PacketKind::FancyControl(msg))
                .build();
        ctx.send(port, pkt);
    }

    /// Feed one input to the sender FSM of (`port`, `kind`), trace the
    /// transition, and apply the actions in the order they are emitted.
    /// `report` is the counters of the Report message being fed (empty
    /// for any other input): a `Deliver` compares against them.
    fn step_sender(
        &mut self,
        ctx: &mut Kernel,
        port: PortId,
        kind: u16,
        report: &[u32],
        input: impl FnOnce(&mut SenderFsm) -> Actions<SenderAction>,
    ) {
        let Some(fsm) = self.upstream.get_mut(port).and_then(|up| up.sender(kind)) else {
            return; // a reply on a port we do not monitor: ignore
        };
        let before = fsm.state.name();
        let actions = input(fsm);
        let session_id = fsm.session_id;
        trace_fsm(ctx, port, kind, "tx", before, fsm.state.name());
        for action in actions {
            match action {
                SenderAction::Send(body) => {
                    let dst = self.control_dst.get(port).copied().unwrap_or(0);
                    self.send_control(ctx, port, dst, kind, session_id, body);
                }
                SenderAction::ResetCounters => {
                    let up = self.up_mut(port);
                    if kind == KIND_TREE {
                        up.zoom.begin_session();
                    } else if let Some(d) = up.dedicated.get_mut(usize::from(kind)) {
                        d.count = 0;
                    }
                }
                SenderAction::BeginCounting | SenderAction::EndCounting => {}
                SenderAction::Deliver => {
                    // A completed session proves the link answers again.
                    let up = self.up_mut(port);
                    up.link_down = false;
                    if std::mem::take(&mut up.degraded) {
                        trace_degraded(ctx, port, 0);
                    }
                    self.deliver_report(ctx, port, kind, report);
                    // "immediately after, starts a new session" (§3).
                    self.step_sender(ctx, port, kind, &[], SenderFsm::open);
                }
                SenderAction::LinkFailure => {
                    let up = self.up_mut(port);
                    if !up.link_down {
                        up.link_down = true;
                        ctx.report(
                            port,
                            DetectionScope::LinkDown,
                            DetectorKind::ProtocolTimeout,
                        );
                    }
                    if !up.degraded {
                        // Retry exhaustion: fall back to port-level
                        // counting until a session completes again.
                        up.degraded = true;
                        ctx.telemetry.degraded_entries += 1;
                        trace_degraded(ctx, port, 1);
                    }
                }
                SenderAction::ArmTimer { delay, epoch } => {
                    ctx.schedule_timer(delay, make_token(ROLE_SENDER, port, kind, epoch));
                }
            }
        }
    }

    /// Feed one input to the receiver FSM of (`port`, `kind`), trace the
    /// transition, and apply the actions in the order they are emitted.
    fn step_receiver(
        &mut self,
        ctx: &mut Kernel,
        port: PortId,
        kind: u16,
        input: impl FnOnce(&mut ReceiverFsm) -> Actions<ReceiverAction>,
    ) {
        let Some(down) = self.downstream.get_mut(port) else {
            return;
        };
        let dst = down.reply_to;
        let Some(rx) = down.receiver(kind) else {
            return;
        };
        let before = rx.fsm.state.name();
        let actions = input(&mut rx.fsm);
        let session_id = rx.fsm.session_id;
        trace_fsm(ctx, port, kind, "rx", before, rx.fsm.state.name());
        for action in actions {
            let rx = self
                .downstream
                .get_mut(port)
                .and_then(|d| d.receiver(kind))
                .expect("stepped above");
            let (session_id, body) = match action {
                ReceiverAction::Send(body) => (session_id, body),
                ReceiverAction::ResetCounters => {
                    rx.counters.fill(0);
                    continue;
                }
                ReceiverAction::EmitReport => {
                    (session_id, ControlBody::Report(rx.counters.clone()))
                }
                ReceiverAction::ResendReport { session_id } => {
                    (session_id, ControlBody::Report(rx.counters.clone()))
                }
                ReceiverAction::ArmTimer { delay, epoch } => {
                    ctx.schedule_timer(delay, make_token(ROLE_RECEIVER, port, kind, epoch));
                    continue;
                }
            };
            self.send_control(ctx, port, dst, kind, session_id, body);
        }
    }

    /// Should this port's measurements be discarded right now?
    fn congestion_tainted(&self, ctx: &Kernel, port: PortId) -> bool {
        let (Some(guard), Some(up)) = (self.guards.get(port), self.upstream.get(port)) else {
            return false;
        };
        up.last_congested.is_some_and(|t| {
            ctx.now().saturating_since(t).as_nanos() <= 2 * guard.window.as_nanos()
        })
    }

    /// Compare a completed session's Report against the local counters.
    fn deliver_report(&mut self, ctx: &mut Kernel, port: PortId, kind: u16, counters: &[u32]) {
        if self.congestion_tainted(ctx, port) {
            // Footnote 2: discard measurements taken while watched queues
            // were excessively long — a mismatch here could be congestion
            // on an unmonitored hop, not a gray failure.
            self.stats.discarded_sessions += 1;
            if kind == KIND_TREE {
                // Keep the zooming state consistent: treat as a clean
                // session so stale paths are abandoned, not advanced.
                let up = self.up_mut(port);
                let local = up.zoom.local_report();
                let _ = up.zoom.end_session(&local);
            }
            return;
        }
        let up = self.up_mut(port);
        if kind != KIND_TREE {
            // A dedicated Report carries exactly one counter; drop any
            // other (the session just restarts), as the tree does below.
            if let (Some(d), &[remote]) = (up.dedicated.get(usize::from(kind)), counters) {
                let lossy = d.count > remote;
                self.drive_damp(ctx, port, kind, lossy);
            }
            return;
        }
        let expected = up.zoom.slot_count() * usize::from(up.zoom.params().width);
        if counters.len() != expected {
            return; // malformed report; drop it, session just restarts
        }
        let outcomes = up.zoom.end_session(counters);
        if ctx.tracing(TraceKind::ZoomStep) || ctx.metrics_enabled() {
            // Drain the zooming steps before emitting detections so a
            // timeline reader sees first-suspicion before detect at
            // equal timestamps.
            let steps = self.up_mut(port).zoom.take_session_log();
            let node = ctx.self_id() as u64;
            for step in steps {
                let (label, path, lost): (&'static str, &[u8], u32) = match &step {
                    ZoomStep::Adopt { path } => ("adopt", path, 0),
                    ZoomStep::Descend { path } => ("descend", path, 0),
                    ZoomStep::Abandon { path } => ("abandon", path, 0),
                    ZoomStep::Leaf { path, lost } => ("leaf", path, *lost),
                    ZoomStep::Uniform => ("uniform", &[], 0),
                };
                if ctx.metrics_enabled() && !matches!(step, ZoomStep::Uniform) {
                    let depth = path.len() as u64;
                    ctx.metrics(|r| {
                        r.observe("fancy_zoom_depth", Labels::new().with("step", label), depth);
                    });
                }
                if ctx.tracing(TraceKind::ZoomStep) {
                    let path: Vec<u64> = path.iter().map(|&b| u64::from(b)).collect();
                    ctx.trace(|t| TraceEvent::ZoomStep {
                        t,
                        node,
                        port: port as u64,
                        step: label.into(),
                        path,
                        lost: u64::from(lost),
                    });
                }
            }
        }
        for outcome in outcomes {
            match outcome {
                ZoomOutcome::Uniform => {
                    ctx.report(port, DetectionScope::Uniform, DetectorKind::UniformCheck);
                }
                ZoomOutcome::LeafFailure { path, .. } => {
                    let up = self.up_mut(port);
                    // Rising edge only: paths already in the output
                    // Bloom filter are already being acted upon.
                    if !up.bloom.contains(&path) {
                        up.bloom.insert(&path);
                        ctx.report(port, DetectionScope::HashPath(path), DetectorKind::HashTree);
                    }
                }
            }
        }
    }

    fn on_control(&mut self, ctx: &mut Kernel, port: PortId, src: u32, msg: ControlMessage) {
        let kind = match msg.kind {
            SessionKind::Tree => KIND_TREE,
            SessionKind::Dedicated { counter_id } => match self.dedicated_kind(counter_id) {
                Some(kind) => kind,
                None => return,
            },
        };
        if ctx.tracing(TraceKind::CounterExchange) {
            let node = ctx.self_id() as u64;
            let body = body_label(&msg.body);
            let len = msg.frame_len() as u64;
            let session = u64::from(msg.session_id);
            ctx.trace(|t| TraceEvent::CounterExchange {
                t,
                node,
                port: port as u64,
                unit: unit_of(kind),
                session,
                body: body.into(),
                dir: "rx".into(),
                len,
            });
        }
        match &msg.body {
            ControlBody::Start | ControlBody::Stop => {
                let layout = &self.layout;
                let down = self
                    .downstream
                    .get_or_insert_with(port, || DownstreamPort::new(layout));
                down.reply_to = src;
                self.step_receiver(ctx, port, kind, |fsm| {
                    fsm.on_message(msg.session_id, &msg.body)
                });
            }
            ControlBody::StartAck => {
                self.step_sender(ctx, port, kind, &[], |fsm| {
                    fsm.on_message(msg.session_id, &msg.body)
                });
            }
            ControlBody::Report(counters) => {
                self.step_sender(ctx, port, kind, counters, |fsm| {
                    fsm.on_message(msg.session_id, &msg.body)
                });
            }
        }
    }

    /// Ingress counting: tagged packets are counted before this switch's TM
    /// and the (hop-local) tag is stripped.
    fn ingress_count(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
        let Some(tag) = ctx.pkt_mut(pkt).tag.take() else {
            return;
        };
        let (kind, i) = match tag {
            FancyTag::Dedicated { counter_id } => match self.dedicated_kind(counter_id) {
                Some(kind) => (kind, 0),
                None => return,
            },
            FancyTag::Tree { slot, index } => {
                let w = usize::from(self.layout.tree.width);
                (KIND_TREE, usize::from(slot) * w + usize::from(index))
            }
        };
        let Some(rx) = self.downstream.get_mut(port).and_then(|d| d.receiver(kind)) else {
            return;
        };
        if rx.fsm.accepts_counts() {
            if let Some(c) = rx.counters.get_mut(i) {
                *c = c.wrapping_add(1);
            }
            let before = rx.fsm.state.name();
            rx.fsm.on_tagged_packet();
            trace_fsm(ctx, port, kind, "rx", before, rx.fsm.state.name());
        }
    }

    /// Egress counting/tagging of an admitted packet.
    fn egress_count(&mut self, ctx: &mut Kernel, out: PortId, pkt: PacketRef) {
        let Some(up) = self.upstream.get_mut(out) else {
            return;
        };
        if up.degraded {
            // Degraded mode: no tagging or per-entry state, just one
            // aggregate per-port count.
            up.port_level_count = up.port_level_count.wrapping_add(1);
            return;
        }
        let entry = ctx.pkt(pkt).entry();
        if let Some(&id) = self.dedicated_index.get(&entry) {
            let d = &mut up.dedicated[usize::from(id)];
            if d.fsm.is_counting() {
                d.count = d.count.wrapping_add(1);
                ctx.pkt_mut(pkt).tag = Some(FancyTag::Dedicated { counter_id: id });
                self.stats.tagged_packets += 1;
            }
        } else if up.tree_fsm.is_counting() {
            ctx.pkt_mut(pkt).tag = Some(up.zoom.tag_and_count(entry));
            self.stats.tagged_packets += 1;
        }
    }
}

impl Node for FancySwitch {
    fn on_start(&mut self, ctx: &mut Kernel) {
        // Congestion-guard telemetry polls.
        for (port, guard) in self.guards.iter() {
            ctx.schedule_timer(guard.window, make_token(ROLE_SENDER, port, KIND_GUARD, 0));
        }
        // Open the first counting session on every monitored port, for every
        // dedicated entry and the tree.
        let dedicated = self.layout.high_priority.len() as u16;
        for port in self.monitored.clone() {
            for kind in (0..dedicated).chain([KIND_TREE]) {
                self.step_sender(ctx, port, kind, &[], SenderFsm::open);
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
        if matches!(ctx.pkt(pkt).kind, PacketKind::FancyControl(_)) {
            // A FANcY switch consumes control messages addressed to it (or
            // link-local ones, dst 0); anything else is in transit to a
            // remote peer and is forwarded like data.
            let (src, dst) = {
                let p = ctx.pkt(pkt);
                (p.src, p.dst)
            };
            if dst == 0 || dst == self.addr || self.fib.lookup(dst).is_none() {
                let owned = ctx.take_packet(pkt);
                let PacketKind::FancyControl(msg) = owned.kind else {
                    unreachable!("checked above");
                };
                self.on_control(ctx, port, src, msg);
                return;
            }
            let out = self.fib.lookup(dst).expect("checked above");
            ctx.forward(out, pkt);
            return;
        }
        // 1. Ingress (downstream) counting, before our TM.
        self.ingress_count(ctx, port, pkt);

        // 2. FIB lookup, then steering around flagged paths (§6.1).
        let entry = ctx.pkt(pkt).entry();
        let Some(primary) = self.fib.lookup(ctx.pkt(pkt).dst) else {
            self.stats.no_route_drops += 1;
            trace_drop(ctx, pkt, DropCause::NoRoute);
            return;
        };
        let Some(out) = self.steer(ctx, primary, pkt, entry) else {
            return;
        };

        // 3. TM admission (congestion drops are not counted), then egress
        //    counting + tagging, then the wire. The packet never leaves the
        //    pool: it is re-tagged in place and rides the next arrival.
        if let Some(adm) = ctx.tm_admit_ref(out, pkt) {
            self.egress_count(ctx, out, pkt);
            ctx.wire_forward(pkt, adm);
        }
    }

    fn on_timer(&mut self, ctx: &mut Kernel, token: TimerToken) {
        let (role, port, kind, epoch) = split_token(token);
        if role == ROLE_SENDER && kind == KIND_GUARD {
            let Some(guard) = self.guards.get(port).cloned() else {
                return;
            };
            let congested = guard
                .watched
                .iter()
                .any(|&(link, from)| ctx.take_link_max_backlog(link, from) > guard.threshold_bytes);
            if congested {
                if let Some(up) = self.upstream.get_mut(port) {
                    up.last_congested = Some(ctx.now());
                }
            }
            ctx.schedule_timer(guard.window, make_token(ROLE_SENDER, port, KIND_GUARD, 0));
            return;
        }
        if role == ROLE_SENDER {
            self.step_sender(ctx, port, kind, &[], |fsm| fsm.on_timer(epoch));
        } else {
            self.step_receiver(ctx, port, kind, |fsm| fsm.on_timer(epoch));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::failover::DampPhase;
    use super::*;
    use crate::config::{FancyInput, TimerConfig};
    use crate::tree::TreeParams;
    use fancy_net::ControlKind;
    use fancy_sim::{
        DetectionScope, DetectorKind, FaultPlan, FaultStage, FaultTarget, GrayFailure, LinkConfig,
        Network, SimDuration, SimTime,
    };
    use fancy_tcp::{ReceiverHost, ScheduledFlow, SenderHost};

    fn token_roundtrip(role: u64, port: PortId, kind: u16, epoch: u64) {
        assert_eq!(
            split_token(make_token(role, port, kind, epoch)),
            (role, port, kind, epoch)
        );
    }

    #[test]
    fn timer_tokens_roundtrip() {
        token_roundtrip(ROLE_SENDER, 0, 0, 0);
        token_roundtrip(ROLE_RECEIVER, 1023, KIND_TREE, 1 << 30);
        token_roundtrip(ROLE_SENDER, 63, 499, 12345);
    }

    /// Build the §5 experiment topology:
    /// `sender host — S1 — S2 — receiver host`, FANcY on the S1→S2 link.
    /// Returns (network, s1, s2, link_id, receiver).
    fn fancy_pair(
        high_priority: Vec<Prefix>,
        tree: TreeParams,
        flows: Vec<ScheduledFlow>,
        seed: u64,
    ) -> (Network, usize, usize, usize, usize) {
        fancy_pair_via(high_priority, tree, flows, seed, None)
    }

    /// [`fancy_pair`], optionally with a two-port `tap` between the
    /// monitored link and S2: `S1 — link — tap — S2`. The tap is the last
    /// node added, right after the receiver.
    fn fancy_pair_via(
        high_priority: Vec<Prefix>,
        tree: TreeParams,
        flows: Vec<ScheduledFlow>,
        seed: u64,
        tap: Option<Box<dyn Node>>,
    ) -> (Network, usize, usize, usize, usize) {
        let mut input = FancyInput {
            high_priority,
            memory_bytes_per_port: 1 << 20,
            tree,
            timers: TimerConfig::paper_default(),
        };
        input.timers = input.timers.for_link_delay(SimDuration::from_millis(10));
        let layout = input.translate().expect("layout");

        let mut net = Network::new(seed);
        let host = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        // S1: port 0 → host, port 1 → S2 (monitored).
        let mut fib1 = fancy_sim::Fib::new();
        fib1.default_route(1);
        fib1.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s1 = net.add_node(Box::new(FancySwitch::new(
            fib1,
            layout.clone(),
            vec![1],
            seed,
        )));
        // S2: port 0 → S1, port 1 → receiver.
        let mut fib2 = fancy_sim::Fib::new();
        fib2.default_route(1);
        fib2.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s2 = net.add_node(Box::new(FancySwitch::new(
            fib2,
            layout,
            Vec::new(),
            seed + 1,
        )));
        let rx = net.add_node(Box::new(ReceiverHost::new()));

        let edge = LinkConfig::new(10_000_000_000, SimDuration::from_micros(10));
        let core = LinkConfig::new(10_000_000_000, SimDuration::from_millis(10));
        net.connect(host, s1, edge); // host port 0 / s1 port 0
        let link = match tap {
            None => net.connect(s1, s2, core), // s1 port 1 / s2 port 0
            Some(tap) => {
                let tap = net.add_node(tap);
                let link = net.connect(s1, tap, core);
                net.connect(tap, s2, edge);
                link
            }
        };
        net.connect(s2, rx, edge); // s2 port 1 / rx port 0
        (net, s1, s2, link, rx)
    }

    fn steady_flows(dst: u32, rate: u64, n: usize, spacing_ms: u64) -> Vec<ScheduledFlow> {
        (0..n)
            .map(|i| ScheduledFlow {
                start: SimTime(i as u64 * spacing_ms * 1_000_000),
                dst,
                cfg: fancy_tcp::FlowConfig::for_rate(rate, 1.0),
            })
            .collect()
    }

    /// A transparent two-port node that records every tree Report
    /// crossing it: `(time, session, counters)`.
    #[derive(Default)]
    struct ReportTap(Vec<(SimTime, u32, Vec<u32>)>);

    impl Node for ReportTap {
        fn on_packet(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
            if let PacketKind::FancyControl(msg) = &ctx.pkt(pkt).kind {
                if let (SessionKind::Tree, ControlBody::Report(counters)) = (msg.kind, &msg.body) {
                    self.0.push((ctx.now(), msg.session_id, counters.clone()));
                }
            }
            ctx.forward(1 - port, pkt);
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// What a tree-only pair `S1 — tap — S2` did by 8 s, with a gray
    /// failure on one entry from 1 s and, if `drop_until` is set, every
    /// Report lost on the wire before then.
    struct TappedRun {
        reports: Vec<(SimTime, u32, Vec<u32>)>,
        detections: Vec<(DetectorKind, DetectionScope)>,
        tree_sessions: u64,
        control_losses: u64,
    }

    fn tapped_run(drop_until: Option<SimTime>) -> TappedRun {
        let entry = Prefix::from_addr(0x0B_00_00_07);
        let flows = steady_flows(0x0B_00_00_07, 2_000_000, 30, 150);
        let tap = Box::new(ReportTap::default());
        let (mut net, s1, _s2, link, rx) = fancy_pair_via(
            Vec::new(),
            TreeParams::paper_default(),
            flows,
            13,
            Some(tap),
        );
        let tap = rx + 1;
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(link, s1, GrayFailure::single_entry(entry, 0.5, fail_at));
        if let Some(end) = drop_until {
            let reports = FaultTarget::Control(Some(vec![ControlKind::Report]));
            let stage = FaultStage::new(reports)
                .bernoulli(1.0)
                .window(SimTime::ZERO, end);
            net.kernel
                .add_fault_plan(link, tap, FaultPlan::new(1).stage(stage));
        }
        net.run_until(SimTime::ZERO + SimDuration::from_secs(8));
        let detections = net
            .kernel
            .records
            .detections
            .iter()
            .map(|d| (d.detector, d.scope.clone()))
            .collect();
        TappedRun {
            reports: std::mem::take(&mut net.node_mut::<ReportTap>(tap).0),
            detections,
            tree_sessions: net.node::<FancySwitch>(s1).sessions_completed(1).1,
            control_losses: net.kernel.telemetry.control_drops,
        }
    }

    #[test]
    fn lost_tree_report_is_resent_bit_for_bit() {
        let clean = tapped_run(None);
        let (first_at, session, ref first) = clean.reports[0];
        // Lose the first tree Report on the wire back to S1, and only it:
        // the repeated Stop comes a T_rtx later.
        let lossy = tapped_run(Some(first_at + SimDuration::from_millis(1)));
        assert_eq!(lossy.control_losses, 1);
        let [(_, lost_session, lost), (_, resent_session, resent), ..] = &lossy.reports[..] else {
            panic!("{} tree Reports", lossy.reports.len());
        };
        assert_eq!((lost_session, lost), (&session, first));
        assert_eq!((resent_session, resent), (&session, first));
        assert!(
            lost.iter().any(|&c| c > 0),
            "the first session counted nothing"
        );
        // The session completes from the re-sent Report, and the run
        // finds what the clean run found.
        assert!(
            lossy.tree_sessions > 10,
            "{} tree sessions",
            lossy.tree_sessions
        );
        assert!(!clean.detections.is_empty());
        assert_eq!(lossy.detections, clean.detections);
    }

    #[test]
    fn dedicated_counter_detects_single_entry_blackhole() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 1_000_000, 20, 200);
        let (mut net, s1, _s2, link, _rx) =
            fancy_pair(vec![entry], TreeParams::paper_default(), flows, 11);
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(link, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));

        let det = net
            .kernel
            .records
            .first_entry_detection(entry)
            .expect("blackhole must be detected");
        assert_eq!(det.detector, DetectorKind::DedicatedCounter);
        let latency = det.time.duration_since(fail_at);
        // Expect ≈ exchange interval (50 ms) + session open/close RTTs.
        assert!(
            latency < SimDuration::from_millis(500),
            "detection took {latency}"
        );
        // The switch's own output structures agree.
        let sw: &FancySwitch = net.node(s1);
        assert_eq!(sw.flagged_entries(1), vec![entry]);
    }

    #[test]
    fn no_failure_no_detection_counters_stay_consistent() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 1_000_000, 10, 100);
        let (mut net, s1, _s2, _link, _rx) =
            fancy_pair(vec![entry], TreeParams::paper_default(), flows, 12);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(net.kernel.records.detections.is_empty());
        let sw: &FancySwitch = net.node(s1);
        let (ded_sessions, tree_sessions) = sw.sessions_completed(1);
        // 5 s / (50 ms + ~2 RTT) ≈ 50+ dedicated sessions; tree ≈ 20.
        assert!(ded_sessions > 30, "dedicated sessions: {ded_sessions}");
        assert!(tree_sessions > 10, "tree sessions: {tree_sessions}");
    }

    #[test]
    fn hash_tree_detects_best_effort_entry() {
        let entry = Prefix::from_addr(0x0B_00_00_07);
        // No high-priority entries: everything is best effort.
        let flows = steady_flows(0x0B_00_00_07, 2_000_000, 30, 150);
        let (mut net, s1, _s2, link, _rx) =
            fancy_pair(Vec::new(), TreeParams::paper_default(), flows, 13);
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(link, s1, GrayFailure::single_entry(entry, 0.5, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(8));

        let tree_dets: Vec<_> = net
            .kernel
            .records
            .detections_by(DetectorKind::HashTree)
            .collect();
        assert!(!tree_dets.is_empty(), "tree must detect the failed entry");
        let sw: &FancySwitch = net.node(s1);
        // The reported hash path resolves to the failed entry.
        let DetectionScope::HashPath(path) = &tree_dets[0].scope else {
            panic!("unexpected scope");
        };
        assert_eq!(path, &sw.tree_hasher(1).hash_path(entry));
        assert!(sw.tree_flags_entry(1, entry));
        // Detection latency ≈ depth × (zooming interval + 2 RTT).
        let latency = tree_dets[0].time.duration_since(fail_at);
        assert!(
            latency < SimDuration::from_millis(1500),
            "tree detection took {latency}"
        );
    }

    #[test]
    fn uniform_failure_flagged_as_uniform() {
        // Many entries so most root counters carry traffic.
        let mut flows = Vec::new();
        for i in 0..300u32 {
            flows.push(ScheduledFlow {
                start: SimTime((i as u64 % 10) * 20_000_000),
                dst: 0x0C_00_00_00 + i * 256 + 1,
                cfg: fancy_tcp::FlowConfig::for_rate(500_000, 30.0),
            });
        }
        let (mut net, _s1, _s2, link, _rx) =
            fancy_pair(Vec::new(), TreeParams::paper_default(), flows, 14);
        let s1 = 1;
        let fail_at = SimTime::ZERO + SimDuration::from_secs(2);
        net.kernel
            .add_failure(link, s1, GrayFailure::uniform(0.5, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let uni: Vec<_> = net
            .kernel
            .records
            .detections_by(DetectorKind::UniformCheck)
            .collect();
        assert!(!uni.is_empty(), "uniform failure must be flagged");
        let latency = uni[0].time.duration_since(fail_at);
        // ≈ one zooming interval (§5.1.3).
        assert!(latency < SimDuration::from_millis(600), "took {latency}");
    }

    #[test]
    fn congestion_is_not_reported_as_gray_failure() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 40_000_000, 10, 10);
        let mut input = FancyInput {
            high_priority: vec![entry],
            memory_bytes_per_port: 1 << 20,
            tree: TreeParams::paper_default(),
            timers: TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(10)),
        };
        input.timers.dedicated_interval = SimDuration::from_millis(50);
        let layout = input.translate().unwrap();

        let mut net = Network::new(15);
        let host = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        let mut fib1 = fancy_sim::Fib::new();
        fib1.default_route(1);
        fib1.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s1 = net.add_node(Box::new(FancySwitch::new(fib1, layout.clone(), vec![1], 1)));
        let mut fib2 = fancy_sim::Fib::new();
        fib2.default_route(1);
        fib2.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s2 = net.add_node(Box::new(FancySwitch::new(fib2, layout, Vec::new(), 2)));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        net.connect(
            host,
            s1,
            LinkConfig::new(1_000_000_000, SimDuration::from_micros(10)),
        );
        // Bottleneck: 10 Mbps with a tiny TM queue → heavy congestion.
        net.connect(
            s1,
            s2,
            LinkConfig::new(10_000_000, SimDuration::from_millis(10)).with_tm_capacity(10_000),
        );
        net.connect(
            s2,
            rx,
            LinkConfig::new(1_000_000_000, SimDuration::from_micros(10)),
        );
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));

        assert!(
            net.kernel.records.congestion_drops > 0,
            "test needs congestion"
        );
        // Congestion losses happen before FANcY's egress counters: the
        // counting protocol must NOT flag the entry.
        assert!(
            net.kernel
                .records
                .detections_by(DetectorKind::DedicatedCounter)
                .count()
                == 0,
            "congestion misreported as gray failure"
        );
    }

    #[test]
    fn counting_protocol_survives_lossy_reverse_path() {
        // Gray failure on the *reverse* direction (S2 → S1) drops 30 % of
        // everything, including StartAcks and Reports. The stop-and-wait
        // protocol must keep completing sessions and still detect the
        // forward failure.
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 1_000_000, 30, 150);
        let (mut net, s1, s2, link, _rx) =
            fancy_pair(vec![entry], TreeParams::paper_default(), flows, 16);
        net.kernel
            .add_failure(link, s2, GrayFailure::uniform(0.3, SimTime::ZERO));
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(link, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(6));

        let det = net.kernel.records.first_entry_detection(entry);
        assert!(det.is_some(), "must detect despite lossy reverse path");
        let sw: &FancySwitch = net.node(s1);
        let (sessions, _) = sw.sessions_completed(1);
        assert!(sessions > 10, "sessions kept completing: {sessions}");
    }

    #[test]
    fn hard_link_failure_reported_after_x_attempts() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 1_000_000, 5, 100);
        let (mut net, s1, _s2, link, _rx) =
            fancy_pair(vec![entry], TreeParams::paper_default(), flows, 17);
        // Kill the reverse path entirely: no ACKs/reports ever return.
        let s2 = 2;
        net.kernel
            .add_failure(link, s2, GrayFailure::uniform(1.0, SimTime::ZERO));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        let timeouts = net
            .kernel
            .records
            .detections_by(DetectorKind::ProtocolTimeout)
            .count();
        assert!(timeouts > 0, "link failure must be declared");
        let _ = s1;
    }

    #[test]
    fn reroute_moves_flagged_entry_to_backup() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let layout = FancyInput {
            high_priority: vec![entry],
            memory_bytes_per_port: 1 << 20,
            tree: TreeParams::paper_default(),
            timers: TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(1)),
        }
        .translate()
        .unwrap();

        let mut net = Network::new(18);
        let flows = steady_flows(0x0A_00_00_05, 2_000_000, 40, 100);
        let host = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        let mut fib1 = fancy_sim::Fib::new();
        fib1.default_route(1);
        fib1.route(Prefix::from_addr(0x01_00_00_01), 0);
        let mut s1_node = FancySwitch::new(fib1, layout.clone(), vec![1], 3);
        s1_node.reroute = Some(Reroute::port_level([(1, 2)].into_iter().collect()));
        let s1 = net.add_node(Box::new(s1_node));
        let mut fib2 = fancy_sim::Fib::new();
        fib2.default_route(2);
        fib2.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s2 = net.add_node(Box::new(FancySwitch::new(fib2, layout, Vec::new(), 4)));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        let fast = LinkConfig::new(1_000_000_000, SimDuration::from_millis(1));
        net.connect(host, s1, fast); // s1 port 0
        let primary = net.connect(s1, s2, fast); // s1 port 1, s2 port 0
        net.connect(s1, s2, fast); // backup: s1 port 2, s2 port 1
        net.connect(s2, rx, fast); // s2 port 2
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(primary, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));

        let sw: &FancySwitch = net.node(s1);
        assert!(sw.is_rerouted(1, entry));
        assert!(sw.stats.rerouted_packets > 0);
        // Traffic keeps flowing after the reroute: the receiver saw packets
        // well after the failure time.
        let rxh: &ReceiverHost = net.node(rx);
        assert!(rxh.entries[&entry].bytes > 0);
        let det = net.kernel.records.first_entry_detection(entry).unwrap();
        assert!(
            det.time.duration_since(fail_at) < SimDuration::from_millis(1000),
            "sub-second reroute"
        );
    }

    /// Build `host — S1 ═══ S2 — rx` with three parallel S1→S2 links
    /// (S1 ports 1, 2, 3) and a ranked per-entry backup chain on the
    /// primary. S1 monitors ports 1 and 2; port 3 is unmonitored.
    /// Returns (net, s1, primary_link, backup1_link, rx).
    fn cascade_net(
        entry: Prefix,
        chain: Vec<PortId>,
        seed: u64,
    ) -> (Network, usize, usize, usize, usize) {
        let layout = FancyInput {
            high_priority: vec![entry],
            memory_bytes_per_port: 1 << 20,
            tree: TreeParams::paper_default(),
            timers: TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(1)),
        }
        .translate()
        .unwrap();

        let mut net = Network::new(seed);
        let flows = steady_flows(0x0A_00_00_05, 2_000_000, 40, 100);
        let host = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        let mut fib1 = fancy_sim::Fib::new();
        fib1.default_route(1);
        fib1.route(Prefix::from_addr(0x01_00_00_01), 0);
        let mut s1_node = FancySwitch::new(fib1, layout.clone(), vec![1, 2], seed);
        let mut rr = Reroute::default();
        rr.entry_backup.insert((1, entry), chain);
        s1_node.reroute = Some(rr);
        let s1 = net.add_node(Box::new(s1_node));
        let mut fib2 = fancy_sim::Fib::new();
        fib2.default_route(3);
        fib2.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s2 = net.add_node(Box::new(FancySwitch::new(
            fib2,
            layout,
            Vec::new(),
            seed + 1,
        )));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        let fast = LinkConfig::new(1_000_000_000, SimDuration::from_millis(1));
        net.connect(host, s1, fast); // s1 port 0
        let primary = net.connect(s1, s2, fast); // s1 port 1, s2 port 0
        let backup1 = net.connect(s1, s2, fast); // s1 port 2, s2 port 1
        net.connect(s1, s2, fast); // s1 port 3, s2 port 2
        net.connect(s2, rx, fast); // s2 port 3
        (net, s1, primary, backup1, rx)
    }

    /// Keeps the failover layer's trace events, dropping the rest.
    #[derive(Clone, Default)]
    struct RerouteLog(std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>);

    impl fancy_sim::TraceSink for RerouteLog {
        fn record(&mut self, ev: &TraceEvent) {
            if matches!(
                ev,
                TraceEvent::Reroute { .. }
                    | TraceEvent::Failover { .. }
                    | TraceEvent::RerouteDamp { .. }
            ) {
                self.0.lock().unwrap().push(ev.clone());
            }
        }
    }

    impl RerouteLog {
        fn events(&self) -> Vec<TraceEvent> {
            self.0.lock().unwrap().clone()
        }
    }

    #[test]
    fn cascaded_failover_walks_backup_chain() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let (mut net, s1, primary, backup1, rx) = cascade_net(entry, vec![2, 3], 21);
        let log = RerouteLog::default();
        net.kernel.set_tracer(Box::new(log.clone()));
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        // The primary blackholes the entry; once traffic detours over the
        // first alternate, that one turns out gray too.
        net.kernel
            .add_failure(primary, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.kernel
            .add_failure(backup1, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));

        let sw: &FancySwitch = net.node(s1);
        // Both monitored egresses flagged the entry independently…
        assert_eq!(sw.flagged_entries(1), vec![entry]);
        assert_eq!(sw.flagged_entries(2), vec![entry]);
        // …so the cascade walked past the gray first alternate onto the
        // unmonitored second one.
        assert_eq!(sw.pick_backup(1, entry), Some((3, 1)));
        assert!(sw.stats.failovers >= 1, "no failover recorded");
        assert_eq!(sw.stats.alarm_drops, 0);
        // The trace shows one Reroute, then one Failover per change of
        // active alternate, each leaving the one installed before it.
        let mut active = None;
        let mut failovers = 0;
        for ev in log.events() {
            match ev {
                TraceEvent::Reroute {
                    primary: 1, backup, ..
                } => {
                    assert_eq!(active, None, "a second Reroute for one entry");
                    active = Some(backup);
                }
                TraceEvent::Failover {
                    primary: 1,
                    from,
                    to,
                    ..
                } => {
                    assert_eq!(active, Some(from));
                    assert_ne!(from, to);
                    active = Some(to);
                    failovers += 1;
                }
                _ => {}
            }
        }
        assert_eq!(active, Some(3));
        assert_eq!(failovers, sw.stats.failovers);
        // Traffic survived the double failure end to end.
        let rxh: &ReceiverHost = net.node(rx);
        assert!(rxh.entries[&entry].bytes > 0);
    }

    #[test]
    fn exhausted_backup_chain_drops_and_alarms() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        // Chain holds only the (monitored) first alternate: once it turns
        // gray too, there is nowhere safe left to steer.
        let (mut net, s1, primary, backup1, _rx) = cascade_net(entry, vec![2], 22);
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(primary, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.kernel
            .add_failure(backup1, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));

        let sw: &FancySwitch = net.node(s1);
        assert_eq!(sw.pick_backup(1, entry), None);
        assert!(sw.stats.alarm_drops > 0, "exhausted chain must alarm-drop");
    }

    #[test]
    fn damped_reroute_reverts_after_probation_and_retrips_on_flap() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let layout = FancyInput {
            high_priority: vec![entry],
            memory_bytes_per_port: 1 << 20,
            tree: TreeParams::paper_default(),
            timers: TimerConfig::paper_default()
                .for_link_delay(SimDuration::from_millis(1))
                .damped(
                    1,
                    1,
                    SimDuration::from_millis(200),
                    SimDuration::from_millis(300),
                ),
        }
        .translate()
        .unwrap();

        let mut net = Network::new(23);
        let flows = steady_flows(0x0A_00_00_05, 2_000_000, 70, 100);
        let host = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        let mut fib1 = fancy_sim::Fib::new();
        fib1.default_route(1);
        fib1.route(Prefix::from_addr(0x01_00_00_01), 0);
        let mut s1_node = FancySwitch::new(fib1, layout.clone(), vec![1], 5);
        s1_node.reroute = Some(Reroute::port_level([(1, 2)].into_iter().collect()));
        let s1 = net.add_node(Box::new(s1_node));
        let mut fib2 = fancy_sim::Fib::new();
        fib2.default_route(2);
        fib2.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s2 = net.add_node(Box::new(FancySwitch::new(fib2, layout, Vec::new(), 6)));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        let fast = LinkConfig::new(1_000_000_000, SimDuration::from_millis(1));
        net.connect(host, s1, fast);
        let primary = net.connect(s1, s2, fast); // s1 port 1
        net.connect(s1, s2, fast); // backup: s1 port 2
        net.connect(s2, rx, fast);

        // First failure window [1 s, 1.5 s]: engage, then (clean again)
        // serve the hold-down and probe. Second window [2.2 s, 2.7 s]
        // lands inside/after probation: the probe retrips, and detection
        // is re-reported. After 2.7 s the link stays clean for good.
        let mut f1 =
            GrayFailure::single_entry(entry, 1.0, SimTime::ZERO + SimDuration::from_secs(1));
        f1.end = SimTime::ZERO + SimDuration::from_millis(1500);
        net.kernel.add_failure(primary, s1, f1);
        let mut f2 =
            GrayFailure::single_entry(entry, 1.0, SimTime::ZERO + SimDuration::from_millis(2200));
        f2.end = SimTime::ZERO + SimDuration::from_millis(2700);
        net.kernel.add_failure(primary, s1, f2);
        let log = RerouteLog::default();
        net.kernel.set_tracer(Box::new(log.clone()));
        let hub = fancy_sim::MetricsHub::new();
        net.kernel.set_metrics(hub.clone());
        net.run_until(SimTime::ZERO + SimDuration::from_secs(8));

        // Engage → probe → retrip → restore is one reroute, traced and
        // counted once: the first packet that ever took the backup.
        let (mut reroutes, mut damp) = (0, Vec::new());
        for ev in log.events() {
            match ev {
                TraceEvent::Reroute { primary: 1, .. } => reroutes += 1,
                TraceEvent::RerouteDamp { action, .. } => damp.push(action),
                _ => {}
            }
        }
        assert_eq!(damp[..4], ["engage", "probe", "retrip", "probe"]);
        assert_eq!(reroutes, 1);
        let total = hub
            .snapshot()
            .counter("fancy_reroutes_total", &Labels::new());
        assert_eq!(total, Some(1));

        let sw: &FancySwitch = net.node(s1);
        // The flap was re-reported: the damped machine produced (at least)
        // the engage and the retrip detection.
        let dets = net
            .kernel
            .records
            .detections_by(DetectorKind::DedicatedCounter)
            .count();
        assert!(dets >= 2, "expected engage + retrip detections, got {dets}");
        // After the last clean probation the entry reverted to the
        // primary: flag cleared, machine back in Watch.
        assert!(sw.flagged_entries(1).is_empty(), "flag must be cleared");
        assert!(!sw.is_rerouted(1, entry));
        let up = sw.up(1);
        assert!(matches!(up.dedicated[0].damp.phase, DampPhase::Watch));
        assert!(sw.stats.rerouted_packets > 0);
        // And traffic flowed end to end throughout.
        let rxh: &ReceiverHost = net.node(rx);
        assert!(rxh.entries[&entry].bytes > 0);
    }

    #[test]
    fn traffic_on_a_port_beyond_the_tables_is_ignored_not_indexed() {
        // S1 monitors port 1, so its upstream table ends at port 1 and its
        // downstream table is empty; port 3 is past both.
        let layout = FancyInput {
            high_priority: vec![Prefix::from_addr(0x0A_00_00_05)],
            memory_bytes_per_port: 1 << 20,
            tree: TreeParams::paper_default(),
            timers: TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(1)),
        }
        .translate()
        .unwrap();
        let mut net = Network::new(24);
        let mut fib = fancy_sim::Fib::new();
        fib.default_route(0);
        let dedicated_len = layout.high_priority.len() as u16;
        let s1 = net.add_node(Box::new(FancySwitch::new(fib, layout, vec![1], 7)));
        let sinks: Vec<usize> = (0..4)
            .map(|_| {
                let sink = net.add_node(Box::new(fancy_sim::SinkNode::default()));
                let fast = LinkConfig::new(1_000_000_000, SimDuration::from_micros(10));
                net.connect(s1, sink, fast);
                sink
            })
            .collect();

        let at = SimTime::ZERO + SimDuration::from_millis(1);
        let control = |kind, body| {
            let msg = ControlMessage {
                kind,
                session_id: 1,
                body,
            };
            fancy_sim::PacketBuilder::new(9, 0, 64, PacketKind::FancyControl(msg)).build()
        };
        // A tagged data packet: no downstream state there, so the tag is
        // stripped uncounted and the packet is forwarded.
        let mut tagged = fancy_sim::PacketBuilder::new(
            9,
            0x0B_00_00_01,
            500,
            PacketKind::Udp { flow: 0, seq: 0 },
        )
        .build();
        tagged.tag = Some(FancyTag::Tree { slot: 0, index: 0 });
        net.kernel.inject(s1, 3, tagged, at);
        // Replies for sessions this switch never opened there.
        let dedicated = SessionKind::Dedicated { counter_id: 0 };
        net.kernel
            .inject(s1, 3, control(SessionKind::Tree, ControlBody::StartAck), at);
        net.kernel
            .inject(s1, 3, control(dedicated, ControlBody::Report(vec![1])), at);
        // A Start is legitimate on any port: the downstream table grows
        // to reach it and the switch answers.
        net.kernel
            .inject(s1, 3, control(SessionKind::Tree, ControlBody::Start), at);
        // Starts for dedicated counters the layout does not have (0xFFFF
        // is also the tree's internal id) create nothing and earn no reply.
        for counter_id in [u16::MAX, dedicated_len] {
            let kind = SessionKind::Dedicated { counter_id };
            net.kernel
                .inject(s1, 2, control(kind, ControlBody::Start), at);
        }
        net.run_until(SimTime::ZERO + SimDuration::from_millis(5));

        let sw: &FancySwitch = net.node(s1);
        assert!(sw.downstream.get(3).is_some());
        assert!(sw.downstream.get(2).is_none() && sw.upstream.get(3).is_none());
        assert_eq!(net.node::<fancy_sim::SinkNode>(sinks[0]).packets, 1);
        assert_eq!(net.node::<fancy_sim::SinkNode>(sinks[2]).packets, 0);
        // Port 3's sink saw exactly the StartAck the Start earned.
        assert_eq!(net.node::<fancy_sim::SinkNode>(sinks[3]).packets, 1);
    }

    /// A downstream peer that swallows data, acknowledges every Start and
    /// answers every Stop with a Report that carries no counters.
    #[derive(Default)]
    struct EmptyReporter {
        data: u64,
    }

    impl Node for EmptyReporter {
        fn on_packet(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
            let PacketKind::FancyControl(msg) = &ctx.pkt(pkt).kind else {
                self.data += 1;
                return;
            };
            let body = match msg.body {
                ControlBody::Start => ControlBody::StartAck,
                ControlBody::Stop => ControlBody::Report(Vec::new()),
                _ => return,
            };
            let reply = ControlMessage {
                kind: msg.kind,
                session_id: msg.session_id,
                body,
            };
            let kind = PacketKind::FancyControl(reply);
            ctx.send(port, fancy_sim::PacketBuilder::new(0, 0, 64, kind).build());
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn empty_dedicated_report_is_dropped_not_read_as_zero() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let layout = FancyInput {
            high_priority: vec![entry],
            memory_bytes_per_port: 1 << 20,
            tree: TreeParams::paper_default(),
            timers: TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(1)),
        }
        .translate()
        .unwrap();
        let mut net = Network::new(25);
        let host = net.add_node(Box::new(fancy_sim::SinkNode::default()));
        let mut fib = fancy_sim::Fib::new();
        fib.default_route(1);
        let s1 = net.add_node(Box::new(FancySwitch::new(fib, layout, vec![1], 8)));
        let peer = net.add_node(Box::new(EmptyReporter::default()));
        let fast = LinkConfig::new(1_000_000_000, SimDuration::from_millis(1));
        net.connect(host, s1, fast);
        net.connect(s1, peer, fast);
        // One packet to the dedicated entry every millisecond for 2 s.
        for i in 0..2_000u64 {
            let kind = PacketKind::Udp { flow: 0, seq: i };
            let pkt = fancy_sim::PacketBuilder::new(1, entry.host(1), 500, kind).build();
            net.kernel.inject(s1, 0, pkt, SimTime(i * 1_000_000));
        }
        net.run_until(SimTime::ZERO + SimDuration::from_millis(2_100));

        let sw: &FancySwitch = net.node(s1);
        assert!(sw.stats.tagged_packets > 0, "nothing was counted");
        assert_eq!(net.node::<EmptyReporter>(peer).data, 2_000);
        // A Report without the one counter is malformed, not "the remote
        // counted zero": no detection, no reroute, and sessions go on.
        assert!(net.kernel.records.detections.is_empty());
        assert!(sw.flagged_entries(1).is_empty());
        let (dedicated, tree) = sw.sessions_completed(1);
        assert!(dedicated > 10 && tree > 2, "sessions: {dedicated}, {tree}");
    }

    #[test]
    fn overhead_tag_is_two_bytes_and_control_padded() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 1_000_000, 5, 100);
        let (mut net, s1, _s2, _link, _rx) =
            fancy_pair(vec![entry], TreeParams::paper_default(), flows, 19);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let sw: &FancySwitch = net.node(s1);
        assert!(sw.stats.control_sent > 0);
        // All dedicated-session messages are minimum-size frames except the
        // tree Report (5330 B); average must sit between those bounds.
        let avg = sw.stats.control_bytes as f64 / sw.stats.control_sent as f64;
        assert!((64.0..600.0).contains(&avg), "avg control frame {avg}");
        assert!(sw.stats.tagged_packets > 0);
    }
}
