//! The failover layer on top of FANcY's output registers: per protected
//! port and entry, a ranked chain of backup ports (§6.1 fast reroute,
//! with SPIDER-style pre-provisioned alternates), cascaded failover when
//! the active alternate turns gray itself, drop-and-alarm when every
//! alternate is gray, and reroute damping around the dedicated counters'
//! rising-edge latch. The paper's pipeline in the parent module reaches
//! it through two calls: `steer` after the FIB lookup, and `drive_damp`
//! when a dedicated session's Report arrives.

use fancy_net::{FnvMap, Prefix};
use fancy_sim::metrics::Labels;
use fancy_sim::{
    DetectionScope, DetectorKind, DropCause, Kernel, PacketRef, PortId, TraceEvent, TraceKind,
};

use super::{trace_drop, FancySwitch};

/// Fast-reroute configuration (§6.1): per primary port, the backup port to
/// use for traffic whose entry/hash path has been flagged.
///
/// Two granularities compose, per the SPIDER-style pre-provisioned plans
/// the topology layer computes:
///
/// * [`Reroute::backup`] — one port-level default per protected primary
///   port (the original §6.1 case-study shape);
/// * [`Reroute::entry_backup`] — per `(primary port, entry)` *ranked
///   chains* of alternates (best first), letting different destinations
///   behind one protected link detour via different loop-free alternates
///   and letting the switch cascade to the next alternate when the active
///   one turns gray itself. Overrides win over the port default.
#[derive(Debug, Clone, Default)]
pub struct Reroute {
    /// `primary egress port → backup egress port`.
    pub backup: FnvMap<PortId, PortId>,
    /// `(primary egress port, entry) → ranked backup ports` (best first),
    /// consulted before the port-level default.
    pub entry_backup: FnvMap<(PortId, Prefix), Vec<PortId>>,
}

impl Reroute {
    /// A port-level-only table (the §6.1 case-study shape).
    pub fn port_level(backup: FnvMap<PortId, PortId>) -> Self {
        Reroute {
            backup,
            entry_backup: FnvMap::default(),
        }
    }

    /// Does any backup exist for traffic leaving `primary`?
    pub fn protects(&self, primary: PortId) -> bool {
        self.backup.contains_key(&primary) || self.entry_backup.keys().any(|&(p, _)| p == primary)
    }

    /// The ranked backup chain for `entry` on `primary`: the per-entry
    /// override if installed, else the port-level default as a
    /// single-alternate chain.
    pub fn backup_chain(&self, primary: PortId, entry: Prefix) -> &[PortId] {
        match self.entry_backup.get(&(primary, entry)) {
            Some(chain) => chain,
            None => self
                .backup
                .get(&primary)
                .map(std::slice::from_ref)
                .unwrap_or(&[]),
        }
    }

    /// The top-ranked backup port for `entry` on `primary`: the per-entry
    /// override if installed, else the port-level default.
    pub fn backup_for(&self, primary: PortId, entry: Prefix) -> Option<PortId> {
        self.backup_chain(primary, entry).first().copied()
    }
}

/// Phase of the per-entry reroute damping state machine.
#[derive(Debug, Clone, Copy)]
pub(super) enum DampPhase {
    /// Traffic on the primary; completed sessions feed the K-of-N
    /// suspicion window.
    Watch,
    /// Reroute engaged; the timestamp anchors the hold-down (last lossy
    /// session, or the engagement itself).
    Held(fancy_sim::SimTime),
    /// Traffic probing the primary again after the hold-down; the
    /// timestamp is the probation start.
    Probation(fancy_sim::SimTime),
}

/// Damping state for one dedicated entry on one upstream port. The
/// paper's output register is a pure rising-edge latch; the damped
/// machine generalizes it with a K-of-N suspicion window before
/// engaging and an optional hold-down + probation cycle that reverts
/// traffic to the primary once the link proves clean again. With the
/// default 1-of-1 window and zero probation it degenerates to the
/// original latch exactly.
pub(super) struct DampState {
    /// Bitset of recent session outcomes (bit 0 = latest; 1 = lossy).
    history: u32,
    pub(super) phase: DampPhase,
}

impl DampState {
    pub(super) fn new() -> Self {
        DampState {
            history: 0,
            phase: DampPhase::Watch,
        }
    }
}

/// Count one transition of the failover layer (damping, cascade, alarm).
fn count_reroute_transition(ctx: &mut Kernel, action: &'static str) {
    ctx.metrics(|r| {
        r.inc(
            "fancy_reroute_transitions",
            Labels::new().with("action", action),
        );
    });
}

impl FancySwitch {
    /// Would this packet be steered to a backup port? (Outcome of the
    /// fast-reroute consultation for `entry` on `primary`.)
    pub fn is_rerouted(&self, primary: PortId, entry: Prefix) -> bool {
        let Some(rr) = &self.reroute else {
            return false;
        };
        if rr.backup_for(primary, entry).is_none() {
            return false;
        }
        let Some(up) = self.upstream.get(primary) else {
            return false;
        };
        if let Some(&id) = self.dedicated_index.get(&entry) {
            up.flags.get(id)
        } else {
            up.tree_flags(entry)
        }
    }

    /// Is `port` a usable detour for `entry` right now? Unmonitored ports
    /// are assumed healthy (there is no signal about them); monitored
    /// ports are unhealthy while latched link-down, degraded, or while
    /// their own FANcY output structures flag this entry.
    fn port_healthy_for(&self, port: PortId, entry: Prefix) -> bool {
        let Some(up) = self.upstream.get(port) else {
            return true;
        };
        if up.link_down || up.degraded {
            return false;
        }
        if let Some(&id) = self.dedicated_index.get(&entry) {
            !up.flags.get(id)
        } else {
            !up.tree_flags(entry)
        }
    }

    /// Walk the ranked backup chain for (`primary`, `entry`) and return
    /// the first alternate whose own monitor is healthy, with its rank in
    /// the chain. `None` means the cascade is exhausted: every alternate
    /// is known-gray, and forwarding would push traffic into a failure.
    pub(super) fn pick_backup(&self, primary: PortId, entry: Prefix) -> Option<(PortId, usize)> {
        let rr = self.reroute.as_ref()?;
        rr.backup_chain(primary, entry)
            .iter()
            .enumerate()
            .find(|&(_, &b)| self.port_healthy_for(b, entry))
            .map(|(rank, &b)| (b, rank))
    }

    /// The fast-reroute consultation (§6.1), cascaded: traffic for a
    /// flagged entry walks the ranked backup chain for the first
    /// alternate whose own monitor is healthy. Returns the egress port to
    /// use; `None` when the chain is exhausted and the packet was dropped
    /// with an alarm rather than forwarded into a known-gray detour.
    pub(super) fn steer(
        &mut self,
        ctx: &mut Kernel,
        out: PortId,
        pkt: PacketRef,
        entry: Prefix,
    ) -> Option<PortId> {
        if !self.is_rerouted(out, entry) {
            return Some(out);
        }
        let node = ctx.self_id() as u64;
        let (traced_entry, primary) = (u64::from(entry.0), out as u64);
        let Some((backup, rank)) = self.pick_backup(out, entry) else {
            self.stats.alarm_drops += 1;
            if (ctx.tracing(TraceKind::BackupAlarm) || ctx.metrics_enabled())
                && self.alarmed.insert((out, entry), ()).is_none()
            {
                count_reroute_transition(ctx, "alarm");
                ctx.trace(|t| TraceEvent::BackupAlarm {
                    t,
                    node,
                    entry: traced_entry,
                    primary,
                });
            }
            trace_drop(ctx, pkt, DropCause::NoBackup);
            return None;
        };
        match self.active_backup.insert((out, entry), backup) {
            None => {
                if ctx.metrics_enabled() {
                    // Rising-edge reroute latency against ground truth:
                    // from this entry's first gray drop to the first
                    // packet actually taking the backup port.
                    let now = ctx.now();
                    let onset = ctx.records.first_drop(entry);
                    ctx.metrics(|r| {
                        r.inc("fancy_reroutes_total", Labels::new());
                        if let Some(first) = onset.filter(|&f| f <= now) {
                            r.observe(
                                "fancy_reroute_latency_ns",
                                Labels::new(),
                                now.duration_since(first).as_nanos(),
                            );
                        }
                    });
                }
                ctx.trace(|t| TraceEvent::Reroute {
                    t,
                    node,
                    entry: traced_entry,
                    primary,
                    backup: backup as u64,
                });
            }
            Some(from) if from != backup => {
                self.stats.failovers += 1;
                count_reroute_transition(ctx, "failover");
                ctx.trace(|t| TraceEvent::Failover {
                    t,
                    node,
                    entry: traced_entry,
                    primary,
                    from: from as u64,
                    to: backup as u64,
                    rank: rank as u64,
                });
            }
            Some(_) => {}
        }
        self.stats.rerouted_packets += 1;
        Some(backup)
    }

    /// Advance the reroute damping state machine for dedicated entry
    /// `kind` on `port` after a completed counting session (`lossy` =
    /// the local egress count exceeded the remote ingress count). With
    /// the default 1-of-1 suspicion window and zero probation this is
    /// exactly the paper's rising-edge output-register latch (§4.3).
    /// The machine always runs — only event/metric emission is gated on
    /// tracing/metrics — so switch behavior stays bit-identical whether
    /// or not observability is on.
    pub(super) fn drive_damp(&mut self, ctx: &mut Kernel, port: PortId, kind: u16, lossy: bool) {
        let timers = self.layout.timers;
        let now = ctx.now();
        let up = self.up_mut(port);
        let d = up
            .dedicated
            .get_mut(usize::from(kind))
            .expect("deliver_report read this entry");
        let (entry, st) = (d.entry, &mut d.damp);
        let action: &'static str = match st.phase {
            DampPhase::Watch => {
                let n = timers.suspicion_n.clamp(1, 32);
                let mask = u32::MAX >> (32 - n);
                st.history = ((st.history << 1) | u32::from(lossy)) & mask;
                if st.history.count_ones() < timers.suspicion_k || up.flags.get(kind) {
                    return;
                }
                // K of the last N sessions lossy: engage the reroute
                // (rising edge, as in the paper).
                up.flags.set(kind);
                st.phase = DampPhase::Held(now);
                ctx.report(
                    port,
                    DetectionScope::Entry(entry),
                    DetectorKind::DedicatedCounter,
                );
                "engage"
            }
            DampPhase::Held(since) => {
                if lossy {
                    // Still failing: restart the hold-down clock.
                    st.phase = DampPhase::Held(now);
                    return;
                }
                if timers.probation == fancy_sim::SimDuration::ZERO
                    || now.saturating_since(since) < timers.reroute_hold_down
                {
                    return;
                }
                // Hold-down served with clean sessions: probe the primary
                // again by clearing the flag.
                up.flags.clear(kind);
                st.phase = DampPhase::Probation(now);
                "probe"
            }
            DampPhase::Probation(since) => {
                if lossy {
                    // Flap: the failure is still there — re-engage
                    // immediately and hold down again.
                    up.flags.set(kind);
                    st.phase = DampPhase::Held(now);
                    ctx.report(
                        port,
                        DetectionScope::Entry(entry),
                        DetectorKind::DedicatedCounter,
                    );
                    "retrip"
                } else if now.saturating_since(since) >= timers.probation {
                    // Probation served clean: the primary is healthy
                    // again for good.
                    st.history = 0;
                    st.phase = DampPhase::Watch;
                    "restore"
                } else {
                    return;
                }
            }
        };
        count_reroute_transition(ctx, action);
        if ctx.tracing(TraceKind::RerouteDamp) {
            let node = ctx.self_id() as u64;
            let entry = u64::from(entry.0);
            ctx.trace(|t| TraceEvent::RerouteDamp {
                t,
                node,
                entry,
                primary: port as u64,
                action: action.into(),
            });
        }
    }
}
