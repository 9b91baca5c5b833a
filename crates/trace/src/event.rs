//! The trace event model.
//!
//! Every event is a flat record: an `ev` discriminator, a `t` timestamp
//! in simulated nanoseconds, and a handful of integer/string fields.
//! Events come from four layers:
//!
//! * **wire** — [`TraceEvent::PacketForward`] / [`TraceEvent::PacketDrop`]
//!   from the kernel's link admission path (drops carry their cause);
//! * **FANcY data plane** — FSM transitions, counter exchanges, zoom-tree
//!   steps, detections, and reroute decisions;
//! * **transport** — TCP RTO firings, fast retransmits, cwnd collapses
//!   (cwnd is encoded in *milli-packets* so the schema stays float-free);
//! * **control plane** — incident open/clear from the operator-facing
//!   aggregation layer.
//!
//! String fields drawn from a closed vocabulary (FSM roles and states,
//! message bodies, zoom steps, detector and scope names, damping actions,
//! severities) are `Cow<'static, str>`: an emission site passes its
//! literal (`role.into()`) and touches no allocator, the parser yields
//! `Owned`, and the two compare and encode alike. Only a value made at
//! run time (`baseline:<name>`) is owned at the source.
//!
//! The JSONL form is one object per line; [`TraceEvent::to_jsonl`] and
//! [`TraceEvent::parse_line`] are exact inverses (asserted in tests and
//! by the `trace-report` CI smoke step), which is what makes "fails on
//! schema drift" enforceable.

use std::borrow::Cow;

use crate::json::{parse_object, JsonError, JsonValue, ObjectWriter};

/// Why a packet died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Silently discarded by an injected gray failure.
    Gray,
    /// A FANcY/NetSeer control message lost to the failure model.
    Control,
    /// Tail-dropped by traffic-manager admission (queue full).
    Congestion,
    /// No FIB route at the switch.
    NoRoute,
    /// A rerouted entry whose every ranked backup alternate is unhealthy:
    /// the switch degraded to drop-and-alarm rather than forward into a
    /// known-gray detour.
    NoBackup,
}

impl DropCause {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::Gray => "gray",
            DropCause::Control => "control",
            DropCause::Congestion => "congestion",
            DropCause::NoRoute => "noroute",
            DropCause::NoBackup => "nobackup",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "gray" => DropCause::Gray,
            "control" => DropCause::Control,
            "congestion" => DropCause::Congestion,
            "noroute" => DropCause::NoRoute,
            "nobackup" => DropCause::NoBackup,
            _ => return None,
        })
    }
}

/// One structured trace event. All times are simulated nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet cleared link admission and will arrive at the far end.
    PacketForward {
        /// Departure-complete time on the wire.
        t: u64,
        /// Link id.
        link: u64,
        /// Direction on the link (0 = a→b, 1 = b→a).
        dir: u64,
        /// Kernel-unique packet id.
        uid: u64,
        /// Forwarding entry (prefix) the packet maps to.
        entry: u64,
        /// Transport flow id, when the packet belongs to one.
        flow: Option<u64>,
        /// Size in bytes.
        size: u64,
    },
    /// A packet died.
    PacketDrop {
        /// Drop time.
        t: u64,
        /// Cause of death.
        cause: DropCause,
        /// Node that last held the packet (egressing node for wire
        /// drops, the switch itself for no-route drops).
        node: u64,
        /// Link id, for wire/congestion drops.
        link: Option<u64>,
        /// Direction on the link, when known.
        dir: Option<u64>,
        /// Kernel-unique packet id.
        uid: u64,
        /// Forwarding entry the packet maps to.
        entry: u64,
        /// Transport flow id, when the packet belongs to one.
        flow: Option<u64>,
        /// Size in bytes.
        size: u64,
    },
    /// A FANcY counting FSM changed state.
    FsmTransition {
        /// Transition time.
        t: u64,
        /// Switch node id.
        node: u64,
        /// Port whose FSM moved.
        port: u64,
        /// `"tx"` (sender FSM) or `"rx"` (receiver FSM).
        role: Cow<'static, str>,
        /// Counting unit: dedicated counter id, or [`UNIT_TREE`].
        unit: u64,
        /// State before.
        from: Cow<'static, str>,
        /// State after.
        to: Cow<'static, str>,
    },
    /// A counting-protocol message was sent or received.
    CounterExchange {
        /// Exchange time.
        t: u64,
        /// Switch node id.
        node: u64,
        /// Port the message travels through.
        port: u64,
        /// Counting unit: dedicated counter id, or [`UNIT_TREE`].
        unit: u64,
        /// Session id the message belongs to.
        session: u64,
        /// `"start"`, `"start_ack"`, `"stop"`, or `"report"`.
        body: Cow<'static, str>,
        /// `"tx"` or `"rx"` from this node's perspective.
        dir: Cow<'static, str>,
        /// Message payload length in bytes.
        len: u64,
    },
    /// The hash-tree zoom engine advanced.
    ZoomStep {
        /// Session-end time at which the step was decided.
        t: u64,
        /// Switch node id.
        node: u64,
        /// Port being zoomed.
        port: u64,
        /// `"adopt"`, `"descend"`, `"abandon"`, `"leaf"`, or `"uniform"`.
        step: Cow<'static, str>,
        /// Hash path the step concerns (empty for `uniform`).
        path: Vec<u64>,
        /// Lost-packet count that justified the step, when one did.
        lost: u64,
    },
    /// A detector fired (mirrors the kernel's `DetectionRecord`).
    Detection {
        /// Detection time.
        t: u64,
        /// Reporting switch.
        node: u64,
        /// Suffering port.
        port: u64,
        /// Detector name (`"dedicated"`, `"tree"`, `"uniform"`,
        /// `"timeout"`, or `"baseline:<name>"`).
        detector: Cow<'static, str>,
        /// Scope name (`"entry"`, `"path"`, `"uniform"`, `"link_down"`).
        scope: Cow<'static, str>,
        /// Implicated entry, for entry-scoped detections.
        entry: Option<u64>,
        /// Implicated hash path, for path-scoped detections.
        path: Vec<u64>,
    },
    /// Traffic for an entry started using the backup port (rising edge).
    Reroute {
        /// First rerouted packet's time.
        t: u64,
        /// Switch node id.
        node: u64,
        /// Rerouted entry.
        entry: u64,
        /// Original egress port.
        primary: u64,
        /// Backup egress port now in use.
        backup: u64,
    },
    /// A rerouted entry's active backup changed: the alternate in use
    /// turned gray (or came back) and the switch cascaded to another
    /// ranked loop-free alternate.
    Failover {
        /// First packet steered onto the new alternate.
        t: u64,
        /// Switch node id.
        node: u64,
        /// Rerouted entry.
        entry: u64,
        /// Protected primary egress port.
        primary: u64,
        /// Backup port previously in use.
        from: u64,
        /// Backup port now in use.
        to: u64,
        /// 0-based rank of the new alternate in the backup chain.
        rank: u64,
    },
    /// The reroute damping state machine transitioned for an entry:
    /// `"engage"` (suspicion window tripped, traffic leaves the primary),
    /// `"probe"` (hold-down expired, traffic returns to the primary on
    /// probation), `"restore"` (probation completed clean, reroute torn
    /// down), or `"retrip"` (lossy during probation — a flap).
    RerouteDamp {
        /// Transition time (session-report time at the protecting switch).
        t: u64,
        /// Switch node id.
        node: u64,
        /// Damped entry.
        entry: u64,
        /// Protected primary egress port.
        primary: u64,
        /// Transition name (see above).
        action: Cow<'static, str>,
    },
    /// Every ranked backup alternate for a rerouted entry is unhealthy:
    /// the switch degraded to drop-and-alarm (rising edge per entry).
    BackupAlarm {
        /// First alarmed-drop time.
        t: u64,
        /// Switch node id.
        node: u64,
        /// Entry whose cascade is exhausted.
        entry: u64,
        /// Protected primary egress port.
        primary: u64,
    },
    /// A TCP retransmission timeout fired and forced a retransmit.
    TcpRto {
        /// Firing time.
        t: u64,
        /// Sender host node id.
        node: u64,
        /// Flow id.
        flow: u64,
        /// Sequence retransmitted.
        seq: u64,
        /// Backed-off RTO now armed, in nanoseconds.
        rto_ns: u64,
        /// Congestion window before the collapse, in milli-packets.
        cwnd_mpkt: u64,
    },
    /// Three duplicate ACKs triggered a fast retransmit.
    TcpFastRetx {
        /// Trigger time.
        t: u64,
        /// Sender host node id.
        node: u64,
        /// Flow id.
        flow: u64,
        /// Sequence retransmitted.
        seq: u64,
    },
    /// The congestion window shrank (RTO collapse or fast-recovery halving).
    TcpCwnd {
        /// Shrink time.
        t: u64,
        /// Sender host node id.
        node: u64,
        /// Flow id.
        flow: u64,
        /// Window before, in milli-packets.
        from_mpkt: u64,
        /// Window after, in milli-packets.
        to_mpkt: u64,
    },
    /// The incident tracker opened an incident for a link.
    IncidentOpen {
        /// First detection time.
        t: u64,
        /// Reporting switch.
        node: u64,
        /// Suffering port.
        port: u64,
        /// Initial severity (`"entry_loss"`, `"uniform_loss"`, `"link_down"`).
        severity: Cow<'static, str>,
    },
    /// The incident tracker cleared an incident after silence.
    IncidentClear {
        /// Clear time.
        t: u64,
        /// Reporting switch.
        node: u64,
        /// Suffering port.
        port: u64,
        /// Detections folded into the incident over its lifetime.
        detections: u64,
    },
    /// The chaos layer acted on a wire packet (adversarial fault
    /// injection). Drops additionally ride [`TraceEvent::PacketDrop`]
    /// with their usual cause, so timeline analyses keep working.
    ChaosInject {
        /// Departure time on the wire.
        t: u64,
        /// Link id.
        link: u64,
        /// Direction on the link.
        dir: u64,
        /// `"drop"`, `"dup"`, or `"reorder"`.
        action: Cow<'static, str>,
        /// Kernel-unique packet id.
        uid: u64,
        /// 1 when the packet is control traffic (FANcY/NetSeer), else 0.
        control: u64,
    },
    /// A switch port entered (`on = 1`) or left (`on = 0`) degraded
    /// port-level counting after counting-protocol retry exhaustion.
    DegradedMode {
        /// Transition time.
        t: u64,
        /// Switch node id.
        node: u64,
        /// Degraded port.
        port: u64,
        /// 1 entering degraded mode, 0 recovering from it.
        on: u64,
    },
    /// A sweep cell was served from the content-addressed result cache
    /// (`fancy-bench`'s `FANCY_CACHE_DIR` store) instead of executing.
    CacheHit {
        /// Stamp time (cache hits happen before any simulation; sweep
        /// stubs write 0).
        t: u64,
        /// Sweep cell index.
        cell: u64,
        /// High half of the 128-bit cache key.
        key_hi: u64,
        /// Low half of the 128-bit cache key.
        key_lo: u64,
        /// Events the cached run dispatched when it originally executed
        /// — the work the hit avoided.
        saved_events: u64,
    },
    /// The in-sim metrics scraper (`fancy-sim`'s `ScrapeNode`) captured
    /// a registry snapshot into the scrape series.
    Scrape {
        /// Stamp time.
        t: u64,
        /// Scrape sequence number (0-based).
        seq: u64,
        /// Number of metric samples in the captured snapshot.
        samples: u64,
    },
}

/// The `unit` value marking the shared hash-tree (vs a dedicated counter).
pub const UNIT_TREE: u64 = u16::MAX as u64;

/// A line that failed to decode into a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Not valid (subset-)JSON.
    Json(JsonError),
    /// Valid JSON, but the `ev` discriminator is missing or unknown.
    UnknownEvent(String),
    /// A required field is missing or has the wrong type.
    Field(&'static str, &'static str),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Json(e) => write!(f, "bad json: {e}"),
            ParseError::UnknownEvent(ev) => write!(f, "unknown event kind {ev:?}"),
            ParseError::Field(ev, field) => write!(f, "{ev}: bad or missing field {field:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<JsonError> for ParseError {
    fn from(e: JsonError) -> Self {
        ParseError::Json(e)
    }
}

struct Fields<'a> {
    kind: &'static str,
    fields: &'a [(String, JsonValue)],
}

impl<'a> Fields<'a> {
    fn get(&self, key: &'static str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn u64(&self, key: &'static str) -> Result<u64, ParseError> {
        self.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or(ParseError::Field(self.kind, key))
    }

    fn opt_u64(&self, key: &'static str) -> Result<Option<u64>, ParseError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or(ParseError::Field(self.kind, key)),
        }
    }

    fn str(&self, key: &'static str) -> Result<Cow<'static, str>, ParseError> {
        self.get(key)
            .and_then(JsonValue::as_str)
            .map(|s| Cow::Owned(s.to_owned()))
            .ok_or(ParseError::Field(self.kind, key))
    }

    fn arr(&self, key: &'static str) -> Result<Vec<u64>, ParseError> {
        self.get(key)
            .and_then(JsonValue::as_arr)
            .map(<[u64]>::to_vec)
            .ok_or(ParseError::Field(self.kind, key))
    }
}

impl TraceEvent {
    /// Stable discriminator, as written to the `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PacketForward { .. } => "fwd",
            TraceEvent::PacketDrop { .. } => "drop",
            TraceEvent::FsmTransition { .. } => "fsm",
            TraceEvent::CounterExchange { .. } => "ctrl",
            TraceEvent::ZoomStep { .. } => "zoom",
            TraceEvent::Detection { .. } => "detect",
            TraceEvent::Reroute { .. } => "reroute",
            TraceEvent::Failover { .. } => "failover",
            TraceEvent::RerouteDamp { .. } => "damp",
            TraceEvent::BackupAlarm { .. } => "alarm",
            TraceEvent::TcpRto { .. } => "tcp_rto",
            TraceEvent::TcpFastRetx { .. } => "tcp_retx",
            TraceEvent::TcpCwnd { .. } => "tcp_cwnd",
            TraceEvent::IncidentOpen { .. } => "incident_open",
            TraceEvent::IncidentClear { .. } => "incident_clear",
            TraceEvent::ChaosInject { .. } => "chaos",
            TraceEvent::DegradedMode { .. } => "degraded",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::Scrape { .. } => "scrape",
        }
    }

    /// Event time in simulated nanoseconds.
    pub fn time_ns(&self) -> u64 {
        match self {
            TraceEvent::PacketForward { t, .. }
            | TraceEvent::PacketDrop { t, .. }
            | TraceEvent::FsmTransition { t, .. }
            | TraceEvent::CounterExchange { t, .. }
            | TraceEvent::ZoomStep { t, .. }
            | TraceEvent::Detection { t, .. }
            | TraceEvent::Reroute { t, .. }
            | TraceEvent::Failover { t, .. }
            | TraceEvent::RerouteDamp { t, .. }
            | TraceEvent::BackupAlarm { t, .. }
            | TraceEvent::TcpRto { t, .. }
            | TraceEvent::TcpFastRetx { t, .. }
            | TraceEvent::TcpCwnd { t, .. }
            | TraceEvent::IncidentOpen { t, .. }
            | TraceEvent::IncidentClear { t, .. }
            | TraceEvent::ChaosInject { t, .. }
            | TraceEvent::DegradedMode { t, .. }
            | TraceEvent::CacheHit { t, .. }
            | TraceEvent::Scrape { t, .. } => *t,
        }
    }

    /// Encode as one JSONL line (no trailing newline). Optional fields
    /// are omitted when absent, never written as `null`.
    pub fn to_jsonl(&self) -> String {
        let mut line = String::new();
        self.write_jsonl(&mut line);
        line
    }

    /// Append the [`TraceEvent::to_jsonl`] line to `out` (a sink that
    /// encodes every event keeps one buffer).
    pub fn write_jsonl(&self, out: &mut String) {
        let mut w = ObjectWriter::appending_to(std::mem::take(out));
        w.str("ev", self.kind()).u64("t", self.time_ns());
        match self {
            TraceEvent::PacketForward {
                link,
                dir,
                uid,
                entry,
                flow,
                size,
                ..
            } => {
                w.u64("link", *link).u64("dir", *dir).u64("uid", *uid);
                w.u64("entry", *entry);
                if let Some(flow) = flow {
                    w.u64("flow", *flow);
                }
                w.u64("size", *size);
            }
            TraceEvent::PacketDrop {
                cause,
                node,
                link,
                dir,
                uid,
                entry,
                flow,
                size,
                ..
            } => {
                w.str("cause", cause.name()).u64("node", *node);
                if let Some(link) = link {
                    w.u64("link", *link);
                }
                if let Some(dir) = dir {
                    w.u64("dir", *dir);
                }
                w.u64("uid", *uid).u64("entry", *entry);
                if let Some(flow) = flow {
                    w.u64("flow", *flow);
                }
                w.u64("size", *size);
            }
            TraceEvent::FsmTransition {
                node,
                port,
                role,
                unit,
                from,
                to,
                ..
            } => {
                w.u64("node", *node).u64("port", *port).str("role", role);
                w.u64("unit", *unit).str("from", from).str("to", to);
            }
            TraceEvent::CounterExchange {
                node,
                port,
                unit,
                session,
                body,
                dir,
                len,
                ..
            } => {
                w.u64("node", *node).u64("port", *port).u64("unit", *unit);
                w.u64("session", *session).str("body", body).str("dir", dir);
                w.u64("len", *len);
            }
            TraceEvent::ZoomStep {
                node,
                port,
                step,
                path,
                lost,
                ..
            } => {
                w.u64("node", *node).u64("port", *port).str("step", step);
                w.arr("path", path).u64("lost", *lost);
            }
            TraceEvent::Detection {
                node,
                port,
                detector,
                scope,
                entry,
                path,
                ..
            } => {
                w.u64("node", *node).u64("port", *port);
                w.str("detector", detector).str("scope", scope);
                if let Some(entry) = entry {
                    w.u64("entry", *entry);
                }
                if !path.is_empty() {
                    w.arr("path", path);
                }
            }
            TraceEvent::Reroute {
                node,
                entry,
                primary,
                backup,
                ..
            } => {
                w.u64("node", *node).u64("entry", *entry);
                w.u64("primary", *primary).u64("backup", *backup);
            }
            TraceEvent::Failover {
                node,
                entry,
                primary,
                from,
                to,
                rank,
                ..
            } => {
                w.u64("node", *node).u64("entry", *entry);
                w.u64("primary", *primary).u64("from", *from);
                w.u64("to", *to).u64("rank", *rank);
            }
            TraceEvent::RerouteDamp {
                node,
                entry,
                primary,
                action,
                ..
            } => {
                w.u64("node", *node).u64("entry", *entry);
                w.u64("primary", *primary).str("action", action);
            }
            TraceEvent::BackupAlarm {
                node,
                entry,
                primary,
                ..
            } => {
                w.u64("node", *node).u64("entry", *entry);
                w.u64("primary", *primary);
            }
            TraceEvent::TcpRto {
                node,
                flow,
                seq,
                rto_ns,
                cwnd_mpkt,
                ..
            } => {
                w.u64("node", *node).u64("flow", *flow).u64("seq", *seq);
                w.u64("rto_ns", *rto_ns).u64("cwnd_mpkt", *cwnd_mpkt);
            }
            TraceEvent::TcpFastRetx {
                node, flow, seq, ..
            } => {
                w.u64("node", *node).u64("flow", *flow).u64("seq", *seq);
            }
            TraceEvent::TcpCwnd {
                node,
                flow,
                from_mpkt,
                to_mpkt,
                ..
            } => {
                w.u64("node", *node).u64("flow", *flow);
                w.u64("from_mpkt", *from_mpkt).u64("to_mpkt", *to_mpkt);
            }
            TraceEvent::IncidentOpen {
                node,
                port,
                severity,
                ..
            } => {
                w.u64("node", *node).u64("port", *port);
                w.str("severity", severity);
            }
            TraceEvent::IncidentClear {
                node,
                port,
                detections,
                ..
            } => {
                w.u64("node", *node).u64("port", *port);
                w.u64("detections", *detections);
            }
            TraceEvent::ChaosInject {
                link,
                dir,
                action,
                uid,
                control,
                ..
            } => {
                w.u64("link", *link).u64("dir", *dir).str("action", action);
                w.u64("uid", *uid).u64("control", *control);
            }
            TraceEvent::DegradedMode { node, port, on, .. } => {
                w.u64("node", *node).u64("port", *port).u64("on", *on);
            }
            TraceEvent::CacheHit {
                cell,
                key_hi,
                key_lo,
                saved_events,
                ..
            } => {
                w.u64("cell", *cell).u64("key_hi", *key_hi);
                w.u64("key_lo", *key_lo).u64("saved_events", *saved_events);
            }
            TraceEvent::Scrape { seq, samples, .. } => {
                w.u64("seq", *seq).u64("samples", *samples);
            }
        }
        *out = w.finish();
    }

    /// Decode one JSONL line.
    pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
        let fields = parse_object(line)?;
        let ev_name = fields
            .iter()
            .find(|(k, _)| k == "ev")
            .and_then(|(_, v)| v.as_str())
            .ok_or_else(|| ParseError::UnknownEvent(String::new()))?
            .to_owned();
        let kind: &'static str = match ev_name.as_str() {
            "fwd" => "fwd",
            "drop" => "drop",
            "fsm" => "fsm",
            "ctrl" => "ctrl",
            "zoom" => "zoom",
            "detect" => "detect",
            "reroute" => "reroute",
            "failover" => "failover",
            "damp" => "damp",
            "alarm" => "alarm",
            "tcp_rto" => "tcp_rto",
            "tcp_retx" => "tcp_retx",
            "tcp_cwnd" => "tcp_cwnd",
            "incident_open" => "incident_open",
            "incident_clear" => "incident_clear",
            "chaos" => "chaos",
            "degraded" => "degraded",
            "cache_hit" => "cache_hit",
            "scrape" => "scrape",
            _ => return Err(ParseError::UnknownEvent(ev_name)),
        };
        let f = Fields {
            kind,
            fields: &fields,
        };
        let t = f.u64("t")?;
        Ok(match kind {
            "fwd" => TraceEvent::PacketForward {
                t,
                link: f.u64("link")?,
                dir: f.u64("dir")?,
                uid: f.u64("uid")?,
                entry: f.u64("entry")?,
                flow: f.opt_u64("flow")?,
                size: f.u64("size")?,
            },
            "drop" => TraceEvent::PacketDrop {
                t,
                cause: DropCause::from_name(&f.str("cause")?)
                    .ok_or(ParseError::Field("drop", "cause"))?,
                node: f.u64("node")?,
                link: f.opt_u64("link")?,
                dir: f.opt_u64("dir")?,
                uid: f.u64("uid")?,
                entry: f.u64("entry")?,
                flow: f.opt_u64("flow")?,
                size: f.u64("size")?,
            },
            "fsm" => TraceEvent::FsmTransition {
                t,
                node: f.u64("node")?,
                port: f.u64("port")?,
                role: f.str("role")?,
                unit: f.u64("unit")?,
                from: f.str("from")?,
                to: f.str("to")?,
            },
            "ctrl" => TraceEvent::CounterExchange {
                t,
                node: f.u64("node")?,
                port: f.u64("port")?,
                unit: f.u64("unit")?,
                session: f.u64("session")?,
                body: f.str("body")?,
                dir: f.str("dir")?,
                len: f.u64("len")?,
            },
            "zoom" => TraceEvent::ZoomStep {
                t,
                node: f.u64("node")?,
                port: f.u64("port")?,
                step: f.str("step")?,
                path: f.arr("path")?,
                lost: f.u64("lost")?,
            },
            "detect" => TraceEvent::Detection {
                t,
                node: f.u64("node")?,
                port: f.u64("port")?,
                detector: f.str("detector")?,
                scope: f.str("scope")?,
                entry: f.opt_u64("entry")?,
                path: match f.get("path") {
                    None => Vec::new(),
                    Some(_) => f.arr("path")?,
                },
            },
            "reroute" => TraceEvent::Reroute {
                t,
                node: f.u64("node")?,
                entry: f.u64("entry")?,
                primary: f.u64("primary")?,
                backup: f.u64("backup")?,
            },
            "failover" => TraceEvent::Failover {
                t,
                node: f.u64("node")?,
                entry: f.u64("entry")?,
                primary: f.u64("primary")?,
                from: f.u64("from")?,
                to: f.u64("to")?,
                rank: f.u64("rank")?,
            },
            "damp" => TraceEvent::RerouteDamp {
                t,
                node: f.u64("node")?,
                entry: f.u64("entry")?,
                primary: f.u64("primary")?,
                action: f.str("action")?,
            },
            "alarm" => TraceEvent::BackupAlarm {
                t,
                node: f.u64("node")?,
                entry: f.u64("entry")?,
                primary: f.u64("primary")?,
            },
            "tcp_rto" => TraceEvent::TcpRto {
                t,
                node: f.u64("node")?,
                flow: f.u64("flow")?,
                seq: f.u64("seq")?,
                rto_ns: f.u64("rto_ns")?,
                cwnd_mpkt: f.u64("cwnd_mpkt")?,
            },
            "tcp_retx" => TraceEvent::TcpFastRetx {
                t,
                node: f.u64("node")?,
                flow: f.u64("flow")?,
                seq: f.u64("seq")?,
            },
            "tcp_cwnd" => TraceEvent::TcpCwnd {
                t,
                node: f.u64("node")?,
                flow: f.u64("flow")?,
                from_mpkt: f.u64("from_mpkt")?,
                to_mpkt: f.u64("to_mpkt")?,
            },
            "incident_open" => TraceEvent::IncidentOpen {
                t,
                node: f.u64("node")?,
                port: f.u64("port")?,
                severity: f.str("severity")?,
            },
            "incident_clear" => TraceEvent::IncidentClear {
                t,
                node: f.u64("node")?,
                port: f.u64("port")?,
                detections: f.u64("detections")?,
            },
            "chaos" => TraceEvent::ChaosInject {
                t,
                link: f.u64("link")?,
                dir: f.u64("dir")?,
                action: f.str("action")?,
                uid: f.u64("uid")?,
                control: f.u64("control")?,
            },
            "degraded" => TraceEvent::DegradedMode {
                t,
                node: f.u64("node")?,
                port: f.u64("port")?,
                on: f.u64("on")?,
            },
            "cache_hit" => TraceEvent::CacheHit {
                t,
                cell: f.u64("cell")?,
                key_hi: f.u64("key_hi")?,
                key_lo: f.u64("key_lo")?,
                saved_events: f.u64("saved_events")?,
            },
            "scrape" => TraceEvent::Scrape {
                t,
                seq: f.u64("seq")?,
                samples: f.u64("samples")?,
            },
            _ => unreachable!("kind validated above"),
        })
    }
}

/// Parse a whole JSONL document (blank lines allowed). On error, reports
/// the 1-based line number alongside the cause.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, (usize, ParseError)> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(TraceEvent::parse_line(line).map_err(|e| (i + 1, e))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PacketForward {
                t: 1,
                link: 2,
                dir: 0,
                uid: 99,
                entry: 7,
                flow: Some(3),
                size: 1500,
            },
            TraceEvent::PacketForward {
                t: 2,
                link: 2,
                dir: 1,
                uid: 100,
                entry: 7,
                flow: None,
                size: 64,
            },
            TraceEvent::PacketDrop {
                t: 3,
                cause: DropCause::Gray,
                node: 1,
                link: Some(2),
                dir: Some(0),
                uid: 101,
                entry: 7,
                flow: Some(3),
                size: 1500,
            },
            TraceEvent::PacketDrop {
                t: 4,
                cause: DropCause::NoRoute,
                node: 1,
                link: None,
                dir: None,
                uid: 102,
                entry: 9,
                flow: None,
                size: 64,
            },
            TraceEvent::FsmTransition {
                t: 5,
                node: 1,
                port: 2,
                role: "tx".into(),
                unit: UNIT_TREE,
                from: "idle".into(),
                to: "wait_ack".into(),
            },
            TraceEvent::CounterExchange {
                t: 6,
                node: 1,
                port: 2,
                unit: 4,
                session: 12,
                body: "start_ack".into(),
                dir: "rx".into(),
                len: 13,
            },
            TraceEvent::ZoomStep {
                t: 7,
                node: 1,
                port: 2,
                step: "descend".into(),
                path: vec![3, 0],
                lost: 17,
            },
            TraceEvent::Detection {
                t: 8,
                node: 1,
                port: 2,
                detector: "tree".into(),
                scope: "path".into(),
                entry: None,
                path: vec![3, 0, 1],
            },
            TraceEvent::Detection {
                t: 9,
                node: 1,
                port: 2,
                detector: "baseline:netseer".into(),
                scope: "entry".into(),
                entry: Some(7),
                path: vec![],
            },
            TraceEvent::Reroute {
                t: 10,
                node: 1,
                entry: 7,
                primary: 2,
                backup: 3,
            },
            TraceEvent::Failover {
                t: 10,
                node: 1,
                entry: 7,
                primary: 2,
                from: 3,
                to: 4,
                rank: 1,
            },
            TraceEvent::RerouteDamp {
                t: 10,
                node: 1,
                entry: 7,
                primary: 2,
                action: "retrip".into(),
            },
            TraceEvent::BackupAlarm {
                t: 10,
                node: 1,
                entry: 7,
                primary: 2,
            },
            TraceEvent::PacketDrop {
                t: 10,
                cause: DropCause::NoBackup,
                node: 1,
                link: None,
                dir: None,
                uid: 104,
                entry: 7,
                flow: Some(3),
                size: 1500,
            },
            TraceEvent::TcpRto {
                t: 11,
                node: 0,
                flow: 3,
                seq: 41,
                rto_ns: 400_000_000,
                cwnd_mpkt: 12_500,
            },
            TraceEvent::TcpFastRetx {
                t: 12,
                node: 0,
                flow: 3,
                seq: 42,
            },
            TraceEvent::TcpCwnd {
                t: 13,
                node: 0,
                flow: 3,
                from_mpkt: 12_500,
                to_mpkt: 1_000,
            },
            TraceEvent::IncidentOpen {
                t: 14,
                node: 1,
                port: 2,
                severity: "entry_loss".into(),
            },
            TraceEvent::IncidentClear {
                t: 15,
                node: 1,
                port: 2,
                detections: 6,
            },
            TraceEvent::ChaosInject {
                t: 16,
                link: 2,
                dir: 0,
                action: "dup".into(),
                uid: 103,
                control: 1,
            },
            TraceEvent::DegradedMode {
                t: 17,
                node: 1,
                port: 2,
                on: 1,
            },
            TraceEvent::CacheHit {
                t: 18,
                cell: 5,
                key_hi: 0xDEAD_BEEF_0BAD_F00D,
                key_lo: 0x0123_4567_89AB_CDEF,
                saved_events: 42_000,
            },
            TraceEvent::Scrape {
                t: 19,
                seq: 3,
                samples: 27,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_exactly() {
        for ev in samples() {
            let line = ev.to_jsonl();
            let back = TraceEvent::parse_line(&line)
                .unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, ev, "value round trip for {line}");
            assert_eq!(back.to_jsonl(), line, "byte round trip for {line}");
        }
    }

    #[test]
    fn borrowed_and_parsed_vocabulary_are_one_value() {
        // An emission site borrows its literals, the parser owns what it
        // read: the two must compare and encode as the same event.
        let built = TraceEvent::CounterExchange {
            t: 6,
            node: 1,
            port: 2,
            unit: 4,
            session: 12,
            body: Cow::Borrowed("start_ack"),
            dir: Cow::Borrowed("rx"),
            len: 13,
        };
        let parsed = TraceEvent::parse_line(&built.to_jsonl()).unwrap();
        let TraceEvent::CounterExchange { body, dir, .. } = &parsed else {
            panic!("parsed as {parsed:?}");
        };
        assert!(matches!((body, dir), (Cow::Owned(_), Cow::Owned(_))));
        assert_eq!(parsed, built);
        assert_eq!(parsed.to_jsonl(), built.to_jsonl());
    }

    #[test]
    fn document_round_trips_with_blank_lines() {
        let text: String = samples().iter().map(|e| e.to_jsonl() + "\n\n").collect();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, samples());
    }

    #[test]
    fn unknown_event_kind_is_an_error_with_line_number() {
        let good = samples()[0].to_jsonl();
        let text = format!("{good}\n{{\"ev\":\"warp\",\"t\":1}}\n");
        let (line, err) = parse_jsonl(&text).unwrap_err();
        assert_eq!(line, 2);
        assert_eq!(err, ParseError::UnknownEvent("warp".into()));
    }

    #[test]
    fn missing_field_names_the_field() {
        let err = TraceEvent::parse_line(r#"{"ev":"reroute","t":1,"node":2}"#).unwrap_err();
        assert_eq!(err, ParseError::Field("reroute", "entry"));
    }

    #[test]
    fn time_past_u64_is_an_error() {
        // The shared parser reads integers up to u128 (a histogram sum
        // needs them); a trace field past u64::MAX must still fail.
        let line = |t: u128| {
            format!(r#"{{"ev":"reroute","t":{t},"node":2,"entry":5,"primary":1,"backup":3}}"#)
        };
        assert!(TraceEvent::parse_line(&line(u128::from(u64::MAX))).is_ok());
        let err = TraceEvent::parse_line(&line(1 << 64)).unwrap_err();
        assert_eq!(err, ParseError::Field("reroute", "t"));
    }

    #[test]
    fn repeated_key_is_an_error() {
        let line = r#"{"ev":"reroute","t":1,"node":2,"entry":5,"primary":1,"backup":3,"node":4}"#;
        assert_eq!(
            TraceEvent::parse_line(line),
            Err(ParseError::Json(JsonError::RepeatedKey("node".into())))
        );
    }

    #[test]
    fn time_accessor_matches_field() {
        for ev in samples() {
            assert!(ev.time_ns() > 0);
        }
    }
}
