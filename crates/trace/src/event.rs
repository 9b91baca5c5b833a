//! The trace event model.
//!
//! Every event is a flat record: an `ev` discriminator, a `t` timestamp
//! in simulated nanoseconds, and a handful of integer/string fields.
//! Events come from three layers:
//!
//! * **wire** — [`TraceEvent::PacketForward`] / [`TraceEvent::PacketDrop`]
//!   from the kernel's link admission path (drops carry their cause);
//! * **FANcY data plane** — FSM transitions, counter exchanges, zoom-tree
//!   steps, detections, and reroute decisions;
//! * **transport** — TCP RTO firings, fast retransmits, cwnd collapses
//!   (cwnd is encoded in *milli-packets* so the schema stays float-free).
//!
//! String fields drawn from a closed vocabulary (FSM roles and states,
//! message bodies, zoom steps, detector and scope names, damping actions)
//! are `Cow<'static, str>`: an emission site passes its
//! literal (`role.into()`) and touches no allocator, the parser yields
//! `Owned`, and the two compare and encode alike. Only a value made at
//! run time (`baseline:<name>`) is owned at the source.
//!
//! The JSONL form is one object per line; [`TraceEvent::to_jsonl`] and
//! [`TraceEvent::parse_line`] are exact inverses (asserted in tests and
//! by the `trace-report` CI smoke step), which is what makes "fails on
//! schema drift" enforceable. Both come from the one `trace_events!`
//! declaration below, which is the schema.

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

/// How a field type is spelled in an event's JSON object.
trait Wire: Sized {
    /// Append the value under `key`.
    fn write(&self, key: &str, w: &mut ObjectWriter);

    /// Read a value from what the line holds under its key (`None` when
    /// the key is absent); `None` back means missing or malformed.
    fn read(value: Option<&JsonValue>) -> Option<Self>;
}

impl Wire for u64 {
    fn write(&self, key: &str, w: &mut ObjectWriter) {
        w.u64(key, *self);
    }

    fn read(value: Option<&JsonValue>) -> Option<Self> {
        value?.as_u64()
    }
}

/// An absent optional is omitted, never written as `null`.
impl Wire for Option<u64> {
    fn write(&self, key: &str, w: &mut ObjectWriter) {
        if let Some(v) = self {
            v.write(key, w);
        }
    }

    fn read(value: Option<&JsonValue>) -> Option<Self> {
        match value {
            None => Some(None),
            Some(_) => u64::read(value).map(Some),
        }
    }
}

impl Wire for Cow<'static, str> {
    fn write(&self, key: &str, w: &mut ObjectWriter) {
        w.str(key, self);
    }

    fn read(value: Option<&JsonValue>) -> Option<Self> {
        Some(Cow::Owned(value?.as_str()?.to_owned()))
    }
}

impl Wire for Vec<u64> {
    fn write(&self, key: &str, w: &mut ObjectWriter) {
        w.arr(key, self);
    }

    fn read(value: Option<&JsonValue>) -> Option<Self> {
        value?.as_arr().map(<[u64]>::to_vec)
    }
}

impl Wire for DropCause {
    fn write(&self, key: &str, w: &mut ObjectWriter) {
        w.str(key, self.name());
    }

    fn read(value: Option<&JsonValue>) -> Option<Self> {
        DropCause::from_name(value?.as_str()?)
    }
}

/// Declares [`TraceEvent`] from one list of `Variant = "ev" { t: u64,
/// field: Type, … }` entries, fields in wire order after the timestamp:
/// the enum, its field-less twin [`TraceKind`], [`TraceEvent::kind`],
/// [`TraceEvent::trace_kind`], [`TraceEvent::time_ns`],
/// [`TraceEvent::write_jsonl`] and [`TraceEvent::parse_line`] all come
/// from it, so the writer and the parser cannot drift apart. A field's
/// key is its name and its [`Wire`] impl says how it is spelled;
/// `[omit_empty]` after the type leaves an empty value out and reads an
/// absent one back as empty.
macro_rules! trace_events {
    (@write $w:ident, $key:expr, $value:expr) => {
        Wire::write($value, $key, &mut $w)
    };
    (@write $w:ident, $key:expr, $value:expr, omit_empty) => {
        if !$value.is_empty() {
            Wire::write($value, $key, &mut $w)
        }
    };
    (@read $get:ident, $key:expr, $ty:ty) => {
        <$ty as Wire>::read($get($key))
    };
    (@read $get:ident, $key:expr, $ty:ty, omit_empty) => {
        match $get($key) {
            None => Some(<$ty>::default()),
            value => <$ty as Wire>::read(value),
        }
    };
    ($(
        $(#[$doc:meta])*
        $variant:ident = $ev:literal {
            $(#[$t_doc:meta])*
            t: u64,
            $($(#[$field_doc:meta])* $field:ident: $ty:ty $([$mark:ident])?,)*
        }
    )*) => {
        /// One structured trace event. All times are simulated nanoseconds.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum TraceEvent {
            $($(#[$doc])* $variant {
                $(#[$t_doc])*
                t: u64,
                $($(#[$field_doc])* $field: $ty,)*
            },)*
        }

        /// Which [`TraceEvent`] variant, without its fields: what a
        /// [`crate::TraceSink`] names in [`crate::TraceSink::wants`] and an
        /// emission site asks about before it builds the event.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceKind {
            $($(#[$doc])* $variant,)*
        }

        impl TraceKind {
            /// Every kind, in declaration order.
            pub const ALL: &'static [TraceKind] = &[$(TraceKind::$variant,)*];

            /// This kind's bit in a [`TraceKind::mask`].
            #[inline]
            pub const fn bit(self) -> u64 {
                1 << self as u32
            }

            /// The bitmask of the kinds `wants` accepts.
            pub fn mask(wants: impl Fn(TraceKind) -> bool) -> u64 {
                TraceKind::ALL
                    .iter()
                    .filter(|&&k| wants(k))
                    .fold(0, |m, k| m | k.bit())
            }
        }

        // One bit per kind must fit a `u64` mask.
        const _: () = assert!(TraceKind::ALL.len() <= 64);

        impl TraceEvent {
            /// Stable discriminator, as written to the `ev` field.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $ev,)*
                }
            }

            /// The event's [`TraceKind`].
            pub fn trace_kind(&self) -> TraceKind {
                match self {
                    $(TraceEvent::$variant { .. } => TraceKind::$variant,)*
                }
            }

            /// Event time in simulated nanoseconds.
            pub fn time_ns(&self) -> u64 {
                match self {
                    $(TraceEvent::$variant { t, .. })|* => *t,
                }
            }

            /// Append the [`TraceEvent::to_jsonl`] line to `out` (a sink
            /// that encodes every event keeps one buffer).
            pub fn write_jsonl(&self, out: &mut String) {
                let mut w = ObjectWriter::appending_to(std::mem::take(out));
                w.str("ev", self.kind()).u64("t", self.time_ns());
                match self {
                    $(TraceEvent::$variant { $($field,)* .. } => {
                        $(trace_events!(@write w, stringify!($field), $field $(, $mark)?);)*
                    })*
                }
                *out = w.finish();
            }

            /// Decode one JSONL line. A bad or missing field is reported
            /// by name, the first one in wire order; keys the event does
            /// not declare are ignored.
            pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
                let fields = parse_object(line)?;
                let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                let ev = get("ev")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| ParseError::UnknownEvent(String::new()))?;
                match ev {
                    $($ev => Ok(TraceEvent::$variant {
                        t: u64::read(get("t")).ok_or(ParseError::Field($ev, "t"))?,
                        $($field: trace_events!(@read get, stringify!($field), $ty $(, $mark)?)
                            .ok_or(ParseError::Field($ev, stringify!($field)))?,)*
                    }),)*
                    _ => Err(ParseError::UnknownEvent(ev.to_owned())),
                }
            }
        }
    };
}

trace_events! {
    /// A packet cleared link admission and will arrive at the far end.
    PacketForward = "fwd" {
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
    }
    /// A packet died.
    PacketDrop = "drop" {
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
    }
    /// A FANcY counting FSM changed state.
    FsmTransition = "fsm" {
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
    }
    /// A counting-protocol message was sent or received.
    CounterExchange = "ctrl" {
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
    }
    /// The hash-tree zoom engine advanced.
    ZoomStep = "zoom" {
        /// Session-end time at which the step was decided.
        t: u64,
        /// Switch node id.
        node: u64,
        /// Port being zoomed.
        port: u64,
        /// `"adopt"`, `"descend"`, `"abandon"`, `"leaf"`, or `"uniform"`.
        step: Cow<'static, str>,
        /// Hash path the step concerns (empty for `uniform`, and then
        /// still written, as `[]`).
        path: Vec<u64>,
        /// Lost-packet count that justified the step, when one did.
        lost: u64,
    }
    /// A detector fired (mirrors the kernel's `DetectionRecord`).
    Detection = "detect" {
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
        path: Vec<u64> [omit_empty],
    }
    /// Traffic for an entry started using the backup port (rising edge).
    Reroute = "reroute" {
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
    }
    /// A rerouted entry's active backup changed: the alternate in use
    /// turned gray (or came back) and the switch cascaded to another
    /// ranked loop-free alternate.
    Failover = "failover" {
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
    }
    /// The reroute damping state machine transitioned for an entry:
    /// `"engage"` (suspicion window tripped, traffic leaves the primary),
    /// `"probe"` (hold-down expired, traffic returns to the primary on
    /// probation), `"restore"` (probation completed clean, reroute torn
    /// down), or `"retrip"` (lossy during probation — a flap).
    RerouteDamp = "damp" {
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
    }
    /// Every ranked backup alternate for a rerouted entry is unhealthy:
    /// the switch degraded to drop-and-alarm (rising edge per entry).
    BackupAlarm = "alarm" {
        /// First alarmed-drop time.
        t: u64,
        /// Switch node id.
        node: u64,
        /// Entry whose cascade is exhausted.
        entry: u64,
        /// Protected primary egress port.
        primary: u64,
    }
    /// A TCP retransmission timeout fired and forced a retransmit.
    TcpRto = "tcp_rto" {
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
    }
    /// Three duplicate ACKs triggered a fast retransmit.
    TcpFastRetx = "tcp_retx" {
        /// Trigger time.
        t: u64,
        /// Sender host node id.
        node: u64,
        /// Flow id.
        flow: u64,
        /// Sequence retransmitted.
        seq: u64,
    }
    /// The congestion window shrank (RTO collapse or fast-recovery halving).
    TcpCwnd = "tcp_cwnd" {
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
    }
    /// The chaos layer acted on a wire packet (adversarial fault
    /// injection). Drops additionally ride [`TraceEvent::PacketDrop`]
    /// with their usual cause, so timeline analyses keep working.
    ChaosInject = "chaos" {
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
    }
    /// A switch port entered (`on = 1`) or left (`on = 0`) degraded
    /// port-level counting after counting-protocol retry exhaustion.
    DegradedMode = "degraded" {
        /// Transition time.
        t: u64,
        /// Switch node id.
        node: u64,
        /// Degraded port.
        port: u64,
        /// 1 entering degraded mode, 0 recovering from it.
        on: u64,
    }
    /// A sweep cell was served from the content-addressed result cache
    /// (`fancy-bench`'s `FANCY_CACHE_DIR` store) instead of executing.
    CacheHit = "cache_hit" {
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
    }
    /// The in-sim metrics scraper (`fancy-sim`'s `ScrapeNode`) captured
    /// a registry snapshot into the scrape series.
    Scrape = "scrape" {
        /// Stamp time.
        t: u64,
        /// Scrape sequence number (0-based).
        seq: u64,
        /// Number of metric samples in the captured snapshot.
        samples: u64,
    }
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

impl TraceEvent {
    /// Encode as one JSONL line (no trailing newline). Optional fields
    /// are omitted when absent, never written as `null`.
    pub fn to_jsonl(&self) -> String {
        let mut line = String::new();
        self.write_jsonl(&mut line);
        line
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
            TraceEvent::PacketDrop {
                t: 4,
                cause: DropCause::Congestion,
                node: 2,
                link: Some(3),
                dir: Some(1),
                uid: 105,
                entry: 9,
                flow: None,
                size: 1500,
            },
            TraceEvent::PacketDrop {
                t: 4,
                cause: DropCause::Control,
                node: 2,
                link: Some(3),
                dir: None,
                uid: 106,
                entry: 0,
                flow: Some(4),
                size: 13,
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
            TraceEvent::ZoomStep {
                t: 7,
                node: 1,
                port: 3,
                step: "uniform".into(),
                path: vec![],
                lost: 0,
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
            TraceEvent::Detection {
                t: 9,
                node: 1,
                port: 2,
                detector: "dedicated".into(),
                scope: "entry".into(),
                entry: Some(7),
                path: vec![5, 1],
            },
            TraceEvent::Detection {
                t: 9,
                node: 1,
                port: 3,
                detector: "uniform".into(),
                scope: "uniform".into(),
                entry: None,
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

    /// The wire bytes of [`samples`], one line each: every event kind,
    /// every drop cause, and each optional field both present and absent.
    const PINNED: &[&str] = &[
        r#"{"ev":"fwd","t":1,"link":2,"dir":0,"uid":99,"entry":7,"flow":3,"size":1500}"#,
        r#"{"ev":"fwd","t":2,"link":2,"dir":1,"uid":100,"entry":7,"size":64}"#,
        r#"{"ev":"drop","t":3,"cause":"gray","node":1,"link":2,"dir":0,"uid":101,"entry":7,"flow":3,"size":1500}"#,
        r#"{"ev":"drop","t":4,"cause":"noroute","node":1,"uid":102,"entry":9,"size":64}"#,
        r#"{"ev":"drop","t":4,"cause":"congestion","node":2,"link":3,"dir":1,"uid":105,"entry":9,"size":1500}"#,
        r#"{"ev":"drop","t":4,"cause":"control","node":2,"link":3,"uid":106,"entry":0,"flow":4,"size":13}"#,
        r#"{"ev":"fsm","t":5,"node":1,"port":2,"role":"tx","unit":65535,"from":"idle","to":"wait_ack"}"#,
        r#"{"ev":"ctrl","t":6,"node":1,"port":2,"unit":4,"session":12,"body":"start_ack","dir":"rx","len":13}"#,
        r#"{"ev":"zoom","t":7,"node":1,"port":2,"step":"descend","path":[3,0],"lost":17}"#,
        r#"{"ev":"zoom","t":7,"node":1,"port":3,"step":"uniform","path":[],"lost":0}"#,
        r#"{"ev":"detect","t":8,"node":1,"port":2,"detector":"tree","scope":"path","path":[3,0,1]}"#,
        r#"{"ev":"detect","t":9,"node":1,"port":2,"detector":"baseline:netseer","scope":"entry","entry":7}"#,
        r#"{"ev":"detect","t":9,"node":1,"port":2,"detector":"dedicated","scope":"entry","entry":7,"path":[5,1]}"#,
        r#"{"ev":"detect","t":9,"node":1,"port":3,"detector":"uniform","scope":"uniform"}"#,
        r#"{"ev":"reroute","t":10,"node":1,"entry":7,"primary":2,"backup":3}"#,
        r#"{"ev":"failover","t":10,"node":1,"entry":7,"primary":2,"from":3,"to":4,"rank":1}"#,
        r#"{"ev":"damp","t":10,"node":1,"entry":7,"primary":2,"action":"retrip"}"#,
        r#"{"ev":"alarm","t":10,"node":1,"entry":7,"primary":2}"#,
        r#"{"ev":"drop","t":10,"cause":"nobackup","node":1,"uid":104,"entry":7,"flow":3,"size":1500}"#,
        r#"{"ev":"tcp_rto","t":11,"node":0,"flow":3,"seq":41,"rto_ns":400000000,"cwnd_mpkt":12500}"#,
        r#"{"ev":"tcp_retx","t":12,"node":0,"flow":3,"seq":42}"#,
        r#"{"ev":"tcp_cwnd","t":13,"node":0,"flow":3,"from_mpkt":12500,"to_mpkt":1000}"#,
        r#"{"ev":"chaos","t":16,"link":2,"dir":0,"action":"dup","uid":103,"control":1}"#,
        r#"{"ev":"degraded","t":17,"node":1,"port":2,"on":1}"#,
        r#"{"ev":"cache_hit","t":18,"cell":5,"key_hi":16045690981293355021,"key_lo":81985529216486895,"saved_events":42000}"#,
        r#"{"ev":"scrape","t":19,"seq":3,"samples":27}"#,
    ];

    #[test]
    fn every_sample_encodes_to_its_pinned_line() {
        let samples = samples();
        assert_eq!(samples.len(), PINNED.len());
        for (ev, want) in samples.iter().zip(PINNED) {
            assert_eq!(ev.to_jsonl(), *want, "{ev:?}");
        }
    }

    /// The keys a sample may leave out: absent, each reads back as the
    /// same event without that field.
    const OPTIONAL: &[(&str, &str)] = &[
        ("fwd", "flow"),
        ("drop", "link"),
        ("drop", "dir"),
        ("drop", "flow"),
        ("detect", "entry"),
        ("detect", "path"),
    ];

    /// Re-encode a parsed object with `key` dropped (`None`) or its value
    /// replaced.
    fn edited(fields: &[(String, JsonValue)], key: &str, value: Option<JsonValue>) -> String {
        let mut w = ObjectWriter::new();
        for (k, v) in fields {
            let v = if k == key { value.as_ref() } else { Some(v) };
            match v {
                None => {}
                Some(JsonValue::Int(i)) => {
                    w.u128(k, *i);
                }
                Some(JsonValue::Str(s)) => {
                    w.str(k, s);
                }
                Some(JsonValue::Arr(a)) => {
                    w.arr(k, a);
                }
                Some(other) => panic!("no event field holds {other:?}"),
            }
        }
        w.finish()
    }

    #[test]
    fn every_key_is_checked_by_name() {
        for ev in samples() {
            let line = ev.to_jsonl();
            let fields = parse_object(&line).unwrap();
            let kind = ev.kind();
            for (key, value) in fields.iter().filter(|(k, _)| k != "ev") {
                let names_key = |r: &Result<TraceEvent, ParseError>| matches!(r, Err(ParseError::Field(k, f)) if *k == kind && f == key);
                let without = edited(&fields, key, None);
                let parsed = TraceEvent::parse_line(&without);
                if OPTIONAL.contains(&(kind, key.as_str())) {
                    let back = parsed.unwrap_or_else(|e| panic!("{without}: {e}"));
                    assert_eq!(back.to_jsonl(), without, "{kind}.{key} left out");
                    assert_ne!(back, ev, "{kind}.{key} left out");
                } else {
                    assert!(names_key(&parsed), "{kind}.{key} left out: {parsed:?}");
                }
                let wrong = match value {
                    JsonValue::Str(_) => JsonValue::Int(1),
                    _ => JsonValue::Str("x".into()),
                };
                let mistyped = edited(&fields, key, Some(wrong));
                let parsed = TraceEvent::parse_line(&mistyped);
                assert!(names_key(&parsed), "{mistyped}: {parsed:?}");
            }
        }
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
