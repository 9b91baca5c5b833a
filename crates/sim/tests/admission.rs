//! One TM admission path, reached by value (`Kernel::send`) and by ref
//! (`Kernel::forward`).
//!
//! A relay fills its one egress queue, then offers one packet of each
//! kind into the full queue. Both must be refused the same way: one
//! congestion `PacketDrop` each, with the link, direction, entry, flow
//! and size of the refused packet, counted once in telemetry and once in
//! the records. The refused by-value packet was never stamped, so it
//! must not use up a uid: the next accepted by-value packet gets the uid
//! it would have had without the refusal. The same run traced into a
//! sink that wants only drops hands it exactly those two events.

use std::any::Any;

use fancy_sim::prelude::*;

const DST: u32 = 0x0A_11_22_01;
const SIZE: u32 = 1000;

fn udp(flow: u64, seq: u64) -> Packet {
    PacketBuilder::new(1, DST, SIZE, PacketKind::Udp { flow, seq }).build()
}

/// Sends by value on timers and forwards every arrival by ref, all out
/// of port 0.
#[derive(Default)]
struct Relay {
    /// `send`/`forward` results, in the order they were made.
    accepted: Vec<bool>,
}

impl Node for Relay {
    fn on_start(&mut self, ctx: &mut Kernel) {
        ctx.schedule_timer(SimDuration::ZERO, 0);
        ctx.schedule_timer(SimDuration::from_millis(100), 1);
    }
    fn on_packet(&mut self, ctx: &mut Kernel, _port: PortId, pkt: PacketRef) {
        self.accepted.push(ctx.forward(0, pkt));
    }
    fn on_timer(&mut self, ctx: &mut Kernel, token: u64) {
        if token == 0 {
            // The first packet fills the queue; the second finds it full.
            self.accepted.push(ctx.send(0, udp(1, 0)));
            self.accepted.push(ctx.send(0, udp(2, 0)));
        } else {
            // The queue has long drained: this one goes out.
            self.accepted.push(ctx.send(0, udp(3, 0)));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Relay (node 0) → sink (node 1) over link 0, traced into `tracer`,
/// run to the end.
fn run(tracer: Box<dyn TraceSink>) -> Network {
    let mut net = Network::new(1);
    let relay = net.add_node(Box::new(Relay::default()));
    let sink = net.add_node(Box::new(SinkNode::default()));
    // 1 Mbps: one 1000 B packet holds the queue for 8 ms, and the queue
    // takes only one of them.
    let cfg = LinkConfig::new(1_000_000, SimDuration::from_millis(1))
        .with_tm_capacity(u64::from(SIZE) + 500);
    net.connect(relay, sink, cfg);
    net.kernel.set_tracer(tracer);
    // Stamped now (uid 1), forwarded by ref 1 µs in, while the queue is full.
    net.kernel.inject(
        relay,
        1,
        udp(4, 0),
        SimTime::ZERO + SimDuration::from_micros(1),
    );
    net.run_to_end();
    net
}

#[test]
fn by_value_and_by_ref_refusals_share_one_admission_path() {
    let recorder = SharedRecorder::new(64);
    let net = run(Box::new(recorder.clone()));
    let (relay, sink, link) = (0, 1, 0);

    assert_eq!(
        net.node::<Relay>(relay).accepted,
        [true, false, false, true],
        "fill (value), refused (value), refused (ref), drained (value)"
    );
    assert_eq!(net.kernel.telemetry.congestion_drops, 2);
    assert_eq!(net.kernel.records.congestion_drops, 2);
    assert_eq!(net.node::<SinkNode>(sink).packets, 2);

    let events = recorder.snapshot();
    let drops: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
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
            } => Some((*cause, *node, *link, *dir, *uid, *entry, *flow, *size)),
            _ => None,
        })
        .collect();
    let entry = u64::from(DST >> 8);
    let (node, link, size) = (relay as u64, Some(link as u64), u64::from(SIZE));
    assert_eq!(
        drops,
        [
            // By value: refused before it was stamped, so uid 0.
            (
                DropCause::Congestion,
                node,
                link,
                Some(0),
                0,
                entry,
                Some(2),
                size
            ),
            // By ref: the injected packet, stamped uid 1 at injection.
            (
                DropCause::Congestion,
                node,
                link,
                Some(0),
                1,
                entry,
                Some(4),
                size
            ),
        ]
    );

    // Accepted packets, by uid: the fill took 2, the refused by-value
    // packet took none, so the drained one gets 3.
    let forwarded: Vec<(u64, Option<u64>)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PacketForward { uid, flow, .. } => Some((*uid, *flow)),
            _ => None,
        })
        .collect();
    assert_eq!(forwarded, [(2, Some(1)), (3, Some(3))]);
}

/// Wants only drops; records what it is handed.
struct DropsOnly(SharedRecorder);

impl TraceSink for DropsOnly {
    fn wants(&self, kind: TraceKind) -> bool {
        kind == TraceKind::PacketDrop
    }
    fn record(&mut self, event: &TraceEvent) {
        self.0.record(event);
    }
}

#[test]
fn a_sink_is_handed_only_the_kinds_it_wants() {
    let all = SharedRecorder::new(64);
    run(Box::new(all.clone()));
    let drops = SharedRecorder::new(64);
    run(Box::new(DropsOnly(drops.clone())));
    let all = all.snapshot();
    let want: Vec<_> = all
        .iter()
        .filter(|e| e.trace_kind() == TraceKind::PacketDrop)
        .cloned()
        .collect();
    assert_eq!((want.len(), all.len() > want.len()), (2, true));
    assert_eq!(drops.snapshot(), want);
}
