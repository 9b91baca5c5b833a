//! Differential test: `SenderHost`'s timer discipline vs the eager one.
//!
//! [`SenderHost`] keeps one RTO timer per flow (re-armed when it fires)
//! and one start timer per host. Its contract is that this changes only
//! what the scheduler is fed, never what goes on the wire. This file is
//! the gate for that contract: [`EagerSender`] is the simplest possible
//! model of the discipline it replaced — a fresh RTO timer at the flow's
//! deadline on every data packet sent and every ACK received, none ever
//! retired, and one start timer per flow pushed up front — and both drive
//! the same [`TcpFlow`]s through the same network:
//!
//! ```text
//! sender ── clean link ── Wiretap ── lossy link ── ReceiverHost
//! ```
//!
//! under generated flow sets and loss plans. The wiretap sees every
//! segment before the loss does, so the two transmit sequences are
//! compared packet for packet, to the nanosecond.
//!
//! [`SenderHost`] also hands a completed flow's state slot to the next
//! flow to start. The reference keeps every flow's state for the whole
//! run, so the same comparison shows that an ACK or timer still queued
//! for a completed flow never reaches the flow that took its slot.

use std::any::Any;
use std::collections::VecDeque;

use proptest::prelude::*;

use fancy_sim::{
    FlowId, GrayFailure, Kernel, LinkConfig, Network, Node, PacketBuilder, PacketKind, PacketRef,
    PortId, SimDuration, SimTime, TimerToken,
};
use fancy_tcp::{
    FlowAction, FlowConfig, ReceiverHost, ScheduledFlow, SenderHost, SenderStats, TcpFlow,
};

const START: u64 = 0;
const PACE: u64 = 1;
const RTO: u64 = 2;

/// The reference sender: arms eagerly, retires nothing.
struct EagerSender {
    addr: u32,
    scheduled: Vec<ScheduledFlow>,
    /// `(flow, is its pace timer armed?)`, `None` until started.
    flows: Vec<Option<(TcpFlow, bool)>>,
    stats: SenderStats,
}

impl EagerSender {
    fn new(addr: u32, scheduled: Vec<ScheduledFlow>) -> Self {
        EagerSender {
            addr,
            flows: scheduled.iter().map(|_| None).collect(),
            scheduled,
            stats: SenderStats::default(),
        }
    }

    fn transmit(&mut self, ctx: &mut Kernel, flow: FlowId, seq: u64, retx: bool) {
        let s = &self.scheduled[flow as usize];
        let kind = PacketKind::TcpData { flow, seq, retx };
        let pkt = PacketBuilder::new(self.addr, s.dst, s.cfg.pkt_size, kind).build();
        self.stats.data_packets += 1;
        self.stats.retransmissions += u64::from(retx);
        if !ctx.send(0, pkt) {
            self.stats.local_congestion_drops += 1;
        }
    }

    /// A fresh timer at the flow's deadline, whatever is already pending.
    fn arm_rto(&self, ctx: &mut Kernel, flow: FlowId) {
        if let Some((f, _)) = &self.flows[flow as usize] {
            if let Some(deadline) = f.rto_deadline {
                ctx.schedule_timer(deadline.saturating_since(ctx.now()), (flow << 2) | RTO);
            }
        }
    }

    fn pace(&mut self, ctx: &mut Kernel, flow: FlowId) {
        let Some((f, pacing)) = &mut self.flows[flow as usize] else {
            return;
        };
        *pacing = false;
        if !f.can_send_new() {
            return;
        }
        let FlowAction::Send { seq, retx } = f.send_new(ctx.now()) else {
            return;
        };
        let more = f.next_seq < f.cfg.total_packets;
        *pacing = more;
        let interval = f.cfg.pace_interval();
        self.transmit(ctx, flow, seq, retx);
        self.arm_rto(ctx, flow);
        if more {
            ctx.schedule_timer(interval, (flow << 2) | PACE);
        }
    }
}

impl Node for EagerSender {
    fn on_start(&mut self, ctx: &mut Kernel) {
        for (i, s) in self.scheduled.iter().enumerate() {
            ctx.schedule_timer(
                s.start.saturating_since(ctx.now()),
                ((i as u64) << 2) | START,
            );
        }
    }

    fn on_packet(&mut self, ctx: &mut Kernel, _port: PortId, pkt: PacketRef) {
        let PacketKind::TcpAck { flow, ack } = ctx.pkt(pkt).kind else {
            return;
        };
        let Some((f, pacing)) = &mut self.flows[flow as usize] else {
            return;
        };
        let was_done = f.done();
        let action = f.on_ack(ack, ctx.now());
        let (done, resume) = (f.done(), f.can_send_new() && !*pacing);
        if let FlowAction::Send { seq, retx } = action {
            self.transmit(ctx, flow, seq, retx);
        }
        if done {
            self.stats.completed_flows += u64::from(!was_done);
            return;
        }
        self.arm_rto(ctx, flow);
        if resume {
            self.pace(ctx, flow);
        }
    }

    fn on_timer(&mut self, ctx: &mut Kernel, t: TimerToken) {
        let (kind, flow) = (t & 3, t >> 2);
        match kind {
            START => {
                self.flows[flow as usize] =
                    Some((TcpFlow::new(self.scheduled[flow as usize].cfg), false));
                self.pace(ctx, flow);
            }
            PACE => self.pace(ctx, flow),
            _ => {
                let Some((f, _)) = &mut self.flows[flow as usize] else {
                    return;
                };
                if let FlowAction::Send { seq, retx } = f.on_rto(ctx.now()) {
                    self.transmit(ctx, flow, seq, retx);
                    self.arm_rto(ctx, flow);
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One data segment as the sender put it on the wire.
type Segment = (SimTime, FlowId, u64, bool);

/// Transparent two-port node that logs every data segment going 0 → 1,
/// and with `echo` set sends every ACK going 1 → 0 a second time, that
/// much later.
#[derive(Default)]
struct Wiretap {
    segments: Vec<Segment>,
    echo: Option<SimDuration>,
    /// ACK copies waiting for their echo timer, oldest first.
    echoes: VecDeque<fancy_sim::Packet>,
}

impl Node for Wiretap {
    fn on_packet(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
        match ctx.pkt(pkt).kind {
            PacketKind::TcpData { flow, seq, retx } => {
                self.segments.push((ctx.now(), flow, seq, retx));
            }
            PacketKind::TcpAck { .. } => {
                if let Some(delay) = self.echo {
                    self.echoes.push_back(ctx.pkt(pkt).clone());
                    ctx.schedule_timer(delay, 0);
                }
            }
            _ => {}
        }
        ctx.forward(1 - port, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Kernel, _t: TimerToken) {
        let ack = self.echoes.pop_front().expect("one echo per timer");
        ctx.send(0, ack);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What the lossy link does to data segments.
#[derive(Debug, Clone)]
enum Loss {
    None,
    /// Independent drops with this probability, all run long.
    Bernoulli(f64),
    /// Total loss from `from_ms` for `len_ms` — long enough for at least
    /// two RTO backoffs — then recovery: the first ACK after the window
    /// resets the RTO, moving the deadline *earlier* than the backed-off
    /// timer still pending.
    Blackhole {
        from_ms: u64,
        len_ms: u64,
    },
    /// No loss, but every ACK arrives a second time `echo_ms` later, and
    /// every scheduled flow gets a forged pace and RTO timer at
    /// `stale_ms`: a completed flow's late ACKs and stale timers reach
    /// the sender after later flows have taken its state slot.
    Stale {
        echo_ms: u64,
        stale_ms: u64,
    },
}

fn loss_strategy() -> impl Strategy<Value = Loss> {
    prop_oneof![
        Just(Loss::None),
        (0.01f64..0.5).prop_map(Loss::Bernoulli),
        (0u64..600).prop_map(|from_ms| Loss::Blackhole {
            from_ms,
            len_ms: 700 + from_ms % 900,
        }),
        any::<u64>().prop_map(|w| Loss::Stale {
            echo_ms: 20 + w % 380,
            stale_ms: 100 + (w >> 32) % 1_400,
        }),
    ]
}

/// Flow `i` of a set, from one random word: a log-uniform rate in
/// 4 kbps–50 Mbps, 3–200 packets, and one of eight start instants
/// 125 ms apart, so sets mix equal and distinct start times.
fn flow_from(bits: u64) -> ScheduledFlow {
    let octave = (bits % 14) as u32; // 4 kbps · 2^13.6 ≈ 50 Mbps
    let rate_bps = ((4_000u64 << octave) + (bits >> 8) % (4_000u64 << octave)).min(50_000_000);
    let cfg = FlowConfig {
        total_packets: 3 + (bits >> 40) % 198,
        ..FlowConfig::for_rate(rate_bps, 1.0)
    };
    ScheduledFlow {
        start: SimTime((bits >> 32) % 8 * 125_000_000),
        dst: 0x0A00_0001 + ((bits >> 48) as u32 & 0xFFFF),
        cfg,
    }
}

/// Everything compared between the two disciplines.
struct Outcome {
    segments: Vec<Segment>,
    flows: String,
    stats: String,
    timers_fired: u64,
}

const SENDER: usize = 0;

/// Run `sender`, whose schedule holds `n_flows` flows, under `loss`.
fn run(sender: Box<dyn Node>, n_flows: usize, loss: &Loss) -> Network {
    let mut net = Network::new(0x7C9);
    let tx = net.add_node(sender);
    let echo = match *loss {
        Loss::Stale { echo_ms, .. } => Some(SimDuration::from_millis(echo_ms)),
        _ => None,
    };
    let tap = net.add_node(Box::new(Wiretap {
        echo,
        ..Wiretap::default()
    }));
    let rx = net.add_node(Box::new(ReceiverHost::new()));
    assert_eq!(tx, SENDER);
    let cfg = LinkConfig::new(1_000_000_000, SimDuration::from_millis(5));
    net.connect(tx, tap, cfg);
    let lossy = net.connect(tap, rx, cfg);
    let ms = |t: u64| SimTime::ZERO + SimDuration::from_millis(t);
    match *loss {
        Loss::None => {}
        Loss::Bernoulli(p) => net
            .kernel
            .add_failure(lossy, tap, GrayFailure::uniform(p, ms(0))),
        Loss::Blackhole { from_ms, len_ms } => {
            let mut hole = GrayFailure::uniform(1.0, ms(from_ms));
            hole.end = ms(from_ms + len_ms);
            net.kernel.add_failure(lossy, tap, hole);
        }
        Loss::Stale { stale_ms, .. } => {
            for flow in 0..n_flows as u64 {
                for kind in [PACE, RTO] {
                    net.kernel
                        .schedule_timer_for(tx, ms(stale_ms), (flow << 2) | kind);
                }
            }
        }
    }
    net.run_until(ms(6_000));
    net
}

fn outcome_of(net: &Network, flows: String, stats: &SenderStats) -> Outcome {
    Outcome {
        segments: net.node::<Wiretap>(1).segments.clone(),
        flows,
        stats: format!("{stats:?}"),
        timers_fired: net.kernel.telemetry.timers_fired,
    }
}

fn run_real(flows: &[ScheduledFlow], loss: &Loss) -> Outcome {
    let net = run(Box::new(SenderHost::new(1, flows)), flows.len(), loss);
    let tx: &SenderHost = net.node(SENDER);
    let states: Vec<_> = tx.flows().collect();
    outcome_of(&net, format!("{states:?}"), &tx.stats)
}

/// The eager host keeps every flow it started; the real one keeps only
/// those still running, so those are what the two are compared on.
fn run_eager(flows: &[ScheduledFlow], loss: &Loss) -> Outcome {
    let net = run(
        Box::new(EagerSender::new(1, flows.to_vec())),
        flows.len(),
        loss,
    );
    let tx: &EagerSender = net.node(SENDER);
    let states: Vec<_> = (0u64..)
        .zip(&tx.flows)
        .filter_map(|(id, f)| Some((id, &f.as_ref()?.0)))
        .filter(|(_, f)| !f.done())
        .collect();
    outcome_of(&net, format!("{states:?}"), &tx.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_timer_per_flow_sends_what_eager_arming_sends(
        words in proptest::collection::vec(any::<u64>(), 1..41),
        loss in loss_strategy(),
    ) {
        let flows: Vec<ScheduledFlow> = words.iter().map(|&w| flow_from(w)).collect();
        let (real, eager) = (run_real(&flows, &loss), run_eager(&flows, &loss));
        prop_assert!(real.segments.len() >= flows.len(), "every flow sent something");
        let first_diff = (0..real.segments.len().max(eager.segments.len()))
            .find(|&i| real.segments.get(i) != eager.segments.get(i));
        prop_assert!(
            first_diff.is_none(),
            "{loss:?}, {} flows: segment {first_diff:?} differs: real {:?}, eager {:?}",
            flows.len(),
            first_diff.and_then(|i| real.segments.get(i)),
            first_diff.and_then(|i| eager.segments.get(i))
        );
        prop_assert_eq!(&real.flows, &eager.flows);
        prop_assert_eq!(&real.stats, &eager.stats);
        prop_assert!(
            real.timers_fired < eager.timers_fired,
            "timers fired: real {} vs eager {}",
            real.timers_fired,
            eager.timers_fired
        );
    }
}

/// The case the generator is built to reach, pinned: a blackhole long
/// enough for two backoffs, then recovery. The model has no SACK, so each
/// segment lost in the window is then recovered by its own timeout — one
/// initial RTO after the ACK for the one before it, each deadline *earlier*
/// than the backed-off timer still pending.
#[test]
fn blackhole_then_recovery_moves_the_deadline_earlier() {
    let flows: Vec<ScheduledFlow> = (0..5u64)
        .map(|i| ScheduledFlow {
            start: SimTime(i % 2 * 125_000_000),
            dst: 0x0A00_0001 + i as u32,
            cfg: FlowConfig {
                total_packets: 400,
                ..FlowConfig::for_rate(3_000_000, 1.0)
            },
        })
        .collect();
    let loss = Loss::Blackhole {
        from_ms: 300,
        len_ms: 800,
    };
    let (real, eager) = (run_real(&flows, &loss), run_eager(&flows, &loss));
    assert_eq!(real.segments, eager.segments);
    assert_eq!(real.flows, eager.flows);
    assert_eq!(real.stats, eager.stats);
    assert!(real.timers_fired < eager.timers_fired);
    for flow in 0..5 {
        // No ACKs come back through a blackhole: every retransmission
        // from its start on is a timeout, not a fast retransmit.
        let timeouts: Vec<u64> = real
            .segments
            .iter()
            .filter(|s| s.1 == flow && s.3 && s.0 > SimTime(300_000_000))
            .map(|s| s.0.as_nanos() / 1_000_000)
            .collect();
        let gaps: Vec<u64> = timeouts.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.len() > 3 && gaps[0] == 400 && gaps[1] == 800,
            "flow {flow}: two backoffs in the window, timeouts at {timeouts:?} ms"
        );
        assert!(
            gaps[2..].iter().all(|&g| (200..300).contains(&g)),
            "flow {flow}: after recovery each timeout is one reset RTO after \
             the last ACK, not the backed-off 1.6 s: {timeouts:?} ms"
        );
    }
}

/// Slot reuse, pinned: three waves of five flows, each wave starting
/// after the one before has completed, so each takes the slots the last
/// one gave back. Every ACK is echoed 120 ms later and every flow gets
/// a forged pace and RTO timer at 300 ms, so a completed flow's late
/// ACKs (≈ 140 ms and ≈ 265 ms), its own RTO timer left pending at
/// completion (≈ 200 ms and ≈ 325 ms) and the forged timers all reach
/// the sender while a later wave holds its slot.
#[test]
fn late_acks_and_stale_timers_of_completed_flows_miss_the_next_occupant() {
    let wave = |start_ms: u64, rate_bps: u64, total_packets: u64| {
        (0..5u32).map(move |i| ScheduledFlow {
            start: SimTime::ZERO + SimDuration::from_millis(start_ms),
            dst: 0x0A00_0001 + i,
            cfg: FlowConfig {
                rate_bps,
                total_packets,
                pkt_size: 1500,
                initial_rto: fancy_tcp::DEFAULT_RTO,
            },
        })
    };
    // Three packets in 2 ms, acknowledged one 20 ms RTT later; then 40
    // packets at 10 ms spacing, running until about 600 ms.
    let flows: Vec<ScheduledFlow> = wave(0, 12_000_000, 3)
        .chain(wave(125, 12_000_000, 3))
        .chain(wave(190, 1_200_000, 40))
        .collect();
    let loss = Loss::Stale {
        echo_ms: 120,
        stale_ms: 300,
    };
    let (real, eager) = (run_real(&flows, &loss), run_eager(&flows, &loss));
    assert_eq!(real.segments, eager.segments);
    assert_eq!(real.flows, eager.flows);
    assert_eq!(real.stats, eager.stats);
    assert!(real.timers_fired < eager.timers_fired);
    // Every flow completed, none retransmitted: nothing stale reached a
    // running flow.
    assert_eq!(real.flows, "[]");
    assert!(real
        .stats
        .contains("retransmissions: 0, completed_flows: 15"));
    assert_eq!(real.segments.len(), 2 * 5 * 3 + 5 * 40);
}
