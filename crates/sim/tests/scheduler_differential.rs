//! Differential test: the event queue vs one reference BinaryHeap.
//!
//! The [`fancy_sim::event::EventQueue`] keeps arrivals and timers in
//! two `(time, seq)` heaps that share one insertion counter and merges
//! them on pop; arrivals pushed on a per-link *channel* wait behind the
//! channel's head, which alone sits in the arrival heap, unless they are
//! earlier than the channel's tail (then they take the plain heap). Its
//! one contract is that the *observable* pop sequence is ascending
//! `(time, insertion seq)` over everything pushed, and that `len()` and
//! `pending_timers()` count what is pending. This file is the
//! reference-order gate for that contract: it checks it differentially
//! against the simplest possible model — one binary heap keyed on
//! `(time, global push index)` — under adversarial schedules: duplicate
//! timestamps, timer/arrival interleavings, pops interleaved with pushes
//! (including pushes at already-popped times), far-future timers (e.g.
//! 200 ms RTOs), per-channel monotone runs with ties inside and across
//! channels, out-of-order channel pushes, and channels that drain to
//! idle and fill again.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use fancy_sim::event::{ChannelId, Event, EventQueue};
use fancy_sim::packet::{PacketBuilder, PacketKind};
use fancy_sim::pool::PacketPool;
use fancy_sim::time::SimTime;

/// Channels the channel arm opens; channel `c` delivers to node
/// `CHANNEL_NODE + c`, port `c`.
const CHANNELS: usize = 4;
const CHANNEL_NODE: usize = 1_000;

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Push a timer at this absolute nanosecond time.
    Timer(u64),
    /// Push a plain-lane arrival at this absolute nanosecond time.
    Arrival(u64),
    /// Push an arrival on channel `chan`, `step` ns after the channel's
    /// previous push (0 is a tie inside the channel).
    Channel { chan: usize, step: u64 },
    /// Push an arrival on channel `chan`, `back + 1` ns before the
    /// channel's previous push: out of order, so it must not wait in the
    /// channel.
    Reorder { chan: usize, back: u64 },
    /// Pop once from both queues and compare.
    Pop,
}

/// Times deliberately collide (tiny range), spread over a few
/// milliseconds (link delays, pacing), or land far out (200 ms is an
/// RTO-scale timer).
fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..50,                    // heavy duplicates
        0u64..5_000_000,             // link-delay scale
        190_000_000u64..210_000_000, // RTO scale
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        time_strategy().prop_map(Op::Timer),
        time_strategy().prop_map(Op::Arrival),
        Just(Op::Pop),
    ]
}

/// Channel runs start together at 0 and advance in small steps, so
/// arrivals tie inside a channel (step 0) and across channels (equal
/// running sums); pops are frequent enough to drain channels to idle.
/// Channel pushes and pops are listed several times to weigh the union.
fn channel_op_strategy() -> impl Strategy<Value = Op> {
    let channel = || (0u64..1 << 24).prop_map(|x| channel_op(x, x >> 4));
    prop_oneof![
        time_strategy().prop_map(Op::Timer),
        (0u64..60).prop_map(Op::Arrival),
        channel(),
        channel(),
        channel(),
        (0u64..1 << 12).prop_map(|x| Op::Reorder {
            chan: (x % CHANNELS as u64) as usize,
            back: x / CHANNELS as u64 % 30,
        }),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// A channel push decoded from `x`: the channel from its low bits, a
/// step that is a tie, tiny, small or link-delay sized from `v`.
fn channel_op(x: u64, v: u64) -> Op {
    let chan = (x % CHANNELS as u64) as usize;
    let step = match x / CHANNELS as u64 % 4 {
        0 => 0,
        1 => 1 + v % 3,
        2 => v % 40,
        _ => 1_000 + v % 2_000_000,
    };
    Op::Channel { chan, step }
}

/// What the reference model predicts for one queue entry. The `u64` is
/// the op index the entry was created by, so identity — not just
/// ordering — is compared; an arrival also carries where it lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Timer(u64),
    Arrival { op: u64, node: usize, port: usize },
}

struct Harness {
    queue: EventQueue,
    pool: PacketPool,
    /// Reference: min-heap on (time, global insertion seq).
    model: BinaryHeap<Reverse<(SimTime, u64, Kind)>>,
    seq: u64,
    model_timers: usize,
    channels: Vec<ChannelId>,
    /// Time of each channel's previous push.
    tails: Vec<u64>,
}

impl Harness {
    fn new() -> Self {
        let mut queue = EventQueue::new();
        let channels = (0..CHANNELS)
            .map(|c| queue.open_channel(CHANNEL_NODE + c, c))
            .collect();
        Harness {
            queue,
            pool: PacketPool::new(),
            model: BinaryHeap::new(),
            seq: 0,
            model_timers: 0,
            channels,
            tails: vec![0; CHANNELS],
        }
    }

    fn expect(&mut self, at: u64, kind: Kind) {
        self.model.push(Reverse((SimTime(at), self.seq, kind)));
        self.seq += 1;
    }

    /// A pooled packet whose sequence number is the op index, so a
    /// popped arrival names the op that pushed it.
    fn packet(&mut self, i: u64) -> fancy_sim::pool::PacketRef {
        let mut pkt = PacketBuilder::new(1, 2, 64, PacketKind::Udp { flow: 0, seq: i }).build();
        pkt.uid = i + 1; // the pool rejects unstamped packets
        self.pool.insert(pkt)
    }

    fn push_on(&mut self, i: u64, chan: usize, at: u64) {
        let r = self.packet(i);
        self.queue
            .push_arrival_on(SimTime(at), self.channels[chan], r);
        let (node, port) = (CHANNEL_NODE + chan, chan);
        self.expect(at, Kind::Arrival { op: i, node, port });
    }

    fn apply(&mut self, i: u64, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Timer(t) => {
                self.queue.push_timer(SimTime(t), i as usize, i);
                self.expect(t, Kind::Timer(i));
                self.model_timers += 1;
            }
            Op::Arrival(t) => {
                let r = self.packet(i);
                self.queue.push_arrival(SimTime(t), i as usize, 0, r);
                let kind = Kind::Arrival {
                    op: i,
                    node: i as usize,
                    port: 0,
                };
                self.expect(t, kind);
            }
            Op::Channel { chan, step } => {
                let at = self.tails[chan] + step;
                self.tails[chan] = at;
                self.push_on(i, chan, at);
            }
            Op::Reorder { chan, back } => {
                // Earlier than the channel's tail; the tail stays put, so
                // later in-order pushes still follow the true tail.
                let at = self.tails[chan].saturating_sub(back + 1);
                self.push_on(i, chan, at);
            }
            Op::Pop => {
                let expected = self.model.pop().map(|Reverse((at, _, kind))| (at, kind));
                if let Some((_, Kind::Timer(_))) = expected {
                    self.model_timers -= 1;
                }
                let got = self.pop_queue();
                prop_assert_eq!(got, expected, "divergence at op {}", i);
            }
        }
        prop_assert_eq!(self.queue.len(), self.model.len(), "len after op {}", i);
        prop_assert_eq!(
            self.queue.pending_timers(),
            self.model_timers,
            "pending_timers after op {}",
            i
        );
        Ok(())
    }

    fn pop_queue(&mut self) -> Option<(SimTime, Kind)> {
        let (at, ev) = self.queue.pop()?;
        let kind = match ev {
            Event::Timer { node, .. } => Kind::Timer(node as u64),
            Event::Arrival { node, port, pkt } => {
                // Also catches double delivery: a stale ref panics.
                let op = match self.pool.remove(pkt).kind {
                    PacketKind::Udp { seq, .. } => seq,
                    other => panic!("unexpected packet kind {other:?}"),
                };
                Kind::Arrival { op, node, port }
            }
        };
        Some((at, kind))
    }

    /// Drain both to the end: every remaining entry must match too.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        loop {
            let expected = self.model.pop().map(|Reverse((at, _, kind))| (at, kind));
            let got = self.pop_queue();
            prop_assert_eq!(got, expected);
            if expected.is_none() {
                break;
            }
        }
        prop_assert_eq!(self.queue.len(), 0);
        prop_assert!(self.queue.is_empty());
        prop_assert_eq!(self.queue.pending_timers(), 0);
        // Every arrival was delivered exactly once and checked back out.
        prop_assert_eq!(self.pool.live(), 0);
        Ok(())
    }
}

fn run_script(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut h = Harness::new();
    for (i, op) in ops.iter().enumerate() {
        h.apply(i as u64, op)?;
    }
    h.drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The queue pops the exact same (time, identity) sequence as the
    /// reference heap for arbitrary push/pop interleavings.
    #[test]
    fn queue_matches_reference_heap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        run_script(&ops)?;
    }

    /// All-duplicate timestamps: ordering degenerates to pure insertion
    /// order across the two lanes.
    #[test]
    fn duplicate_timestamps_preserve_insertion_order(
        n in 1usize..200,
        t in 0u64..100,
        pops in 0usize..50,
    ) {
        let mut ops: Vec<Op> = (0..n)
            .map(|i| if i % 2 == 0 { Op::Timer(t) } else { Op::Arrival(t) })
            .collect();
        for _ in 0..pops {
            ops.push(Op::Pop);
        }
        run_script(&ops)?;
    }

    /// Channel arm: per-channel monotone runs (ties inside and across
    /// channels), out-of-order channel pushes, plain arrivals, timers and
    /// pops, in any interleaving.
    #[test]
    fn channels_match_reference_heap(
        ops in proptest::collection::vec(channel_op_strategy(), 1..400),
    ) {
        run_script(&ops)?;
    }

    /// Channels go idle → busy → idle: each round fills some channels
    /// (ties and tiny steps, a timer now and then), pops everything
    /// pending so they drain to idle, and the next round starts them
    /// again, the first one earlier than its old tail.
    #[test]
    fn channels_drain_to_idle_and_fill_again(
        rounds in proptest::collection::vec(proptest::collection::vec(0u64..1 << 8, 1..12), 1..8),
    ) {
        let mut ops = Vec::new();
        for round in &rounds {
            for &x in round {
                ops.push(channel_op(x % (2 * CHANNELS as u64), 0));
                if x & 1 << 7 != 0 {
                    ops.push(Op::Timer(x % 3));
                }
            }
            // Drains this round and the two pushes left from the last.
            ops.resize(ops.len() + 2 * round.len() + 2, Op::Pop);
            // An idle channel accepts any time, even below its old tail.
            ops.push(Op::Arrival(0));
            let chan = (round[0] % CHANNELS as u64) as usize;
            ops.push(Op::Reorder { chan, back: 0 });
        }
        run_script(&ops)?;
    }
}
