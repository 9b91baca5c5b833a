//! Differential test: two-lane scheduler vs one reference BinaryHeap.
//!
//! The [`fancy_sim::event::EventQueue`] keeps arrivals and timers in
//! two `(time, seq)` heaps that share one insertion counter and merges
//! them on pop. Its one contract is that the *observable* pop sequence
//! is ascending `(time, insertion seq)` over both lanes. This file is
//! the reference-order gate for that contract: it checks it
//! differentially against the simplest possible model — one binary heap
//! keyed on `(time, global push index)` — under adversarial schedules:
//! duplicate timestamps, timer/arrival interleavings, pops interleaved
//! with pushes (including pushes at already-popped times), and
//! far-future timers (e.g. 200 ms RTOs).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use fancy_sim::event::{Event, EventQueue};
use fancy_sim::packet::{PacketBuilder, PacketKind};
use fancy_sim::pool::PacketPool;
use fancy_sim::time::SimTime;

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Push a timer at this absolute nanosecond time.
    Timer(u64),
    /// Push an arrival at this absolute nanosecond time.
    Arrival(u64),
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

/// What the reference model predicts for one queue entry. The `u64` is
/// the op index the entry was created by, so identity — not just
/// ordering — is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Timer(u64),
    Arrival(u64),
}

fn run_script(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut queue = EventQueue::new();
    let mut pool = PacketPool::new();
    // Reference: min-heap on (time, global insertion seq).
    let mut model: BinaryHeap<Reverse<(SimTime, u64, Kind)>> = BinaryHeap::new();
    let mut seq = 0u64;

    for (i, op) in ops.iter().enumerate() {
        let i = i as u64;
        match *op {
            Op::Timer(t) => {
                queue.push_timer(SimTime(t), i as usize, i);
                model.push(Reverse((SimTime(t), seq, Kind::Timer(i))));
                seq += 1;
            }
            Op::Arrival(t) => {
                let mut pkt =
                    PacketBuilder::new(1, 2, 64, PacketKind::Udp { flow: 0, seq: i }).build();
                pkt.uid = i + 1; // the pool rejects unstamped packets
                let r = pool.insert(pkt);
                queue.push_arrival(SimTime(t), i as usize, 0, r);
                model.push(Reverse((SimTime(t), seq, Kind::Arrival(i))));
                seq += 1;
            }
            Op::Pop => {
                let expected = model.pop().map(|Reverse((at, _, kind))| (at, kind));
                let got = queue.pop().map(|(at, ev)| {
                    let kind = match ev {
                        Event::Timer { node, .. } => Kind::Timer(node as u64),
                        Event::Arrival { node, pkt, .. } => {
                            pool.remove(pkt); // also catches double-delivery
                            Kind::Arrival(node as u64)
                        }
                    };
                    (at, kind)
                });
                prop_assert_eq!(got, expected, "divergence at op {}", i);
            }
        }
    }

    // Drain both to the end: every remaining entry must match too.
    loop {
        let expected = model.pop().map(|Reverse((at, _, kind))| (at, kind));
        let got = queue.pop().map(|(at, ev)| {
            let kind = match ev {
                Event::Timer { node, .. } => Kind::Timer(node as u64),
                Event::Arrival { node, pkt, .. } => {
                    pool.remove(pkt);
                    Kind::Arrival(node as u64)
                }
            };
            (at, kind)
        });
        prop_assert_eq!(got, expected);
        if expected.is_none() {
            break;
        }
    }
    prop_assert_eq!(queue.len(), 0);
    prop_assert!(queue.is_empty());
    // Every arrival was delivered exactly once and checked back out.
    prop_assert_eq!(pool.live(), 0);
    Ok(())
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
}
