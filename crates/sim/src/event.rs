//! The discrete-event scheduler: two binary heaps keyed on `(time, seq)`.
//!
//! Events are totally ordered by `(time, insertion sequence)` — the
//! sequence tie-break makes event ordering, and therefore whole
//! experiments, fully deterministic. The heap key *is* that total
//! order, so there is nothing further to argue.
//!
//! Timers and packet arrivals live in separate, identically-ordered
//! *lanes* sharing one global sequence counter; a pop compares the two
//! lane heads by `(time, seq)`. This gives telemetry its pending-timer
//! count for free — it is the timer lane's length — and keeps each
//! lane's entries as small as its payload allows. A differential
//! property test (`tests/scheduler_differential.rs`) checks the merged
//! pop sequence against one heap keyed on the global push index.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::pool::PacketRef;
use crate::time::SimTime;

/// Node index within a [`crate::network::Network`].
pub type NodeId = usize;

/// Port index local to a node (assigned in connection order).
pub type PortId = usize;

/// Opaque timer token; its meaning is private to the node that set it.
pub type TimerToken = u64;

/// A scheduled simulation event. 8-byte packet refs (not packets) ride
/// the queue, so `Event` is small and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A packet arrives at `node` on `port`.
    Arrival {
        /// Receiving node.
        node: NodeId,
        /// Ingress port at the receiving node.
        port: PortId,
        /// Handle to the packet in the kernel's [`crate::pool::PacketPool`].
        pkt: PacketRef,
    },
    /// A timer set by `node` fires.
    Timer {
        /// Owning node.
        node: NodeId,
        /// The token the node passed when scheduling.
        token: TimerToken,
    },
}

struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest entry.
        other.key().cmp(&self.key())
    }
}

/// Node/port indices are stored as `u32` so an arrival entry is 32
/// bytes: heap sifts move less memory. Four billion nodes is far beyond
/// any simulated topology (debug-asserted on push).
#[derive(Clone, Copy)]
struct ArrivalItem {
    node: u32,
    port: u32,
    pkt: PacketRef,
}

#[derive(Clone, Copy)]
struct TimerItem {
    node: u32,
    token: TimerToken,
}

/// Priority queue of pending events: two typed heap lanes (arrivals,
/// timers) merged on pop by a shared `(time, seq)` order.
#[derive(Default)]
pub struct EventQueue {
    arrivals: BinaryHeap<Entry<ArrivalItem>>,
    timers: BinaryHeap<Entry<TimerItem>>,
    /// Global insertion sequence, shared by both lanes so the merged
    /// order is exactly the single-queue insertion order.
    seq: u64,
}

impl EventQueue {
    /// An empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        match event {
            Event::Arrival { node, port, pkt } => self.push_arrival(at, node, port, pkt),
            Event::Timer { node, token } => self.push_timer(at, node, token),
        }
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedule a packet arrival at absolute time `at`.
    #[inline]
    pub fn push_arrival(&mut self, at: SimTime, node: NodeId, port: PortId, pkt: PacketRef) {
        debug_assert!(node <= u32::MAX as usize && port <= u32::MAX as usize);
        let seq = self.next_seq();
        let item = ArrivalItem {
            node: node as u32,
            port: port as u32,
            pkt,
        };
        self.arrivals.push(Entry { at, seq, item });
    }

    /// Schedule a timer at absolute time `at`.
    #[inline]
    pub fn push_timer(&mut self, at: SimTime, node: NodeId, token: TimerToken) {
        debug_assert!(node <= u32::MAX as usize);
        let seq = self.next_seq();
        let item = TimerItem {
            node: node as u32,
            token,
        };
        self.timers.push(Entry { at, seq, item });
    }

    /// `(time, is it an arrival)` of the earlier of the two lane heads.
    /// Sequences are globally unique, so the heads never tie.
    #[inline]
    fn head(&self) -> Option<(SimTime, bool)> {
        let a = self.arrivals.peek().map(Entry::key);
        let t = self.timers.peek().map(Entry::key);
        match (a, t) {
            (None, None) => None,
            (Some(a), None) => Some((a.0, true)),
            (None, Some(t)) => Some((t.0, false)),
            (Some(a), Some(t)) => Some(if a < t { (a.0, true) } else { (t.0, false) }),
        }
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_until(SimTime::FAR_FUTURE)
    }

    /// Pop the earliest event if it is at or before `until`; `None`
    /// otherwise (the event stays queued). This is the dispatch loop's
    /// single entry point.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, Event)> {
        let (at, is_arrival) = self.head()?;
        if at > until {
            return None;
        }
        let event = if is_arrival {
            let item = self.arrivals.pop().expect("peeked lane head vanished").item;
            Event::Arrival {
                node: item.node as NodeId,
                port: item.port as PortId,
                pkt: item.pkt,
            }
        } else {
            let item = self.timers.pop().expect("peeked lane head vanished").item;
            Event::Timer {
                node: item.node as NodeId,
                token: item.token,
            }
        };
        Some((at, event))
    }

    /// Number of pending timer events — the timer lane's length; no
    /// per-event bookkeeping needed.
    pub fn pending_timers(&self) -> usize {
        self.timers.len()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.arrivals.len() + self.timers.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_ref(idx: u32) -> PacketRef {
        PacketRef { idx, gen: 0 }
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                Event::Arrival { pkt, .. } => u64::from(pkt.index()),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), Event::Timer { node: 0, token: 3 });
        q.push(SimTime(10), Event::Timer { node: 0, token: 1 });
        q.push(SimTime(20), Event::Timer { node: 0, token: 2 });
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.push(SimTime(5), Event::Timer { node: 0, token });
        }
        assert_eq!(drain_tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_by_insertion_order_across_lanes() {
        let mut q = EventQueue::new();
        // Same timestamp, alternating lanes: pops must interleave in
        // exact insertion order, not lane-by-lane.
        q.push_timer(SimTime(5), 0, 100);
        q.push_arrival(SimTime(5), 0, 0, dummy_ref(101));
        q.push_timer(SimTime(5), 0, 102);
        q.push_arrival(SimTime(5), 0, 0, dummy_ref(103));
        assert_eq!(drain_tokens(&mut q), vec![100, 101, 102, 103]);
    }

    #[test]
    fn pending_timers_tracks_timer_events_only() {
        let mut q = EventQueue::new();
        q.push(SimTime(1), Event::Timer { node: 0, token: 1 });
        q.push_arrival(SimTime(1), 0, 0, dummy_ref(9));
        q.push(SimTime(2), Event::Timer { node: 0, token: 2 });
        assert_eq!(q.pending_timers(), 2);
        assert_eq!(q.len(), 3);
        q.pop(); // timer 1 (seq 0)
        assert_eq!(q.pending_timers(), 1);
        q.pop(); // arrival
        assert_eq!(q.pending_timers(), 1);
        q.pop(); // timer 2
        assert_eq!(q.pending_timers(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(7), Event::Timer { node: 1, token: 0 });
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(7));
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_timers_sort_behind_near_arrivals_and_tie_by_seq() {
        let mut q = EventQueue::new();
        // RTO-scale timers pushed before the near arrivals, two of them
        // at the same instant, one a nanosecond either side.
        const RTO_NS: u64 = 200_000_000;
        q.push_timer(SimTime(RTO_NS), 0, 42);
        q.push_timer(SimTime(RTO_NS - 1), 0, 41);
        q.push_timer(SimTime(RTO_NS), 0, 43); // same-time tie
        q.push_timer(SimTime(RTO_NS + 1), 0, 44);
        q.push_arrival(SimTime(10_000), 0, 0, dummy_ref(1));
        q.push_arrival(SimTime(50_000_000), 0, 0, dummy_ref(2));
        assert_eq!(q.peek_time(), Some(SimTime(10_000)));
        // The tie pops in insertion order.
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 41, 42, 43, 44]);
    }

    #[test]
    fn push_at_the_popped_time_still_sorts_correctly() {
        let mut q = EventQueue::new();
        q.push_timer(SimTime(1_000_000), 0, 1);
        q.push_timer(SimTime(2_000_000), 0, 3);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(1_000_000));
        // Push at the time just popped (a node reacting at `now`): must
        // pop before the 2 ms timer.
        q.push_timer(SimTime(1_000_000), 0, 2);
        assert_eq!(drain_tokens(&mut q), vec![2, 3]);
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        // Deterministic scrambled times, popping halfway through.
        for i in 0..64u64 {
            let t = (i * 2_654_435_761) % 40_000_000;
            q.push_timer(SimTime(t), 0, t);
        }
        for _ in 0..32 {
            popped.push(q.pop().unwrap().0);
        }
        for i in 0..64u64 {
            let t = (i * 40_503) % 40_000_000;
            q.push_timer(SimTime(t), 0, t);
        }
        while let Some((t, _)) = q.pop() {
            popped.push(t);
        }
        // Every event is accounted for, and times never run backwards
        // within each popping phase; exact (time, seq) equivalence with a
        // reference heap is covered by the differential property test.
        assert_eq!(popped.len(), 128);
        assert!(popped[..32].windows(2).all(|w| w[0] <= w[1]));
        assert!(popped[32..].windows(2).all(|w| w[0] <= w[1]));
    }
}
