//! The discrete-event scheduler: two binary heaps keyed on `(time, seq)`,
//! and one arrival FIFO per directed link feeding the arrival heap.
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
//!
//! Arrivals pushed on a directed link's *channel* arrive already sorted
//! (the serializer never runs backwards, the delay is constant, `seq`
//! only grows), so only each busy channel's head sits in the arrival
//! heap and the rest wait behind it in one shared arena; a push earlier
//! than its channel's tail takes the plain heap instead, so the pop
//! order is still exactly `(time, seq)`.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::pool::PacketRef;
use crate::time::SimTime;

/// Node index within a [`crate::network::Network`].
pub type NodeId = usize;

/// Port index local to a node (assigned in connection order).
pub type PortId = usize;

/// Opaque timer token; its meaning is private to the node that set it.
pub type TimerToken = u64;

/// Index of a directed link's arrival channel: `2·link + dir`, opened
/// by the kernel as it connects links ([`EventQueue::open_channel`]).
pub type ChannelId = usize;

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

/// A heap entry. `key` packs `(time, seq)` into one `u128`, whose
/// integer order is exactly that lexicographic order: a comparison is
/// one wide compare, with no branch on equal times.
struct Entry<T> {
    key: u128,
    item: T,
}

#[inline]
fn key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

impl<T> Entry<T> {
    #[inline]
    fn new(at: SimTime, seq: u64, item: T) -> Self {
        Entry {
            key: key(at, seq),
            item,
        }
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        other.key.cmp(&self.key)
    }
}

/// Node/port indices are stored as `u32` so an arrival entry is 32
/// bytes: heap sifts move less memory. Four billion nodes is far beyond
/// any simulated topology (debug-asserted on push). A channel's head
/// carries [`CHANNEL`] as its node and the channel index as its port;
/// the real node/port are the channel's.
#[derive(Clone, Copy)]
struct ArrivalItem {
    node: u32,
    port: u32,
    pkt: PacketRef,
}

/// `ArrivalItem::node` of a channel head.
const CHANNEL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct TimerItem {
    node: u32,
    token: TimerToken,
}

/// `Channel::first` of a channel with nothing in the heap.
const IDLE: u32 = u32::MAX;
/// End of an arena list: `Queued::next` of a channel's last arrival,
/// `Channel::first` of a channel whose head has nothing behind it, and
/// the empty free list.
const NIL: u32 = u32::MAX - 1;

/// One directed link's arrivals: 24 bytes, and a pop reads its
/// receiving node/port from the record it updates anyway. Busy
/// (`first != IDLE`): its head is in the arrival heap and
/// `first..=last` is the arena list behind it.
#[derive(Clone, Copy)]
struct Channel {
    /// Time of the last arrival filed in this channel; `ZERO` while idle.
    tail: SimTime,
    first: u32,
    last: u32,
    node: u32,
    port: u32,
}

/// An arrival waiting behind its channel's head, in the shared arena.
#[derive(Clone, Copy)]
struct Queued {
    key: u128,
    pkt: PacketRef,
    next: u32,
}

/// Pushes and pops per lane, for [`EventQueue::audit`]. Debug builds
/// only; never exported.
#[cfg(debug_assertions)]
#[derive(Default)]
struct LaneCounts {
    arrivals_pushed: u64,
    arrivals_popped: u64,
    timers_pushed: u64,
    timers_popped: u64,
}

/// Priority queue of pending events: two typed heap lanes (arrivals,
/// timers) merged on pop by a shared `(time, seq)` order, the arrival
/// lane fed by per-link channels.
pub struct EventQueue {
    /// Channel heads and plain arrivals.
    arrivals: BinaryHeap<Entry<ArrivalItem>>,
    timers: BinaryHeap<Entry<TimerItem>>,
    /// Global insertion sequence, shared by both lanes so the merged
    /// order is exactly the single-queue insertion order.
    seq: u64,
    channels: Vec<Channel>,
    /// Arrivals queued behind channel heads; freed slots form a list
    /// from `free`.
    arena: Vec<Queued>,
    free: u32,
    /// Arrivals in the arena lists (pending but not in the heap).
    queued: usize,
    #[cfg(debug_assertions)]
    counts: LaneCounts,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        EventQueue {
            arrivals: BinaryHeap::new(),
            timers: BinaryHeap::new(),
            seq: 0,
            channels: Vec::new(),
            arena: Vec::new(),
            free: NIL,
            queued: 0,
            #[cfg(debug_assertions)]
            counts: LaneCounts::default(),
        }
    }

    /// Open the next channel: arrivals at `node` on `port` that are
    /// pushed in `(time, seq)` order, as one directed link's are.
    pub fn open_channel(&mut self, node: NodeId, port: PortId) -> ChannelId {
        debug_assert!(node < CHANNEL as usize && port <= u32::MAX as usize);
        if self.channels.len() == self.channels.capacity() {
            // Links are connected one by one while a network is built:
            // one allocation covers a small network's channels.
            self.channels.reserve(self.channels.len().max(16));
        }
        self.channels.push(Channel {
            tail: SimTime::ZERO,
            first: IDLE,
            last: NIL,
            node: node as u32,
            port: port as u32,
        });
        self.channels.len() - 1
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

    /// Schedule a packet arrival at absolute time `at` on the plain lane,
    /// outside any channel.
    #[inline]
    pub fn push_arrival(&mut self, at: SimTime, node: NodeId, port: PortId, pkt: PacketRef) {
        debug_assert!(node < CHANNEL as usize && port <= u32::MAX as usize);
        #[cfg(debug_assertions)]
        {
            self.counts.arrivals_pushed += 1;
        }
        let seq = self.next_seq();
        let item = ArrivalItem {
            node: node as u32,
            port: port as u32,
            pkt,
        };
        self.arrivals.push(Entry::new(at, seq, item));
    }

    /// Schedule a packet arrival at absolute time `at` on channel `chan`.
    /// At or after the channel's tail it is filed behind the channel's
    /// head without sorting; earlier (a reordered packet) it takes the
    /// plain lane.
    #[inline(always)]
    pub fn push_arrival_on(&mut self, at: SimTime, chan: ChannelId, pkt: PacketRef) {
        #[cfg(debug_assertions)]
        {
            self.counts.arrivals_pushed += 1;
        }
        let seq = self.next_seq();
        let ch = &mut self.channels[chan];
        let item = if at >= ch.tail {
            ch.tail = at;
            if ch.first != IDLE {
                let slot = Queued {
                    key: key(at, seq),
                    pkt,
                    next: NIL,
                };
                let s = if self.free == NIL {
                    debug_assert!(self.arena.len() < NIL as usize);
                    self.arena.push(slot);
                    (self.arena.len() - 1) as u32
                } else {
                    let s = self.free;
                    self.free = self.arena[s as usize].next;
                    self.arena[s as usize] = slot;
                    s
                };
                if ch.first == NIL {
                    ch.first = s;
                } else {
                    self.arena[ch.last as usize].next = s;
                }
                ch.last = s;
                self.queued += 1;
                return;
            }
            ch.first = NIL;
            ArrivalItem {
                node: CHANNEL,
                port: chan as u32,
                pkt,
            }
        } else {
            ArrivalItem {
                node: ch.node,
                port: ch.port,
                pkt,
            }
        };
        self.arrivals.push(Entry::new(at, seq, item));
    }

    /// Schedule a timer at absolute time `at`.
    #[inline]
    pub fn push_timer(&mut self, at: SimTime, node: NodeId, token: TimerToken) {
        debug_assert!(node <= u32::MAX as usize);
        #[cfg(debug_assertions)]
        {
            self.counts.timers_pushed += 1;
        }
        let seq = self.next_seq();
        let item = TimerItem {
            node: node as u32,
            token,
        };
        self.timers.push(Entry::new(at, seq, item));
    }

    /// `(time, is it an arrival)` of the earlier of the two lane heads.
    /// Sequences are globally unique, so the heads never tie.
    #[inline]
    fn head(&self) -> Option<(SimTime, bool)> {
        let a = self.arrivals.peek().map(|e| e.key);
        let t = self.timers.peek().map(|e| e.key);
        let (key, is_arrival) = match (a, t) {
            (None, None) => return None,
            (Some(a), None) => (a, true),
            (None, Some(t)) => (t, false),
            (Some(a), Some(t)) => (a.min(t), a < t),
        };
        Some((SimTime((key >> 64) as u64), is_arrival))
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_until(SimTime::FAR_FUTURE)
    }

    /// Pop the earliest event if it is at or before `until`; `None`
    /// otherwise (the event stays queued). This is the dispatch loop's
    /// single entry point.
    #[inline(always)]
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, Event)> {
        let (at, is_arrival) = self.head()?;
        if at > until {
            return None;
        }
        let event = if is_arrival {
            self.pop_arrival()
        } else {
            #[cfg(debug_assertions)]
            {
                self.counts.timers_popped += 1;
            }
            let item = self.timers.pop().expect("peeked lane head vanished").item;
            Event::Timer {
                node: item.node as NodeId,
                token: item.token,
            }
        };
        Some((at, event))
    }

    /// Pop the arrival heap's top. A channel head is replaced in place
    /// by the arrival behind it (one sift-down), or leaves the heap and
    /// idles its channel when there is none.
    #[inline(always)]
    fn pop_arrival(&mut self) -> Event {
        #[cfg(debug_assertions)]
        {
            self.counts.arrivals_popped += 1;
        }
        let mut top = self.arrivals.peek_mut().expect("peeked lane head vanished");
        let item = top.item;
        if item.node != CHANNEL {
            PeekMut::pop(top);
            return Event::Arrival {
                node: item.node as NodeId,
                port: item.port as PortId,
                pkt: item.pkt,
            };
        }
        let chan = item.port as usize;
        let ch = &mut self.channels[chan];
        let (node, port) = (ch.node, ch.port);
        if ch.first == NIL {
            PeekMut::pop(top);
            ch.first = IDLE;
            ch.tail = SimTime::ZERO;
        } else {
            let s = ch.first as usize;
            let next = self.arena[s];
            ch.first = next.next;
            self.arena[s].next = self.free;
            self.free = s as u32;
            self.queued -= 1;
            top.key = next.key;
            top.item.pkt = next.pkt;
        }
        Event::Arrival {
            node: node as NodeId,
            port: port as PortId,
            pkt: item.pkt,
        }
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

    /// Number of pending events, queued-behind arrivals included.
    pub fn len(&self) -> usize {
        self.arrivals.len() + self.queued + self.timers.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Conservation audit, recounted from the structures themselves:
    /// arrivals pushed = popped + channel heads + queued behind + plain,
    /// and timers pushed = fired + pending.
    ///
    /// # Panics
    /// Panics when either identity fails.
    #[cfg(debug_assertions)]
    pub(crate) fn audit(&self) {
        let heads = self.channels.iter().filter(|c| c.first != IDLE).count();
        let in_heap = self.arrivals.iter().filter(|e| e.item.node == CHANNEL);
        assert_eq!(in_heap.count(), heads, "queue audit: channel heads");
        let mut behind = 0;
        for c in self.channels.iter().filter(|c| c.first != IDLE) {
            let mut s = c.first;
            while s != NIL {
                behind += 1;
                s = self.arena[s as usize].next;
            }
        }
        assert_eq!(behind, self.queued, "queue audit: queued behind heads");
        let plain = self.arrivals.len() - heads;
        let c = &self.counts;
        assert_eq!(
            c.arrivals_pushed,
            c.arrivals_popped + (heads + behind + plain) as u64,
            "queue audit: arrivals pushed != popped + pending"
        );
        assert_eq!(
            c.timers_pushed,
            c.timers_popped + self.timers.len() as u64,
            "queue audit: timers pushed != fired + pending"
        );
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

    #[test]
    fn a_busy_channel_keeps_only_its_head_in_the_heap() {
        let mut q = EventQueue::new();
        let c = q.open_channel(7, 3);
        for i in 0..5 {
            q.push_arrival_on(SimTime(100 + 10 * i), c, dummy_ref(i as u32));
        }
        q.push_timer(SimTime(125), 0, 99);
        assert_eq!((q.arrivals.len(), q.queued, q.len()), (1, 4, 6));
        assert_eq!(drain_tokens(&mut q), vec![0, 1, 2, 99, 3, 4]);
        assert_eq!((q.arrivals.len(), q.queued), (0, 0));
        assert_eq!(q.channels[c].first, IDLE);
    }

    #[test]
    fn channel_arrivals_land_on_the_channel_ends() {
        let mut q = EventQueue::new();
        let _ = q.open_channel(1, 0);
        let c = q.open_channel(4, 2);
        q.push_arrival_on(SimTime(5), c, dummy_ref(8));
        q.push_arrival_on(SimTime(5), c, dummy_ref(9)); // a tie: behind
        let ends = |q: &mut EventQueue| match q.pop() {
            Some((_, Event::Arrival { node, port, pkt })) => (node, port, pkt.index()),
            other => panic!("expected an arrival, got {other:?}"),
        };
        assert_eq!(ends(&mut q), (4, 2, 8));
        assert_eq!(ends(&mut q), (4, 2, 9));
        assert!(q.is_empty());
    }

    #[test]
    fn an_earlier_push_takes_the_plain_lane_and_still_sorts() {
        let mut q = EventQueue::new();
        let c = q.open_channel(0, 0);
        q.push_arrival_on(SimTime(50), c, dummy_ref(2));
        q.push_arrival_on(SimTime(60), c, dummy_ref(3));
        // A reordered packet: earlier than the tail, so it is sorted by
        // the heap instead of waiting behind the 60 ns arrival.
        q.push_arrival_on(SimTime(40), c, dummy_ref(1));
        assert_eq!((q.arrivals.len(), q.queued), (2, 1));
        // The tail stays at 60: the next in-order push queues behind it.
        q.push_arrival_on(SimTime(70), c, dummy_ref(4));
        assert_eq!((q.arrivals.len(), q.queued), (2, 2));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3, 4]);
    }

    #[test]
    fn a_drained_channel_is_idle_and_accepts_any_time() {
        let mut q = EventQueue::new();
        let c = q.open_channel(0, 0);
        q.push_arrival_on(SimTime(1_000), c, dummy_ref(1));
        q.push_arrival_on(SimTime(2_000), c, dummy_ref(2));
        assert_eq!(drain_tokens(&mut q), vec![1, 2]);
        // Idle again: an arrival before the old tail is the new head.
        q.push_arrival_on(SimTime(10), c, dummy_ref(3));
        q.push_arrival_on(SimTime(20), c, dummy_ref(4));
        assert_eq!((q.arrivals.len(), q.queued), (1, 1));
        assert_eq!(drain_tokens(&mut q), vec![3, 4]);
        // The arena slot freed by the first run was reused.
        assert_eq!(q.arena.len(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn audit_recounts_every_lane() {
        let mut q = EventQueue::new();
        let (a, b) = (q.open_channel(0, 0), q.open_channel(1, 0));
        for i in 0..6u32 {
            q.push_arrival_on(SimTime(u64::from(i) * 10), a, dummy_ref(i));
        }
        q.push_arrival_on(SimTime(5), b, dummy_ref(10));
        q.push_arrival_on(SimTime(1), b, dummy_ref(11)); // plain lane
        q.push_arrival(SimTime(3), 2, 0, dummy_ref(12));
        q.push_timer(SimTime(4), 0, 13);
        q.audit();
        for _ in 0..5 {
            q.pop();
            q.audit();
        }
        assert_eq!(q.len(), 5);
        while q.pop().is_some() {}
        q.audit();
    }
}
