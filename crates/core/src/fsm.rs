//! The counting-protocol finite state machines (Fig. 3/4 of the paper).
//!
//! FANcY's counting protocol is stop-and-wait: each session is opened by
//! the upstream switch with a Start message (acknowledged by Start-ACK),
//! runs a counting phase, and is closed with Stop → Report. Start and Stop
//! are retransmitted on a `T_rtx` timeout; after `X` fruitless attempts the
//! sender declares a hard link failure. The receiver keeps counting for
//! `T_wait` after a Stop to absorb in-flight tagged packets, and remembers
//! which session it last reported so a duplicated Stop (lost Report) can
//! be answered again from its counters, frozen until the next Start.
//!
//! The FSMs here are *pure*: they hold no counters and perform no I/O.
//! Every input (message, timer) returns an [`Actions`] list of
//! [`SenderAction`]s / [`ReceiverAction`]s that the switch executes in
//! order. A transition emits at most three, so the list is an inline array
//! that derefs to a slice: stepping an FSM never allocates. Timers are
//! guarded by epochs so stale timer events are ignored — the same pattern
//! the Tofino implementation achieves with its `state_lock` register
//! (Appendix B.1).

use std::fmt;
use std::ops::Deref;

use fancy_net::ControlBody;
use fancy_sim::SimDuration;

use crate::config::TimerConfig;

/// Most actions one FSM transition emits (reset + send + arm).
const MAX_ACTIONS: usize = 3;

/// An action type an [`Actions`] list can hold.
pub trait FsmAction: Sized {
    /// Pads the unused tail of the inline array; never exposed.
    const PAD: Self;
}

/// The actions of one FSM transition, in the order the switch applies
/// them. Inline (at most three), derefs to a slice, iterates by value.
pub struct Actions<A: FsmAction> {
    items: [A; MAX_ACTIONS],
    len: usize,
}

impl<A: FsmAction> Actions<A> {
    /// No action.
    fn none() -> Self {
        Actions {
            items: [A::PAD, A::PAD, A::PAD],
            len: 0,
        }
    }

    /// The actions `items`, in order.
    fn of<const N: usize>(items: [A; N]) -> Self {
        let mut list = Actions::none();
        for a in items {
            list.push(a);
        }
        list
    }

    fn push(&mut self, a: A) {
        self.items[self.len] = a;
        self.len += 1;
    }
}

impl<A: FsmAction> Deref for Actions<A> {
    type Target = [A];
    fn deref(&self) -> &[A] {
        &self.items[..self.len]
    }
}

impl<A: FsmAction> IntoIterator for Actions<A> {
    type Item = A;
    type IntoIter = std::iter::Take<std::array::IntoIter<A, MAX_ACTIONS>>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

impl<A: FsmAction + fmt::Debug> fmt::Debug for Actions<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Sender-side protocol states (Fig. 3, left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderState {
    /// No session in progress.
    Idle,
    /// Start sent, waiting for Start-ACK.
    WaitAck,
    /// Counting phase: packets are tagged and counted.
    Counting,
    /// Stop sent, waiting for the downstream Report.
    WaitReport,
}

impl SenderState {
    /// Stable lowercase name (trace events, reports).
    pub fn name(self) -> &'static str {
        match self {
            SenderState::Idle => "idle",
            SenderState::WaitAck => "wait_ack",
            SenderState::Counting => "counting",
            SenderState::WaitReport => "wait_report",
        }
    }
}

/// What the switch must do in response to a sender-FSM transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SenderAction {
    /// Transmit a control message for the current session.
    Send(ControlBody),
    /// Zero the local counters for this session.
    ResetCounters,
    /// The counting phase begins: start tagging/counting packets.
    BeginCounting,
    /// The counting phase ends: stop tagging/counting packets.
    EndCounting,
    /// The session's Report arrived: compare the local counters against
    /// its counters (which the caller holds: it passed the message in).
    Deliver,
    /// `X` retransmissions exhausted: declare the link failed.
    LinkFailure,
    /// Arm the FSM timer. Only the most recent `epoch` is valid.
    ArmTimer {
        /// Delay from now.
        delay: SimDuration,
        /// Epoch to pass back to [`SenderFsm::on_timer`].
        epoch: u64,
    },
}

impl FsmAction for SenderAction {
    const PAD: Self = SenderAction::BeginCounting;
}

/// The upstream (sender) FSM for one counting instance.
#[derive(Debug, Clone)]
pub struct SenderFsm {
    /// Current protocol state.
    pub state: SenderState,
    /// Current session identifier.
    pub session_id: u32,
    /// Counting-phase duration for this instance (50 ms for dedicated
    /// counters, 200 ms — the zooming speed — for trees, §5).
    pub interval: SimDuration,
    timers: TimerConfig,
    retx: u32,
    epoch: u64,
    /// Sessions completed (reports delivered) — exposed for statistics.
    pub sessions_completed: u64,
    /// Link-failure declarations made.
    pub link_failures: u64,
    /// Link failures declared since the last completed session. Drives
    /// the exponential reopen backoff: a link that never answers is
    /// retried at `interval << min(n, max_backoff_shift)` instead of
    /// hammering at the base rate forever.
    pub consecutive_failures: u32,
}

impl SenderFsm {
    /// A sender FSM with the given counting interval.
    pub fn new(interval: SimDuration, timers: TimerConfig) -> Self {
        SenderFsm {
            state: SenderState::Idle,
            session_id: 0,
            interval,
            timers,
            retx: 0,
            epoch: 0,
            sessions_completed: 0,
            link_failures: 0,
            consecutive_failures: 0,
        }
    }

    fn arm(&mut self, delay: SimDuration) -> SenderAction {
        self.epoch += 1;
        SenderAction::ArmTimer {
            delay,
            epoch: self.epoch,
        }
    }

    /// Are data packets currently tagged and counted?
    #[inline]
    pub fn is_counting(&self) -> bool {
        self.state == SenderState::Counting
    }

    /// Open a new counting session. Valid from `Idle`.
    pub fn open(&mut self) -> Actions<SenderAction> {
        debug_assert_eq!(self.state, SenderState::Idle, "open() while busy");
        self.session_id = self.session_id.wrapping_add(1);
        self.retx = 0;
        self.state = SenderState::WaitAck;
        let arm = self.arm(self.timers.trtx);
        Actions::of([
            SenderAction::ResetCounters,
            SenderAction::Send(ControlBody::Start),
            arm,
        ])
    }

    /// A control message arrived from the downstream switch.
    pub fn on_message(&mut self, session_id: u32, body: &ControlBody) -> Actions<SenderAction> {
        if session_id != self.session_id {
            return Actions::none(); // stale session
        }
        match (self.state, body) {
            (SenderState::WaitAck, ControlBody::StartAck) => {
                self.state = SenderState::Counting;
                self.retx = 0;
                let arm = self.arm(self.interval);
                Actions::of([SenderAction::BeginCounting, arm])
            }
            (SenderState::WaitReport, ControlBody::Report(_)) => {
                self.state = SenderState::Idle;
                self.sessions_completed += 1;
                self.consecutive_failures = 0;
                Actions::of([SenderAction::Deliver])
            }
            _ => Actions::none(),
        }
    }

    /// The FSM timer fired. `epoch` must match the most recent
    /// [`SenderAction::ArmTimer`]; stale epochs are ignored.
    pub fn on_timer(&mut self, epoch: u64) -> Actions<SenderAction> {
        if epoch != self.epoch {
            return Actions::none();
        }
        match self.state {
            SenderState::WaitAck => self.retransmit(ControlBody::Start),
            SenderState::Counting => {
                // Counting phase over: close the session.
                self.state = SenderState::WaitReport;
                self.retx = 0;
                let arm = self.arm(self.timers.trtx);
                Actions::of([
                    SenderAction::EndCounting,
                    SenderAction::Send(ControlBody::Stop),
                    arm,
                ])
            }
            SenderState::WaitReport => self.retransmit(ControlBody::Stop),
            SenderState::Idle => {
                // Reopen timer after a declared link failure.
                self.open()
            }
        }
    }

    fn retransmit(&mut self, msg: ControlBody) -> Actions<SenderAction> {
        self.retx += 1;
        if self.retx >= self.timers.max_retx {
            // "If A does not receive responses from B after X attempts
            // (with X = 5 by default), A reports a link failure." (§4.1)
            self.state = SenderState::Idle;
            self.retx = 0;
            self.link_failures += 1;
            self.consecutive_failures = self.consecutive_failures.saturating_add(1);
            // Back the reopen delay off exponentially with consecutive
            // failures — a dead control plane is probed ever more gently
            // (capped) rather than at full session rate.
            let delay = backoff(
                self.interval,
                self.consecutive_failures,
                self.timers.max_backoff_shift,
            );
            let arm = self.arm(delay);
            Actions::of([SenderAction::LinkFailure, arm])
        } else {
            // Retransmissions within a session back off too: the k-th
            // resend waits trtx << min(k, cap).
            let delay = backoff(self.timers.trtx, self.retx, self.timers.max_backoff_shift);
            let arm = self.arm(delay);
            Actions::of([SenderAction::Send(msg), arm])
        }
    }
}

/// `base << min(n, cap)`, saturating — the shared exponential-backoff law.
fn backoff(base: SimDuration, n: u32, cap: u32) -> SimDuration {
    SimDuration::from_nanos(base.as_nanos().saturating_mul(1u64 << n.min(cap).min(63)))
}

/// Receiver-side protocol states (Fig. 3, right).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiverState {
    /// No session in progress.
    Idle,
    /// Start-ACK sent; waiting for the first tagged packet.
    Ready,
    /// Counting tagged packets.
    Counting,
    /// Stop received; counting continues for `T_wait` before reporting.
    WaitToSend,
}

impl ReceiverState {
    /// Stable lowercase name (trace events, reports).
    pub fn name(self) -> &'static str {
        match self {
            ReceiverState::Idle => "idle",
            ReceiverState::Ready => "ready",
            ReceiverState::Counting => "counting",
            ReceiverState::WaitToSend => "wait_to_send",
        }
    }
}

/// What the switch must do in response to a receiver-FSM transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiverAction {
    /// Transmit a control message for the current session.
    Send(ControlBody),
    /// Zero the local counters for the new session.
    ResetCounters,
    /// Send the local counters as the session's Report. The FSM is `Idle`
    /// afterwards and counts nothing until the next Start resets them.
    EmitReport,
    /// A duplicated Stop for `session_id`, the last session reported:
    /// our Report was lost, so send the local counters again, tagged with
    /// that session. Until the next Start they are the lost Report bit
    /// for bit; after one, the sender has moved on to a newer session and
    /// drops the reply by its id.
    ResendReport {
        /// The session the duplicated Stop closed.
        session_id: u32,
    },
    /// Arm the FSM timer (epoch-guarded, like the sender's).
    ArmTimer {
        /// Delay from now.
        delay: SimDuration,
        /// Epoch to pass back to [`ReceiverFsm::on_timer`].
        epoch: u64,
    },
}

impl FsmAction for ReceiverAction {
    const PAD: Self = ReceiverAction::ResetCounters;
}

/// The downstream (receiver) FSM for one counting instance.
#[derive(Debug, Clone)]
pub struct ReceiverFsm {
    /// Current protocol state.
    pub state: ReceiverState,
    /// Session being served.
    pub session_id: u32,
    timers: TimerConfig,
    epoch: u64,
    last_reported: Option<u32>,
}

impl ReceiverFsm {
    /// A fresh receiver FSM.
    pub fn new(timers: TimerConfig) -> Self {
        ReceiverFsm {
            state: ReceiverState::Idle,
            session_id: 0,
            timers,
            epoch: 0,
            last_reported: None,
        }
    }

    fn arm(&mut self, delay: SimDuration) -> ReceiverAction {
        self.epoch += 1;
        ReceiverAction::ArmTimer {
            delay,
            epoch: self.epoch,
        }
    }

    /// Should tagged packets be counted right now? True from the Start-ACK
    /// until `T_wait` after the Stop.
    #[inline]
    pub fn accepts_counts(&self) -> bool {
        matches!(
            self.state,
            ReceiverState::Ready | ReceiverState::Counting | ReceiverState::WaitToSend
        )
    }

    /// A control message arrived from the upstream switch.
    pub fn on_message(&mut self, session_id: u32, body: &ControlBody) -> Actions<ReceiverAction> {
        match body {
            ControlBody::Start => {
                if self.accepts_counts() && session_id == self.session_id {
                    // Duplicate Start: our ACK was lost. The sender has not
                    // started tagging (it is still in WaitAck), so resetting
                    // again is safe and keeps both sides aligned.
                    let reset = self.state == ReceiverState::Ready;
                    let mut actions = Actions::none();
                    if reset {
                        actions.push(ReceiverAction::ResetCounters);
                    }
                    actions.push(ReceiverAction::Send(ControlBody::StartAck));
                    actions
                } else if self.session_id != 0 && !session_newer(session_id, self.session_id) {
                    // Stale Start: a wire-duplicated or long-delayed Start
                    // of the current or an *older* session. Adopting it
                    // would resurrect a dead session — the receiver would
                    // reset its counters, re-ACK, and later report counts
                    // for traffic the sender never tagged under that id.
                    Actions::none()
                } else {
                    // Genuinely new session: supersedes anything in flight.
                    self.session_id = session_id;
                    self.state = ReceiverState::Ready;
                    Actions::of([
                        ReceiverAction::ResetCounters,
                        ReceiverAction::Send(ControlBody::StartAck),
                    ])
                }
            }
            ControlBody::Stop => {
                if session_id == self.session_id && self.state == ReceiverState::WaitToSend {
                    // Duplicate Stop while T_wait is already running (the
                    // sender's T_rtx raced our timer): keep the armed timer,
                    // don't postpone the report.
                    Actions::none()
                } else if session_id == self.session_id && self.accepts_counts() {
                    // "the receiver FSM transitions to the WaitToSendCounter
                    // state, where it can keep counting tagged packets for a
                    // short time interval T_wait" (§4.1)
                    self.state = ReceiverState::WaitToSend;
                    Actions::of([self.arm(self.timers.twait)])
                } else if Some(session_id) == self.last_reported {
                    // Our Report was lost; serve it again.
                    Actions::of([ReceiverAction::ResendReport { session_id }])
                } else {
                    Actions::none()
                }
            }
            _ => Actions::none(),
        }
    }

    /// A tagged packet arrived (the switch already counted it if
    /// [`Self::accepts_counts`]). Handles the Ready → Counting transition.
    pub fn on_tagged_packet(&mut self) {
        if self.state == ReceiverState::Ready {
            self.state = ReceiverState::Counting;
        }
    }

    /// The `T_wait` timer fired.
    pub fn on_timer(&mut self, epoch: u64) -> Actions<ReceiverAction> {
        if epoch != self.epoch || self.state != ReceiverState::WaitToSend {
            return Actions::none();
        }
        self.state = ReceiverState::Idle;
        self.last_reported = Some(self.session_id);
        Actions::of([ReceiverAction::EmitReport])
    }
}

/// Is session id `a` newer than `b` under wrapping u32 arithmetic?
/// (Session ids increment by one per session and may wrap.)
fn session_newer(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < u32::MAX / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timers() -> TimerConfig {
        TimerConfig::paper_default()
    }

    fn sender() -> SenderFsm {
        SenderFsm::new(SimDuration::from_millis(50), timers())
    }

    fn receiver() -> ReceiverFsm {
        ReceiverFsm::new(timers())
    }

    fn epoch_of(actions: &[SenderAction]) -> u64 {
        actions
            .iter()
            .find_map(|a| match a {
                SenderAction::ArmTimer { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .expect("no timer armed")
    }

    fn r_epoch_of(actions: &[ReceiverAction]) -> u64 {
        actions
            .iter()
            .find_map(|a| match a {
                ReceiverAction::ArmTimer { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .expect("no timer armed")
    }

    #[test]
    fn happy_path_session() {
        let mut s = sender();
        let mut r = receiver();

        // Open: reset + Start + timer.
        let a = s.open();
        assert_eq!(s.state, SenderState::WaitAck);
        assert!(a.contains(&SenderAction::ResetCounters));
        assert!(a.contains(&SenderAction::Send(ControlBody::Start)));
        let sid = s.session_id;

        // Receiver gets Start.
        let ra = r.on_message(sid, &ControlBody::Start);
        assert_eq!(r.state, ReceiverState::Ready);
        assert!(ra.contains(&ReceiverAction::ResetCounters));
        assert!(ra.contains(&ReceiverAction::Send(ControlBody::StartAck)));
        assert!(r.accepts_counts());

        // Sender gets the ACK → Counting.
        let a = s.on_message(sid, &ControlBody::StartAck);
        assert!(s.is_counting());
        assert!(a.contains(&SenderAction::BeginCounting));

        // First tagged packet moves the receiver to Counting.
        r.on_tagged_packet();
        assert_eq!(r.state, ReceiverState::Counting);

        // Counting interval elapses → Stop.
        let a = s.on_timer(epoch_of(&a));
        assert_eq!(s.state, SenderState::WaitReport);
        assert!(a.contains(&SenderAction::EndCounting));
        assert!(a.contains(&SenderAction::Send(ControlBody::Stop)));

        // Receiver gets Stop → WaitToSend, then T_wait expires → report.
        let ra = r.on_message(sid, &ControlBody::Stop);
        assert_eq!(r.state, ReceiverState::WaitToSend);
        assert!(r.accepts_counts(), "keeps counting during T_wait");
        let ra = r.on_timer(r_epoch_of(&ra));
        assert_eq!(*ra, [ReceiverAction::EmitReport]);
        assert_eq!(r.state, ReceiverState::Idle);

        // Report reaches the sender → Deliver, back to Idle.
        let a = s.on_message(sid, &ControlBody::Report(vec![42]));
        assert_eq!(*a, [SenderAction::Deliver]);
        assert_eq!(s.state, SenderState::Idle);
        assert_eq!(s.sessions_completed, 1);
    }

    #[test]
    fn lost_start_is_retransmitted() {
        let mut s = sender();
        let a = s.open();
        // Timer fires with no ACK: Start resent.
        let a = s.on_timer(epoch_of(&a));
        assert!(a.contains(&SenderAction::Send(ControlBody::Start)));
        assert_eq!(s.state, SenderState::WaitAck);
    }

    #[test]
    fn five_lost_starts_declare_link_failure() {
        let mut s = sender();
        let mut a = s.open();
        // X = 5 attempts: the original Start plus 4 retransmissions.
        for _ in 0..4 {
            a = s.on_timer(epoch_of(&a));
            assert!(a.contains(&SenderAction::Send(ControlBody::Start)));
        }
        // The 5th timeout exhausts the attempts: give up.
        let a = s.on_timer(epoch_of(&a));
        assert!(a.contains(&SenderAction::LinkFailure));
        assert_eq!(s.state, SenderState::Idle);
        assert_eq!(s.link_failures, 1);
        // The reopen timer eventually restarts a session.
        let a = s.on_timer(epoch_of(&a));
        assert!(a.contains(&SenderAction::Send(ControlBody::Start)));
        assert_eq!(s.state, SenderState::WaitAck);
    }

    #[test]
    fn duplicate_start_reacks_without_breaking_state() {
        let mut r = receiver();
        r.on_message(1, &ControlBody::Start);
        // ACK lost; duplicate Start in Ready: reset + re-ACK.
        let ra = r.on_message(1, &ControlBody::Start);
        assert!(ra.contains(&ReceiverAction::ResetCounters));
        assert!(ra.contains(&ReceiverAction::Send(ControlBody::StartAck)));
        assert_eq!(r.state, ReceiverState::Ready);
        // Once counting, a duplicate Start only re-ACKs (no reset).
        r.on_tagged_packet();
        let ra = r.on_message(1, &ControlBody::Start);
        assert_eq!(*ra, [ReceiverAction::Send(ControlBody::StartAck)]);
        assert_eq!(r.state, ReceiverState::Counting);
    }

    #[test]
    fn lost_report_answered_from_cache() {
        let mut r = receiver();
        r.on_message(7, &ControlBody::Start);
        r.on_tagged_packet();
        let ra = r.on_message(7, &ControlBody::Stop);
        let _ = r.on_timer(r_epoch_of(&ra)); // Report emitted (and lost).
                                             // Upstream retransmits Stop for session 7.
        let ra = r.on_message(7, &ControlBody::Stop);
        assert_eq!(*ra, [ReceiverAction::ResendReport { session_id: 7 }]);
    }

    #[test]
    fn stale_stop_after_newer_start_gets_a_report_the_sender_ignores() {
        let (mut s, mut r) = (sender(), receiver());
        // Session 1 runs to its Report; a wire copy of its Stop lingers.
        s.open();
        let old = s.session_id;
        r.on_message(old, &ControlBody::Start);
        let a = s.on_message(old, &ControlBody::StartAck);
        r.on_tagged_packet();
        let _ = s.on_timer(epoch_of(&a)); // Stop sent (and duplicated).
        let ra = r.on_message(old, &ControlBody::Stop);
        assert_eq!(*r.on_timer(r_epoch_of(&ra)), [ReceiverAction::EmitReport]);
        assert_eq!(
            *s.on_message(old, &ControlBody::Report(vec![5])),
            [SenderAction::Deliver]
        );

        // Session 2 opens and the receiver resets for it.
        s.open();
        let new = s.session_id;
        let ra = r.on_message(new, &ControlBody::Start);
        assert!(ra.contains(&ReceiverAction::ResetCounters));
        let a = s.on_message(new, &ControlBody::StartAck);

        // The stale Stop arrives now: the receiver answers for session 1,
        // and stays in session 2.
        let ra = r.on_message(old, &ControlBody::Stop);
        assert_eq!(*ra, [ReceiverAction::ResendReport { session_id: old }]);
        assert_eq!((r.session_id, r.state), (new, ReceiverState::Ready));

        // The sender drops that Report by its session id, while counting
        // and while waiting for session 2's own Report alike.
        assert!(s.on_message(old, &ControlBody::Report(vec![7])).is_empty());
        assert_eq!(s.state, SenderState::Counting);
        let _ = s.on_timer(epoch_of(&a));
        assert!(s.on_message(old, &ControlBody::Report(vec![7])).is_empty());
        assert_eq!(s.state, SenderState::WaitReport);
        assert_eq!(s.sessions_completed, 1);
    }

    #[test]
    fn stale_messages_and_timers_ignored() {
        let mut s = sender();
        let a = s.open();
        let sid = s.session_id;
        // Report for an old session: ignored.
        assert!(s
            .on_message(sid.wrapping_sub(1), &ControlBody::Report(vec![]))
            .is_empty());
        // Report in WaitAck: ignored.
        assert!(s.on_message(sid, &ControlBody::Report(vec![])).is_empty());
        // Stale timer epoch: ignored.
        let e = epoch_of(&a);
        s.on_message(sid, &ControlBody::StartAck); // arms a new timer
        assert!(s.on_timer(e).is_empty());
    }

    #[test]
    fn new_start_supersedes_unfinished_session() {
        let mut r = receiver();
        r.on_message(3, &ControlBody::Start);
        r.on_tagged_packet();
        // Upstream gave up on session 3 and opened 4.
        let ra = r.on_message(4, &ControlBody::Start);
        assert!(ra.contains(&ReceiverAction::ResetCounters));
        assert_eq!(r.session_id, 4);
        assert_eq!(r.state, ReceiverState::Ready);
        // A late Stop for session 3 does nothing.
        assert!(r.on_message(3, &ControlBody::Stop).is_empty());
    }

    #[test]
    fn receiver_counts_during_twait_only_for_current_session() {
        let mut r = receiver();
        assert!(!r.accepts_counts());
        r.on_message(1, &ControlBody::Start);
        assert!(r.accepts_counts());
        let ra = r.on_message(1, &ControlBody::Stop);
        assert!(r.accepts_counts());
        r.on_timer(r_epoch_of(&ra));
        assert!(!r.accepts_counts());
    }

    #[test]
    fn counting_interval_respected() {
        // Counting ends exactly when the armed interval timer fires; the
        // FSM then refuses to count.
        let mut s = sender();
        let a = s.open();
        let _ = epoch_of(&a);
        let a = s.on_message(s.session_id, &ControlBody::StartAck);
        assert!(s.is_counting());
        let a2 = s.on_timer(epoch_of(&a));
        assert!(!s.is_counting());
        assert!(a2.contains(&SenderAction::EndCounting));
    }

    fn delay_of(actions: &[SenderAction]) -> SimDuration {
        actions
            .iter()
            .find_map(|a| match a {
                SenderAction::ArmTimer { delay, .. } => Some(*delay),
                _ => None,
            })
            .expect("no timer armed")
    }

    #[test]
    fn retransmissions_back_off_exponentially() {
        let mut s = sender();
        let trtx = timers().trtx;
        let a = s.open();
        assert_eq!(delay_of(&a), trtx, "first Start waits one trtx");
        let a = s.on_timer(epoch_of(&a)); // retx 1
        assert_eq!(delay_of(&a), trtx * 2);
        let a = s.on_timer(epoch_of(&a)); // retx 2
        assert_eq!(delay_of(&a), trtx * 4);
        let a = s.on_timer(epoch_of(&a)); // retx 3
        assert_eq!(delay_of(&a), trtx * 8);
        // max_backoff_shift = 3: the next retransmission stays at 8×.
        let a = s.on_timer(epoch_of(&a)); // retx 4
        assert_eq!(delay_of(&a), trtx * 8);
    }

    #[test]
    fn reopen_delay_grows_with_consecutive_failures() {
        let mut s = sender();
        let interval = s.interval;
        let mut a = s.open();
        let mut reopen_delays = Vec::new();
        // Drive three full failure cycles without ever answering.
        for _ in 0..3 {
            loop {
                a = s.on_timer(epoch_of(&a));
                if a.contains(&SenderAction::LinkFailure) {
                    reopen_delays.push(delay_of(&a));
                    // Reopen timer fires, next session starts.
                    a = s.on_timer(epoch_of(&a));
                    break;
                }
            }
        }
        assert_eq!(
            reopen_delays,
            vec![interval * 2, interval * 4, interval * 8]
        );
        assert_eq!(s.consecutive_failures, 3);
        // A completed session resets the backoff.
        let sid = s.session_id;
        a = s.on_message(sid, &ControlBody::StartAck);
        let _ = s.on_timer(epoch_of(&a)); // counting over → Stop
        s.on_message(sid, &ControlBody::Report(vec![1]));
        assert_eq!(s.consecutive_failures, 0);
    }

    #[test]
    fn stale_duplicate_start_ignored_after_report() {
        let mut r = receiver();
        // Serve session 5 to completion.
        r.on_message(5, &ControlBody::Start);
        r.on_tagged_packet();
        let ra = r.on_message(5, &ControlBody::Stop);
        let _ = r.on_timer(r_epoch_of(&ra));
        assert_eq!(r.state, ReceiverState::Idle);
        // A wire-duplicated Start for the dead session 5 drifts in. The
        // old FSM re-adopted it (reset + ACK) and would later report
        // near-zero counts for a session the sender finished long ago.
        assert!(r.on_message(5, &ControlBody::Start).is_empty());
        assert_eq!(r.state, ReceiverState::Idle);
        // The sender's genuinely-new session 6 still gets served.
        let ra = r.on_message(6, &ControlBody::Start);
        assert!(ra.contains(&ReceiverAction::Send(ControlBody::StartAck)));
        assert_eq!(r.session_id, 6);
    }

    #[test]
    fn older_start_does_not_supersede_live_session() {
        let mut r = receiver();
        r.on_message(9, &ControlBody::Start);
        r.on_tagged_packet();
        assert_eq!(r.state, ReceiverState::Counting);
        // A delayed Start from the long-dead session 7 must not clobber
        // the live session 9.
        assert!(r.on_message(7, &ControlBody::Start).is_empty());
        assert_eq!(r.session_id, 9);
        assert_eq!(r.state, ReceiverState::Counting);
    }

    #[test]
    fn session_ids_compare_across_wrap() {
        assert!(session_newer(1, 0));
        assert!(!session_newer(0, 1));
        assert!(!session_newer(4, 4));
        // Wrap-around: 3 follows u32::MAX - 2.
        assert!(session_newer(3, u32::MAX - 2));
        assert!(!session_newer(u32::MAX - 2, 3));
    }

    #[test]
    fn stop_retransmission_then_report() {
        let mut s = sender();
        let a = s.open();
        let _ = a;
        let a = s.on_message(s.session_id, &ControlBody::StartAck);
        let a = s.on_timer(epoch_of(&a)); // Stop sent
        let a = s.on_timer(epoch_of(&a)); // Stop lost → retransmit
        assert!(a.contains(&SenderAction::Send(ControlBody::Stop)));
        let d = s.on_message(s.session_id, &ControlBody::Report(vec![9]));
        assert_eq!(*d, [SenderAction::Deliver]);
    }
}
