//! Property soak of the counting-protocol FSM pair (ISSUE 4).
//!
//! A sender and a receiver FSM talk over an adversarial channel that an
//! arbitrary proptest schedule can drop, duplicate and reorder in either
//! direction, interleaved with timer fires. Two properties must hold:
//!
//! 1. **No deadlock.** After every step the sender has an armed timer
//!    (or, equivalently, a pending reopen) — there is always a future
//!    event that moves the protocol, whatever the channel did.
//! 2. **Re-convergence.** Once the channel turns faithful, the pair
//!    completes a fresh counting session within a bounded number of
//!    steps, from *any* chaos-reachable state.
//!
//! The receiver also must never hold a session id newer than the
//! sender's — stale-Start rejection means ids only flow forward.

use proptest::prelude::*;

use fancy_core::config::TimerConfig;
use fancy_core::fsm::{Actions, ReceiverAction, ReceiverFsm, SenderAction, SenderFsm, SenderState};
use fancy_net::ControlBody;
use fancy_sim::SimDuration;

/// Cap on in-flight messages per direction (duplication is bounded).
const CHANNEL_CAP: usize = 16;
/// Clean steps allowed for re-convergence before we call it a hang.
const CONVERGENCE_BUDGET: usize = 400;

/// The FSM pair plus the channel between them.
struct Harness {
    sender: SenderFsm,
    receiver: ReceiverFsm,
    /// In-flight sender→receiver control messages: `(session_id, body)`.
    s2r: Vec<(u32, ControlBody)>,
    /// In-flight receiver→sender control messages.
    r2s: Vec<(u32, ControlBody)>,
    /// Latest armed sender-timer epoch (stale epochs are unreachable:
    /// re-arming overwrites).
    sender_timer: Option<u64>,
    receiver_timer: Option<u64>,
}

impl Harness {
    fn new() -> Self {
        let timers = TimerConfig::paper_default();
        let mut h = Harness {
            sender: SenderFsm::new(SimDuration::from_millis(50), timers),
            receiver: ReceiverFsm::new(timers),
            s2r: Vec::new(),
            r2s: Vec::new(),
            sender_timer: None,
            receiver_timer: None,
        };
        let actions = h.sender.open();
        h.apply_sender(actions);
        h
    }

    fn apply_sender(&mut self, actions: Actions<SenderAction>) {
        for a in actions {
            match a {
                SenderAction::Send(body) => {
                    if self.s2r.len() < CHANNEL_CAP {
                        self.s2r.push((self.sender.session_id, body));
                    }
                }
                SenderAction::ArmTimer { epoch, .. } => self.sender_timer = Some(epoch),
                SenderAction::ResetCounters
                | SenderAction::BeginCounting
                | SenderAction::EndCounting
                | SenderAction::Deliver
                | SenderAction::LinkFailure => {}
            }
        }
        // The switch reopens an idle sender with no pending timer (the
        // post-Deliver path of `step_sender`); mirror it here so "idle
        // forever" can only mean a real protocol deadlock.
        if self.sender.state == SenderState::Idle && self.sender_timer.is_none() {
            let actions = self.sender.open();
            self.apply_sender(actions);
        }
    }

    fn apply_receiver(&mut self, actions: Actions<ReceiverAction>) {
        for a in actions {
            match a {
                ReceiverAction::Send(body) => {
                    if self.r2s.len() < CHANNEL_CAP {
                        self.r2s.push((self.receiver.session_id, body));
                    }
                }
                ReceiverAction::EmitReport => {
                    if self.r2s.len() < CHANNEL_CAP {
                        self.r2s
                            .push((self.receiver.session_id, ControlBody::Report(vec![0, 1, 2])));
                    }
                }
                ReceiverAction::ResendReport { session_id } => {
                    // The re-sent report answers the *stale* Stop's session.
                    if self.r2s.len() < CHANNEL_CAP {
                        self.r2s
                            .push((session_id, ControlBody::Report(vec![0, 1, 2])));
                    }
                }
                ReceiverAction::ArmTimer { epoch, .. } => self.receiver_timer = Some(epoch),
                ReceiverAction::ResetCounters => {}
            }
        }
    }

    fn deliver_to_receiver(&mut self) {
        if self.s2r.is_empty() {
            return;
        }
        let (sid, body) = self.s2r.remove(0);
        let actions = self.receiver.on_message(sid, &body);
        self.apply_receiver(actions);
    }

    fn deliver_to_sender(&mut self) {
        if self.r2s.is_empty() {
            return;
        }
        let (sid, body) = self.r2s.remove(0);
        let actions = self.sender.on_message(sid, &body);
        self.apply_sender(actions);
    }

    fn fire_sender_timer(&mut self) {
        if let Some(epoch) = self.sender_timer.take() {
            let actions = self.sender.on_timer(epoch);
            self.apply_sender(actions);
        }
    }

    fn fire_receiver_timer(&mut self) {
        if let Some(epoch) = self.receiver_timer.take() {
            let actions = self.receiver.on_timer(epoch);
            self.apply_receiver(actions);
        }
    }

    /// One adversarial step selected by the proptest schedule.
    fn chaos_step(&mut self, op: u8) {
        match op {
            0 => self.deliver_to_receiver(),
            1 => self.deliver_to_sender(),
            2 => drop_front(&mut self.s2r),
            3 => drop_front(&mut self.r2s),
            4 => dup_front(&mut self.s2r),
            5 => dup_front(&mut self.r2s),
            6 => rotate(&mut self.s2r),
            7 => rotate(&mut self.r2s),
            8 => self.fire_sender_timer(),
            _ => self.fire_receiver_timer(),
        }
    }

    /// One faithful step: drain the channel FIFO, then let timers run.
    fn clean_step(&mut self) {
        if !self.s2r.is_empty() {
            self.deliver_to_receiver();
        } else if !self.r2s.is_empty() {
            self.deliver_to_sender();
        } else if self.receiver_timer.is_some() {
            self.fire_receiver_timer();
        } else {
            self.fire_sender_timer();
        }
    }

    fn check_invariants(&self) -> Result<(), TestCaseError> {
        // Liveness: something is always scheduled to happen next.
        prop_assert!(
            self.sender_timer.is_some(),
            "deadlock: sender {:?} has no armed timer",
            self.sender.state
        );
        // Session ids only flow forward: the receiver can never hold an
        // id the sender has not yet issued.
        prop_assert!(
            !session_newer(self.receiver.session_id, self.sender.session_id),
            "receiver session {} is newer than sender session {}",
            self.receiver.session_id,
            self.sender.session_id
        );
        Ok(())
    }
}

fn drop_front<T>(q: &mut Vec<T>) {
    if !q.is_empty() {
        q.remove(0);
    }
}

fn dup_front<T: Clone>(q: &mut Vec<T>) {
    if !q.is_empty() && q.len() < CHANNEL_CAP {
        let front = q[0].clone();
        q.push(front);
    }
}

fn rotate<T>(q: &mut Vec<T>) {
    if q.len() > 1 {
        let front = q.remove(0);
        q.push(front);
    }
}

/// Mirrors the FSM's wrapping session-id comparison.
fn session_newer(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < u32::MAX / 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fsm_pair_never_deadlocks_and_reconverges(
        ops in proptest::collection::vec(0u8..10, 1..250),
    ) {
        let mut h = Harness::new();
        for op in ops {
            h.chaos_step(op);
            h.check_invariants()?;
        }

        // The channel heals: the pair must complete a *fresh* session
        // within the convergence budget, from whatever state the chaos
        // schedule left it in.
        let completed_before = h.sender.sessions_completed;
        let mut converged = false;
        for _ in 0..CONVERGENCE_BUDGET {
            h.clean_step();
            h.check_invariants()?;
            if h.sender.sessions_completed > completed_before {
                converged = true;
                break;
            }
        }
        prop_assert!(
            converged,
            "no session completed within {CONVERGENCE_BUDGET} clean steps; \
             sender {:?} (session {}), receiver {:?} (session {}), \
             s2r {:?}, r2s {:?}",
            h.sender.state,
            h.sender.session_id,
            h.receiver.state,
            h.receiver.session_id,
            h.s2r,
            h.r2s,
        );
    }

    #[test]
    fn duplicated_and_reordered_control_never_inflates_sessions(
        ops in proptest::collection::vec(0u8..10, 1..250),
    ) {
        // Every completed session requires one full Start/StartAck/Stop/
        // Report round trip, so completions can never exceed the number
        // of Reports the receiver actually emitted — duplicated Reports
        // for the same session must not double-count.
        let mut h = Harness::new();
        for op in ops {
            h.chaos_step(op);
        }
        // Session ids increment once per open; completions count
        // delivered reports. A session can complete at most once.
        prop_assert!(
            h.sender.sessions_completed <= u64::from(h.sender.session_id),
            "{} sessions completed but only {} ever opened",
            h.sender.sessions_completed,
            h.sender.session_id
        );
    }
}
