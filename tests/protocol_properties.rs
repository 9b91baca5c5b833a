//! Property-based tests of the counting protocol and core data structures.
//!
//! These drive the *pure* components (FSMs, zoom engine, IBFs, wire
//! formats) through randomized schedules with proptest, checking the
//! invariants the system-level results rest on.

use proptest::prelude::*;

use fancy::baselines::LossRadarMeter;
use fancy::core::fsm::{ReceiverAction, SenderAction};
use fancy::core::{ReceiverFsm, SenderFsm, TimerConfig, TreeParams, ZoomEngine};
use fancy::net::{ControlBody, ControlMessage, FancyTag, Prefix, SessionKind};
use fancy::sim::SimDuration;

// ---------------------------------------------------------------------
// Wire formats: anything we emit parses back identically.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn control_messages_roundtrip(
        kind in prop_oneof![
            (0u16..512).prop_map(|counter_id| SessionKind::Dedicated { counter_id }),
            Just(SessionKind::Tree),
        ],
        session_id in any::<u32>(),
        body in prop_oneof![
            Just(ControlBody::Start),
            Just(ControlBody::StartAck),
            Just(ControlBody::Stop),
            proptest::collection::vec(any::<u32>(), 0..2000).prop_map(ControlBody::Report),
        ],
    ) {
        let msg = ControlMessage { kind, session_id, body };
        let bytes = msg.to_bytes();
        prop_assert_eq!(ControlMessage::parse(&bytes).unwrap(), msg);
    }

    #[test]
    fn tags_roundtrip(dedicated in any::<bool>(), a in 0u16..0x8000, slot in 0u8..0x80, idx in any::<u8>()) {
        let tag = if dedicated {
            FancyTag::Dedicated { counter_id: a }
        } else {
            FancyTag::Tree { slot, index: idx }
        };
        let mut buf = [0u8; 2];
        tag.emit(&mut buf);
        prop_assert_eq!(FancyTag::parse(&buf).unwrap(), tag);
    }

    #[test]
    fn truncated_control_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = ControlMessage::parse(&bytes); // must not panic
    }
}

// ---------------------------------------------------------------------
// FSM pair over a lossy channel: sessions always make progress, and a
// delivered report always belongs to the current session.
// ---------------------------------------------------------------------

/// Simulate the sender/receiver FSM pair over a channel that drops
/// messages per `drop_pattern`. Timer events fire in order. Returns the
/// number of completed sessions and link-failure declarations.
fn run_fsm_pair(drop_pattern: &[bool], rounds: usize) -> (u64, u64) {
    let timers = TimerConfig::paper_default();
    let mut sender = SenderFsm::new(SimDuration::from_millis(50), timers);
    let mut receiver = ReceiverFsm::new(timers);
    let mut drop_iter = drop_pattern.iter().cycle();
    let mut pending_sender: Vec<SenderAction> = sender.open().into_iter().collect();
    let mut to_receiver: Vec<(u32, ControlBody)> = Vec::new();
    let mut to_sender: Vec<(u32, ControlBody)> = Vec::new();
    let mut sender_timer: Option<u64> = None;
    let mut receiver_timer: Option<u64> = None;
    let mut cached_report: Vec<u32> = vec![0];

    for _ in 0..rounds {
        // Execute pending sender actions.
        for a in std::mem::take(&mut pending_sender) {
            match a {
                SenderAction::Send(body) if !*drop_iter.next().unwrap() => {
                    to_receiver.push((sender.session_id, body));
                }
                SenderAction::ArmTimer { epoch, .. } => sender_timer = Some(epoch),
                _ => {}
            }
        }
        // Deliver to receiver.
        let mut r_actions = Vec::new();
        for (sid, body) in std::mem::take(&mut to_receiver) {
            r_actions.extend(receiver.on_message(sid, &body));
        }
        for a in r_actions {
            match a {
                ReceiverAction::Send(body) => {
                    if !*drop_iter.next().unwrap() {
                        to_sender.push((receiver.session_id, body));
                    }
                }
                ReceiverAction::EmitReport | ReceiverAction::ResendReport { .. } => {
                    if !*drop_iter.next().unwrap() {
                        to_sender.push((
                            receiver.session_id,
                            ControlBody::Report(cached_report.clone()),
                        ));
                    }
                }
                ReceiverAction::ArmTimer { epoch, .. } => receiver_timer = Some(epoch),
                ReceiverAction::ResetCounters => cached_report = vec![0],
            }
        }
        // Deliver to sender.
        for (sid, body) in std::mem::take(&mut to_sender) {
            let acts = sender.on_message(sid, &body);
            let reopened = acts.iter().any(|a| matches!(a, SenderAction::Deliver));
            pending_sender.extend(acts);
            if reopened {
                pending_sender.extend(sender.open());
            }
        }
        // Fire timers (receiver first: T_wait is short).
        if let Some(e) = receiver_timer.take() {
            let acts = receiver.on_timer(e);
            for a in acts {
                match a {
                    ReceiverAction::EmitReport | ReceiverAction::ResendReport { .. } => {
                        if !*drop_iter.next().unwrap() {
                            to_sender.push((
                                receiver.session_id,
                                ControlBody::Report(cached_report.clone()),
                            ));
                        }
                    }
                    ReceiverAction::ArmTimer { epoch, .. } => receiver_timer = Some(epoch),
                    ReceiverAction::Send(body) => {
                        if !*drop_iter.next().unwrap() {
                            to_sender.push((receiver.session_id, body));
                        }
                    }
                    ReceiverAction::ResetCounters => cached_report = vec![0],
                }
            }
        }
        if let Some(e) = sender_timer.take() {
            pending_sender.extend(sender.on_timer(e));
        }
        // Late deliveries next round.
    }
    (sender.sessions_completed, sender.link_failures)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fsm_pair_makes_progress_under_partial_loss(
        pattern in proptest::collection::vec(any::<bool>(), 1..32),
    ) {
        // Unless the pattern drops everything, sessions eventually
        // complete; if it does drop everything, link failures are declared
        // instead. Either way the pair never wedges silently.
        let all_dropped = pattern.iter().all(|&d| d);
        let (completed, failures) = run_fsm_pair(&pattern, 400);
        if all_dropped {
            prop_assert!(failures > 0, "no progress and no failure declared");
            prop_assert_eq!(completed, 0);
        } else {
            prop_assert!(
                completed > 0 || failures > 0,
                "pair wedged: 0 sessions, 0 failures"
            );
        }
    }

    #[test]
    fn lossless_fsm_pair_completes_many_sessions(rounds in 50usize..300) {
        let (completed, failures) = run_fsm_pair(&[false], rounds);
        prop_assert_eq!(failures, 0);
        // Each session takes a handful of rounds in this driver.
        prop_assert!(completed as usize >= rounds / 8, "completed {}", completed);
    }
}

// ---------------------------------------------------------------------
// Zoom engine: counting conservation and detection soundness.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lossless_sessions_never_report(
        entries in proptest::collection::vec(0u32..100_000, 1..200),
        width in 4u16..64,
        depth in 1u8..4,
        split in 1u8..3,
    ) {
        let params = TreeParams { width, depth, split, pipelined: true };
        let mut engine = ZoomEngine::new(params, 1234);
        for _ in 0..4 {
            engine.begin_session();
            let w = usize::from(width);
            let mut remote = vec![0u32; engine.slot_count() * w];
            for &e in &entries {
                let FancyTag::Tree { slot, index } = engine.tag_and_count(Prefix(e)) else {
                    unreachable!()
                };
                remote[usize::from(slot) * w + usize::from(index)] += 1;
            }
            let outcomes = engine.end_session(&remote);
            prop_assert!(outcomes.is_empty(), "lossless session reported {outcomes:?}");
        }
    }

    #[test]
    fn reported_paths_always_contain_a_failed_entry(
        entries in proptest::collection::vec(0u32..100_000, 20..150),
        victim_idx in 0usize..19,
    ) {
        let params = TreeParams { width: 16, depth: 3, split: 2, pipelined: true };
        let mut engine = ZoomEngine::new(params, 99);
        let victim = Prefix(entries[victim_idx]);
        for _ in 0..6 {
            engine.begin_session();
            let w = 16usize;
            let mut remote = vec![0u32; engine.slot_count() * w];
            for &e in &entries {
                for _ in 0..5 {
                    let FancyTag::Tree { slot, index } = engine.tag_and_count(Prefix(e)) else {
                        unreachable!()
                    };
                    if Prefix(e) != victim {
                        remote[usize::from(slot) * w + usize::from(index)] += 1;
                    }
                }
            }
            for o in engine.end_session(&remote) {
                if let fancy::core::ZoomOutcome::LeafFailure { path, .. } = o {
                    // Soundness: the victim's hash path prefix-matches the
                    // reported path (collisions may add entries, never
                    // remove the true one... unless another entry shares
                    // the leaf — then the report still includes a path that
                    // the victim maps to).
                    prop_assert!(
                        engine.hasher().matches_prefix(victim, &path),
                        "reported path {path:?} does not match the only lossy entry"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// LossRadar IBF: the decoded difference is exactly the dropped set.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ibf_decodes_exact_difference(
        total in 100u64..2000,
        lost in proptest::collection::btree_set(0u64..2000, 0..40),
    ) {
        let mut m = LossRadarMeter::new(512, 3, 7);
        for k in 0..total {
            m.on_upstream(k);
            if !lost.contains(&k) {
                m.on_downstream(k);
            }
        }
        let mut got = m.rotate().expect("512 cells fit ≤40 losses");
        got.sort_unstable();
        let want: Vec<u64> = lost.into_iter().filter(|&k| k < total).collect();
        prop_assert_eq!(got, want);
    }
}
