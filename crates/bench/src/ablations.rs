//! Ablations of FANcY's design choices.
//!
//! Three decisions the paper makes (and argues for) are isolated here with
//! engine-level experiments, fast enough to sweep:
//!
//! 1. **Zoom selection policy** (§4.2 footnote 1): max-loss-first vs
//!    index-order. Under simultaneous failures with skewed traffic,
//!    max-loss protects the bytes first.
//! 2. **Pipelined vs non-pipelined zooming** (Appendix A.3): exploration
//!    parallelism vs node memory.
//! 3. **Stop-and-wait protocol vs the §4.1 strawman** (continuous counting
//!    with in-packet session IDs): measurement reliability under
//!    reverse-path loss, at equal memory.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fancy_core::strawman::{StrawmanReceiver, StrawmanSender};
use fancy_core::{SelectionPolicy, TreeParams, ZoomEngine, ZoomOutcome};
use fancy_net::{FancyTag, Prefix};
use fancy_traffic::Zipf;

/// Outcome of one zoom-policy run.
#[derive(Debug, Clone, Copy)]
pub struct PolicyResult {
    /// Sessions until the *heaviest* failed entry was reported.
    pub sessions_to_heaviest: u32,
    /// Byte-weighted mean sessions-to-detection across failed entries
    /// (undetected entries count the horizon).
    pub weighted_sessions: f64,
    /// Fraction of failed entries detected within the horizon.
    pub tpr: f64,
}

/// Drive a pure zoom engine over `horizon` sessions: `n_entries`
/// Zipf-weighted entries, the `n_failed` heaviest-index-scattered ones
/// blackholed. Per-session per-entry packet counts follow the Zipf weight.
pub fn run_zoom_policy(
    policy: SelectionPolicy,
    params: TreeParams,
    n_entries: usize,
    n_failed: usize,
    horizon: u32,
    seed: u64,
) -> PolicyResult {
    let mut engine = ZoomEngine::new(params, seed).with_policy(policy);
    let zipf = Zipf::new(n_entries, 1.1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xAB1A);
    let entries: Vec<Prefix> = (0..n_entries as u32)
        .map(|i| Prefix(0x0D_00_00 + i))
        .collect();
    // Failed set: stratified over ranks so both heavy and light entries fail.
    let failed: Vec<usize> = (0..n_failed)
        .map(|i| {
            let lo = i * n_entries / n_failed;
            let hi = ((i + 1) * n_entries / n_failed).max(lo + 1);
            rng.gen_range(lo..hi)
        })
        .collect();
    // Per-session packets per entry: weight × budget, at least 1 for the
    // heavy half so sessions always carry signal.
    let budget = 50_000.0;
    let pkts: Vec<u32> = (0..n_entries)
        .map(|r| (zipf.weight(r) * budget).round() as u32)
        .collect();

    let mut detected_at: Vec<Option<u32>> = vec![None; n_failed];
    let width = usize::from(params.width);
    for session in 1..=horizon {
        engine.begin_session();
        let mut remote = vec![0u32; engine.slot_count() * width];
        for (rank, &entry) in entries.iter().enumerate() {
            let is_failed = failed.contains(&rank);
            for _ in 0..pkts[rank] {
                let FancyTag::Tree { slot, index } = engine.tag_and_count(entry) else {
                    unreachable!()
                };
                if !is_failed {
                    remote[usize::from(slot) * width + usize::from(index)] += 1;
                }
            }
        }
        for o in engine.end_session(&remote) {
            if let ZoomOutcome::LeafFailure { path, .. } = o {
                for (fi, &rank) in failed.iter().enumerate() {
                    if detected_at[fi].is_none()
                        && engine.hasher().matches_prefix(entries[rank], &path)
                    {
                        detected_at[fi] = Some(session);
                    }
                }
            }
        }
    }

    let heaviest = failed
        .iter()
        .enumerate()
        .min_by_key(|&(_, &rank)| rank)
        .map(|(fi, _)| fi)
        .unwrap();
    let total_w: f64 = failed.iter().map(|&r| zipf.weight(r)).sum();
    let weighted: f64 = failed
        .iter()
        .zip(&detected_at)
        .map(|(&r, d)| zipf.weight(r) * f64::from(d.unwrap_or(horizon)))
        .sum::<f64>()
        / total_w;
    PolicyResult {
        sessions_to_heaviest: detected_at[heaviest].unwrap_or(horizon),
        weighted_sessions: weighted,
        tpr: detected_at.iter().filter(|d| d.is_some()).count() as f64 / n_failed as f64,
    }
}

/// Outcome of the pipelining ablation.
#[derive(Debug, Clone, Copy)]
pub struct PipelineResult {
    /// Node slots (memory) the configuration provisions.
    pub slots: usize,
    /// Mean sessions until each of the failed entries was reported
    /// (undetected = horizon).
    pub mean_sessions: f64,
    /// Detected fraction.
    pub tpr: f64,
}

/// Pipelined vs non-pipelined zooming under `n_failed` simultaneous
/// blackholes (uniform traffic so only exploration parallelism matters).
pub fn run_pipeline_ablation(
    pipelined: bool,
    n_failed: usize,
    horizon: u32,
    seed: u64,
) -> PipelineResult {
    let params = TreeParams {
        width: 32,
        depth: 3,
        split: if pipelined { 2 } else { 1 },
        pipelined,
    };
    let mut engine = ZoomEngine::new(params, seed);
    let n_entries = 600usize;
    let entries: Vec<Prefix> = (0..n_entries as u32)
        .map(|i| Prefix(0x0E_00_00 + i))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut failed = std::collections::HashSet::new();
    while failed.len() < n_failed {
        failed.insert(rng.gen_range(0..n_entries));
    }
    let width = usize::from(params.width);
    let mut detected_at: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
    for session in 1..=horizon {
        engine.begin_session();
        let mut remote = vec![0u32; engine.slot_count() * width];
        for (rank, &entry) in entries.iter().enumerate() {
            for _ in 0..10 {
                let FancyTag::Tree { slot, index } = engine.tag_and_count(entry) else {
                    unreachable!()
                };
                if !failed.contains(&rank) {
                    remote[usize::from(slot) * width + usize::from(index)] += 1;
                }
            }
        }
        for o in engine.end_session(&remote) {
            if let ZoomOutcome::LeafFailure { path, .. } = o {
                for &rank in &failed {
                    if !detected_at.contains_key(&rank)
                        && engine.hasher().matches_prefix(entries[rank], &path)
                    {
                        detected_at.insert(rank, session);
                    }
                }
            }
        }
    }
    let mean = failed
        .iter()
        .map(|r| f64::from(detected_at.get(r).copied().unwrap_or(horizon)))
        .sum::<f64>()
        / n_failed as f64;
    PipelineResult {
        slots: engine.slot_count(),
        mean_sessions: mean,
        tpr: detected_at.len() as f64 / n_failed as f64,
    }
}

/// Outcome of the protocol ablation.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolResult {
    /// Fraction of sessions whose measurement survived.
    pub reliability: f64,
    /// Counter sets provisioned per entry.
    pub memory_sets: usize,
}

/// The §4.1 strawman under `loss` reverse-path report loss.
pub fn run_strawman(loss: f64, history: usize, sessions: u32, seed: u64) -> ProtocolResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tx = StrawmanSender::new(history);
    let mut rx = StrawmanReceiver::new();
    for _ in 0..sessions {
        for _ in 0..100 {
            let sid = tx.on_send();
            if let Some((rsid, rcount)) = rx.on_packet(sid) {
                if !rng.gen_bool(loss) {
                    tx.on_report(rsid, rcount);
                }
            }
        }
        tx.rotate();
    }
    ProtocolResult {
        reliability: tx.reliability(),
        memory_sets: tx.memory_counter_sets(),
    }
}

/// FANcY's stop-and-wait protocol under the same reverse loss: retransmitted
/// Stops recover lost Reports, so every *completed* session yields a
/// comparison; total loss degrades to explicit link-failure declarations.
pub fn run_stop_and_wait(loss: f64, rounds: u32, seed: u64) -> ProtocolResult {
    use fancy_core::fsm::{ReceiverAction, SenderAction};
    use fancy_core::{ReceiverFsm, SenderFsm, TimerConfig};
    use fancy_sim::SimDuration;

    let mut rng = SmallRng::seed_from_u64(seed);
    let timers = TimerConfig::paper_default();
    let mut s = SenderFsm::new(SimDuration::from_millis(50), timers);
    let mut r = ReceiverFsm::new(timers);
    let mut s_actions: Vec<SenderAction> = s.open().into_iter().collect();
    let mut s_timer = None;
    let mut r_timer = None;
    for _ in 0..rounds {
        let mut to_r = Vec::new();
        for a in std::mem::take(&mut s_actions) {
            match a {
                SenderAction::Send(b) => {
                    // Forward direction is clean; only replies are lossy.
                    to_r.push((s.session_id, b));
                }
                SenderAction::ArmTimer { epoch, .. } => s_timer = Some(epoch),
                _ => {}
            }
        }
        let mut r_acts = Vec::new();
        for (sid, b) in to_r {
            r_acts.extend(r.on_message(sid, &b));
        }
        let mut to_s = Vec::new();
        // T_wait (2 ms) expires long before the sender's T_rtx (25 ms), so
        // the receiver timer armed this round fires within the same round.
        for pass in 0..2 {
            if pass == 1 {
                match r_timer.take() {
                    Some(e) => r_acts.extend(r.on_timer(e)),
                    None => break,
                }
            }
            for a in std::mem::take(&mut r_acts) {
                match a {
                    ReceiverAction::Send(b) => {
                        if !rng.gen_bool(loss) {
                            to_s.push((r.session_id, b));
                        }
                    }
                    ReceiverAction::EmitReport | ReceiverAction::ResendReport { .. } => {
                        if !rng.gen_bool(loss) {
                            to_s.push((r.session_id, fancy_net::ControlBody::Report(vec![0])));
                        }
                    }
                    ReceiverAction::ArmTimer { epoch, .. } => r_timer = Some(epoch),
                    ReceiverAction::ResetCounters => {}
                }
            }
        }
        for (sid, b) in to_s {
            let acts = s.on_message(sid, &b);
            let done = acts.iter().any(|a| matches!(a, SenderAction::Deliver));
            s_actions.extend(acts);
            if done {
                s_actions.extend(s.open());
            }
        }
        if let Some(e) = s_timer.take() {
            s_actions.extend(s.on_timer(e));
        }
    }
    let total = s.sessions_completed + s.link_failures;
    ProtocolResult {
        reliability: if total == 0 {
            0.0
        } else {
            s.sessions_completed as f64 / total as f64
        },
        memory_sets: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_loss_policy_protects_heavy_traffic_first() {
        let params = TreeParams {
            width: 24,
            depth: 3,
            split: 1,
            pipelined: true,
        };
        // With split 1 only one zoom thread exists, so ordering matters
        // most: max-loss must reach the heaviest failed entry no later
        // than index-order does (averaged over seeds).
        let mut max_sum = 0.0;
        let mut idx_sum = 0.0;
        for seed in 0..6u64 {
            max_sum += f64::from(
                run_zoom_policy(SelectionPolicy::MaxLoss, params, 400, 8, 40, seed)
                    .sessions_to_heaviest,
            );
            idx_sum += f64::from(
                run_zoom_policy(SelectionPolicy::FirstIndex, params, 400, 8, 40, seed)
                    .sessions_to_heaviest,
            );
        }
        assert!(
            max_sum <= idx_sum,
            "max-loss {max_sum} should beat index-order {idx_sum} to the heavy entry"
        );
    }

    #[test]
    fn pipelining_trades_memory_for_parallel_detection() {
        let pipe = run_pipeline_ablation(true, 8, 30, 3);
        let nopipe = run_pipeline_ablation(false, 8, 30, 3);
        assert!(pipe.slots > nopipe.slots, "pipelined uses more node memory");
        assert!(
            pipe.mean_sessions < nopipe.mean_sessions,
            "pipelined {p} should beat non-pipelined {n}",
            p = pipe.mean_sessions,
            n = nopipe.mean_sessions
        );
    }

    #[test]
    fn stop_and_wait_beats_strawman_under_reverse_loss() {
        let sw = run_stop_and_wait(0.3, 2000, 5);
        let st = run_strawman(0.3, 1, 500, 5);
        assert!(sw.reliability > 0.95, "stop-and-wait {}", sw.reliability);
        assert!(st.reliability < 0.75, "strawman {}", st.reliability);
        assert!(sw.memory_sets < st.memory_sets);
    }
}
