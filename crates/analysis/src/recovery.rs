//! Recovery-guarantee verifier for gray-failure scenarios.
//!
//! The reroute machinery promises three things per protected entry, and
//! this pass checks all of them against the merged flight-recorder stream
//! of a run (SPIDER makes the same kind of guarantee a *design* property;
//! here it becomes a *verified* property of each run):
//!
//! 1. **Latency** — from failure onset (first gray drop of the entry) to
//!    the first packet steered onto a backup port takes no longer than
//!    the scenario's `reroute_latency_bound`;
//! 2. **Loss cessation** — after the reroute (plus a grace budget for
//!    in-flight packets and TCP recovery), the entry suffers no further
//!    gray drops;
//! 3. **Damping contract** — the entry does not oscillate between primary
//!    and backup beyond the configured number of retrips ("flaps"), and
//!    an exhausted backup chain (alarm) is never silently swallowed.
//!
//! Each netwide cell protects exactly one edge and fails one victim
//! entry, so matching on the entry id alone is unambiguous even though
//! sharded traces carry shard-local node ids.

use fancy_trace::{DropCause, TraceEvent};

/// What a run must guarantee for one protected entry.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryContract {
    /// The entry (prefix id) whose recovery is being verified.
    pub entry: u64,
    /// Failure onset override (ns). `None` derives it from the entry's
    /// first gray drop in the stream.
    pub onset_ns: Option<u64>,
    /// Maximum allowed onset → first-reroute latency (ns).
    pub bound_ns: u64,
    /// Grace budget after the reroute during which residual gray drops
    /// are tolerated (in-flight packets, retransmissions finding the new
    /// path).
    pub loss_budget_ns: u64,
    /// Maximum tolerated retrips ("flaps") under the damping contract.
    /// 0 = the entry may engage once but never oscillate.
    pub max_flaps: u64,
}

impl RecoveryContract {
    /// A contract deriving onset from the stream, with no tolerated
    /// flaps.
    pub fn new(entry: u64, bound_ns: u64, loss_budget_ns: u64) -> Self {
        RecoveryContract {
            entry,
            onset_ns: None,
            bound_ns,
            loss_budget_ns,
            max_flaps: 0,
        }
    }
}

/// The verifier's findings for one contract.
#[derive(Debug, Clone, Default)]
pub struct RecoveryVerdict {
    /// The entry verified.
    pub entry: u64,
    /// Failure onset used (ns), if any gray drop / override existed.
    pub onset_ns: Option<u64>,
    /// First reroute of the entry (ns).
    pub reroute_ns: Option<u64>,
    /// Measured onset → reroute latency (ns), when both ends exist.
    pub latency_ns: Option<u64>,
    /// Did the reroute happen within the bound? (A failure with no
    /// reroute at all also fails this.)
    pub latency_ok: bool,
    /// Gray drops of the entry after `reroute + loss_budget`.
    pub residual_drops: u64,
    /// Did post-reroute loss cease within budget?
    pub loss_ok: bool,
    /// Retrips ("flaps") observed for the entry.
    pub flaps: u64,
    /// All damping transitions observed for the entry, in time order,
    /// as `(t_ns, action)`.
    pub transitions: Vec<(u64, String)>,
    /// Did flapping stay within the contract?
    pub oscillation_ok: bool,
    /// Backup-chain-exhausted alarms observed for the entry.
    pub alarms: u64,
}

impl RecoveryVerdict {
    /// Every guarantee held.
    pub fn pass(&self) -> bool {
        self.latency_ok && self.loss_ok && self.oscillation_ok
    }

    /// One stable line for reports and gate output.
    pub fn render(&self) -> String {
        let latency = match self.latency_ns {
            Some(l) => format!("{:.3} ms", l as f64 / 1e6),
            None => "n/a".to_owned(),
        };
        format!(
            "entry {}: latency {} [{}] residual {} [{}] flaps {} [{}] alarms {} => {}",
            self.entry,
            latency,
            ok(self.latency_ok),
            self.residual_drops,
            ok(self.loss_ok),
            self.flaps,
            ok(self.oscillation_ok),
            self.alarms,
            if self.pass() { "PASS" } else { "FAIL" },
        )
    }
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "VIOLATION"
    }
}

/// Replay `events` against `contract` and return the verdict.
///
/// A stream with no failure onset (no gray drops and no override) passes
/// vacuously: there was nothing to recover from.
pub fn verify(events: &[TraceEvent], contract: &RecoveryContract) -> RecoveryVerdict {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.time_ns());

    let mut v = RecoveryVerdict {
        entry: contract.entry,
        onset_ns: contract.onset_ns,
        ..RecoveryVerdict::default()
    };
    let mut gray_drops: Vec<u64> = Vec::new();
    for ev in &sorted {
        match ev {
            TraceEvent::PacketDrop {
                t, cause, entry, ..
            } if *entry == contract.entry && *cause == DropCause::Gray => {
                if contract.onset_ns.is_none() {
                    v.onset_ns.get_or_insert(*t);
                }
                gray_drops.push(*t);
            }
            TraceEvent::Reroute { t, entry, .. } if *entry == contract.entry => {
                v.reroute_ns.get_or_insert(*t);
            }
            TraceEvent::RerouteDamp {
                t, entry, action, ..
            } if *entry == contract.entry => {
                if action == "retrip" {
                    v.flaps += 1;
                }
                v.transitions.push((*t, action.to_string()));
            }
            TraceEvent::BackupAlarm { entry, .. } if *entry == contract.entry => {
                v.alarms += 1;
            }
            _ => {}
        }
    }

    match v.onset_ns {
        None => {
            // Nothing failed: vacuous pass (but an alarm with no onset
            // would still be surfaced via `alarms`).
            v.latency_ok = true;
            v.loss_ok = true;
        }
        Some(onset) => {
            match v.reroute_ns {
                Some(r) if r >= onset => {
                    let latency = r - onset;
                    v.latency_ns = Some(latency);
                    v.latency_ok = latency <= contract.bound_ns;
                }
                // Rerouted before onset (stale flag) or never: both are
                // latency violations — the guarantee is about reacting
                // to *this* failure.
                _ => v.latency_ok = false,
            }
            match v.reroute_ns {
                Some(r) => {
                    let deadline = r.saturating_add(contract.loss_budget_ns);
                    v.residual_drops = gray_drops.iter().filter(|&&t| t > deadline).count() as u64;
                    v.loss_ok = v.residual_drops == 0;
                }
                None => v.loss_ok = false,
            }
        }
    }
    v.oscillation_ok = v.flaps <= contract.max_flaps;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gray(t: u64, entry: u64) -> TraceEvent {
        TraceEvent::PacketDrop {
            t,
            cause: DropCause::Gray,
            node: 1,
            link: Some(1),
            dir: Some(0),
            uid: t,
            entry,
            flow: Some(1),
            size: 1500,
        }
    }

    fn reroute(t: u64, entry: u64) -> TraceEvent {
        TraceEvent::Reroute {
            t,
            node: 1,
            entry,
            primary: 1,
            backup: 2,
        }
    }

    fn damp(t: u64, entry: u64, action: &'static str) -> TraceEvent {
        TraceEvent::RerouteDamp {
            t,
            node: 1,
            entry,
            primary: 1,
            action: action.into(),
        }
    }

    #[test]
    fn clean_recovery_passes_every_guarantee() {
        let events = vec![
            gray(1_000, 7),
            gray(2_000, 7),
            damp(80_000, 7, "engage"),
            reroute(100_000, 7),
            // One in-flight residual inside the budget window.
            gray(150_000, 7),
        ];
        let v = verify(&events, &RecoveryContract::new(7, 200_000, 100_000));
        assert_eq!(v.onset_ns, Some(1_000));
        assert_eq!(v.latency_ns, Some(99_000));
        assert!(v.latency_ok);
        assert_eq!(v.residual_drops, 0);
        assert!(v.loss_ok);
        assert_eq!(v.flaps, 0);
        assert!(v.oscillation_ok);
        assert!(v.pass());
        assert!(v.render().contains("PASS"), "{}", v.render());
    }

    #[test]
    fn late_reroute_violates_the_latency_bound() {
        let events = vec![gray(1_000, 7), reroute(500_000, 7)];
        let v = verify(&events, &RecoveryContract::new(7, 200_000, 100_000));
        assert!(!v.latency_ok);
        assert!(!v.pass());
        assert!(v.render().contains("VIOLATION"), "{}", v.render());
    }

    #[test]
    fn missing_reroute_fails_latency_and_loss() {
        let events = vec![gray(1_000, 7), gray(2_000, 7)];
        let v = verify(&events, &RecoveryContract::new(7, 200_000, 100_000));
        assert!(!v.latency_ok);
        assert!(!v.loss_ok);
        assert!(!v.pass());
    }

    #[test]
    fn residual_loss_after_budget_is_a_violation() {
        let events = vec![
            gray(1_000, 7),
            reroute(100_000, 7),
            gray(300_000, 7), // past reroute + 100 µs budget
        ];
        let v = verify(&events, &RecoveryContract::new(7, 200_000, 100_000));
        assert!(v.latency_ok);
        assert_eq!(v.residual_drops, 1);
        assert!(!v.loss_ok);
        assert!(!v.pass());
    }

    #[test]
    fn flaps_beyond_the_damping_contract_violate() {
        let events = vec![
            gray(1_000, 7),
            damp(50_000, 7, "engage"),
            reroute(60_000, 7),
            damp(200_000, 7, "probe"),
            damp(250_000, 7, "retrip"),
            damp(400_000, 7, "probe"),
            damp(450_000, 7, "retrip"),
        ];
        let mut contract = RecoveryContract::new(7, 200_000, u64::MAX);
        contract.max_flaps = 1;
        let v = verify(&events, &contract);
        assert_eq!(v.flaps, 2);
        assert!(!v.oscillation_ok);
        assert!(!v.pass());
        assert_eq!(v.transitions.len(), 5);
        // The same stream passes a contract that tolerates the flapping.
        contract.max_flaps = 2;
        assert!(verify(&events, &contract).pass());
    }

    #[test]
    fn no_onset_passes_vacuously_and_scopes_by_entry() {
        // Entry 9 never failed; entry 7's events must not bleed in.
        let events = vec![gray(1_000, 7), reroute(900_000, 7)];
        let v = verify(&events, &RecoveryContract::new(9, 1, 1));
        assert_eq!(v.onset_ns, None);
        assert!(v.pass());

        // Explicit onset override is honored even without gray drops.
        let mut c = RecoveryContract::new(9, 1_000, 0);
        c.onset_ns = Some(5_000);
        let v = verify(&[], &c);
        assert_eq!(v.onset_ns, Some(5_000));
        assert!(!v.latency_ok, "onset with no reroute must fail");
    }
}
