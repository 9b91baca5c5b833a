//! The measurement loop: set-up samples, one warm-up round, timed reps
//! of all selected workloads interleaved round-robin from this one
//! thread (closed loop: a rep starts when the previous one returns), one
//! extra rep under the counting allocator, and — separately, afterwards
//! — the traced pass.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::alloc;
use crate::host::{self, Sample};
use crate::span::Span;
use crate::stats;
use crate::workloads::{self, Env, RepOut, Tracer, Workload};

/// Seconds of timed reps per workload when `--seconds` is absent: the
/// `run_seconds` of `BENCHMARK.json` (a self-test keeps them equal), so a
/// manual run, `repeat.sh` and an automated driver measure equally long.
pub const DEFAULT_SECONDS: f64 = 22.0;

/// Fewest timed rounds, however short the budget.
const MIN_ROUNDS: u32 = 3;

/// Fewest set-up samples per workload; the floor is `setup_s`.
pub const SETUP_SAMPLES: usize = 5;

/// One more set-up sample is taken every this many rounds of reps.
const SETUP_EVERY: u32 = 4;

/// Cold set-ups are batched until one sample has accumulated this much
/// self-timed set-up work.
const SETUP_SAMPLE_SECONDS: f64 = 0.05;

#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workloads: Vec<String>,
    /// Rounds of timed reps run until this many seconds of them have
    /// accumulated per workload, traced pass or not.
    pub seconds: f64,
    pub trace: bool,
}

/// Rep bookkeeping: which reps count as failed.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub attempted: u32,
    pub failed: u32,
    /// `sim_digest` of the first successful rep; every later rep must
    /// reproduce it.
    pub digest: Option<u64>,
    /// Events that rep dispatched (0 where the harness hides them).
    pub events: u64,
    /// First few failure reasons, for the report.
    pub problems: Vec<String>,
}

impl Ledger {
    /// Account for one finished rep. Returns true if it was clean.
    pub fn record(&mut self, out: Result<RepOut, String>) -> bool {
        self.attempted += 1;
        let mut reasons = match out {
            Err(e) => vec![e],
            Ok(out) => {
                let mut reasons = out.problems;
                match self.digest {
                    None if reasons.is_empty() => {
                        self.digest = Some(out.digest);
                        self.events = out.events;
                    }
                    Some(d) if d != out.digest => reasons.push(format!(
                        "sim_digest {:#018x} differs from the first rep's {d:#018x}",
                        out.digest
                    )),
                    _ => {}
                }
                reasons
            }
        };
        if reasons.is_empty() {
            return true;
        }
        self.failed += 1;
        reasons.truncate(2);
        if self.problems.len() < 8 {
            self.problems.append(&mut reasons);
        }
        false
    }

    /// Share of attempted reps that were clean (1 = all).
    pub fn ok_frac(&self) -> f64 {
        1.0 - f64::from(self.failed) / f64::from(self.attempted.max(1))
    }
}

#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub name: String,
    pub ledger: Ledger,
    /// Set-up samples: the mean of one batch of cold set-ups each.
    pub setup_samples: Vec<Sample>,
    /// One per successful timed rep, in run order.
    pub rep_samples: Vec<Sample>,
    pub peak_heap_mb: f64,
    /// Per-layer values and spans; empty unless the traced pass ran.
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl WorkloadResult {
    pub fn wall_s(&self) -> f64 {
        stats::min(&self.rep_times())
    }

    pub fn setup_s(&self) -> f64 {
        let secs: Vec<f64> = self.setup_samples.iter().map(|s| s.secs).collect();
        stats::min(&secs)
    }

    /// Raw elapsed seconds of the timed reps (diagnostics).
    pub fn rep_times(&self) -> Vec<f64> {
        self.rep_samples.iter().map(|s| s.secs).collect()
    }
}

/// Run `f`, turning a panic into a failed rep instead of a dead run.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panicked: {msg}"))
    })
}

struct Slot {
    workload: Box<dyn Workload>,
    result: WorkloadResult,
}

impl Slot {
    /// One set-up sample. Most set-ups take well under a millisecond:
    /// cold set-ups repeat until the sample is long enough to time, and
    /// the sample is the mean of the batch.
    fn sample_setup(&mut self, env: &Env) -> Result<(), String> {
        let (mut total, mut n) = (0.0, 0u32);
        let stolen_before = host::stolen_seconds();
        while total < SETUP_SAMPLE_SECONDS {
            total += guarded(|| self.workload.setup(env))
                .map_err(|e| format!("{}: set-up failed: {e}", self.result.name))?;
            n += 1;
        }
        let stolen = (host::stolen_seconds() - stolen_before).max(0.0);
        self.result.setup_samples.push(Sample {
            secs: total / f64::from(n),
            stolen: stolen / f64::from(n),
        });
        Ok(())
    }
}

pub fn run(plan: &Plan, env: &Env) -> Result<Vec<WorkloadResult>, String> {
    let mut slots: Vec<Slot> = plan
        .workloads
        .iter()
        .map(|name| {
            let workload = workloads::make(name).ok_or_else(|| {
                format!(
                    "unknown workload '{name}' (known: {})",
                    workloads::NAMES.join(", ")
                )
            })?;
            let result = WorkloadResult {
                name: name.clone(),
                ..WorkloadResult::default()
            };
            Ok(Slot { workload, result })
        })
        .collect::<Result<_, String>>()?;

    // Set-up is not optional: a workload that cannot prepare its inputs
    // has nothing to measure.
    for slot in &mut slots {
        slot.sample_setup(env)?;
    }

    // Warm-up round: page in code and allocator arenas, and pin the
    // digest every timed rep must reproduce.
    for slot in &mut slots {
        let out = guarded(|| slot.workload.rep(env));
        slot.result.ledger.record(out);
    }

    let budget = plan.seconds * slots.len() as f64;
    let mut timed = 0.0;
    let mut round = 0u32;
    while round < MIN_ROUNDS || timed < budget {
        for slot in &mut slots {
            // Set-up is re-sampled between reps, so its floor sees the
            // same stretch of machine weather the reps' floor does (all
            // samples taken up front sat inside one slow spell or none).
            if round % SETUP_EVERY == SETUP_EVERY - 1 {
                slot.sample_setup(env)?;
            }
            let (out, sample) = host::timed(|| guarded(|| slot.workload.rep(env)));
            timed += sample.secs;
            // A failed rep's time says nothing about the workload.
            if slot.result.ledger.record(out) {
                slot.result.rep_samples.push(sample);
            }
        }
        round += 1;
    }

    for slot in &mut slots {
        while slot.result.setup_samples.len() < SETUP_SAMPLES {
            slot.sample_setup(env)?;
        }
        let (out, heap) = alloc::counted(|| guarded(|| slot.workload.rep(env)));
        slot.result.ledger.record(out);
        slot.result.peak_heap_mb = heap.peak_bytes as f64 / (1024.0 * 1024.0);
    }

    if plan.trace {
        for slot in &mut slots {
            let mut tracer = Tracer::default();
            let started = Instant::now();
            let outcome = guarded(|| slot.workload.trace(env, &mut tracer));
            eprintln!(
                "# traced pass of {} took {:.1}s",
                slot.result.name,
                started.elapsed().as_secs_f64()
            );
            let problems = tracer.problems().to_vec();
            let ok = outcome.is_ok() && problems.is_empty();
            slot.result.ledger.attempted += 1;
            if !ok {
                slot.result.ledger.failed += 1;
                slot.result.ledger.problems.extend(outcome.err());
                slot.result.ledger.problems.extend(problems);
            }
            finish_host_metrics(&mut tracer, &slot.result);
            slot.result.layers = tracer.values().clone();
            slot.result.spans = tracer.spans.list().to_vec();
        }
    }
    Ok(slots.into_iter().map(|s| s.result).collect())
}

/// The two host metrics that compare the passes with each other.
fn finish_host_metrics(tracer: &mut Tracer, result: &WorkloadResult) {
    let floor = result.wall_s();
    if floor.is_finite() && floor > 0.0 {
        tracer.set(
            "host.noise_ratio",
            stats::median(&result.rep_times()) / floor,
        );
        // A traced rep is an untraced rep plus span bookkeeping: the
        // enclosing "rep" span where the workload has one, else its
        // harness-level probe.
        let traced = ["rep", "probe.sweep", "probe.run_netwide"]
            .iter()
            .find_map(|name| tracer.spans.floor_s(name));
        if let Some(traced) = traced {
            tracer.set("host.trace_overhead_frac", traced / floor - 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(digest: u64) -> Result<RepOut, String> {
        Ok(RepOut {
            digest,
            ..RepOut::default()
        })
    }

    #[test]
    fn corrupted_reps_are_counted_in_ok_frac() {
        let mut l = Ledger::default();
        assert!(l.record(rep(7)));
        assert!(l.record(rep(7)));
        // A different digest, an error, and a failed output check each
        // count as one failed rep.
        assert!(!l.record(rep(8)));
        assert!(!l.record(Err("boom".into())));
        assert!(!l.record(Ok(RepOut {
            digest: 7,
            problems: vec!["sink lost a packet".into()],
            ..RepOut::default()
        })));
        assert_eq!((l.attempted, l.failed), (5, 3));
        assert_eq!(l.ok_frac(), 0.4);
        assert_eq!(l.digest, Some(7));
        assert!(l.problems.iter().any(|p| p.contains("differs")));

        // A rep that fails its checks never becomes the reference.
        let mut l = Ledger::default();
        assert!(!l.record(Ok(RepOut {
            digest: 1,
            problems: vec!["bad".into()],
            ..RepOut::default()
        })));
        assert_eq!(l.digest, None);
        assert!(l.record(rep(2)));
        assert_eq!(l.digest, Some(2));
    }

    #[test]
    fn panics_become_failed_reps() {
        let out: Result<RepOut, String> = guarded(|| panic!("kaboom {}", 1));
        assert_eq!(out.unwrap_err(), "panicked: kaboom 1");
    }
}
