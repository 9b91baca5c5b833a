//! Experiment scaling knobs.
//!
//! All environment handling funnels through one typed reader,
//! [`BenchEnv::from_env`]. Every harness honors:
//!
//! * `FANCY_FULL=1` — run at paper scale (10 repetitions, 30 s experiments,
//!   100-entry failure bursts, larger trace scale). Budget hours.
//! * `FANCY_REPS=<n>` — override the repetition count only.
//! * `FANCY_THREADS=<n>` — worker threads for [`crate::runner::Sweep`]
//!   fan-out (default: the machine's parallelism, capped at 16). Results
//!   are bit-identical at any value; this only trades wall-clock.
//! * `FANCY_SHARDS=<n>` — worker threads driving the sharded DES
//!   executor inside a single scenario (`fancy_sim::ShardedNet`). The
//!   shard *layout* is a pure function of the topology, so results are
//!   bit-identical at any value; this only trades wall-clock (default 1).
//! * `FANCY_CACHE_DIR=<dir>` — content-addressed cell-result cache for
//!   sweeps run through [`crate::runner::Sweep::try_run_cached`]
//!   (default: caching off). Warm cells are served from disk; see EXPERIMENTS.md
//!   ("Resumable sweeps") for the invalidation rules.
//! * `FANCY_TRACE_DIR=<dir>` — directory of compiled `.events` trace
//!   files for the CAIDA experiments (default: off, synthesize
//!   in-process). A sweep compiles each trace once into this directory
//!   and replays the file across every cell and loss-rate point; see
//!   EXPERIMENTS.md ("Compiled traces").
//!
//! The defaults are scaled down so `cargo bench --workspace` finishes in
//! tens of minutes while preserving every qualitative shape; the printed
//! headers state the scale used, and EXPERIMENTS.md records the deviations.

use fancy_sim::SimDuration;

/// Typed view of the `FANCY_*` environment variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEnv {
    /// `FANCY_FULL=1`: run at paper scale.
    pub full: bool,
    /// `FANCY_REPS`: explicit repetition override, if set and valid.
    pub reps: Option<u64>,
    /// `FANCY_THREADS` (or the machine's parallelism, capped at 16).
    /// Always at least 1.
    pub threads: usize,
    /// `FANCY_SHARDS`: worker threads for the sharded in-scenario DES
    /// executor. Always at least 1; does not affect results.
    pub shards: usize,
    /// `FANCY_CACHE_DIR`: directory of the content-addressed cell-result
    /// cache, if set and non-empty.
    pub cache_dir: Option<std::path::PathBuf>,
    /// `FANCY_TRACE_DIR`: directory of compiled `.events` trace files,
    /// if set and non-empty.
    pub trace_dir: Option<std::path::PathBuf>,
}

impl BenchEnv {
    /// Read and parse the environment. Unset or malformed variables fall
    /// back to their defaults — experiments never abort on a typo'd knob.
    pub fn from_env() -> Self {
        let full = std::env::var("FANCY_FULL").is_ok_and(|v| v == "1");
        let reps = std::env::var("FANCY_REPS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(|r| r.max(1));
        let threads = std::env::var("FANCY_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|t| t.max(1))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
                    .min(16)
            });
        let shards = std::env::var("FANCY_SHARDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|t| t.max(1))
            .unwrap_or(1);
        let cache_dir = std::env::var("FANCY_CACHE_DIR")
            .ok()
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from);
        let trace_dir = std::env::var("FANCY_TRACE_DIR")
            .ok()
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from);
        BenchEnv {
            full,
            reps,
            threads,
            shards,
            cache_dir,
            trace_dir,
        }
    }

    /// Resolve the experiment scale these knobs select.
    pub fn scale(&self) -> Scale {
        let mut s = if self.full {
            Scale {
                reps: 10,
                duration: SimDuration::from_secs(30),
                multi_entries: 100,
                trace_scale: 0.04,
                trace_failures: 120,
                full: true,
            }
        } else {
            Scale {
                reps: 3,
                duration: SimDuration::from_secs(12),
                multi_entries: 20,
                trace_scale: 0.01,
                trace_failures: 36,
                full: false,
            }
        };
        if let Some(r) = self.reps {
            s.reps = r;
        }
        s
    }
}

/// Resolved experiment scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Repetitions per experiment cell.
    pub reps: u64,
    /// Simulated duration of each §5.1 experiment.
    pub duration: SimDuration,
    /// Entries failing simultaneously in the Figure 9b experiment.
    pub multi_entries: usize,
    /// CAIDA trace scale (fraction of published rates and prefix counts).
    pub trace_scale: f64,
    /// Failed prefixes sampled per trace/loss-rate in the Table 3 runs
    /// (the paper fails the top 10 000 one by one; we stratify-sample).
    pub trace_failures: usize,
    /// True when running at paper scale.
    pub full: bool,
}

impl Scale {
    /// Read the scale from the environment (via [`BenchEnv::from_env`]).
    pub fn from_env() -> Self {
        BenchEnv::from_env().scale()
    }

    /// One-line description for experiment headers.
    pub fn describe(&self) -> String {
        format!(
            "{} scale: {} reps, {:.0}s runs, {} simultaneous entries, trace scale {}",
            if self.full { "PAPER" } else { "QUICK" },
            self.reps,
            self.duration.as_secs_f64(),
            self.multi_entries,
            self.trace_scale,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var mutation is process-global, so everything lives in one test.
    #[test]
    fn env_parsing_and_scale_resolution() {
        // Defaults with nothing set.
        std::env::remove_var("FANCY_FULL");
        std::env::remove_var("FANCY_REPS");
        std::env::remove_var("FANCY_THREADS");
        let e = BenchEnv::from_env();
        assert!(!e.full);
        assert_eq!(e.reps, None);
        assert!(e.threads >= 1 && e.threads <= 16);
        let s = e.scale();
        assert_eq!(s.reps, 3);
        assert!(!s.full);

        // Explicit knobs.
        std::env::set_var("FANCY_FULL", "1");
        std::env::set_var("FANCY_REPS", "7");
        std::env::set_var("FANCY_THREADS", "3");
        let e = BenchEnv::from_env();
        assert!(e.full);
        assert_eq!(e.reps, Some(7));
        assert_eq!(e.threads, 3);
        let s = e.scale();
        assert!(s.full);
        assert_eq!(s.reps, 7);
        assert_eq!(s.duration, SimDuration::from_secs(30));

        // Malformed values fall back instead of aborting; zero clamps to 1.
        std::env::set_var("FANCY_REPS", "many");
        std::env::set_var("FANCY_THREADS", "0");
        let e = BenchEnv::from_env();
        assert_eq!(e.reps, None);
        assert_eq!(e.threads, 1);
        assert_eq!(e.scale().reps, 10); // full still set

        // Shard workers: default 1, malformed → 1, zero clamps to 1.
        std::env::remove_var("FANCY_SHARDS");
        assert_eq!(BenchEnv::from_env().shards, 1);
        std::env::set_var("FANCY_SHARDS", "8");
        assert_eq!(BenchEnv::from_env().shards, 8);
        std::env::set_var("FANCY_SHARDS", "0");
        assert_eq!(BenchEnv::from_env().shards, 1);
        std::env::set_var("FANCY_SHARDS", "all");
        assert_eq!(BenchEnv::from_env().shards, 1);
        std::env::remove_var("FANCY_SHARDS");

        // Cache knob: empty means unset.
        std::env::set_var("FANCY_CACHE_DIR", "/tmp/fancy-cache-test");
        assert_eq!(
            BenchEnv::from_env().cache_dir,
            Some(std::path::PathBuf::from("/tmp/fancy-cache-test"))
        );
        std::env::set_var("FANCY_CACHE_DIR", "");
        assert_eq!(BenchEnv::from_env().cache_dir, None);
        std::env::remove_var("FANCY_CACHE_DIR");
        assert_eq!(BenchEnv::from_env().cache_dir, None);

        // Compiled-trace knob: same empty-means-unset convention.
        std::env::set_var("FANCY_TRACE_DIR", "/tmp/fancy-trace-test");
        assert_eq!(
            BenchEnv::from_env().trace_dir,
            Some(std::path::PathBuf::from("/tmp/fancy-trace-test"))
        );
        std::env::set_var("FANCY_TRACE_DIR", "");
        assert_eq!(BenchEnv::from_env().trace_dir, None);
        std::env::remove_var("FANCY_TRACE_DIR");
        assert_eq!(BenchEnv::from_env().trace_dir, None);

        std::env::remove_var("FANCY_FULL");
        std::env::remove_var("FANCY_REPS");
        std::env::remove_var("FANCY_THREADS");
    }
}
