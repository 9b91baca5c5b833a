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
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// Parse the knobs from `get`, which maps a variable name to its
    /// value (`None` when unset): a pure function of `get`, so tests
    /// feed it values without touching the process environment.
    fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Self {
        let full = get("FANCY_FULL").is_some_and(|v| v == "1");
        let reps = get("FANCY_REPS")
            .and_then(|v| v.parse::<u64>().ok())
            .map(|r| r.max(1));
        let threads = get("FANCY_THREADS")
            .and_then(|v| v.parse::<usize>().ok())
            .map(|t| t.max(1))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
                    .min(16)
            });
        let shards = get("FANCY_SHARDS")
            .and_then(|v| v.parse::<usize>().ok())
            .map(|t| t.max(1))
            .unwrap_or(1);
        let cache_dir = get("FANCY_CACHE_DIR")
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from);
        let trace_dir = get("FANCY_TRACE_DIR")
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

/// An example's `--flag value` command line, read in one walk: the one
/// place the harness binaries turn argv into values.
#[derive(Debug)]
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Walk `args`: a flag not in `known`, a flag given twice, or a flag
    /// without its value is an error.
    pub fn parse(args: impl IntoIterator<Item = String>, known: &[&str]) -> Result<Self, String> {
        let mut out: Vec<(String, String)> = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument '{flag}'"));
            }
            if out.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            out.push((flag, value));
        }
        Ok(Flags(out))
    }

    /// The value given for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value given for `name` parsed as a `T`, or `default` when the
    /// flag is absent.
    pub fn value_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
            None => Ok(default),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::collection;
    use proptest::prelude::*;

    use super::*;

    /// [`BenchEnv::from_lookup`] over a fixed set of variables.
    fn parse(vars: &[(&str, &str)]) -> BenchEnv {
        let vars: HashMap<&str, &str> = vars.iter().copied().collect();
        BenchEnv::from_lookup(|k| vars.get(k).map(|v| v.to_string()))
    }

    #[test]
    fn env_parsing_and_scale_resolution() {
        // Defaults with nothing set.
        let e = parse(&[]);
        assert!(!e.full);
        assert_eq!(e.reps, None);
        assert!(e.threads >= 1 && e.threads <= 16);
        let s = e.scale();
        assert_eq!(s.reps, 3);
        assert!(!s.full);

        // Explicit knobs.
        let e = parse(&[
            ("FANCY_FULL", "1"),
            ("FANCY_REPS", "7"),
            ("FANCY_THREADS", "3"),
        ]);
        assert!(e.full);
        assert_eq!(e.reps, Some(7));
        assert_eq!(e.threads, 3);
        let s = e.scale();
        assert!(s.full);
        assert_eq!(s.reps, 7);
        assert_eq!(s.duration, SimDuration::from_secs(30));

        // Malformed values fall back instead of aborting; zero clamps to 1.
        let e = parse(&[
            ("FANCY_FULL", "1"),
            ("FANCY_REPS", "many"),
            ("FANCY_THREADS", "0"),
        ]);
        assert_eq!(e.reps, None);
        assert_eq!(e.threads, 1);
        assert_eq!(e.scale().reps, 10); // full still set

        // Shard workers: default 1, malformed → 1, zero clamps to 1.
        assert_eq!(parse(&[]).shards, 1);
        assert_eq!(parse(&[("FANCY_SHARDS", "8")]).shards, 8);
        assert_eq!(parse(&[("FANCY_SHARDS", "0")]).shards, 1);
        assert_eq!(parse(&[("FANCY_SHARDS", "all")]).shards, 1);

        // Cache knob: empty means unset.
        assert_eq!(
            parse(&[("FANCY_CACHE_DIR", "/tmp/fancy-cache-test")]).cache_dir,
            Some(std::path::PathBuf::from("/tmp/fancy-cache-test"))
        );
        assert_eq!(parse(&[("FANCY_CACHE_DIR", "")]).cache_dir, None);
        assert_eq!(parse(&[]).cache_dir, None);

        // Compiled-trace knob: same empty-means-unset convention.
        assert_eq!(
            parse(&[("FANCY_TRACE_DIR", "/tmp/fancy-trace-test")]).trace_dir,
            Some(std::path::PathBuf::from("/tmp/fancy-trace-test"))
        );
        assert_eq!(parse(&[("FANCY_TRACE_DIR", "")]).trace_dir, None);
        assert_eq!(parse(&[]).trace_dir, None);
    }

    #[test]
    fn flags_refuse_unknown_repeated_and_valueless() {
        let walk = |args: &[&str]| {
            let args = args.iter().map(|a| a.to_string());
            Flags::parse(args, &["--n", "--out"])
        };
        let f = walk(&["--n", "4"]).unwrap();
        assert_eq!(f.value_or("--n", 1u32), Ok(4));
        assert_eq!(f.value_or("--out", 1u32), Ok(1));
        assert_eq!(f.get("--out"), None);
        assert!(walk(&["--n", "x"]).unwrap().value_or("--n", 1u32).is_err());
        assert!(walk(&["--m", "4"]).is_err());
        assert!(walk(&["--n", "4", "--n", "5"]).is_err());
        assert!(walk(&["--n"]).is_err());
    }

    /// An unset variable, or a value that stresses the parser: numbers
    /// with signs, padding or `u64` overflow, and strings decoded from
    /// arbitrary bytes (non-ASCII included).
    fn knob() -> impl Strategy<Value = Option<String>> {
        let tricky = prop_oneof![
            Just(""),
            Just("0"),
            Just("1"),
            Just(" 1"),
            Just("1 "),
            Just("+4"),
            Just("-1"),
            Just("18446744073709551615"),
            Just("18446744073709551616"),
            Just("１"),
            Just("é"),
        ]
        .prop_map(|s: &str| Some(s.to_string()));
        let numeric = collection::vec((0..13usize).prop_map(|i| b"0123456789+- "[i]), 0..24)
            .prop_map(|b| Some(String::from_utf8(b).expect("ASCII bytes")));
        let bytes = collection::vec(any::<u8>(), 0..16)
            .prop_map(|b| Some(String::from_utf8_lossy(&b).into_owned()));
        prop_oneof![Just(None), tricky, numeric, bytes]
    }

    proptest! {
        #[test]
        fn arbitrary_knob_strings_parse_to_valid_settings(
            full in knob(),
            reps in knob(),
            threads in knob(),
            shards in knob(),
            cache_dir in knob(),
            trace_dir in knob(),
        ) {
            let vars: HashMap<&str, String> = [
                ("FANCY_FULL", full),
                ("FANCY_REPS", reps),
                ("FANCY_THREADS", threads),
                ("FANCY_SHARDS", shards),
                ("FANCY_CACHE_DIR", cache_dir),
                ("FANCY_TRACE_DIR", trace_dir),
            ]
            .into_iter()
            .filter_map(|(k, v)| Some((k, v?)))
            .collect();
            let var = |k: &str| vars.get(k).map(String::as_str);
            let e = BenchEnv::from_lookup(|k| var(k).map(str::to_string));
            prop_assert!(e.threads >= 1);
            prop_assert!(e.shards >= 1);
            prop_assert!(e.reps.unwrap_or(1) >= 1);
            prop_assert_eq!(e.full, var("FANCY_FULL") == Some("1"));
            prop_assert_eq!(
                e.cache_dir.is_none(),
                var("FANCY_CACHE_DIR").unwrap_or("").is_empty()
            );
            prop_assert_eq!(
                e.trace_dir.is_none(),
                var("FANCY_TRACE_DIR").unwrap_or("").is_empty()
            );
        }
    }
}
