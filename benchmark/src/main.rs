//! The FANcY simulator's performance ledger.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --seed N [--workload W]... [--seconds S] [--trace [0|1]] \
//!     [--out F] [--trace-out F]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! Generates every input from `--seed`, runs the selected workloads
//! closed-loop, checks their outputs, and prints every metric as
//! `workload metric value unit`; the last line of stdout is a JSON
//! summary. README.md is the metric dictionary.

mod alloc;
mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod report;
mod run;
mod span;
mod stats;
mod workloads;

#[cfg(test)]
mod selftest;

use std::path::PathBuf;
use std::process::ExitCode;

use fancy_bench::cache::CellCache;

use run::Plan;
use workloads::Env;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: fancy-benchmark --seed N [--workload W]... [--seconds S] \
[--trace [0|1]] [--out FILE] [--trace-out FILE]\n       fancy-benchmark --compare A.json B.json";

#[derive(Debug, PartialEq)]
enum Mode {
    Run {
        seed: u64,
        plan: Plan,
        out: Option<PathBuf>,
        trace_out: Option<PathBuf>,
    },
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut seed = 1u64;
    let mut plan = Plan {
        workloads: Vec::new(),
        seconds: run::DEFAULT_SECONDS,
        trace: false,
    };
    let (mut out, mut trace_out) = (None, None);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("a number")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not a u64"))?;
            }
            "--workload" => plan.workloads.push(value("a workload name")?),
            "--seconds" => {
                let v = value("a duration")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: '{v}' is not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds: {v} is not a positive duration"));
                }
                plan.seconds = s;
            }
            "--trace" => {
                // Bare flag, or followed by 0/1.
                plan.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => out = Some(PathBuf::from(value("a path")?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                let a = value("two result files")?;
                let b = value("two result files")?;
                return Ok(Mode::Compare(a, b));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if plan.workloads.is_empty() {
        plan.workloads = workloads::NAMES.iter().map(|s| (*s).to_owned()).collect();
    }
    Ok(Mode::Run {
        seed,
        plan,
        out,
        trace_out,
    })
}

/// The harness reads `FANCY_*` variables deep inside (`Sweep::new`,
/// `cache_from_env`): an inherited `FANCY_CACHE_DIR` would turn reps
/// into cache hits and an unset `FANCY_THREADS` fans sweeps out over
/// every core. Pin both before anything runs.
fn scrub_environment() -> Result<(), String> {
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FANCY_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }
    std::env::set_var("FANCY_THREADS", "1");
    if CellCache::from_env().is_some() {
        return Err(
            "a cell cache is still configured after scrubbing FANCY_* variables".to_owned(),
        );
    }
    Ok(())
}

/// Scratch space next to the executable, i.e. inside the cargo target
/// directory: never outside the checkout, never tracked.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join(format!("fancy-benchmark-tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (seed, plan, out, trace_out) = match parse_args(&args)? {
        Mode::Compare(a, b) => return compare::run(&a, &b),
        Mode::Run {
            seed,
            plan,
            out,
            trace_out,
        } => (seed, plan, out, trace_out),
    };
    scrub_environment()?;
    let env = Env {
        seed,
        toy: false,
        workers: workloads::sharded_workers(),
        tmp: scratch_dir()?,
    };
    let results = run::run(&plan, &env);
    std::fs::remove_dir_all(&env.tmp).ok();
    let results = results?;

    report::print_lines(&results, plan.trace);
    if let Some(path) = &out {
        report::write_file(path, &report::result_file(&plan, &env, &results))?;
    }
    if let Some(path) = &trace_out {
        report::write_file(path, &report::span_file(&results))?;
        report::check_span_file(path, &results)?;
    }
    println!("{}", report::driver_line(&results, plan.trace));
    Ok(results.iter().all(|r| r.ledger.failed == 0))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fancy-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_and_manual_argument_forms_parse() {
        let Mode::Run { seed, plan, .. } =
            parse_args(&args("--workload fwd_udp --seed 9 --seconds 10 --trace 0")).unwrap()
        else {
            panic!("expected a run");
        };
        assert_eq!((seed, plan.trace, plan.seconds), (9, false, 10.0));
        assert_eq!(plan.workloads, ["fwd_udp"]);

        let Mode::Run { plan, out, .. } = parse_args(&args("--trace --out x.json")).unwrap() else {
            panic!("expected a run");
        };
        assert!(plan.trace);
        assert_eq!(plan.seconds, run::DEFAULT_SECONDS);
        assert_eq!(plan.workloads.len(), 5, "default is every workload");
        assert_eq!(out, Some(PathBuf::from("x.json")));

        assert!(
            matches!(parse_args(&args("--trace 1")).unwrap(), Mode::Run { plan, .. } if plan.trace)
        );
        assert_eq!(
            parse_args(&args("--compare a b")).unwrap(),
            Mode::Compare("a".into(), "b".into())
        );
        for bad in [
            "--seed x",
            "--seconds -1",
            "--seconds nan",
            "--bogus",
            "--reps 3",
            "--seconds",
            "--compare a",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} should be rejected");
        }
    }
}
