//! The benchmark's own end-to-end test: every workload at toy size
//! (three timed reps, a fraction of the simulated time), traced, must yield
//! every metric in the dictionary. One test function on purpose — it
//! pins `FANCY_*` variables, which are process-global.

use std::collections::BTreeSet;

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::report;
use crate::run::{self, Plan, WorkloadResult};
use crate::span;
use crate::workloads::{Env, NAMES};

fn toy_env(seed: u64, tag: &str) -> Env {
    let exe = std::env::current_exe().expect("test binary has a path");
    let tmp = exe
        .parent()
        .expect("test binary has a directory")
        .join(format!(
            "fancy-benchmark-selftest-{}-{tag}",
            std::process::id()
        ));
    std::fs::create_dir_all(&tmp).expect("scratch dir inside the target dir");
    Env {
        seed,
        toy: true,
        workers: crate::workloads::sharded_workers(),
        tmp,
    }
}

fn toy_run(seed: u64, trace: bool, tag: &str) -> Vec<WorkloadResult> {
    let plan = Plan {
        workloads: NAMES.iter().map(|s| (*s).to_owned()).collect(),
        // No budget: the fewest timed rounds the loop allows.
        seconds: 0.0,
        trace,
    };
    let env = toy_env(seed, tag);
    let results = run::run(&plan, &env);
    std::fs::remove_dir_all(&env.tmp).ok();
    results.expect("toy run completes")
}

#[test]
fn every_workload_yields_every_metric_at_toy_size() {
    crate::scrub_environment().expect("environment scrubs clean");
    let results = toy_run(5, true, "traced");
    assert_eq!(results.len(), NAMES.len());

    let mut seen = BTreeSet::new();
    for r in &results {
        assert_eq!(
            (r.ledger.failed, r.ledger.problems.as_slice()),
            (0, [].as_slice()),
            "{} had failing reps",
            r.name
        );
        // warm-up + 3 timed + heap rep + traced pass
        assert_eq!(r.ledger.attempted, 6, "{}", r.name);
        assert!(r.ledger.digest.is_some(), "{} has no sim_digest", r.name);
        for (m, v) in report::end_to_end(r) {
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", r.name, m.name);
        }
        for (name, v) in &r.layers {
            assert!(v.is_finite(), "{} {name} = {v}", r.name);
            seen.insert(*name);
        }
        assert!(!r.spans.is_empty(), "{} recorded no spans", r.name);

        // The span file parses back into the same spans and self times.
        let doc = json::parse(&span::to_json(&r.spans).pretty()).expect("span file parses");
        let back = span::check(&doc).expect("self times are consistent");
        assert_eq!(back, r.spans);
        assert_eq!(span::self_times_ns(&back), span::self_times_ns(&r.spans));
    }
    // Between them the five workloads exercise every layer. The
    // two-worker speed-up needs a second CPU to exist.
    let two_cpus = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    for m in &PER_LAYER {
        if m.name == "sim.shard.w2_speedup" && !two_cpus {
            continue;
        }
        assert!(seen.contains(m.name), "no workload reported {}", m.name);
    }

    // Same spec, two executors: the simulated statistics must agree.
    let digest = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| r.ledger.digest)
    };
    assert_eq!(digest("backbone_plain"), digest("backbone_sharded"));

    // The driver line: exactly the four keys, every per-layer metric
    // present with its unit when traced, every end-to-end one when not.
    for (slice, traced, want) in [
        (&results[..1], true, PER_LAYER.len()),
        (&results[..1], false, END_TO_END.len()),
    ] {
        let line = json::parse(&report::driver_line(slice, traced)).expect("driver line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        assert_eq!(metrics.len(), want);
        for v in metrics.values() {
            assert!(v
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite));
            assert!(v.get("unit").and_then(Json::as_str).is_some());
        }
    }

    // Same seed → same digests; another seed → different ones.
    let again = toy_run(5, false, "again");
    let other = toy_run(6, false, "other");
    for ((a, b), c) in results.iter().zip(&again).zip(&other) {
        assert_eq!(
            a.ledger.digest, b.ledger.digest,
            "{} is not repeatable",
            a.name
        );
        // fwd_udp has no seeded input beyond the kernel's RNG seed, which
        // bare forwarding never draws from.
        if a.name != "fwd_udp" {
            assert_ne!(
                a.ledger.digest, c.ledger.digest,
                "{} ignores its seed",
                a.name
            );
        }
    }
}

/// `BENCHMARK.json` is the contract an outside driver reads; the
/// dictionary in `metrics.rs` is what the program prints. They must
/// name the same workloads, metrics, units, directions and bounds.
#[test]
fn benchmark_json_matches_the_dictionary() {
    // Compiled in rather than read at run time: the other test mutates
    // the environment, and looking the file up would mean reading it.
    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");

    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks '{key}'"))
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    };
    assert_eq!(names("workloads"), NAMES);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(run::DEFAULT_SECONDS)
    );
    assert_eq!(
        doc.get("paths"),
        Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
    );

    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        assert_eq!(
            names(key),
            table.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{key}"
        );
        for (entry, m) in doc
            .get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .zip(table)
        {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                m.name
            );
            if key == "end_to_end" {
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    Some(m.bound),
                    "{}",
                    m.name
                );
            }
        }
    }
}
