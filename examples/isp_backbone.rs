//! Network-wide FANcY on a generated ISP backbone.
//!
//! Builds a Topology-Zoo-style backbone (ring + chords, 100 switches by
//! default), runs one network-wide sweep — each cell fails one edge
//! while FANcY monitors *every* edge concurrently — and reports
//! per-edge detection coverage, cross-talk false positives and, on
//! SPIDER-protected edges, the flight-recorder-measured detect+reroute
//! latency against its analytic bound.
//!
//! ```sh
//! cargo run --release --example isp_backbone -- --switches 100 --fail 6
//! ```
//!
//! `--fail 0` fails every edge (one cell each). The CI gate runs this
//! with `--switches 12 --fail 4`.
//!
//! `--multi K` additionally sweeps *overlapping* failures: `--combos N`
//! combinations of `K` simultaneously failed edges per cell — an
//! adversarial bursty-loss chaos plan on the first member, hard gray
//! drops on the rest — each member with its own victim entry. The
//! recovery verifier replays every protected member's flight-recorder
//! stream and the run fails unless every combo is fully detected and no
//! member violates its latency / loss-cessation contract.
//!
//! Every cell materializes *sharded*: the topology's deterministic
//! partition becomes one kernel per region, advanced conservatively by
//! `FANCY_SHARDS` worker threads. The layout is fixed by the topology,
//! so any `FANCY_SHARDS` value produces byte-identical results —
//! `--dump PREFIX` writes the evidence (a merged reference-run trace,
//! the merged metrics plane, telemetry, and per-edge outcome records)
//! to `PREFIX.*.jsonl` for exactly that diff.

use std::process::ExitCode;

use fancy::prelude::*;
use fancy_bench::netwide::{
    directed_victim, run_netwide, run_netwide_multi, MultiFault, NetwideConfig,
};
use fancy_bench::prelude::{BenchEnv, CacheCodec, Flags, Record, Scale};
use fancy_sim::metrics::MetricsHub;
use fancy_sim::trace::{events_to_jsonl, merge_shard_streams, SharedRecorder};

const USAGE: &str = "usage: isp_backbone [--switches N] [--fail N] [--multi K] [--combos N] \
                     [--seed N] [--dump PREFIX]";

struct Args {
    switches: usize,
    fail_n: usize,
    multi: usize,
    combos_n: usize,
    seed: u64,
    dump: Option<String>,
}

/// A backbone needs an edge to fail, so at least two switches.
const MIN_SWITCHES: usize = 2;

fn parse_args() -> Result<Args, String> {
    let known = [
        "--switches",
        "--fail",
        "--multi",
        "--combos",
        "--seed",
        "--dump",
    ];
    let flags = Flags::parse(std::env::args().skip(1), &known)?;
    let arg = |name, default: usize| flags.value_or(name, default);
    let switches = arg("--switches", 100)?;
    if switches < MIN_SWITCHES {
        return Err(format!(
            "--switches must be at least {MIN_SWITCHES}, got {switches}"
        ));
    }
    // `--multi 0` sweeps no overlapping failures; a combo needs at
    // least two members, and a sweep at least one combo.
    let multi = arg("--multi", 0)?;
    if multi == 1 {
        return Err("--multi must be 0 or at least 2, got 1".to_owned());
    }
    let combos_n = arg("--combos", 3)?;
    if multi >= 2 && combos_n == 0 {
        return Err("--combos must be at least 1 with --multi".to_owned());
    }
    Ok(Args {
        switches,
        fail_n: arg("--fail", 6)?,
        multi,
        combos_n,
        seed: flags.value_or("--seed", 0x15B0)?,
        dump: flags.get("--dump").map(str::to_owned),
    })
}

/// One sharded reference run on the backbone — a gray failure on edge 0
/// with per-shard flight recorders — whose merged trace, telemetry and
/// metrics are dumped for the byte-identity gate across `FANCY_SHARDS`.
fn dump_reference_run(
    topo: &Topology,
    seed: u64,
    workers: usize,
    prefix: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let victim = service_prefix(topo.len() / 2);
    let flows = uniform_pair_flows(topo.len(), 2, 2_000_000, 0.5, seed);
    let mut sc = ScenarioSpec::topology(topo.clone())
        .seed(seed)
        .high_priority(vec![victim])
        .pair_flows(flows)
        .build_sharded()?;
    let recorders: Vec<SharedRecorder> = (0..sc.shard_count())
        .map(|s| {
            let r = SharedRecorder::new(1 << 20);
            sc.net.shard_mut(s).kernel.set_tracer(Box::new(r.clone()));
            r
        })
        .collect();
    let hubs: Vec<MetricsHub> = (0..sc.shard_count())
        .map(|s| {
            let hub = MetricsHub::new();
            sc.net.shard_mut(s).kernel.set_metrics(hub.clone());
            hub
        })
        .collect();
    drop(hubs); // kernels hold clones; merged_metrics reads them back
    sc.fail_edge(
        0,
        GrayFailure::single_entry(victim, 0.8, SimTime(500_000_000)),
    );
    sc.run_until(SimTime(2_000_000_000), workers);

    let trace = events_to_jsonl(&merge_shard_streams(
        recorders.iter().map(|r| r.snapshot()).collect(),
    ));
    std::fs::write(format!("{prefix}.trace.jsonl"), trace)?;
    std::fs::write(
        format!("{prefix}.telemetry.txt"),
        format!("{:?}\n", sc.merged_telemetry()),
    )?;
    std::fs::write(
        format!("{prefix}.metrics.jsonl"),
        sc.merged_metrics().to_jsonl(),
    )?;
    Ok(())
}

/// Outcomes as cache records, one JSONL line each — the bytes the cell
/// cache stores, dumped for the byte-identity gate.
fn records<T: CacheCodec>(outcomes: &[T]) -> String {
    let mut out = String::new();
    for o in outcomes {
        let mut rec = Record::default();
        o.encode(&mut rec);
        out.push_str(&rec.to_jsonl());
        out.push('\n');
    }
    out
}

fn main() -> ExitCode {
    let Args {
        switches,
        fail_n,
        multi,
        combos_n,
        seed,
        dump,
    } = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("isp_backbone: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = BenchEnv::from_env().shards;

    let topo = match isp_backbone(switches, seed) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("isp_backbone: topology: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "backbone: {} switches, {} edges (avg degree {:.1}), fingerprint {:016x}",
        topo.len(),
        topo.edges.len(),
        2.0 * topo.edges.len() as f64 / topo.len() as f64,
        topo.fingerprint(),
    );

    // The edges an overlapping-failure combo can draw from: those that
    // carry a victim entry. A combo of fewer than `--multi` edges is not
    // the overlap asked for, so too few of them is a usage error, found
    // before any sweep runs.
    let carrying: Vec<usize> = if multi >= 2 {
        let routes = match Routes::compute(&topo) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("isp_backbone: routes: {e}");
                return ExitCode::FAILURE;
            }
        };
        let carrying: Vec<usize> = (0..topo.edges.len())
            .filter(|&e| directed_victim(&topo, &routes, e).is_some())
            .collect();
        if carrying.len() < multi {
            eprintln!(
                "isp_backbone: --multi {multi} needs {multi} traffic-carrying edges, \
                 the backbone has {}\n{USAGE}",
                carrying.len()
            );
            return ExitCode::from(2);
        }
        carrying
    } else {
        Vec::new()
    };

    // Deterministic spread of failed edges over the edge list.
    let edges: Option<Vec<usize>> = (fail_n > 0).then(|| {
        let m = fail_n.min(topo.edges.len());
        let step = topo.edges.len() / m;
        (0..m).map(|i| i * step).collect()
    });
    let cfg = NetwideConfig {
        edges,
        ..NetwideConfig::default()
    };
    let report = match run_netwide(&topo, &cfg, &Scale::from_env(), seed ^ 0xBB) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("isp_backbone: sweep: {e}");
            return ExitCode::FAILURE;
        }
    };

    let ms = |s: f64| {
        if s < 0.0 {
            "-".to_owned()
        } else {
            format!("{:.1}", s * 1e3)
        }
    };
    println!(
        "\n{:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "failed edge", "detected", "det(ms)", "xtalk", "reroute(ms)", "bound(ms)", "recovery"
    );
    for o in &report.outcomes {
        println!(
            "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9}",
            o.name,
            if !o.carries_traffic {
                "dark"
            } else if o.detected {
                "yes"
            } else {
                "NO"
            },
            ms(o.detection_s),
            o.cross_talk,
            ms(o.reroute_s),
            ms(o.bound_s),
            if !o.protected {
                "-"
            } else if o.recovery_ok {
                "ok"
            } else {
                "VIOL"
            },
        );
    }
    // Per-edge detection-latency quantiles out of the merged metrics
    // snapshots (log2 histograms: quantiles are bucket upper bounds).
    println!("\nper-edge detection latency (merged histograms):");
    let q_ms = |q: Option<u64>| match q {
        Some(ns) => format!("{:.1}", ns as f64 / 1e6),
        None => "-".to_owned(),
    };
    for (edge, h) in report.edge_detection_latency() {
        println!(
            "  {:<16} n={} p50={} ms  p99={} ms  max={} ms",
            edge,
            h.count(),
            q_ms(h.quantile(0.5)),
            q_ms(h.quantile(0.99)),
            q_ms(h.max()),
        );
    }

    // The conservative executor's per-shard breakdown, summed across
    // cells: how the one big topology split, and what the windowed
    // synchronization cost (null windows = a shard synchronized for
    // nothing).
    if let Some(shards) = report.shard_summary() {
        println!("\n{shards} ({workers} worker thread(s))");
    }

    println!(
        "\ncoverage {:.0}% over {} traffic-carrying edges; mean detection {:.1} ms; \
         cross-talk {}; reroutes within bound {}/{}; recovery violations {}",
        report.coverage * 100.0,
        report.outcomes.iter().filter(|o| o.carries_traffic).count(),
        report.mean_detection_s * 1e3,
        report.cross_talk,
        report.reroutes_within_bound,
        report.reroutes_measured,
        report.recovery_violations,
    );

    // Overlapping-failure sweep: `--combos N` combinations of `--multi K`
    // simultaneously failed edges, chaos on the first member of each.
    let multi_report = if multi >= 2 {
        let want = (combos_n * multi).min(carrying.len());
        let step = (carrying.len() / want.max(1)).max(1);
        let picked: Vec<usize> = (0..want).map(|i| carrying[i * step]).collect();
        let combos: Vec<Vec<MultiFault>> = picked
            .chunks(multi)
            .filter(|c| c.len() == multi)
            .map(|c| {
                c.iter()
                    .enumerate()
                    .map(|(j, &edge)| MultiFault {
                        edge,
                        chaos: j == 0,
                    })
                    .collect()
            })
            .collect();
        let mr = match run_netwide_multi(&topo, &cfg, &combos, &Scale::from_env(), seed ^ 0x3717) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("isp_backbone: multi sweep: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "\noverlapping failures: {} combo(s), {} edges failed simultaneously each:",
            mr.outcomes.len(),
            multi,
        );
        println!(
            "{:<6} {:<16} {:<6} {:>8} {:>10} {:>10} {:>10} {:>9}",
            "combo",
            "member",
            "mode",
            "detected",
            "det(ms)",
            "reroute(ms)",
            "bound(ms)",
            "recovery"
        );
        for (i, o) in mr.outcomes.iter().enumerate() {
            for e in &o.edges {
                println!(
                    "{:<6} {:<16} {:<6} {:>8} {:>10} {:>10} {:>10} {:>9}",
                    i,
                    e.name,
                    if e.chaos { "chaos" } else { "gray" },
                    if !e.carries_traffic {
                        "dark"
                    } else if e.detected {
                        "yes"
                    } else {
                        "NO"
                    },
                    ms(e.detection_s),
                    ms(e.reroute_s),
                    ms(e.bound_s),
                    if !e.protected {
                        "-"
                    } else if e.recovery_ok {
                        "ok"
                    } else {
                        "VIOL"
                    },
                );
            }
        }
        println!(
            "combos fully detected {}/{}; cross-talk {}; recovery violations {}",
            mr.combos_fully_detected,
            mr.outcomes.len(),
            mr.cross_talk,
            mr.recovery_violations,
        );
        Some(mr)
    } else {
        None
    };

    // Byte-identity evidence for the FANCY_SHARDS gate: a merged
    // reference-run trace + metrics, and the per-edge outcome records.
    if let Some(prefix) = dump {
        if let Err(e) = dump_reference_run(&topo, seed ^ 0x5AD, workers, &prefix) {
            eprintln!("isp_backbone: dump: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(
            format!("{prefix}.outcomes.jsonl"),
            records(&report.outcomes),
        ) {
            eprintln!("isp_backbone: dump: {e}");
            return ExitCode::FAILURE;
        }
        if let Some(mr) = &multi_report {
            if let Err(e) = std::fs::write(format!("{prefix}.combos.jsonl"), records(&mr.outcomes))
            {
                eprintln!("isp_backbone: dump: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("dumped {prefix}.{{trace,metrics,outcomes}}.jsonl + telemetry");
    }

    // The acceptance bar this example demonstrates: every failed edge
    // that carries traffic is detected, and every flight-recorder-
    // measured SPIDER reroute lands inside its analytic bound.
    if report.coverage < 1.0 {
        eprintln!("isp_backbone: coverage below 100%");
        return ExitCode::FAILURE;
    }
    if !report.outcomes.iter().any(|o| o.protected) {
        println!("no swept edge is SPIDER-protected: the reroute check does not apply");
    } else if report.reroutes_measured == 0 {
        eprintln!("isp_backbone: no SPIDER-protected edge measured a reroute");
        return ExitCode::FAILURE;
    }
    if report.reroutes_within_bound < report.reroutes_measured {
        eprintln!("isp_backbone: a measured reroute exceeded its analytic bound");
        return ExitCode::FAILURE;
    }
    if report.recovery_violations > 0 {
        eprintln!("isp_backbone: the recovery verifier found violations");
        return ExitCode::FAILURE;
    }
    // And for overlapping failures: every combo fully detected, every
    // protected member's recovery contract verified, and at least one
    // member actually exercised the reroute machinery.
    if let Some(mr) = &multi_report {
        if mr.combos_fully_detected < mr.outcomes.len() {
            eprintln!("isp_backbone: an overlapping-failure combo went undetected");
            return ExitCode::FAILURE;
        }
        if mr.recovery_violations > 0 {
            eprintln!("isp_backbone: the recovery verifier found violations in a combo");
            return ExitCode::FAILURE;
        }
        let protected: Vec<_> = mr
            .outcomes
            .iter()
            .flat_map(|o| o.edges.iter())
            .filter(|e| e.protected)
            .collect();
        if protected.is_empty() {
            println!("no combo member is SPIDER-protected: the reroute check does not apply");
        } else if protected.iter().all(|e| e.reroute_s < 0.0) {
            eprintln!("isp_backbone: no protected combo member measured a reroute");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
