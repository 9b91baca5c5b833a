//! Render the deterministic metrics plane of an `isp_backbone` scenario.
//!
//! Builds a small generated backbone, monitors every edge with FANcY,
//! fails one edge, and scrapes the metrics registry at a fixed sim-time
//! cadence (100 ms). The run then renders:
//!
//! * the scrape series — one row per in-sim scrape, a deterministic
//!   "time series" no wall-clock scraper could reproduce;
//! * the final snapshot in both exporter formats (Prometheus text
//!   exposition and `fancy-metrics` JSONL).
//!
//! Because every sample is sim-time-derived, the Prometheus output is
//! byte-identical on any machine at any thread count. The CI gate
//! exploits that:
//!
//! ```sh
//! cargo run --release --example metrics_report                    # render
//! cargo run --release --example metrics_report -- --golden tests/golden/metrics_report.prom
//! cargo run --release --example metrics_report -- --write-golden tests/golden/metrics_report.prom
//! ```
//!
//! `--golden` diffs the Prometheus text against the committed file and
//! exits non-zero on any drift (schema-drift guard, same spirit as the
//! `trace_report` self-test). Any other argument, a flag given twice or
//! without its path, or both flags together is a usage error (exit 2),
//! caught before the scenario runs.

use std::process::ExitCode;

use fancy::apps::{IncidentConfig, IncidentTracker};
use fancy::prelude::*;
use fancy::sim::scrape::DEFAULT_SCRAPE_INTERVAL;
use fancy_bench::netwide::directed_victim;

const USAGE: &str = "usage: metrics_report [--golden PATH | --write-golden PATH]";

/// The one optional `(flag, path)`, from one walk over the command line.
fn parse_args() -> Result<Option<(String, String)>, String> {
    let mut args = std::env::args().skip(1);
    let mut found: Option<(String, String)> = None;
    while let Some(flag) = args.next() {
        if flag != "--golden" && flag != "--write-golden" {
            return Err(format!("unknown argument '{flag}'"));
        }
        let path = args.next().ok_or_else(|| format!("{flag} needs a path"))?;
        if let Some((first, _)) = &found {
            return Err(format!("{flag} after {first}: give one flag, once"));
        }
        found = Some((flag, path));
    }
    Ok(found)
}

fn main() -> ExitCode {
    let golden = match parse_args() {
        Ok(golden) => golden,
        Err(e) => {
            eprintln!("metrics_report: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = 0x5EED_u64;
    let topo = isp_backbone(6, seed).expect("backbone generation");
    let routes = Routes::compute(&topo).expect("route computation");

    // Fail the first edge that carries service traffic, aiming the
    // victim flows along it exactly like the netwide sweep does.
    let (edge, src, dst) = (0..topo.edges.len())
        .find_map(|e| directed_victim(&topo, &routes, e).map(|(s, d)| (e, s, d)))
        .expect("backbone has a traffic-carrying edge");
    let victim = service_prefix(dst);
    let edge_name = topo.edges[edge].name.clone();
    let fail_at = SimTime(1_500_000_000);
    let horizon = SimTime(4_000_000_000);

    let mut flows = uniform_pair_flows(topo.len(), 2, 2_000_000, 1.0, seed);
    for rep in 0..4u64 {
        flows.push(PairFlow {
            src,
            dst,
            start: SimTime(rep * 1_000_000_000),
            cfg: FlowConfig::for_rate(2_000_000, 1.0),
        });
    }
    let mut sc = ScenarioSpec::topology(topo)
        .seed(seed)
        .high_priority(vec![victim])
        .pair_flows(flows)
        .build()
        .expect("scenario build");

    // The metrics plane: a hub on the kernel plus the in-sim scraper.
    let hub = MetricsHub::new();
    sc.net.kernel.set_metrics(hub.clone());
    let interval = DEFAULT_SCRAPE_INTERVAL;
    sc.net.add_node(Box::new(ScrapeNode::new(interval)));

    sc.fail_edge(edge, GrayFailure::single_entry(victim, 0.5, fail_at));
    sc.net.run_until(horizon);

    // Fold the detection stream into incident-lifecycle metrics.
    let mut tracker = IncidentTracker::new(IncidentConfig::default());
    let incidents =
        tracker.ingest_all_metered(&sc.net.kernel.records.detections, sc.net.kernel.now(), &hub);

    println!(
        "failed edge {edge_name} at {:.1}s; {} incidents; scrape cadence {} ms",
        fail_at.as_nanos() as f64 / 1e9,
        incidents.len(),
        interval.as_nanos() / 1_000_000,
    );

    // The scrape series: every sample point is a sim-time instant.
    let series = hub.series();
    println!("\nscrape series ({} scrapes):", series.len());
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>8}",
        "t(ms)", "samples", "events", "forwarded", "gray"
    );
    let none = Labels::new();
    for (i, (t_ns, snap)) in series.iter().enumerate() {
        // Print every 5th row (plus the last) to keep the table short.
        if i % 5 != 0 && i + 1 != series.len() {
            continue;
        }
        println!(
            "{:>8} {:>8} {:>10} {:>10} {:>8}",
            t_ns / 1_000_000,
            snap.len(),
            snap.gauge("fancy_kernel_events_dispatched", &none)
                .unwrap_or(0),
            snap.gauge("fancy_kernel_packets_forwarded", &none)
                .unwrap_or(0),
            snap.gauge("fancy_kernel_packets_gray_dropped", &none)
                .unwrap_or(0),
        );
    }

    let snap = hub.snapshot();
    let prom = snap.to_prometheus();

    match golden.as_ref().map(|(flag, path)| (flag.as_str(), path)) {
        Some(("--golden", path)) => {
            let want = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("metrics_report: cannot read golden {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if want != prom {
                eprintln!("metrics_report: Prometheus output drifted from {path}");
                for (i, (w, g)) in prom.lines().zip(want.lines()).enumerate() {
                    if w != g {
                        eprintln!(
                            "  first diff at line {}:\n    got:  {w}\n    want: {g}",
                            i + 1
                        );
                        break;
                    }
                }
                let (got_n, want_n) = (prom.lines().count(), want.lines().count());
                if got_n != want_n {
                    eprintln!("  line count: got {got_n}, want {want_n}");
                }
                eprintln!("  regenerate with: cargo run --release --example metrics_report -- --write-golden {path}");
                return ExitCode::FAILURE;
            }
            println!(
                "\ngolden check: {} lines match {path}",
                prom.lines().count()
            );
        }
        Some((_, path)) => {
            if let Err(e) = std::fs::write(path, &prom) {
                eprintln!("metrics_report: cannot write golden {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("\nwrote {} lines to {path}", prom.lines().count());
        }
        None => {
            println!("\nfinal snapshot — Prometheus text exposition:\n{prom}");
            println!(
                "final snapshot — JSONL ({} samples, {} bytes)",
                snap.len(),
                snap.to_jsonl().len(),
            );
        }
    }
    ExitCode::SUCCESS
}
