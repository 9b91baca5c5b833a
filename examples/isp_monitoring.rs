//! ISP-scale monitoring: the full FANcY system on realistic skewed traffic.
//!
//! Synthesizes a (scaled) CAIDA-like trace, gives the top prefixes
//! dedicated counters, leaves the long tail to the hash-based tree, breaks
//! a handful of prefixes across both classes, and prints the operator
//! report with hash paths resolved back to prefixes.
//!
//! ```sh
//! cargo run --release --example isp_monitoring
//! ```

use fancy::apps::{format_report, ScenarioError, ScenarioSpec};
use fancy::prelude::*;
use fancy::sim::SimDuration;
use fancy::traffic::{paper_traces, synthesize};

fn main() -> Result<(), ScenarioError> {
    let duration = SimDuration::from_secs(10);
    // 1 % of the published equinix-chicago trace: ≈60 Mbps over ≈2500
    // /24 prefixes with Zipf-skewed popularity.
    let trace = synthesize(paper_traces()[0], duration, 0.01, 2024);
    println!(
        "synthesized trace: {} flows over {} prefixes",
        trace.flows.len(),
        trace.prefixes_by_rank.len()
    );

    // Allocation based on "historical data": dedicated counters for the
    // top 8 prefixes, best-effort tree for everything else.
    let dedicated = trace.top_prefixes(8);
    let mut sc = ScenarioSpec::linear()
        .seed(7)
        .flows(trace.flows.clone())
        .high_priority(dedicated.clone())
        .build()?;
    // Break one hot prefix (dedicated-covered), one mid-rank prefix
    // (tree-covered), and one cold prefix (tree-covered, little traffic).
    let victims = [
        ("hot/dedicated", trace.prefixes_by_rank[2], 0.5),
        ("warm/tree", trace.prefixes_by_rank[40], 0.5),
        ("cold/tree", trace.prefixes_by_rank[600], 0.5),
    ];
    let fail_at = SimTime(2_000_000_000);
    for (_, p, loss) in victims {
        sc.fail(GrayFailure::single_entry(p, loss, fail_at));
    }
    sc.net.run_until(SimTime::ZERO + duration);

    let (s1, monitored_port) = (sc.switches[0], sc.monitored_edge().port_a);
    let sw: &FancySwitch = sc.net.node(s1);
    let hasher = sw.tree_hasher(monitored_port);
    println!();
    for (label, p, _) in victims {
        let detected = if dedicated.contains(&p) {
            sc.net.kernel.records.first_entry_detection(p).is_some()
        } else {
            sw.tree_flags_entry(monitored_port, p)
        };
        let drops = sc
            .net
            .kernel
            .records
            .gray_drops
            .get(&p)
            .map_or(0, |s| s.count);
        println!("{label:>14} {p}: detected = {detected}, ground-truth drops = {drops}");
    }

    // The full operator report, hash paths resolved over the trace's
    // prefix universe.
    print!(
        "\n{}",
        format_report(
            "border-sw1",
            &sc.net.kernel.records,
            Some(hasher),
            Some(&trace.prefixes_by_rank),
        )
    );

    // The kernel's telemetry counters over the whole run.
    println!("\n{}", sc.net.kernel.telemetry_snapshot().summary());
    Ok(())
}
