//! Fine-grained fast rerouting (the paper's §6.1 Tofino case study).
//!
//! A FANcY switch monitors its primary path through a (faulty) link
//! switch; a backup path stands by. At t = 2 s the link switch starts
//! dropping 10 % of one prefix's packets. FANcY flags the entry and the
//! rerouting application steers *only that entry* onto the backup port —
//! the rest of the traffic never moves.
//!
//! ```sh
//! cargo run --release --example fast_reroute
//! ```

use fancy::apps::ScenarioSpec;
use fancy::prelude::*;
use fancy::sim::LinkConfig;
use fancy::sim::SimDuration;
use fancy::tcp::ReceiverHost;

fn main() -> Result<(), ScenarioError> {
    let victim = Prefix::from_addr(0x0A_00_07_00);
    let bystander = Prefix::from_addr(0x0A_00_08_00);
    let duration = SimDuration::from_secs(5);

    // 30 flows to the victim, 30 to an unaffected bystander prefix.
    let mut flows = Vec::new();
    for i in 0..30u64 {
        for &p in &[victim, bystander] {
            flows.push(ScheduledFlow {
                start: SimTime(i * 150_000_000),
                dst: p.host(1),
                cfg: FlowConfig::for_rate(4_000_000, 1.0),
            });
        }
    }
    flows.sort_by_key(|f| f.start);

    let mut cs = ScenarioSpec::case_study()
        .seed(7)
        .high_priority(vec![victim, bystander])
        .flows(flows)
        .udp_background(1_000_000, 0x0B_00_00_01, duration)
        .core_link(LinkConfig::new(1_000_000_000, SimDuration::from_micros(5)))
        .probe(ThroughputProbe::for_entries(
            "victim",
            vec![victim],
            SimDuration::from_millis(250),
        ))
        .probe(ThroughputProbe::for_entries(
            "bystander",
            vec![bystander],
            SimDuration::from_millis(250),
        ))
        .build()?;

    let fail_at = SimTime(2_000_000_000);
    cs.fail(GrayFailure::single_entry(victim, 0.10, fail_at));
    cs.net.run_until(SimTime::ZERO + duration);

    let det = cs
        .net
        .kernel
        .records
        .first_entry_detection(victim)
        .expect("10% loss must be detected");
    println!(
        "victim {victim} detected {} after failure; rerouted to backup port",
        det.time.duration_since(fail_at)
    );

    let (s1, primary_port) = (cs.switches[0], cs.monitored_edge().port_a);
    let sw: &FancySwitch = cs.net.node(s1);
    println!(
        "reroute table consult: victim rerouted = {}, bystander rerouted = {}",
        sw.is_rerouted(primary_port, victim),
        sw.is_rerouted(primary_port, bystander),
    );
    assert!(sw.is_rerouted(primary_port, victim));
    assert!(
        !sw.is_rerouted(primary_port, bystander),
        "rerouting must be fine-grained: the bystander stays on the primary path"
    );
    println!("rerouted packets so far: {}", sw.stats.rerouted_packets);

    // Throughput per 250 ms bucket at the receiver (Mbps).
    let rx: &ReceiverHost = cs.net.node(cs.receivers[0]);
    println!("\n  t(s)   victim(Mbps)  bystander(Mbps)");
    let v = rx.probes[0].bps_series();
    let b = rx.probes[1].bps_series();
    for i in 0..v.len().max(b.len()) {
        println!(
            "  {:>4.2}   {:>12.2}  {:>15.2}",
            i as f64 * 0.25,
            v.get(i).copied().unwrap_or(0.0) / 1e6,
            b.get(i).copied().unwrap_or(0.0) / 1e6,
        );
    }
    Ok(())
}
