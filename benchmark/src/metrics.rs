//! The metric dictionary: every name the benchmark can print, with its
//! unit and direction. `BENCHMARK.json` at the repo root lists the same
//! names (a self-test keeps the two in step); README.md says what each
//! measures and which end-to-end metric it should move on which workload.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: the share of the baseline by which the value
    /// may worsen before `--compare` (and the driver) call it a
    /// regression. Unused (0) for per-layer metrics.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// Reported per workload from the untraced pass.
///
/// `ok_frac` is the issue's `fail_frac` stated as its complement (clean ÷
/// attempted reps): the benchmark contract excludes metrics whose healthy
/// value is 0. Its bound is as good as none — one failed rep in a run of
/// fifty already costs 2 %.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.05),
    e2e("ok_frac", "frac", Better::Higher, 0.001),
];

/// Reported per workload from the traced pass. A workload that never
/// exercises a layer reports 0 for it (see the README's table).
pub const PER_LAYER: [MetricDef; 69] = [
    // Exact counts: repeat bit-for-bit for a given seed.
    lower("sim.kernel.events", "count"),
    lower("sim.kernel.packet_arrivals", "count"),
    lower("sim.kernel.timers_fired", "count"),
    lower("sim.kernel.packets_forwarded", "count"),
    lower("sim.event.queue_high_water", "count"),
    lower("sim.event.timer_high_water", "count"),
    lower("sim.pool.high_water", "count"),
    higher("sim.pool.recycled", "count"),
    lower("sim.failure.gray_drops", "count"),
    lower("sim.link.congestion_drops", "count"),
    lower("core.switch.tagged_packets", "count"),
    lower("core.switch.control_sent", "count"),
    lower("core.fsm.sessions_completed", "count"),
    lower("core.zoom.detections", "count"),
    lower("tcp.host.data_packets", "count"),
    lower("tcp.host.retransmissions", "count"),
    lower("sim.shard.windows", "count"),
    lower("sim.shard.null_windows", "count"),
    lower("sim.shard.msgs", "count"),
    lower("sim.shard.stall_ratio", "frac"),
    lower("trace.events_recorded", "count"),
    lower("metrics.samples", "count"),
    lower("host.allocs_per_kevent", "1/kevent"),
    lower("host.alloc_bytes_per_kevent", "B/kevent"),
    // Phase spans around public calls, floor over repetitions.
    lower("topo.generators.isp_backbone_s", "s"),
    lower("topo.routes.compute_s", "s"),
    lower("topo.spider.backup_plan_s", "s"),
    lower("topo.partition.compute_s", "s"),
    lower("traffic.caida.synthesize_s", "s"),
    lower("traffic.events.encode_s", "s"),
    lower("traffic.events.compile_s", "s"),
    lower("traffic.reader.open_s", "s"),
    lower("traffic.reader.to_trace_s", "s"),
    higher("traffic.reader.mflows_per_s", "Mflows/s"),
    higher("traffic.caida.mflows_per_s", "Mflows/s"),
    lower("apps.spec.build_s", "s"),
    lower("apps.sharded.build_sharded_s", "s"),
    lower("sim.network.run_s", "s"),
    lower("bench.caida_exp.cell_s", "s"),
    lower("bench.runner.sweep_overhead_s", "s"),
    lower("analysis.timeline.replay_s", "s"),
    // Unit costs of public functions in a tight loop.
    lower("sim.event.push_pop_near_ns", "ns"),
    lower("sim.event.push_pop_rto_mix_ns", "ns"),
    lower("sim.pool.insert_remove_ns", "ns"),
    lower("core.tree.hash_path_ns", "ns"),
    lower("core.zoom.tag_and_count_ns", "ns"),
    lower("core.zoom.end_session_ns", "ns"),
    lower("core.fsm.session_roundtrip_ns", "ns"),
    lower("tcp.flow.ack_step_ns", "ns"),
    lower("trace.sink.ring_record_ns", "ns"),
    lower("trace.json.encode_ns", "ns"),
    lower("trace.json.parse_ns", "ns"),
    lower("metrics.registry.inc_ns", "ns"),
    lower("metrics.registry.observe_ns", "ns"),
    lower("metrics.snapshot.merge_ns", "ns"),
    lower("metrics.snapshot.jsonl_ns", "ns"),
    lower("bench.cache.store_load_us", "us"),
    lower("model.unattributed_frac", "frac"),
    // Differentials: same input, one layer toggled.
    lower("sim.kernel.ns_per_event", "ns"),
    lower("sim.kernel.ns_per_pkt_hop", "ns"),
    lower("core.switch.ns_per_pkt_hop", "ns"),
    lower("trace.ring_on_overhead_frac", "frac"),
    lower("metrics.hub_on_overhead_frac", "frac"),
    lower("sim.shard.w1_overhead_frac", "frac"),
    higher("sim.shard.w2_speedup", "x"),
    lower("host.noise_ratio", "x"),
    lower("host.trace_overhead_frac", "frac"),
    // How faithfully the traced pass's rebuilt cells match what the
    // harness ran (1 = event-for-event).
    higher("bench.mirror.event_ratio", "frac"),
    lower("bench.mirror.cells", "count"),
];

pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {:?}",
                m.name
            );
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "duplicate metric {}",
                m.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
