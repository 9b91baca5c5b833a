//! Sharded materialization of graph scenarios.
//!
//! `materialize_sharded` is the one place a validated
//! [`GraphPlan`](crate::spec) becomes simulator networks: it splits the
//! plan across a `fancy_topo::Partition` of the topology — each region
//! becomes one [`Network`] (a logical shard), intra-region links connect
//! normally, and cut edges become mirrored half-links whose traffic flows
//! through the conservative executor's barrier exchange ([`ShardedNet`]).
//! [`ScenarioSpec::build_sharded`] runs it over the topology's
//! deterministic partition; [`ScenarioSpec::build`] runs it over the
//! one-region partition and unwraps the single network.
//!
//! ## What is mirrored, exactly
//!
//! * **Port plan** — every shard connects the links incident to its own
//!   nodes in the global order (topology edges by edge index, then host
//!   links by switch index), so each switch's port numbering is the same
//!   under every partition. FIBs, monitored-port lists and SPIDER
//!   reroute tables carry over unchanged.
//! * **Addressing** — all prefixes are global
//!   ([`service_prefix`]/[`switch_src_prefix`]), so a FIB entry is
//!   meaningful regardless of which shard hosts the destination.
//! * **Seeds** — switch `i` keeps its hash seed `seed + i`. Shard `s`'s
//!   kernel RNG is seeded `seed + s·φ` (golden-ratio stride), so the
//!   lone shard of a one-region build is exactly `Network::new(seed)`.
//!
//! The determinism contract of a sharded scenario is between sharded runs:
//! results are byte-identical for every worker count (see
//! `fancy_sim::shard`). They are *not* packet-identical to the one-region
//! (single-kernel) run of the same spec — gray-failure coin flips draw from
//! per-shard RNG streams — so harness caches must key on the
//! materialization, not just the spec.

use fancy_core::{FancyLayout, TimerConfig};
use fancy_net::Prefix;
use fancy_sim::{
    DetectionRecord, FaultPlan, GrayFailure, LinkId, Network, NodeId, PortId, RemoteEnd,
    ShardedNet, SimTime, Snapshot, TelemetryCounters,
};
use fancy_topo::{Partition, Routes, Topology};

use crate::spec::{
    checked_connect, GraphPlan, ProtectedEdge, ScenarioError, ScenarioSpec, SpecKind, EDGE_LINK,
};

/// Golden-ratio stride for per-shard kernel RNG seeds: shard 0 keeps the
/// spec seed (so the one-region build is `Network::new(seed)`, the
/// single-kernel scenario), higher shards get decorrelated streams.
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// One connected link of a sharded scenario. Intra-shard edges have equal
/// `(shard, link, local)` triples on both sides; cut edges carry one
/// mirrored half-link per side.
#[derive(Debug, Clone)]
pub struct ShardEdge {
    /// Scenario-level name (topology edge name, or the host-link names of
    /// the single-kernel build).
    pub name: String,
    /// Shard owning side `a`.
    pub shard_a: usize,
    /// The link id within `shard_a`'s network (`a`'s egress half for cut
    /// edges).
    pub link_a: LinkId,
    /// `a`'s shard-local node id.
    pub local_a: NodeId,
    /// Shard owning side `b`.
    pub shard_b: usize,
    /// The link id within `shard_b`'s network.
    pub link_b: LinkId,
    /// `b`'s shard-local node id.
    pub local_b: NodeId,
    /// `a`'s port on this link.
    pub port_a: PortId,
    /// `b`'s port on this link.
    pub port_b: PortId,
    /// True when this is a cut edge (two half-links).
    pub cut: bool,
}

/// An assembled sharded scenario: the executor plus the handles
/// experiments need, with every record accessor merging across shards
/// deterministically.
pub struct ShardedScenario {
    /// The sharded executor, ready to run.
    pub net: ShardedNet,
    /// The layout every FANcY switch runs.
    pub layout: FancyLayout,
    /// The protocol timers in effect (after defaulting).
    pub timers: TimerConfig,
    /// The spec seed.
    pub seed: u64,
    /// The deterministic region decomposition this build used.
    pub partition: Partition,
    /// Global switch index → (shard, shard-local node id).
    pub switch_loc: Vec<(usize, NodeId)>,
    /// Global switch index → its sender host's (shard, local node id).
    pub sender_loc: Vec<(usize, NodeId)>,
    /// Global switch index → its receiver host's (shard, local node id).
    pub receiver_loc: Vec<(usize, NodeId)>,
    /// Every connected link: topology edges in edge-index order, then per
    /// switch the sender and receiver links — the same indexing as
    /// [`crate::spec::Scenario::edges`].
    pub edges: Vec<ShardEdge>,
    /// Indices into `edges` of the FANcY-monitored links (all topology
    /// edges).
    pub monitored: Vec<usize>,
    /// SPIDER-protected edges (global indices, as in the single-kernel
    /// build).
    pub protected: Vec<ProtectedEdge>,
    /// The source topology.
    pub topology: Topology,
    /// The computed routes.
    pub routes: Routes,
}

impl ScenarioSpec {
    /// Assemble the scenario as a sharded network over the topology's
    /// deterministic partition (graph shape only). The region count is a
    /// pure function of the topology — worker counts never change the
    /// decomposition, which is what makes merged results byte-identical
    /// across `FANCY_SHARDS` settings.
    pub fn build_sharded(self) -> Result<ShardedScenario, ScenarioError> {
        if !matches!(self.kind(), SpecKind::Graph(_)) {
            return Err(ScenarioError::Spec {
                reason: "build_sharded() requires a graph topology \
                         (linear/case-study shapes run single-kernel)"
                    .to_owned(),
            });
        }
        let plan = self.graph_plan()?;
        let partition = Partition::compute(&plan.topo);
        materialize_sharded(plan, partition)
    }
}

/// Split a validated graph plan across `partition`.
pub(crate) fn materialize_sharded(
    mut plan: GraphPlan,
    partition: Partition,
) -> Result<ShardedScenario, ScenarioError> {
    let regions = partition.regions;
    let n = plan.topo.len();
    let seed = plan.seed;

    let mut nets: Vec<Network> = (0..regions)
        .map(|s| {
            Network::for_shard(
                seed.wrapping_add(SHARD_SEED_STRIDE.wrapping_mul(s as u64)),
                s,
            )
        })
        .collect();

    // Switches first (per shard: its members in global order, so the
    // shard-local id of switch `i` is its rank among the region's
    // members), then hosts per switch: sender, receiver — the same node
    // order as the single-kernel build, restricted to each shard.
    let mut switch_loc = Vec::with_capacity(n);
    for i in 0..n {
        let s = partition.assignment[i];
        switch_loc.push((s, nets[s].add_node(Box::new(plan.switch(i)))));
    }
    let mut sender_loc = Vec::with_capacity(n);
    let mut receiver_loc = Vec::with_capacity(n);
    for i in 0..n {
        let s = partition.assignment[i];
        sender_loc.push((s, nets[s].add_node(Box::new(plan.sender(i)))));
        receiver_loc.push((s, nets[s].add_node(Box::new(plan.receiver(i)))));
    }

    // Connect: topology edges in edge-index order — each shard touches
    // only the links incident to its nodes, but always in this global
    // order, so per-switch ports equal the single-kernel port plan.
    let mut edges = Vec::with_capacity(plan.topo.edges.len() + 2 * n);
    for (idx, e) in plan.topo.edges.iter().enumerate() {
        let (sa, la) = switch_loc[e.a];
        let (sb, lb) = switch_loc[e.b];
        let (pa, pb) = plan.ports.edge_ports[idx];
        let cfg = e.spec.to_link_config();
        if sa == sb {
            let link = checked_connect(&mut nets[sa], la, lb, cfg, &e.name)?;
            edges.push(ShardEdge {
                name: e.name.clone(),
                shard_a: sa,
                link_a: link,
                local_a: la,
                shard_b: sb,
                link_b: link,
                local_b: lb,
                port_a: pa,
                port_b: pb,
                cut: false,
            });
        } else {
            if cfg.bandwidth_bps == 0 {
                return Err(ScenarioError::Link {
                    link: nets[sa].kernel.link_count(),
                    name: e.name.clone(),
                    reason: "bandwidth must be > 0",
                });
            }
            let link_a = nets[sa].connect_remote(
                la,
                cfg,
                RemoteEnd {
                    shard: sb,
                    node: lb,
                    port: pb,
                },
            );
            let link_b = nets[sb].connect_remote(
                lb,
                cfg,
                RemoteEnd {
                    shard: sa,
                    node: la,
                    port: pa,
                },
            );
            edges.push(ShardEdge {
                name: e.name.clone(),
                shard_a: sa,
                link_a,
                local_a: la,
                shard_b: sb,
                link_b,
                local_b: lb,
                port_a: pa,
                port_b: pb,
                cut: true,
            });
        }
    }
    let monitored: Vec<usize> = (0..plan.topo.edges.len()).collect();
    // Host links per switch in global order (always intra-shard).
    for i in 0..n {
        let (s, li) = switch_loc[i];
        let (_, lsend) = sender_loc[i];
        let (_, lrecv) = receiver_loc[i];
        let sname = format!("sender↔{}", plan.topo.switches[i].name);
        let link = checked_connect(&mut nets[s], lsend, li, EDGE_LINK, &sname)?;
        edges.push(ShardEdge {
            name: sname,
            shard_a: s,
            link_a: link,
            local_a: lsend,
            shard_b: s,
            link_b: link,
            local_b: li,
            port_a: 0,
            port_b: plan.ports.sender_port[i],
            cut: false,
        });
        let rname = format!("{}↔receiver", plan.topo.switches[i].name);
        let link = checked_connect(&mut nets[s], li, lrecv, EDGE_LINK, &rname)?;
        edges.push(ShardEdge {
            name: rname,
            shard_a: s,
            link_a: link,
            local_a: li,
            shard_b: s,
            link_b: link,
            local_b: lrecv,
            port_a: plan.ports.receiver_port[i],
            port_b: 0,
            cut: false,
        });
    }

    Ok(ShardedScenario {
        net: ShardedNet::new(nets, partition.lookahead),
        layout: plan.layout,
        timers: plan.timers,
        seed,
        partition,
        switch_loc,
        sender_loc,
        receiver_loc,
        edges,
        monitored,
        protected: plan.protected,
        topology: plan.topo,
        routes: plan.routes,
    })
}

impl ShardedScenario {
    /// Look an edge up by its scenario-level name.
    pub fn edge(&self, name: &str) -> Option<&ShardEdge> {
        self.edges.iter().find(|e| e.name == name)
    }

    /// Number of logical shards.
    pub fn shard_count(&self) -> usize {
        self.net.shard_count()
    }

    /// Install a gray failure on `edges[idx]`, in the `a → b` direction —
    /// the same semantics as [`crate::spec::Scenario::fail_edge`]. For cut
    /// edges the failure lands on `a`'s egress half-link, so drops are
    /// recorded (and coin flips drawn) in `a`'s shard, exactly where the
    /// single-kernel build applies them relative to the traffic manager.
    pub fn fail_edge(&mut self, idx: usize, failure: GrayFailure) {
        let e = &self.edges[idx];
        self.net
            .shard_mut(e.shard_a)
            .kernel
            .add_failure(e.link_a, e.local_a, failure);
    }

    /// Install an adversarial [`FaultPlan`] on `edges[idx]`, in the
    /// `a → b` direction — the chaos analogue of
    /// [`ShardedScenario::fail_edge`]. The plan's RNG is owned by the plan
    /// itself, so coin flips are identical regardless of which shard hosts
    /// the edge or how many workers run it; for cut edges it lands on
    /// `a`'s egress half-link like a gray failure would.
    pub fn add_fault_plan(&mut self, idx: usize, plan: FaultPlan) {
        let e = &self.edges[idx];
        self.net
            .shard_mut(e.shard_a)
            .kernel
            .add_fault_plan(e.link_a, e.local_a, plan);
    }

    /// Run all shards until `until` with `workers` threads (byte-identical
    /// results for every worker count).
    pub fn run_until(&mut self, until: SimTime, workers: usize) {
        self.net.run_until(until, workers);
    }

    /// Run until every shard's queue drains.
    pub fn run_to_end(&mut self, workers: usize) {
        self.net.run_to_end(workers);
    }

    /// Map a shard-local switch node id back to the global switch index.
    /// Switches occupy the first `region_len` local ids of each shard, in
    /// global order.
    pub fn global_switch(&self, shard: usize, local: NodeId) -> Option<usize> {
        self.partition.members(shard).nth(local)
    }

    /// All detections across shards, with `node` remapped to the *global*
    /// switch index, merged in deterministic order (time, then shard, then
    /// per-shard report order).
    pub fn detections(&self) -> Vec<DetectionRecord> {
        let mut out: Vec<DetectionRecord> = Vec::new();
        for s in 0..self.net.shard_count() {
            for d in &self.net.shard(s).kernel.records.detections {
                let mut d = d.clone();
                d.node = self
                    .global_switch(s, d.node)
                    .expect("detection from a non-switch node");
                out.push(d);
            }
        }
        out.sort_by_key(|d| d.time); // stable: ties keep shard order
        out
    }

    /// The earliest detection whose scope is exactly `Entry(entry)`, with
    /// the global switch index.
    pub fn first_entry_detection(&self, entry: Prefix) -> Option<DetectionRecord> {
        self.detections()
            .into_iter()
            .find(|d| d.scope == fancy_sim::DetectionScope::Entry(entry))
    }

    /// Total gray drops across all shards.
    pub fn total_gray_drops(&self) -> u64 {
        (0..self.net.shard_count())
            .map(|s| self.net.shard(s).kernel.records.total_gray_drops())
            .sum()
    }

    /// The first gray-drop time for `entry` across all shards (failure
    /// onset for detection-latency measurements).
    pub fn first_drop(&self, entry: Prefix) -> Option<SimTime> {
        (0..self.net.shard_count())
            .filter_map(|s| self.net.shard(s).kernel.records.first_drop(entry))
            .min()
    }

    /// Telemetry absorbed across all shards.
    pub fn merged_telemetry(&self) -> TelemetryCounters {
        self.net.merged_telemetry()
    }

    /// Metric snapshots of all shards, merged in shard order. Counters
    /// sum, gauges max, histograms merge — and the `fancy_shard_*` gauges
    /// stay distinct through their `shard` label.
    pub fn merged_metrics(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for s in 0..self.net.shard_count() {
            if let Some(hub) = self.net.shard(s).kernel.metrics_hub() {
                merged.merge(&hub.snapshot());
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{service_prefix, uniform_pair_flows, PairFlow};
    use fancy_net::mix64;
    use fancy_sim::{DetectorKind, SimDuration};
    use fancy_tcp::{FlowConfig, ReceiverHost};
    use fancy_topo::{LinkSpec, TopologyBuilder};

    fn ring(n: usize, with_chords: bool) -> Topology {
        let mut b = TopologyBuilder::new();
        for i in 0..n {
            b.switch(&format!("r{i}")).unwrap();
        }
        let spec = LinkSpec::new(10_000_000_000, SimDuration::from_millis(1));
        for i in 0..n {
            b.link(i, (i + 1) % n, spec).unwrap();
        }
        if with_chords {
            for i in 0..n / 2 {
                b.link(i, i + n / 2, spec).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn sharded_build_splits_the_ring() {
        let sc = ScenarioSpec::topology(ring(8, true))
            .seed(3)
            .build_sharded()
            .unwrap();
        assert!(sc.shard_count() > 1, "an 8-ring must split");
        assert!(sc.edges.iter().any(|e| e.cut), "some edge must be cut");
        // Host links never cut; edge indexing matches the single-kernel
        // layout (topology edges first).
        assert!(sc.edges[sc.topology.edges.len()..].iter().all(|e| !e.cut));
        assert_eq!(sc.edges.len(), sc.topology.edges.len() + 2 * 8);
        // Port mirror: every edge's ports equal the single-kernel build's.
        let single = ScenarioSpec::topology(ring(8, true))
            .seed(3)
            .build()
            .unwrap();
        for (se, ge) in sc.edges.iter().zip(&single.edges) {
            assert_eq!(se.name, ge.name);
            assert_eq!((se.port_a, se.port_b), (ge.port_a, ge.port_b));
        }
    }

    #[test]
    fn traffic_crosses_shard_boundaries() {
        let flows = uniform_pair_flows(8, 2, 2_000_000, 0.5, 7);
        let mut sc = ScenarioSpec::topology(ring(8, true))
            .seed(7)
            .pair_flows(flows)
            .build_sharded()
            .unwrap();
        sc.run_until(SimTime(1_500_000_000), 1);
        let mut delivered = 0u64;
        for i in 0..8 {
            let (s, l) = sc.receiver_loc[i];
            let rx: &ReceiverHost = sc.net.shard(s).node(l);
            delivered += rx.data_packets;
        }
        assert!(delivered > 100, "got {delivered} data packets");
        assert!(
            sc.net.stats().iter().any(|st| st.msgs_sent > 0),
            "cross-shard traffic expected"
        );
    }

    #[test]
    fn detects_failure_on_a_cut_edge() {
        let topo = ring(8, true);
        let entry = service_prefix(4);
        let flows: Vec<PairFlow> = (0..30)
            .map(|k| PairFlow {
                src: 1,
                dst: 4,
                start: SimTime(k * 50_000_000),
                cfg: FlowConfig::for_rate(2_000_000, 1.0),
            })
            .collect();
        let mut sc = ScenarioSpec::topology(topo)
            .seed(5)
            .high_priority(vec![entry])
            .pair_flows(flows)
            .build_sharded()
            .unwrap();
        // Fail the first hop of the 1 → 4 path, oriented a → b as the
        // single-kernel test does.
        let first = sc.routes.next_edge(1, 4, mix64(u64::from(entry.0)));
        sc.fail_edge(
            first,
            GrayFailure::single_entry(entry, 1.0, SimTime(1_000_000_000)),
        );
        // The flow may route through the edge in the b → a direction;
        // install the mirror too so the drop is guaranteed on-path.
        {
            let e = sc.edges[first].clone();
            sc.net.shard_mut(e.shard_b).kernel.add_failure(
                e.link_b,
                e.local_b,
                GrayFailure::single_entry(entry, 1.0, SimTime(1_000_000_000)),
            );
        }
        sc.run_until(SimTime(4_000_000_000), 2);
        let det = sc
            .first_entry_detection(entry)
            .expect("sharded network-wide FANcY must detect the failing entry");
        assert_eq!(det.detector, DetectorKind::DedicatedCounter);
        assert!(sc.total_gray_drops() > 0);
        assert!(sc.first_drop(entry).is_some());
    }

    #[test]
    fn worker_count_never_changes_results() {
        let run = |workers: usize| {
            let flows = uniform_pair_flows(8, 2, 2_000_000, 0.5, 7);
            let mut sc = ScenarioSpec::topology(ring(8, true))
                .seed(7)
                .high_priority(vec![service_prefix(3)])
                .pair_flows(flows)
                .build_sharded()
                .unwrap();
            sc.fail_edge(
                0,
                GrayFailure::single_entry(service_prefix(3), 0.5, SimTime(200_000_000)),
            );
            sc.run_until(SimTime(1_000_000_000), workers);
            let t = sc.merged_telemetry();
            (
                t.events_dispatched,
                t.packets_forwarded,
                sc.total_gray_drops(),
                sc.detections().len(),
                sc.net.stats().iter().map(|s| s.msgs_sent).sum::<u64>(),
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
        assert!(one.0 > 0);
    }

    #[test]
    fn cross_shard_chaos_is_worker_invariant() {
        // Chaos (bursty data loss) on a *cut* edge plus a hard gray
        // failure on another edge: the overlapping-failure shape of the
        // multi-failure sweeps. Plan RNG is plan-owned, so results must
        // be byte-identical from 1 worker to 8.
        let run = |workers: usize| {
            let flows = uniform_pair_flows(8, 2, 2_000_000, 0.5, 11);
            let mut sc = ScenarioSpec::topology(ring(8, true))
                .seed(11)
                .high_priority(vec![service_prefix(3)])
                .pair_flows(flows)
                .build_sharded()
                .unwrap();
            let cut = sc
                .edges
                .iter()
                .position(|e| e.cut)
                .expect("an 8-ring split must cut an edge");
            sc.add_fault_plan(
                cut,
                FaultPlan::new(0xC4A0 ^ cut as u64).stage(
                    fancy_sim::FaultStage::new(fancy_sim::FaultTarget::Data)
                        .gilbert_elliott(0.05, 0.2, 0.0, 0.9)
                        .starting(SimTime(200_000_000)),
                ),
            );
            sc.fail_edge(
                0,
                GrayFailure::single_entry(service_prefix(3), 1.0, SimTime(200_000_000)),
            );
            sc.run_until(SimTime(1_500_000_000), workers);
            let t = sc.merged_telemetry();
            (
                t.events_dispatched,
                t.packets_forwarded,
                t.chaos_drops,
                sc.total_gray_drops(),
                sc.detections().len(),
                sc.net.stats().iter().map(|s| s.msgs_sent).sum::<u64>(),
            )
        };
        let one = run(1);
        assert_eq!(one, run(8));
        assert!(one.2 > 0, "chaos must actually drop packets: {one:?}");
    }

    #[test]
    fn non_graph_shapes_are_rejected() {
        let err = ScenarioSpec::linear().build_sharded();
        assert!(matches!(err, Err(ScenarioError::Spec { .. })));
    }
}
