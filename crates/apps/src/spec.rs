//! The unified scenario builder: one [`ScenarioSpec`] for every topology.
//!
//! Historically each experiment shape had its own config struct
//! (`LinearConfig`, `CaseStudyConfig`) and constructor. This module
//! replaces them with a single chainable [`ScenarioSpec`] that can build
//!
//! * the §5 **linear** topology (`sender — S1 — S2 — receiver`),
//! * the §6.1 **case-study** topology (link switch + backup path), and
//! * an arbitrary **graph** topology from `fancy-topo`, with FANcY
//!   instantiated on *every* inter-switch link, deterministic ECMP
//!   routing, and SPIDER-style pre-provisioned backup paths on protected
//!   edges.
//!
//! All three produce the same [`Scenario`] value: the assembled network
//! plus name-addressable [`EdgeHandle`]s for failure injection and
//! [`ProtectedEdge`] records carrying the analytic detect+reroute latency
//! bound that `fancy-trace` timelines are checked against.
//!
//! # Determinism contract
//!
//! Scenario assembly is a pure function of the spec: node ids are assigned
//! in a documented order (graph mode: switches `0..n` first — so the
//! simulator `NodeId` of switch `i` *is* `i` — then per-switch sender and
//! receiver hosts), links are connected in a documented order (graph mode:
//! topology edges in edge-index order, then per-switch host links), and
//! switch hash seeds derive from the spec seed (`seed + switch_index`,
//! matching the historical `seed`/`seed + 1` of the linear scenario).
//! Nothing iterates a hash map to make a decision — the prefix-keyed
//! tables are `fancy_net::FnvMap`s, whose order is repeatable but
//! arbitrary, and per-port state sits in port-indexed `PortTable`s — so
//! two builds of the same spec produce bit-identical networks at any
//! `FANCY_THREADS`.

use core::fmt;
use std::sync::Arc;

use fancy_core::{
    ConfigError, FancyInput, FancyLayout, FancySwitch, Reroute, TimerConfig, TreeParams,
};
use fancy_net::{mix64, Prefix};
use fancy_sim::{
    Bridge, Fib, GrayFailure, LinkConfig, LinkId, Network, NodeId, PortId, SimDuration, SimTime,
};
use fancy_tcp::{FlowConfig, ReceiverHost, ScheduledFlow, SenderHost, ThroughputProbe, UdpSource};
use fancy_topo::{BackupPlan, Partition, Routes, TopoError, Topology};

use crate::sharded::materialize_sharded;

/// Source address used by the sender host in the linear and case-study
/// scenarios. (In graph scenarios it is the address of switch 0's sender:
/// see [`switch_src_prefix`].)
pub const SENDER_ADDR: u32 = 0x01_00_00_01;

/// Every host ↔ switch link: 100 Gbps, 10 µs.
pub(crate) const EDGE_LINK: LinkConfig =
    LinkConfig::new(100_000_000_000, SimDuration::from_micros(10));

/// Per-port counter memory given to every scenario switch. Generous on
/// purpose: experiments size trees explicitly, the budget only guards
/// against runaway configs.
const MEMORY_BYTES_PER_PORT: u64 = 4 << 20;

/// The /24 prefix of traffic *sourced* at switch `i`'s sender host in a
/// graph scenario. `switch_src_prefix(0)` equals
/// `Prefix::from_addr(SENDER_ADDR)`, keeping graph addressing a superset
/// of the historical linear plan.
pub fn switch_src_prefix(i: usize) -> Prefix {
    debug_assert!(
        i < 0x0008_0000,
        "switch index overflows the src prefix plan"
    );
    Prefix(0x01_00_00 + i as u32)
}

/// The /24 service prefix *hosted* at switch `i`'s receiver in a graph
/// scenario. Flows to switch `i` address `service_prefix(i).host(1)`.
pub fn service_prefix(i: usize) -> Prefix {
    debug_assert!(
        i < 0x0008_0000,
        "switch index overflows the service prefix plan"
    );
    Prefix(0x0A_00_00 + i as u32)
}

/// Why a scenario could not be assembled.
///
/// Scenario constructors return this instead of panicking, so experiment
/// harnesses can surface a configuration problem (e.g. a tree that does
/// not fit the per-port memory budget, or a disconnected topology) as a
/// normal error. Every variant carries the identifiers needed to point at
/// the exact offending element — link ids, switch indices, route
/// endpoints — following the original `Link` variant's philosophy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// Translating the FANcY input into a switch layout failed — the
    /// requested entries/tree exceed the memory budget or are malformed.
    Layout(ConfigError),
    /// A link in the topology is misconfigured. Carries the id the link
    /// holds (or would have held) in the network plus its scenario-level
    /// name, so a harness sweeping link parameters can point at the exact
    /// offending cell instead of a bare "bad config".
    Link {
        /// Id of the offending link, in connect order.
        link: LinkId,
        /// Scenario-level name ("core s1↔s2", "bb3↔bb4", ...).
        name: String,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A switch declaration is invalid (duplicate name, unknown index,
    /// self-loop).
    Switch {
        /// Index of the offending switch (`usize::MAX` when the index
        /// itself is what is unknown).
        switch: usize,
        /// Its name, when one exists.
        name: String,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// Route computation failed between two switches.
    Route {
        /// Source switch index.
        from: usize,
        /// Destination switch index.
        to: usize,
        /// What went wrong.
        reason: &'static str,
    },
    /// A backup path-group (SPIDER protection) could not be provisioned
    /// for a protected edge.
    PathGroup {
        /// The protected edge (topology edge index).
        edge: usize,
        /// The protecting switch.
        from: usize,
        /// The destination with no loop-free alternate.
        to: usize,
        /// What went wrong.
        reason: &'static str,
    },
    /// The spec itself is inconsistent (e.g. linear-only knobs on a graph
    /// scenario, or an unknown protected-edge name).
    Spec {
        /// What is wrong with the spec.
        reason: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Layout(e) => write!(f, "scenario layout does not fit: {e}"),
            ScenarioError::Link { link, name, reason } => {
                write!(f, "link {link} ({name}): {reason}")
            }
            ScenarioError::Switch {
                switch,
                name,
                reason,
            } => {
                if *switch == usize::MAX {
                    write!(f, "switch {name:?}: {reason}")
                } else {
                    write!(f, "switch {switch} ({name}): {reason}")
                }
            }
            ScenarioError::Route { from, to, reason } => {
                write!(f, "route {from} → {to}: {reason}")
            }
            ScenarioError::PathGroup {
                edge,
                from,
                to,
                reason,
            } => write!(
                f,
                "path group for edge {edge} at switch {from} (destination {to}): {reason}"
            ),
            ScenarioError::Spec { reason } => write!(f, "invalid scenario spec: {reason}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Layout(e)
    }
}

impl From<TopoError> for ScenarioError {
    fn from(e: TopoError) -> Self {
        match e {
            TopoError::DuplicateSwitch { name } => ScenarioError::Switch {
                switch: usize::MAX,
                name,
                reason: "duplicate switch name",
            },
            TopoError::UnknownSwitch { switch } => ScenarioError::Switch {
                switch,
                name: String::new(),
                reason: "unknown switch index",
            },
            TopoError::SelfLoop { switch, name } => ScenarioError::Switch {
                switch,
                name,
                reason: "self-loop",
            },
            TopoError::BadLink { edge, name, reason } => ScenarioError::Link {
                link: edge,
                name,
                reason,
            },
            TopoError::Empty => ScenarioError::Spec {
                reason: "topology has no switches".to_owned(),
            },
            TopoError::Unreachable { from, to } => ScenarioError::Route {
                from,
                to,
                reason: "no path (topology is disconnected)",
            },
            TopoError::NoBackupPath { from, to, edge } => ScenarioError::PathGroup {
                edge,
                from,
                to,
                reason: "no loop-free alternate",
            },
        }
    }
}

/// Connect `a ↔ b` after validating the link configuration. On failure the
/// error names the link by the id it would have been assigned (connect
/// order), so the caller's message points at the exact topology edge.
pub(crate) fn checked_connect(
    net: &mut Network,
    a: NodeId,
    b: NodeId,
    cfg: LinkConfig,
    name: &str,
) -> Result<LinkId, ScenarioError> {
    let link = net.kernel.link_count();
    if cfg.bandwidth_bps == 0 {
        // Zero bandwidth would divide by zero in transmission-time math.
        return Err(ScenarioError::Link {
            link,
            name: name.to_owned(),
            reason: "bandwidth must be > 0",
        });
    }
    Ok(net.connect(a, b, cfg))
}

/// Connect each `(a, b, link, name)` in order: the edge handles of a
/// hand-wired shape. A node's port on a link is the number of links it
/// already has, which is the port [`Network::connect`] assigns, since
/// every link of these shapes is connected here.
fn wire(
    net: &mut Network,
    links: &[(NodeId, NodeId, LinkConfig, &str)],
) -> Result<Vec<EdgeHandle>, ScenarioError> {
    let mut edges: Vec<EdgeHandle> = Vec::with_capacity(links.len());
    for &(a, b, cfg, name) in links {
        let port = |n: NodeId| edges.iter().filter(|e| e.a == n || e.b == n).count();
        let (port_a, port_b) = (port(a), port(b));
        let link = checked_connect(net, a, b, cfg, name)?;
        edges.push(EdgeHandle {
            name: name.to_owned(),
            link,
            a,
            b,
            port_a,
            port_b,
        });
    }
    Ok(edges)
}

/// One TCP flow between two switches of a graph scenario: from `src`'s
/// sender host to `dst`'s service address.
#[derive(Debug, Clone)]
pub struct PairFlow {
    /// Source switch index.
    pub src: usize,
    /// Destination switch index.
    pub dst: usize,
    /// Flow start time.
    pub start: SimTime,
    /// TCP flow parameters.
    pub cfg: FlowConfig,
}

/// A deterministic uniform-random pair-flow schedule: `per_switch` flows
/// per source switch, destinations and start offsets (within the first
/// 200 ms) drawn from `seed` via `mix64`. Self-pairs are skipped by
/// construction.
pub fn uniform_pair_flows(
    switches: usize,
    per_switch: usize,
    rate_bps: u64,
    duration_s: f64,
    seed: u64,
) -> Vec<PairFlow> {
    assert!(switches >= 2, "pair flows need at least two switches");
    let mut out = Vec::with_capacity(switches * per_switch);
    for src in 0..switches {
        for k in 0..per_switch {
            let r = mix64(seed ^ ((src as u64) << 20) ^ k as u64);
            let dst = (src + 1 + (r % (switches as u64 - 1)) as usize) % switches;
            let start = SimTime(mix64(r) % 200_000_000);
            out.push(PairFlow {
                src,
                dst,
                start,
                cfg: FlowConfig::for_rate(rate_bps, duration_s),
            });
        }
    }
    out
}

/// The analytic upper bound on detect+switch latency for a SPIDER-style
/// protected edge, as a function of the protocol timers, the protected
/// link's delay, and the backup path's own propagation: the failure can
/// start right after a counting session closed (one full
/// `dedicated_interval` blind), the next session must complete (an
/// interval plus `twait` plus a possible Stop retransmission), messages
/// cross the link a handful of times, the reroute applies on the next
/// packet — and that packet still has to clear the detour, whose longest hop
/// (`detour_hop`) can exceed the protected link's delay. Flight-recorder
/// timelines are asserted against this bound.
pub fn reroute_latency_bound(
    timers: &TimerConfig,
    link_delay: SimDuration,
    detour_hop: SimDuration,
) -> SimDuration {
    timers.dedicated_interval * 2
        + timers.trtx * 2
        + timers.twait
        + link_delay * 6
        + detour_hop * 2
        + SimDuration::from_millis(25)
}

/// The largest delay among the edges directly connecting `x` and `y`
/// (parallel links included) — the conservative per-hop term of the
/// detour half of [`reroute_latency_bound`].
fn hop_delay(topo: &Topology, x: usize, y: usize) -> SimDuration {
    topo.incident(x)
        .iter()
        .filter(|&&e| topo.other_end(e, x) == y)
        .map(|&e| topo.edges[e].spec.delay)
        .max()
        .unwrap_or(SimDuration::ZERO)
}

/// UDP background traffic (case-study scenario).
#[derive(Debug, Clone, Copy)]
struct UdpBackground {
    bps: u64,
    dst: u32,
    until: SimDuration,
}

/// Which topology shape a [`ScenarioSpec`] builds.
pub(crate) enum SpecKind {
    Linear,
    CaseStudy,
    Graph(Topology),
}

/// The unified scenario builder.
///
/// Construct with [`ScenarioSpec::linear`], [`ScenarioSpec::case_study`]
/// or [`ScenarioSpec::topology`], chain knob setters, then call
/// [`ScenarioSpec::build`]. Every unset knob falls back to the paper
/// default for the chosen shape (documented per setter).
///
/// ```
/// use fancy_apps::spec::ScenarioSpec;
///
/// let sc = ScenarioSpec::linear().seed(7).build().unwrap();
/// assert_eq!(sc.switches.len(), 2);
/// ```
pub struct ScenarioSpec {
    kind: SpecKind,
    seed: u64,
    high_priority: Vec<Prefix>,
    tree: Option<TreeParams>,
    timers: Option<TimerConfig>,
    core_link: Option<LinkConfig>,
    flows: Arc<[ScheduledFlow]>,
    probes: Vec<ThroughputProbe>,
    udp: Option<UdpBackground>,
    pair_flows: Vec<PairFlow>,
    protect: Vec<String>,
}

impl ScenarioSpec {
    fn new(kind: SpecKind) -> Self {
        ScenarioSpec {
            kind,
            seed: 0,
            high_priority: Vec::new(),
            tree: None,
            timers: None,
            core_link: None,
            flows: Arc::default(),
            probes: Vec::new(),
            udp: None,
            pair_flows: Vec::new(),
            protect: Vec::new(),
        }
    }

    /// The §5 linear topology: `sender — S1 — S2 — receiver`, FANcY
    /// monitoring the S1 → S2 core link.
    pub fn linear() -> Self {
        ScenarioSpec::new(SpecKind::Linear)
    }

    /// The §6.1 Tofino case study: a transparent link switch between S1
    /// and S2 with primary and backup paths, UDP background traffic, and
    /// fast reroute at S1.
    pub fn case_study() -> Self {
        ScenarioSpec::new(SpecKind::CaseStudy)
    }

    /// An arbitrary graph topology (see `fancy-topo`): FANcY runs on
    /// *every* inter-switch link in both directions, each switch gets a
    /// sender and a receiver host, and routing follows deterministic
    /// shortest paths with per-prefix ECMP.
    pub fn topology(topo: Topology) -> Self {
        ScenarioSpec::new(SpecKind::Graph(topo))
    }

    /// RNG seed. Switch `i`'s hash seed is `seed + i` (the linear
    /// scenario's historical `seed`, `seed + 1`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// High-priority entries monitored with dedicated counters (on every
    /// switch).
    pub fn high_priority(mut self, entries: Vec<Prefix>) -> Self {
        self.high_priority = entries;
        self
    }

    /// Tree parameters. Default: [`TreeParams::paper_default`]
    /// (case-study shape: [`TreeParams::tofino_default`]).
    pub fn tree(mut self, tree: TreeParams) -> Self {
        self.tree = Some(tree);
        self
    }

    /// Explicit protocol timers. Default: [`TimerConfig::paper_default`]
    /// scaled to the scenario's largest inter-switch link delay.
    pub fn timers(mut self, timers: TimerConfig) -> Self {
        self.timers = Some(timers);
        self
    }

    /// The inter-switch link for the linear shape (default 100 Gbps,
    /// 10 ms) and the case-study hardware link (default 100 Gbps, 5 µs).
    /// Ignored by graph scenarios — the topology's own [`fancy_topo::LinkSpec`]s
    /// apply there.
    pub fn core_link(mut self, link: LinkConfig) -> Self {
        self.core_link = Some(link);
        self
    }

    /// The flow schedule of the single sender (linear/case-study shapes),
    /// shared with the caller when given as an `Arc`. Graph scenarios use
    /// [`ScenarioSpec::pair_flows`] instead.
    pub fn flows(mut self, flows: impl Into<Arc<[ScheduledFlow]>>) -> Self {
        self.flows = flows.into();
        self
    }

    /// Append one throughput probe. Probes install at the receiver
    /// (graph shape: switch 0's receiver).
    pub fn probe(mut self, probe: ThroughputProbe) -> Self {
        self.probes.push(probe);
        self
    }

    /// UDP background traffic (case-study shape only; the paper uses
    /// 50 Mbps). Default: 50 Mbps to `0x0B_00_00_01` for 5 s.
    pub fn udp_background(mut self, bps: u64, dst: u32, until: SimDuration) -> Self {
        self.udp = Some(UdpBackground { bps, dst, until });
        self
    }

    /// Switch-to-switch TCP flows for graph scenarios (see [`PairFlow`]
    /// and [`uniform_pair_flows`]).
    pub fn pair_flows(mut self, flows: Vec<PairFlow>) -> Self {
        self.pair_flows = flows;
        self
    }

    /// Protect a topology edge (by its `"a↔b"` name) with SPIDER-style
    /// pre-provisioned backup paths in the `a → b` direction: per-entry
    /// backup ports install at switch `a` for every destination with a
    /// loop-free alternate (graph shape only). May be called repeatedly.
    pub fn protect(mut self, edge_name: &str) -> Self {
        self.protect.push(edge_name.to_owned());
        self
    }

    /// The shape this spec builds (used by the sharded materializer).
    pub(crate) fn kind(&self) -> &SpecKind {
        &self.kind
    }

    /// Assemble the scenario.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        match self.kind {
            SpecKind::Linear => self.build_linear(),
            SpecKind::CaseStudy => self.build_case_study(),
            SpecKind::Graph(_) => self.build_graph(),
        }
    }

    fn layout_input(
        high_priority: &[Prefix],
        tree: TreeParams,
        timers: TimerConfig,
    ) -> Result<FancyLayout, ScenarioError> {
        let input = FancyInput {
            high_priority: high_priority.to_vec(),
            memory_bytes_per_port: MEMORY_BYTES_PER_PORT,
            tree,
            timers,
        };
        Ok(input.translate()?)
    }

    fn reject_graph_only_knobs(&self, shape: &str) -> Result<(), ScenarioError> {
        if !self.pair_flows.is_empty() {
            return Err(ScenarioError::Spec {
                reason: format!("pair_flows are graph-only, not available on the {shape} shape"),
            });
        }
        if !self.protect.is_empty() {
            return Err(ScenarioError::Spec {
                reason: format!(
                    "protect() is graph-only, not available on the {shape} shape \
                     (the case study wires its own backup path)"
                ),
            });
        }
        Ok(())
    }

    fn build_linear(self) -> Result<Scenario, ScenarioError> {
        self.reject_graph_only_knobs("linear")?;
        if self.udp.is_some() {
            return Err(ScenarioError::Spec {
                reason: "udp_background is case-study-only".to_owned(),
            });
        }
        let core_link = self
            .core_link
            .unwrap_or_else(|| LinkConfig::new(100_000_000_000, SimDuration::from_millis(10)));
        let timers = self
            .timers
            .unwrap_or_else(|| TimerConfig::paper_default().for_link_delay(core_link.delay));
        let tree = self.tree.unwrap_or_else(TreeParams::paper_default);
        let layout = Self::layout_input(&self.high_priority, tree, timers)?;

        let mut net = Network::new(self.seed);
        let sender = net.add_node(Box::new(SenderHost::new(SENDER_ADDR, self.flows)));
        let mut fib1 = Fib::new();
        fib1.route(Prefix::from_addr(SENDER_ADDR), 0);
        fib1.default_route(1);
        let s1 = net.add_node(Box::new(FancySwitch::new(
            fib1,
            layout.clone(),
            vec![1],
            self.seed,
        )));
        let mut fib2 = Fib::new();
        fib2.route(Prefix::from_addr(SENDER_ADDR), 0);
        fib2.default_route(1);
        let s2 = net.add_node(Box::new(FancySwitch::new(
            fib2,
            layout.clone(),
            Vec::new(),
            self.seed + 1,
        )));
        let mut rx = ReceiverHost::new();
        rx.probes = self.probes;
        let receiver = net.add_node(Box::new(rx));

        let edges = wire(
            &mut net,
            &[
                (sender, s1, EDGE_LINK, "edge sender↔s1"),
                (s1, s2, core_link, "core s1↔s2"),
                (s2, receiver, EDGE_LINK, "edge s2↔receiver"),
            ],
        )?;

        Ok(Scenario {
            net,
            layout,
            timers,
            seed: self.seed,
            switches: vec![s1, s2],
            senders: vec![sender],
            receivers: vec![receiver],
            udp_sources: Vec::new(),
            bridges: Vec::new(),
            edges,
            monitored: vec![1],
            fault_edge: Some(1),
            protected: Vec::new(),
            topology: None,
            routes: None,
        })
    }

    fn build_case_study(self) -> Result<Scenario, ScenarioError> {
        self.reject_graph_only_knobs("case-study")?;
        let hw = self
            .core_link
            .unwrap_or_else(|| LinkConfig::new(100_000_000_000, SimDuration::from_micros(5)));
        let timers = self
            .timers
            .unwrap_or_else(|| TimerConfig::paper_default().for_link_delay(hw.delay));
        let tree = self.tree.unwrap_or_else(TreeParams::tofino_default);
        let udp = self.udp.unwrap_or(UdpBackground {
            bps: 50_000_000,
            dst: 0x0B_00_00_01,
            until: SimDuration::from_secs(5),
        });
        let layout = Self::layout_input(&self.high_priority, tree, timers)?;

        let mut net = Network::new(self.seed);
        let sender = net.add_node(Box::new(SenderHost::new(SENDER_ADDR, self.flows)));
        let udp_until = SimTime::ZERO + udp.until;
        let udp_node = net.add_node(Box::new(UdpSource::new(
            0x01_00_00_02,
            udp.dst,
            udp.bps,
            1500,
            udp_until,
        )));

        // S1 ports: 0 = sender, 1 = primary (monitored), 2 = backup,
        // 3 = udp in.
        let mut fib1 = Fib::new();
        fib1.route(Prefix::from_addr(SENDER_ADDR), 0);
        fib1.default_route(1);
        let mut s1_node = FancySwitch::new(fib1, layout.clone(), vec![1], self.seed);
        s1_node.reroute = Some(Reroute::port_level(
            [(1usize, 2usize)].into_iter().collect(),
        ));
        let s1 = net.add_node(Box::new(s1_node));

        // The link switch patches: port 0 (from S1 primary) ↔ port 1
        // (to S2), port 2 (from S1 backup) ↔ port 3 (to S2 second port).
        let link_switch = net.add_node(Box::new(Bridge::with_pairs(vec![1, 0, 3, 2])));

        // S2 ports: 0 = from link switch (primary), 1 = from link switch
        // (backup), 2 = receiver.
        let mut fib2 = Fib::new();
        fib2.route(Prefix::from_addr(SENDER_ADDR), 0);
        fib2.default_route(2);
        let s2 = net.add_node(Box::new(FancySwitch::new(
            fib2,
            layout.clone(),
            Vec::new(),
            self.seed + 1,
        )));

        let mut rx = ReceiverHost::new();
        rx.probes = self.probes;
        let receiver = net.add_node(Box::new(rx));

        // Connect order gives the port numbers above.
        let edges = wire(
            &mut net,
            &[
                (sender, s1, hw, "sender↔s1"),
                (s1, link_switch, hw, "primary s1↔ls"),
                (link_switch, s2, hw, "primary ls↔s2"),
                (s1, link_switch, hw, "backup s1↔ls"),
                (link_switch, s2, hw, "backup ls↔s2"),
                (s2, receiver, hw, "s2↔receiver"),
                (udp_node, s1, hw, "udp↔s1"),
            ],
        )?;

        Ok(Scenario {
            net,
            layout,
            timers,
            seed: self.seed,
            switches: vec![s1, s2],
            senders: vec![sender],
            receivers: vec![receiver],
            udp_sources: vec![udp_node],
            bridges: vec![link_switch],
            edges,
            monitored: vec![1],
            fault_edge: Some(2), // primary ls↔s2
            protected: Vec::new(),
            topology: None,
            routes: None,
        })
    }

    /// Validate a graph spec and derive everything both materializations
    /// (single-kernel and sharded) share: the global port plan, per-switch
    /// FIBs, monitored ports, SPIDER reroutes and protected-edge records.
    pub(crate) fn graph_plan(self) -> Result<GraphPlan, ScenarioError> {
        let ScenarioSpec {
            kind,
            seed,
            high_priority,
            tree,
            timers,
            core_link,
            flows,
            probes,
            udp,
            pair_flows,
            protect,
        } = self;
        let SpecKind::Graph(topo) = kind else {
            unreachable!("graph_plan called on a non-graph spec");
        };
        if !flows.is_empty() {
            return Err(ScenarioError::Spec {
                reason: "flows() is linear/case-study-only; graph scenarios use pair_flows()"
                    .to_owned(),
            });
        }
        if udp.is_some() || core_link.is_some() {
            return Err(ScenarioError::Spec {
                reason: "udp_background/core_link do not apply to graph scenarios \
                         (links come from the topology)"
                    .to_owned(),
            });
        }
        let n = topo.len();
        for pf in &pair_flows {
            if pf.src >= n || pf.dst >= n || pf.src == pf.dst {
                return Err(ScenarioError::Spec {
                    reason: format!(
                        "pair flow {} → {} is out of range for {n} switches",
                        pf.src, pf.dst
                    ),
                });
            }
        }
        let routes = Routes::compute(&topo)?;
        let max_delay = topo
            .edges
            .iter()
            .map(|e| e.spec.delay)
            .max()
            .unwrap_or_else(|| SimDuration::from_millis(10));
        let timers =
            timers.unwrap_or_else(|| TimerConfig::paper_default().for_link_delay(max_delay));
        let tree = tree.unwrap_or_else(TreeParams::paper_default);
        let layout = Self::layout_input(&high_priority, tree, timers)?;

        // Deterministic port plan mirroring the connect order of both
        // materializations: topology edges in edge-index order, then per
        // switch the sender link followed by the receiver link. A shard
        // connects only the links incident to its own nodes, but always in
        // this global order, so per-switch port numbers are identical in
        // every materialization.
        let mut next = vec![0usize; n];
        let mut edge_ports: Vec<(PortId, PortId)> = Vec::with_capacity(topo.edges.len());
        for e in &topo.edges {
            let pa = next[e.a];
            next[e.a] += 1;
            let pb = next[e.b];
            next[e.b] += 1;
            edge_ports.push((pa, pb));
        }
        let mut sender_port = Vec::with_capacity(n);
        let mut receiver_port = Vec::with_capacity(n);
        for np in next.iter_mut() {
            sender_port.push(*np);
            receiver_port.push(*np + 1);
            *np += 2;
        }

        let plan_ports = PortPlan {
            edge_ports,
            sender_port,
            receiver_port,
        };
        let port_at = |edge: usize, switch: usize| plan_ports.port_at(&topo, edge, switch);

        // SPIDER protection: compute backup plans before the switches are
        // constructed so per-entry backup ports install at construction.
        let mut reroutes: Vec<Option<Reroute>> = (0..n).map(|_| None).collect();
        let mut protected = Vec::with_capacity(protect.len());
        for name in &protect {
            let e = topo.edge_by_name(name).ok_or_else(|| ScenarioError::Spec {
                reason: format!("unknown protected edge {name:?}"),
            })?;
            let u = topo.edges[e].a;
            let plan = BackupPlan::compute_partial(&topo, &routes, e, u);
            if plan.routes.is_empty() {
                return Err(ScenarioError::PathGroup {
                    edge: e,
                    from: u,
                    to: *plan.uncovered.first().unwrap_or(&topo.edges[e].b),
                    reason: "no loop-free alternate for any destination",
                });
            }
            let primary = port_at(e, u);
            let rr = reroutes[u].get_or_insert_with(Reroute::default);
            let mut backups = Vec::with_capacity(plan.routes.len());
            // The analytic bound must also cover the detour's own
            // propagation: find the longest hop on any ranked alternate's
            // path (the u→w backup edge, then w's shortest path to dst).
            let mut detour_hop = SimDuration::ZERO;
            for br in &plan.routes {
                let chain: Vec<PortId> = br.edges.iter().map(|&be| port_at(be, u)).collect();
                for &be in &br.edges {
                    detour_hop = detour_hop.max(topo.edges[be].spec.delay);
                    let w = topo.other_end(be, u);
                    if w != br.dst {
                        let path = routes.path(&topo, w, br.dst, 0);
                        for hop in path.windows(2) {
                            detour_hop = detour_hop.max(hop_delay(&topo, hop[0], hop[1]));
                        }
                    }
                }
                // Protect both directions of the pair's traffic through
                // this switch: data toward the service prefix and ACKs
                // toward the source prefix.
                backups.push((service_prefix(br.dst), chain[0]));
                rr.entry_backup
                    .insert((primary, service_prefix(br.dst)), chain.clone());
                rr.entry_backup
                    .insert((primary, switch_src_prefix(br.dst)), chain);
            }
            protected.push(ProtectedEdge {
                edge: e,
                switch: u,
                primary_port: primary,
                backups,
                uncovered: plan.uncovered.clone(),
                bound: reroute_latency_bound(&timers, topo.edges[e].spec.delay, detour_hop),
            });
        }

        Ok(GraphPlan {
            topo,
            routes,
            layout,
            timers,
            seed,
            ports: plan_ports,
            reroutes,
            protected,
            pair_flows,
            probes,
        })
    }

    /// The single-kernel graph build is the sharded materializer over a
    /// one-region partition with the one network unwrapped: shard 0 keeps
    /// the spec seed and the plain uid lane, and shard-local node, link and
    /// port numbering in a lone region is the global numbering.
    fn build_graph(self) -> Result<Scenario, ScenarioError> {
        let plan = self.graph_plan()?;
        let partition = Partition::compute_with(&plan.topo, 1);
        let sh = materialize_sharded(plan, partition)?;
        let net = sh.net.into_shards().pop().expect("one region, one net");
        let local = |locs: Vec<(usize, NodeId)>| locs.into_iter().map(|(_, l)| l).collect();
        let edges = sh
            .edges
            .into_iter()
            .map(|e| EdgeHandle {
                name: e.name,
                link: e.link_a,
                a: e.local_a,
                b: e.local_b,
                port_a: e.port_a,
                port_b: e.port_b,
            })
            .collect();
        Ok(Scenario {
            net,
            layout: sh.layout,
            timers: sh.timers,
            seed: sh.seed,
            switches: local(sh.switch_loc),
            senders: local(sh.sender_loc),
            receivers: local(sh.receiver_loc),
            udp_sources: Vec::new(),
            bridges: Vec::new(),
            edges,
            monitored: sh.monitored,
            fault_edge: None,
            protected: sh.protected,
            topology: Some(sh.topology),
            routes: Some(sh.routes),
        })
    }
}

/// The global port plan of a graph scenario: where each topology edge and
/// host link attaches on each switch, independent of how the network is
/// materialized.
pub(crate) struct PortPlan {
    /// Per topology edge: (`a`'s port, `b`'s port).
    pub edge_ports: Vec<(PortId, PortId)>,
    /// Per switch: the sender host's port.
    pub sender_port: Vec<PortId>,
    /// Per switch: the receiver host's port.
    pub receiver_port: Vec<PortId>,
}

impl PortPlan {
    /// `switch`'s port on topology edge `edge`.
    pub fn port_at(&self, topo: &Topology, edge: usize, switch: usize) -> PortId {
        if topo.edges[edge].a == switch {
            self.edge_ports[edge].0
        } else {
            debug_assert_eq!(topo.edges[edge].b, switch);
            self.edge_ports[edge].1
        }
    }
}

/// Everything a graph materialization needs, fully validated and
/// deterministic. `build_sharded` (see [`crate::sharded`]) wires it into
/// per-region networks joined by half-links; [`ScenarioSpec::build`] is
/// the same wiring over one region, unwrapped into a [`Scenario`].
pub(crate) struct GraphPlan {
    pub topo: Topology,
    pub routes: Routes,
    pub layout: FancyLayout,
    pub timers: TimerConfig,
    pub seed: u64,
    pub ports: PortPlan,
    pub reroutes: Vec<Option<Reroute>>,
    pub protected: Vec<ProtectedEdge>,
    pub pair_flows: Vec<PairFlow>,
    pub probes: Vec<ThroughputProbe>,
}

impl GraphPlan {
    /// Construct switch `i` exactly as the single-kernel build would:
    /// same FIB (global prefix plan), same monitored ports, same hash
    /// seed `seed + i`, same SPIDER reroute table.
    pub fn switch(&mut self, i: usize) -> FancySwitch {
        let n = self.topo.len();
        let mut fib = Fib::new();
        for j in 0..n {
            if j == i {
                fib.route(service_prefix(i), self.ports.receiver_port[i]);
                fib.route(switch_src_prefix(i), self.ports.sender_port[i]);
            } else {
                // Per-prefix ECMP choice: FANcY's per-entry counters
                // need each prefix pinned to one stable path.
                let es = self
                    .routes
                    .next_edge(i, j, mix64(u64::from(service_prefix(j).0)));
                fib.route(service_prefix(j), self.ports.port_at(&self.topo, es, i));
                let eh = self
                    .routes
                    .next_edge(i, j, mix64(u64::from(switch_src_prefix(j).0)));
                fib.route(switch_src_prefix(j), self.ports.port_at(&self.topo, eh, i));
            }
        }
        let monitored: Vec<PortId> = self
            .topo
            .incident(i)
            .iter()
            .map(|&e| self.ports.port_at(&self.topo, e, i))
            .collect();
        let mut sw = FancySwitch::new(fib, self.layout.clone(), monitored, self.seed + i as u64);
        if let Some(rr) = self.reroutes[i].take() {
            sw.reroute = Some(rr);
        }
        sw
    }

    /// Construct switch `i`'s sender host (with its share of the pair
    /// flows).
    pub fn sender(&self, i: usize) -> SenderHost {
        let flows_i: Vec<ScheduledFlow> = self
            .pair_flows
            .iter()
            .filter(|p| p.src == i)
            .map(|p| ScheduledFlow {
                start: p.start,
                dst: service_prefix(p.dst).host(1),
                cfg: p.cfg,
            })
            .collect();
        SenderHost::new(switch_src_prefix(i).host(1), flows_i)
    }

    /// Construct switch `i`'s receiver host. Switch 0's receiver takes
    /// the spec's throughput probes (drained on first call).
    pub fn receiver(&mut self, i: usize) -> ReceiverHost {
        let mut rx = ReceiverHost::new();
        if i == 0 {
            rx.probes = std::mem::take(&mut self.probes);
        }
        rx
    }
}

/// One connected link of an assembled scenario, addressable by name.
#[derive(Debug, Clone)]
pub struct EdgeHandle {
    /// Scenario-level name ("core s1↔s2", "bb3↔bb4",
    /// "sender↔bb0", ...).
    pub name: String,
    /// The simulator link id.
    pub link: LinkId,
    /// First endpoint (the `from` side for failure injection).
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// `a`'s port on this link.
    pub port_a: PortId,
    /// `b`'s port on this link.
    pub port_b: PortId,
}

/// A SPIDER-protected edge of a graph scenario: where the per-entry backup
/// ports were installed and the analytic latency bound they must meet.
#[derive(Debug, Clone)]
pub struct ProtectedEdge {
    /// Index into [`Scenario::edges`] (= topology edge index).
    pub edge: usize,
    /// The protecting switch (node id = switch index).
    pub switch: NodeId,
    /// Its egress port on the protected edge.
    pub primary_port: PortId,
    /// Installed backups: service prefix of each covered destination and
    /// the backup egress port its flagged traffic detours to.
    pub backups: Vec<(Prefix, PortId)>,
    /// Destinations with no loop-free alternate (uncovered, like real
    /// IP-FRR on sparse topologies).
    pub uncovered: Vec<usize>,
    /// Analytic detect+switch latency bound
    /// (see [`reroute_latency_bound`]).
    pub bound: SimDuration,
}

/// An assembled scenario: the network plus the handles experiments need.
///
/// Role conventions: `switches[0]` is S1 and `switches[1]` is S2 in the
/// linear and case-study shapes; in graph shapes `switches[i] == i` (the
/// topology switch index *is* the node id). `fault_edge` is the shape's
/// canonical failure-injection edge (the monitored core link, the
/// case-study's `"primary ls↔s2"`); graph shapes have none — pick any
/// edge via [`Scenario::edge`] and [`Scenario::fail_edge`].
pub struct Scenario {
    /// The network, ready to run.
    pub net: Network,
    /// The layout every FANcY switch runs.
    pub layout: FancyLayout,
    /// The protocol timers in effect (after defaulting).
    pub timers: TimerConfig,
    /// The spec seed.
    pub seed: u64,
    /// FANcY switch nodes.
    pub switches: Vec<NodeId>,
    /// Sender hosts (graph: one per switch, same order).
    pub senders: Vec<NodeId>,
    /// Receiver hosts (graph: one per switch, same order).
    pub receivers: Vec<NodeId>,
    /// UDP background sources.
    pub udp_sources: Vec<NodeId>,
    /// Transparent bridges (the case-study link switch).
    pub bridges: Vec<NodeId>,
    /// Every connected link, in connect order.
    pub edges: Vec<EdgeHandle>,
    /// Indices into `edges` of the FANcY-monitored links (graph: all
    /// topology edges, monitored in both directions).
    pub monitored: Vec<usize>,
    /// The shape's canonical failure-injection edge, if it has one.
    pub fault_edge: Option<usize>,
    /// SPIDER-protected edges (graph shape).
    pub protected: Vec<ProtectedEdge>,
    /// The source topology (graph shape).
    pub topology: Option<Topology>,
    /// The computed routes (graph shape).
    pub routes: Option<Routes>,
}

impl Scenario {
    /// Look an edge up by its scenario-level name.
    pub fn edge(&self, name: &str) -> Option<&EdgeHandle> {
        self.edges.iter().find(|e| e.name == name)
    }

    /// The first monitored edge (the linear core link).
    pub fn monitored_edge(&self) -> &EdgeHandle {
        &self.edges[self.monitored[0]]
    }

    /// The canonical failure-injection edge.
    ///
    /// # Panics
    /// Panics on graph scenarios (they have no canonical fault edge; use
    /// [`Scenario::fail_edge`]).
    pub fn fault(&self) -> &EdgeHandle {
        let idx = self
            .fault_edge
            .expect("this scenario shape has no canonical fault edge");
        &self.edges[idx]
    }

    /// Install a gray failure on the canonical fault edge, in the
    /// `a → b` direction.
    ///
    /// # Panics
    /// Panics on graph scenarios; use [`Scenario::fail_edge`].
    pub fn fail(&mut self, failure: GrayFailure) {
        let idx = self
            .fault_edge
            .expect("this scenario shape has no canonical fault edge");
        self.fail_edge(idx, failure);
    }

    /// Install a gray failure on `edges[idx]`, in the `a → b` direction.
    pub fn fail_edge(&mut self, idx: usize, failure: GrayFailure) {
        let e = &self.edges[idx];
        self.net.kernel.add_failure(e.link, e.a, failure);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fancy_sim::DetectorKind;
    use fancy_topo::{LinkSpec, TopologyBuilder};

    /// `Scenario` holds a live `Network` and has no `Debug`; unwrap
    /// errors by hand.
    fn expect_err(r: Result<Scenario, ScenarioError>) -> ScenarioError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("expected the spec to be rejected"),
        }
    }

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
    fn linear_spec_matches_historical_shape() {
        let sc = ScenarioSpec::linear().seed(3).build().unwrap();
        assert_eq!(sc.switches, vec![1, 2]);
        assert_eq!(sc.senders, vec![0]);
        assert_eq!(sc.receivers, vec![3]);
        let core = sc.edge("core s1↔s2").unwrap();
        assert_eq!(core.link, 1);
        assert_eq!(core.port_a, 1);
        assert_eq!(sc.monitored_edge().name, "core s1↔s2");
        assert_eq!(sc.fault().name, "core s1↔s2");
    }

    /// Every edge handle as `(name, link, a, b, port_a, port_b)`.
    fn edge_rows(sc: &Scenario) -> Vec<(&str, LinkId, NodeId, NodeId, PortId, PortId)> {
        let rows = sc.edges.iter();
        rows.map(|e| (e.name.as_str(), e.link, e.a, e.b, e.port_a, e.port_b))
            .collect()
    }

    /// Switches, senders, receivers, UDP sources, bridges, then the
    /// monitored edge indices.
    fn roles(sc: &Scenario) -> [&[usize]; 6] {
        [
            &sc.switches,
            &sc.senders,
            &sc.receivers,
            &sc.udp_sources,
            &sc.bridges,
            &sc.monitored,
        ]
    }

    #[test]
    fn hand_wired_shapes_pin_every_edge_handle() {
        let sc = ScenarioSpec::linear().build().unwrap();
        assert_eq!(
            edge_rows(&sc),
            [
                ("edge sender↔s1", 0, 0, 1, 0, 0),
                ("core s1↔s2", 1, 1, 2, 1, 0),
                ("edge s2↔receiver", 2, 2, 3, 1, 0),
            ]
        );
        let want: [&[usize]; 6] = [&[1, 2], &[0], &[3], &[], &[], &[1]];
        assert_eq!((roles(&sc), sc.fault_edge), (want, Some(1)));

        let sc = ScenarioSpec::case_study().build().unwrap();
        assert_eq!(
            edge_rows(&sc),
            [
                ("sender↔s1", 0, 0, 2, 0, 0),
                ("primary s1↔ls", 1, 2, 3, 1, 0),
                ("primary ls↔s2", 2, 3, 4, 1, 0),
                ("backup s1↔ls", 3, 2, 3, 2, 2),
                ("backup ls↔s2", 4, 3, 4, 3, 1),
                ("s2↔receiver", 5, 4, 5, 2, 0),
                ("udp↔s1", 6, 1, 2, 0, 3),
            ]
        );
        let want: [&[usize]; 6] = [&[2, 4], &[0], &[5], &[1], &[3], &[1]];
        assert_eq!((roles(&sc), sc.fault_edge), (want, Some(2)));
    }

    #[test]
    fn graph_spec_monitors_every_topology_edge() {
        let topo = ring(4, false);
        let sc = ScenarioSpec::topology(topo).seed(1).build().unwrap();
        assert_eq!(sc.switches.len(), 4);
        // 4 ring edges monitored, plus 8 host links unmonitored.
        assert_eq!(sc.monitored.len(), 4);
        assert_eq!(sc.edges.len(), 4 + 8);
        assert!(sc.fault_edge.is_none());
        // NodeId == SwitchIdx for switches.
        for (i, &s) in sc.switches.iter().enumerate() {
            assert_eq!(i, s);
        }
    }

    #[test]
    fn graph_traffic_flows_end_to_end() {
        let topo = ring(4, true);
        let flows = uniform_pair_flows(4, 2, 2_000_000, 0.5, 7);
        let mut sc = ScenarioSpec::topology(topo)
            .seed(7)
            .pair_flows(flows)
            .build()
            .unwrap();
        sc.net.run_until(SimTime(1_500_000_000));
        let mut delivered = 0u64;
        for &r in &sc.receivers {
            let rx: &ReceiverHost = sc.net.node(r);
            delivered += rx.data_packets;
        }
        assert!(delivered > 100, "got {delivered} data packets");
    }

    #[test]
    fn graph_detects_failure_on_an_inner_edge() {
        let topo = ring(6, true);
        let entry = service_prefix(4);
        // Traffic from switch 1 to switch 4 (service prefix 4); protect
        // nothing, just detect. Find the edge that flow actually crosses.
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
            .build()
            .unwrap();
        // Fail the first hop of the 1 → 4 path.
        let routes = sc.routes.clone().unwrap();
        let topo_ref = sc.topology.clone().unwrap();
        let first = routes.next_edge(1, 4, mix64(u64::from(entry.0)));
        // Orient the failure in the traffic direction (from switch 1's
        // side).
        let eh = sc.edges[first].clone();
        let from = if eh.a == 1 || topo_ref.other_end(first, 1) == eh.b {
            eh.a
        } else {
            eh.b
        };
        let f = GrayFailure::single_entry(entry, 1.0, SimTime(1_000_000_000));
        sc.net.kernel.add_failure(eh.link, from, f);
        sc.net.run_until(SimTime(4_000_000_000));
        let det = sc
            .net
            .kernel
            .records
            .first_entry_detection(entry)
            .expect("network-wide FANcY must detect the failing entry");
        assert_eq!(det.detector, DetectorKind::DedicatedCounter);
    }

    #[test]
    fn spider_protection_installs_and_reroutes_within_bound() {
        // Square with a diagonal so LFAs exist for the protected edge.
        let mut b = TopologyBuilder::new();
        for i in 0..4 {
            b.switch(&format!("s{i}")).unwrap();
        }
        let spec = LinkSpec::new(10_000_000_000, SimDuration::from_millis(1));
        b.link(0, 1, spec).unwrap(); // protected
        b.link(1, 2, spec).unwrap();
        b.link(0, 3, spec).unwrap();
        b.link(3, 2, spec).unwrap();
        b.link(
            0,
            2,
            LinkSpec::new(10_000_000_000, SimDuration::from_millis(5)),
        )
        .unwrap();
        let topo = b.build().unwrap();

        let entry = service_prefix(1);
        let flows: Vec<PairFlow> = (0..40)
            .map(|k| PairFlow {
                src: 0,
                dst: 1,
                start: SimTime(k * 50_000_000),
                cfg: FlowConfig::for_rate(2_000_000, 1.0),
            })
            .collect();
        let mut sc = ScenarioSpec::topology(topo)
            .seed(11)
            .high_priority(vec![entry])
            .pair_flows(flows)
            .protect("s0↔s1")
            .build()
            .unwrap();
        assert_eq!(sc.protected.len(), 1);
        let p = sc.protected[0].clone();
        assert_eq!(p.switch, 0);
        assert!(p.backups.iter().any(|&(pre, _)| pre == entry));

        let fail_at = SimTime(1_000_000_000);
        sc.fail_edge(p.edge, GrayFailure::single_entry(entry, 1.0, fail_at));
        sc.net.run_until(SimTime(4_000_000_000));
        let det = sc
            .net
            .kernel
            .records
            .first_entry_detection(entry)
            .expect("protected entry must be detected");
        let latency = det.time.duration_since(fail_at);
        assert!(
            latency <= p.bound,
            "detect+switch latency {latency} exceeds the bound {}",
            p.bound
        );
        // Traffic keeps arriving after the reroute.
        let rx: &ReceiverHost = sc.net.node(sc.receivers[1]);
        assert!(rx.data_packets > 0);
    }

    #[test]
    fn graph_only_knobs_are_rejected_elsewhere() {
        let err = expect_err(
            ScenarioSpec::linear()
                .pair_flows(vec![PairFlow {
                    src: 0,
                    dst: 1,
                    start: SimTime::ZERO,
                    cfg: FlowConfig::for_rate(1_000_000, 1.0),
                }])
                .build(),
        );
        assert!(matches!(err, ScenarioError::Spec { .. }));
        let err = expect_err(
            ScenarioSpec::topology(ring(3, false))
                .flows(vec![])
                .udp_background(1, 2, SimDuration::from_secs(1))
                .build(),
        );
        assert!(matches!(err, ScenarioError::Spec { .. }));
    }

    #[test]
    fn unknown_protected_edge_is_a_spec_error() {
        let err = expect_err(
            ScenarioSpec::topology(ring(4, false))
                .protect("nope↔nada")
                .build(),
        );
        match err {
            ScenarioError::Spec { reason } => assert!(reason.contains("nope↔nada")),
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_topology_is_a_route_error() {
        let mut b = TopologyBuilder::new();
        b.switch("a").unwrap();
        b.switch("b").unwrap();
        b.switch("c").unwrap();
        b.link(
            0,
            1,
            LinkSpec::new(1_000_000_000, SimDuration::from_millis(1)),
        )
        .unwrap();
        let err = expect_err(ScenarioSpec::topology(b.build().unwrap()).build());
        assert!(matches!(err, ScenarioError::Route { .. }));
    }

    #[test]
    fn uniform_pair_flows_are_deterministic_and_self_free() {
        let a = uniform_pair_flows(8, 3, 1_000_000, 1.0, 42);
        let b = uniform_pair_flows(8, 3, 1_000_000, 1.0, 42);
        assert_eq!(a.len(), 24);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.src, x.dst, x.start), (y.src, y.dst, y.start));
            assert_ne!(x.src, x.dst);
        }
        let c = uniform_pair_flows(8, 3, 1_000_000, 1.0, 43);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.dst != y.dst || x.start != y.start));
    }
}
