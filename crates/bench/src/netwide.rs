//! Network-wide FANcY on graph topologies (the ISP-scale deployment).
//!
//! The paper deploys FANcY per link; an ISP runs it on *every* link at
//! once. This module sweeps a `fancy-topo` graph — one cell per failed
//! edge — where each cell instantiates the whole backbone with FANcY
//! monitoring every edge in both directions, injects one gray failure on
//! the cell's edge, and reports:
//!
//! * **coverage** — did the switch upstream of the failed edge detect?
//! * **latency** — failure onset → that detection;
//! * **cross-talk** — detections anywhere *else* in the network (false
//!   positives induced by collateral TCP backoff on healthy links);
//! * **reroute convergence** — on SPIDER-protected edges, the
//!   flight-recorder-measured onset → first rerouted packet, asserted
//!   against the analytic [`reroute_latency_bound`];
//! * **recovery guarantees** — every protected cell replays its merged
//!   flight-recorder stream through [`fancy_analysis::recovery`] and
//!   reports whether the latency bound, loss-cessation budget and
//!   damping contract all held.
//!
//! [`run_netwide_multi`] extends the sweep to *overlapping* failures:
//! each cell fails a whole [`MultiFault`] combination at once — hard
//! per-entry gray drops and adversarial bursty-loss chaos plans side by
//! side — giving every failed edge its own victim entry so detection,
//! reroute and recovery verdicts stay attributable per edge.
//!
//! There is one cell runner, and a single failure is a combo of one:
//! [`run_netwide`] runs each failed edge as `[MultiFault { edge, chaos:
//! false }]` and reshapes the outcome into an [`EdgeOutcome`]. A
//! single-failure cell simulates 4 s, a combo cell 5 s. Flight recorders
//! are installed only when some member is SPIDER-protected, so an
//! unprotected cell runs with no tracer. Every member is judged alike: it
//! is `protected` when SPIDER covers its victim entry, and its reroute is
//! that entry's first `Reroute`.
//!
//! Cells are content-addressed: the cache salt folds in the topology and
//! route fingerprints, so editing the graph (or the route computation)
//! invalidates exactly the affected sweeps.
//!
//! Every cell builds its network *sharded*
//! ([`ScenarioSpec::build_sharded`]): the topology's deterministic
//! partition becomes one kernel per region, advanced by the conservative
//! executor. `FANCY_SHARDS` (or [`NetwideConfig::shards`]) picks the
//! worker-thread count only — the shard layout is fixed by the topology,
//! so outcomes are byte-identical at every setting and the knob is
//! folded *out* of the cache key.
//!
//! [`reroute_latency_bound`]: fancy_apps::reroute_latency_bound

use fancy_analysis::recovery::{self, RecoveryContract};
use fancy_apps::{service_prefix, uniform_pair_flows};
use fancy_apps::{PairFlow, ScenarioError, ScenarioSpec};
use fancy_net::mix64;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use fancy_sim::metrics::{Histogram, Labels, MetricsHub, Snapshot};
use fancy_sim::trace::{merge_shard_streams, DropCause};
use fancy_sim::{
    FaultPlan, FaultStage, FaultTarget, GrayFailure, ShardStats, SimDuration, SimTime, TraceEvent,
    TraceKind, TraceSink,
};
use fancy_tcp::FlowConfig;
use fancy_topo::{BackupPlan, Routes, Topology};

use crate::cache::{CacheCodec, CacheKeyed, Fingerprint, Record};
use crate::env::{BenchEnv, Scale};
use crate::runner::{CellCtx, Sweep};

/// A flight recorder that keeps only the causal chain of a failure
/// episode — gray drops, detections, reroute decisions — so no amount
/// of background packet traffic can evict the events the latency
/// verification needs (a plain ring would). It wants only the kinds it
/// keeps, so the kernel never builds the rest.
#[derive(Debug, Clone, Default)]
struct FlightFilter(Arc<Mutex<Vec<TraceEvent>>>);

impl FlightFilter {
    fn snapshot(&self) -> Vec<TraceEvent> {
        self.0.lock().expect("flight filter poisoned").clone()
    }
}

impl TraceSink for FlightFilter {
    fn wants(&self, kind: TraceKind) -> bool {
        matches!(
            kind,
            TraceKind::Reroute
                | TraceKind::Detection
                | TraceKind::Failover
                | TraceKind::RerouteDamp
                | TraceKind::BackupAlarm
                | TraceKind::PacketDrop
        )
    }

    fn record(&mut self, ev: &TraceEvent) {
        let keep = match ev {
            TraceEvent::PacketDrop { cause, .. } => {
                matches!(cause, DropCause::Gray | DropCause::NoBackup)
            }
            other => self.wants(other.trace_kind()),
        };
        if keep {
            self.0
                .lock()
                .expect("flight filter poisoned")
                .push(ev.clone());
        }
    }
}

/// Knobs of one network-wide sweep.
#[derive(Debug, Clone)]
pub struct NetwideConfig {
    /// Background pair flows per source switch.
    pub per_switch_flows: usize,
    /// Rate of each TCP flow (bps).
    pub rate_bps: u64,
    /// Gray drop probability on the failed edge's victim entry.
    pub loss: f64,
    /// Edges to fail, as topology edge indices (`None` = every edge).
    pub edges: Option<Vec<usize>>,
    /// Install SPIDER protection on each failed edge that has a loop-free
    /// alternate, and verify the reroute chain on the flight recorder.
    pub protect: bool,
    /// Sweep worker threads (`0` = the `FANCY_THREADS` / core-count
    /// default). Results are bit-identical at any value.
    pub threads: usize,
    /// Worker threads driving each cell's sharded DES executor
    /// (`0` = the `FANCY_SHARDS` env default). The shard *layout* is a
    /// pure function of the topology, so this knob never changes
    /// results — it is deliberately folded *out* of the cell cache key.
    pub shards: usize,
}

impl Default for NetwideConfig {
    fn default() -> Self {
        NetwideConfig {
            per_switch_flows: 2,
            rate_bps: 2_000_000,
            loss: 0.5,
            edges: None,
            protect: true,
            threads: 0,
            shards: 0,
        }
    }
}

/// What one failed-edge cell observed.
#[derive(Debug, Clone)]
pub struct EdgeOutcome {
    /// Topology edge index that was failed.
    pub edge: usize,
    /// Edge name (for reports).
    pub name: String,
    /// The edge carried victim traffic (dark edges can't be detected and
    /// are excluded from the coverage denominator).
    pub carries_traffic: bool,
    /// The upstream switch flagged the failure on its egress port.
    pub detected: bool,
    /// Onset → upstream detection, seconds (`-1` when undetected).
    pub detection_s: f64,
    /// Detections at any *other* (switch, port) after onset.
    pub cross_talk: u64,
    /// SPIDER protection covers this edge's victim entry.
    pub protected: bool,
    /// Flight-recorder onset → first reroute of the victim entry,
    /// seconds (`-1` when not protected or no reroute fired).
    pub reroute_s: f64,
    /// Analytic detect+switch bound, seconds (`-1` when not protected).
    pub bound_s: f64,
    /// The recovery verifier's verdict for the protected victim entry:
    /// latency bound met, post-reroute loss ceased within budget, no
    /// oscillation beyond the damping contract. `true` (vacuous) when
    /// the edge is unprotected.
    pub recovery_ok: bool,
    /// Damping retrips ("flaps") the verifier observed for the victim.
    pub flaps: u64,
    /// The cell's metrics snapshot: per-edge detection-latency histogram
    /// plus everything the instrumented stack recorded. Travels through
    /// the cell cache (as `fancy-metrics` JSONL) so warm sweeps rebuild
    /// the same merged [`NetwideReport::metrics`].
    pub metrics: Snapshot,
    /// Per-shard executor statistics for this cell (empty for dark
    /// edges, which never build a network). Travels through the cell
    /// cache so warm sweeps rebuild the same
    /// [`NetwideReport::shard_breakdown`].
    pub shard_stats: Vec<ShardStats>,
}

/// Shard-statistics codec shared by every outcome kind that rides the
/// cell cache (`s{i}_*` keys).
fn encode_shard_stats(rec: &mut Record, stats: &[ShardStats]) {
    rec.put_u64("shards", stats.len() as u64);
    for (i, s) in stats.iter().enumerate() {
        rec.put_u64(&format!("s{i}_events"), s.events);
        rec.put_u64(&format!("s{i}_sim_ns"), s.sim_nanos);
        rec.put_u64(&format!("s{i}_windows"), s.windows);
        rec.put_u64(&format!("s{i}_null"), s.null_windows);
        rec.put_u64(&format!("s{i}_tx"), s.msgs_sent);
        rec.put_u64(&format!("s{i}_rx"), s.msgs_received);
    }
}

/// Nothing is pre-allocated from the stored count: a checksum-valid
/// record claiming 2^40 shards must be a miss, not an allocation abort.
fn decode_shard_stats(rec: &Record) -> Option<Vec<ShardStats>> {
    (0..rec.u64("shards")?)
        .map(|i| {
            Some(ShardStats {
                events: rec.u64(&format!("s{i}_events"))?,
                sim_nanos: rec.u64(&format!("s{i}_sim_ns"))?,
                windows: rec.u64(&format!("s{i}_windows"))?,
                null_windows: rec.u64(&format!("s{i}_null"))?,
                msgs_sent: rec.u64(&format!("s{i}_tx"))?,
                msgs_received: rec.u64(&format!("s{i}_rx"))?,
            })
        })
        .collect()
}

/// Read a cell's stored metrics snapshot, refusing one that no longer
/// parses: a checksum-valid record written before a `fancy-metrics`
/// JSONL change must degrade to a cache miss (and a cold re-run), the
/// same way the runner treats its own stored snapshot.
fn decode_metrics(rec: &Record) -> Option<Snapshot> {
    Snapshot::parse_jsonl(rec.str("metrics")?).ok()
}

/// Merge per-cell snapshots in cell order. The merge is associative and
/// commutative and outcomes are in input order, so the result is
/// identical at any thread count and on warm cache replays.
fn merge_cell_metrics<'a>(cells: impl Iterator<Item = &'a Snapshot>) -> Snapshot {
    let mut merged = Snapshot::default();
    for cell in cells {
        merged.merge(cell);
    }
    merged
}

impl CacheCodec for EdgeOutcome {
    fn encode(&self, rec: &mut Record) {
        rec.put_u64("edge", self.edge as u64);
        rec.put_str("name", &self.name);
        rec.put_u64("traffic", self.carries_traffic as u64);
        rec.put_u64("detected", self.detected as u64);
        rec.put_f64("det_s", self.detection_s);
        rec.put_u64("cross_talk", self.cross_talk);
        rec.put_u64("protected", self.protected as u64);
        rec.put_f64("reroute_s", self.reroute_s);
        rec.put_f64("bound_s", self.bound_s);
        rec.put_u64("recovery", self.recovery_ok as u64);
        rec.put_u64("flaps", self.flaps);
        rec.put_str("metrics", &self.metrics.to_jsonl());
        encode_shard_stats(rec, &self.shard_stats);
    }

    fn decode(rec: &Record) -> Option<Self> {
        Some(EdgeOutcome {
            edge: rec.u64("edge")? as usize,
            name: rec.str("name")?.to_owned(),
            carries_traffic: rec.u64("traffic")? != 0,
            detected: rec.u64("detected")? != 0,
            detection_s: rec.f64("det_s")?,
            cross_talk: rec.u64("cross_talk")?,
            protected: rec.u64("protected")? != 0,
            reroute_s: rec.f64("reroute_s")?,
            bound_s: rec.f64("bound_s")?,
            // Records written before the recovery verifier existed lack
            // these keys and degrade to a cache miss (self-invalidation).
            recovery_ok: rec.u64("recovery")? != 0,
            flaps: rec.u64("flaps")?,
            metrics: decode_metrics(rec)?,
            shard_stats: decode_shard_stats(rec)?,
        })
    }
}

/// The aggregated result of one network-wide sweep.
#[derive(Debug, Clone)]
pub struct NetwideReport {
    /// Per-failed-edge outcomes, in cell order.
    pub outcomes: Vec<EdgeOutcome>,
    /// Detected fraction over traffic-carrying edges.
    pub coverage: f64,
    /// Mean detection latency over detected edges, seconds.
    pub mean_detection_s: f64,
    /// Total cross-talk detections across all cells.
    pub cross_talk: u64,
    /// Protected cells whose measured reroute latency met the bound.
    pub reroutes_within_bound: usize,
    /// Protected cells where a reroute was measured at all.
    pub reroutes_measured: usize,
    /// Protected cells whose recovery verifier found any violation
    /// (latency bound, residual loss, or oscillation contract).
    pub recovery_violations: usize,
    /// Per-cell metrics snapshots merged in edge order — query per-edge
    /// quantiles with [`NetwideReport::edge_detection_latency`].
    pub metrics: Snapshot,
    /// Per-shard executor statistics summed element-wise across cells:
    /// shard `i`'s row aggregates shard `i` of every traffic-carrying
    /// cell. Empty when every cell was dark.
    pub shard_breakdown: Vec<ShardStats>,
}

/// The metric name the netwide sweep records one histogram per failed
/// edge under (`edge="<name>"` label, nanosecond values).
pub const EDGE_DETECTION_METRIC: &str = "fancy_edge_detection_latency_ns";

/// Grace budget after a reroute during which residual gray drops of the
/// victim entry are tolerated (in-flight packets and TCP retransmissions
/// converging onto the detour).
pub const RECOVERY_LOSS_BUDGET_NS: u64 = 2_000_000_000;

impl NetwideReport {
    /// Detection-latency histogram per failed edge, in label order:
    /// `(edge name, histogram of onset → detection nanoseconds)`.
    pub fn edge_detection_latency(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.metrics
            .histograms_of(EDGE_DETECTION_METRIC)
            .map(|(labels, h)| (labels.get("edge").unwrap_or("?"), h))
    }

    /// Human-readable per-shard breakdown for experiment footers (one
    /// line per shard, printed next to the sweep's `Mevents/s` line).
    /// `None` when no cell ran a sharded network.
    pub fn shard_summary(&self) -> Option<String> {
        if self.shard_breakdown.is_empty() {
            return None;
        }
        let mut s = format!("shards: {} region(s)", self.shard_breakdown.len());
        for (i, st) in self.shard_breakdown.iter().enumerate() {
            s.push_str(&format!(
                "\n  shard {i}: {} events, {:.1} sim-s, {} windows ({} null, {:.0}% stall), {} msgs out / {} in",
                st.events,
                st.sim_nanos as f64 / 1e9,
                st.windows,
                st.null_windows,
                100.0 * st.stall_ratio(),
                st.msgs_sent,
                st.msgs_received,
            ));
        }
        Some(s)
    }
}

/// Element-wise sum of per-cell shard statistics (shard `i` across all
/// cells). Cells with fewer shards simply contribute nothing to the
/// higher rows.
pub fn sum_shard_stats<'a>(cells: impl Iterator<Item = &'a [ShardStats]>) -> Vec<ShardStats> {
    let mut out: Vec<ShardStats> = Vec::new();
    for stats in cells {
        if out.len() < stats.len() {
            out.resize(stats.len(), ShardStats::default());
        }
        for (b, s) in out.iter_mut().zip(stats.iter()) {
            b.events += s.events;
            b.sim_nanos += s.sim_nanos;
            b.windows += s.windows;
            b.null_windows += s.null_windows;
            b.msgs_sent += s.msgs_sent;
            b.msgs_received += s.msgs_received;
        }
    }
    out
}

/// Find a deterministic (src, dst) switch pair whose service-prefix
/// traffic traverses `edge` in the `a → b` direction (the direction
/// [`fancy_apps::Scenario::fail_edge`] injects). Returns `None` for
/// edges no per-prefix ECMP choice routes over (dark edges).
pub fn directed_victim(topo: &Topology, routes: &Routes, edge: usize) -> Option<(usize, usize)> {
    directed_victim_excluding(topo, routes, edge, &HashSet::new())
}

/// Like [`directed_victim`] but skipping destinations already claimed by
/// another member of a multi-failure combo (so every failed edge gets a
/// victim entry of its own and the recovery verifier can attribute gray
/// drops unambiguously), and preferring destinations the SPIDER plan at
/// the protecting switch can cover — an uncovered victim degrades to
/// detection-only and would make the recovery verdict vacuous.
fn directed_victim_excluding(
    topo: &Topology,
    routes: &Routes,
    edge: usize,
    taken: &HashSet<usize>,
) -> Option<(usize, usize)> {
    let plan = BackupPlan::compute_partial(topo, routes, edge, topo.edges[edge].a);
    directed_victim_where(topo, routes, edge, taken, &|dst| {
        plan.backup_for(dst).is_some()
    })
    .or_else(|| directed_victim_where(topo, routes, edge, taken, &|_| true))
}

fn directed_victim_where(
    topo: &Topology,
    routes: &Routes,
    edge: usize,
    taken: &HashSet<usize>,
    accept: &dyn Fn(usize) -> bool,
) -> Option<(usize, usize)> {
    let n = topo.len();
    let a = topo.edges[edge].a;
    // Fast path: destinations reached from `a` straight over the edge.
    for dst in 0..n {
        if dst != a
            && !taken.contains(&dst)
            && accept(dst)
            && routes.next_edge(a, dst, flow_key(dst)) == edge
        {
            return Some((a, dst));
        }
    }
    // Slow path: any pair whose path crosses a → b mid-way.
    for dst in 0..n {
        if taken.contains(&dst) || !accept(dst) {
            continue;
        }
        for src in 0..n {
            if src == dst {
                continue;
            }
            if crosses_directed(topo, routes, src, dst, edge) {
                return Some((src, dst));
            }
        }
    }
    None
}

/// The ECMP flow key the graph scenario pins `dst`'s service prefix to
/// (mirrors the FIB construction in `fancy_apps::spec`).
fn flow_key(dst: usize) -> u64 {
    mix64(u64::from(service_prefix(dst).0))
}

fn crosses_directed(topo: &Topology, routes: &Routes, src: usize, dst: usize, edge: usize) -> bool {
    let a = topo.edges[edge].a;
    let mut at = src;
    while at != dst {
        let e = routes.next_edge(at, dst, flow_key(dst));
        if e == edge {
            return at == a;
        }
        at = topo.other_end(e, at);
    }
    false
}

/// Simulated horizon of a single-failure cell ([`run_netwide`]).
const SINGLE_HORIZON: SimDuration = SimDuration::from_secs(4);

/// Simulated horizon of a multi-failure cell ([`run_netwide_multi`]).
const COMBO_HORIZON: SimDuration = SimDuration::from_secs(5);

/// What every cell of one sweep shares.
struct Shared<'a> {
    topo: &'a Topology,
    routes: Routes,
    cfg: &'a NetwideConfig,
    /// Shard workers for the in-cell executor. Deliberately *not* part
    /// of the cache salt: the shard layout is a pure function of the
    /// topology, so every worker count produces byte-identical outcomes
    /// and can share cache records.
    workers: usize,
}

/// The set-up both sweeps share: compute the routes, pick the shard
/// workers, and run `cell` once per entry of `cells`, cached under a
/// salt that starts with `tag` (the sweep kind). `unit` names a cell in
/// the sweep label.
fn sweep<C, R>(
    topo: &Topology,
    cfg: &NetwideConfig,
    scale: &Scale,
    seed: u64,
    (tag, unit): (&str, &str),
    cells: Vec<C>,
    cell: impl Fn(&Shared, &C, &CellCtx) -> Result<R, ScenarioError> + Sync,
) -> Result<Vec<R>, ScenarioError>
where
    C: CacheKeyed + Sync,
    R: Send + CacheCodec,
{
    let shared = Shared {
        topo,
        routes: Routes::compute(topo)?,
        cfg,
        workers: match cfg.shards {
            0 => BenchEnv::from_env().shards,
            n => n,
        },
    };
    // Cache invalidation: the graph and its routes are part of the cell
    // identity — change either and every cell re-runs.
    let salt = Fingerprint::new()
        .with(tag)
        .with(scale)
        .with(&topo.fingerprint())
        .with(&shared.routes.fingerprint())
        .with(&(cfg.per_switch_flows, cfg.rate_bps))
        .with(&cfg.loss)
        .with(&cfg.protect);

    let label = format!("{tag} {}sw {}{unit}", topo.len(), cells.len());
    let mut sweep = Sweep::new(label, cells).seed(seed);
    if cfg.threads > 0 {
        sweep = sweep.threads(cfg.threads);
    }
    let (outcomes, _report) = sweep
        .cache_from_env(salt)
        .try_run_cached(|c, ctx| cell(&shared, c, ctx))?;
    Ok(outcomes)
}

/// Run the network-wide sweep over `topo`: one cell per failed edge,
/// every cell monitoring every edge. Thread-count invariant; cells are
/// cached under a salt including the topology and route fingerprints.
pub fn run_netwide(
    topo: &Topology,
    cfg: &NetwideConfig,
    scale: &Scale,
    seed: u64,
) -> Result<NetwideReport, ScenarioError> {
    let cells: Vec<usize> = match &cfg.edges {
        Some(list) => list.clone(),
        None => (0..topo.edges.len()).collect(),
    };
    let outcomes = sweep(
        topo,
        cfg,
        scale,
        seed,
        ("netwide", "edges"),
        cells,
        |shared, &edge, ctx| {
            let mut o = run_cell(
                shared,
                &[MultiFault { edge, chaos: false }],
                SINGLE_HORIZON,
                ctx,
            )?;
            let e = o.edges.swap_remove(0);
            Ok(EdgeOutcome {
                edge,
                name: e.name,
                carries_traffic: e.carries_traffic,
                detected: e.detected,
                detection_s: e.detection_s,
                cross_talk: o.cross_talk,
                protected: e.protected,
                reroute_s: e.reroute_s,
                bound_s: e.bound_s,
                recovery_ok: e.recovery_ok,
                flaps: e.flaps,
                metrics: o.metrics,
                shard_stats: o.shard_stats,
            })
        },
    )?;

    let carrying: Vec<&EdgeOutcome> = outcomes.iter().filter(|o| o.carries_traffic).collect();
    let detected: Vec<&&EdgeOutcome> = carrying.iter().filter(|o| o.detected).collect();
    let coverage = if carrying.is_empty() {
        1.0
    } else {
        detected.len() as f64 / carrying.len() as f64
    };
    let mean_detection_s = if detected.is_empty() {
        0.0
    } else {
        detected.iter().map(|o| o.detection_s).sum::<f64>() / detected.len() as f64
    };
    let cross_talk = outcomes.iter().map(|o| o.cross_talk).sum();
    let reroutes_measured = outcomes
        .iter()
        .filter(|o| o.protected && o.reroute_s >= 0.0)
        .count();
    let reroutes_within_bound = outcomes
        .iter()
        .filter(|o| o.protected && o.reroute_s >= 0.0 && o.reroute_s <= o.bound_s)
        .count();
    let recovery_violations = outcomes
        .iter()
        .filter(|o| o.protected && !o.recovery_ok)
        .count();
    let metrics = merge_cell_metrics(outcomes.iter().map(|o| &o.metrics));
    let shard_breakdown = sum_shard_stats(outcomes.iter().map(|o| o.shard_stats.as_slice()));
    Ok(NetwideReport {
        outcomes,
        coverage,
        mean_detection_s,
        cross_talk,
        reroutes_within_bound,
        reroutes_measured,
        recovery_violations,
        metrics,
        shard_breakdown,
    })
}

/// One member of a multi-failure combination: which edge fails and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiFault {
    /// Topology edge index to fail.
    pub edge: usize,
    /// `true` injects an adversarial Gilbert–Elliott bursty-loss chaos
    /// plan over *all* data on the edge; `false` a hard per-entry gray
    /// drop on the edge's victim entry.
    pub chaos: bool,
}

impl CacheKeyed for MultiFault {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_u64(self.edge as u64);
        fp.push_u64(self.chaos as u64);
    }
}

/// What one failed edge inside a combo cell observed.
#[derive(Debug, Clone)]
pub struct ComboEdge {
    /// Topology edge index that was failed.
    pub edge: usize,
    /// Edge name (for reports).
    pub name: String,
    /// The member was a chaos plan rather than a hard gray drop.
    pub chaos: bool,
    /// Victim service-prefix id (`0` when the edge is dark).
    pub victim_entry: u32,
    /// The edge carried victim traffic.
    pub carries_traffic: bool,
    /// The upstream switch flagged the failure on its egress port.
    pub detected: bool,
    /// Onset → upstream detection, seconds (`-1` when undetected).
    pub detection_s: f64,
    /// SPIDER protection covers this edge's victim entry.
    pub protected: bool,
    /// Onset → first reroute of the victim entry, seconds (`-1` when
    /// not protected or no reroute fired).
    pub reroute_s: f64,
    /// Analytic detect+switch bound, seconds (`-1` when not protected).
    pub bound_s: f64,
    /// The recovery verifier's verdict for the victim entry (vacuously
    /// `true` when unprotected).
    pub recovery_ok: bool,
    /// Damping retrips ("flaps") observed for the victim entry.
    pub flaps: u64,
    /// Backup-chain-exhausted alarms observed for the victim entry.
    pub alarms: u64,
}

/// One multi-failure cell's observations, per failed edge.
#[derive(Debug, Clone)]
pub struct ComboOutcome {
    /// Per-member outcomes, in combo order.
    pub edges: Vec<ComboEdge>,
    /// Detections after onset at no failed edge's upstream port.
    pub cross_talk: u64,
    /// The cell's merged metrics snapshot, as in [`EdgeOutcome`].
    pub metrics: Snapshot,
    /// Per-shard executor statistics for this cell.
    pub shard_stats: Vec<ShardStats>,
}

impl ComboOutcome {
    /// Display name, e.g. `"e0 + e7"`.
    pub fn name(&self) -> String {
        self.edges
            .iter()
            .map(|e| e.name.as_str())
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Every traffic-carrying member was detected at its upstream port.
    pub fn all_detected(&self) -> bool {
        self.edges
            .iter()
            .filter(|e| e.carries_traffic)
            .all(|e| e.detected)
    }

    /// Every protected member met its recovery contract.
    pub fn recovery_ok(&self) -> bool {
        self.edges
            .iter()
            .filter(|e| e.protected)
            .all(|e| e.recovery_ok)
    }
}

impl CacheCodec for ComboOutcome {
    fn encode(&self, rec: &mut Record) {
        rec.put_u64("edges", self.edges.len() as u64);
        for (i, e) in self.edges.iter().enumerate() {
            rec.put_u64(&format!("e{i}_edge"), e.edge as u64);
            rec.put_str(&format!("e{i}_name"), &e.name);
            rec.put_u64(&format!("e{i}_chaos"), e.chaos as u64);
            rec.put_u64(&format!("e{i}_victim"), u64::from(e.victim_entry));
            rec.put_u64(&format!("e{i}_traffic"), e.carries_traffic as u64);
            rec.put_u64(&format!("e{i}_detected"), e.detected as u64);
            rec.put_f64(&format!("e{i}_det_s"), e.detection_s);
            rec.put_u64(&format!("e{i}_protected"), e.protected as u64);
            rec.put_f64(&format!("e{i}_reroute_s"), e.reroute_s);
            rec.put_f64(&format!("e{i}_bound_s"), e.bound_s);
            rec.put_u64(&format!("e{i}_recovery"), e.recovery_ok as u64);
            rec.put_u64(&format!("e{i}_flaps"), e.flaps);
            rec.put_u64(&format!("e{i}_alarms"), e.alarms);
        }
        rec.put_u64("cross_talk", self.cross_talk);
        rec.put_str("metrics", &self.metrics.to_jsonl());
        encode_shard_stats(rec, &self.shard_stats);
    }

    fn decode(rec: &Record) -> Option<Self> {
        // Nothing is pre-allocated from the stored count (see
        // `decode_shard_stats`).
        let edges = (0..rec.u64("edges")?)
            .map(|i| {
                Some(ComboEdge {
                    edge: rec.u64(&format!("e{i}_edge"))? as usize,
                    name: rec.str(&format!("e{i}_name"))?.to_owned(),
                    chaos: rec.u64(&format!("e{i}_chaos"))? != 0,
                    victim_entry: u32::try_from(rec.u64(&format!("e{i}_victim"))?).ok()?,
                    carries_traffic: rec.u64(&format!("e{i}_traffic"))? != 0,
                    detected: rec.u64(&format!("e{i}_detected"))? != 0,
                    detection_s: rec.f64(&format!("e{i}_det_s"))?,
                    protected: rec.u64(&format!("e{i}_protected"))? != 0,
                    reroute_s: rec.f64(&format!("e{i}_reroute_s"))?,
                    bound_s: rec.f64(&format!("e{i}_bound_s"))?,
                    recovery_ok: rec.u64(&format!("e{i}_recovery"))? != 0,
                    flaps: rec.u64(&format!("e{i}_flaps"))?,
                    alarms: rec.u64(&format!("e{i}_alarms"))?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ComboOutcome {
            edges,
            cross_talk: rec.u64("cross_talk")?,
            metrics: decode_metrics(rec)?,
            shard_stats: decode_shard_stats(rec)?,
        })
    }
}

/// The aggregated result of one multi-failure sweep.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Per-combo outcomes, in cell order.
    pub outcomes: Vec<ComboOutcome>,
    /// Combos where every traffic-carrying member was detected.
    pub combos_fully_detected: usize,
    /// Protected members (across all combos) whose recovery verifier
    /// found any violation.
    pub recovery_violations: usize,
    /// Total cross-talk detections across all cells.
    pub cross_talk: u64,
    /// Per-cell metrics snapshots merged in combo order.
    pub metrics: Snapshot,
    /// Per-shard executor statistics summed element-wise across cells.
    pub shard_breakdown: Vec<ShardStats>,
}

/// Run the multi-failure sweep: one cell per combo, every member of the
/// combo failed simultaneously (chaos plans and hard gray drops side by
/// side). Shard- and thread-count invariant, cached like [`run_netwide`]
/// under a salt that folds in each combo's content.
pub fn run_netwide_multi(
    topo: &Topology,
    cfg: &NetwideConfig,
    combos: &[Vec<MultiFault>],
    scale: &Scale,
    seed: u64,
) -> Result<MultiReport, ScenarioError> {
    let outcomes = sweep(
        topo,
        cfg,
        scale,
        seed,
        ("netwide-multi", "combos"),
        combos.to_vec(),
        |shared, combo, ctx| run_cell(shared, combo, COMBO_HORIZON, ctx),
    )?;

    let combos_fully_detected = outcomes.iter().filter(|o| o.all_detected()).count();
    let recovery_violations = outcomes
        .iter()
        .flat_map(|o| o.edges.iter())
        .filter(|e| e.protected && !e.recovery_ok)
        .count();
    let cross_talk = outcomes.iter().map(|o| o.cross_talk).sum();
    let metrics = merge_cell_metrics(outcomes.iter().map(|o| &o.metrics));
    let shard_breakdown = sum_shard_stats(outcomes.iter().map(|o| o.shard_stats.as_slice()));
    Ok(MultiReport {
        outcomes,
        combos_fully_detected,
        recovery_violations,
        cross_talk,
        metrics,
        shard_breakdown,
    })
}

fn dark_combo_edge(topo: &Topology, f: &MultiFault) -> ComboEdge {
    ComboEdge {
        edge: f.edge,
        name: topo.edges[f.edge].name.clone(),
        chaos: f.chaos,
        victim_entry: 0,
        carries_traffic: false,
        detected: false,
        detection_s: -1.0,
        protected: false,
        reroute_s: -1.0,
        bound_s: -1.0,
        recovery_ok: true,
        flaps: 0,
        alarms: 0,
    }
}

/// The one cell runner: build the whole network as a sharded scenario
/// over the topology's deterministic partition, fail every member of
/// `faults` at the same onset, run to `horizon`, and observe each
/// member's detection, reroute and recovery verdict. A single failure is
/// the one-member combo. `shared.workers` only chooses how many OS
/// threads drive the shards — every value yields byte-identical outcomes.
fn run_cell(
    shared: &Shared,
    faults: &[MultiFault],
    horizon: SimDuration,
    ctx: &CellCtx,
) -> Result<ComboOutcome, ScenarioError> {
    let Shared { topo, cfg, .. } = *shared;
    let seed = ctx.seed;
    let fail_at = SimTime::ZERO + SimDuration::from_secs_f64(1.5);

    // Give every member its own victim pair (and entry), so gray drops,
    // reroutes and verdicts attribute unambiguously per edge.
    let mut taken: HashSet<usize> = HashSet::new();
    let victims: Vec<Option<(usize, usize)>> = faults
        .iter()
        .map(|f| {
            let v = directed_victim_excluding(topo, &shared.routes, f.edge, &taken);
            if let Some((_, dst)) = v {
                taken.insert(dst);
            }
            v
        })
        .collect();

    // Background mesh plus, per carrying member, victim flows that keep
    // the failed edge busy across the onset (1 s flows, back to back).
    let mut flows = uniform_pair_flows(topo.len(), cfg.per_switch_flows, cfg.rate_bps, 1.0, seed);
    let mut prios = Vec::new();
    for (i, v) in victims.iter().enumerate() {
        let Some((src, dst)) = *v else { continue };
        prios.push(service_prefix(dst));
        for k in 0..4u64 {
            for rep in 0..4u64 {
                flows.push(PairFlow {
                    src,
                    dst,
                    start: SimTime(
                        rep * 1_000_000_000
                            + k * 130_000_000
                            + (mix64(seed ^ ((i as u64) << 8) ^ k) % 50_000_000),
                    ),
                    cfg: FlowConfig::for_rate(cfg.rate_bps, 1.0),
                });
            }
        }
    }
    if prios.is_empty() {
        // Every member is dark: nothing can be observed.
        return Ok(ComboOutcome {
            edges: faults.iter().map(|f| dark_combo_edge(topo, f)).collect(),
            cross_talk: 0,
            metrics: Snapshot::default(),
            shard_stats: Vec::new(),
        });
    }

    // Protect every carrying member that has a loop-free alternate; the
    // PathGroup error names the edge, so the retry drops exactly that
    // member and the rest keep their protection (like real IP-FRR on a
    // partially protectable graph).
    let mut protect_names: Vec<String> = if cfg.protect {
        faults
            .iter()
            .zip(&victims)
            .filter(|(_, v)| v.is_some())
            .map(|(f, _)| topo.edges[f.edge].name.clone())
            .collect()
    } else {
        Vec::new()
    };
    let spec = |names: &[String]| {
        let mut s = ScenarioSpec::topology(topo.clone())
            .seed(seed)
            .high_priority(prios.clone())
            .pair_flows(flows.clone());
        for name in names {
            s = s.protect(name);
        }
        s
    };
    let mut sc = loop {
        match spec(&protect_names).build_sharded() {
            Ok(sc) => break sc,
            Err(ScenarioError::PathGroup { edge, .. })
                if protect_names.contains(&topo.edges[edge].name) =>
            {
                protect_names.retain(|p| *p != topo.edges[edge].name);
            }
            // Any other error (a path group not ours included) is real.
            Err(e) => return Err(e),
        }
    };

    // Flight recorders for the reroute chain: one per shard (a shared
    // sink would interleave nondeterministically under threaded runs);
    // the streams merge in canonical order after the run. Only protected
    // members read them, so a cell with none runs with no tracer.
    let traced = if sc.protected.is_empty() {
        0
    } else {
        sc.shard_count()
    };
    let recorders: Vec<FlightFilter> = (0..traced)
        .map(|s| {
            let r = FlightFilter::default();
            sc.net.shard_mut(s).kernel.set_tracer(Box::new(r.clone()));
            r
        })
        .collect();
    // Metrics plane: one hub per shard for the same reason; the merged
    // snapshot (counters sum, gauges max, histograms merge, in shard
    // order) is identical at every worker count. The executor's
    // `fancy_shard_*` gauges land in these hubs too.
    let hubs: Vec<MetricsHub> = (0..sc.shard_count())
        .map(|s| {
            let hub = MetricsHub::new();
            sc.net.shard_mut(s).kernel.set_metrics(hub.clone());
            hub
        })
        .collect();

    // Inject every member at the same onset: chaos members get bursty
    // Gilbert–Elliott loss over all data on the edge, gray members a
    // hard per-entry drop on their victim.
    for (f, v) in faults.iter().zip(&victims) {
        let Some((_, dst)) = *v else { continue };
        if f.chaos {
            sc.add_fault_plan(
                f.edge,
                FaultPlan::new(mix64(seed ^ f.edge as u64)).stage(
                    FaultStage::new(FaultTarget::Data)
                        .gilbert_elliott(0.05, 0.1, 0.0, 1.0)
                        .starting(fail_at),
                ),
            );
        } else {
            sc.fail_edge(
                f.edge,
                GrayFailure::single_entry(service_prefix(dst), cfg.loss, fail_at),
            );
        }
    }

    sc.run_until(SimTime::ZERO + horizon, shared.workers);

    let detections = sc.detections();
    let events = merge_shard_streams(recorders.iter().map(|r| r.snapshot()).collect());

    let mut edges_out = Vec::with_capacity(faults.len());
    let mut up_set = Vec::with_capacity(faults.len());
    for (f, v) in faults.iter().zip(&victims) {
        let mut out = dark_combo_edge(topo, f);
        let Some((_, dst)) = *v else {
            edges_out.push(out);
            continue;
        };
        let victim = service_prefix(dst);
        out.victim_entry = victim.0;
        out.carries_traffic = true;
        let up = (topo.edges[f.edge].a, sc.edges[f.edge].port_a);
        up_set.push(up);
        let upstream = detections
            .iter()
            .filter(|d| d.time >= fail_at)
            .find(|d| (d.node, d.port) == up);
        if let Some(d) = upstream {
            let latency = d.time.duration_since(fail_at);
            out.detected = true;
            out.detection_s = latency.as_secs_f64();
            // The per-edge series the netwide report aggregates, keyed by
            // edge name. Shard 0's hub hosts it; the merged snapshot
            // carries it either way.
            let labels = Labels::new().with("edge", out.name.clone());
            hubs[0].with(|r| r.observe(EDGE_DETECTION_METRIC, labels, latency.as_nanos()));
        }
        // Protected means SPIDER actually covers this member's victim:
        // the path group exists *and* installed a backup for its prefix.
        // An uncovered destination (no loop-free alternate, like real
        // IP-FRR on sparse spots) degrades to detection-only and passes
        // the recovery contract vacuously.
        let covering = sc
            .protected
            .iter()
            .find(|p| p.edge == f.edge)
            .filter(|p| p.backups.iter().any(|(pre, _)| *pre == victim));
        if let Some(p) = covering {
            let entry = u64::from(victim.0);
            let onset = sc.first_drop(victim).unwrap_or(fail_at);
            let reroute_ns = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Reroute { t, entry: en, .. } if *en == entry => Some(*t),
                    _ => None,
                })
                .min();
            let mut contract =
                RecoveryContract::new(entry, p.bound.as_nanos(), RECOVERY_LOSS_BUDGET_NS);
            contract.onset_ns = Some(onset.0);
            let verdict = recovery::verify(&events, &contract);
            out.protected = true;
            out.reroute_s = reroute_ns.map_or(-1.0, |t| t.saturating_sub(onset.0) as f64 / 1e9);
            out.bound_s = p.bound.as_secs_f64();
            out.recovery_ok = verdict.pass();
            out.flaps = verdict.flaps;
            out.alarms = verdict.alarms;
        }
        edges_out.push(out);
    }

    // Cross-talk: detections after onset at no failed edge's upstream.
    let cross_talk = detections
        .iter()
        .filter(|d| d.time >= fail_at && !up_set.contains(&(d.node, d.port)))
        .count() as u64;

    // Absorb every shard into the sweep aggregate: telemetry, sim time
    // and the per-shard metrics hubs surface in the sweep summary, warm
    // or cold — the cache stores the absorbed stats with the result.
    for s in 0..sc.shard_count() {
        ctx.absorb(sc.net.shard(s));
    }

    Ok(ComboOutcome {
        edges: edges_out,
        cross_talk,
        metrics: sc.merged_metrics(),
        shard_stats: sc.net.stats().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fancy_topo::isp_backbone;

    #[test]
    fn every_backbone_edge_has_a_directed_victim() {
        let topo = isp_backbone(10, 0xE55).unwrap();
        let routes = Routes::compute(&topo).unwrap();
        let mut carrying = 0;
        for e in 0..topo.edges.len() {
            if let Some((src, dst)) = directed_victim(&topo, &routes, e) {
                carrying += 1;
                assert!(crosses_directed(&topo, &routes, src, dst, e));
            }
        }
        // The ring part alone guarantees most edges carry traffic.
        assert!(
            carrying * 2 >= topo.edges.len(),
            "{carrying} carrying edges"
        );
    }

    #[test]
    fn netwide_sweep_detects_on_a_small_backbone() {
        let topo = isp_backbone(6, 0x5EED).unwrap();
        let cfg = NetwideConfig {
            edges: Some(vec![0, 1]),
            ..NetwideConfig::default()
        };
        let scale = Scale::from_env();
        let report = run_netwide(&topo, &cfg, &scale, 0xBEEF).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        for o in &report.outcomes {
            assert!(o.carries_traffic);
            assert!(o.detected, "edge {} undetected", o.name);
            assert!(o.detection_s >= 0.0 && o.detection_s < 2.0);
            assert!(!o.shard_stats.is_empty(), "cells run sharded");
        }
        assert!(report.coverage == 1.0);
        // The per-shard breakdown aggregates real work, and the summary
        // renders one row per shard.
        assert!(report.shard_breakdown.iter().any(|s| s.events > 0));
        let summary = report.shard_summary().expect("sharded cells ran");
        assert!(summary.contains("shard 0:"));
        // The executor's gauges rode the per-cell metrics snapshots into
        // the merged report plane.
        assert!(
            report
                .metrics
                .gauge("fancy_shard_events", &Labels::new().with("shard", "0"))
                .is_some(),
            "fancy_shard_* gauges missing from the merged metrics plane"
        );
    }

    #[test]
    fn edge_outcome_roundtrips_shard_stats() {
        let out = EdgeOutcome {
            edge: 3,
            name: "e3".into(),
            carries_traffic: true,
            detected: true,
            detection_s: 0.25,
            cross_talk: 1,
            protected: false,
            reroute_s: -1.0,
            bound_s: -1.0,
            recovery_ok: true,
            flaps: 0,
            metrics: Snapshot::default(),
            shard_stats: vec![
                ShardStats {
                    events: 10,
                    sim_nanos: 5,
                    windows: 4,
                    null_windows: 1,
                    msgs_sent: 2,
                    msgs_received: 3,
                },
                ShardStats::default(),
            ],
        };
        let mut rec = Record::default();
        out.encode(&mut rec);
        let back = EdgeOutcome::decode(&rec).expect("decodes");
        assert_eq!(back.shard_stats.len(), 2);
        assert_eq!(back.shard_stats[0].events, 10);
        assert_eq!(back.shard_stats[0].null_windows, 1);
        assert_eq!(back.shard_stats[1].windows, 0);
        assert!(back.recovery_ok);
        assert_eq!(back.flaps, 0);
    }

    #[test]
    fn combo_outcome_roundtrips() {
        let out = ComboOutcome {
            edges: vec![
                ComboEdge {
                    edge: 1,
                    name: "e1".into(),
                    chaos: true,
                    victim_entry: 7,
                    carries_traffic: true,
                    detected: true,
                    detection_s: 0.3,
                    protected: true,
                    reroute_s: 0.4,
                    bound_s: 0.9,
                    recovery_ok: true,
                    flaps: 0,
                    alarms: 0,
                },
                ComboEdge {
                    edge: 4,
                    name: "e4".into(),
                    chaos: false,
                    victim_entry: 9,
                    carries_traffic: true,
                    detected: false,
                    detection_s: -1.0,
                    protected: false,
                    reroute_s: -1.0,
                    bound_s: -1.0,
                    recovery_ok: true,
                    flaps: 0,
                    alarms: 2,
                },
            ],
            cross_talk: 3,
            metrics: Snapshot::default(),
            shard_stats: vec![ShardStats::default()],
        };
        let mut rec = Record::default();
        out.encode(&mut rec);
        let back = ComboOutcome::decode(&rec).expect("decodes");
        assert_eq!(back.edges.len(), 2);
        assert_eq!(back.edges[0].victim_entry, 7);
        assert!(back.edges[0].chaos && back.edges[0].recovery_ok);
        assert_eq!(back.edges[1].alarms, 2);
        assert_eq!(back.cross_talk, 3);
        assert_eq!(back.name(), "e1 + e4");
        assert!(!back.all_detected());
        assert!(back.recovery_ok());
        // A victim entry past u32 is a corrupt record: a cache miss, not
        // a silently truncated entry.
        rec.put_u64("e1_victim", 1 << 32);
        assert!(ComboOutcome::decode(&rec).is_none());
    }

    #[test]
    fn netwide_sweep_verifies_recovery_on_protected_edges() {
        let topo = isp_backbone(6, 0x5EED).unwrap();
        let cfg = NetwideConfig {
            edges: Some(vec![0]),
            ..NetwideConfig::default()
        };
        let report = run_netwide(&topo, &cfg, &Scale::from_env(), 0xBEEF).unwrap();
        let o = &report.outcomes[0];
        if o.protected {
            assert!(o.recovery_ok, "verifier flagged edge {}", o.name);
            assert_eq!(o.flaps, 0, "paper-default damping must not flap");
            assert_eq!(report.recovery_violations, 0);
        }
    }

    #[test]
    fn overlapping_failures_detect_and_recover_per_edge() {
        let topo = isp_backbone(8, 0x5EED).unwrap();
        let routes = Routes::compute(&topo).unwrap();
        // Two carrying edges with distinct victims: chaos on the first,
        // a hard gray drop on the second.
        let mut picks = Vec::new();
        let mut taken = HashSet::new();
        for e in 0..topo.edges.len() {
            if let Some((_, dst)) = directed_victim_excluding(&topo, &routes, e, &taken) {
                taken.insert(dst);
                picks.push(e);
                if picks.len() == 2 {
                    break;
                }
            }
        }
        assert_eq!(picks.len(), 2, "backbone must have 2 carrying edges");
        let combos = vec![vec![
            MultiFault {
                edge: picks[0],
                chaos: true,
            },
            MultiFault {
                edge: picks[1],
                chaos: false,
            },
        ]];
        let cfg = NetwideConfig::default();
        let report = run_netwide_multi(&topo, &cfg, &combos, &Scale::from_env(), 0xFA17).unwrap();
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert!(o.all_detected(), "undetected member: {:?}", o.edges);
        assert_eq!(report.combos_fully_detected, 1);
        assert_eq!(
            report.recovery_violations, 0,
            "verifier violations: {:?}",
            o.edges
        );
        assert!(
            o.edges.iter().any(|e| e.protected),
            "no member was protectable: {:?}",
            o.edges
        );
        for e in &o.edges {
            assert!(e.carries_traffic && e.detected);
            assert!(e.victim_entry != 0);
            if e.protected {
                assert!(
                    e.reroute_s >= 0.0 && e.reroute_s <= e.bound_s,
                    "edge {}: reroute {} vs bound {}",
                    e.name,
                    e.reroute_s,
                    e.bound_s
                );
                assert!(e.recovery_ok, "edge {} failed recovery", e.name);
                assert_eq!(e.flaps, 0);
            }
        }
        // Both victim entries are distinct, so verdicts attribute.
        assert_ne!(o.edges[0].victim_entry, o.edges[1].victim_entry);
        assert!(!o.shard_stats.is_empty(), "combo cells run sharded");
    }

    /// A triangle x–y–z whose x↔z edge (index 2) is slower than the
    /// two-hop detour through y, so no shortest path uses it: a dark edge.
    fn triangle_with_dark_edge() -> Topology {
        let mut b = fancy_topo::TopologyBuilder::new();
        let [x, y, z] = ["x", "y", "z"].map(|n| b.switch(n).unwrap());
        let ms = |n| fancy_topo::LinkSpec::new(10_000_000_000, SimDuration::from_millis(n));
        b.link(x, y, ms(1)).unwrap();
        b.link(y, z, ms(1)).unwrap();
        b.link(x, z, ms(5)).unwrap();
        b.build().unwrap()
    }

    const DARK: usize = 2;

    #[test]
    fn dark_edges_report_nothing_and_stay_out_of_coverage() {
        let topo = triangle_with_dark_edge();
        let routes = Routes::compute(&topo).unwrap();
        assert_eq!(directed_victim(&topo, &routes, DARK), None);
        assert!(directed_victim(&topo, &routes, 0).is_some());

        let cfg = NetwideConfig {
            edges: Some(vec![DARK]),
            ..NetwideConfig::default()
        };
        let report = run_netwide(&topo, &cfg, &Scale::from_env(), 0xDA4C).unwrap();
        let o = &report.outcomes[0];
        assert_eq!((o.edge, o.name.as_str()), (DARK, "x↔z"));
        assert!(!o.carries_traffic && !o.detected && !o.protected);
        assert_eq!((o.detection_s, o.reroute_s, o.bound_s), (-1.0, -1.0, -1.0));
        assert!(o.recovery_ok);
        assert_eq!((o.cross_talk, o.flaps), (0, 0));
        assert!(o.metrics.is_empty() && o.shard_stats.is_empty());
        assert_eq!(report.coverage, 1.0);
        assert_eq!(report.shard_summary(), None);

        // Next to a carrying member, the dark one claims no victim entry
        // and the carrying one is still detected at its upstream port.
        let combos = vec![vec![
            MultiFault {
                edge: DARK,
                chaos: false,
            },
            MultiFault {
                edge: 0,
                chaos: false,
            },
        ]];
        let mr = run_netwide_multi(&topo, &cfg, &combos, &Scale::from_env(), 0xDA4C).unwrap();
        let [dark, carrying] = &mr.outcomes[0].edges[..] else {
            panic!("two members: {:?}", mr.outcomes[0].edges);
        };
        assert_eq!(dark.victim_entry, 0);
        assert!(!dark.carries_traffic && !dark.detected);
        assert!(
            carrying.carries_traffic && carrying.detected,
            "{carrying:?}"
        );
        assert!(carrying.victim_entry != 0);
        assert_eq!(mr.combos_fully_detected, 1);
    }

    #[test]
    fn unprotected_cells_measure_no_reroute() {
        let topo = triangle_with_dark_edge();
        let cfg = NetwideConfig {
            edges: Some(vec![0]),
            protect: false,
            ..NetwideConfig::default()
        };
        let report = run_netwide(&topo, &cfg, &Scale::from_env(), 0x4E7).unwrap();
        let o = &report.outcomes[0];
        assert!(o.carries_traffic);
        assert!(!o.protected);
        assert_eq!((o.reroute_s, o.bound_s), (-1.0, -1.0));
        assert!(o.recovery_ok);
        assert_eq!(report.reroutes_measured, 0);
        assert_eq!(report.recovery_violations, 0);
    }
}
