//! # fancy-topo — ISP-scale topologies for network-wide FANcY
//!
//! The paper evaluates FANcY on a single monitored link, but pitches it as
//! ISP-wide gray-failure detection. This crate supplies the missing layer:
//!
//! * [`TopologyBuilder`] — named switches and typed links (bandwidth +
//!   propagation delay), validated into an immutable [`Topology`];
//! * [`generators`] — Topology Zoo-style ISP backbones
//!   ([`isp_backbone`]) and k-ary fat-trees ([`fat_tree`]), both fully
//!   deterministic in their seed/arity;
//! * [`Routes`] — deterministic shortest-path computation with ECMP path
//!   groups ([`Routes::group`]): per `(source, destination)` the set of
//!   equal-cost egress edges, held in one flat all-pairs table (a cost and
//!   an offset per ordered pair, the groups' edges back to back), with a
//!   seeded hash picking one per prefix so
//!   a prefix follows a single stable path (FANcY's per-entry counters
//!   assume entry-stable paths);
//! * [`BackupPlan`] — SPIDER-inspired pre-provisioned backup paths for a
//!   protected edge: per affected destination, a loop-free alternate
//!   neighbor whose shortest path provably avoids the protected link.
//!
//! Everything here is a pure graph computation — no simulator state. The
//! `fancy-apps` crate instantiates a [`Topology`] into a running network
//! (one FANcY switch per node, every inter-switch link monitored in both
//! directions) through its `ScenarioSpec` builder.
//!
//! ## Determinism contract
//!
//! Route computation is a pure function of the topology: Dijkstra with
//! cost `delay_ns + 1` per hop and index-ordered tie-breaking, ECMP
//! groups sorted by edge index, per-prefix path selection by
//! [`fancy_net::seeded_hash`]. Two processes computing routes for equal
//! topologies produce bit-identical [`Routes::fingerprint`] values —
//! which is also what keys the bench result cache, so a topology change
//! can never be served a stale sweep cell.

mod builder;
pub mod generators;
mod partition;
mod routes;
mod spider;

pub use builder::{
    EdgeDef, EdgeIdx, LinkSpec, SwitchDef, SwitchIdx, TopoError, Topology, TopologyBuilder,
};
pub use generators::{fat_tree, isp_backbone};
pub use partition::{Partition, DEFAULT_REGIONS};
pub use routes::Routes;
pub use spider::{BackupPlan, BackupRoute};
