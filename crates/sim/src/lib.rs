//! # fancy-sim — a deterministic packet-level network simulator
//!
//! This crate is the ns-3 substitute used to evaluate the FANcY
//! gray-failure detection system (SIGCOMM 2022). It provides:
//!
//! * a deterministic discrete-event kernel ([`network::Network`],
//!   [`kernel::Kernel`]) with nanosecond virtual time,
//! * full-duplex links with serialization, propagation delay and a
//!   traffic-manager queue model ([`link`]) that keeps congestion drops
//!   strictly separate from gray-failure drops — mirroring where FANcY
//!   places its counters (after the upstream TM, before the downstream one),
//! * a gray-failure injection engine ([`failure`]) covering every failure
//!   class of the paper's Table 1,
//! * the [`node::Node`] trait that hosts, switches and detectors implement,
//! * ground-truth and detection records ([`record`]) that experiments
//!   compute TPR / detection-time metrics from.
//!
//! The simulator is synchronous and single-threaded per run: simulation is
//! CPU-bound, so an async runtime would add overhead without benefit (the
//! experiment harness parallelizes across *runs* instead). Runs are
//! bit-reproducible: all randomness flows from the seed given to
//! [`network::Network::new`], and event ties break by insertion order.
//!
//! ## Example
//!
//! ```
//! use fancy_sim::prelude::*;
//!
//! let mut net = Network::new(42);
//! let sink_id = net.add_node(Box::new(SinkNode::default()));
//! let switch_id = net.add_node(Box::new(PlainSwitch::new({
//!     let mut fib = Fib::new();
//!     fib.default_route(0);
//!     fib
//! })));
//! let link = net.connect(switch_id, sink_id, LinkConfig::default());
//!
//! // A 1 % gray failure on the switch→sink direction, active from t = 0.
//! net.kernel.add_failure(
//!     link,
//!     switch_id,
//!     GrayFailure::uniform(0.01, SimTime::ZERO),
//! );
//!
//! let pkt = PacketBuilder::new(1, 0x0A000001, 1500, PacketKind::Udp { flow: 0, seq: 0 }).build();
//! net.kernel.inject(switch_id, 0, pkt, SimTime::ZERO);
//! net.run_to_end();
//! assert_eq!(
//!     net.node::<SinkNode>(sink_id).packets + net.kernel.records.total_gray_drops(),
//!     1
//! );
//! ```

pub mod event;
pub mod failure;
pub mod kernel;
pub mod link;
pub mod network;
pub mod node;
pub mod packet;
pub mod pool;
pub mod record;
pub mod scrape;
pub mod shard;
pub mod switch;
pub mod tap;
pub mod telemetry;
pub mod time;

/// The flight-recorder crate, re-exported so instrumented downstream
/// crates (core, tcp, apps) need no direct `fancy-trace` dependency.
pub use fancy_trace as trace;

/// The metrics-plane crate, re-exported for the same reason: downstream
/// instrumentation reaches `Labels`/`MetricsHub` through `fancy_sim`.
pub use fancy_metrics as metrics;

/// Convenient re-exports for building simulations.
pub mod prelude {
    pub use crate::event::{NodeId, PortId, TimerToken};
    pub use crate::failure::{
        FailureMatcher, FaultPlan, FaultStage, FaultTarget, FaultVerdict, GrayFailure, LossProcess,
    };
    pub use crate::kernel::{Kernel, LinkId, OutMsg, UID_LANE_SHIFT};
    pub use crate::link::{Admission, LinkConfig, RemoteEnd};
    pub use crate::network::Network;
    pub use crate::node::{Node, SinkNode};
    pub use crate::packet::{FlowId, Packet, PacketBuilder, PacketKind};
    pub use crate::pool::{PacketPool, PacketRef};
    pub use crate::record::{DetectionRecord, DetectionScope, DetectorKind, Records};
    pub use crate::scrape::ScrapeNode;
    pub use crate::shard::{ShardStats, ShardedNet};
    pub use crate::switch::{Bridge, Fib, PlainSwitch, PortTable};
    pub use crate::tap::{Capture, TraceTap};
    pub use crate::telemetry::{TelemetryCounters, TelemetrySnapshot};
    pub use crate::time::{transmission_time, SimDuration, SimTime};
    pub use fancy_metrics::{Labels, MetricsHub, Snapshot};
    pub use fancy_trace::{
        DropCause, JsonlWriter, RingRecorder, SharedRecorder, TraceEvent, TraceKind, TraceSink,
        UNIT_TREE,
    };
}

pub use prelude::*;
