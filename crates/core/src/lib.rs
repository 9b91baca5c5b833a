//! # fancy-core — the FANcY gray-failure detection system
//!
//! A from-scratch Rust implementation of FANcY (*FAst In-Network GraY
//! Failure Detection for ISPs*, SIGCOMM 2022): an inter-switch protocol that
//! lets data planes synchronize packet counters and detect gray failures —
//! hardware malfunctions dropping a subset of traffic — by comparing them.
//!
//! The crate is organized exactly along the paper's §4:
//!
//! * [`config`] — the operator-facing input (high-priority entries, memory
//!   budget) and its translation into a per-port layout (§4.3);
//! * [`fsm`] — the stop-and-wait counting-protocol state machines (§4.1,
//!   Fig. 3/4);
//! * [`tree`] — hash-based trees: parameters, per-level hashing, hash paths
//!   (§4.2, Fig. 5);
//! * [`zoom`] — the zooming algorithm exploring trees at runtime, with
//!   pipelining and split-k parallel exploration (§4.2, Fig. 6);
//! * [`output`] — the 1-bit flag array and the 2-register Bloom filter that
//!   applications consult at line rate (§4.3);
//! * [`switch`] — the FANcY switch as a simulator node: the paper's
//!   pipeline (ingress count → FIB → steer → TM → egress count and tag)
//!   driving one sender and one receiver FSM per counting instance
//!   through one step function per role; its failover layer (fast-reroute
//!   backup chains, cascaded failover, reroute damping, §6.1) is the
//!   `switch::failover` child module.
//!
//! ## Quick start
//!
//! ```
//! use fancy_core::prelude::*;
//! use fancy_net::Prefix;
//!
//! // 500 high-priority entries, 20 KB per port — the paper's evaluation
//! // configuration. Translation enforces the memory budget.
//! let high_priority: Vec<Prefix> = (0..500).map(Prefix).collect();
//! let layout = FancyInput::paper_default(high_priority).translate().unwrap();
//! assert_eq!(layout.tree.width, 190);
//! ```

pub mod config;
pub mod error;
pub mod fsm;
pub mod output;
pub mod strawman;
pub mod switch;
pub mod tree;
pub mod zoom;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::config::{FancyInput, FancyLayout, TimerConfig, DEDICATED_ENTRY_BITS};
    pub use crate::error::ConfigError;
    pub use crate::fsm::{ReceiverFsm, ReceiverState, SenderFsm, SenderState};
    pub use crate::output::{FlagArray, OutputBloom};
    pub use crate::strawman::{StrawmanReceiver, StrawmanSender};
    pub use crate::switch::{CongestionGuard, FancySwitch, Reroute, SwitchStats};
    pub use crate::tree::{TreeHasher, TreeParams};
    pub use crate::zoom::{SelectionPolicy, ZoomEngine, ZoomOutcome, ZoomStep};
}

pub use prelude::*;
