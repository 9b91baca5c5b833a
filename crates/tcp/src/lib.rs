//! # fancy-tcp — the closed-loop TCP flow model
//!
//! FANcY is a traffic-driven detector: what it can see depends on how TCP
//! reacts to loss. This crate provides the flow model the evaluation runs
//! on: Reno-style congestion control with a 200 ms retransmission timeout
//! and exponential backoff ([`flow`]), and the host nodes that drive flows
//! through the simulator ([`host`]).
//!
//! The model is intentionally small — see `flow`'s module docs for exactly
//! which TCP behaviours are reproduced and why they are the ones that
//! matter for the paper's results.

pub mod flow;
pub mod host;

pub use flow::{FlowAction, FlowConfig, TcpFlow, DEFAULT_RTO, MAX_RTO};
pub use host::{
    EntryCount, ReceiverHost, ScheduledFlow, SenderHost, SenderStats, ThroughputProbe, UdpSource,
    ACK_SIZE,
};
