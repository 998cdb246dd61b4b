//! # stack — a userspace model of the host network stack
//!
//! This crate implements the paper's Figure 1: the layers between the
//! transport protocol implementation and NIC I/O, inclusive. It provides
//!
//! * a socket layer with `send()` semantics (data is *copied to the socket
//!   buffer* and transmitted asynchronously when window opens — the first
//!   asynchrony §2.3 identifies),
//! * TCP with congestion control (Reno, CUBIC, BBR-lite), RTO and fast
//!   retransmit, delayed ACKs, Nagle, MSS/PMTU handling,
//! * an FQ pacing queuing discipline plus TCP-small-queues back-pressure
//!   (the second asynchrony: another "thread" dequeues later),
//! * a TSO-capable NIC model that splits a transport segment into MSS-sized
//!   line-rate packets (the *micro burst* of §4.2),
//! * a QUIC-lite transport over UDP mirroring the third column of Figure 1,
//! * a calibrated CPU cost model, so that packetization choices have the
//!   CPU-efficiency consequences Figure 3 measures, and
//! * the [`shaper::Shaper`] hook interface — the mechanism the `stob`
//!   crate's policies plug into (TSO sizing, per-packet sizing, departure
//!   delay), exactly the three decision points §4.2 names.
//!
//! The whole stack runs inside a deterministic discrete-event simulation
//! ([`net::Network`]) built on the `netsim` substrate.

pub mod apps;
pub mod cc;
pub mod config;
pub mod cpu;
pub mod egress;
pub mod mux;
pub mod net;
pub mod nic;
pub mod qdisc;
pub mod quic;
mod seq;
pub mod shaper;
pub mod tcp;
pub mod tls;

pub use config::{HostConfig, PathConfig, StackConfig};
pub use cpu::{Cpu, CpuModel};
pub use egress::{EgressLabels, EgressPipeline, FlowStats, TransportCore};
pub use mux::{Multiplex, MuxConfig, Splitter, SplitterSpec};
pub use net::{Api, App, AppEvent, FlowTable, Network, CLIENT, SERVER};
pub use shaper::{NoopShaper, ShapeCtx, Shaper};
