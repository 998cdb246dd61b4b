//! # netsim — deterministic discrete-event network simulation substrate
//!
//! This crate provides the building blocks under the `stack` crate's host
//! network-stack model: a virtual clock, an event queue with deterministic
//! tie-breaking, seeded random number generation, packet and link models,
//! router queues, and a vantage-point capture facility that plays the role
//! of `tcpdump` in the paper's data-collection methodology.
//!
//! Each simulation shard is single-threaded and fully deterministic: two
//! runs with the same seed produce byte-identical traces. That property is
//! what makes the reproduction's experiments (Table 2, Figure 3)
//! repeatable. The [`par`] module fans independent shards and work items
//! out across threads without giving that property up: every item derives
//! its randomness from the root seed and its stable index, so thread
//! count never changes results.
//!
//! The [`telemetry`] module is the observability layer over all of it:
//! a global registry of deterministic counters/gauges/histograms, RAII
//! profiling spans, and bounded per-flow shaping-decision traces
//! (dumpable as JSONL via `figure3 --trace-out`). See `OBSERVABILITY.md`.

mod audit;
mod capture;
pub mod env;
mod event;
pub mod fault;
pub mod json;
mod link;
mod multilink;
mod packet;
pub mod par;
mod pool;
mod queue;
mod rng;
mod stats;
pub mod telemetry;
mod time;

pub use audit::{AuditReport, Auditor, Invariant};
pub use capture::{Capture, Direction};
pub use event::EventQueue;
pub use fault::{FaultInjector, FaultKind, FaultSchedule, FaultStats};
pub use json::Json;
pub use link::Link;
pub use multilink::{provision, PathLedger, PipeProfile};
pub use packet::{FlowId, Packet, PacketKind, MTU_WIRE};
pub use pool::{Arena, ArenaHandle};
pub use queue::DropTailQueue;
pub use rng::SimRng;
pub use stats::{percentile, percentile_sorted, Histogram, RunningStats};
pub use time::{round_to_u64, Nanos};
