//! # traces — packet traces and synthetic website workloads
//!
//! The paper's §3 evaluation captures real web traffic with `tcpdump`
//! (9 popular sites × 100 visits) and extracts packet timestamps and
//! directions. We cannot capture live websites here, so this crate
//! substitutes a *simulated* data-collection pipeline that exercises the
//! identical code path:
//!
//! * [`sites`] defines nine site profiles (named after the paper's
//!   selection) with distinct page structure — main document size,
//!   object count/size distributions, CDN sharding, server think times,
//!   network path — plus per-visit jitter;
//! * [`loader`] loads each page through the full simulated stack
//!   (`stack::Network`): TCP + TLS handshakes, HTTP-like request/response
//!   exchanges over several connections, captured at the client vantage
//!   point exactly where tcpdump would sit;
//! * [`statgen`] is a fast, purely statistical generator used by unit
//!   tests that don't need stack fidelity;
//! * [`mod@sanitize`] reproduces the paper's cleaning: drop failed loads and
//!   remove outliers outside the interquartile range of total download
//!   size (their 100 → 74 traces per site);
//! * [`Dataset`] holds labelled corpora and stratified splits for the
//!   attack evaluation.

mod dataset;
pub mod flows;
pub mod loader;
mod model;
pub mod sanitize;
pub mod sites;
pub mod statgen;

pub use dataset::Dataset;
pub use model::{Trace, TracePacket};
pub use sites::paper_sites;
