//! The layered benchmark for Stob; see `README.md` beside this crate.

pub mod decl;
pub mod gauge;
pub mod ledger;
pub mod probes;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;
