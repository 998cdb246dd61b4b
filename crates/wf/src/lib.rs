//! # wf — website fingerprinting attacks, from scratch
//!
//! The attack side of the paper's §3 experiment. The paper trains k-FP
//! (Hayes & Danezis), "a WF attack that is still commonly used in
//! benchmarks", on packet timestamps and directions, in a closed world of
//! 9 sites, and reports Random Forest accuracy (Table 2).
//!
//! This crate implements the whole pipeline without ML dependencies:
//!
//! * [`features`] — the k-FP hand-crafted feature vector (timing,
//!   direction counts, ordering, concentration, bursts, per-second
//!   rates; size features are optional and disabled for paper parity);
//! * `tree` — CART decision trees (Gini impurity, random feature
//!   subsets at each split);
//! * [`forest`] — bagged random forests (the Table 2 classifier), which
//!   also expose per-tree leaf identifiers;
//! * `knn` — k-nearest-neighbours on leaf-agreement distance (the
//!   "fingerprint" part of k-FP) and on raw features;
//! * [`metrics`] — accuracy and the mean ± std of repeated scores;
//! * [`eval`] — repeated stratified evaluation producing the
//!   `mean ± std` numbers Table 2 reports.

pub mod cc_ident;
pub mod eval;
pub mod features;
pub mod forest;
mod knn;
pub mod metrics;
pub mod openworld;
mod tree;
pub mod vantage;

pub use eval::EvalConfig;
pub use metrics::accuracy;
pub use vantage::evaluate_vantage;
