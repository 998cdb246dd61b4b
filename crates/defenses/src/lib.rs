//! # defenses — WF defense implementations and baselines
//!
//! Two families live here:
//!
//! 1. **The paper's §3 countermeasures**, emulated at trace level exactly
//!    as the paper does before proposing to move them into the stack:
//!    packet *splitting* (packets larger than 1200 bytes become two
//!    halves), packet *delaying* (inter-arrival times stretched by a
//!    uniform 10-30%), their combination, restriction to server-side
//!    (incoming) traffic, and application to only the first N packets
//!    ([`emulate`]).
//! 2. **Literature baselines** from Table 1, for the taxonomy and the
//!    overhead comparison of §2.3 (padding is expensive; timing-only is
//!    work-conserving): BuFLO and Tamaraw (one constant-rate grid),
//!    WTF-PAD-lite, FRONT, RegulaTor-lite and Surakav-lite. FRONT and
//!    RegulaTor run as the machine specs [`machines`] generates, beside
//!    two schedules that exist only as machines: constant-rate cover
//!    traffic and a reactive scrambler.
//!
//! [`overhead`] measures what §2.3 argues about: bandwidth overhead of
//! padding vs. the work-conserving cost of timing-only defenses.
//! [`taxonomy`] is the machine-readable Table 1.

mod backend;
pub mod buflo;
pub mod emulate;
pub mod front;
pub mod machines;
pub mod overhead;
pub mod regulator;
pub mod surakav;
pub mod taxonomy;
pub mod wtfpad;

pub use backend::{defend_all, emulate_trace, enforce_trace, TraceBank};
pub use buflo::{BufloDefense, TamarawDefense};
pub use emulate::CounterMeasure;
pub use front::FrontDefense;
pub use surakav::SurakavDefense;
