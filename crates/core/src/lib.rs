//! # stob — **s**tack-level **t**raffic **ob**fuscation
//!
//! The paper's contribution (§4): a framework that lets website-
//! fingerprinting defenses operate on the *final* packet sequence by
//! plugging into the three stack decision points where that sequence is
//! actually made — TSO sizing, per-packet sizing, and departure timing —
//! instead of hoping the application's intended sequence survives the
//! asynchronous send path (§2.3 shows it does not).
//!
//! Architecture (Figure 2):
//!
//! * **Policies** ([`policy`]) are compact, serializable descriptions of
//!   the obfuscation distributions — histograms for sizes and delays —
//!   cheap enough to share between application and stack and between
//!   flows with the same destination (§4.1).
//! * **The registry** ([`registry`]) is that shared table: applications
//!   (or an administrator) publish policies, the stack looks them up per
//!   flow/destination. It stands in for the shared memory region of the
//!   paper's design.
//! * **Strategies** ([`strategies`]) turn a policy into a live
//!   [`stack::Shaper`]: the Figure 3 `IncrementalReduce`, in-stack
//!   split/delay equivalents (`SplitThreshold`, `DelayJitter`), a
//!   histogram sampler, and combinators.
//! * **The safety envelope** ([`safety::SafetyCap`]) enforces the §4.2
//!   invariant: obfuscation may only *reduce* segment/packet sizes and
//!   *delay* departures — never send more aggressively than the CCA
//!   decided. [`guard::CcaPhaseGuard`] additionally stands the policy
//!   down in CCA phases where pacing is load-bearing (§5.1, BBR).
//! * **The control surface** ([`sockopt`]) is the `setsockopt`-style API
//!   (§5.3) apps use to attach a policy to a connection. An optional
//!   [`breaker::CircuitBreaker`] guards [`sockopt::attach`]: a policy key
//!   that keeps failing validation is shed to pass-through for a
//!   deterministic cooldown instead of being re-validated per flow.
//!
//! Padding is deliberately *not* a Stob primitive: §4.2 leaves padding to
//! the application (TLS record padding and app-specific schemes), because
//! padding without application knowledge is both costly and ineffective.
//! The [`defense`] layer honors that split: its padding schedules run at
//! the application layer under either placement, while size/delay rules
//! lower into the stack.
//!
//! On top of these sits the **defense layer** ([`defense`]): a
//! placement-agnostic [`defense::Defense`] trait — one spec per defense —
//! with an app-layer backend ([`defense::emulate_flow`]) and a stack
//! backend ([`defense::enforce_flow`]) so the *same* decision logic can be
//! evaluated at either placement, which is the paper's central comparison.
//! The [`machine`] layer takes the last step: defenses themselves become
//! *data* — serializable probabilistic state machines pushed through the
//! registry/sockopt control plane at runtime, no rebuild required.

pub mod breaker;
pub mod defense;
pub mod fit;
pub mod fleet;
pub mod guard;
pub mod machine;
pub mod policy;
pub mod registry;
pub mod safety;
pub mod sockopt;
pub mod splitter;
pub mod strategies;

pub use breaker::{Admission, BreakerConfig, BreakerStats, CircuitBreaker};
pub use defense::{
    emulate_flow, enforce_flow, DefendedFlow, Defense, DefenseCtx, FlowDefense, FlowPkt,
    PadderCore, Placement, ReferenceBank, StackParams,
};
pub use fit::{fit_delay_policy, fit_morphing_policy, fit_size_policy};
pub use fleet::{run_fleet, FleetConfig, FleetReport};
pub use guard::CcaPhaseGuard;
pub use machine::{
    Action, DistSpec, Machine, MachineCore, MachineDefense, MachineEvent, MachineSpec, State,
    Target, Transition,
};
pub use policy::{DelaySpec, ObfuscationPolicy, SizeSpec};
pub use registry::{DefenseBinding, PolicyKey, PolicyRegistry};
pub use safety::{SafetyAudit, SafetyCap};
pub use sockopt::{
    assemble_policy_shaper, attach, publish_machine_json, AttachOutcome, Attachment,
};
pub use splitter::{splitter_from_json, splitter_to_json, validate_splitter, SplitterSpec};
pub use strategies::{Chain, DelayJitter, HistogramSampler, IncrementalReduce, SplitThreshold};
