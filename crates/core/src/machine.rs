//! Defenses as data: a maybenot-style probabilistic state-machine
//! runtime.
//!
//! Every other defense in this repo is a compiled Rust adapter; shipping
//! a new one to a fleet means a rebuild. This module makes the defense
//! itself *data*: a [`MachineSpec`] is a serializable set of probabilistic
//! state machines (in the spirit of the maybenot framework) that an
//! operator pushes through the registry/sockopt control plane at runtime
//! — [`crate::registry::PolicyRegistry::bind_machine`], or the JSON text
//! through [`crate::sockopt::publish_json`] — with no recompile. The wire
//! form is `netsim::json`'s codec: a key the spec does not declare (a
//! misspelt `"limt"`) is an error, not a state without a limit.
//!
//! **Model.** Each machine is a list of [`State`]s. [`MachineEvent`]s
//! (real packets, the machine's own padding, blocking windows, timers,
//! limit exhaustion) drive transitions over each state's transition rows;
//! a row maps an event to a probability distribution over [`Target`]s.
//! Each state carries an [`Action`] (inject padding, arm a timer, open a
//! blocking window) whose parameters — padding size, inter-packet timing,
//! blocking duration — are drawn from [`DistSpec`] distributions
//! (uniform / normal / log-normal / pareto / geometric / rayleigh / an
//! empirical [`Histogram`]), and an optional per-visit action limit.
//!
//! **Placement.** A [`MachineDefense`] implements the existing
//! [`Defense`] trait, so one spec runs through *both* backends —
//! [`crate::defense::emulate_flow`] (app layer) and
//! [`crate::defense::enforce_flow`] (lowered into the egress pipeline
//! under the §4.2 safety clamp) — and through [`crate::fleet::run_fleet`]
//! unchanged. The machine runtime itself is a pure [`PadderCore`]: per
//! §4.2 the stack's authority covers sizing and departure timing of
//! *real* data only, so machines inject dummy traffic and never move real
//! packets. A spec may additionally carry an [`ObfuscationPolicy`] whose
//! size/delay rules lower into the stack exactly like any registry
//! policy. Blocking windows therefore model maybenot's blocking for the
//! machine's *own relative padding schedule* only: while a window is
//! open, relative-mode padding is deferred to the window's end;
//! absolute-mode schedules (FRONT-style draws offset from the flow
//! start) and real packets are unaffected.
//!
//! **Determinism.** A machine draws all randomness from the per-flow RNG
//! both backends already thread through the padding schedule (forked by
//! stable flow index), so runs are byte-identical at any `STOB_THREADS`.
//! Draw order is part of the spec's contract: on state entry the limit is
//! sampled first, then the timing distribution's entry scale, then the
//! size/duration distribution's entry scale (a [`DistSpec::Rayleigh`]
//! samples its sigma uniformly once per state entry); each scheduled
//! action then draws its timing, and a padding action draws its size when
//! it fires. A transition row with a single target at probability 1
//! transitions without consuming randomness. A spec with no
//! `PacketSent` or `PacketReceived` row (mFRONT, mRegulaTor) starts at
//! close and until then only buffers the directions it owns: its
//! schedule depends on the rng alone, so the batch backends draw the
//! same either way, and in the fleet its draws follow the flow's packet
//! draws on the shared flow rng.
//!
//! **Safety.** Hostile or malformed specs can never panic the datapath:
//! [`MachineSpec::validate`] bounds machines, states, probabilities and
//! distribution parameters, and an invalid spec degrades the flow to
//! pass-through (counted in `stob.registry.degraded` and
//! `defense.machine.degraded`). At runtime every draw is clamped (sizes
//! to the wire MTU, per-draw delays to `MAX_DRAW_SECS`) and two global
//! caps bound any machine — [`MachineSpec::max_padding_pkts`] dummy
//! packets and [`MachineSpec::max_blocking`] total blocking time — with
//! an action budget catching pathological-but-valid event loops.
//!
//! # Example: a 2-state padding machine from JSON
//!
//! ```
//! use netsim::{Direction, Nanos, SimRng};
//! use stob::defense::{emulate_flow, DefenseCtx, FlowPkt, Placement};
//! use stob::registry::{PolicyKey, PolicyRegistry};
//!
//! // State 0 idles until a packet is received, then state 1 injects
//! // three 1514-byte dummies at 1 ms spacing and ends.
//! let text = r#"{
//!   "name": "doc-pad",
//!   "machines": [ { "states": [
//!     { "action": "Nop",
//!       "transitions": [ { "on": "PacketReceived",
//!                          "to": [[ {"State": 1}, 1.0 ]] } ] },
//!     { "action": { "Pad": { "dir": "In",
//!                            "size":   { "Fixed": { "v": 1514 } },
//!                            "timing": { "Fixed": { "v": 0.001 } },
//!                            "absolute": false } },
//!       "limit": { "Fixed": { "v": 3 } },
//!       "transitions": [ { "on": "PaddingSent", "to": [[ {"State": 1}, 1.0 ]] },
//!                        { "on": "LimitReached", "to": [[ "End", 1.0 ]] } ] }
//!   ] } ],
//!   "max_padding_pkts": 16,
//!   "max_blocking_ns": 0
//! }"#;
//!
//! // Pushed through the control plane at runtime, like any policy.
//! let reg = PolicyRegistry::new();
//! stob::sockopt::publish_json(&reg, PolicyKey::Default, text, Placement::App)
//!     .expect("valid machine");
//! let binding = reg.resolve_defense(1, 1).expect("machine resolves");
//! let flow = [
//!     FlowPkt { ts: Nanos::ZERO, dir: Direction::Out, size: 120 },
//!     FlowPkt { ts: Nanos::from_millis(2), dir: Direction::In, size: 1400 },
//! ];
//! let mut rng = SimRng::new(7);
//! let out = emulate_flow(binding.defense.as_ref(), &flow, &DefenseCtx::default(), &mut rng);
//! assert_eq!(out.dummy_pkts, 3);
//! ```
#![deny(missing_docs)]

use crate::defense::{CloseOut, Defense, DefenseCtx, Emit, FlowDefense, FlowPkt, PadderCore};
use crate::policy::{histogram_ok, ObfuscationPolicy};
use netsim::json::{fields, Json, JsonError, Wire};
use netsim::{Direction, Histogram, Nanos, SimRng, MTU_WIRE};
use std::sync::Arc;

/// Most machines one spec may carry.
pub(crate) const MAX_MACHINES: usize = 8;
/// Most states one machine may carry.
pub(crate) const MAX_STATES: usize = 64;
/// Upper bound on [`MachineSpec::max_padding_pkts`].
pub const MAX_PADDING_CAP: u64 = 100_000;
/// Upper bound on [`MachineSpec::max_blocking`] (60 s).
pub(crate) const MAX_BLOCKING_CAP: Nanos = Nanos(60_000_000_000);
/// Per-draw clamp on any sampled delay/offset, in seconds. A single
/// timing draw beyond this is hostile or broken, not a schedule.
pub(crate) const MAX_DRAW_SECS: f64 = 600.0;

/// Probability-mass slack accepted when validating a transition row.
const PROB_EPS: f64 = 1e-9;

// ---------------------------------------------------------------------
// Spec data model
// ---------------------------------------------------------------------

/// A sampling distribution for machine parameters (padding sizes,
/// inter-packet timings, blocking durations, action limits).
///
/// Timing draws are in **seconds**; size draws in bytes; count draws are
/// rounded to integers. All draws are clamped at the point of use —
/// validation bounds the parameters, clamping bounds the samples.
#[derive(Debug, Clone, PartialEq)]
pub enum DistSpec {
    /// The constant `v` (consumes no randomness).
    Fixed {
        /// The constant value.
        v: f64,
    },
    /// Uniform over `[lo, hi)` (count draws use the inclusive integer
    /// range `[lo, hi]`, as FRONT's budget draws).
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Normal with the given mean and standard deviation (negative
    /// samples clamp to the draw's floor).
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std: f64,
    },
    /// Log-normal: `exp(Normal(mu, sigma))`.
    LogNormal {
        /// Location of the underlying normal.
        mu: f64,
        /// Scale of the underlying normal.
        sigma: f64,
    },
    /// Pareto with the given scale and shape — heavy tails.
    Pareto {
        /// Scale (minimum value).
        scale: f64,
        /// Shape (tail index).
        shape: f64,
    },
    /// Geometric: number of Bernoulli(p) trials until the first success
    /// (support `1, 2, ...`).
    Geometric {
        /// Success probability, in `(0, 1]`.
        p: f64,
    },
    /// Rayleigh whose sigma is itself sampled uniformly from
    /// `[w_min, w_max]` **once per state entry** — the FRONT padding
    /// schedule's shape. Draws outside a state entry use `w_min`.
    Rayleigh {
        /// Lower bound of the sigma window.
        w_min: f64,
        /// Upper bound of the sigma window.
        w_max: f64,
    },
    /// Draw from an empirical histogram (uniform within the sampled
    /// bin), reusing the §4.1 policy-layer form.
    FromHistogram(Histogram),
}

impl DistSpec {
    /// Check parameter sanity. `what` names the dist in error messages.
    pub(crate) fn validate(&self, what: &str) -> Result<(), String> {
        fn fin(what: &str, name: &str, x: f64) -> Result<(), String> {
            if x.is_finite() {
                Ok(())
            } else {
                Err(format!("{what}: {name} must be finite"))
            }
        }
        match self {
            DistSpec::Fixed { v } => {
                fin(what, "v", *v)?;
                if *v < 0.0 {
                    return Err(format!("{what}: Fixed value must be >= 0"));
                }
            }
            DistSpec::Uniform { lo, hi } => {
                fin(what, "lo", *lo)?;
                fin(what, "hi", *hi)?;
                if *lo < 0.0 || hi < lo {
                    return Err(format!("{what}: Uniform needs 0 <= lo <= hi"));
                }
            }
            DistSpec::Normal { mean, std } => {
                fin(what, "mean", *mean)?;
                fin(what, "std", *std)?;
                if *mean < 0.0 || *std < 0.0 {
                    return Err(format!("{what}: Normal needs mean, std >= 0"));
                }
            }
            DistSpec::LogNormal { mu, sigma } => {
                fin(what, "mu", *mu)?;
                fin(what, "sigma", *sigma)?;
                if *sigma < 0.0 {
                    return Err(format!("{what}: LogNormal needs sigma >= 0"));
                }
            }
            DistSpec::Pareto { scale, shape } => {
                fin(what, "scale", *scale)?;
                fin(what, "shape", *shape)?;
                if *scale <= 0.0 || *shape <= 0.0 {
                    return Err(format!("{what}: Pareto needs scale, shape > 0"));
                }
            }
            DistSpec::Geometric { p } => {
                fin(what, "p", *p)?;
                if !(*p > 0.0 && *p <= 1.0) {
                    return Err(format!("{what}: Geometric needs p in (0, 1]"));
                }
            }
            DistSpec::Rayleigh { w_min, w_max } => {
                fin(what, "w_min", *w_min)?;
                fin(what, "w_max", *w_max)?;
                if *w_min < 0.0 || w_max < w_min {
                    return Err(format!("{what}: Rayleigh needs 0 <= w_min <= w_max"));
                }
            }
            DistSpec::FromHistogram(h) => histogram_ok(h, what)?,
        }
        Ok(())
    }

    /// Sample the per-state-entry scale, if this distribution has one
    /// (only [`DistSpec::Rayleigh`] does).
    fn entry_scale(&self, rng: &mut SimRng) -> Option<f64> {
        match self {
            DistSpec::Rayleigh { w_min, w_max } => Some(rng.range_f64(*w_min, *w_max)),
            _ => None,
        }
    }

    /// Raw draw (no clamping).
    fn sample_f64(&self, scale: Option<f64>, rng: &mut SimRng) -> f64 {
        match self {
            DistSpec::Fixed { v } => *v,
            DistSpec::Uniform { lo, hi } => rng.range_f64(*lo, *hi),
            DistSpec::Normal { mean, std } => rng.normal_ms(*mean, *std),
            DistSpec::LogNormal { mu, sigma } => rng.lognormal(*mu, *sigma),
            DistSpec::Pareto { scale, shape } => rng.pareto(*scale, *shape),
            DistSpec::Geometric { p } => {
                let u = rng.next_f64();
                if *p >= 1.0 {
                    1.0
                } else {
                    ((1.0 - u).ln() / (1.0 - p).ln()).floor() + 1.0
                }
            }
            DistSpec::Rayleigh { w_min, .. } => rng.rayleigh(scale.unwrap_or(*w_min)),
            DistSpec::FromHistogram(h) => h.sample(rng.next_f64(), rng.next_f64()),
        }
    }

    /// Draw a delay/offset in seconds, clamped to `[0, MAX_DRAW_SECS]`.
    fn sample_time(&self, scale: Option<f64>, rng: &mut SimRng) -> Nanos {
        let s = self.sample_f64(scale, rng);
        let s = if s.is_finite() {
            s.clamp(0.0, MAX_DRAW_SECS)
        } else {
            0.0
        };
        Nanos::from_secs_f64(s)
    }

    /// Draw a padding size in bytes, clamped to `[1, MTU]`.
    fn sample_size(&self, scale: Option<f64>, rng: &mut SimRng) -> u32 {
        wire_size(self.sample_f64(scale, rng))
    }

    /// Draw an action count, clamped to `[0, cap]`. A
    /// [`DistSpec::Uniform`] count uses the inclusive integer range —
    /// bit-identical to `SimRng::range_usize` over the same bounds.
    fn sample_count(&self, cap: u64, rng: &mut SimRng) -> u64 {
        if let DistSpec::Uniform { lo, hi } = self {
            let lo = lo.max(0.0) as u64;
            let hi = (hi.max(0.0) as u64).max(lo);
            // `[0, u64::MAX]` (any `hi >= 2^64` saturates there) is the one
            // range whose width does not fit in a u64. Drop its top value,
            // which the cap clips anyway; every other range draws as is.
            let hi = hi.min(lo.saturating_add(u64::MAX - 1));
            return rng.range_u64(lo, hi).min(cap);
        }
        let s = self.sample_f64(None, rng);
        if !s.is_finite() || s < 0.0 {
            return 0;
        }
        netsim::round_to_u64(s).min(cap)
    }
}

/// A size draw in bytes as a padding size: rounded, clamped to `[1, MTU]`.
fn wire_size(s: f64) -> u32 {
    if !s.is_finite() {
        return 1;
    }
    netsim::round_to_u64(s).clamp(1, u64::from(MTU_WIRE)) as u32
}

/// The events that drive machine transitions.
///
/// Real-packet events and blocking-window events are delivered to every
/// machine of the spec; `PaddingSent`, `TimerExpired` and `LimitReached`
/// are delivered only to the machine that originated them (a deliberate
/// narrowing of maybenot's global event bus: it keeps multi-machine
/// specs free of padding cross-talk and keeps draw order predictable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineEvent {
    /// A real outbound packet passed the machine.
    PacketSent,
    /// A real inbound packet passed the machine.
    PacketReceived,
    /// This machine injected a dummy packet.
    PaddingSent,
    /// A blocking window opened (delivered to all machines).
    BlockingBegin,
    /// A blocking window closed (delivered to all machines).
    BlockingEnd,
    /// This machine's timer fired.
    TimerExpired,
    /// This machine's state limit was exhausted. A state with no
    /// `LimitReached` row ends its machine when the limit runs out.
    LimitReached,
}

impl MachineEvent {
    /// All events, in declaration order.
    pub const ALL: [MachineEvent; 7] = [
        MachineEvent::PacketSent,
        MachineEvent::PacketReceived,
        MachineEvent::PaddingSent,
        MachineEvent::BlockingBegin,
        MachineEvent::BlockingEnd,
        MachineEvent::TimerExpired,
        MachineEvent::LimitReached,
    ];
}

/// Where a transition lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Enter the given state (an index into the machine's state list).
    /// Re-entering the current state continues its action schedule
    /// without resampling limit or entry scales — except on
    /// [`MachineEvent::LimitReached`], which always re-enters fully.
    State(u32),
    /// End this machine for the rest of the flow.
    End,
}

/// One transition row: on `on`, move to a target drawn from `to`.
/// Probabilities may sum to less than 1; the remainder means "stay in
/// the current state with no new action". A row with a single target at
/// probability 1 transitions without consuming randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// The triggering event.
    pub on: MachineEvent,
    /// Candidate targets with probabilities (sum <= 1).
    pub to: Vec<(Target, f64)>,
}

/// What a state does while it is current.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Do nothing; wait for events.
    Nop,
    /// Inject dummy packets.
    Pad {
        /// Direction the dummies travel.
        dir: Direction,
        /// Dummy size distribution (bytes).
        size: DistSpec,
        /// Timing distribution (seconds). Relative mode: delay from the
        /// previous action. Absolute mode: offset from the flow start.
        timing: DistSpec,
        /// Absolute mode stamps each dummy at `flow_start + draw`
        /// (FRONT-style schedules); such pads ignore blocking windows
        /// and may be emitted out of order (both backends re-sort).
        absolute: bool,
    },
    /// Arm a timer; [`MachineEvent::TimerExpired`] fires after the draw.
    Timer {
        /// Delay distribution (seconds).
        timing: DistSpec,
    },
    /// Open a blocking window: after `timing`, the machine's relative
    /// padding is deferred for `duration` (capped by
    /// [`MachineSpec::max_blocking`] across the whole flow). Real
    /// packets are never blocked — §4.2 keeps real-data timing with the
    /// policy layer.
    Block {
        /// Delay before the window opens (seconds).
        timing: DistSpec,
        /// Window length (seconds).
        duration: DistSpec,
    },
    /// Re-emit the flow's `dir` packets on RegulaTor's decaying surge
    /// schedule (Holland & Hopper, PETS 2022), filling empty slots with
    /// fixed-size dummies up to a budget. The machine *owns* that
    /// direction: the backend drops the original packets and keeps the
    /// re-emitted schedule. Fully deterministic — a regulate state draws
    /// no randomness, so it composes with other machines without
    /// perturbing their streams. Must be the only state of its machine.
    Regulate {
        /// Direction whose real packets are re-emitted (normally `In`).
        dir: Direction,
        /// Fixed wire size of every re-emitted/dummy packet (bytes).
        size: u32,
        /// Initial surge rate, packets/second.
        rate: f64,
        /// Geometric rate decay per second of schedule age, in (0, 1].
        decay: f64,
        /// A backlog above this many queued real packets restarts the
        /// surge schedule at full rate.
        surge_threshold: u64,
        /// Dummy budget as a fraction of real packets in `dir`.
        budget_frac: f64,
    },
}

impl Action {
    /// The action's timing distribution, if any.
    fn timing(&self) -> Option<&DistSpec> {
        match self {
            Action::Nop | Action::Regulate { .. } => None,
            Action::Pad { timing, .. }
            | Action::Timer { timing }
            | Action::Block { timing, .. } => Some(timing),
        }
    }

    /// The action's secondary distribution (pad size / block duration).
    fn aux(&self) -> Option<&DistSpec> {
        match self {
            Action::Pad { size, .. } => Some(size),
            Action::Block { duration, .. } => Some(duration),
            _ => None,
        }
    }
}

/// One machine state: an action, an optional per-entry action limit,
/// and the transition rows.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// What the state does.
    pub action: Action,
    /// Cap on this state's action firings per (re-)entry; exhausting it
    /// raises [`MachineEvent::LimitReached`]. `None` = unlimited (the
    /// global caps still apply).
    pub limit: Option<DistSpec>,
    /// Transition rows (at most one per event).
    pub transitions: Vec<Transition>,
}

/// One probabilistic state machine; execution starts in state 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// The states; index 0 is the start state.
    pub states: Vec<State>,
}

/// A complete machine defense, as published to the registry: one or more
/// machines plus an optional stack policy, under global safety caps.
///
/// This is the serializable artifact operators ship — see the module
/// docs and [`crate::sockopt::publish_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Registry/display name.
    pub name: String,
    /// The machines, run concurrently over the flow.
    pub machines: Vec<Machine>,
    /// Optional size/delay policy lowered into the stack (or the
    /// app-layer interpreter) alongside the padding machines.
    pub policy: Option<ObfuscationPolicy>,
    /// Global cap on dummy packets across all machines of the flow.
    pub max_padding_pkts: u64,
    /// Global cap on total blocking time across the flow.
    pub max_blocking: Nanos,
}

impl MachineSpec {
    /// A padding-only spec with the given machines and padding cap.
    pub fn padding_only(name: &str, machines: Vec<Machine>, max_padding_pkts: u64) -> Self {
        MachineSpec {
            name: name.to_string(),
            machines,
            policy: None,
            max_padding_pkts,
            max_blocking: Nanos::ZERO,
        }
    }

    /// Check the spec is safe to run. Bounds machine/state counts,
    /// probabilities, distribution parameters and the global caps; an
    /// invalid spec must never reach the runtime —
    /// [`MachineDefense::build`] degrades it to pass-through instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("machine spec has an empty name".into());
        }
        if self.machines.len() > MAX_MACHINES {
            return Err(format!(
                "{} machines exceeds the cap of {MAX_MACHINES}",
                self.machines.len()
            ));
        }
        if self.max_padding_pkts > MAX_PADDING_CAP {
            return Err(format!(
                "max_padding_pkts {} exceeds the cap of {MAX_PADDING_CAP}",
                self.max_padding_pkts
            ));
        }
        if self.max_blocking > MAX_BLOCKING_CAP {
            return Err(format!(
                "max_blocking {} exceeds the cap of {MAX_BLOCKING_CAP}",
                self.max_blocking
            ));
        }
        let mut regulated_dirs: Vec<Direction> = Vec::new();
        for (mi, m) in self.machines.iter().enumerate() {
            if m.states.is_empty() {
                return Err(format!("machine {mi} has no states"));
            }
            if m.states.len() > MAX_STATES {
                return Err(format!(
                    "machine {mi} has {} states (cap {MAX_STATES})",
                    m.states.len()
                ));
            }
            for (si, st) in m.states.iter().enumerate() {
                let what = format!("machine {mi} state {si}");
                if let Action::Regulate {
                    size,
                    rate,
                    decay,
                    budget_frac,
                    dir,
                    ..
                } = &st.action
                {
                    if m.states.len() != 1 || !st.transitions.is_empty() || st.limit.is_some() {
                        return Err(format!(
                            "{what}: a regulate state must be its machine's only state, \
                             with no limit and no transitions"
                        ));
                    }
                    if *size == 0 || *size > 65_535 {
                        return Err(format!("{what}: regulate size {size} out of range"));
                    }
                    if !rate.is_finite() || *rate <= 0.0 {
                        return Err(format!("{what}: regulate rate must be positive"));
                    }
                    if !decay.is_finite() || *decay <= 0.0 || *decay > 1.0 {
                        return Err(format!("{what}: regulate decay must be in (0, 1]"));
                    }
                    if !budget_frac.is_finite() || *budget_frac < 0.0 || *budget_frac > 100.0 {
                        return Err(format!("{what}: regulate budget_frac out of range"));
                    }
                    if regulated_dirs.contains(dir) {
                        return Err(format!(
                            "{what}: direction already owned by another regulate machine"
                        ));
                    }
                    regulated_dirs.push(*dir);
                }
                if let Some(d) = st.action.timing() {
                    d.validate(&format!("{what} timing"))?;
                }
                if let Some(d) = st.action.aux() {
                    d.validate(&format!("{what} size/duration"))?;
                }
                if let Some(d) = &st.limit {
                    d.validate(&format!("{what} limit"))?;
                }
                let mut seen: Vec<MachineEvent> = Vec::new();
                for tr in &st.transitions {
                    if seen.contains(&tr.on) {
                        return Err(format!("{what}: duplicate row for {:?}", tr.on));
                    }
                    seen.push(tr.on);
                    if tr.to.is_empty() {
                        return Err(format!("{what}: empty target list for {:?}", tr.on));
                    }
                    let mut sum = 0.0;
                    for (t, p) in &tr.to {
                        if !p.is_finite() || *p < 0.0 || *p > 1.0 {
                            return Err(format!("{what}: probability out of [0, 1]"));
                        }
                        sum += p;
                        if let Target::State(j) = t {
                            if *j as usize >= m.states.len() {
                                return Err(format!("{what}: target state {j} out of range"));
                            }
                        }
                    }
                    if sum > 1.0 + PROB_EPS {
                        return Err(format!("{what}: probabilities sum to {sum} > 1"));
                    }
                }
            }
        }
        if let Some(p) = &self.policy {
            p.validate()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// JSON codec (`netsim::json`'s, like every control-plane document)
// ---------------------------------------------------------------------

netsim::wire_enum!(DistSpec {
    Fixed { v },
    Uniform { lo, hi },
    Normal { mean, std },
    LogNormal { mu, sigma },
    Pareto { scale, shape },
    Geometric { p },
    Rayleigh { w_min, w_max },
    FromHistogram(h),
});
netsim::wire_enum!(MachineEvent {
    PacketSent,
    PacketReceived,
    PaddingSent,
    BlockingBegin,
    BlockingEnd,
    TimerExpired,
    LimitReached,
});
netsim::wire_enum!(Target { State(i), End });

/// `{"on": event, "to": [[target, prob], ...]}`.
impl Wire for Transition {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("on", self.on.to_json())
            .set("to", self.to.to_json())
    }

    fn from_json(v: &Json) -> Result<Transition, JsonError> {
        fields(v, |f| {
            let (on, to) = (f.req("on")?, f.req("to")?);
            Ok(Transition { on, to })
        })
    }
}

netsim::wire_enum!(Action {
    Nop,
    Pad { dir, size, timing, absolute },
    Timer { timing },
    Block { timing, duration },
    Regulate { dir, size, rate, decay, surge_threshold, budget_frac },
});

/// `limit` is written only when set.
impl Wire for State {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("action", self.action.to_json())
            .set_opt("limit", self.limit.as_ref().map(Wire::to_json))
            .set("transitions", self.transitions.to_json())
    }

    fn from_json(v: &Json) -> Result<State, JsonError> {
        fields(v, |f| {
            Ok(State {
                action: f.req("action")?,
                limit: f.opt("limit")?,
                transitions: f.req("transitions")?,
            })
        })
    }
}

/// `{"states": [...]}`.
impl Wire for Machine {
    fn to_json(&self) -> Json {
        Json::obj().set("states", self.states.to_json())
    }

    fn from_json(v: &Json) -> Result<Machine, JsonError> {
        fields(v, |f| {
            Ok(Machine {
                states: f.req("states")?,
            })
        })
    }
}

/// `policy` is written only when set. Decoding checks shape only; call
/// [`MachineSpec::validate`] before running.
impl Wire for MachineSpec {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.name.as_str())
            .set("machines", self.machines.to_json())
            .set_opt("policy", self.policy.as_ref().map(Wire::to_json))
            .set("max_padding_pkts", self.max_padding_pkts)
            .set("max_blocking_ns", self.max_blocking.to_json())
    }

    fn from_json(v: &Json) -> Result<MachineSpec, JsonError> {
        fields(v, |f| {
            Ok(MachineSpec {
                name: f.req("name")?,
                machines: f.req("machines")?,
                policy: f.opt("policy")?,
                max_padding_pkts: f.req("max_padding_pkts")?,
                max_blocking: f.req("max_blocking_ns")?,
            })
        })
    }
}

// ---------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------

/// A transition row as the runtime reads it. A single target at
/// probability 1 is [`Row::Certain`] and draws no randomness (part of
/// the draw-order contract).
enum Row {
    Certain(Target),
    Draw(Box<[(Target, f64)]>),
}

impl Row {
    fn compile(row: &Transition) -> Row {
        match row.to[..] {
            [(target, p)] if p >= 1.0 - PROB_EPS => Row::Certain(target),
            _ => Row::Draw(row.to.clone().into_boxed_slice()),
        }
    }

    /// Pick a target; `None` means "stay in the current state".
    fn pick(&self, rng: &mut SimRng) -> Option<Target> {
        let to = match self {
            Row::Certain(target) => return Some(*target),
            Row::Draw(to) => to,
        };
        let u = rng.next_f64();
        let mut acc = 0.0;
        for (target, p) in to.iter() {
            acc += p;
            if u < acc {
                return Some(*target);
            }
        }
        None
    }
}

/// One state as the runtime reads it: the action and limit as
/// specified, and the transition rows indexed by event.
struct CompiledState {
    action: Action,
    limit: Option<DistSpec>,
    /// The row for each event, at the event's [`MachineEvent::ALL`]
    /// position.
    rows: [Option<Row>; 7],
    /// The events with a row, as [`event_bit`]s.
    hears: u8,
    /// A pad state whose `PaddingSent` row certainly re-enters it — the
    /// loop every padding schedule runs per dummy, which
    /// [`Run::fire_pad`] continues in place.
    pad_loops: bool,
    /// A pad's size when it is [`DistSpec::Fixed`]: a constant, drawn
    /// once here instead of per dummy.
    pad_size: Option<u32>,
}

impl CompiledState {
    /// Compile state `index` of its machine.
    fn new(index: usize, st: &State) -> Self {
        let rows = MachineEvent::ALL
            .map(|ev| st.transitions.iter().find(|t| t.on == ev).map(Row::compile));
        let (pad_loops, pad_size) = match &st.action {
            Action::Pad { size, .. } => (
                matches!(
                    rows[MachineEvent::PaddingSent as usize],
                    Some(Row::Certain(Target::State(j))) if j as usize == index
                ),
                match size {
                    DistSpec::Fixed { v } => Some(wire_size(*v)),
                    _ => None,
                },
            ),
            _ => (false, None),
        };
        let hears = MachineEvent::ALL
            .into_iter()
            .filter(|&ev| rows[ev as usize].is_some())
            .fold(0, |bits, ev| bits | event_bit(ev));
        CompiledState {
            action: st.action.clone(),
            limit: st.limit.clone(),
            rows,
            hears,
            pad_loops,
            pad_size,
        }
    }

    fn row(&self, ev: MachineEvent) -> Option<&Row> {
        self.rows[ev as usize].as_ref()
    }
}

/// `ev`'s bit in an event mask.
const fn event_bit(ev: MachineEvent) -> u8 {
    1 << ev as u8
}

/// The events a real packet raises.
const PACKET_EVENTS: u8 =
    event_bit(MachineEvent::PacketSent) | event_bit(MachineEvent::PacketReceived);

/// A validated [`MachineSpec`] in the form the runtime reads, compiled
/// once by [`MachineDefense::new`] and shared by every flow's
/// [`MachineCore`]: a flow builds no table and walks no state.
struct CompiledSpec {
    machines: Box<[Box<[CompiledState]>]>,
    max_padding_pkts: u64,
    max_blocking: Nanos,
    /// Per-flow action budget: every pad consumes one action, and any
    /// useful machine does bounded bookkeeping around each pad; 4x +
    /// slack catches valid-but-pathological event loops (timer ping-pong
    /// etc.).
    budget: u64,
    /// Directions owned by regulate machines (the backend drops their
    /// original packets; the surge schedule re-emits them at close).
    owned: &'static [Direction],
    /// No state has a row for a real packet: the core starts at close.
    deaf: bool,
}

impl CompiledSpec {
    fn new(spec: &MachineSpec) -> Self {
        let machines: Box<[Box<[CompiledState]>]> = spec
            .machines
            .iter()
            .map(|m| {
                m.states
                    .iter()
                    .enumerate()
                    .map(|(i, st)| CompiledState::new(i, st))
                    .collect()
            })
            .collect();
        let regulates = |d: Direction| {
            spec.machines
                .iter()
                .flat_map(|m| &m.states)
                .any(|st| matches!(st.action, Action::Regulate { dir, .. } if dir == d))
        };
        let owned: &'static [Direction] =
            match (regulates(Direction::In), regulates(Direction::Out)) {
                (false, false) => &[],
                (true, false) => &[Direction::In],
                (false, true) => &[Direction::Out],
                (true, true) => &[Direction::In, Direction::Out],
            };
        let deaf = machines
            .iter()
            .flat_map(|m| m.iter())
            .all(|st| st.hears & PACKET_EVENTS == 0);
        CompiledSpec {
            machines,
            deaf,
            max_padding_pkts: spec.max_padding_pkts,
            max_blocking: spec.max_blocking,
            budget: spec.max_padding_pkts.saturating_mul(4).saturating_add(4096),
            owned,
        }
    }
}

/// Per-state-entry scales (see the draw-order contract in the module
/// docs: limit, then timing scale, then aux scale).
#[derive(Default, Clone, Copy)]
struct EntryScales {
    timing: Option<f64>,
    aux: Option<f64>,
}

enum PendingKind {
    Pad,
    Timer,
    Block,
}

/// One armed action: when it fires, and (for pads) the emission stamp —
/// equal to `fire` in relative mode, `flow_start + draw` in absolute
/// mode (absolute pads process back-to-back but stamp out of order;
/// both backends re-sort emissions).
struct PendingAction {
    fire: Nanos,
    stamp: Nanos,
    kind: PendingKind,
}

impl PendingAction {
    /// The next dummy of a pad state: absolute pads fire at once and are
    /// stamped `draw` after the flow start (machines start at the
    /// flow-relative origin); relative pads fire and are stamped `draw`
    /// after `now`.
    fn pad(
        timing: &DistSpec,
        absolute: bool,
        scale: Option<f64>,
        now: Nanos,
        rng: &mut SimRng,
    ) -> Self {
        let d = timing.sample_time(scale, rng);
        let (fire, stamp) = if absolute {
            (now, d)
        } else {
            (now + d, now + d)
        };
        PendingAction {
            fire,
            stamp,
            kind: PendingKind::Pad,
        }
    }
}

/// Live state of one machine within a core.
#[derive(Default)]
struct MachineRt {
    /// Current state index; `None` once the machine has ended.
    state: Option<usize>,
    /// Remaining action firings for the current entry (`None` =
    /// unlimited).
    limit: Option<u64>,
    scales: EntryScales,
    pending: Option<PendingAction>,
    /// The current state's [`CompiledState::hears`]; 0 once ended.
    hears: u8,
}

/// The machine runtime: a [`PadderCore`] running a [`CompiledSpec`]
/// over one flow. Its `Run` is inline, built when the core starts.
pub(crate) struct MachineCore {
    spec: Arc<CompiledSpec>,
    /// Buffered arrival times for regulated directions.
    reg_in: Vec<Nanos>,
    reg_out: Vec<Nanos>,
    run: Option<Run>,
}

/// A started core's machines and what they have emitted.
struct Run {
    spec: Arc<CompiledSpec>,
    rts: Vec<MachineRt>,
    out: Vec<Emit>,
    now: Nanos,
    blocked_until: Option<Nanos>,
    total_blocking: Nanos,
    padded: u64,
    actions: u64,
    /// Set once no machine can act again (see [`Self::is_quiet`]): the
    /// rest of the flow only feeds the regulate buffers.
    quiet: bool,
    /// The flow's `defense.machine.transitions`, added once at close
    /// (with `pad_pkts` / `pad_bytes`, read off the pads in `out`).
    transitions: u64,
}

/// RegulaTor's decaying surge schedule (Holland & Hopper, PETS 2022),
/// the schedule of [`Action::Regulate`]: re-emit
/// `arrivals` (the owned direction's arrival times, in arrival order) as
/// `size`-byte `dir` packets on slots whose rate starts at `rate`
/// packets/second and decays by `decay` per second of schedule age
/// (floored at 10/s), restarting at full rate whenever more than
/// `surge_threshold` packets are queued; a slot with nothing queued
/// carries a dummy until `dummy_budget` is spent. Appends to `emits` and
/// returns when the last real packet left and how many dummies went out.
///
/// The backlog is a monotone cursor, so the schedule is linear in its
/// slots: `t` never decreases and `next_real` advances only while
/// `next_real < arrived`, so everything in `[next_real, arrived)` stays
/// `<= t` and `arrived - next_real` is the count a rescan from
/// `next_real` would return — for any input, sorted or not.
#[allow(clippy::too_many_arguments)]
fn surge_schedule(
    arrivals: &[Nanos],
    rate: f64,
    decay: f64,
    surge_threshold: u64,
    dummy_budget: u64,
    dir: Direction,
    size: u32,
    emits: &mut Vec<Emit>,
) -> (Nanos, u64) {
    let mut dummy_pkts = 0u64;
    let mut next_real = 0usize;
    let mut arrived = 0usize;
    let mut schedule_start = arrivals.first().copied().unwrap_or(Nanos::ZERO);
    let mut t = schedule_start;
    let mut real_done = Nanos::ZERO;
    emits.reserve(arrivals.len());
    while next_real < arrivals.len() {
        // Current schedule rate with geometric decay.
        let age = (t.saturating_sub(schedule_start)).as_secs_f64();
        let cur_rate = (rate * decay.powf(age)).max(10.0);
        let slot = Nanos::from_secs_f64(1.0 / cur_rate);

        // Queue backlog: real packets that have arrived but not been
        // re-emitted yet.
        while arrived < arrivals.len() && arrivals[arrived] <= t {
            arrived += 1;
        }
        let backlog = arrived - next_real;
        if backlog as u64 > surge_threshold {
            // New surge: restart the schedule at full rate.
            schedule_start = t;
        }

        let emit_real = backlog > 0;
        if emit_real {
            real_done = t;
            next_real += 1;
        } else if dummy_pkts < dummy_budget {
            dummy_pkts += 1;
        } else {
            t += slot;
            continue;
        }
        emits.push(Emit {
            pkt: FlowPkt { ts: t, dir, size },
            dummy: !emit_real,
        });
        t += slot;
    }
    (real_done, dummy_pkts)
}

impl Run {
    /// Start `spec`'s machines for one flow, each in its state 0.
    fn start(spec: &Arc<CompiledSpec>, rng: &mut SimRng) -> Run {
        let mut run = Run {
            spec: Arc::clone(spec),
            rts: spec.machines.iter().map(|_| MachineRt::default()).collect(),
            out: Vec::new(),
            now: Nanos::ZERO,
            blocked_until: None,
            total_blocking: Nanos::ZERO,
            padded: 0,
            actions: 0,
            quiet: false,
            transitions: 0,
        };
        for m in 0..run.rts.len() {
            run.enter_state(m, 0, rng);
        }
        run
    }

    /// Run every regulate machine's [`surge_schedule`] over its buffered
    /// arrivals, appending emissions; returns when the last re-emitted
    /// real packet lands (`None` without regulate machines). Dummy slots
    /// count against the spec's global padding cap but not the action
    /// budget — a regulate run is already bounded by
    /// `reals + budget_frac * reals` emissions.
    fn run_regulate(&mut self, reg_in: &[Nanos], reg_out: &[Nanos]) -> Option<Nanos> {
        let mut done: Option<Nanos> = None;
        for m in self.spec.machines.iter() {
            let Action::Regulate {
                dir,
                size,
                rate,
                decay,
                surge_threshold,
                budget_frac,
            } = m[0].action
            else {
                continue;
            };
            let incoming = match dir {
                Direction::In => reg_in,
                Direction::Out => reg_out,
            };
            let native_budget = (incoming.len() as f64 * budget_frac) as u64;
            let room = self.spec.max_padding_pkts.saturating_sub(self.padded);
            let (real_done, dummy_pkts) = surge_schedule(
                incoming,
                rate,
                decay,
                surge_threshold,
                native_budget.min(room),
                dir,
                size,
                &mut self.out,
            );
            self.padded += dummy_pkts;
            netsim::tm_counter!("defense.machine.pads").add(dummy_pkts);
            done = Some(done.map_or(real_done, |d: Nanos| d.max(real_done)));
        }
        done
    }

    fn end_machine(&mut self, m: usize) {
        self.rts[m] = MachineRt::default();
    }

    /// Hard stop: the global padding cap or the action budget tripped.
    fn kill_all(&mut self) {
        netsim::tm_counter!("defense.machine.capped").inc();
        for m in 0..self.rts.len() {
            self.end_machine(m);
        }
        self.blocked_until = None;
    }

    /// No machine can act again: none has an armed action, no blocking
    /// window is open, and no current state has a row for a real packet.
    /// Only a due action, a window's end or a packet event moves a
    /// machine, so a quiet core stays quiet for the rest of the flow.
    fn is_quiet(&self) -> bool {
        self.blocked_until.is_none()
            && self
                .rts
                .iter()
                .all(|rt| rt.pending.is_none() && rt.hears & PACKET_EVENTS == 0)
    }

    /// Enter `s` on machine `m`, sampling limit and entry scales (in
    /// that order), then arm the state's action.
    ///
    /// A limit that samples to 0 raises [`MachineEvent::LimitReached`]
    /// before any action fires. That path is resolved iteratively *here*
    /// — never by recursing through `deliver` back into `enter_state`,
    /// which a hostile `Fixed {v: 0}` limit with a `LimitReached ->
    /// State(..)` row would otherwise turn into a stack overflow — and
    /// each such re-entry is charged against the action budget, so
    /// zero-limit transition cycles terminate via [`Self::kill_all`].
    fn enter_state(&mut self, m: usize, s: usize, rng: &mut SimRng) {
        let mut s = s;
        loop {
            let st = &self.spec.machines[m][s];
            let limit = st
                .limit
                .as_ref()
                .map(|d| d.sample_count(MAX_PADDING_CAP, rng));
            let scales = EntryScales {
                timing: st.action.timing().and_then(|d| d.entry_scale(rng)),
                aux: st.action.aux().and_then(|d| d.entry_scale(rng)),
            };
            self.rts[m] = MachineRt {
                state: Some(s),
                limit,
                scales,
                pending: None,
                hears: st.hears,
            };
            if limit != Some(0) {
                self.arm(m, rng);
                return;
            }
            netsim::tm_counter!("defense.machine.limit_hits").inc();
            self.actions += 1;
            if self.actions > self.spec.budget {
                self.kill_all();
                return;
            }
            let target = self.spec.machines[m][s]
                .row(MachineEvent::LimitReached)
                .map(|row| row.pick(rng));
            match target {
                // No row, or stayed by probability: the machine ends (an
                // exhausted limit can take no further action).
                None | Some(None) => {
                    self.end_machine(m);
                    return;
                }
                Some(Some(Target::End)) => {
                    self.transitions += 1;
                    self.end_machine(m);
                    return;
                }
                Some(Some(Target::State(j))) => {
                    self.transitions += 1;
                    s = j as usize;
                }
            }
        }
    }

    /// Arm the current state's action (draws its timing).
    fn arm(&mut self, m: usize, rng: &mut SimRng) {
        let Some(s) = self.rts[m].state else { return };
        let scales = self.rts[m].scales;
        let pending = match &self.spec.machines[m][s].action {
            Action::Nop | Action::Regulate { .. } => None,
            Action::Pad {
                timing, absolute, ..
            } => Some(PendingAction::pad(
                timing,
                *absolute,
                scales.timing,
                self.now,
                rng,
            )),
            Action::Timer { timing } => Some(PendingAction {
                fire: self.now + timing.sample_time(scales.timing, rng),
                stamp: Nanos::ZERO,
                kind: PendingKind::Timer,
            }),
            Action::Block { timing, .. } => Some(PendingAction {
                fire: self.now + timing.sample_time(scales.timing, rng),
                stamp: Nanos::ZERO,
                kind: PendingKind::Block,
            }),
        };
        self.rts[m].pending = pending;
    }

    fn limit_reached(&mut self, m: usize, rng: &mut SimRng) {
        netsim::tm_counter!("defense.machine.limit_hits").inc();
        self.deliver(m, MachineEvent::LimitReached, rng);
    }

    /// Deliver `ev` to machine `m` and apply its transition row.
    fn deliver(&mut self, m: usize, ev: MachineEvent, rng: &mut SimRng) {
        let Some(cur) = self.rts[m].state else { return };
        let Some(target) = self.spec.machines[m][cur].row(ev).map(|row| row.pick(rng)) else {
            // No row: stay put — except an unhandled exhausted limit,
            // which ends the machine (it can take no further action).
            if ev == MachineEvent::LimitReached {
                self.end_machine(m);
            }
            return;
        };
        match target {
            None => {
                // Stayed by probability. An exhausted limit cannot stay.
                if ev == MachineEvent::LimitReached {
                    self.end_machine(m);
                }
            }
            Some(Target::End) => {
                self.transitions += 1;
                self.end_machine(m);
            }
            Some(Target::State(j)) => {
                self.transitions += 1;
                let j = j as usize;
                if cur == j && ev != MachineEvent::LimitReached {
                    // Self-transition: continue the schedule without
                    // resampling limit or entry scales.
                    self.arm(m, rng);
                } else {
                    self.enter_state(m, j, rng);
                }
            }
        }
    }

    /// Deliver `ev` to every machine whose current state has a row for
    /// it (to the rest it is a no-op: `ev` is never `LimitReached`).
    fn deliver_all(&mut self, ev: MachineEvent, rng: &mut SimRng) {
        for m in 0..self.rts.len() {
            if self.rts[m].hears & event_bit(ev) != 0 {
                self.deliver(m, ev, rng);
            }
        }
    }

    /// Fire machine `m`'s armed action.
    fn fire(&mut self, m: usize, rng: &mut SimRng) {
        let Some(p) = self.rts[m].pending.take() else {
            return;
        };
        self.actions += 1;
        if self.actions > self.spec.budget {
            self.kill_all();
            return;
        }
        let Some(s) = self.rts[m].state else { return };
        match p.kind {
            PendingKind::Pad => self.fire_pad(m, s, p, rng),
            PendingKind::Timer => {
                self.deliver(m, MachineEvent::TimerExpired, rng);
            }
            PendingKind::Block => {
                let Action::Block { duration, .. } = &self.spec.machines[m][s].action else {
                    return;
                };
                let d = duration.sample_time(self.rts[m].scales.aux, rng);
                let room = self.spec.max_blocking.saturating_sub(self.total_blocking);
                let d = d.min(room);
                if !d.is_zero() {
                    let end = self.now + d;
                    self.blocked_until = Some(self.blocked_until.map_or(end, |b| b.max(end)));
                    self.total_blocking += d;
                    netsim::tm_counter!("defense.machine.blocking_windows").inc();
                    netsim::tm_counter!("defense.machine.blocking_ns").add(d.as_nanos());
                    self.deliver_all(MachineEvent::BlockingBegin, rng);
                }
            }
        }
    }

    /// Fire the armed pad `p` of machine `m`, in state `s`.
    ///
    /// A self-looping absolute pad state fires its next dummy at `now`
    /// again, and nothing else can have moved since the pump picked this
    /// machine: its dummies raise `PaddingSent` for it alone, and every
    /// other candidate was already later than it. The pump would pick it
    /// again, so the loop fires that dummy here — with the same budget
    /// and cap checks and the same draws, in the same order.
    fn fire_pad(&mut self, m: usize, s: usize, p: PendingAction, rng: &mut SimRng) {
        let st = &self.spec.machines[m][s];
        let Action::Pad {
            dir,
            size,
            timing,
            absolute,
        } = &st.action
        else {
            return;
        };
        if self.padded >= self.spec.max_padding_pkts {
            self.kill_all();
            return;
        }
        // Blocking defers relative padding to the window's end;
        // absolute schedules are zero-delay by construction.
        if let (false, Some(bu)) = (*absolute, self.blocked_until) {
            if p.fire < bu {
                self.rts[m].pending = Some(PendingAction {
                    fire: bu,
                    stamp: bu,
                    kind: PendingKind::Pad,
                });
                return;
            }
        }
        let mut stamp = p.stamp;
        loop {
            let sz = match st.pad_size {
                Some(sz) => sz,
                None => size.sample_size(self.rts[m].scales.aux, rng),
            };
            self.out.push(Emit {
                pkt: FlowPkt {
                    ts: stamp,
                    dir: *dir,
                    size: sz,
                },
                dummy: true,
            });
            self.padded += 1;
            if let Some(l) = &mut self.rts[m].limit {
                *l -= 1;
                if *l == 0 {
                    // An exhausted limit pre-empts PaddingSent so a
                    // self-looping pad state cannot overdraw.
                    self.limit_reached(m, rng);
                    return;
                }
            }
            if !st.pad_loops {
                self.deliver(m, MachineEvent::PaddingSent, rng);
                return;
            }
            // What `deliver(PaddingSent)` does for this row — count the
            // transition, re-arm without re-entering — without looking
            // the row and the action up again.
            self.transitions += 1;
            let scale = self.rts[m].scales.timing;
            let next = PendingAction::pad(timing, *absolute, scale, self.now, rng);
            if !absolute {
                self.rts[m].pending = Some(next);
                return;
            }
            self.actions += 1;
            if self.actions > self.spec.budget || self.padded >= self.spec.max_padding_pkts {
                self.kill_all();
                return;
            }
            stamp = next.stamp;
        }
    }

    /// Process armed actions (and blocking-window ends) up to `horizon`
    /// (`None` = drain everything). Ties process the window end first,
    /// then machines in index order.
    fn pump(&mut self, horizon: Option<Nanos>, rng: &mut SimRng) {
        loop {
            // Candidate priority 0 is the blocking-window end; machine
            // `i` is priority `i + 1`.
            let mut best: Option<(Nanos, usize)> = None;
            if let Some(bu) = self.blocked_until {
                best = Some((bu, 0));
            }
            for (i, rt) in self.rts.iter().enumerate() {
                if let Some(p) = &rt.pending {
                    let cand = (p.fire, i + 1);
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
            let Some((fire, who)) = best else { break };
            if let Some(h) = horizon {
                if fire > h {
                    break;
                }
            }
            self.now = self.now.max(fire);
            if who == 0 {
                self.blocked_until = None;
                self.deliver_all(MachineEvent::BlockingEnd, rng);
            } else {
                self.fire(who - 1, rng);
            }
        }
    }
}

impl PadderCore for MachineCore {
    fn owned_dirs(&self) -> &'static [Direction] {
        self.spec.owned
    }

    fn on_data(&mut self, pkts: &[FlowPkt], rng: &mut SimRng) {
        let owned = self.spec.owned;
        if !owned.is_empty() {
            for pkt in pkts.iter().filter(|p| owned.contains(&p.dir)) {
                match pkt.dir {
                    Direction::In => self.reg_in.push(pkt.ts),
                    Direction::Out => self.reg_out.push(pkt.ts),
                }
            }
        }
        if self.spec.deaf {
            return;
        }
        let run = self.run.get_or_insert_with(|| Run::start(&self.spec, rng));
        for pkt in pkts {
            if run.quiet {
                return;
            }
            run.pump(Some(pkt.ts), rng);
            run.now = run.now.max(pkt.ts);
            let ev = match pkt.dir {
                Direction::Out => MachineEvent::PacketSent,
                Direction::In => MachineEvent::PacketReceived,
            };
            run.deliver_all(ev, rng);
            run.quiet = run.is_quiet();
        }
    }

    fn on_close(&mut self, rng: &mut SimRng) -> CloseOut {
        let run = self.run.get_or_insert_with(|| Run::start(&self.spec, rng));
        run.pump(None, rng);
        // Until the regulate schedules run, `out` holds the pads alone.
        if !run.out.is_empty() {
            let bytes = run.out.iter().map(|e| u64::from(e.pkt.size)).sum();
            netsim::tm_counter!("defense.machine.pad_pkts").add(run.out.len() as u64);
            netsim::tm_counter!("defense.machine.pad_bytes").add(bytes);
        }
        let real_done = run.run_regulate(&self.reg_in, &self.reg_out);
        if run.transitions > 0 {
            netsim::tm_counter!("defense.machine.transitions").add(run.transitions);
        }
        CloseOut {
            emits: std::mem::take(&mut run.out),
            real_done,
        }
    }
}

// ---------------------------------------------------------------------
// Defense adapter
// ---------------------------------------------------------------------

/// A [`MachineSpec`] as a placement-agnostic [`Defense`]. Validation and
/// compilation happen once, at construction; an invalid spec builds
/// pass-through flows (each counted in `stob.registry.degraded` and
/// `defense.machine.degraded`) — malformed data must never panic or
/// shape wrongly.
pub struct MachineDefense {
    spec: MachineSpec,
    /// The runtime form every flow shares; `None` for an invalid spec.
    compiled: Option<Arc<CompiledSpec>>,
}

impl MachineDefense {
    /// Validate a spec and, if it passes, compile it.
    pub fn new(spec: MachineSpec) -> Self {
        let compiled = spec
            .validate()
            .is_ok()
            .then(|| Arc::new(CompiledSpec::new(&spec)));
        MachineDefense { spec, compiled }
    }

    /// Whether the spec passed validation at construction.
    pub fn is_valid(&self) -> bool {
        self.compiled.is_some()
    }
}

impl Defense for MachineDefense {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
        let Some(compiled) = &self.compiled else {
            netsim::tm_counter!("defense.machine.degraded").inc();
            netsim::tm_counter!("stob.registry.degraded").inc();
            return FlowDefense::passthrough(&self.spec.name);
        };
        let policy = self
            .spec
            .policy
            .clone()
            .unwrap_or_else(|| ObfuscationPolicy::passthrough(&self.spec.name));
        let padding: Option<Box<dyn PadderCore>> = if compiled.machines.is_empty() {
            None
        } else {
            netsim::tm_counter!("defense.machine.flows").inc();
            Some(Box::new(MachineCore {
                spec: Arc::clone(compiled),
                reg_in: Vec::new(),
                reg_out: Vec::new(),
                run: None,
            }))
        };
        FlowDefense {
            policy,
            padding,
            apply_dir: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::{emulate_flow, enforce_flow, flow_duration, StackParams};

    fn pkt(ts_us: u64, dir: Direction, size: u32) -> FlowPkt {
        FlowPkt {
            ts: Nanos::from_micros(ts_us),
            dir,
            size,
        }
    }

    fn flow() -> Vec<FlowPkt> {
        vec![
            pkt(0, Direction::Out, 200),
            pkt(1_000, Direction::In, 1514),
            pkt(2_500, Direction::In, 900),
            pkt(4_000, Direction::Out, 100),
            pkt(9_000, Direction::In, 1400),
        ]
    }

    /// A 1-state constant-rate pad machine on `dir`, with a dummy size
    /// distinct from every real size in [`flow`].
    fn sized_machine(dir: Direction, n: u64, gap_s: f64, size: f64) -> Machine {
        let mut m = const_machine(dir, n, gap_s);
        let Action::Pad { size: s, .. } = &mut m.states[0].action else {
            unreachable!()
        };
        *s = DistSpec::Fixed { v: size };
        m
    }

    /// A 1-state constant-rate pad machine on `dir`.
    fn const_machine(dir: Direction, n: u64, gap_s: f64) -> Machine {
        Machine {
            states: vec![State {
                action: Action::Pad {
                    dir,
                    size: DistSpec::Fixed { v: 1514.0 },
                    timing: DistSpec::Fixed { v: gap_s },
                    absolute: false,
                },
                limit: Some(DistSpec::Fixed { v: n as f64 }),
                transitions: vec![
                    Transition {
                        on: MachineEvent::PaddingSent,
                        to: vec![(Target::State(0), 1.0)],
                    },
                    Transition {
                        on: MachineEvent::LimitReached,
                        to: vec![(Target::End, 1.0)],
                    },
                ],
            }],
        }
    }

    #[test]
    fn constant_machine_emits_on_grid() {
        let spec =
            MachineSpec::padding_only("const", vec![const_machine(Direction::In, 4, 0.001)], 64);
        assert!(spec.validate().is_ok());
        let d = MachineDefense::new(spec);
        let mut rng = SimRng::new(1);
        let out = emulate_flow(&d, &flow(), &DefenseCtx::default(), &mut rng);
        assert_eq!(out.dummy_pkts, 4);
        assert_eq!(out.dummy_bytes, 4 * 1514);
        // Dummies at 1, 2, 3, 4 ms (Fixed gaps, no randomness).
        let dummies: Vec<Nanos> = out
            .pkts
            .iter()
            .filter(|p| p.size == 1514 && p.dir == Direction::In)
            .map(|p| p.ts)
            .collect();
        assert!(dummies.contains(&Nanos::from_millis(1)));
        assert!(dummies.contains(&Nanos::from_millis(4)));
        // Real packets untouched (pure padding defense).
        assert_eq!(out.real_done, Nanos::from_micros(9_000));
    }

    #[test]
    fn machine_defense_is_placement_invariant() {
        let spec = MachineSpec::padding_only(
            "pi",
            vec![
                const_machine(Direction::In, 5, 0.0007),
                const_machine(Direction::Out, 3, 0.0011),
            ],
            64,
        );
        let d = MachineDefense::new(spec);
        let mut rng = SimRng::new(42);
        let app = emulate_flow(&d, &flow(), &DefenseCtx::default(), &mut rng);
        let mut rng = SimRng::new(42);
        let stack = enforce_flow(
            &d,
            &flow(),
            &DefenseCtx::default(),
            &mut rng,
            &StackParams::with_seed(42),
        );
        assert_eq!(app.pkts, stack.pkts);
        assert_eq!(app.dummy_pkts, 8);
    }

    #[test]
    fn event_driven_transition_reacts_to_received_packets() {
        // Idle until an inbound packet, then burst 2 dummies and return.
        let spec = MachineSpec::padding_only(
            "react",
            vec![Machine {
                states: vec![
                    State {
                        action: Action::Nop,
                        limit: None,
                        transitions: vec![Transition {
                            on: MachineEvent::PacketReceived,
                            to: vec![(Target::State(1), 1.0)],
                        }],
                    },
                    State {
                        action: Action::Pad {
                            dir: Direction::In,
                            size: DistSpec::Fixed { v: 900.0 },
                            timing: DistSpec::Fixed { v: 0.0001 },
                            absolute: false,
                        },
                        limit: Some(DistSpec::Fixed { v: 2.0 }),
                        transitions: vec![
                            Transition {
                                on: MachineEvent::PaddingSent,
                                to: vec![(Target::State(1), 1.0)],
                            },
                            Transition {
                                on: MachineEvent::LimitReached,
                                to: vec![(Target::State(0), 1.0)],
                            },
                        ],
                    },
                ],
            }],
            64,
        );
        let d = MachineDefense::new(spec);
        let mut rng = SimRng::new(3);
        let out = emulate_flow(&d, &flow(), &DefenseCtx::default(), &mut rng);
        // Three inbound packets, two dummies per burst.
        assert_eq!(out.dummy_pkts, 6);
    }

    /// A core's close-out as `(packet, dummy)` pairs plus `real_done`,
    /// after feeding it `feed` in slices of `chunk` packets, and whether
    /// the feeding drew from the flow rng.
    fn fed_close_out(
        d: &MachineDefense,
        feed: &[FlowPkt],
        chunk: usize,
        seed: u64,
    ) -> (Vec<(FlowPkt, bool)>, Option<Nanos>, bool) {
        let mut rng = SimRng::new(seed);
        let mut core = d
            .build(&DefenseCtx::default(), &mut rng)
            .padding
            .expect("core");
        let before = rng.clone().next_u64();
        for part in feed.chunks(chunk.max(1)) {
            core.on_data(part, &mut rng);
        }
        let drew = rng.clone().next_u64() != before;
        let out = core.on_close(&mut rng);
        let emits = out.emits.iter().map(|e| (e.pkt, e.dummy)).collect();
        (emits, out.real_done, drew)
    }

    #[test]
    fn packet_deaf_spec_starts_at_close() {
        // A relative pad state with drawn limit, gaps and sizes, and no
        // packet row.
        let mut m = const_machine(Direction::In, 0, 0.0);
        m.states[0].limit = Some(DistSpec::Uniform { lo: 3.0, hi: 9.0 });
        m.states[0].action = Action::Pad {
            dir: Direction::In,
            size: DistSpec::Uniform {
                lo: 200.0,
                hi: 1400.0,
            },
            timing: DistSpec::Uniform {
                lo: 0.0005,
                hi: 0.003,
            },
            absolute: false,
        };
        let d = MachineDefense::new(MachineSpec::padding_only("deaf", vec![m], 64));
        let unfed = fed_close_out(&d, &[], 1, 21);
        assert!(unfed.0.len() >= 3);
        for chunk in [1, 2, usize::MAX] {
            let (emits, real_done, drew) = fed_close_out(&d, &flow(), chunk, 21);
            assert!(!drew, "on_data drew from the rng (chunk {chunk})");
            assert_eq!(
                (emits, real_done),
                (unfed.0.clone(), unfed.1),
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn a_packet_row_still_draws_at_its_packet() {
        // The scrambler's shape: idle until an inbound packet, which
        // starts a burst with probability one half.
        let mut burst = const_machine(Direction::In, 2, 0.0001);
        burst.states[0].transitions[0].to = vec![(Target::State(1), 1.0)];
        let idle = State {
            action: Action::Nop,
            limit: None,
            transitions: vec![Transition {
                on: MachineEvent::PacketReceived,
                to: vec![(Target::State(1), 0.5)],
            }],
        };
        let m = Machine {
            states: vec![idle, burst.states.remove(0)],
        };
        let d = MachineDefense::new(MachineSpec::padding_only("react", vec![m], 64));
        let inbound = [pkt(0, Direction::In, 700)];
        let (_, _, drew) = fed_close_out(&d, &inbound, 1, 22);
        assert!(drew, "the PacketReceived row drew nothing at its packet");
    }

    #[test]
    fn global_padding_cap_stops_runaway_machines() {
        // Unlimited self-looping pad state; only the global cap stops it.
        let mut m = const_machine(Direction::In, 0, 0.0001);
        m.states[0].limit = None;
        let spec = MachineSpec::padding_only("runaway", vec![m], 25);
        let d = MachineDefense::new(spec);
        let before = netsim::tm_counter!("defense.machine.capped").get();
        let mut rng = SimRng::new(4);
        let out = emulate_flow(&d, &flow(), &DefenseCtx::default(), &mut rng);
        assert_eq!(out.dummy_pkts, 25);
        assert!(netsim::tm_counter!("defense.machine.capped").get() > before);
    }

    #[test]
    fn timer_ping_pong_is_stopped_by_the_action_budget() {
        // Two states arming zero-delay timers at each other, forever.
        let timer_state = |next: u32| State {
            action: Action::Timer {
                timing: DistSpec::Fixed { v: 0.0 },
            },
            limit: None,
            transitions: vec![Transition {
                on: MachineEvent::TimerExpired,
                to: vec![(Target::State(next), 1.0)],
            }],
        };
        let spec = MachineSpec::padding_only(
            "pingpong",
            vec![Machine {
                states: vec![timer_state(1), timer_state(0)],
            }],
            8,
        );
        assert!(spec.validate().is_ok(), "valid but pathological");
        let d = MachineDefense::new(spec);
        let mut rng = SimRng::new(5);
        let out = emulate_flow(&d, &flow(), &DefenseCtx::default(), &mut rng);
        // Terminates (budget) and pads nothing.
        assert_eq!(out.dummy_pkts, 0);
    }

    #[test]
    fn zero_limit_transition_cycle_terminates() {
        // A limit that samples to 0 with a LimitReached row pointing
        // back at a state used to recurse enter_state -> limit_reached
        // -> deliver -> enter_state without bound (stack overflow from
        // hostile JSON). It must trip the action budget instead.
        let zero_state = |next: u32| State {
            action: Action::Nop,
            limit: Some(DistSpec::Fixed { v: 0.0 }),
            transitions: vec![Transition {
                on: MachineEvent::LimitReached,
                to: vec![(Target::State(next), 1.0)],
            }],
        };
        for machine in [
            // Self-loop (the reviewer's repro) and a 2-state cycle.
            Machine {
                states: vec![zero_state(0)],
            },
            Machine {
                states: vec![zero_state(1), zero_state(0)],
            },
        ] {
            let spec = MachineSpec::padding_only("zero-limit", vec![machine], 8);
            assert!(spec.validate().is_ok(), "valid but hostile");
            let d = MachineDefense::new(spec);
            let before = netsim::tm_counter!("defense.machine.capped").get();
            let mut rng = SimRng::new(9);
            let input = flow();
            let out = emulate_flow(&d, &input, &DefenseCtx::default(), &mut rng);
            assert_eq!(out.pkts, input);
            assert_eq!(out.dummy_pkts, 0);
            assert!(netsim::tm_counter!("defense.machine.capped").get() > before);
        }
    }

    #[test]
    fn target_decode_rejects_out_of_range_state_index() {
        let v = Json::parse(r#"{"State": 4294967296}"#).expect("parse");
        assert!(Target::from_json(&v).is_err(), "u32 overflow must reject");
        let v = Json::parse(r#"{"State": 4294967295}"#).expect("parse");
        assert_eq!(
            Target::from_json(&v).expect("u32::MAX decodes"),
            Target::State(u32::MAX)
        );
    }

    #[test]
    fn blocking_window_defers_relative_padding() {
        // Machine 0 pads every 1 ms; machine 1 opens a 5 ms blocking
        // window at t = 0.5 ms. Pads inside the window land at its end.
        let blocker = Machine {
            states: vec![State {
                action: Action::Block {
                    timing: DistSpec::Fixed { v: 0.0005 },
                    duration: DistSpec::Fixed { v: 0.005 },
                },
                limit: Some(DistSpec::Fixed { v: 1.0 }),
                transitions: vec![],
            }],
        };
        let mut spec = MachineSpec::padding_only(
            "blocked",
            vec![sized_machine(Direction::In, 3, 0.001, 1200.0), blocker],
            64,
        );
        spec.max_blocking = Nanos::from_millis(50);
        let before_w = netsim::tm_counter!("defense.machine.blocking_windows").get();
        let d = MachineDefense::new(spec);
        let mut rng = SimRng::new(6);
        let out = emulate_flow(&d, &flow(), &DefenseCtx::default(), &mut rng);
        assert_eq!(out.dummy_pkts, 3);
        // Window [0.5 ms, 5.5 ms]: the pad armed for 1 ms defers to
        // 5.5 ms; the rest follow at 6.5 and 7.5 ms.
        let dummies: Vec<Nanos> = out
            .pkts
            .iter()
            .filter(|p| p.size == 1200)
            .map(|p| p.ts)
            .collect();
        assert_eq!(
            dummies,
            vec![
                Nanos::from_micros(5_500),
                Nanos::from_micros(6_500),
                Nanos::from_micros(7_500)
            ]
        );
        assert!(netsim::tm_counter!("defense.machine.blocking_windows").get() > before_w);
    }

    #[test]
    fn total_blocking_cap_truncates_windows() {
        let blocker = Machine {
            states: vec![State {
                action: Action::Block {
                    timing: DistSpec::Fixed { v: 0.001 },
                    duration: DistSpec::Fixed { v: 10.0 },
                },
                limit: Some(DistSpec::Fixed { v: 1.0 }),
                transitions: vec![],
            }],
        };
        let mut spec = MachineSpec::padding_only(
            "trunc",
            vec![sized_machine(Direction::In, 1, 0.002, 1200.0), blocker],
            64,
        );
        spec.max_blocking = Nanos::from_millis(3);
        let d = MachineDefense::new(spec);
        let mut rng = SimRng::new(7);
        let out = emulate_flow(&d, &flow(), &DefenseCtx::default(), &mut rng);
        // 10 s window truncated to 3 ms: pad defers to 1 ms + 3 ms.
        let dummy = out.pkts.iter().find(|p| p.size == 1200).expect("dummy");
        assert_eq!(dummy.ts, Nanos::from_millis(4));
    }

    #[test]
    fn invalid_spec_degrades_to_passthrough_and_counts() {
        let mut m = const_machine(Direction::In, 4, 0.001);
        m.states[0].transitions[0].to = vec![(Target::State(9), 1.0)]; // out of range
        let spec = MachineSpec::padding_only("bad", vec![m], 64);
        assert!(spec.validate().is_err());
        let d = MachineDefense::new(spec);
        assert!(!d.is_valid());
        let before = netsim::tm_counter!("stob.registry.degraded").get();
        let mut rng = SimRng::new(8);
        let input = flow();
        let out = emulate_flow(&d, &input, &DefenseCtx::default(), &mut rng);
        assert_eq!(out.pkts, input);
        assert_eq!(out.dummy_pkts, 0);
        assert_eq!(
            netsim::tm_counter!("stob.registry.degraded").get(),
            before + 1
        );
    }

    #[test]
    fn validate_rejects_hostile_shapes() {
        let base = || const_machine(Direction::In, 4, 0.001);
        let ok = MachineSpec::padding_only("ok", vec![base()], 64);
        assert!(ok.validate().is_ok());

        let mut s = ok.clone();
        s.name.clear();
        assert!(s.validate().is_err(), "empty name");

        let mut s = ok.clone();
        s.machines = (0..MAX_MACHINES + 1).map(|_| base()).collect();
        assert!(s.validate().is_err(), "too many machines");

        let mut s = ok.clone();
        s.machines[0].states.clear();
        assert!(s.validate().is_err(), "no states");

        let mut s = ok.clone();
        s.max_padding_pkts = MAX_PADDING_CAP + 1;
        assert!(s.validate().is_err(), "padding cap");

        let mut s = ok.clone();
        s.max_blocking = MAX_BLOCKING_CAP + Nanos(1);
        assert!(s.validate().is_err(), "blocking cap");

        let mut s = ok.clone();
        s.machines[0].states[0].transitions[0].to =
            vec![(Target::End, 0.7), (Target::State(0), 0.7)];
        assert!(s.validate().is_err(), "probability mass > 1");

        let mut s = ok.clone();
        s.machines[0].states[0].transitions[0].to = vec![(Target::End, f64::NAN)];
        assert!(s.validate().is_err(), "NaN probability");

        let mut s = ok.clone();
        s.machines[0].states[0].transitions.push(Transition {
            on: MachineEvent::PaddingSent,
            to: vec![(Target::End, 1.0)],
        });
        assert!(s.validate().is_err(), "duplicate row");

        let mut s = ok.clone();
        s.machines[0].states[0].action = Action::Pad {
            dir: Direction::In,
            size: DistSpec::Fixed { v: f64::INFINITY },
            timing: DistSpec::Fixed { v: 0.001 },
            absolute: false,
        };
        assert!(s.validate().is_err(), "infinite size");

        let mut s = ok.clone();
        s.machines[0].states[0].limit = Some(DistSpec::Geometric { p: 0.0 });
        assert!(s.validate().is_err(), "geometric p = 0");

        let mut s = ok.clone();
        s.machines[0].states[0].limit = Some(DistSpec::Rayleigh {
            w_min: 5.0,
            w_max: 1.0,
        });
        assert!(s.validate().is_err(), "inverted rayleigh window");

        // A regulate action owns its machine: one state, no limit, no rows.
        let mut s = ok;
        s.machines[0].states[0].action = Action::Regulate {
            dir: Direction::In,
            size: 1514,
            rate: 300.0,
            decay: 0.9,
            surge_threshold: 60,
            budget_frac: 0.4,
        };
        assert_eq!(
            s.validate(),
            Err(
                "machine 0 state 0: a regulate state must be its machine's only state, \
                 with no limit and no transitions"
                    .to_string()
            )
        );
        s.machines[0].states[0].limit = None;
        s.machines[0].states[0].transitions.clear();
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut h = Histogram::new(0.0, 1500.0, 5);
        h.push(700.0);
        h.push(1400.0);
        let spec = MachineSpec {
            name: "rt".into(),
            machines: vec![Machine {
                states: vec![
                    State {
                        action: Action::Pad {
                            dir: Direction::Out,
                            size: DistSpec::FromHistogram(h),
                            timing: DistSpec::Rayleigh {
                                w_min: 1.0,
                                w_max: 7.0,
                            },
                            absolute: true,
                        },
                        limit: Some(DistSpec::Uniform { lo: 1.0, hi: 120.0 }),
                        transitions: vec![
                            Transition {
                                on: MachineEvent::PaddingSent,
                                to: vec![(Target::State(0), 1.0)],
                            },
                            Transition {
                                on: MachineEvent::LimitReached,
                                to: vec![(Target::State(1), 0.5), (Target::End, 0.5)],
                            },
                        ],
                    },
                    State {
                        action: Action::Block {
                            timing: DistSpec::Fixed { v: 0.25 },
                            duration: DistSpec::LogNormal {
                                mu: -3.0,
                                sigma: 0.5,
                            },
                        },
                        limit: None,
                        transitions: vec![Transition {
                            on: MachineEvent::BlockingEnd,
                            to: vec![(Target::End, 1.0)],
                        }],
                    },
                ],
            }],
            policy: Some(ObfuscationPolicy::split_and_delay("inner")),
            max_padding_pkts: 500,
            max_blocking: Nanos::from_millis(250),
        };
        assert!(spec.validate().is_ok());
        let text = spec.to_json().to_string_compact();
        let back = MachineSpec::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(back, spec);
    }

    /// Complexity gate, not a timing test: recounting the backlog per
    /// slot made this 5 x 10^9 compare steps (over a minute in a debug
    /// build); with the cursor it is 10^5 slots, milliseconds.
    #[test]
    fn regulate_hundred_thousand_packet_burst_is_linear() {
        let regulate = State {
            action: Action::Regulate {
                dir: Direction::In,
                size: 1514,
                rate: 300.0,
                decay: 0.9,
                surge_threshold: 60,
                budget_frac: 0.4,
            },
            limit: None,
            transitions: Vec::new(),
        };
        let machines = vec![Machine {
            states: vec![regulate],
        }];
        let d = MachineDefense::new(MachineSpec::padding_only(
            "regulate",
            machines,
            MAX_PADDING_CAP,
        ));
        assert!(d.is_valid());
        let burst = vec![pkt(0, Direction::In, 1514); 100_000];
        let started = std::time::Instant::now();
        let out = emulate_flow(&d, &burst, &DefenseCtx::default(), &mut SimRng::new(1));
        let took = started.elapsed();
        assert!(took.as_secs() < 2, "100k-packet burst took {took:?}");
        assert_eq!(out.dummy_pkts, 0, "the backlog never empties");
        assert_eq!(out.pkts.len(), 100_000);
        assert_eq!(out.real_done, flow_duration(&out.pkts));
    }

    #[test]
    fn surge_schedule_restarts_above_the_threshold_not_at_it() {
        // One early packet ages the schedule, then a burst of `n` lands
        // at once. A backlog of exactly the threshold keeps decaying; one
        // more restarts at the full rate, so the burst drains sooner.
        let drain = |n: usize| {
            let mut arrivals = vec![Nanos::ZERO];
            arrivals.resize(1 + n, Nanos::from_secs(2));
            let mut emits = Vec::new();
            let (done, dummies) =
                surge_schedule(&arrivals, 300.0, 0.5, 8, 0, Direction::In, 1514, &mut emits);
            assert_eq!(dummies, 0);
            assert_eq!(emits.len(), arrivals.len());
            assert!(emits.iter().all(|e| !e.dummy && e.pkt.size == 1514));
            // Mean slot after the burst's first packet (whose own slot
            // was sized before the backlog was looked at).
            (done - emits[2].pkt.ts).0 / (n as u64 - 2)
        };
        let (at, above) = (drain(8), drain(9));
        let full_rate_slot = Nanos::from_secs_f64(1.0 / 300.0).0;
        assert!(above < at, "mean slot {above} ns vs {at} ns");
        assert!(above < full_rate_slot * 11 / 10, "restarted at ~300/s");
        assert!(at > full_rate_slot * 3, "2 s of 0.5 decay: ~75/s");
    }

    #[test]
    fn geometric_and_histogram_draws_are_sane() {
        let mut rng = SimRng::new(11);
        let g = DistSpec::Geometric { p: 0.5 };
        for _ in 0..500 {
            let k = g.sample_count(1_000, &mut rng);
            assert!(k >= 1, "geometric support starts at 1");
        }
        let sizes = DistSpec::Normal {
            mean: 700.0,
            std: 5_000.0,
        };
        for _ in 0..500 {
            let s = sizes.sample_size(None, &mut rng);
            assert!((1..=MTU_WIRE).contains(&s));
        }
        let t = DistSpec::Pareto {
            scale: 1e9,
            shape: 0.1,
        };
        for _ in 0..100 {
            // Hostile heavy tail clamps at the per-draw ceiling.
            assert!(t.sample_time(None, &mut rng) <= Nanos::from_secs_f64(MAX_DRAW_SECS));
        }
    }
}
