//! Defenses as data: a maybenot-style probabilistic state-machine
//! runtime.
//!
//! Every other defense in this repo is a compiled Rust adapter; shipping
//! a new one to a fleet means a rebuild. This module makes the defense
//! itself *data*: a [`MachineSpec`] is a serializable set of probabilistic
//! state machines (in the spirit of the maybenot framework) that an
//! operator pushes through the registry/sockopt control plane at runtime
//! — [`crate::registry::PolicyRegistry::bind_machine`] /
//! [`crate::sockopt::publish_machine_json`] — with no recompile.
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
//! transitions without consuming randomness. With those rules the
//! machine-generated FRONT (see the `defenses` crate's machine
//! generators) replays the native `front.rs` draw sequence bit for bit.
//!
//! **Safety.** Hostile or malformed specs can never panic the datapath:
//! [`MachineSpec::validate`] bounds machines, states, probabilities and
//! distribution parameters, and an invalid spec degrades the flow to
//! pass-through (counted in `stob.registry.degraded` and
//! `defense.machine.degraded`). At runtime every draw is clamped (sizes
//! to the wire MTU, per-draw delays to [`MAX_DRAW_SECS`]) and two global
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
//! stob::sockopt::publish_machine_json(&reg, PolicyKey::Default, text, Placement::App)
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
use crate::policy::{bad, histogram_ok, tagged, variant, ObfuscationPolicy};
use netsim::json::{Json, JsonError};
use netsim::{Direction, Histogram, Nanos, SimRng};
use std::sync::Arc;

/// Most machines one spec may carry.
pub const MAX_MACHINES: usize = 8;
/// Most states one machine may carry.
pub const MAX_STATES: usize = 64;
/// Upper bound on [`MachineSpec::max_padding_pkts`].
pub const MAX_PADDING_CAP: u64 = 100_000;
/// Upper bound on [`MachineSpec::max_blocking`] (60 s).
pub const MAX_BLOCKING_CAP: Nanos = Nanos(60_000_000_000);
/// Per-draw clamp on any sampled delay/offset, in seconds. A single
/// timing draw beyond this is hostile or broken, not a schedule.
pub const MAX_DRAW_SECS: f64 = 600.0;

/// Wire MTU padding sizes are clamped to.
const MTU_WIRE: u32 = 1514;
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
    /// range `[lo, hi]`, matching the native adapters' budget draws).
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
    pub fn validate(&self, what: &str) -> Result<(), String> {
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
        let s = self.sample_f64(scale, rng);
        if !s.is_finite() {
            return 1;
        }
        (s.round().clamp(1.0, f64::from(MTU_WIRE))) as u32
    }

    /// Draw an action count, clamped to `[0, cap]`. A
    /// [`DistSpec::Uniform`] count uses the inclusive integer range —
    /// bit-identical to the native adapters' `range_usize` budget draws.
    fn sample_count(&self, cap: u64, rng: &mut SimRng) -> u64 {
        if let DistSpec::Uniform { lo, hi } = self {
            let lo = lo.max(0.0) as u64;
            let hi = (hi.max(0.0) as u64).max(lo);
            return rng.range_u64(lo, hi).min(cap);
        }
        let s = self.sample_f64(None, rng);
        if !s.is_finite() || s < 0.0 {
            return 0;
        }
        (s.round() as u64).min(cap)
    }
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

    /// Stable JSON tag.
    pub fn as_str(self) -> &'static str {
        match self {
            MachineEvent::PacketSent => "PacketSent",
            MachineEvent::PacketReceived => "PacketReceived",
            MachineEvent::PaddingSent => "PaddingSent",
            MachineEvent::BlockingBegin => "BlockingBegin",
            MachineEvent::BlockingEnd => "BlockingEnd",
            MachineEvent::TimerExpired => "TimerExpired",
            MachineEvent::LimitReached => "LimitReached",
        }
    }
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
/// docs and [`crate::sockopt::publish_machine_json`].
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
                            "{what}: a regulate state must be its machine's only state,                              with no limit and no transitions"
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
                        return Err(format!("{what}: duplicate row for {}", tr.on.as_str()));
                    }
                    seen.push(tr.on);
                    if tr.to.is_empty() {
                        return Err(format!("{what}: empty target list for {}", tr.on.as_str()));
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
// JSON codec (policy-layer style: externally tagged variants)
// ---------------------------------------------------------------------

fn dir_to_json(d: Direction) -> Json {
    Json::from(match d {
        Direction::Out => "Out",
        Direction::In => "In",
    })
}

fn dir_from_json(v: &Json) -> Result<Direction, JsonError> {
    match v.as_str() {
        Some("Out") => Ok(Direction::Out),
        Some("In") => Ok(Direction::In),
        _ => Err(bad("expected a Direction (\"Out\" or \"In\")")),
    }
}

impl DistSpec {
    /// Encode as externally-tagged JSON.
    pub fn to_json(&self) -> Json {
        match self {
            DistSpec::Fixed { v } => tagged("Fixed", Json::obj().set("v", *v)),
            DistSpec::Uniform { lo, hi } => {
                tagged("Uniform", Json::obj().set("lo", *lo).set("hi", *hi))
            }
            DistSpec::Normal { mean, std } => {
                tagged("Normal", Json::obj().set("mean", *mean).set("std", *std))
            }
            DistSpec::LogNormal { mu, sigma } => {
                tagged("LogNormal", Json::obj().set("mu", *mu).set("sigma", *sigma))
            }
            DistSpec::Pareto { scale, shape } => tagged(
                "Pareto",
                Json::obj().set("scale", *scale).set("shape", *shape),
            ),
            DistSpec::Geometric { p } => tagged("Geometric", Json::obj().set("p", *p)),
            DistSpec::Rayleigh { w_min, w_max } => tagged(
                "Rayleigh",
                Json::obj().set("w_min", *w_min).set("w_max", *w_max),
            ),
            DistSpec::FromHistogram(h) => tagged("FromHistogram", h.to_json()),
        }
    }

    /// Decode from [`DistSpec::to_json`]'s encoding.
    pub fn from_json(v: &Json) -> Result<DistSpec, JsonError> {
        match variant(v, "DistSpec")? {
            ("Fixed", Some(b)) => Ok(DistSpec::Fixed { v: b.req_f64("v")? }),
            ("Uniform", Some(b)) => Ok(DistSpec::Uniform {
                lo: b.req_f64("lo")?,
                hi: b.req_f64("hi")?,
            }),
            ("Normal", Some(b)) => Ok(DistSpec::Normal {
                mean: b.req_f64("mean")?,
                std: b.req_f64("std")?,
            }),
            ("LogNormal", Some(b)) => Ok(DistSpec::LogNormal {
                mu: b.req_f64("mu")?,
                sigma: b.req_f64("sigma")?,
            }),
            ("Pareto", Some(b)) => Ok(DistSpec::Pareto {
                scale: b.req_f64("scale")?,
                shape: b.req_f64("shape")?,
            }),
            ("Geometric", Some(b)) => Ok(DistSpec::Geometric { p: b.req_f64("p")? }),
            ("Rayleigh", Some(b)) => Ok(DistSpec::Rayleigh {
                w_min: b.req_f64("w_min")?,
                w_max: b.req_f64("w_max")?,
            }),
            ("FromHistogram", Some(b)) => Ok(DistSpec::FromHistogram(Histogram::from_json(b)?)),
            (tag, _) => Err(bad(format!("unknown DistSpec variant `{tag}`"))),
        }
    }
}

impl MachineEvent {
    /// Encode as a plain tag string.
    pub fn to_json(self) -> Json {
        Json::from(self.as_str())
    }

    /// Decode from a tag string.
    pub fn from_json(v: &Json) -> Result<MachineEvent, JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| bad("expected a MachineEvent tag"))?;
        MachineEvent::ALL
            .into_iter()
            .find(|e| e.as_str() == s)
            .ok_or_else(|| bad(format!("unknown MachineEvent `{s}`")))
    }
}

impl Target {
    /// Encode: `"End"` or `{"State": i}`.
    pub fn to_json(self) -> Json {
        match self {
            Target::End => Json::from("End"),
            Target::State(i) => Json::obj().set("State", i),
        }
    }

    /// Decode from [`Target::to_json`]'s encoding.
    pub fn from_json(v: &Json) -> Result<Target, JsonError> {
        match variant(v, "Target")? {
            ("End", None) => Ok(Target::End),
            ("State", Some(b)) => Ok(Target::State(
                b.as_u32().ok_or_else(|| bad("State index is not a u32"))?,
            )),
            (tag, _) => Err(bad(format!("unknown Target variant `{tag}`"))),
        }
    }
}

impl Transition {
    /// Encode as `{"on": ..., "to": [[target, prob], ...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj().set("on", self.on.to_json()).set(
            "to",
            Json::Arr(
                self.to
                    .iter()
                    .map(|(t, p)| Json::Arr(vec![t.to_json(), Json::from(*p)]))
                    .collect(),
            ),
        )
    }

    /// Decode from [`Transition::to_json`]'s encoding.
    pub fn from_json(v: &Json) -> Result<Transition, JsonError> {
        let mut to = Vec::new();
        for pair in v.req_arr("to")? {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad("transition target is not a [target, prob] pair"))?;
            let p = pair[1]
                .as_f64()
                .ok_or_else(|| bad("transition probability is not a number"))?;
            to.push((Target::from_json(&pair[0])?, p));
        }
        Ok(Transition {
            on: MachineEvent::from_json(v.field("on")?)?,
            to,
        })
    }
}

impl Action {
    /// Encode as externally-tagged JSON.
    pub fn to_json(&self) -> Json {
        match self {
            Action::Nop => Json::from("Nop"),
            Action::Pad {
                dir,
                size,
                timing,
                absolute,
            } => tagged(
                "Pad",
                Json::obj()
                    .set("dir", dir_to_json(*dir))
                    .set("size", size.to_json())
                    .set("timing", timing.to_json())
                    .set("absolute", *absolute),
            ),
            Action::Timer { timing } => {
                tagged("Timer", Json::obj().set("timing", timing.to_json()))
            }
            Action::Block { timing, duration } => tagged(
                "Block",
                Json::obj()
                    .set("timing", timing.to_json())
                    .set("duration", duration.to_json()),
            ),
            Action::Regulate {
                dir,
                size,
                rate,
                decay,
                surge_threshold,
                budget_frac,
            } => tagged(
                "Regulate",
                Json::obj()
                    .set("dir", dir_to_json(*dir))
                    .set("size", *size)
                    .set("rate", *rate)
                    .set("decay", *decay)
                    .set("surge_threshold", *surge_threshold)
                    .set("budget_frac", *budget_frac),
            ),
        }
    }

    /// Decode from [`Action::to_json`]'s encoding.
    pub fn from_json(v: &Json) -> Result<Action, JsonError> {
        match variant(v, "Action")? {
            ("Nop", None) => Ok(Action::Nop),
            ("Pad", Some(b)) => Ok(Action::Pad {
                dir: dir_from_json(b.field("dir")?)?,
                size: DistSpec::from_json(b.field("size")?)?,
                timing: DistSpec::from_json(b.field("timing")?)?,
                absolute: b.req_bool("absolute")?,
            }),
            ("Timer", Some(b)) => Ok(Action::Timer {
                timing: DistSpec::from_json(b.field("timing")?)?,
            }),
            ("Block", Some(b)) => Ok(Action::Block {
                timing: DistSpec::from_json(b.field("timing")?)?,
                duration: DistSpec::from_json(b.field("duration")?)?,
            }),
            ("Regulate", Some(b)) => Ok(Action::Regulate {
                dir: dir_from_json(b.field("dir")?)?,
                size: b.req_u32("size")?,
                rate: b.req_f64("rate")?,
                decay: b.req_f64("decay")?,
                surge_threshold: b.req_u64("surge_threshold")?,
                budget_frac: b.req_f64("budget_frac")?,
            }),
            (tag, _) => Err(bad(format!("unknown Action variant `{tag}`"))),
        }
    }
}

impl State {
    /// Encode; `limit` is omitted when `None`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj().set("action", self.action.to_json());
        if let Some(l) = &self.limit {
            o = o.set("limit", l.to_json());
        }
        o.set(
            "transitions",
            Json::Arr(self.transitions.iter().map(Transition::to_json).collect()),
        )
    }

    /// Decode from [`State::to_json`]'s encoding.
    pub fn from_json(v: &Json) -> Result<State, JsonError> {
        Ok(State {
            action: Action::from_json(v.field("action")?)?,
            limit: match v.get("limit") {
                Some(l) => Some(DistSpec::from_json(l)?),
                None => None,
            },
            transitions: v
                .req_arr("transitions")?
                .iter()
                .map(Transition::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl Machine {
    /// Encode as `{"states": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj().set(
            "states",
            Json::Arr(self.states.iter().map(State::to_json).collect()),
        )
    }

    /// Decode from [`Machine::to_json`]'s encoding.
    pub fn from_json(v: &Json) -> Result<Machine, JsonError> {
        Ok(Machine {
            states: v
                .req_arr("states")?
                .iter()
                .map(State::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl MachineSpec {
    /// Encode the whole spec; `policy` is omitted when `None`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj().set("name", self.name.as_str()).set(
            "machines",
            Json::Arr(self.machines.iter().map(Machine::to_json).collect()),
        );
        if let Some(p) = &self.policy {
            o = o.set("policy", p.to_json());
        }
        o.set("max_padding_pkts", self.max_padding_pkts)
            .set("max_blocking_ns", self.max_blocking.0)
    }

    /// Decode from [`MachineSpec::to_json`]'s encoding. Decoding checks
    /// shape only; call [`MachineSpec::validate`] before running.
    pub fn from_json(v: &Json) -> Result<MachineSpec, JsonError> {
        Ok(MachineSpec {
            name: v.req_str("name")?.to_string(),
            machines: v
                .req_arr("machines")?
                .iter()
                .map(Machine::from_json)
                .collect::<Result<_, _>>()?,
            policy: match v.get("policy") {
                Some(p) => Some(ObfuscationPolicy::from_json(p)?),
                None => None,
            },
            max_padding_pkts: v.req_u64("max_padding_pkts")?,
            max_blocking: Nanos(v.req_u64("max_blocking_ns")?),
        })
    }
}

// ---------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------

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

/// Live state of one machine within a core.
struct MachineRt {
    /// Current state index; `None` once the machine has ended.
    state: Option<usize>,
    /// Remaining action firings for the current entry (`None` =
    /// unlimited).
    limit: Option<u64>,
    scales: EntryScales,
    pending: Option<PendingAction>,
}

/// The machine runtime: a [`PadderCore`] interpreting a validated
/// [`MachineSpec`] over one flow. Construct via [`MachineCore::new`]
/// (normally indirectly, through [`MachineDefense::build`]).
pub struct MachineCore {
    spec: Arc<MachineSpec>,
    rts: Vec<MachineRt>,
    out: Vec<Emit>,
    now: Nanos,
    blocked_until: Option<Nanos>,
    total_blocking: Nanos,
    padded: u64,
    actions: u64,
    budget: u64,
    started: bool,
    /// Directions owned by regulate machines (the backend drops their
    /// original packets; the surge schedule re-emits them at close).
    owned: &'static [Direction],
    /// Buffered arrival times for regulated directions.
    reg_in: Vec<Nanos>,
    reg_out: Vec<Nanos>,
}

/// RegulaTor's decaying surge schedule (Holland & Hopper, PETS 2022),
/// written once for the native defense and [`Action::Regulate`]: re-emit
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
pub fn surge_schedule(
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

/// Pick a target from a transition row. A single certain target
/// transitions without consuming randomness (part of the draw-order
/// contract); `None` means "stay in the current state".
fn pick_target(row: &Transition, rng: &mut SimRng) -> Option<Target> {
    if row.to.len() == 1 && row.to[0].1 >= 1.0 - PROB_EPS {
        return Some(row.to[0].0);
    }
    let u = rng.next_f64();
    let mut acc = 0.0;
    for (t, p) in &row.to {
        acc += p;
        if u < acc {
            return Some(*t);
        }
    }
    None
}

impl MachineCore {
    /// Build the runtime for one flow. The spec must have passed
    /// [`MachineSpec::validate`]; [`MachineDefense`] guarantees that.
    pub fn new(spec: Arc<MachineSpec>) -> Self {
        netsim::tm_counter!("defense.machine.flows").inc();
        let n = spec.machines.len();
        // Budget: every pad consumes one action, and any useful machine
        // does bounded bookkeeping around each pad; 4x + slack catches
        // valid-but-pathological event loops (timer ping-pong etc.).
        let budget = spec.max_padding_pkts.saturating_mul(4).saturating_add(4096);
        let mut has_in = false;
        let mut has_out = false;
        for m in &spec.machines {
            for st in &m.states {
                if let Action::Regulate { dir, .. } = st.action {
                    match dir {
                        Direction::In => has_in = true,
                        Direction::Out => has_out = true,
                    }
                }
            }
        }
        const NONE: &[Direction] = &[];
        const IN: &[Direction] = &[Direction::In];
        const OUT: &[Direction] = &[Direction::Out];
        const BOTH: &[Direction] = &[Direction::In, Direction::Out];
        let owned = match (has_in, has_out) {
            (false, false) => NONE,
            (true, false) => IN,
            (false, true) => OUT,
            (true, true) => BOTH,
        };
        MachineCore {
            spec,
            rts: (0..n)
                .map(|_| MachineRt {
                    state: None,
                    limit: None,
                    scales: EntryScales::default(),
                    pending: None,
                })
                .collect(),
            out: Vec::new(),
            now: Nanos::ZERO,
            blocked_until: None,
            total_blocking: Nanos::ZERO,
            padded: 0,
            actions: 0,
            budget,
            started: false,
            owned,
            reg_in: Vec::new(),
            reg_out: Vec::new(),
        }
    }

    /// Run every regulate machine's [`surge_schedule`] over its buffered
    /// arrivals, appending emissions; returns when the last re-emitted
    /// real packet lands (`None` without regulate machines). Dummy slots
    /// count against the spec's global padding cap but not the action
    /// budget — a regulate run is already bounded by
    /// `reals + budget_frac * reals` emissions.
    fn run_regulate(&mut self) -> Option<Nanos> {
        let spec = Arc::clone(&self.spec);
        let mut done: Option<Nanos> = None;
        for m in &spec.machines {
            let Action::Regulate {
                dir,
                size,
                rate,
                decay,
                surge_threshold,
                budget_frac,
            } = m.states[0].action
            else {
                continue;
            };
            let incoming: &[Nanos] = match dir {
                Direction::In => &self.reg_in,
                Direction::Out => &self.reg_out,
            };
            let native_budget = (incoming.len() as f64 * budget_frac) as u64;
            let dummy_budget = native_budget.min(spec.max_padding_pkts.saturating_sub(self.padded));
            let (real_done, dummy_pkts) = surge_schedule(
                incoming,
                rate,
                decay,
                surge_threshold,
                dummy_budget,
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

    fn state_of(&self, m: usize) -> Option<&State> {
        let s = self.rts[m].state?;
        Some(&self.spec.machines[m].states[s])
    }

    fn end_machine(&mut self, m: usize) {
        self.rts[m].state = None;
        self.rts[m].pending = None;
    }

    /// Hard stop: the global padding cap or the action budget tripped.
    fn kill_all(&mut self) {
        netsim::tm_counter!("defense.machine.capped").inc();
        for m in 0..self.rts.len() {
            self.end_machine(m);
        }
        self.blocked_until = None;
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
            self.rts[m].state = Some(s);
            self.rts[m].pending = None;
            let st = &self.spec.machines[m].states[s];
            let limit = st
                .limit
                .as_ref()
                .map(|d| d.sample_count(MAX_PADDING_CAP, rng));
            let scales = EntryScales {
                timing: st.action.timing().and_then(|d| d.entry_scale(rng)),
                aux: st.action.aux().and_then(|d| d.entry_scale(rng)),
            };
            self.rts[m].limit = limit;
            self.rts[m].scales = scales;
            if limit != Some(0) {
                self.arm(m, rng);
                return;
            }
            netsim::tm_counter!("defense.machine.limit_hits").inc();
            self.actions += 1;
            if self.actions > self.budget {
                self.kill_all();
                return;
            }
            let st = &self.spec.machines[m].states[s];
            let Some(row) = st
                .transitions
                .iter()
                .find(|t| t.on == MachineEvent::LimitReached)
            else {
                // No row: the machine ends (it can take no further
                // action).
                self.end_machine(m);
                return;
            };
            match pick_target(row, rng) {
                // Stayed by probability. An exhausted limit cannot stay.
                None => {
                    self.end_machine(m);
                    return;
                }
                Some(Target::End) => {
                    netsim::tm_counter!("defense.machine.transitions").inc();
                    self.end_machine(m);
                    return;
                }
                Some(Target::State(j)) => {
                    netsim::tm_counter!("defense.machine.transitions").inc();
                    s = j as usize;
                }
            }
        }
    }

    /// Arm the current state's action (draws its timing).
    fn arm(&mut self, m: usize, rng: &mut SimRng) {
        let Some(st) = self.state_of(m) else { return };
        let scales = self.rts[m].scales;
        let pending = match &st.action {
            Action::Nop | Action::Regulate { .. } => None,
            Action::Pad {
                timing, absolute, ..
            } => {
                let d = timing.sample_time(scales.timing, rng);
                if *absolute {
                    // Offset from the flow start (machines start at the
                    // flow-relative origin); processed immediately.
                    Some(PendingAction {
                        fire: self.now,
                        stamp: d,
                        kind: PendingKind::Pad,
                    })
                } else {
                    let f = self.now + d;
                    Some(PendingAction {
                        fire: f,
                        stamp: f,
                        kind: PendingKind::Pad,
                    })
                }
            }
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
        let Some(st) = self.state_of(m) else { return };
        let cur = self.rts[m].state;
        let Some(row) = st.transitions.iter().find(|t| t.on == ev) else {
            // No row: stay put — except an unhandled exhausted limit,
            // which ends the machine (it can take no further action).
            if ev == MachineEvent::LimitReached {
                self.end_machine(m);
            }
            return;
        };
        let target = pick_target(row, rng);
        match target {
            None => {
                // Stayed by probability. An exhausted limit cannot stay.
                if ev == MachineEvent::LimitReached {
                    self.end_machine(m);
                }
            }
            Some(Target::End) => {
                netsim::tm_counter!("defense.machine.transitions").inc();
                self.end_machine(m);
            }
            Some(Target::State(j)) => {
                netsim::tm_counter!("defense.machine.transitions").inc();
                let j = j as usize;
                if cur == Some(j) && ev != MachineEvent::LimitReached {
                    // Self-transition: continue the schedule without
                    // resampling limit or entry scales.
                    self.arm(m, rng);
                } else {
                    self.enter_state(m, j, rng);
                }
            }
        }
    }

    fn deliver_all(&mut self, ev: MachineEvent, rng: &mut SimRng) {
        for m in 0..self.rts.len() {
            self.deliver(m, ev, rng);
        }
    }

    /// Fire machine `m`'s armed action.
    fn fire(&mut self, m: usize, rng: &mut SimRng) {
        let Some(p) = self.rts[m].pending.take() else {
            return;
        };
        self.actions += 1;
        if self.actions > self.budget {
            self.kill_all();
            return;
        }
        match p.kind {
            PendingKind::Pad => {
                if self.padded >= self.spec.max_padding_pkts {
                    self.kill_all();
                    return;
                }
                let Some(st) = self.state_of(m) else { return };
                let Action::Pad {
                    dir,
                    size,
                    absolute,
                    ..
                } = &st.action
                else {
                    return;
                };
                // Blocking defers relative padding to the window's end;
                // absolute schedules are zero-delay by construction.
                if !absolute {
                    if let Some(bu) = self.blocked_until {
                        if p.fire < bu {
                            self.rts[m].pending = Some(PendingAction {
                                fire: bu,
                                stamp: bu,
                                kind: PendingKind::Pad,
                            });
                            return;
                        }
                    }
                }
                let dir = *dir;
                let sz = size.sample_size(self.rts[m].scales.aux, rng);
                self.out.push(Emit {
                    pkt: FlowPkt {
                        ts: p.stamp,
                        dir,
                        size: sz,
                    },
                    dummy: true,
                });
                self.padded += 1;
                netsim::tm_counter!("defense.machine.pad_pkts").inc();
                netsim::tm_counter!("defense.machine.pad_bytes").add(u64::from(sz));
                if let Some(l) = &mut self.rts[m].limit {
                    *l -= 1;
                    if *l == 0 {
                        // An exhausted limit pre-empts PaddingSent so a
                        // self-looping pad state cannot overdraw.
                        self.limit_reached(m, rng);
                        return;
                    }
                }
                self.deliver(m, MachineEvent::PaddingSent, rng);
            }
            PendingKind::Timer => {
                self.deliver(m, MachineEvent::TimerExpired, rng);
            }
            PendingKind::Block => {
                let Some(st) = self.state_of(m) else { return };
                let Action::Block { duration, .. } = &st.action else {
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

    fn ensure_started(&mut self, rng: &mut SimRng) {
        if self.started {
            return;
        }
        self.started = true;
        for m in 0..self.rts.len() {
            self.enter_state(m, 0, rng);
        }
    }
}

impl PadderCore for MachineCore {
    fn owned_dirs(&self) -> &'static [Direction] {
        self.owned
    }

    fn on_data(&mut self, pkt: FlowPkt, rng: &mut SimRng) {
        self.ensure_started(rng);
        if self.owned.contains(&pkt.dir) {
            match pkt.dir {
                Direction::In => self.reg_in.push(pkt.ts),
                Direction::Out => self.reg_out.push(pkt.ts),
            }
        }
        self.pump(Some(pkt.ts), rng);
        self.now = self.now.max(pkt.ts);
        let ev = match pkt.dir {
            Direction::Out => MachineEvent::PacketSent,
            Direction::In => MachineEvent::PacketReceived,
        };
        self.deliver_all(ev, rng);
    }

    fn on_close(&mut self, rng: &mut SimRng) -> CloseOut {
        self.ensure_started(rng);
        self.pump(None, rng);
        let real_done = self.run_regulate();
        CloseOut {
            emits: std::mem::take(&mut self.out),
            real_done,
        }
    }
}

// ---------------------------------------------------------------------
// Defense adapter
// ---------------------------------------------------------------------

/// A [`MachineSpec`] as a placement-agnostic [`Defense`]. Validation
/// happens once at construction; an invalid spec builds pass-through
/// flows (each counted in `stob.registry.degraded` and
/// `defense.machine.degraded`) — malformed data must never panic or
/// shape wrongly.
pub struct MachineDefense {
    spec: Arc<MachineSpec>,
    valid: bool,
}

impl MachineDefense {
    /// Wrap a spec, recording its validity.
    pub fn new(spec: MachineSpec) -> Self {
        let valid = spec.validate().is_ok();
        MachineDefense {
            spec: Arc::new(spec),
            valid,
        }
    }

    /// The wrapped spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Whether the spec passed validation at construction.
    pub fn is_valid(&self) -> bool {
        self.valid
    }
}

impl Defense for MachineDefense {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
        if !self.valid {
            netsim::tm_counter!("defense.machine.degraded").inc();
            netsim::tm_counter!("stob.registry.degraded").inc();
            return FlowDefense::passthrough(&self.spec.name);
        }
        let policy = self
            .spec
            .policy
            .clone()
            .unwrap_or_else(|| ObfuscationPolicy::passthrough(&self.spec.name));
        let padding: Option<Box<dyn PadderCore>> = if self.spec.machines.is_empty() {
            None
        } else {
            Some(Box::new(MachineCore::new(Arc::clone(&self.spec))))
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

        let mut s = ok;
        s.machines[0].states[0].limit = Some(DistSpec::Rayleigh {
            w_min: 5.0,
            w_max: 1.0,
        });
        assert!(s.validate().is_err(), "inverted rayleigh window");
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
