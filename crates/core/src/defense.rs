//! The placement-agnostic defense layer: one spec, one shaping kernel,
//! two deciders.
//!
//! The paper's thesis (§2.3, §4) is that the *same* defense behaves
//! differently depending on whether it runs at the application layer or
//! inside the network stack. This module makes that axis a first-class
//! parameter instead of two disjoint code paths:
//!
//! - a [`Defense`] is a pure decision spec: given per-flow context and a
//!   deterministic RNG it `build`s a [`FlowDefense`] — an
//!   [`ObfuscationPolicy`] (size/delay/TSO rules) plus an optional
//!   [`PadderCore`] (dummy-packet schedule);
//! - the §3 size/delay semantics are written once, in `FlowShaper`: a
//!   per-flow streaming kernel that owns the loop (direction scope,
//!   re-fragmenting, shift accumulation) and asks a two-method decider
//!   for each piece's size and extra delay;
//! - [`emulate_flow`] is the **app-layer backend**: the kernel folded
//!   over a recorded packet sequence with a decider that interprets the
//!   policy directly — the `defenses` crate's trace-level emulation;
//! - [`enforce_flow`] is the **stack backend**: the same fold with a
//!   decider that lowers the policy through
//!   [`crate::strategies::build_shaper`] into a live
//!   [`Shaper`](stack::Shaper) (inside the §4.2
//!   [`SafetyCap`](crate::safety::SafetyCap) and the policy's guards)
//!   behind a replay [`EgressPipeline`]; [`crate::fleet`] drives that
//!   kernel and decider one generated packet at a time.
//!
//! Padding schedules are executed identically by both backends: §4.2
//! scopes the stack's authority to sizing and departure timing of real
//! data, so dummy-packet injection remains an application-layer concern
//! at either placement. A defense that only pads (FRONT, WTF-PAD) is
//! therefore placement-invariant by construction, while size/delay
//! defenses inherit the stack's pacing clock, safety clamp, and guard
//! semantics when placed in-stack — exactly the difference the paper
//! argues about.

use crate::policy::{sample_delay, DelaySpec, ObfuscationPolicy, SizeSpec};
use netsim::json::{Json, JsonError};
use netsim::{Direction, FlowId, Nanos, SimRng};
use stack::egress::{EgressLabels, EgressPipeline};
use stack::shaper::BoxShaper;
use stack::ShapeCtx;

/// Where a defense is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Application layer: trace emulation via [`emulate_flow`].
    App,
    /// Inside the stack: shaper enforcement via [`enforce_flow`].
    Stack,
}

/// Parses [`Placement::name`], case-insensitively.
impl std::str::FromStr for Placement {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        Placement::ALL
            .into_iter()
            .find(|p| s.eq_ignore_ascii_case(p.name()))
            .ok_or(())
    }
}

impl Placement {
    /// Both placements, in canonical (app, stack) order.
    pub const ALL: [Placement; 2] = [Placement::App, Placement::Stack];

    /// Short lowercase label used in benchmark axes and JSON dumps.
    pub fn name(self) -> &'static str {
        match self {
            Placement::App => "app",
            Placement::Stack => "stack",
        }
    }
}

/// One packet of a flow as both backends — and the eavesdropper — see
/// it: a timestamp relative to the flow start, a direction, and a wire
/// size in bytes. The `traces` crate re-exports this as `TracePacket`,
/// so a recorded trace's packets are handed to the kernel as they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPkt {
    /// Time since the first packet of the flow.
    pub ts: Nanos,
    pub dir: Direction,
    /// On-wire bytes.
    pub size: u32,
}

impl FlowPkt {
    pub fn new(ts: Nanos, dir: Direction, size: u32) -> Self {
        FlowPkt { ts, dir, size }
    }

    /// Compact JSON form `[ts_nanos, "i"|"o", size]`.
    pub fn to_json(&self) -> Json {
        Json::Arr(vec![
            Json::from(self.ts.0),
            Json::from(self.dir.as_str()),
            Json::from(self.size),
        ])
    }

    /// Parse the [`FlowPkt::to_json`] form back.
    pub fn from_json(v: &Json) -> Result<FlowPkt, JsonError> {
        let bad = |msg: &str| JsonError {
            offset: 0,
            message: msg.to_string(),
        };
        let parts = v.as_arr().ok_or_else(|| bad("packet is not an array"))?;
        if parts.len() != 3 {
            return Err(bad("packet array is not [ts, dir, size]"));
        }
        let ts = parts[0].as_u64().ok_or_else(|| bad("packet ts"))?;
        let dir = parts[1]
            .as_str()
            .and_then(Direction::from_str_code)
            .ok_or_else(|| bad("packet dir"))?;
        let size = parts[2]
            .as_u32()
            .ok_or_else(|| bad("packet size is not a u32"))?;
        Ok(FlowPkt::new(Nanos(ts), dir, size))
    }

    /// Signed size: positive outgoing, negative incoming (the WF
    /// literature's convention).
    pub fn signed_size(&self) -> i64 {
        self.dir.sign() as i64 * self.size as i64
    }
}

/// A defended flow: the shaped packet sequence plus the padding and
/// latency accounting the overhead metrics need.
#[derive(Debug, Clone)]
pub struct DefendedFlow {
    /// The shaped packet sequence, normalized (time-sorted, first packet
    /// at t = 0).
    pub pkts: Vec<FlowPkt>,
    /// Dummy packets injected by the padding schedule.
    pub dummy_pkts: usize,
    /// Dummy bytes injected by the padding schedule.
    pub dummy_bytes: u64,
    /// When the last *real* byte was delivered (for latency overhead).
    pub real_done: Nanos,
}

/// One packet emitted by a [`PadderCore`] when the flow closes.
#[derive(Debug, Clone, Copy)]
pub struct Emit {
    pub pkt: FlowPkt,
    /// True for injected dummies, false for re-emitted real packets.
    pub dummy: bool,
}

/// Everything a [`PadderCore`] reports at flow close.
#[derive(Debug, Clone, Default)]
pub struct CloseOut {
    /// Packets to merge into the flow (re-emitted reals for owned
    /// directions, plus dummies).
    pub emits: Vec<Emit>,
    /// When the last real byte was delivered, if the core re-times real
    /// data; `None` means "the policy stream's duration" (pure padding
    /// never moves real packets).
    pub real_done: Option<Nanos>,
}

/// A defense's padding/re-timing schedule, fed the flow's packets in
/// arrival order. Cores typically buffer what they need in
/// [`on_data`](Self::on_data) and produce their schedule in
/// [`on_close`](Self::on_close), once the flow's shape is known.
pub trait PadderCore {
    /// Directions whose real packets this core re-emits wholesale (via
    /// [`CloseOut::emits`]); the backend drops the original packets of
    /// these directions and keeps everything else as-is. Empty for pure
    /// padding defenses.
    fn owned_dirs(&self) -> &'static [Direction] {
        &[]
    }

    /// Observe one packet of the post-policy stream.
    fn on_data(&mut self, _pkt: FlowPkt, _rng: &mut SimRng) {}

    /// The flow is complete: produce the padding schedule.
    fn on_close(&mut self, rng: &mut SimRng) -> CloseOut;
}

/// Read-only view of a trace bank for defenses that shape one flow to
/// look like another (Surakav). Lives here (rather than depending on the
/// `traces` crate) so the core stays trace-format-agnostic.
pub trait ReferenceBank: Sync {
    /// Number of candidate reference flows.
    fn len(&self) -> usize;
    /// True when the bank holds no candidates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Class label of candidate `i` (defenses avoid mimicking the
    /// flow's own class).
    fn label(&self, i: usize) -> usize;
    /// How many candidates carry `label`. A bank that knows its label
    /// histogram answers without the walk.
    fn count_label(&self, label: usize) -> usize {
        (0..self.len()).filter(|&i| self.label(i) == label).count()
    }
    /// Inbound packet times of candidate `i`.
    fn in_times(&self, i: usize) -> Vec<Nanos>;
}

/// Per-flow context handed to [`Defense::build`].
#[derive(Clone, Copy, Default)]
pub struct DefenseCtx<'a> {
    /// Class label of the flow being defended (0 when unknown).
    pub label: usize,
    /// Reference bank for mimicry defenses, when available.
    pub bank: Option<&'a dyn ReferenceBank>,
}

/// What a [`Defense`] decides for one flow: the policy rules both
/// backends interpret, plus the optional padding schedule.
pub struct FlowDefense {
    /// Size/delay/TSO rules (plus first-N and slow-start scoping).
    pub policy: ObfuscationPolicy,
    /// Dummy-packet schedule, if the defense pads.
    pub padding: Option<Box<dyn PadderCore>>,
    /// Restrict the policy's size/delay stages to one direction
    /// (`None` = both). The §3 countermeasures act server-side only.
    pub apply_dir: Option<Direction>,
}

impl FlowDefense {
    /// A defense that changes nothing.
    pub fn passthrough(name: &str) -> Self {
        Self::from_policy(ObfuscationPolicy::passthrough(name))
    }

    /// Policy rules only, applied to both directions.
    pub fn from_policy(policy: ObfuscationPolicy) -> Self {
        FlowDefense {
            policy,
            padding: None,
            apply_dir: None,
        }
    }
}

/// A website-fingerprinting defense as a pure decision spec. Implemented
/// once per defense; enforced by either backend.
pub trait Defense: Send + Sync {
    /// Stable identifier (used in registry bindings and benchmark axes).
    fn name(&self) -> &str;

    /// Decide this flow's defense. May draw from `rng` (reference
    /// picks, budgets); both backends call it exactly once per flow
    /// with the same RNG stream, so placement never changes the draws.
    fn build(&self, ctx: &DefenseCtx, rng: &mut SimRng) -> FlowDefense;

    /// The plain policy this defense *is*, when it is nothing more: the
    /// registry's policy view and its JSON export read entries through
    /// this. `None` for every defense that decides per flow.
    fn as_policy(&self) -> Option<&ObfuscationPolicy> {
        None
    }
}

/// A bare policy is the degenerate defense: no padding schedule, rules
/// applied to both directions.
impl Defense for ObfuscationPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_policy(&self) -> Option<&ObfuscationPolicy> {
        Some(self)
    }

    fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
        FlowDefense::from_policy(self.clone())
    }
}

/// Normalize a packet sequence exactly as `Trace::normalize` does:
/// stable time sort, then rebase so the first packet sits at t = 0.
pub fn normalize_flow(pkts: &mut [FlowPkt]) {
    pkts.sort_by_key(|p| p.ts);
    if let Some(first) = pkts.first() {
        let t0 = first.ts;
        if !t0.is_zero() {
            for p in pkts.iter_mut() {
                p.ts -= t0;
            }
        }
    }
}

/// Duration of a time-sorted packet sequence (`Trace::duration`).
pub fn flow_duration(pkts: &[FlowPkt]) -> Nanos {
    match (pkts.first(), pkts.last()) {
        (Some(a), Some(b)) => b.ts - a.ts,
        _ => Nanos::ZERO,
    }
}

// ---------------------------------------------------------------------
// The shaping kernel
// ---------------------------------------------------------------------

/// The two decisions a placement makes for [`FlowShaper::step`]. First-N
/// scoping is the decider's business: the app decider tests the index it
/// is handed, the stack decider's `FirstNGuard` reads it from the shape
/// context.
pub(crate) trait Decider {
    /// Wire size of piece number `piece` of recorded packet `orig_idx`,
    /// of which `remaining` bytes are still unsent; in `1..=remaining`.
    fn piece_size(&mut self, orig_idx: u64, now: Nanos, piece: u32, remaining: u32) -> u32;

    /// Extra departure delay of emitted packet `emit_idx`, due out at
    /// `intended`, `iat` after its predecessor's pre-shift timestamp.
    fn extra_delay(&mut self, emit_idx: u64, intended: Nanos, iat: Nanos) -> Nanos;
}

/// The per-flow shaping kernel (see the module docs): owns the shaping
/// state and the loop, generic over the placement's [`Decider`].
pub(crate) struct FlowShaper<D> {
    decider: D,
    size_active: bool,
    delay_active: bool,
    /// Restrict both stages to one direction. Tested in the loop, not
    /// the decider: the stack's guards are direction-blind.
    apply_dir: Option<Direction>,
    /// Accumulated departure shift: stretching one inter-arrival time
    /// moves everything after it.
    shift: Nanos,
    /// Pieces emitted so far — the index the delay stage is keyed on.
    emit_idx: u64,
    /// Pre-shift timestamp of the previous piece.
    prev_orig: Nanos,
}

impl<D: Decider> FlowShaper<D> {
    /// Validate the built policy and scope the kernel to it; an
    /// inconsistent policy degrades the flow to pass-through rules
    /// (counted) rather than shaping wrongly.
    fn new(fd: &FlowDefense, decider: D) -> Self {
        let valid = fd.policy.validate().is_ok();
        if !valid {
            netsim::tm_counter!("stob.registry.degraded").inc();
        }
        FlowShaper {
            decider,
            size_active: valid && !matches!(fd.policy.size, SizeSpec::Unchanged),
            delay_active: valid && !matches!(fd.policy.delay, DelaySpec::Unchanged),
            apply_dir: fd.apply_dir,
            shift: Nanos::ZERO,
            emit_idx: 0,
            prev_orig: Nanos::ZERO,
        }
    }

    fn active(&self) -> bool {
        self.size_active || self.delay_active
    }

    /// The shift accumulated so far: a streaming driver schedules the
    /// next recorded packet at its own timestamp plus this.
    pub(crate) fn shift(&self) -> Nanos {
        self.shift
    }

    /// Shape recorded packet `orig_idx`. The size stage re-fragments it
    /// until its bytes are spent, keyed on the recorded index; every
    /// piece keeps its parent's timestamp. The delay stage then runs per
    /// piece. `sink` receives each shaped piece together with its
    /// intended (pre-delay) departure time.
    pub(crate) fn step(
        &mut self,
        pkt: FlowPkt,
        orig_idx: u64,
        mut sink: impl FnMut(FlowPkt, Nanos),
    ) {
        let scoped = self.apply_dir.is_none_or(|d| d == pkt.dir);
        if !(self.size_active && scoped) {
            return self.emit(pkt, scoped, &mut sink);
        }
        let mut remaining = pkt.size;
        let mut piece = 0u32;
        while remaining > 0 {
            let size = self.decider.piece_size(orig_idx, pkt.ts, piece, remaining);
            self.emit(FlowPkt { size, ..pkt }, scoped, &mut sink);
            remaining -= size;
            piece += 1;
        }
    }

    /// The delay stage, the §3 "stretch inter-arrival times" rule: the
    /// piece's inter-arrival time, measured against the *pre-shift*
    /// schedule, is stretched by the decider's answer, and the stretch
    /// accumulates. Keyed on the emitted index; emitted packet 0 is
    /// never delayed.
    fn emit(&mut self, piece: FlowPkt, scoped: bool, sink: &mut impl FnMut(FlowPkt, Nanos)) {
        let iat = piece.ts.saturating_sub(self.prev_orig);
        let intended = piece.ts + self.shift;
        let mut out = intended;
        if self.delay_active && scoped && self.emit_idx > 0 {
            let extra = self.decider.extra_delay(self.emit_idx, intended, iat);
            self.shift += extra;
            out += extra;
        }
        self.prev_orig = piece.ts;
        self.emit_idx += 1;
        sink(FlowPkt { ts: out, ..piece }, intended);
    }

    /// Batch harness: fold [`step`](Self::step) over a recorded flow and
    /// normalize the result once.
    fn shape_all(mut self, input: &[FlowPkt]) -> Vec<FlowPkt> {
        if !self.active() {
            return input.to_vec();
        }
        let mut out = Vec::with_capacity(input.len() + 8);
        for (i, pkt) in input.iter().enumerate() {
            self.step(*pkt, i as u64, |shaped, _| out.push(shaped));
        }
        normalize_flow(&mut out);
        out
    }
}

/// What the padding close-out added to a flow.
#[derive(Default)]
pub(crate) struct Closed {
    pub dummy_pkts: u64,
    pub dummy_bytes: u64,
    /// [`CloseOut::real_done`].
    pub real_done: Option<Nanos>,
}

/// The close half every harness shares: run the core's schedule, keep
/// the packets of `held` whose direction the core does not own (it
/// re-emits those wholesale), merge its emissions, and count the
/// dummies. `sink` receives the flow's final packets, kept ones first.
pub(crate) fn close_padding(
    core: &mut dyn PadderCore,
    held: &[FlowPkt],
    rng: &mut SimRng,
    mut sink: impl FnMut(FlowPkt),
) -> Closed {
    let owned = core.owned_dirs();
    let close = core.on_close(rng);
    held.iter()
        .filter(|p| !owned.contains(&p.dir))
        .for_each(|p| sink(*p));
    let mut closed = Closed {
        real_done: close.real_done,
        ..Closed::default()
    };
    for e in &close.emits {
        if e.dummy {
            closed.dummy_pkts += 1;
            closed.dummy_bytes += u64::from(e.pkt.size);
        }
        sink(e.pkt);
    }
    closed
}

/// Batch harness, second half: run the padding schedule (if any) over
/// the complete shaped stream and assemble the final flow. Padding is
/// application-layer work at either placement (§4.2), so both backends
/// end here.
fn pad_and_close(
    padding: Option<Box<dyn PadderCore>>,
    mut pkts: Vec<FlowPkt>,
    rng: &mut SimRng,
    pad_counter: &'static str,
) -> DefendedFlow {
    let shaped_done = flow_duration(&pkts);
    let mut closed = Closed::default();
    if let Some(mut core) = padding {
        for pkt in &pkts {
            core.on_data(*pkt, rng);
        }
        let stream = std::mem::take(&mut pkts);
        pkts.reserve(stream.len());
        closed = close_padding(&mut *core, &stream, rng, |p| pkts.push(p));
        normalize_flow(&mut pkts);
        netsim::telemetry::counter(pad_counter).add(closed.dummy_pkts);
    }
    DefendedFlow {
        pkts,
        dummy_pkts: closed.dummy_pkts as usize,
        dummy_bytes: closed.dummy_bytes,
        real_done: closed.real_done.unwrap_or(shaped_done),
    }
}

// ---------------------------------------------------------------------
// App-layer backend
// ---------------------------------------------------------------------

/// Minimum piece size the generic re-chunking will emit; splits below
/// this stop conveying size information and only inflate packet counts.
const MIN_PIECE: u32 = 64;

/// Conventional Ethernet wire MTU the generic chunkers aim at.
const MTU_WIRE: u32 = 1514;

/// The app placement's [`Decider`]: the policy's rules interpreted
/// directly, drawing from the flow's own RNG. `SplitAbove` is the exact
/// §3 emulation (two halves); the other size specs re-chunk greedily
/// toward the spec's target — a best-effort trace-level reading of
/// rules that are exact in-stack.
pub(crate) struct AppDecider<'a> {
    policy: &'a ObfuscationPolicy,
    rng: &'a mut SimRng,
    /// Position in the `IncrementalReduce` walk.
    inc_idx: u32,
}

/// The first-N window of §3's censorship setting (0 = whole flow).
fn in_window(first_n: u64, index: u64) -> bool {
    first_n == 0 || index < first_n
}

impl Decider for AppDecider<'_> {
    fn piece_size(&mut self, orig_idx: u64, _now: Nanos, piece: u32, remaining: u32) -> u32 {
        if !in_window(self.policy.first_n_pkts, orig_idx) {
            return remaining;
        }
        let target = match &self.policy.size {
            SizeSpec::Unchanged => return remaining,
            SizeSpec::SplitAbove { threshold } => {
                // Ceil half, then the rest; the second half is never
                // re-split.
                if piece > 0 || remaining <= *threshold {
                    return remaining;
                }
                netsim::tm_counter!("defense.app.split_pkts").inc();
                return remaining / 2 + remaining % 2;
            }
            SizeSpec::Fixed { ip_size } => *ip_size,
            SizeSpec::IncrementalReduce { step, steps } => {
                // Mirror the in-stack walk: MTU, MTU-step, ...,
                // MTU-steps*step, then reset.
                let reduction = self.inc_idx * step;
                self.inc_idx += 1;
                if self.inc_idx > *steps {
                    self.inc_idx = 0;
                }
                MTU_WIRE.saturating_sub(reduction)
            }
            SizeSpec::FromHistogram(h) => {
                h.sample(self.rng.next_f64(), self.rng.next_f64()).max(1.0) as u32
            }
        };
        if piece > 0 {
            netsim::tm_counter!("defense.app.resized_pkts").inc();
        }
        remaining.min(target.max(MIN_PIECE))
    }

    fn extra_delay(&mut self, emit_idx: u64, _intended: Nanos, iat: Nanos) -> Nanos {
        if !in_window(self.policy.first_n_pkts, emit_idx) {
            return Nanos::ZERO;
        }
        netsim::tm_counter!("defense.app.delayed_pkts").inc();
        sample_delay(&self.policy.delay, iat, self.rng)
    }
}

impl<'a> FlowShaper<AppDecider<'a>> {
    /// The kernel at app placement, over the flow's own RNG.
    pub(crate) fn app(fd: &'a FlowDefense, rng: &'a mut SimRng) -> Self {
        let decider = AppDecider {
            policy: &fd.policy,
            rng,
            inc_idx: 0,
        };
        Self::new(fd, decider)
    }
}

/// **App-layer backend**: interpret a defense directly over a recorded
/// packet sequence — the trace emulation the `defenses` crate performs,
/// driven by the placement-agnostic spec. For the §3 countermeasures
/// this reproduces `defenses::emulate::{split,delay}` byte-for-byte.
pub fn emulate_flow(
    defense: &dyn Defense,
    input: &[FlowPkt],
    ctx: &DefenseCtx,
    rng: &mut SimRng,
) -> DefendedFlow {
    netsim::tm_counter!("defense.app.flows").inc();
    let fd = defense.build(ctx, rng);
    let stream = FlowShaper::app(&fd, rng).shape_all(input);
    pad_and_close(fd.padding, stream, rng, "defense.app.pad_pkts")
}

// ---------------------------------------------------------------------
// Stack backend
// ---------------------------------------------------------------------

/// Stack parameters for the replay enforcement backend.
#[derive(Debug, Clone, Copy)]
pub struct StackParams {
    /// Seed feeding the live strategy RNGs (as in `build_shaper`).
    pub seed: u64,
    /// Flow salt decorrelating flows that share one policy.
    pub flow_salt: u64,
    /// Wire MTU: the largest packet the replay pipeline will emit.
    pub mtu_wire: u32,
    /// MSS used to recover a per-packet pacing rate from recorded
    /// inter-arrival times (`DelayJitter` keys its nominal gap on
    /// `2 * mss` serialized at the pacing rate).
    pub mss: u32,
}

impl Default for StackParams {
    fn default() -> Self {
        StackParams {
            seed: 0,
            flow_salt: 0,
            mtu_wire: 1514,
            mss: 1448,
        }
    }
}

impl StackParams {
    /// Params with an explicit seed and the conventional Ethernet sizes.
    pub fn with_seed(seed: u64) -> Self {
        StackParams {
            seed,
            ..StackParams::default()
        }
    }
}

/// The synthetic pacing rate under which one recorded inter-arrival
/// time serializes exactly `2 * mss` bytes — the inverse of
/// `DelayJitter`'s nominal-gap rule, so the in-stack jitter stretches
/// recorded gaps by the same fractions the app decider draws.
fn rate_for_iat(mss: u32, iat: Nanos) -> u64 {
    if iat.is_zero() {
        // Zero gap: infinite rate. `u64::MAX - 1` keeps DelayJitter on
        // its `for_bytes_at_rate` path (nominal rounds to zero) while
        // still consuming its draw, mirroring the app decider exactly.
        return u64::MAX - 1;
    }
    let x = u64::from(mss).max(1) * 2 * 8 * 1_000_000_000;
    (x / iat.0).max(1)
}

/// The stack placement's [`Decider`]: the policy lowered into a live
/// shaper (strategy → §4.2 safety cap → guards) behind a replay
/// [`EgressPipeline`], so sizes are the pipeline's packet-size decision
/// and departures pass its pacing clock and the shaper's extra delay.
pub(crate) struct StackDecider {
    pipe: EgressPipeline,
    mtu_wire: u32,
    mss: u32,
}

impl StackDecider {
    /// Shape context for one replayed packet. Replay assumes steady
    /// state (`in_slow_start = false`): a recorded trace carries no live
    /// CCA phase, so slow-start-respecting policies shape the whole flow.
    fn ctx(&self, pkts_sent: u64, now: Nanos, rate: Option<u64>) -> ShapeCtx {
        ShapeCtx {
            flow: FlowId(1),
            now,
            cwnd: u64::MAX,
            pacing_rate_bps: rate,
            in_slow_start: false,
            bytes_sent: 0,
            pkts_sent,
            segs_sent: 0,
            mtu_ip: self.mtu_wire,
            mss: self.mss,
        }
    }
}

impl Decider for StackDecider {
    fn piece_size(&mut self, orig_idx: u64, now: Nanos, piece: u32, remaining: u32) -> u32 {
        let proposed = remaining.min(self.mtu_wire);
        let sctx = self.ctx(orig_idx, now, None);
        self.pipe
            .packet_ip_size(&sctx, piece, proposed, 1, proposed)
    }

    fn extra_delay(&mut self, emit_idx: u64, intended: Nanos, iat: Nanos) -> Nanos {
        let rate = rate_for_iat(self.mss, iat);
        let sctx = self.ctx(emit_idx, intended, Some(rate));
        self.pipe
            .pace_replay(&sctx, intended)
            .saturating_sub(intended)
    }
}

impl FlowShaper<StackDecider> {
    /// The kernel at stack placement, deciding through `live()` — the
    /// policy as [`crate::sockopt::assemble_policy_shaper`] lowers it. A
    /// degraded or inert policy never asks for it and leaves the pipeline
    /// on its pass-through shaper, which is never consulted.
    pub(crate) fn stack(
        fd: &FlowDefense,
        labels: EgressLabels,
        params: &StackParams,
        live: impl FnOnce() -> BoxShaper,
    ) -> Self {
        let decider = StackDecider {
            pipe: EgressPipeline::new(labels),
            mtu_wire: params.mtu_wire,
            mss: params.mss,
        };
        let mut shaper = Self::new(fd, decider);
        if shaper.active() {
            shaper.decider.pipe.set_shaper(live());
        }
        shaper
    }
}

/// **Stack backend**: lower the defense's policy into a live shaper (via
/// [`crate::sockopt::assemble_policy_shaper`]) and replay the recorded
/// flow through the same kernel with the [`EgressPipeline`] deciding;
/// the padding schedule runs exactly as in the app backend.
pub fn enforce_flow(
    defense: &dyn Defense,
    input: &[FlowPkt],
    ctx: &DefenseCtx,
    rng: &mut SimRng,
    params: &StackParams,
) -> DefendedFlow {
    netsim::tm_counter!("defense.stack.flows").inc();
    let fd = defense.build(ctx, rng);
    let live =
        || crate::sockopt::assemble_policy_shaper(&fd.policy, params.seed, params.flow_salt).0;
    let stream = FlowShaper::stack(&fd, EgressLabels::REPLAY, params, live).shape_all(input);
    pad_and_close(fd.padding, stream, rng, "defense.stack.pad_pkts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::TsoSpec;

    fn mk(ts_us: u64, dir: Direction, size: u32) -> FlowPkt {
        FlowPkt {
            ts: Nanos::from_micros(ts_us),
            dir,
            size,
        }
    }

    fn sample_flow() -> Vec<FlowPkt> {
        vec![
            mk(0, Direction::Out, 200),
            mk(1_000, Direction::In, 1514),
            mk(2_500, Direction::In, 900),
            mk(4_000, Direction::Out, 100),
            mk(9_000, Direction::In, 1400),
        ]
    }

    /// A direction-scoped §3 policy defense, as the `defenses` crate
    /// expresses the split/delay countermeasures.
    struct S3 {
        policy: ObfuscationPolicy,
        dir: Option<Direction>,
    }

    impl Defense for S3 {
        fn name(&self) -> &str {
            &self.policy.name
        }
        fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
            FlowDefense {
                policy: self.policy.clone(),
                padding: None,
                apply_dir: self.dir,
            }
        }
    }

    fn split_policy(threshold: u32, first_n: u64) -> ObfuscationPolicy {
        ObfuscationPolicy {
            name: "split".into(),
            size: SizeSpec::SplitAbove { threshold },
            delay: DelaySpec::Unchanged,
            tso: TsoSpec::Unchanged,
            first_n_pkts: first_n,
            respect_slow_start: false,
        }
    }

    fn delay_policy(lo: Nanos, hi: Nanos, first_n: u64) -> ObfuscationPolicy {
        ObfuscationPolicy {
            name: "delay".into(),
            size: SizeSpec::Unchanged,
            delay: DelaySpec::UniformAbsolute { lo, hi },
            tso: TsoSpec::Unchanged,
            first_n_pkts: first_n,
            respect_slow_start: false,
        }
    }

    #[test]
    fn passthrough_defense_is_identity_at_both_placements() {
        let input = sample_flow();
        let d = ObfuscationPolicy::passthrough("none");
        let mut rng = SimRng::new(5);
        let out = emulate_flow(&d, &input, &DefenseCtx::default(), &mut rng);
        assert_eq!(out.pkts, input);
        assert_eq!(out.dummy_pkts, 0);
        assert_eq!(out.real_done, flow_duration(&input));

        let mut rng = SimRng::new(5);
        let out = enforce_flow(
            &d,
            &input,
            &DefenseCtx::default(),
            &mut rng,
            &StackParams::with_seed(5),
        );
        assert_eq!(out.pkts, input);
        assert_eq!(out.dummy_pkts, 0);
    }

    #[test]
    fn app_split_halves_scoped_direction_only() {
        let input = sample_flow();
        let d = S3 {
            policy: split_policy(1200, 0),
            dir: Some(Direction::In),
        };
        let mut rng = SimRng::new(1);
        let out = emulate_flow(&d, &input, &DefenseCtx::default(), &mut rng);
        // The 1514 and 1400 inbound packets split; outbound untouched.
        let sizes: Vec<u32> = out.pkts.iter().map(|p| p.size).collect();
        assert_eq!(sizes, vec![200, 757, 757, 900, 100, 700, 700]);
        assert!(out.pkts.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn app_delay_shift_accumulates_deterministically() {
        let input = sample_flow();
        let fixed = Nanos::from_micros(100);
        let d = S3 {
            policy: delay_policy(fixed, fixed, 0),
            dir: None,
        };
        let mut rng = SimRng::new(1);
        let out = emulate_flow(&d, &input, &DefenseCtx::default(), &mut rng);
        // Packet 0 is never delayed; packet i (i >= 1) shifts by i * 100us.
        for (i, (got, orig)) in out.pkts.iter().zip(&input).enumerate() {
            let want = orig.ts + fixed * (i as u64);
            assert_eq!(got.ts, want, "packet {i}");
            assert_eq!(got.size, orig.size);
        }
    }

    #[test]
    fn first_n_scopes_both_backends_identically() {
        let input = sample_flow();
        let d = S3 {
            policy: split_policy(1200, 2),
            dir: None,
        };
        let mut rng = SimRng::new(3);
        let app = emulate_flow(&d, &input, &DefenseCtx::default(), &mut rng);
        // Only packet index 1 (the 1514) is within the first-2 window.
        let sizes: Vec<u32> = app.pkts.iter().map(|p| p.size).collect();
        assert_eq!(sizes, vec![200, 757, 757, 900, 100, 1400]);

        let mut rng = SimRng::new(3);
        let stack = enforce_flow(
            &d,
            &input,
            &DefenseCtx::default(),
            &mut rng,
            &StackParams::with_seed(3),
        );
        assert_eq!(app.pkts, stack.pkts);
    }

    #[test]
    fn stack_split_matches_app_split_exactly() {
        let input = sample_flow();
        let d = S3 {
            policy: split_policy(1200, 0),
            dir: Some(Direction::In),
        };
        let mut rng = SimRng::new(7);
        let app = emulate_flow(&d, &input, &DefenseCtx::default(), &mut rng);
        let mut rng = SimRng::new(7);
        let stack = enforce_flow(
            &d,
            &input,
            &DefenseCtx::default(),
            &mut rng,
            &StackParams::with_seed(7),
        );
        assert_eq!(app.pkts, stack.pkts);
    }

    #[test]
    fn stack_absolute_delay_matches_app_exactly() {
        // UniformAbsolute draws are nominal-independent, so the stack
        // backend (DelayJitter seeded seed ^ 0) replays the app pass's
        // RNG stream bit-for-bit.
        let input = sample_flow();
        let d = S3 {
            policy: delay_policy(Nanos::from_micros(10), Nanos::from_micros(500), 0),
            dir: Some(Direction::In),
        };
        let seed = 0xD1CE;
        let mut rng = SimRng::new(seed);
        let app = emulate_flow(&d, &input, &DefenseCtx::default(), &mut rng);
        let mut rng = SimRng::new(seed);
        let stack = enforce_flow(
            &d,
            &input,
            &DefenseCtx::default(),
            &mut rng,
            &StackParams::with_seed(seed),
        );
        assert_eq!(app.pkts, stack.pkts);
        // And the delays actually moved something.
        assert_ne!(app.pkts, input);
    }

    #[test]
    fn invalid_policy_degrades_to_passthrough_and_counts() {
        let input = sample_flow();
        let d = S3 {
            policy: split_policy(0, 0), // threshold 0 fails validate()
            dir: None,
        };
        let before = netsim::tm_counter!("stob.registry.degraded").get();
        let mut rng = SimRng::new(9);
        let app = emulate_flow(&d, &input, &DefenseCtx::default(), &mut rng);
        let mut rng = SimRng::new(9);
        let stack = enforce_flow(
            &d,
            &input,
            &DefenseCtx::default(),
            &mut rng,
            &StackParams::with_seed(9),
        );
        assert_eq!(app.pkts, input);
        assert_eq!(stack.pkts, input);
        assert_eq!(
            netsim::tm_counter!("stob.registry.degraded").get(),
            before + 2
        );
    }

    /// Injects one dummy per observed inbound packet, half a window late.
    struct EchoPadder {
        scheduled: Vec<Nanos>,
    }

    impl PadderCore for EchoPadder {
        fn on_data(&mut self, pkt: FlowPkt, rng: &mut SimRng) {
            if pkt.dir == Direction::In {
                let jitter = Nanos::from_micros(rng.range_u64(1, 50));
                self.scheduled.push(pkt.ts + jitter);
            }
        }
        fn on_close(&mut self, _rng: &mut SimRng) -> CloseOut {
            CloseOut {
                emits: self
                    .scheduled
                    .iter()
                    .map(|&ts| Emit {
                        pkt: FlowPkt {
                            ts,
                            dir: Direction::In,
                            size: 1514,
                        },
                        dummy: true,
                    })
                    .collect(),
                real_done: None,
            }
        }
    }

    struct PadOnly;

    impl Defense for PadOnly {
        fn name(&self) -> &str {
            "pad-only"
        }
        fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
            FlowDefense {
                padding: Some(Box::new(EchoPadder {
                    scheduled: Vec::new(),
                })),
                ..FlowDefense::passthrough("pad-only")
            }
        }
    }

    #[test]
    fn pure_padding_defense_is_placement_invariant() {
        let input = sample_flow();
        let mut rng = SimRng::new(42);
        let app = emulate_flow(&PadOnly, &input, &DefenseCtx::default(), &mut rng);
        let mut rng = SimRng::new(42);
        let stack = enforce_flow(
            &PadOnly,
            &input,
            &DefenseCtx::default(),
            &mut rng,
            &StackParams::with_seed(42),
        );
        assert_eq!(app.pkts, stack.pkts);
        assert_eq!(app.dummy_pkts, 3);
        assert_eq!(app.dummy_bytes, 3 * 1514);
        assert_eq!(stack.dummy_pkts, 3);
        // Real packets all survive alongside the dummies.
        assert_eq!(app.pkts.len(), input.len() + 3);
        assert_eq!(app.real_done, flow_duration(&input));
    }

    #[test]
    fn owned_dirs_replace_the_original_stream() {
        /// Re-times every inbound packet onto a fixed grid.
        struct GridCore {
            count: usize,
        }
        impl PadderCore for GridCore {
            fn owned_dirs(&self) -> &'static [Direction] {
                &[Direction::In]
            }
            fn on_data(&mut self, pkt: FlowPkt, _rng: &mut SimRng) {
                if pkt.dir == Direction::In {
                    self.count += 1;
                }
            }
            fn on_close(&mut self, _rng: &mut SimRng) -> CloseOut {
                let grid = Nanos::from_millis(10);
                CloseOut {
                    emits: (0..self.count.max(1) + 1)
                        .map(|i| Emit {
                            pkt: FlowPkt {
                                ts: grid * (i as u64),
                                dir: Direction::In,
                                size: 1514,
                            },
                            dummy: i >= self.count,
                        })
                        .collect(),
                    real_done: Some(grid * (self.count.max(1) as u64 - 1)),
                }
            }
        }
        struct Grid;
        impl Defense for Grid {
            fn name(&self) -> &str {
                "grid"
            }
            fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
                FlowDefense {
                    padding: Some(Box::new(GridCore { count: 0 })),
                    ..FlowDefense::passthrough("grid")
                }
            }
        }
        let input = sample_flow();
        let mut rng = SimRng::new(1);
        let out = emulate_flow(&Grid, &input, &DefenseCtx::default(), &mut rng);
        // 2 outbound originals + 3 re-emitted + 1 dummy inbound.
        assert_eq!(out.pkts.len(), 6);
        let inbound: Vec<&FlowPkt> = out.pkts.iter().filter(|p| p.dir == Direction::In).collect();
        assert_eq!(inbound.len(), 4);
        assert!(inbound
            .iter()
            .all(|p| p.ts.0 % Nanos::from_millis(10).0 == 0 && p.size == 1514));
        assert_eq!(out.dummy_pkts, 1);
        assert_eq!(out.real_done, Nanos::from_millis(20));
    }

    /// Drive the kernel one packet at a time, as the fleet does, checking
    /// on the way what no decider may break: a piece never leaves before
    /// its intended time, the shift never runs backwards, and the pieces
    /// of a packet carry exactly its bytes in its direction.
    fn stream<D: Decider>(mut kernel: FlowShaper<D>, input: &[FlowPkt]) -> Vec<FlowPkt> {
        let mut out = Vec::new();
        for (i, pkt) in input.iter().enumerate() {
            let mut bytes = 0;
            kernel.step(*pkt, i as u64, |shaped, intended| {
                assert!(pkt.ts <= intended && intended <= shaped.ts, "packet {i}");
                assert_eq!(shaped.dir, pkt.dir);
                bytes += shaped.size;
                out.push(shaped);
            });
            assert_eq!(bytes, pkt.size, "packet {i} lost or gained bytes");
        }
        normalize_flow(&mut out);
        out
    }

    /// A normalized page-load-like flow: bursts (zero gaps), both
    /// directions, sizes on either side of every threshold and the MTU.
    fn random_flow(seed: u64) -> Vec<FlowPkt> {
        let mut rng = SimRng::new(seed ^ 0xF10E);
        let mut ts = Nanos::ZERO;
        (0..rng.range_u64(12, 40))
            .map(|i| {
                if i > 0 && rng.next_below(4) > 0 {
                    ts += Nanos(rng.range_u64(1, 2_000_000));
                }
                let dir = if rng.next_below(100) < 30 {
                    Direction::Out
                } else {
                    Direction::In
                };
                FlowPkt {
                    ts,
                    dir,
                    size: rng.range_u64(40, 3_000) as u32,
                }
            })
            .collect()
    }

    #[test]
    fn streaming_the_kernel_equals_both_batch_backends() {
        let mut size_h = netsim::Histogram::new(100.0, 1500.0, 8);
        [120.0, 300.0, 640.0, 641.0, 1200.0, 1480.0]
            .into_iter()
            .for_each(|x| size_h.push(x));
        let mut delay_h = netsim::Histogram::new(0.0, 400.0, 8);
        [5.0, 60.0, 61.0, 250.0, 390.0]
            .into_iter()
            .for_each(|x| delay_h.push(x));
        let sizes = [
            SizeSpec::Unchanged,
            SizeSpec::SplitAbove { threshold: 1200 },
            SizeSpec::IncrementalReduce {
                step: 100,
                steps: 5,
            },
            SizeSpec::FromHistogram(size_h),
            SizeSpec::Fixed { ip_size: 500 },
        ];
        let delays = [
            DelaySpec::Unchanged,
            DelaySpec::UniformFraction {
                lo_frac: 0.10,
                hi_frac: 0.30,
            },
            DelaySpec::UniformAbsolute {
                lo: Nanos::from_micros(10),
                hi: Nanos::from_micros(500),
            },
            DelaySpec::FromHistogramMicros(delay_h),
        ];
        let ctx = DefenseCtx::default();
        for (size, delay) in sizes
            .iter()
            .flat_map(|s| delays.iter().map(move |d| (s, d)))
        {
            for (dir, first_n) in [None, Some(Direction::In)]
                .into_iter()
                .flat_map(|d| [(d, 0), (d, 7)])
            {
                let d = S3 {
                    policy: ObfuscationPolicy {
                        name: "prop".into(),
                        size: size.clone(),
                        delay: delay.clone(),
                        tso: TsoSpec::Unchanged,
                        first_n_pkts: first_n,
                        respect_slow_start: false,
                    },
                    dir,
                };
                for seed in 0..50u64 {
                    let case = format!("{size:?} {delay:?} {dir:?} first_n={first_n} seed={seed}");
                    let input = random_flow(seed);

                    let batch = emulate_flow(&d, &input, &ctx, &mut SimRng::new(seed));
                    let mut rng = SimRng::new(seed);
                    let fd = d.build(&ctx, &mut rng);
                    let streamed = stream(FlowShaper::app(&fd, &mut rng), &input);
                    assert_eq!(streamed, batch.pkts, "app: {case}");

                    let params = StackParams {
                        flow_salt: seed,
                        ..StackParams::with_seed(seed ^ 0xA5)
                    };
                    let batch = enforce_flow(&d, &input, &ctx, &mut SimRng::new(seed), &params);
                    let (seed, salt) = (params.seed, params.flow_salt);
                    let live = || crate::sockopt::assemble_policy_shaper(&fd.policy, seed, salt).0;
                    let kernel = FlowShaper::stack(&fd, EgressLabels::REPLAY, &params, live);
                    assert_eq!(stream(kernel, &input), batch.pkts, "stack: {case}");
                }
            }
        }
    }

    #[test]
    fn normalize_flow_matches_trace_normalize_semantics() {
        let mut pkts = vec![
            mk(5_000, Direction::In, 10),
            mk(2_000, Direction::Out, 20),
            mk(9_000, Direction::In, 30),
        ];
        normalize_flow(&mut pkts);
        assert_eq!(pkts[0].ts, Nanos::ZERO);
        assert_eq!(pkts[1].ts, Nanos::from_micros(3_000));
        assert_eq!(pkts[2].ts, Nanos::from_micros(7_000));
        assert_eq!(flow_duration(&pkts), Nanos::from_micros(7_000));
        let mut empty: Vec<FlowPkt> = Vec::new();
        normalize_flow(&mut empty);
        assert_eq!(flow_duration(&empty), Nanos::ZERO);
    }
}
