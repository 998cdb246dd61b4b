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
//! - the §3 size/delay semantics and the padding close-out are written
//!   once, in `FlowShaper`: a per-flow streaming kernel built from the
//!   whole [`FlowDefense`] that owns the loop (direction scope,
//!   re-fragmenting, shift accumulation) and the padding core, asks a
//!   two-method decider for each piece's size and extra delay, and ends
//!   every harness in the same `FlowShaper::close`;
//! - [`emulate_flow`] is the **app-layer backend**: the kernel folded
//!   over a recorded packet sequence with a decider that interprets the
//!   policy directly — the `defenses` crate's trace-level emulation;
//! - [`enforce_flow`] is the **stack backend**: the same fold with a
//!   decider that lowers the policy into one live
//!   [`Shaper`](stack::Shaper) (`crate::strategies::PolicyShaper`, inside
//!   the §4.2 [`SafetyCap`]) behind a replay [`EgressPipeline`]; [`crate::fleet`] drives that
//!   kernel one generated packet at a time and closes it the same way.
//!
//! Padding schedules are executed identically by every harness: §4.2
//! scopes the stack's authority to sizing and departure timing of real
//! data, so dummy-packet injection remains an application-layer concern
//! at either placement. A defense that only pads (FRONT, WTF-PAD) is
//! therefore placement-invariant by construction, while size/delay
//! defenses inherit the stack's pacing clock, safety clamp, first-N
//! window and slow-start hold when placed in-stack — exactly the difference the paper
//! argues about.

use crate::policy::{sample_delay, DelaySpec, ObfuscationPolicy, SizeSpec, TsoSpec};
use crate::safety::SafetyCap;
use crate::strategies::PolicyShaper;
use netsim::{Direction, FlowId, Nanos, SimRng, MTU_WIRE};
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

    /// Observe the next packets of the post-policy stream: the whole
    /// stream in one call from the batch backends, one piece per call
    /// from the fleet. A core must not depend on how the stream is cut
    /// (`tests/invariants.rs` holds every library core to that).
    fn on_data(&mut self, _pkts: &[FlowPkt], _rng: &mut SimRng) {}

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
    pub(crate) fn from_policy(policy: ObfuscationPolicy) -> Self {
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

/// Normalize a packet sequence (`Trace::normalize` runs this): stable
/// time sort, then rebase so the first packet sits at t = 0. A stable
/// sort of a sorted slice is the identity, so a sorted sequence skips
/// it.
pub fn normalize_flow(pkts: &mut [FlowPkt]) {
    if !pkts.is_sorted_by_key(|p| p.ts) {
        pkts.sort_by_key(|p| p.ts);
    }
    if let Some(first) = pkts.first() {
        let t0 = first.ts;
        if !t0.is_zero() {
            for p in pkts.iter_mut() {
                p.ts -= t0;
            }
        }
    }
}

/// Duration of a time-sorted packet sequence (`Trace::duration` returns
/// this).
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
/// is handed, the stack decider's `PolicyShaper` reads it from the shape
/// context. Both are handed the flow's RNG; only the app decider draws
/// on it (the stack's strategies own their streams).
pub(crate) trait Decider {
    /// Wire size of piece number `piece` of recorded packet `orig_idx`,
    /// of which `remaining` bytes are still unsent; in `1..=remaining`.
    fn piece_size(
        &mut self,
        orig_idx: u64,
        now: Nanos,
        piece: u32,
        remaining: u32,
        rng: &mut SimRng,
    ) -> u32;

    /// Extra departure delay of emitted packet `emit_idx`, due out at
    /// `intended`, `iat` after its predecessor's pre-shift timestamp.
    fn extra_delay(
        &mut self,
        emit_idx: u64,
        intended: Nanos,
        iat: Nanos,
        rng: &mut SimRng,
    ) -> Nanos;
}

/// The per-flow shaping kernel (see the module docs): owns the shaping
/// state, the loop and the flow's padding core, generic over the
/// placement's [`Decider`].
pub(crate) struct FlowShaper<D> {
    decider: D,
    size_active: bool,
    delay_active: bool,
    /// Restrict both stages to one direction. Tested in the loop, not
    /// the decider: the stack's shaper is direction-blind.
    apply_dir: Option<Direction>,
    /// Accumulated departure shift: stretching one inter-arrival time
    /// moves everything after it.
    shift: Nanos,
    /// Pieces emitted so far — the index the delay stage is keyed on.
    emit_idx: u64,
    /// Pre-shift timestamp of the previous piece.
    prev_orig: Nanos,
    /// The padding schedule, shown every shaped piece.
    core: Option<Box<dyn PadderCore>>,
    /// The core's [`PadderCore::owned_dirs`]: a piece in one of them does
    /// not survive, because the core re-emits it at close.
    owned: &'static [Direction],
}

/// What the padding close-out added to a flow.
#[derive(Default)]
pub(crate) struct Closed {
    pub(crate) dummy_pkts: u64,
    pub(crate) dummy_bytes: u64,
    /// [`CloseOut::real_done`].
    pub(crate) real_done: Option<Nanos>,
}

impl<D: Decider> FlowShaper<D> {
    /// Build the kernel from the whole flow defense, its policy already
    /// validated where it was built ([`build_checked`] for replay,
    /// [`crate::sockopt::attach`] for the fleet): scope the stages to the
    /// policy, hand it and whether any stage is active to `decider`, and
    /// take over the padding core.
    fn new(fd: FlowDefense, decider: impl FnOnce(ObfuscationPolicy, bool) -> D) -> Self {
        let size_active = !matches!(fd.policy.size, SizeSpec::Unchanged);
        let delay_active = !matches!(fd.policy.delay, DelaySpec::Unchanged);
        FlowShaper {
            decider: decider(fd.policy, size_active || delay_active),
            size_active,
            delay_active,
            apply_dir: fd.apply_dir,
            shift: Nanos::ZERO,
            emit_idx: 0,
            prev_orig: Nanos::ZERO,
            owned: fd.padding.as_ref().map_or(&[], |c| c.owned_dirs()),
            core: fd.padding,
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
    /// piece, and the padding core sees the piece. `sink` receives each
    /// shaped piece, its intended (pre-delay) departure time, and whether
    /// it survives: a piece in a direction the core owns does not.
    pub(crate) fn step(
        &mut self,
        pkt: FlowPkt,
        orig_idx: u64,
        rng: &mut SimRng,
        mut sink: impl FnMut(FlowPkt, Nanos, bool),
    ) {
        let scoped = self.apply_dir.is_none_or(|d| d == pkt.dir);
        if !(self.size_active && scoped) {
            return self.emit(pkt, scoped, rng, &mut sink);
        }
        let mut remaining = pkt.size;
        let mut piece = 0u32;
        while remaining > 0 {
            let size = self
                .decider
                .piece_size(orig_idx, pkt.ts, piece, remaining, rng);
            self.emit(FlowPkt { size, ..pkt }, scoped, rng, &mut sink);
            remaining -= size;
            piece += 1;
        }
    }

    /// The delay stage, the §3 "stretch inter-arrival times" rule: the
    /// piece's inter-arrival time, measured against the *pre-shift*
    /// schedule, is stretched by the decider's answer, and the stretch
    /// accumulates. Keyed on the emitted index; emitted packet 0 is
    /// never delayed.
    fn emit(
        &mut self,
        piece: FlowPkt,
        scoped: bool,
        rng: &mut SimRng,
        sink: &mut impl FnMut(FlowPkt, Nanos, bool),
    ) {
        let iat = piece.ts.saturating_sub(self.prev_orig);
        let intended = piece.ts + self.shift;
        let mut out = intended;
        if self.delay_active && scoped && self.emit_idx > 0 {
            let extra = self.decider.extra_delay(self.emit_idx, intended, iat, rng);
            self.shift += extra;
            out += extra;
        }
        self.prev_orig = piece.ts;
        self.emit_idx += 1;
        let shaped = FlowPkt { ts: out, ..piece };
        if let Some(core) = &mut self.core {
            core.on_data(std::slice::from_ref(&shaped), rng);
        }
        sink(shaped, intended, !self.owned.contains(&piece.dir));
    }

    /// The flow is complete: run the padding core's close-out, count its
    /// dummies, and hand every emission to `sink`, as the core's own
    /// vector (the batch harnesses merge it in place). `None` when the
    /// defense does not pad.
    pub(crate) fn close(self, rng: &mut SimRng, sink: impl FnOnce(Vec<Emit>)) -> Option<Closed> {
        let close = self.core?.on_close(rng);
        let mut closed = Closed {
            real_done: close.real_done,
            ..Closed::default()
        };
        for e in close.emits.iter().filter(|e| e.dummy) {
            closed.dummy_pkts += 1;
            closed.dummy_bytes += u64::from(e.pkt.size);
        }
        sink(close.emits);
        Some(closed)
    }

    /// The batch harness both backends run over a recorded flow: fold
    /// [`step`](Self::step) over it and normalize the result once; only
    /// then show the padding core the shaped stream, as one slice (the
    /// app decider draws on the flow RNG, so interleaving the core's
    /// draws with its own would move every padded flow with a policy),
    /// close, and merge the close-out into the surviving pieces.
    /// `pad_counter` hands over the cached handle of the counter the
    /// dummies are added to; it is called only for a padded flow, so a
    /// run without padding registers no pad counter.
    fn defend(
        mut self,
        input: &[FlowPkt],
        rng: &mut SimRng,
        pad_counter: fn() -> &'static netsim::telemetry::Counter,
    ) -> DefendedFlow {
        let mut pkts = if self.active() {
            let core = self.core.take();
            let mut out = Vec::with_capacity(input.len() + 8);
            for (i, pkt) in input.iter().enumerate() {
                self.step(*pkt, i as u64, rng, |shaped, _, _| out.push(shaped));
            }
            self.core = core;
            normalize_flow(&mut out);
            out
        } else {
            input.to_vec()
        };
        let shaped_done = flow_duration(&pkts);
        let owned = self.owned;
        if let Some(core) = &mut self.core {
            core.on_data(&pkts, rng);
            if !owned.is_empty() {
                pkts.retain(|p| !owned.contains(&p.dir));
            }
        }
        let closed = self.close(rng, |emits| merge_close_out(&mut pkts, emits));
        if let Some(c) = &closed {
            pad_counter().add(c.dummy_pkts);
        }
        let closed = closed.unwrap_or_default();
        DefendedFlow {
            pkts,
            dummy_pkts: closed.dummy_pkts as usize,
            dummy_bytes: closed.dummy_bytes,
            real_done: closed.real_done.unwrap_or(shaped_done),
        }
    }
}

/// Append a close-out's emissions to the held stream and normalize the
/// result: what `extend` then [`normalize_flow`] gives, written once.
///
/// The stream and the emissions are each stably sorted (the kernel hands
/// over a time-sorted stream, so that is usually a scan) and merged in
/// place, from the back, rebasing as it goes; a tie goes to the stream,
/// as in a stable sort of the concatenation. The vector grows by exactly
/// the emissions, so the defended flow holds no slack.
fn merge_close_out(pkts: &mut Vec<FlowPkt>, mut emits: Vec<Emit>) {
    if !pkts.is_sorted_by_key(|p| p.ts) {
        pkts.sort_by_key(|p| p.ts);
    }
    if !emits.is_sorted_by_key(|e| e.pkt.ts) {
        emits.sort_by_key(|e| e.pkt.ts);
    }
    let t0 = match (pkts.first(), emits.first()) {
        (Some(p), Some(e)) => p.ts.min(e.pkt.ts),
        (Some(p), None) => p.ts,
        (None, Some(e)) => e.pkt.ts,
        (None, None) => return,
    };
    let (mut i, mut j) = (pkts.len(), emits.len());
    pkts.reserve_exact(j);
    pkts.extend(emits.iter().map(|e| e.pkt));
    // `k` is the next slot to fill from the back; `k == i + j`, so the
    // stream's unmerged prefix is already where it belongs once the
    // emissions run out.
    while j > 0 {
        let k = i + j - 1;
        pkts[k] = if i > 0 && pkts[i - 1].ts > emits[j - 1].pkt.ts {
            i -= 1;
            pkts[i]
        } else {
            j -= 1;
            emits[j].pkt
        };
        pkts[k].ts -= t0;
    }
    if !t0.is_zero() {
        for p in &mut pkts[..i] {
            p.ts -= t0;
        }
    }
}

// ---------------------------------------------------------------------
// App-layer backend
// ---------------------------------------------------------------------

/// Minimum piece size the generic re-chunking will emit; splits below
/// this stop conveying size information and only inflate packet counts.
const MIN_PIECE: u32 = 64;

/// The app placement's [`Decider`]: the policy's rules interpreted
/// directly, drawing from the flow's own RNG. `SplitAbove` is the exact
/// §3 emulation (two halves); the other size specs re-chunk greedily
/// toward the spec's target — a best-effort trace-level reading of
/// rules that are exact in-stack.
pub(crate) struct AppDecider {
    policy: ObfuscationPolicy,
    /// Position in the `IncrementalReduce` walk.
    inc_idx: u32,
}

/// The first-N window of §3's censorship setting (0 = whole flow).
fn in_window(first_n: u64, index: u64) -> bool {
    first_n == 0 || index < first_n
}

impl Decider for AppDecider {
    fn piece_size(
        &mut self,
        orig_idx: u64,
        _now: Nanos,
        piece: u32,
        remaining: u32,
        rng: &mut SimRng,
    ) -> u32 {
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
                let reduction = self.inc_idx.saturating_mul(*step);
                self.inc_idx += 1;
                if self.inc_idx > *steps {
                    self.inc_idx = 0;
                }
                MTU_WIRE.saturating_sub(reduction)
            }
            SizeSpec::FromHistogram(h) => h.sample(rng.next_f64(), rng.next_f64()).max(1.0) as u32,
        };
        if piece > 0 {
            netsim::tm_counter!("defense.app.resized_pkts").inc();
        }
        remaining.min(target.max(MIN_PIECE))
    }

    fn extra_delay(
        &mut self,
        emit_idx: u64,
        _intended: Nanos,
        iat: Nanos,
        rng: &mut SimRng,
    ) -> Nanos {
        if !in_window(self.policy.first_n_pkts, emit_idx) {
            return Nanos::ZERO;
        }
        netsim::tm_counter!("defense.app.delayed_pkts").inc();
        sample_delay(&self.policy.delay, iat, rng)
    }
}

impl FlowShaper<AppDecider> {
    /// The kernel at app placement, interpreting the policy itself.
    pub(crate) fn app(fd: FlowDefense) -> Self {
        Self::new(fd, |policy, _| AppDecider { policy, inc_idx: 0 })
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
    let fd = build_checked(defense, ctx, rng);
    FlowShaper::app(fd).defend(input, rng, || netsim::tm_counter!("defense.app.pad_pkts"))
}

/// Build `defense` for one replayed flow and validate its policy, once.
/// An inconsistent policy keeps its padding core but has its rules
/// turned off, counted in `stob.registry.degraded`: the flow replays
/// pass-through rather than shaping wrongly or panicking.
fn build_checked(defense: &dyn Defense, ctx: &DefenseCtx, rng: &mut SimRng) -> FlowDefense {
    let mut fd = defense.build(ctx, rng);
    if fd.policy.validate().is_err() {
        netsim::tm_counter!("stob.registry.degraded").inc();
        fd.policy.size = SizeSpec::Unchanged;
        fd.policy.delay = DelaySpec::Unchanged;
        fd.policy.tso = TsoSpec::Unchanged;
    }
    fd
}

// ---------------------------------------------------------------------
// Stack backend
// ---------------------------------------------------------------------

/// MSS the replay backend assumes (Ethernet's 1500-byte IP MTU less 52
/// header bytes) to recover a per-packet pacing rate from recorded
/// inter-arrival times: `PolicyShaper`'s delay rule keys its nominal
/// gap on `2 * mss` serialized at the pacing rate.
const REPLAY_MSS: u32 = 1448;

/// Stack parameters for the replay enforcement backend. The replay
/// pipeline emits packets of at most [`MTU_WIRE`] bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackParams {
    /// Seed feeding the live strategy RNGs (as in `PolicyShaper::new`).
    pub(crate) seed: u64,
    /// Flow salt decorrelating flows that share one policy.
    pub(crate) flow_salt: u64,
}

impl StackParams {
    /// Params with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        StackParams::for_flow(seed, 0)
    }

    /// Params for one flow of a policy: `seed` and the flow salt that
    /// decorrelates flows sharing it.
    pub fn for_flow(seed: u64, flow_salt: u64) -> Self {
        StackParams { seed, flow_salt }
    }

    /// The one lowering of a validated policy: moved into its
    /// `PolicyShaper`, RNGs seeded from `seed` and `flow_salt`, inside
    /// the §4.2 [`SafetyCap`], unaudited. One heap block, plus whatever
    /// the policy already owned. Harnesses that own their policy lower
    /// it here; [`assemble_policy_shaper`](crate::sockopt::assemble_policy_shaper)
    /// copies a borrowed one and adds an audit.
    pub fn shaper(&self, policy: ObfuscationPolicy) -> BoxShaper {
        Box::new(SafetyCap::new(PolicyShaper::new(
            policy,
            self.seed,
            self.flow_salt,
        )))
    }
}

/// The synthetic pacing rate under which one recorded inter-arrival
/// time serializes exactly `2 * REPLAY_MSS` bytes — the inverse of
/// `PolicyShaper`'s nominal-gap rule, so the in-stack jitter stretches
/// recorded gaps by the same fractions the app decider draws.
fn rate_for_iat(iat: Nanos) -> u64 {
    if iat.is_zero() {
        // Zero gap: infinite rate. `u64::MAX - 1` keeps the delay rule on
        // its `for_bytes_at_rate` path (nominal rounds to zero) while
        // still consuming its draw, mirroring the app decider exactly.
        return u64::MAX - 1;
    }
    let x = u64::from(REPLAY_MSS) * 2 * 8 * 1_000_000_000;
    (x / iat.0).max(1)
}

/// The stack placement's [`Decider`]: the policy lowered into a live
/// shaper (its `PolicyShaper` inside the §4.2 safety cap) behind a replay
/// [`EgressPipeline`], so sizes are the pipeline's packet-size decision
/// and departures pass its pacing clock and the shaper's extra delay.
pub(crate) struct StackDecider {
    pipe: EgressPipeline,
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
            mtu_ip: MTU_WIRE,
            mss: REPLAY_MSS,
        }
    }
}

impl Decider for StackDecider {
    fn piece_size(
        &mut self,
        orig_idx: u64,
        now: Nanos,
        piece: u32,
        remaining: u32,
        _rng: &mut SimRng,
    ) -> u32 {
        let proposed = remaining.min(MTU_WIRE);
        let sctx = self.ctx(orig_idx, now, None);
        self.pipe
            .packet_ip_size(&sctx, piece, proposed, 1, proposed)
    }

    fn extra_delay(
        &mut self,
        emit_idx: u64,
        intended: Nanos,
        iat: Nanos,
        _rng: &mut SimRng,
    ) -> Nanos {
        let rate = rate_for_iat(iat);
        let sctx = self.ctx(emit_idx, intended, Some(rate));
        self.pipe
            .pace_replay(&sctx, intended)
            .saturating_sub(intended)
    }
}

impl FlowShaper<StackDecider> {
    /// The kernel at stack placement, deciding through the policy's live
    /// shaper ([`StackParams::shaper`]). A policy whose size and delay
    /// stages are both off is never lowered: the pipeline keeps its
    /// pass-through shaper, which is never consulted.
    pub(crate) fn stack(fd: FlowDefense, labels: EgressLabels, params: &StackParams) -> Self {
        Self::new(fd, |policy, active| {
            let mut pipe = EgressPipeline::new(labels);
            if active {
                pipe.set_shaper(params.shaper(policy));
            }
            StackDecider { pipe }
        })
    }
}

/// **Stack backend**: lower the defense's policy into a live shaper
/// (`StackParams::shaper`) and replay the recorded flow through the
/// same kernel with the [`EgressPipeline`] deciding; the padding
/// schedule runs exactly as in the app backend.
pub fn enforce_flow(
    defense: &dyn Defense,
    input: &[FlowPkt],
    ctx: &DefenseCtx,
    rng: &mut SimRng,
    params: &StackParams,
) -> DefendedFlow {
    netsim::tm_counter!("defense.stack.flows").inc();
    let fd = build_checked(defense, ctx, rng);
    FlowShaper::stack(fd, EgressLabels::REPLAY, params)
        .defend(input, rng, || netsim::tm_counter!("defense.stack.pad_pkts"))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // backend (its delay RNG seeded seed ^ 0) replays the app pass's
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
        fn on_data(&mut self, pkts: &[FlowPkt], rng: &mut SimRng) {
            for pkt in pkts.iter().filter(|p| p.dir == Direction::In) {
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
            fn on_data(&mut self, pkts: &[FlowPkt], _rng: &mut SimRng) {
                self.count += pkts.iter().filter(|p| p.dir == Direction::In).count();
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
    fn stream<D: Decider>(
        mut kernel: FlowShaper<D>,
        input: &[FlowPkt],
        rng: &mut SimRng,
    ) -> Vec<FlowPkt> {
        let mut out = Vec::new();
        for (i, pkt) in input.iter().enumerate() {
            let mut bytes = 0;
            kernel.step(*pkt, i as u64, rng, |shaped, intended, _| {
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
                    let fd = build_checked(&d, &ctx, &mut rng);
                    let streamed = stream(FlowShaper::app(fd), &input, &mut rng);
                    assert_eq!(streamed, batch.pkts, "app: {case}");

                    let params = StackParams::for_flow(seed ^ 0xA5, seed);
                    let mut rng = SimRng::new(seed);
                    let batch = enforce_flow(&d, &input, &ctx, &mut rng.clone(), &params);
                    let fd = build_checked(&d, &ctx, &mut rng);
                    let kernel = FlowShaper::stack(fd, EgressLabels::REPLAY, &params);
                    assert_eq!(
                        stream(kernel, &input, &mut rng),
                        batch.pkts,
                        "stack: {case}"
                    );
                }
            }
        }
    }

    /// The close-out as it was assembled before the merge: `extend`,
    /// stable sort of the concatenation, rebase.
    fn close_out_by_sort(mut pkts: Vec<FlowPkt>, emits: &[Emit]) -> Vec<FlowPkt> {
        pkts.extend(emits.iter().map(|e| e.pkt));
        pkts.sort_by_key(|p| p.ts);
        if let Some(t0) = pkts.first().map(|p| p.ts) {
            pkts.iter_mut().for_each(|p| p.ts -= t0);
        }
        pkts
    }

    #[test]
    fn merged_close_out_equals_extend_sort_and_rebase() {
        // Timestamps on a coarse grid, so the stream and the emissions
        // tie often; every packet gets its own size, so an equal result
        // means an equal order, not only equal keys.
        let mut id = 0u32;
        let mut pkt = |rng: &mut SimRng, base: u64| {
            id += 1;
            let dir = if rng.next_below(2) == 0 {
                Direction::In
            } else {
                Direction::Out
            };
            FlowPkt::new(Nanos(base + 100 * rng.range_u64(0, 40)), dir, id)
        };
        // Seeds that hit: an empty stream, empty emissions, an unsorted
        // stream, unsorted emissions, a stream/emission tie.
        let mut cases = [0usize; 5];
        for seed in 0..600u64 {
            let mut rng = SimRng::new(seed ^ 0xC105E);
            let base = 100 * rng.range_u64(0, 3);
            let n = if seed % 6 == 0 {
                0
            } else {
                rng.range_u64(0, 60)
            };
            let m = if seed % 6 == 1 {
                0
            } else {
                rng.range_u64(0, 40)
            };
            let mut stream: Vec<FlowPkt> = (0..n).map(|_| pkt(&mut rng, base)).collect();
            if seed % 6 != 2 {
                stream.sort_by_key(|p| p.ts);
            }
            let mut emits: Vec<Emit> = (0..m)
                .map(|_| Emit {
                    pkt: pkt(&mut rng, base),
                    dummy: rng.next_below(2) == 0,
                })
                .collect();
            if seed % 2 == 0 {
                emits.sort_by_key(|e| e.pkt.ts);
            }
            let hit = [
                stream.is_empty(),
                emits.is_empty(),
                !stream.is_sorted_by_key(|p| p.ts),
                !emits.is_sorted_by_key(|e| e.pkt.ts),
                emits
                    .iter()
                    .any(|e| stream.iter().any(|p| p.ts == e.pkt.ts)),
            ];
            let want = close_out_by_sort(stream.clone(), &emits);
            stream.shrink_to_fit();
            merge_close_out(&mut stream, emits);
            assert_eq!(stream, want, "seed {seed}");
            // Grown by exactly the emissions: no slack to shrink.
            assert_eq!(stream.capacity(), stream.len(), "seed {seed}");
            for (c, h) in cases.iter_mut().zip(hit) {
                *c += usize::from(h);
            }
        }
        assert!(cases.iter().all(|&c| c >= 50), "{cases:?}");
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
