//! Fleet-scale defended-flow engine: many concurrent flows, sharded
//! event queues, one shared control plane.
//!
//! Everything else in the repo simulates one host pair per visit; the
//! paper's deployment argument (§5) is about *providers* — a network
//! stack shaping tens of thousands of concurrent flows behind one
//! policy control plane. This module is that regime's engine:
//!
//! * **Sharded simulation.** Flows are partitioned into a fixed number
//!   of shards (independent of thread count). Each shard owns a
//!   [`EventQueue`] interleaving all its flows' departure
//!   timers, an [`Arena`] of its resident flows (one slot per flow from
//!   its start event to its close, pending packet included; the timer
//!   event carries the generation-checked handle, so an emission is one
//!   lookup of one compact record), and a
//!   [`VecPool`] recycling the buffers of padding defenses that re-emit
//!   whole directions. Shards run under [`netsim::par`]; per the
//!   determinism contract each flow forks its RNG from the root seed
//!   and its stable global index, so results are bit-identical at any
//!   `STOB_THREADS` *and* any shard count (the arena's per-shard peak,
//!   [`FleetReport::arena_high_water`], is the one layout-dependent
//!   field).
//! * **One shared [`PolicyRegistry`].** Every flow resolves its defense
//!   through the registry (flow → destination → default precedence)
//!   concurrently from all shards, exactly like a provider fleet
//!   hitting one control plane.
//! * **One shaping kernel per flow.** Each resolved defense becomes a
//!   `FlowShaper` at stack placement ([`EgressLabels::FLEET`]) — the
//!   kernel and decider `enforce_flow` folds over recorded traces, here
//!   driven one generated packet at a time (no full per-flow schedule is
//!   ever materialized, which is what keeps 100k+ resident flows cheap).
//!
//! Workload: flows are synthetic page-load-like packet sequences drawn
//! lazily from the flow's own RNG (gap, direction, size per packet),
//! staggered over a start window so a large population is resident at
//! once. Checksums fold each emission order-independently, so the
//! aggregate check value is invariant to shard layout; the per-shard
//! [`Auditor`] checks pop monotonicity and that no emission departs
//! before its intended time.
//!
//! Observability: `netsim.fleet.*` counters (flows, egress packets and
//! bytes, dummies, events) — see OBSERVABILITY.md. They are sums, added
//! where the engine already holds the sum (per closed flow, per finished
//! shard), not per packet: totals are exact once [`run_fleet`] returns,
//! and a snapshot taken mid-run lags. The `fleet` bench
//! bin drives this engine at 10k–1M flows and `scripts/check-golden.sh`
//! holds its report byte-for-byte; its throughput is the layered
//! benchmark's `fleet_mixed` workload (`BENCHMARK.json`).

use crate::defense::{
    close_padding, Closed, FlowDefense, FlowPkt, FlowShaper, PadderCore, StackDecider, StackParams,
};
use crate::registry::PolicyRegistry;
use crate::sockopt::attach;
use netsim::{
    par, Arena, ArenaHandle, AuditReport, Auditor, Direction, EventQueue, Nanos, SimRng, VecPool,
};
use stack::egress::EgressLabels;
use stack::NoopShaper;

/// Fixed shard count the engine defaults to. Chosen comfortably above
/// any realistic `STOB_THREADS` so thread count only changes which
/// worker drives a shard, never how flows are grouped. A perf-only
/// knob: results are invariant to it, bar the per-shard arena peak
/// (see module docs).
pub const DEFAULT_SHARDS: u64 = 64;

/// Fleet run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Root seed; flow `f` forks its RNG as `root.fork(f + 1)`.
    pub seed: u64,
    /// Total flows to drive.
    pub flows: u64,
    /// Shard count (perf knob; of the results only the per-shard
    /// `arena_high_water` follows it). 0 = default.
    pub shards: u64,
    /// Destination diversity: flow `f` targets destination `f % sites`,
    /// the key its registry resolution uses.
    pub sites: u32,
    /// Packets per flow, drawn uniformly from this inclusive range.
    pub pkts_per_flow: (u64, u64),
    /// Inter-packet gap bounds (ns), drawn uniformly per packet.
    pub gap_ns: (u64, u64),
    /// Flow start times are staggered uniformly over this window.
    pub window: Nanos,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 1,
            flows: 10_000,
            shards: DEFAULT_SHARDS,
            sites: 64,
            pkts_per_flow: (30, 60),
            gap_ns: (50_000, 1_000_000),
            window: Nanos::from_millis(5),
        }
    }
}

/// Aggregate result of a fleet run. Every field is a deterministic
/// function of `(config, registry contents)` and invariant to thread
/// count. All but one are invariant to shard count too; the exception
/// is `arena_high_water`, a per-shard peak, which follows
/// [`FleetConfig::shards`].
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Flows completed.
    pub flows: u64,
    /// Wire packets emitted (real pieces + dummies).
    pub egress_pkts: u64,
    /// Wire bytes emitted.
    pub egress_bytes: u64,
    /// Dummy packets injected by padding defenses.
    pub dummy_pkts: u64,
    /// Dummy bytes injected.
    pub dummy_bytes: u64,
    /// Peak simultaneously-resident flows (interval sweep over every
    /// flow's `[start, end]`).
    pub peak_resident: u64,
    /// Simulated end time (latest flow end).
    pub sim_end: Nanos,
    /// Order-independent fold of every emission on every flow.
    pub checksum: u64,
    /// Events popped across all shard queues.
    pub events: u64,
    /// Peak resident flows in any one shard (its arena holds one slot
    /// per resident flow). Changes with the shard count.
    pub arena_high_water: u64,
    /// Merged invariant report (monotone pops, no early departures).
    pub audit: AuditReport,
}

impl FleetReport {
    /// True when the run finished with no invariant violations.
    pub fn clean(&self) -> bool {
        self.audit.violations.is_empty()
    }
}

/// Running totals of one flow's final emissions.
#[derive(Default)]
struct Tally {
    pkts: u64,
    bytes: u64,
    checksum: u64,
    /// Latest emission, relative to the flow start.
    end_rel: Nanos,
}

/// Per-shard event: a flow's start deadline, or the departure timer of
/// its next original packet — which lives, with the rest of the flow, in
/// the shard arena behind the generation-checked handle.
enum Step {
    Start { local: u32 },
    Emit { h: ArenaHandle },
}

/// Live state of one resident flow: one arena slot from the flow's start
/// event to its close — so a shard's memory tracks its *resident* flow
/// count, not its total assignment — and the only record an emission
/// touches. A flow has exactly one emission pending at any time: the
/// packet its timer is armed for is a field here.
struct FlowState {
    f: u64,
    rng: SimRng,
    start: Nanos,
    /// The pending original packet (flow-relative timestamp)...
    pkt: FlowPkt,
    /// ...and its index in the flow's original sequence.
    orig_idx: u64,
    /// Original packets still to draw after the pending one.
    remaining: u64,
    shaper: FlowShaper<StackDecider>,
    core: Option<Box<dyn PadderCore>>,
    /// Pooled emission buffer, only for owned-direction (re-emitting)
    /// padding cores; pure-padding and policy-only flows fold inline.
    buffer: Option<Vec<FlowPkt>>,
    tally: Tally,
}

/// The per-flow budget: a shard's working set is this times its
/// resident flows, and every emission reads one.
const _: () = assert!(
    std::mem::size_of::<FlowState>() <= 256,
    "FlowState outgrew its 256-byte (four cache line) budget"
);

/// Order-independent per-emission fold (an FNV-style mix summed with
/// wrapping adds, so shard layout and merge order cannot change it).
fn mix_emission(ts: Nanos, dir: Direction, size: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [ts.as_nanos(), dir as u64 + 1, u64::from(size)] {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One shard's share of the result: the report's sums over its flows
/// (`peak_resident` and `sim_end` are global and left for the merge),
/// plus every flow's first and last instant for the residency sweep.
struct ShardOut {
    report: FleetReport,
    starts: Vec<u64>,
    ends: Vec<u64>,
}

/// Drive `cfg.flows` defended flows through `registry` and return the
/// aggregate report. See the module docs for the execution model.
pub fn run_fleet(cfg: &FleetConfig, registry: &PolicyRegistry) -> FleetReport {
    let shards = if cfg.shards == 0 {
        DEFAULT_SHARDS
    } else {
        cfg.shards
    }
    .min(cfg.flows.max(1));
    let root = SimRng::new(cfg.seed);
    let per = cfg.flows.div_ceil(shards);
    let shard_ids: Vec<u64> = (0..shards).collect();
    let mut sp = netsim::telemetry::span("fleet.run");
    let outs = par::par_map(&shard_ids, |_, &s| {
        let lo = (s * per).min(cfg.flows);
        let hi = ((s + 1) * per).min(cfg.flows);
        run_shard(cfg, registry, &root, lo, hi)
    });

    // Merge. Sums and the checksum are order-independent; the interval
    // sweep for peak residency is global, so shard layout cannot skew it.
    let mut report = FleetReport::default();
    let mut starts: Vec<u64> = Vec::with_capacity(cfg.flows as usize);
    let mut ends: Vec<u64> = Vec::with_capacity(cfg.flows as usize);
    for out in outs {
        let r = out.report;
        report.flows += r.flows;
        report.egress_pkts += r.egress_pkts;
        report.egress_bytes += r.egress_bytes;
        report.dummy_pkts += r.dummy_pkts;
        report.dummy_bytes += r.dummy_bytes;
        report.checksum = report.checksum.wrapping_add(r.checksum);
        report.events += r.events;
        report.arena_high_water = report.arena_high_water.max(r.arena_high_water);
        report.audit.checks += r.audit.checks;
        report.audit.violations.extend(r.audit.violations);
        starts.extend(out.starts);
        ends.extend(out.ends);
    }
    report.peak_resident = peak_resident(&mut starts, &mut ends);
    report.sim_end = Nanos(ends.last().copied().unwrap_or(0));
    netsim::tm_gauge!("netsim.fleet.peak_resident").set_max(report.peak_resident);
    netsim::tm_gauge!("netsim.fleet.arena_high_water").set_max(report.arena_high_water);
    sp.sim_window(Nanos::ZERO, report.sim_end);
    report
}

/// Peak of the residency step function over flows resident on
/// `[starts[i], ends[i]]`, ends inclusive: a flow ending where another
/// starts overlaps it. Only the two multisets matter, so each side is
/// sorted on its own (both are left sorted) and swept once.
fn peak_resident(starts: &mut [u64], ends: &mut [u64]) -> u64 {
    starts.sort_unstable();
    ends.sort_unstable();
    let (mut cur, mut peak, mut gone) = (0u64, 0u64, 0usize);
    for &s in starts.iter() {
        // Fewer flows have ended before `s` than started before it, so
        // `gone` stays in range.
        while ends[gone] < s {
            gone += 1;
            cur -= 1;
        }
        cur += 1;
        peak = peak.max(cur);
    }
    peak
}

fn run_shard(
    cfg: &FleetConfig,
    registry: &PolicyRegistry,
    root: &SimRng,
    lo: u64,
    hi: u64,
) -> ShardOut {
    let n = (hi - lo) as usize;
    let mut q: EventQueue<Step> = EventQueue::new();
    let mut arena: Arena<FlowState> = Arena::with_capacity(n.min(4096));
    let mut pool: VecPool<FlowPkt> = VecPool::new();
    let mut auditor = Auditor::new();
    auditor.set_enabled(true);
    let mut out = ShardOut {
        report: FleetReport::default(),
        starts: Vec::with_capacity(n),
        ends: Vec::with_capacity(n),
    };

    // Seed every assigned flow's start deadline. Only the start draw is
    // consumed here; the flow's full RNG stream is re-forked at the
    // start event (same fork, same order — identical stream).
    for f in lo..hi {
        let mut rng = root.fork(f + 1);
        let start = Nanos(rng.range_u64(0, cfg.window.as_nanos().max(1)));
        q.schedule_at(
            start,
            Step::Start {
                local: (f - lo) as u32,
            },
        );
    }

    while let Some((t, step)) = q.pop() {
        out.report.events += 1;
        auditor.check_monotonic(t);
        match step {
            Step::Start { local } => {
                let st = start_flow(cfg, registry, root, lo + u64::from(local), &mut pool);
                // First original packet departs at flow start.
                let at = st.start;
                let h = arena.alloc(st);
                q.schedule_at(at, Step::Emit { h });
            }
            Step::Emit { h } => {
                let st = arena
                    .get_mut(h)
                    .expect("flow state vanished (stale handle)");
                emit_packet(st, &mut auditor);
                if st.remaining > 0 {
                    st.remaining -= 1;
                    st.pkt = draw_packet(&mut st.rng, st.pkt.ts, cfg, false);
                    st.orig_idx += 1;
                    let intended = st.start + st.pkt.ts + st.shaper.shift();
                    q.schedule_at(intended, Step::Emit { h });
                } else {
                    let st = arena.take(h).expect("flow state at close");
                    close_flow(st, &mut pool, &mut out);
                }
            }
        }
    }

    debug_assert!(arena.is_empty(), "flows left resident after queue drain");
    // Sums are flushed where they already exist: once per shard here,
    // once per flow in `close_flow` — never per packet or per event.
    netsim::tm_counter!("netsim.fleet.events").add(out.report.events);
    netsim::tm_counter!("netsim.fleet.flows").add(out.report.flows);
    out.report.audit = auditor.report();
    out.report.arena_high_water = arena.high_water() as u64;
    out
}

/// Draw the next original packet of a flow: inter-packet gap, direction
/// (30 % outbound — request-like), and size.
fn draw_packet(rng: &mut SimRng, prev_ts: Nanos, cfg: &FleetConfig, first: bool) -> FlowPkt {
    let gap = if first {
        0
    } else {
        rng.range_u64(cfg.gap_ns.0, cfg.gap_ns.1.max(cfg.gap_ns.0))
    };
    let dir = if rng.next_below(100) < 30 {
        Direction::Out
    } else {
        Direction::In
    };
    let size = rng.range_u64(80, 1460) as u32;
    FlowPkt {
        ts: prev_ts + Nanos(gap),
        dir,
        size,
    }
}

/// Attach the flow through the shared control plane — the fleet is the
/// stack, so anything but an attachment (unbound, app-placed, degraded,
/// shed) runs pass-through — and set up its live state: the
/// stack-placement kernel, padding core, pooled buffer, and the first
/// original packet. The draw order (start, defense build, packet count,
/// first packet) is part of the flow's identity; the flow id doubles as
/// the strategy salt, as for any attached connection.
fn start_flow(
    cfg: &FleetConfig,
    registry: &PolicyRegistry,
    root: &SimRng,
    f: u64,
    pool: &mut VecPool<FlowPkt>,
) -> FlowState {
    let mut rng = root.fork(f + 1);
    let start = Nanos(rng.range_u64(0, cfg.window.as_nanos().max(1)));
    let dest = (f % u64::from(cfg.sites.max(1))) as u32;
    // One shared control plane, hit concurrently from every shard.
    let (fd, live) = match attach(registry, f as u32, dest, cfg.seed, &mut rng).attached() {
        Some(a) => (a.defense, a.shaper),
        None => (FlowDefense::passthrough(""), Box::new(NoopShaper) as _),
    };
    let shaper = FlowShaper::stack(&fd, EgressLabels::FLEET, &StackParams::default(), || live);
    let core = fd.padding;
    let owns = core.as_ref().is_some_and(|c| !c.owned_dirs().is_empty());
    let npkts = rng.range_u64(cfg.pkts_per_flow.0.max(1), cfg.pkts_per_flow.1.max(1));
    let pkt = draw_packet(&mut rng, Nanos::ZERO, cfg, true);
    FlowState {
        f,
        rng,
        start,
        pkt,
        orig_idx: 0,
        remaining: npkts.saturating_sub(1),
        shaper,
        core,
        buffer: owns.then(|| pool.take()),
        tally: Tally::default(),
    }
}

/// Shape and emit the flow's pending original packet: one
/// [`FlowShaper::step`], each piece audited, shown to the padding core
/// and folded (or held for an owned-direction core) as it leaves the
/// kernel.
fn emit_packet(st: &mut FlowState, auditor: &mut Auditor) {
    st.shaper.step(st.pkt, st.orig_idx, |shaped, intended| {
        // No emission may depart before its intended time.
        auditor.check_release(shaped.ts, intended, st.f);
        if let Some(c) = &mut st.core {
            c.on_data(shaped, &mut st.rng);
        }
        match &mut st.buffer {
            Some(buf) => buf.push(shaped),
            None => st.tally.fold(&shaped),
        }
    });
}

impl Tally {
    /// Account one final emission.
    fn fold(&mut self, pkt: &FlowPkt) {
        self.pkts += 1;
        self.bytes += u64::from(pkt.size);
        self.checksum = self
            .checksum
            .wrapping_add(mix_emission(pkt.ts, pkt.dir, pkt.size));
        self.end_rel = self.end_rel.max(pkt.ts);
    }
}

/// Close the flow: run the padding core's close-out over the held
/// stream (empty unless the core owns a direction), return the pooled
/// buffer, and fold the flow's totals into the shard's and into the
/// `netsim.fleet.*` counters.
fn close_flow(mut st: FlowState, pool: &mut VecPool<FlowPkt>, out: &mut ShardOut) {
    let held = st.buffer.take();
    let mut closed = Closed::default();
    if let Some(mut core) = st.core.take() {
        let held = held.as_deref().unwrap_or(&[]);
        closed = close_padding(&mut *core, held, &mut st.rng, |p| st.tally.fold(&p));
    }
    if let Some(buf) = held {
        pool.put(buf);
    }
    netsim::tm_counter!("netsim.fleet.egress_pkts").add(st.tally.pkts);
    netsim::tm_counter!("netsim.fleet.egress_bytes").add(st.tally.bytes);
    netsim::tm_counter!("netsim.fleet.dummy_pkts").add(closed.dummy_pkts);
    let r = &mut out.report;
    r.flows += 1;
    r.egress_pkts += st.tally.pkts;
    r.egress_bytes += st.tally.bytes;
    r.dummy_pkts += closed.dummy_pkts;
    r.dummy_bytes += closed.dummy_bytes;
    r.checksum = r.checksum.wrapping_add(st.tally.checksum);
    out.starts.push(st.start.as_nanos());
    out.ends.push((st.start + st.tally.end_rel).as_nanos());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::{CloseOut, DefenseCtx};
    use crate::policy::ObfuscationPolicy;
    use crate::registry::PolicyKey;
    use std::sync::Arc;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            seed: 0xF1EE7,
            flows: 800,
            shards: 16,
            sites: 8,
            pkts_per_flow: (5, 12),
            gap_ns: (10_000, 200_000),
            window: Nanos::from_millis(1),
        }
    }

    fn registry_with_default() -> PolicyRegistry {
        let reg = PolicyRegistry::new();
        let mut p = ObfuscationPolicy::passthrough("fleet-test");
        p.delay = crate::policy::DelaySpec::UniformFraction {
            lo_frac: 0.05,
            hi_frac: 0.20,
        };
        reg.publish(PolicyKey::Default, p);
        reg
    }

    fn checks(r: &FleetReport) -> (u64, u64, u64, u64, u64, u64) {
        (
            r.flows,
            r.egress_pkts,
            r.egress_bytes,
            r.checksum,
            r.peak_resident,
            r.audit.checks,
        )
    }

    #[test]
    fn report_is_invariant_to_threads_and_shards() {
        let reg = registry_with_default();
        let base_cfg = small_cfg();
        par::set_threads(1);
        let reference = run_fleet(&base_cfg, &reg);
        assert!(reference.clean(), "{:?}", reference.audit.violations);
        assert_eq!(reference.flows, base_cfg.flows);
        assert!(reference.egress_pkts > 0);
        for threads in [2usize, 4, 8] {
            par::set_threads(threads);
            let r = run_fleet(&base_cfg, &reg);
            assert_eq!(checks(&r), checks(&reference), "threads={threads}");
            // The one field that follows the shard layout is still
            // independent of which worker drives a shard.
            assert_eq!(r.arena_high_water, reference.arena_high_water);
        }
        par::set_threads(1);
        for shards in [1u64, 3, 64, 800] {
            let cfg = FleetConfig {
                shards,
                ..small_cfg()
            };
            let r = run_fleet(&cfg, &reg);
            assert_eq!(checks(&r), checks(&reference), "shards={shards}");
        }
        par::set_threads(0);
    }

    #[test]
    fn unbound_registry_is_passthrough() {
        let reg = PolicyRegistry::new();
        let cfg = small_cfg();
        let r = run_fleet(&cfg, &reg);
        assert!(r.clean());
        assert_eq!(r.flows, cfg.flows);
        assert_eq!(r.dummy_pkts, 0);
        // Passthrough: one emission per original packet, bounds implied
        // by the per-flow packet range.
        assert!(r.egress_pkts >= cfg.flows * cfg.pkts_per_flow.0);
        assert!(r.egress_pkts <= cfg.flows * cfg.pkts_per_flow.1);
        // The fleet is the stack: an app-placed binding is the
        // application's to enforce, and a degraded one is pass-through.
        let mut bad = ObfuscationPolicy::split_and_delay("bad");
        bad.size = crate::policy::SizeSpec::SplitAbove { threshold: 0 };
        reg.publish(PolicyKey::Destination(0), bad);
        reg.bind_defense(
            PolicyKey::Default,
            Arc::new(ObfuscationPolicy::split_and_delay("app-side")),
            crate::defense::Placement::App,
        );
        assert_eq!(checks(&run_fleet(&cfg, &reg)), checks(&r));
        assert!(reg.degraded_count() > 0);
    }

    #[test]
    fn overlapping_window_yields_full_residency() {
        // Zero-width start window: every flow starts at t = 0 and stays
        // resident past it, so the peak equals the population.
        let reg = PolicyRegistry::new();
        let cfg = FleetConfig {
            flows: 200,
            shards: 1,
            window: Nanos(1),
            ..small_cfg()
        };
        let r = run_fleet(&cfg, &reg);
        assert_eq!(r.peak_resident, 200);
        // One arena slot per resident flow: with one shard the arena's
        // peak is the population's.
        assert_eq!(r.arena_high_water, 200);
    }

    /// An owned-direction core: drops the originals of `In` and re-emits
    /// them shifted, plus one dummy — exercising the pooled buffer path.
    struct Reemit {
        held: Vec<FlowPkt>,
    }
    impl PadderCore for Reemit {
        fn owned_dirs(&self) -> &'static [Direction] {
            &[Direction::In]
        }
        fn on_data(&mut self, pkt: FlowPkt, _rng: &mut SimRng) {
            if pkt.dir == Direction::In {
                self.held.push(pkt);
            }
        }
        fn on_close(&mut self, _rng: &mut SimRng) -> CloseOut {
            let mut emits: Vec<crate::defense::Emit> = self
                .held
                .drain(..)
                .map(|p| crate::defense::Emit {
                    pkt: FlowPkt {
                        ts: p.ts + Nanos(500),
                        ..p
                    },
                    dummy: false,
                })
                .collect();
            emits.push(crate::defense::Emit {
                pkt: FlowPkt {
                    ts: Nanos(42),
                    dir: Direction::In,
                    size: 1514,
                },
                dummy: true,
            });
            CloseOut {
                emits,
                real_done: None,
            }
        }
    }

    struct ReemitDefense;
    impl crate::defense::Defense for ReemitDefense {
        fn name(&self) -> &str {
            "reemit-test"
        }
        fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> crate::defense::FlowDefense {
            crate::defense::FlowDefense {
                padding: Some(Box::new(Reemit { held: Vec::new() })),
                ..crate::defense::FlowDefense::passthrough("reemit-test")
            }
        }
    }

    #[test]
    fn owned_direction_core_buffers_and_merges() {
        let reg = PolicyRegistry::new();
        reg.bind_defense(
            PolicyKey::Default,
            Arc::new(ReemitDefense),
            crate::defense::Placement::Stack,
        );
        let cfg = FleetConfig {
            flows: 120,
            shards: 8,
            ..small_cfg()
        };
        par::set_threads(1);
        let one = run_fleet(&cfg, &reg);
        par::set_threads(4);
        let four = run_fleet(&cfg, &reg);
        par::set_threads(0);
        assert!(one.clean(), "{:?}", one.audit.violations);
        assert_eq!(one.dummy_pkts, cfg.flows, "one dummy per flow");
        assert_eq!(one.dummy_bytes, cfg.flows * 1514);
        assert_eq!(checks(&one), checks(&four));
        assert_eq!(one.dummy_pkts, four.dummy_pkts);
    }

    #[test]
    fn empty_fleet_is_a_clean_noop() {
        let reg = PolicyRegistry::new();
        let cfg = FleetConfig {
            flows: 0,
            ..small_cfg()
        };
        let r = run_fleet(&cfg, &reg);
        assert!(r.clean());
        assert_eq!(r.flows, 0);
        assert_eq!(r.egress_pkts, 0);
        assert_eq!(r.peak_resident, 0);
    }

    /// Sweep `(start, end)` pairs through [`peak_resident`].
    fn sweep(iv: &[(u64, u64)]) -> u64 {
        let (mut starts, mut ends): (Vec<u64>, Vec<u64>) = iv.iter().copied().unzip();
        peak_resident(&mut starts, &mut ends)
    }

    #[test]
    fn peak_resident_sweep_counts_overlap() {
        assert_eq!(sweep(&[(0, 10), (5, 15), (11, 20), (30, 31)]), 2);
        assert_eq!(sweep(&[(0, 100), (10, 20), (12, 14)]), 3);
        // A flow ending exactly where another starts overlaps it (ends
        // are inclusive).
        assert_eq!(sweep(&[(0, 10), (10, 20)]), 2);
        assert_eq!(sweep(&[]), 0);
    }

    #[test]
    fn peak_resident_sweep_matches_brute_force() {
        // Few distinct instants, so coincident starts, coincident ends,
        // end == start and zero-length flows all occur.
        let mut rng = SimRng::new(0x5EE9);
        for round in 0..20 {
            let iv: Vec<(u64, u64)> = (0..200)
                .map(|_| {
                    let s = rng.range_u64(0, 60);
                    (s, s + rng.range_u64(0, 25))
                })
                .collect();
            // The peak is reached at some flow's start instant.
            let brute = iv
                .iter()
                .map(|&(t, _)| iv.iter().filter(|&&(s, e)| s <= t && t <= e).count() as u64)
                .max()
                .unwrap_or(0);
            assert_eq!(sweep(&iv), brute, "round {round}");
        }
    }
}
