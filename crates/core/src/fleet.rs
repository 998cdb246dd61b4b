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
//!   timers, an [`Arena`] of in-flight emission descriptors
//!   (generation-checked handles stored inside the timer events), and a
//!   [`VecPool`] recycling the buffers of padding defenses that re-emit
//!   whole directions. Shards run under [`netsim::par`]; per the
//!   determinism contract each flow forks its RNG from the root seed
//!   and its stable global index, so results are bit-identical at any
//!   `STOB_THREADS` *and* any shard count.
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
//! bytes, dummies, events) — see OBSERVABILITY.md. The `fleet` bench
//! bin drives this engine at 10k–1M flows and commits its throughput
//! trajectory to `BENCH_8.json`.

use crate::defense::{
    close_padding, Closed, DefenseCtx, FlowDefense, FlowPkt, FlowShaper, PadderCore, StackDecider,
    StackParams,
};
use crate::registry::PolicyRegistry;
use netsim::{
    par, Arena, ArenaHandle, AuditReport, Auditor, Direction, EventQueue, FlowId, Nanos, SimRng,
    VecPool,
};
use stack::egress::EgressLabels;
use stack::FlowTable;

/// Fixed shard count the engine defaults to. Chosen comfortably above
/// any realistic `STOB_THREADS` so thread count only changes which
/// worker drives a shard, never how flows are grouped. A perf-only
/// knob: results are invariant to it (see module docs).
pub const DEFAULT_SHARDS: u64 = 64;

/// Fleet run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Root seed; flow `f` forks its RNG as `root.fork(f + 1)`.
    pub seed: u64,
    /// Total flows to drive.
    pub flows: u64,
    /// Shard count (perf knob; results are invariant). 0 = default.
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
/// function of `(config, registry contents)` — invariant to thread
/// count and shard count — except nothing: all of it is.
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
    /// Peak in-flight emission descriptors in any one shard's arena.
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

/// One flow's completion record, summarised into [`FleetReport`]. Held
/// for every flow until the merge, so it carries only what that reads.
struct FlowDone {
    start: Nanos,
    tally: Tally,
    dummy_pkts: u64,
    dummy_bytes: u64,
}

/// Per-shard event: either a flow's start deadline or the departure
/// timer of its next original packet, whose descriptor lives in the
/// shard arena behind a generation-checked handle.
enum Step {
    Start { local: u32 },
    Emit { local: u32, h: ArenaHandle },
}

/// In-flight emission descriptor: the next original packet (flow-relative
/// timestamp) and its index in the flow's original sequence.
struct Pending {
    pkt: FlowPkt,
    orig_idx: u64,
}

/// Live state of one resident flow. Created at the flow's start event,
/// dropped at close — so a shard's memory tracks its *resident* flow
/// count, not its total assignment.
struct FlowState {
    f: u64,
    rng: SimRng,
    start: Nanos,
    /// Original packets still to draw after the pending one.
    remaining: u64,
    shaper: FlowShaper<StackDecider>,
    core: Option<Box<dyn PadderCore>>,
    /// Pooled emission buffer, only for owned-direction (re-emitting)
    /// padding cores; pure-padding and policy-only flows fold inline.
    buffer: Option<Vec<FlowPkt>>,
    tally: Tally,
}

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

struct ShardOut {
    done: Vec<FlowDone>,
    audit: AuditReport,
    events: u64,
    arena_high_water: u64,
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
    let mut intervals: Vec<(u64, u64)> = Vec::with_capacity(cfg.flows as usize);
    for out in outs {
        report.events += out.events;
        report.arena_high_water = report.arena_high_water.max(out.arena_high_water);
        report.audit.checks += out.audit.checks;
        report.audit.violations.extend(out.audit.violations);
        for d in &out.done {
            let end = d.start + d.tally.end_rel;
            report.flows += 1;
            report.egress_pkts += d.tally.pkts;
            report.egress_bytes += d.tally.bytes;
            report.dummy_pkts += d.dummy_pkts;
            report.dummy_bytes += d.dummy_bytes;
            report.checksum = report.checksum.wrapping_add(d.tally.checksum);
            report.sim_end = report.sim_end.max(end);
            intervals.push((d.start.as_nanos(), end.as_nanos()));
        }
    }
    report.peak_resident = peak_resident(&mut intervals);
    netsim::tm_gauge!("netsim.fleet.peak_resident").set_max(report.peak_resident);
    netsim::tm_gauge!("netsim.fleet.arena_high_water").set_max(report.arena_high_water);
    sp.sim_window(Nanos::ZERO, report.sim_end);
    report
}

/// Peak of the residency step function: sweep `(start, end)` intervals,
/// counting an interval as resident on `[start, end]` (ends processed
/// before coincident starts).
fn peak_resident(intervals: &mut [(u64, u64)]) -> u64 {
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(intervals.len() * 2);
    for &mut (s, e) in intervals.iter_mut() {
        events.push((s, 1));
        // End marker strictly after `e` so a flow is resident through
        // its final emission instant.
        events.push((e + 1, -1));
    }
    events.sort_unstable();
    let mut cur = 0i64;
    let mut peak = 0i64;
    for (_, d) in events {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as u64
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
    let mut arena: Arena<Pending> = Arena::with_capacity(n.min(4096));
    let mut pool: VecPool<FlowPkt> = VecPool::new();
    let mut flows: FlowTable<FlowState> = FlowTable::with_capacity(n);
    let mut auditor = Auditor::new();
    auditor.set_enabled(true);
    let mut done: Vec<FlowDone> = Vec::with_capacity(n);
    let mut events = 0u64;

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
        events += 1;
        auditor.check_monotonic(t);
        netsim::tm_counter!("netsim.fleet.events").inc();
        match step {
            Step::Start { local } => {
                let f = lo + u64::from(local);
                let mut st = start_flow(cfg, registry, root, f, &mut pool);
                let pkt = draw_packet(&mut st.rng, Nanos::ZERO, cfg, true);
                let h = arena.alloc(Pending { pkt, orig_idx: 0 });
                // First original packet departs at flow start.
                q.schedule_at(st.start, Step::Emit { local, h });
                flows.insert(FlowId(local), st);
            }
            Step::Emit { local, h } => {
                let p = arena
                    .take(h)
                    .expect("emission descriptor vanished (stale handle)");
                let fid = FlowId(local);
                let st = flows.get_mut(&fid).expect("flow state for pending emit");
                emit_packet(st, &p, &mut auditor);
                if st.remaining > 0 {
                    st.remaining -= 1;
                    let next = draw_packet(&mut st.rng, p.pkt.ts, cfg, false);
                    let intended = st.start + next.ts + st.shaper.shift();
                    let h = arena.alloc(Pending {
                        pkt: next,
                        orig_idx: p.orig_idx + 1,
                    });
                    q.schedule_at(intended, Step::Emit { local, h });
                } else {
                    let st = flows.remove(&fid).expect("flow state at close");
                    done.push(close_flow(st, &mut pool));
                }
            }
        }
    }

    debug_assert!(flows.is_empty(), "flows left resident after queue drain");
    debug_assert!(arena.is_empty(), "descriptors leaked in the arena");
    ShardOut {
        done,
        audit: auditor.report(),
        events,
        arena_high_water: arena.high_water() as u64,
    }
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

/// Resolve the flow's defense through the shared registry and set up its
/// live state: the stack-placement kernel, padding core, pooled buffer.
fn start_flow(
    cfg: &FleetConfig,
    registry: &PolicyRegistry,
    root: &SimRng,
    f: u64,
    pool: &mut VecPool<FlowPkt>,
) -> FlowState {
    netsim::tm_counter!("netsim.fleet.flows").inc();
    let mut rng = root.fork(f + 1);
    let start = Nanos(rng.range_u64(0, cfg.window.as_nanos().max(1)));
    let dest = (f % u64::from(cfg.sites.max(1))) as u32;
    // One shared control plane, hit concurrently from every shard.
    let fd = match registry.resolve_defense(f as u32, dest) {
        Some(b) => b.defense.build(&DefenseCtx::default(), &mut rng),
        None => FlowDefense::passthrough(""),
    };
    let params = StackParams {
        seed: cfg.seed,
        flow_salt: f,
        ..StackParams::default()
    };
    let shaper = FlowShaper::stack(&fd, EgressLabels::FLEET, &params);
    let core = fd.padding;
    let owns = core.as_ref().is_some_and(|c| !c.owned_dirs().is_empty());
    let npkts = rng.range_u64(cfg.pkts_per_flow.0.max(1), cfg.pkts_per_flow.1.max(1));
    FlowState {
        f,
        rng,
        start,
        remaining: npkts.saturating_sub(1),
        shaper,
        core,
        buffer: owns.then(|| pool.take()),
        tally: Tally::default(),
    }
}

/// Shape and emit one original packet: one [`FlowShaper::step`], each
/// piece audited, shown to the padding core and folded (or held for an
/// owned-direction core) as it leaves the kernel.
fn emit_packet(st: &mut FlowState, p: &Pending, auditor: &mut Auditor) {
    st.shaper.step(p.pkt, p.orig_idx, |shaped, intended| {
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
        netsim::tm_counter!("netsim.fleet.egress_pkts").inc();
        netsim::tm_counter!("netsim.fleet.egress_bytes").add(u64::from(pkt.size));
    }
}

/// Close the flow: run the padding core's close-out over the held
/// stream (empty unless the core owns a direction), return the pooled
/// buffer, and summarise.
fn close_flow(mut st: FlowState, pool: &mut VecPool<FlowPkt>) -> FlowDone {
    let held = st.buffer.take();
    let mut closed = Closed::default();
    if let Some(mut core) = st.core.take() {
        let held = held.as_deref().unwrap_or(&[]);
        closed = close_padding(&mut *core, held, &mut st.rng, |p| st.tally.fold(&p));
    }
    netsim::tm_counter!("netsim.fleet.dummy_pkts").add(closed.dummy_pkts);
    if let Some(buf) = held {
        pool.put(buf);
    }
    FlowDone {
        start: st.start,
        tally: st.tally,
        dummy_pkts: closed.dummy_pkts,
        dummy_bytes: closed.dummy_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::CloseOut;
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
    }

    #[test]
    fn overlapping_window_yields_full_residency() {
        // Zero-width start window: every flow starts at t = 0 and stays
        // resident past it, so the peak equals the population.
        let reg = PolicyRegistry::new();
        let cfg = FleetConfig {
            flows: 200,
            window: Nanos(1),
            ..small_cfg()
        };
        let r = run_fleet(&cfg, &reg);
        assert_eq!(r.peak_resident, 200);
        assert!(r.arena_high_water > 0);
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

    #[test]
    fn peak_resident_sweep_counts_overlap() {
        let mut iv = vec![(0u64, 10), (5, 15), (11, 20), (30, 31)];
        assert_eq!(peak_resident(&mut iv), 2);
        let mut nested = vec![(0u64, 100), (10, 20), (12, 14)];
        assert_eq!(peak_resident(&mut nested), 3);
        // A flow ending exactly where another starts overlaps it (ends
        // are inclusive).
        let mut touching = vec![(0u64, 10), (10, 20)];
        assert_eq!(peak_resident(&mut touching), 2);
        let mut none: Vec<(u64, u64)> = Vec::new();
        assert_eq!(peak_resident(&mut none), 0);
    }
}
