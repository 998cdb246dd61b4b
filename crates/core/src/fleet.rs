//! Fleet-scale defended-flow engine: many flows, sharded, one shared
//! control plane.
//!
//! Everything else in the repo simulates one host pair per visit; the
//! paper's deployment argument (§5) is about *providers* — a network
//! stack shaping tens of thousands of concurrent flows behind one
//! policy control plane. This module is that regime's engine:
//!
//! * **Sharded, flow by flow.** Flows are partitioned into a fixed
//!   number of shards (independent of thread count), and a shard runs
//!   its flows in index order, each to completion: attach, then every
//!   original packet at its departure timer, then the close-out. The
//!   flows share no simulated resource — a flow's emissions are a
//!   function of its RNG (forked from the root seed by its stable global
//!   index), its resolved defense and the registry, which the fleet only
//!   reads — so no queue interleaves them: the one live flow record is a
//!   local, and the order flows run in changes no result. What a shard
//!   keeps per flow is its row of the run's one residency table, where a
//!   flow's `(start, end)` lands as it closes — 16 B per flow, the only
//!   memory that follows the population — and, while the shard runs,
//!   the instant of each flow's last departure timer, swept at the end
//!   into [`FleetReport::arena_high_water`]. The merge sums reports and
//!   copies no intervals. Shards run under [`netsim::par`], so results
//!   are bit-identical at any `STOB_THREADS` *and* any shard count (bar
//!   that per-shard peak).
//! * **One shared [`PolicyRegistry`].** Every flow resolves its defense
//!   through the registry (flow → destination → default precedence)
//!   concurrently from all shards, exactly like a provider fleet
//!   hitting one control plane. The registry must have no circuit
//!   breaker ([`PolicyRegistry::set_breaker`]): a breaker hears every
//!   attach outcome and counts attempts, so with one the results would
//!   follow the order flows attach in, which threads interleave.
//! * **One shaping kernel per flow.** Each resolved defense becomes a
//!   `FlowShaper` at stack placement ([`EgressLabels::FLEET`]) — the
//!   kernel, decider and close-out `enforce_flow` runs over recorded
//!   traces, here driven one generated packet at a time. Each surviving
//!   piece is folded as it leaves the kernel and the padding close-out
//!   at the flow's end, so no per-flow schedule or buffer is ever
//!   materialized.
//!
//! Workload: flows are synthetic page-load-like packet sequences drawn
//! lazily from the flow's own RNG (gap, direction, size per packet),
//! staggered over a start window so a large population is resident at
//! once. Checksums fold each emission order-independently, so the
//! aggregate check value is invariant to shard layout; the per-shard
//! [`Auditor`] checks that each flow's events (its start, then its
//! departure timers) never run backwards and that no emission departs
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

use crate::defense::{FlowDefense, FlowPkt, FlowShaper, StackDecider, StackParams};
use crate::registry::PolicyRegistry;
use crate::sockopt::attach;
use netsim::{par, AuditReport, Auditor, Direction, Nanos, SimRng};
use stack::egress::EgressLabels;
use std::sync::Mutex;

/// Fixed shard count the engine defaults to. Chosen comfortably above
/// any realistic `STOB_THREADS` so thread count only changes which
/// worker drives a shard, never how flows are grouped. A perf-only
/// knob: results are invariant to it, bar the per-shard residency peak
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
    /// Flow starts plus original-packet departure timers, over all
    /// flows.
    pub events: u64,
    /// Peak flows any one shard holds at once, a flow counted from its
    /// start to its last departure timer (ends inclusive): the slots a
    /// shard-wide store of live flows would need. Changes with the shard
    /// count.
    pub arena_high_water: u64,
    /// Merged invariant report (per-flow monotone events, no early
    /// departures).
    pub audit: AuditReport,
}

impl FleetReport {
    /// True when the run finished with no invariant violations.
    pub fn clean(&self) -> bool {
        self.audit.violations.is_empty()
    }

    /// Fold one shard's report in: sums, the checksum and the audit add
    /// up, the per-shard peak takes the max. `peak_resident` and
    /// `sim_end` are global and left to the caller.
    fn absorb(&mut self, r: FleetReport) {
        self.flows += r.flows;
        self.egress_pkts += r.egress_pkts;
        self.egress_bytes += r.egress_bytes;
        self.dummy_pkts += r.dummy_pkts;
        self.dummy_bytes += r.dummy_bytes;
        self.checksum = self.checksum.wrapping_add(r.checksum);
        self.events += r.events;
        self.arena_high_water = self.arena_high_water.max(r.arena_high_water);
        self.audit.checks += r.audit.checks;
        self.audit.violations.extend(r.audit.violations);
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

/// Live state of the flow a shard is running: a local from the flow's
/// attach to its close, and the only record an emission touches.
struct FlowState {
    f: u64,
    rng: SimRng,
    start: Nanos,
    /// Original packets in the flow (at least one).
    npkts: u64,
    /// The shaping kernel, padding core included.
    shaper: FlowShaper<StackDecider>,
    tally: Tally,
}

/// The per-flow budget: one record per running shard, and every
/// emission reads it.
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

/// Drive `cfg.flows` defended flows through `registry` and return the
/// aggregate report. See the module docs for the execution model.
///
/// `registry` must have no circuit breaker installed: a breaker counts
/// attach attempts, so with one the report would follow the order the
/// shards' threads happen to attach flows in.
pub fn run_fleet(cfg: &FleetConfig, registry: &PolicyRegistry) -> FleetReport {
    debug_assert!(
        registry.breaker_stats().is_none(),
        "run_fleet is order-free only without a circuit breaker"
    );
    let shards = if cfg.shards == 0 {
        DEFAULT_SHARDS
    } else {
        cfg.shards
    }
    .min(cfg.flows.max(1));
    let root = SimRng::new(cfg.seed);
    let per = cfg.flows.div_ceil(shards).max(1);
    // The residency table: shard `s` writes the rows of flows `s * per ..`
    // in place (the trailing shards of an uneven split get none).
    let (mut starts, mut ends) = (vec![0; cfg.flows as usize], vec![0; cfg.flows as usize]);
    let mut sp = netsim::telemetry::span("fleet.run");
    let reports = {
        let rows: Vec<Mutex<(&mut [u64], &mut [u64])>> = starts
            .chunks_mut(per as usize)
            .zip(ends.chunks_mut(per as usize))
            .map(Mutex::new)
            .chain(std::iter::repeat_with(Mutex::default))
            .take(shards as usize)
            .collect();
        par::par_map(&rows, |s, rows| {
            let mut rows = rows.lock().expect("a shard's rows are its own");
            run_shard(cfg, registry, &root, s as u64 * per, &mut rows)
        })
    };

    // Merge. Sums and the checksum are order-independent; the interval
    // sweep for peak residency is global, so shard layout cannot skew it.
    let mut report = FleetReport::default();
    reports.into_iter().for_each(|r| report.absorb(r));
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

/// Run flows `lo..` (one per row of `rows`) to completion, in index
/// order, and return the report's sums over them (`peak_resident` and
/// `sim_end` are global and left for the merge); each flow's interval
/// goes to its row as it closes.
fn run_shard(
    cfg: &FleetConfig,
    registry: &PolicyRegistry,
    root: &SimRng,
    lo: u64,
    (starts, ends): &mut (&mut [u64], &mut [u64]),
) -> FleetReport {
    let mut auditor = Auditor::new();
    auditor.set_enabled(true);
    let mut report = FleetReport::default();
    // Each flow's last departure timer, for the shard's residency peak.
    let mut lasts = Vec::with_capacity(starts.len());
    for (i, (start, end)) in starts.iter_mut().zip(ends.iter_mut()).enumerate() {
        let mut st = start_flow(cfg, registry, root, lo + i as u64);
        lasts.push(run_flow(cfg, &mut st, &mut auditor).as_nanos());
        // The flow's start, then one departure timer per original packet.
        report.events += 1 + st.npkts;
        (*start, *end) = close_flow(st, &mut report);
    }
    // Sums are flushed where they already exist: once per shard here,
    // once per flow in `close_flow` — never per packet or per event.
    netsim::tm_counter!("netsim.fleet.events").add(report.events);
    netsim::tm_counter!("netsim.fleet.flows").add(report.flows);
    report.audit = auditor.report();
    // Sorting the shard's rows of starts in place is harmless: the
    // merge's sweep reads the table as two multisets.
    report.arena_high_water = peak_resident(starts, &mut lasts);
    report
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

/// Fork flow `f`'s RNG from the root by its global index, draw its start
/// instant, attach it through the shared control plane — the fleet is
/// the stack, so anything but an attachment (unbound, app-placed,
/// degraded, shed) runs pass-through — and set up its live state: the
/// stack-placement kernel, handed the attachment's validated defense
/// (padding core included) and its seed and salt, and the packet count.
/// The kernel lowers the policy once, and only when its size or delay
/// stage is active. The draw order (start, defense build, packet count,
/// then the packets in [`run_flow`]) is part of the flow's identity; the
/// flow id doubles as the strategy salt, as for any attached connection.
fn start_flow(cfg: &FleetConfig, registry: &PolicyRegistry, root: &SimRng, f: u64) -> FlowState {
    let mut rng = root.fork(f + 1);
    let start = Nanos(rng.range_u64(0, cfg.window.as_nanos().max(1)));
    let dest = (f % u64::from(cfg.sites.max(1))) as u32;
    // One shared control plane, hit concurrently from every shard.
    let (fd, params) = match attach(registry, f as u32, dest, cfg.seed, &mut rng).attached() {
        Some(a) => (a.defense, a.params),
        None => (FlowDefense::passthrough(""), StackParams::default()),
    };
    let shaper = FlowShaper::stack(fd, EgressLabels::FLEET, &params);
    let npkts = rng.range_u64(cfg.pkts_per_flow.0.max(1), cfg.pkts_per_flow.1.max(1));
    FlowState {
        f,
        rng,
        start,
        npkts,
        shaper,
        tally: Tally::default(),
    }
}

/// Emit every original packet of the flow, each at its departure timer:
/// the first at the flow's start, each later one at its own timestamp
/// plus the kernel's shift once the previous one has left. The flow's
/// events — its start, then its timers — are audited against the flow's
/// own previous event. Returns the last timer's instant.
fn run_flow(cfg: &FleetConfig, st: &mut FlowState, auditor: &mut Auditor) -> Nanos {
    // The start event has no event of its flow before it.
    auditor.check_monotonic_after(Nanos::ZERO, st.start, st.f);
    let mut pkt = draw_packet(&mut st.rng, Nanos::ZERO, cfg, true);
    let (mut prev, mut at) = (st.start, st.start);
    for idx in 0..st.npkts {
        if idx > 0 {
            pkt = draw_packet(&mut st.rng, pkt.ts, cfg, false);
            (prev, at) = (at, st.start + pkt.ts + st.shaper.shift());
        }
        auditor.check_monotonic_after(prev, at, st.f);
        emit_packet(st, pkt, idx, auditor);
    }
    at
}

/// Shape and emit original packet `idx`: one [`FlowShaper::step`], each
/// piece audited (owned-direction pieces included) and, if it survives,
/// folded as it leaves the kernel — the fold is order-independent, so
/// nothing waits for the close.
fn emit_packet(st: &mut FlowState, pkt: FlowPkt, idx: u64, auditor: &mut Auditor) {
    st.shaper
        .step(pkt, idx, &mut st.rng, |shaped, intended, survives| {
            // No emission may depart before its intended time.
            auditor.check_release(shaped.ts, intended, st.f);
            if survives {
                st.tally.fold(&shaped);
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

/// Close the flow: fold the padding core's close-out into its tally,
/// then fold the flow's totals into the shard's report and into the
/// `netsim.fleet.*` counters. Returns the flow's first and last instant.
fn close_flow(mut st: FlowState, r: &mut FleetReport) -> (u64, u64) {
    let closed = st
        .shaper
        .close(&mut st.rng, |emits| {
            emits.iter().for_each(|e| st.tally.fold(&e.pkt))
        })
        .unwrap_or_default();
    netsim::tm_counter!("netsim.fleet.egress_pkts").add(st.tally.pkts);
    netsim::tm_counter!("netsim.fleet.egress_bytes").add(st.tally.bytes);
    netsim::tm_counter!("netsim.fleet.dummy_pkts").add(closed.dummy_pkts);
    r.flows += 1;
    r.egress_pkts += st.tally.pkts;
    r.egress_bytes += st.tally.bytes;
    r.dummy_pkts += closed.dummy_pkts;
    r.dummy_bytes += closed.dummy_bytes;
    r.checksum = r.checksum.wrapping_add(st.tally.checksum);
    let end = st.start + st.tally.end_rel;
    (st.start.as_nanos(), end.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::{CloseOut, DefenseCtx, PadderCore, Placement};
    use crate::policy::ObfuscationPolicy;
    use crate::registry::PolicyKey;
    use crate::sockopt::publish_json;
    use netsim::{Arena, ArenaHandle, EventQueue};
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

    fn checks(r: &FleetReport) -> (u64, u64, u64, u64, u64, u64, u64) {
        (
            r.flows,
            r.egress_pkts,
            r.egress_bytes,
            r.checksum,
            r.peak_resident,
            r.sim_end.as_nanos(),
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
        // Uneven splits: 9 flows over 4 shards leave the last shard no
        // rows of the residency table, 10 over 4 leave it one.
        for flows in [9u64, 10] {
            let cfg = |shards| FleetConfig {
                flows,
                shards,
                ..small_cfg()
            };
            let whole = run_fleet(&cfg(1), &reg);
            assert_eq!(whole.flows, flows);
            assert!(whole.peak_resident > 0);
            for threads in [1usize, 4] {
                par::set_threads(threads);
                let r = run_fleet(&cfg(4), &reg);
                assert_eq!(
                    checks(&r),
                    checks(&whole),
                    "{flows} flows, threads={threads}"
                );
            }
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
    /// them shifted, plus one dummy.
    struct Reemit {
        held: Vec<FlowPkt>,
    }
    impl PadderCore for Reemit {
        fn owned_dirs(&self) -> &'static [Direction] {
            &[Direction::In]
        }
        fn on_data(&mut self, pkts: &[FlowPkt], _rng: &mut SimRng) {
            self.held
                .extend(pkts.iter().filter(|p| p.dir == Direction::In));
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

    /// The engine before flows ran to completion, kept as the oracle:
    /// per shard, one start event per flow seeded up front, one arena
    /// slot per flow from its start event to its last departure timer,
    /// and every flow's timers interleaved by `(time, seq)` under one
    /// shard clock.
    fn queued_fleet(cfg: &FleetConfig, registry: &PolicyRegistry) -> FleetReport {
        enum Step {
            Start(u64),
            Emit(ArenaHandle),
        }
        let shards = match cfg.shards {
            0 => DEFAULT_SHARDS,
            s => s,
        };
        let per = cfg.flows.div_ceil(shards.min(cfg.flows.max(1))).max(1);
        let root = SimRng::new(cfg.seed);
        let (mut starts, mut ends, mut report) = (vec![], vec![], FleetReport::default());
        for lo in (0..cfg.flows).step_by(per as usize) {
            let (mut q, mut arena, mut auditor) = (EventQueue::new(), Arena::new(), Auditor::new());
            auditor.set_enabled(true);
            let mut shard = FleetReport::default();
            for f in lo..(lo + per).min(cfg.flows) {
                let start = root.fork(f + 1).range_u64(0, cfg.window.as_nanos().max(1));
                q.schedule_at(Nanos(start), Step::Start(f));
            }
            while let Some((t, step)) = q.pop() {
                shard.events += 1;
                auditor.check_monotonic(t);
                let h = match step {
                    Step::Start(f) => {
                        let mut st = start_flow(cfg, registry, &root, f);
                        let pkt = draw_packet(&mut st.rng, Nanos::ZERO, cfg, true);
                        let at = st.start;
                        q.schedule_at(at, Step::Emit(arena.alloc((st, pkt, 0))));
                        continue;
                    }
                    Step::Emit(h) => h,
                };
                let (st, pkt, idx) = arena.get_mut(h).expect("a live flow");
                emit_packet(st, *pkt, *idx, &mut auditor);
                *idx += 1;
                if *idx < st.npkts {
                    *pkt = draw_packet(&mut st.rng, pkt.ts, cfg, false);
                    q.schedule_at(st.start + pkt.ts + st.shaper.shift(), Step::Emit(h));
                } else {
                    let (st, ..) = arena.take(h).expect("a live flow");
                    let (s, e) = close_flow(st, &mut shard);
                    starts.push(s);
                    ends.push(e);
                }
            }
            shard.audit = auditor.report();
            shard.arena_high_water = arena.high_water() as u64;
            report.absorb(shard);
        }
        report.peak_resident = peak_resident(&mut starts, &mut ends);
        report.sim_end = Nanos(ends.last().copied().unwrap_or(0));
        report
    }

    /// mFRONT as data: an Out padding state, then an In one, each with
    /// a `U{1, n}` budget of absolute Rayleigh-timed 1514 B dummies.
    const FRONT_SPEC: &str = r#"{"name":"test-front","machines":[{"states":[
        {"action":{"Pad":{"dir":"Out","size":{"Fixed":{"v":1514.0}},
         "timing":{"Rayleigh":{"w_min":0.5,"w_max":2.0}},"absolute":true}},
         "limit":{"Uniform":{"lo":1.0,"hi":4.0}},"transitions":[
         {"on":"PaddingSent","to":[[{"State":0},1.0]]},
         {"on":"LimitReached","to":[[{"State":1},1.0]]}]},
        {"action":{"Pad":{"dir":"In","size":{"Fixed":{"v":1514.0}},
         "timing":{"Rayleigh":{"w_min":0.5,"w_max":2.0}},"absolute":true}},
         "limit":{"Uniform":{"lo":1.0,"hi":10.0}},"transitions":[
         {"on":"PaddingSent","to":[[{"State":1},1.0]]},
         {"on":"LimitReached","to":[["End",1.0]]}]}]}],
        "max_padding_pkts":14,"max_blocking_ns":0}"#;

    #[test]
    fn flow_by_flow_matches_the_queued_engine() {
        // The delay default, FRONT on one destination, split+delay on
        // another.
        let reg = registry_with_default();
        publish_json(
            &reg,
            PolicyKey::Destination(1),
            FRONT_SPEC,
            Placement::Stack,
        )
        .expect("the FRONT spec publishes");
        reg.publish(
            PolicyKey::Destination(2),
            ObfuscationPolicy::split_and_delay("fleet-split"),
        );
        // Windows of a few ns and zero gaps, so starts and last
        // departures tie often.
        let cases = [
            (3000, 4, (1, 3), (0, 2), 5),
            (3000, 1, (1, 1), (0, 0), 3),
            (5000, 7, (2, 6), (0, 50), 200),
            (4000, 64, (12, 24), (20_000, 400_000), 6_000_000),
            (1, 1, (2, 6), (0, 50), 200),
            (0, 0, (2, 6), (0, 50), 200),
        ];
        for (flows, shards, pkts_per_flow, gap_ns, window) in cases {
            let cfg = FleetConfig {
                flows,
                shards,
                pkts_per_flow,
                gap_ns,
                window: Nanos(window),
                ..small_cfg()
            };
            let want = queued_fleet(&cfg, &reg);
            assert!(want.clean(), "{:?}", want.audit.violations);
            assert_eq!(want.flows, flows);
            let got = run_fleet(&cfg, &reg);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{cfg:?}");
            // Flow 1 on is FRONT's, so its close-out is part of the match.
            assert_eq!(got.dummy_pkts > 0, flows > 1, "{cfg:?}");
        }
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
