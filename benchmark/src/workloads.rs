//! The six workloads. Each is built from a seed, runs one repetition
//! through the crates' public entry points only, times just those calls,
//! and then checks the outputs and folds every simulated statistic into
//! a digest that must repeat exactly.

use crate::gauge::Gauge;
use crate::ledger::{self, Layers, Traced};
use crate::span::Spans;
use defenses::front::FrontConfig;
use defenses::{defend_all, FrontDefense, TraceBank};
use netsim::{Direction, Nanos, SimRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use stob::defense::{Defense, Placement};
use stob::policy::DelaySpec;
use stob::{run_fleet, FleetConfig, ObfuscationPolicy, PolicyKey, PolicyRegistry};
use stob_bench::multipath::replay_multipath;
use stob_bench::suite::DefenseKind;
use stob_bench::{collect_dataset, figure3_point, run_table2, Table2Config};
use traces::loader::{load_page, LoaderConfig};
use traces::sanitize::sanitize;
use traces::sites::{paper_sites, SiteProfile};
use traces::statgen::generate_corpus;
use traces::{Dataset, Trace};

/// Workload sizes. `full` is what every reported number uses; `smoke`
/// shrinks every size so the whole surface runs in a second or two, and
/// relaxes the floors that only hold at full size.
#[derive(Debug, Clone)]
pub struct Scale {
    pub smoke: bool,
    pub fleet_flows: u64,
    pub fleet_window: Nanos,
    pub fleet_small_flows: u64,
    pub fleet_resident_floor: u64,
    pub defend_visits: usize,
    pub page_visits: usize,
    pub side_visits: usize,
    pub bulk_measure: Nanos,
    pub table2_visits: usize,
    pub table2_trees: usize,
    pub table2_repeats: usize,
    pub mux_visits: usize,
    /// Seconds per unit-cost probe batch, and batches per probe.
    pub probe_batch_s: f64,
    pub probe_batches: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            smoke: false,
            fleet_flows: 300_000,
            fleet_window: Nanos::from_millis(6),
            fleet_small_flows: 20_000,
            fleet_resident_floor: 100_000,
            defend_visits: 160,
            page_visits: 60,
            side_visits: 10,
            bulk_measure: Nanos::from_millis(400),
            table2_visits: 60,
            table2_trees: 100,
            table2_repeats: 3,
            mux_visits: 50,
            probe_batch_s: 0.2,
            probe_batches: 5,
        }
    }

    pub fn smoke() -> Self {
        Scale {
            smoke: true,
            fleet_flows: 3_000,
            fleet_window: Nanos::from_millis(1),
            fleet_small_flows: 500,
            fleet_resident_floor: 1,
            defend_visits: 2,
            page_visits: 4,
            side_visits: 1,
            bulk_measure: Nanos::from_millis(5),
            table2_visits: 6,
            table2_trees: 10,
            table2_repeats: 2,
            mux_visits: 1,
            probe_batch_s: 0.002,
            probe_batches: 3,
        }
    }
}

/// Result of one repetition.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    /// Host seconds spent inside the library calls (checks excluded).
    pub host_s: f64,
    /// The same at the nominal host speed (see `gauge`); equals `host_s`
    /// when the gauge is off.
    pub nominal_s: f64,
    /// Work completed, in the workload's throughput unit.
    pub units: f64,
    pub attempted: u64,
    pub failed: u64,
    /// FNV fold of every simulated output of the repetition.
    pub digest: u64,
    /// Deterministic counts from the workload's own report.
    pub facts: BTreeMap<&'static str, f64>,
}

/// One workload, set up from a seed.
pub trait Workload {
    /// One repetition. With an enabled recorder the repetition also
    /// records spans around its calls into the layers; the simulated
    /// outputs (and so the digest) are the same either way. Every call
    /// into the library is a segment of `gauge`. `Err` is a failed output
    /// check.
    fn rep(&self, spans: &mut Spans, gauge: &mut Gauge) -> Result<RepOut, String>;

    /// After a traced run: probe the layers this workload crosses and
    /// reconcile them against its host time.
    fn ledger(&self, t: &Traced, l: &mut Layers) -> Result<(), String>;
}

/// Generate the inputs of workload `name` from `seed` and build its
/// state. Set-up spans (`setup.statgen`) land in `spans`.
pub fn build(
    name: &str,
    seed: u64,
    scale: &Scale,
    spans: &mut Spans,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fleet_mixed" => Box::new(FleetMixed::new(
            seed,
            scale,
            scale.fleet_flows,
            scale.fleet_resident_floor,
        )),
        "defend_suite" => Box::new(DefendSuite::new(seed, scale, spans)),
        "page_collect" => Box::new(PageCollect::new(seed, scale)),
        "bulk_shaped" => Box::new(BulkShaped::new(seed, scale)),
        "wf_table2" => Box::new(WfTable2::new(seed, scale, spans)),
        "mux_replay" => Box::new(MuxReplay::new(seed, scale, spans)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

// ---------------------------------------------------------------------
// Digest helpers
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a-style order-sensitive mix.
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

fn mix_traces<'a>(mut h: u64, traces: impl IntoIterator<Item = &'a Trace>) -> u64 {
    for t in traces {
        h = mix(h, t.packets.len() as u64);
        for p in &t.packets {
            h = mix(h, p.ts.as_nanos());
            h = mix(h, u64::from(p.size));
            h = mix(h, p.dir as u64);
        }
    }
    h
}

fn time_ordered(t: &Trace) -> bool {
    t.packets.windows(2).all(|w| w[0].ts <= w[1].ts)
}

/// A statgen corpus of `visits` per paper site, under a `setup.statgen`
/// span whose request id is the trace count.
fn statgen_corpus(visits: usize, seed: u64, spans: &mut Spans) -> (Vec<SiteProfile>, Vec<Trace>) {
    let sites = paper_sites();
    let n = (sites.len() * visits) as u64;
    let corpus = spans.scope("setup.statgen", n, |_| {
        generate_corpus(&sites, visits, seed)
    });
    (sites, corpus)
}

fn class_names(sites: &[SiteProfile]) -> Vec<String> {
    sites.iter().map(|s| s.name.to_string()).collect()
}

// ---------------------------------------------------------------------
// fleet_mixed
// ---------------------------------------------------------------------

/// §5's provider regime: `run_fleet` over BENCH_8's registry mix.
pub struct FleetMixed {
    pub cfg: FleetConfig,
    pub registry: PolicyRegistry,
    resident_floor: u64,
}

/// The host-wide default of the fleet mix: delay jitter of 5–20 % of
/// the inter-packet gap.
pub fn fleet_delay_policy() -> ObfuscationPolicy {
    let mut delay = ObfuscationPolicy::passthrough("fleet-delay");
    delay.delay = DelaySpec::UniformFraction {
        lo_frac: 0.05,
        hi_frac: 0.20,
    };
    delay
}

/// BENCH_8's deterministic mixed deployment: the delay default, FRONT on
/// destinations `d % 4 == 1`, the §3 split+delay pair on `d % 4 == 2`.
pub fn fleet_registry(sites: u32) -> PolicyRegistry {
    let reg = PolicyRegistry::new();
    reg.bind_defense(
        PolicyKey::Default,
        Arc::new(fleet_delay_policy()),
        Placement::Stack,
    );
    let front = Arc::new(FrontDefense::new(FrontConfig {
        n_client: 4,
        n_server: 10,
        w_min: 0.5,
        w_max: 2.0,
        dummy_size: 1514,
    }));
    let split = Arc::new(ObfuscationPolicy::split_and_delay("fleet-split"));
    for d in 0..sites {
        match d % 4 {
            1 => reg.bind_defense(PolicyKey::Destination(d), front.clone(), Placement::Stack),
            2 => reg.bind_defense(PolicyKey::Destination(d), split.clone(), Placement::Stack),
            _ => {}
        }
    }
    reg
}

impl FleetMixed {
    /// `flows` and the residency floor are parameters so the traced run
    /// can build the cache-resident small fleet from the same recipe.
    pub fn new(seed: u64, scale: &Scale, flows: u64, resident_floor: u64) -> Self {
        let cfg = FleetConfig {
            seed,
            flows,
            shards: 0,
            sites: 1024,
            pkts_per_flow: (12, 24),
            gap_ns: (20_000, 400_000),
            window: scale.fleet_window,
        };
        FleetMixed {
            registry: fleet_registry(cfg.sites),
            cfg,
            resident_floor,
        }
    }
}

impl Workload for FleetMixed {
    fn ledger(&self, t: &Traced, l: &mut Layers) -> Result<(), String> {
        ledger::fleet(self, t, l)
    }

    fn rep(&self, spans: &mut Spans, gauge: &mut Gauge) -> Result<RepOut, String> {
        let r = gauge.time(|| {
            spans.scope("stob.fleet.run", 0, |_| {
                run_fleet(&self.cfg, &self.registry)
            })
        });
        let timed = gauge.finish();

        if !r.clean() {
            return Err(format!(
                "fleet_mixed: {} audit violation(s), first {:?}",
                r.audit.violations.len(),
                r.audit.violations.first()
            ));
        }
        if r.peak_resident < self.resident_floor {
            return Err(format!(
                "fleet_mixed: peak_resident {} below the floor {}",
                r.peak_resident, self.resident_floor
            ));
        }
        let mut digest = FNV_OFFSET;
        for v in [
            r.checksum,
            r.flows,
            r.egress_pkts,
            r.egress_bytes,
            r.dummy_pkts,
            r.dummy_bytes,
            r.peak_resident,
            r.sim_end.as_nanos(),
            r.events,
            r.arena_high_water,
            r.audit.checks,
        ] {
            digest = mix(digest, v);
        }
        let facts = BTreeMap::from([
            ("flows", r.flows as f64),
            ("events", r.events as f64),
            ("egress_pkts", r.egress_pkts as f64),
            ("dummy_pkts", r.dummy_pkts as f64),
            ("peak_resident", r.peak_resident as f64),
            ("arena_high_water", r.arena_high_water as f64),
            ("audit_checks", r.audit.checks as f64),
        ]);
        Ok(RepOut {
            host_s: timed.raw_s,
            nominal_s: timed.nominal_s,
            units: r.egress_pkts as f64,
            attempted: self.cfg.flows,
            failed: self.cfg.flows - r.flows.min(self.cfg.flows),
            digest,
            facts,
        })
    }
}

// ---------------------------------------------------------------------
// defend_suite
// ---------------------------------------------------------------------

/// Batch trace replay: every suite row at both placements.
pub struct DefendSuite {
    seed: u64,
    corpus: Vec<Trace>,
    specs: Vec<Box<dyn Defense>>,
}

/// Span request id of a `defend_suite` cell: row index × 2 + placement.
pub fn defend_cell_id(row: usize, placement: Placement) -> u64 {
    (row * 2) as u64
        + match placement {
            Placement::App => 0,
            Placement::Stack => 1,
        }
}

impl DefendSuite {
    fn new(seed: u64, scale: &Scale, spans: &mut Spans) -> Self {
        let (_, corpus) = statgen_corpus(scale.defend_visits, seed, spans);
        let specs = DefenseKind::WITH_MACHINES
            .iter()
            .map(|k| k.spec())
            .collect();
        DefendSuite {
            seed,
            corpus,
            specs,
        }
    }
}

impl Workload for DefendSuite {
    fn ledger(&self, t: &Traced, l: &mut Layers) -> Result<(), String> {
        ledger::defend(t, l)
    }

    fn rep(&self, spans: &mut Spans, gauge: &mut Gauge) -> Result<RepOut, String> {
        let input_pkts: usize = self.corpus.iter().map(Trace::len).sum();
        let input_bytes: u64 = self
            .corpus
            .iter()
            .map(|t| t.bytes(Direction::In) + t.bytes(Direction::Out))
            .sum();
        let root = SimRng::new(self.seed);
        let mut digest = FNV_OFFSET;
        let mut attempted = 0u64;
        let mut failed = 0u64;

        let bank = gauge.time(|| TraceBank::new(&self.corpus));

        for (row, (kind, spec)) in DefenseKind::WITH_MACHINES
            .iter()
            .zip(&self.specs)
            .enumerate()
        {
            for placement in [Placement::App, Placement::Stack] {
                let rows = gauge.time(|| {
                    spans.scope("defenses.cell", defend_cell_id(row, placement), |_| {
                        defend_all(
                            spec.as_ref(),
                            placement,
                            &self.corpus,
                            Some(&bank),
                            &root,
                            self.seed ^ ((row as u64 + 1) << 32),
                        )
                    })
                });

                attempted += rows.len() as u64;
                failed += rows
                    .iter()
                    .filter(|d| d.trace.is_empty() || !time_ordered(&d.trace))
                    .count() as u64;
                if *kind == DefenseKind::None {
                    let pkts: usize = rows.iter().map(|d| d.trace.len()).sum();
                    let bytes: u64 = rows
                        .iter()
                        .map(|d| d.trace.bytes(Direction::In) + d.trace.bytes(Direction::Out))
                        .sum();
                    if pkts != input_pkts || bytes != input_bytes {
                        return Err(format!(
                            "defend_suite: `none` at {} turned {input_pkts} pkts / {input_bytes} B \
                             into {pkts} pkts / {bytes} B",
                            placement.name()
                        ));
                    }
                }
                digest = mix_traces(digest, rows.iter().map(|d| &d.trace));
            }
        }
        if failed > 0 {
            return Err(format!(
                "defend_suite: {failed} of {attempted} defended traces are empty or unordered"
            ));
        }
        let timed = gauge.finish();
        Ok(RepOut {
            host_s: timed.raw_s,
            nominal_s: timed.nominal_s,
            units: (input_pkts * self.specs.len() * 2) as f64,
            attempted,
            failed,
            digest,
            facts: BTreeMap::from([("input_pkts", input_pkts as f64)]),
        })
    }
}

// ---------------------------------------------------------------------
// page_collect
// ---------------------------------------------------------------------

/// The real-stack collection path: page loads through `stack::net`,
/// then sanitization.
pub struct PageCollect {
    seed: u64,
    visits: usize,
    keep_floor: f64,
}

impl PageCollect {
    fn new(seed: u64, scale: &Scale) -> Self {
        PageCollect {
            seed,
            visits: scale.page_visits,
            // The paper kept 74 of 100 visits per class.
            keep_floor: if scale.smoke { 0.0 } else { 0.70 },
        }
    }
}

/// `collect_dataset` spelled out visit by visit so each `load_page` and
/// the `sanitize` call get a span; same calls, same order, same outputs.
fn collect_dataset_traced(
    visits: usize,
    seed: u64,
    spans: &mut Spans,
) -> (Vec<Trace>, usize, usize, usize) {
    let sites = paper_sites();
    let cfg = LoaderConfig::default();
    let mut per_site = Vec::with_capacity(sites.len());
    for (label, site) in sites.iter().enumerate() {
        let mut traces = Vec::with_capacity(visits);
        let mut complete = Vec::with_capacity(visits);
        for v in 0..visits {
            let id = (label * visits + v) as u64;
            let out = spans.scope("traces.loader.load_page", id, |_| {
                load_page(site, label, v, seed, &cfg)
            });
            complete.push(out.complete);
            traces.push(out.trace);
        }
        per_site.push((traces, complete));
    }
    let n = (sites.len() * visits) as u64;
    let (balanced, reports, per_class) = spans.scope("traces.sanitize", n, |_| sanitize(per_site));
    (
        balanced,
        per_class,
        reports.iter().map(|r| r.dropped_errors).sum(),
        reports.iter().map(|r| r.dropped_outliers).sum(),
    )
}

impl Workload for PageCollect {
    fn ledger(&self, t: &Traced, l: &mut Layers) -> Result<(), String> {
        ledger::stack_net(true, t, l)
    }

    fn rep(&self, spans: &mut Spans, gauge: &mut Gauge) -> Result<RepOut, String> {
        let (traces, per_class, dropped_errors, dropped_outliers) = gauge.time(|| {
            if spans.enabled() {
                spans.scope("bench.page_collect", 0, |s| {
                    collect_dataset_traced(self.visits, self.seed, s)
                })
            } else {
                let s = collect_dataset(self.visits, self.seed);
                (
                    s.dataset.traces,
                    s.per_class,
                    s.dropped_errors,
                    s.dropped_outliers,
                )
            }
        });
        let timed = gauge.finish();

        let n_sites = paper_sites().len();
        let total = n_sites * self.visits;
        if (per_class as f64) < self.keep_floor * self.visits as f64 {
            return Err(format!(
                "page_collect: sanitizer kept {per_class} of {} visits per class, floor is {:.0} %",
                self.visits,
                self.keep_floor * 100.0
            ));
        }
        if traces.len() != per_class * n_sites {
            return Err(format!(
                "page_collect: {} traces for {per_class} per class",
                traces.len()
            ));
        }
        let mut digest = mix_traces(FNV_OFFSET, &traces);
        for v in [per_class, dropped_errors, dropped_outliers] {
            digest = mix(digest, v as u64);
        }
        Ok(RepOut {
            host_s: timed.raw_s,
            nominal_s: timed.nominal_s,
            units: total as f64,
            attempted: total as u64,
            failed: dropped_errors as u64,
            digest,
            facts: BTreeMap::from([
                ("visits", total as f64),
                ("per_class", per_class as f64),
                ("dropped_outliers", dropped_outliers as f64),
            ]),
        })
    }
}

// ---------------------------------------------------------------------
// bulk_shaped
// ---------------------------------------------------------------------

/// Figure 3: steady-state bulk over the 100 Gb/s lab path, unshaped
/// (α = 0, TSO bursts) and heavily shaped (α = 40, one-packet segments).
pub struct BulkShaped {
    seed: u64,
    measure: Nanos,
    floors: bool,
}

/// The two Figure 3 points the workload runs.
pub const BULK_ALPHAS: [u32; 2] = [0, 40];
/// `figure3_point` warms up for this long before its measured window.
const BULK_WARMUP_MS: f64 = 30.0;

impl BulkShaped {
    fn new(seed: u64, scale: &Scale) -> Self {
        BulkShaped {
            seed,
            measure: scale.bulk_measure,
            floors: !scale.smoke,
        }
    }
}

impl Workload for BulkShaped {
    fn ledger(&self, t: &Traced, l: &mut Layers) -> Result<(), String> {
        ledger::stack_net(false, t, l)
    }

    fn rep(&self, spans: &mut Spans, gauge: &mut Gauge) -> Result<RepOut, String> {
        let points = BULK_ALPHAS.map(|alpha| {
            gauge.time(|| {
                spans.scope("stack.net.figure3_point", u64::from(alpha), |_| {
                    figure3_point(alpha, self.measure, self.seed)
                })
            })
        });
        let timed = gauge.finish();

        let (g0, g40) = (points[0].goodput_gbps, points[1].goodput_gbps);
        let failed = points
            .iter()
            .filter(|p| !(p.goodput_gbps.is_finite() && p.goodput_gbps > 0.0))
            .count() as u64;
        // The paper's claim: shaping costs goodput but "preserves
        // 19.7 Gb/s or higher".
        if self.floors && !(g0 > g40 && g40 >= 19.7) {
            return Err(format!(
                "bulk_shaped: goodput alpha=0 {g0:.2} Gb/s, alpha=40 {g40:.2} Gb/s; \
                 want alpha=0 > alpha=40 >= 19.7"
            ));
        }
        let sim_ms = BULK_ALPHAS.len() as f64 * (BULK_WARMUP_MS + self.measure.as_secs_f64() * 1e3);
        Ok(RepOut {
            host_s: timed.raw_s,
            nominal_s: timed.nominal_s,
            units: sim_ms,
            attempted: BULK_ALPHAS.len() as u64,
            failed,
            digest: mix(mix(FNV_OFFSET, g0.to_bits()), g40.to_bits()),
            facts: BTreeMap::from([("goodput_gbps_alpha0", g0), ("goodput_gbps_alpha40", g40)]),
        })
    }
}

// ---------------------------------------------------------------------
// wf_table2
// ---------------------------------------------------------------------

/// Table 2's attack side: 16 cells of emulate → features → forest.
pub struct WfTable2 {
    pub dataset: Dataset,
    pub cfg: Table2Config,
    floors: bool,
}

impl WfTable2 {
    fn new(seed: u64, scale: &Scale, spans: &mut Spans) -> Self {
        let (sites, corpus) = statgen_corpus(scale.table2_visits, seed, spans);
        WfTable2 {
            dataset: Dataset::new(corpus, class_names(&sites)),
            cfg: Table2Config {
                trees: scale.table2_trees,
                repeats: scale.table2_repeats,
                seed,
            },
            floors: !scale.smoke,
        }
    }
}

impl Workload for WfTable2 {
    fn ledger(&self, t: &Traced, l: &mut Layers) -> Result<(), String> {
        ledger::table2(self, t, l)
    }

    fn rep(&self, spans: &mut Spans, gauge: &mut Gauge) -> Result<RepOut, String> {
        use defenses::CounterMeasure;
        let cells = gauge.time(|| {
            spans.scope("bench.run_table2", 0, |_| {
                run_table2(&self.dataset, &self.cfg)
            })
        });
        let timed = gauge.finish();

        let failed = cells
            .iter()
            .filter(|c| !(c.mean.is_finite() && c.std.is_finite()))
            .count() as u64;
        let original = |n: usize| {
            cells
                .iter()
                .find(|c| c.countermeasure == CounterMeasure::Original && c.n == n)
                .map(|c| c.mean)
                .ok_or_else(|| format!("wf_table2: no Original/{n} cell"))
        };
        let (all, n15) = (original(0)?, original(15)?);
        if cells.len() != 16 {
            return Err(format!("wf_table2: {} cells, want 16", cells.len()));
        }
        if self.floors && !(all >= 0.95 && n15 < all) {
            return Err(format!(
                "wf_table2: Original/All {all:.3}, Original/15 {n15:.3}; \
                 want All >= 0.95 and 15 < All"
            ));
        }
        let mut digest = FNV_OFFSET;
        for c in &cells {
            digest = mix(mix(digest, c.mean.to_bits()), c.std.to_bits());
        }
        Ok(RepOut {
            host_s: timed.raw_s,
            nominal_s: timed.nominal_s,
            units: cells.len() as f64,
            attempted: 16,
            failed,
            digest,
            facts: BTreeMap::from([("original_all", all), ("original_15", n15)]),
        })
    }
}

// ---------------------------------------------------------------------
// mux_replay
// ---------------------------------------------------------------------

/// The third transport: every trace replayed through `stack::mux` over
/// three legs, round-robin, with XOR FEC.
pub struct MuxReplay {
    seed: u64,
    corpus: Vec<Trace>,
}

/// Legs per replay.
pub const MUX_LEGS: usize = 3;
/// XOR-parity group size of the workload's replays.
const MUX_FEC_GROUP: Option<u32> = Some(4);

impl MuxReplay {
    fn new(seed: u64, scale: &Scale, spans: &mut Spans) -> Self {
        let (_, corpus) = statgen_corpus(scale.mux_visits, seed, spans);
        MuxReplay { seed, corpus }
    }
}

/// Every packet of every leg view must appear in the merged view (same
/// timestamp, direction and size), and together the legs must account
/// for the whole merged view.
fn legs_are_sub_records(merged: &Trace, legs: &[Trace]) -> bool {
    let mut pool: BTreeMap<(u64, u8, u32), i64> = BTreeMap::new();
    for p in &merged.packets {
        *pool
            .entry((p.ts.as_nanos(), p.dir as u8, p.size))
            .or_default() += 1;
    }
    for p in legs.iter().flat_map(|l| &l.packets) {
        let left = pool
            .entry((p.ts.as_nanos(), p.dir as u8, p.size))
            .or_default();
        *left -= 1;
        if *left < 0 {
            return false;
        }
    }
    pool.values().all(|&left| left == 0)
}

impl Workload for MuxReplay {
    fn ledger(&self, t: &Traced, l: &mut Layers) -> Result<(), String> {
        ledger::mux(self, t, l)
    }

    fn rep(&self, spans: &mut Spans, gauge: &mut Gauge) -> Result<RepOut, String> {
        self.replay_all(MUX_FEC_GROUP, spans, gauge)
    }
}

impl MuxReplay {
    /// Replay the whole corpus with the given FEC group size. The traced
    /// run also replays with `None` to price the parity path.
    pub fn replay_all(
        &self,
        fec_group: Option<u32>,
        spans: &mut Spans,
        gauge: &mut Gauge,
    ) -> Result<RepOut, String> {
        let root = SimRng::new(self.seed);
        let mut digest = FNV_OFFSET;
        let mut datagrams = 0u64;
        let mut failed = 0u64;
        for (i, t) in self.corpus.iter().enumerate() {
            let seed_i = root.fork(i as u64 + 1).next_u64();
            let (merged, legs) = gauge.time(|| {
                spans.scope("stack.mux.replay", i as u64, |_| {
                    replay_multipath(
                        t,
                        &stack::SplitterSpec::RoundRobin,
                        MUX_LEGS,
                        "clean",
                        fec_group,
                        seed_i,
                    )
                })
            });

            if legs.len() != MUX_LEGS || !legs_are_sub_records(&merged, &legs) {
                return Err(format!(
                    "mux_replay: trace {i}: a leg view is not a sub-record of the merged view"
                ));
            }
            let short = [Direction::Out, Direction::In]
                .iter()
                .any(|&d| merged.bytes(d) < t.bytes(d));
            failed += u64::from(short);
            datagrams += merged.len() as u64;
            digest = mix_traces(mix_traces(digest, [&merged]), &legs);
        }
        if failed > 0 {
            return Err(format!(
                "mux_replay: {failed} of {} replays carried fewer bytes than scheduled",
                self.corpus.len()
            ));
        }
        let timed = gauge.finish();
        Ok(RepOut {
            host_s: timed.raw_s,
            nominal_s: timed.nominal_s,
            units: datagrams as f64,
            attempted: self.corpus.len() as u64,
            failed,
            digest,
            facts: BTreeMap::from([("merged_datagrams", datagrams as f64)]),
        })
    }
}
