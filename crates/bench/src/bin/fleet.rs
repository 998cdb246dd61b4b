//! The fleet campaign: drive 10k–1M concurrent defended flows through
//! one shared [`PolicyRegistry`] and the sharded [`stob::fleet`] engine.
//!
//! This is the paper's §5 deployment regime measured end to end: a
//! provider-side stack shaping a whole population of flows behind one
//! control plane, instead of the one-host-pair-per-visit setup every
//! other benchmark uses. The registry carries a deterministic mixed
//! deployment — a host-wide delay-jitter default, FRONT padding on a
//! quarter of destinations, the §3 split+delay pair on another quarter —
//! so the run exercises the policy-only, padding, and size-rewrite
//! paths at once.
//!
//! The run is bit-deterministic: its report (flow/packet/byte counts,
//! the order-free emission checksum, audit totals, the run's telemetry
//! totals) is a pure function of `(mode, seed)` — byte-identical at any
//! `STOB_THREADS` — and `scripts/check-golden.sh` holds it against
//! `tests/golden/fleet_{quick,full}.json`. The embedded safety auditor
//! runs force-enabled; any violation fails the run. The calibrated quick
//! run must sustain at least 100k concurrently-resident flows or it
//! exits non-zero. Wall-clock rates go to stderr only: the fleet's
//! *speed* is measured by the layered benchmark's `fleet_mixed` workload
//! (`BENCHMARK.json`, `benchmark/README.md`), not here.
//!
//! Usage: `fleet [--quick] [--flows=<n>] [--shards=<n>] [--machine=<path>]`
//!
//! The report goes to stdout, and to the file `STOB_JSON_OUT` names.
//!
//! `--flows=<n>` / `--shards=<n>` (at most one shard per flow) override
//! the workload — a different population is a different report, so only
//! use them for local exploration, never under `scripts/check-golden.sh`;
//! with `--flows` the residency floor, calibrated for the built-in quick
//! population, is not applied. `--machine=<path>` additionally publishes
//! a JSON document — normally a machine spec (see `stob::machine`) — as
//! the host-wide default defense through `stob::sockopt::publish_json`:
//! the defenses-as-data path at fleet scale. A document that cannot be
//! read or that the control plane rejects exits 1. It also changes the
//! report; local exploration only.

use defenses::front::FrontConfig;
use defenses::FrontDefense;
use netsim::{Json, Nanos};
use std::sync::Arc;
use std::time::Instant;
use stob::defense::Placement;
use stob::policy::DelaySpec;
use stob::sockopt::publish_json;
use stob::{run_fleet, FleetConfig, FleetReport, ObfuscationPolicy, PolicyKey, PolicyRegistry};
use stob_bench::cli;

/// Seed for the fleet workload.
const SEED: u64 = 0xF1EE7;
/// The calibrated quick run must keep at least this many flows resident
/// at peak.
const QUICK_RESIDENCY_FLOOR: u64 = 100_000;

/// Fixed workloads per mode. Quick shrinks the population but keeps the
/// per-flow shape (packet counts, gaps, policy mix) identical.
fn calibrate(quick: bool) -> (&'static str, FleetConfig) {
    if quick {
        (
            "quick",
            FleetConfig {
                seed: SEED,
                flows: 120_000,
                shards: stob::fleet::DEFAULT_SHARDS,
                sites: 256,
                pkts_per_flow: (12, 24),
                gap_ns: (20_000, 400_000),
                // Narrow start window: the whole population overlaps,
                // so peak residency ~= the population (the >=100k gate).
                window: Nanos::from_millis(1),
            },
        )
    } else {
        (
            "full",
            FleetConfig {
                seed: SEED,
                flows: 1_000_000,
                shards: stob::fleet::DEFAULT_SHARDS,
                sites: 1024,
                pkts_per_flow: (12, 24),
                gap_ns: (20_000, 400_000),
                window: Nanos::from_millis(20),
            },
        )
    }
}

/// The deterministic mixed deployment every run binds: a host-wide
/// delay default, FRONT on destinations `d % 4 == 1`, the §3
/// split+delay pair on `d % 4 == 2`. Destinations `d % 4 ∈ {0, 3}`
/// fall through to the default.
fn build_registry(sites: u32) -> PolicyRegistry {
    let reg = PolicyRegistry::new();
    let mut delay = ObfuscationPolicy::passthrough("fleet-delay");
    delay.delay = DelaySpec::UniformFraction {
        lo_frac: 0.05,
        hi_frac: 0.20,
    };
    reg.bind_defense(PolicyKey::Default, Arc::new(delay), Placement::Stack);
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

fn hex(h: u64) -> String {
    format!("{h:#018x}")
}

/// The report: pure function of `(mode, seed)`, invariant to
/// `STOB_THREADS` — `scripts/check-golden.sh` byte-compares it with the
/// committed goldens.
fn report_json(mode: &str, r: &FleetReport) -> Json {
    Json::obj()
        .set("mode", mode)
        .set("seed", SEED)
        .set("flows", r.flows)
        .set("egress_pkts", r.egress_pkts)
        .set("egress_bytes", r.egress_bytes)
        .set("dummy_pkts", r.dummy_pkts)
        .set("dummy_bytes", r.dummy_bytes)
        .set("peak_resident", r.peak_resident)
        .set("sim_end_ns", r.sim_end.as_nanos())
        .set("events", r.events)
        .set("arena_high_water", r.arena_high_water)
        .set("checksum", hex(r.checksum))
        .set("audit_checks", r.audit.checks)
        .set("audit_violations", r.audit.violations.len() as u64)
        .set("telemetry", telemetry_json())
}

/// The telemetry totals this process's one fleet run left in the global
/// registry: sums, so as thread-invariant as the report, and held across
/// commits by `tests/golden/fleet_{quick,full}.json` — a change that
/// batches or moves a telemetry write must leave every total here
/// unchanged.
/// `netsim.pool.*` is left out: it follows the shard layout.
fn telemetry_json() -> Json {
    let mut t = Json::obj();
    for name in [
        "netsim.audit.checks",
        "netsim.fleet.dummy_pkts",
        "netsim.fleet.egress_bytes",
        "netsim.fleet.egress_pkts",
        "netsim.fleet.events",
        "netsim.fleet.flows",
        "stack.replay.pkts",
    ] {
        t = t.set(name, netsim::telemetry::counter(name).get());
    }
    let name = "stack.egress.shaper_extra_delay_ns";
    let h = netsim::telemetry::histo(name);
    let summary = Json::obj()
        .set("count", h.count())
        .set("sum", h.sum())
        .set("min", h.min().unwrap_or(0))
        .set("max", h.max().unwrap_or(0));
    t.set(name, summary)
}

fn main() {
    let args =
        cli::Positional::new("fleet [--quick] [--flows=<n>] [--shards=<n>] [--machine=<path>]");
    let quick = args.flag("--quick");
    let (mode, mut cfg) = calibrate(quick);
    // Local-exploration overrides; they change the report, so
    // check-golden.sh never sets them.
    let flows = args.value("--flows", "a positive integer", |s| {
        s.parse().ok().filter(|&n| n > 0)
    });
    cfg.flows = flows.unwrap_or(cfg.flows);
    let want = format!("a positive integer no larger than the {} flows", cfg.flows);
    let shards = args.value("--shards", &want, |s| {
        s.parse().ok().filter(|n| (1..=cfg.flows).contains(n))
    });
    cfg.shards = shards.unwrap_or(cfg.shards);
    let machine = args.value("--machine", "a path", |s| {
        (!s.is_empty()).then(|| s.to_string())
    });
    eprintln!(
        "[fleet] mode={mode} flows={} shards={} threads={} seed={SEED:#x}",
        cfg.flows,
        cfg.shards,
        netsim::par::threads()
    );
    // The floor is calibrated for the built-in quick population only.
    let floor_applies = quick && flows.is_none();
    if quick && !floor_applies {
        eprintln!(
            "[fleet] note: --flows overrides the calibrated population; \
             the {QUICK_RESIDENCY_FLOOR}-flow residency floor is not applied (ungated run)"
        );
    }
    let reg = build_registry(cfg.sites);
    // Operator-pushed machine defense: a JSON spec published through the
    // same control plane any live host would use, overriding the default
    // binding for this run. No recompile — the point of the exercise.
    if let Some(path) = machine {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("cannot read --machine={path}: {e}")));
        let name = publish_json(&reg, PolicyKey::Default, &text, Placement::Stack)
            .unwrap_or_else(|e| die(&format!("--machine={path} rejected: {e}")));
        eprintln!("[fleet] defense \"{name}\" bound as default from {path}");
    }
    let t0 = Instant::now();
    let report = run_fleet(&cfg, &reg);
    let wall = t0.elapsed().as_secs_f64();

    if !report.clean() {
        for v in report.audit.violations.iter().take(10) {
            eprintln!("[fleet] audit violation: {v:?}");
        }
        die(&format!(
            "{} audit violation(s) in the fleet run",
            report.audit.violations.len()
        ));
    }
    if floor_applies && report.peak_resident < QUICK_RESIDENCY_FLOOR {
        die(&format!(
            "quick run peaked at {} resident flows, floor is {QUICK_RESIDENCY_FLOOR}",
            report.peak_resident
        ));
    }

    eprintln!(
        "[fleet] {:.1} visits/s, {:.0} egress pkts/s, peak {} resident, \
         {:.2} sim-ns/wall-ns, {} audit checks, done in {wall:.1}s",
        report.flows as f64 / wall,
        report.egress_pkts as f64 / wall,
        report.peak_resident,
        report.sim_end.as_nanos() as f64 / (wall * 1e9),
        report.audit.checks
    );

    let json = report_json(mode, &report);
    println!("{}", json.to_string_pretty());
    stob_bench::write_json_out("fleet", || json);
}

fn die(msg: &str) -> ! {
    eprintln!("[fleet] FAIL: {msg}");
    std::process::exit(1)
}
