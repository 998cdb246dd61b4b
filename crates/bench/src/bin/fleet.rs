//! The fleet campaign: drive 10k–1M concurrent defended flows through
//! one shared [`PolicyRegistry`] and the sharded [`stob::fleet`] engine,
//! and commit the throughput trajectory as `BENCH_8.json`.
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
//! Metric families:
//!
//! * `throughput` — completed flows (visits) per wall second.
//! * `egress`     — wire packets per wall second across all shards.
//! * `scale`      — peak simultaneously-resident flows and the
//!   sim-ns-per-wall-ns ratio (how much simulated time one wall
//!   nanosecond buys).
//!
//! The timed work is bit-deterministic: alongside the timings the run
//! emits a `checks` object (flow/packet/byte counts, the order-free
//! emission checksum, audit totals, the run's telemetry totals) that is
//! a pure function of `(mode, seed)` — byte-identical at any
//! `STOB_THREADS`, which CI verifies. The embedded safety auditor runs
//! force-enabled; any violation fails the run. A quick run must sustain
//! at least 100k concurrently-resident flows or it exits non-zero.
//!
//! Usage:
//!   fleet [--quick] [--out PATH] [--checks-out PATH]
//!   fleet --validate FILE
//!   fleet --compare COMMITTED FRESH [--tolerance X]
//!
//! Env: `STOB_FLEET_OUT` / `STOB_FLEET_CHECKS_OUT` (fallbacks for the
//! flags), `STOB_FLEET_FLOWS` / `STOB_FLEET_SHARDS` (workload
//! overrides — these change the checks object, so only use them for
//! local exploration, never under `scripts/check-bench.sh`).
//! `STOB_FLEET_MACHINE=<path>` additionally publishes a machine-spec
//! JSON file (see `stob::machine`) as the host-wide default defense via
//! the sockopt control plane — the defenses-as-data path at fleet
//! scale. It also changes the checks object; local exploration only.

use defenses::front::FrontConfig;
use defenses::FrontDefense;
use netsim::{Json, Nanos};
use std::sync::Arc;
use std::time::Instant;
use stob::defense::Placement;
use stob::policy::DelaySpec;
use stob::{run_fleet, FleetConfig, FleetReport, ObfuscationPolicy, PolicyKey, PolicyRegistry};

/// Schema tag every fleet BENCH file carries; bump only with a
/// migration note in PERF.md.
const SCHEMA: &str = "stob-fleet-v1";
/// Seed for the fleet workload.
const SEED: u64 = 0xF1EE7;
/// Quick runs must keep at least this many flows resident at peak.
const QUICK_RESIDENCY_FLOOR: u64 = 100_000;

/// Fixed workloads per mode. Quick shrinks the population but keeps the
/// per-flow shape (packet counts, gaps, policy mix) identical, so
/// per-flow numbers stay comparable — just noisier.
fn calibrate(quick: bool) -> (&'static str, FleetConfig) {
    if quick {
        (
            "quick",
            FleetConfig {
                seed: SEED,
                flows: 120_000,
                shards: 0, // engine default (64)
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
                shards: 0,
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

/// Deterministic portion of a report: pure function of `(mode, seed)`,
/// invariant to `STOB_THREADS` — CI byte-compares this across thread
/// counts.
fn checks_json(mode: &str, r: &FleetReport) -> Json {
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
/// commits by `tests/golden/fleet_quick.json` — a change that batches or
/// moves a telemetry write must leave every total here unchanged.
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
    for name in [
        "stack.egress.shaper_extra_delay_ns",
        "stack.fleet.extra_delay_ns",
    ] {
        let h = netsim::telemetry::histo(name);
        let summary = Json::obj()
            .set("count", h.count())
            .set("sum", h.sum())
            .set("min", h.min().unwrap_or(0))
            .set("max", h.max().unwrap_or(0));
        t = t.set(name, summary);
    }
    t
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().map(|v| {
        v.parse()
            .unwrap_or_else(|_| die(&format!("{key} must be an integer, got {v:?}")))
    })
}

fn run(quick: bool, out: Option<String>, checks_out: Option<String>) {
    let (mode, mut cfg) = calibrate(quick);
    // Local-exploration overrides; they change the checks object, so
    // check-bench.sh never sets them.
    if let Some(flows) = env_u64("STOB_FLEET_FLOWS") {
        cfg.flows = flows;
    }
    if let Some(shards) = env_u64("STOB_FLEET_SHARDS") {
        cfg.shards = shards;
    }
    eprintln!(
        "[fleet] mode={mode} flows={} shards={} threads={} seed={SEED:#x}",
        cfg.flows,
        if cfg.shards == 0 {
            stob::fleet::DEFAULT_SHARDS
        } else {
            cfg.shards
        },
        netsim::par::threads()
    );
    let reg = build_registry(cfg.sites);
    // Operator-pushed machine defense: a JSON spec published through the
    // same control plane any live host would use, overriding the default
    // binding for this run. No recompile — the point of the exercise.
    if let Ok(path) = std::env::var("STOB_FLEET_MACHINE") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("cannot read STOB_FLEET_MACHINE {path}: {e}")));
        let name = stob::publish_machine_json(&reg, PolicyKey::Default, &text, Placement::Stack)
            .unwrap_or_else(|e| die(&format!("STOB_FLEET_MACHINE rejected: {e}")));
        eprintln!("[fleet] machine defense \"{name}\" bound as default from {path}");
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
    if quick && report.peak_resident < QUICK_RESIDENCY_FLOOR {
        die(&format!(
            "quick run peaked at {} resident flows, floor is {QUICK_RESIDENCY_FLOOR}",
            report.peak_resident
        ));
    }

    let visits_per_sec = report.flows as f64 / wall;
    let pkts_per_sec = report.egress_pkts as f64 / wall;
    let sim_per_wall = report.sim_end.as_nanos() as f64 / (wall * 1e9);
    eprintln!(
        "[fleet] {:.1} visits/s, {:.0} egress pkts/s, peak {} resident, \
         {:.2} sim-ns/wall-ns, {} audit checks, done in {wall:.1}s",
        visits_per_sec, pkts_per_sec, report.peak_resident, sim_per_wall, report.audit.checks
    );

    let families = Json::obj()
        .set(
            "throughput",
            Json::obj()
                .set("unit", "visits_per_sec")
                .set("current", visits_per_sec),
        )
        .set(
            "egress",
            Json::obj()
                .set("unit", "pkts_per_sec")
                .set("current", pkts_per_sec),
        )
        .set(
            "scale",
            Json::obj()
                .set("unit", "flows")
                .set("peak_resident", report.peak_resident)
                .set("sim_ns_per_wall_ns", sim_per_wall),
        );
    let checks = checks_json(mode, &report);
    let full = Json::obj()
        .set("schema", SCHEMA)
        .set("bench_id", 8u64)
        .set("mode", mode)
        .set("families", families)
        .set("checks", checks.clone());

    if let Some(path) = &checks_out {
        std::fs::write(path, checks.to_string_pretty()).expect("write checks file");
        eprintln!("[fleet] wrote checks to {path}");
    }
    match &out {
        Some(path) => {
            std::fs::write(path, full.to_string_pretty()).expect("write fleet report");
            eprintln!("[fleet] wrote {path}");
        }
        None => println!("{}", full.to_string_pretty()),
    }
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: invalid JSON: {e:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("[fleet] FAIL: {msg}");
    std::process::exit(1)
}

fn family<'a>(j: &'a Json, name: &str) -> &'a Json {
    j.get("families")
        .and_then(|f| f.get(name))
        .unwrap_or_else(|| die(&format!("missing family \"{name}\"")))
}

fn req_num(j: &Json, fam: &str, key: &str) -> f64 {
    j.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| die(&format!("family \"{fam}\" missing numeric \"{key}\"")))
}

/// Schema validation: both rate families plus the scale family present,
/// a checks object with zero audit violations, and — for quick-mode
/// files — the residency floor.
fn validate(path: &str) {
    let j = load(path);
    match j.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        other => die(&format!("schema {other:?}, want {SCHEMA:?}")),
    }
    for fam in ["throughput", "egress"] {
        let f = family(&j, fam);
        req_num(f, fam, "current");
        f.get("unit")
            .and_then(Json::as_str)
            .unwrap_or_else(|| die(&format!("family \"{fam}\" missing unit")));
    }
    let scale = family(&j, "scale");
    req_num(scale, "scale", "sim_ns_per_wall_ns");
    let checks = j
        .get("checks")
        .unwrap_or_else(|| die("missing checks object"));
    let violations = checks
        .get("audit_violations")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| die("checks missing audit_violations"));
    if violations != 0 {
        die(&format!(
            "committed file records {violations} audit violation(s)"
        ));
    }
    let peak = checks
        .get("peak_resident")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| die("checks missing peak_resident"));
    if checks.get("mode").and_then(Json::as_str) == Some("quick") && peak < QUICK_RESIDENCY_FLOOR {
        die(&format!(
            "committed quick file peaked at {peak} resident flows, floor is {QUICK_RESIDENCY_FLOOR}"
        ));
    }
    println!("[fleet] {path}: schema OK ({SCHEMA}, {peak} peak resident, 0 violations)");
}

/// Regression gate: fresh rates may be at most `tol`x worse than the
/// committed baseline. Generous by design — CI runners are noisy; the
/// committed file is refreshed locally per PR.
fn compare(committed: &str, fresh: &str, tol: f64) {
    let base = load(committed);
    let new = load(fresh);
    let mut failures = Vec::new();
    for fam in ["throughput", "egress"] {
        let b = req_num(family(&base, fam), fam, "current");
        let n = req_num(family(&new, fam), fam, "current");
        let ratio = b / n;
        let verdict = if ratio > tol { "FAIL" } else { "ok" };
        println!("  {fam:<12} {ratio:>6.2}x worse-ratio  {verdict}");
        if ratio > tol {
            failures.push(fam);
        }
    }
    if failures.is_empty() {
        println!("[fleet] compare OK: no rate more than {tol:.1}x worse than {committed}");
    } else {
        die(&format!(
            "{} rate(s) regressed beyond {tol:.1}x: {}",
            failures.len(),
            failures.join(", ")
        ));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = std::env::var("STOB_FLEET_OUT").ok();
    let mut checks_out = std::env::var("STOB_FLEET_CHECKS_OUT").ok();
    let mut mode: Option<&str> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut tolerance = 2.5;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--out needs a path")),
                );
            }
            "--checks-out" => {
                i += 1;
                checks_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--checks-out needs a path")),
                );
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--tolerance needs a number"));
            }
            "--validate" => mode = Some("validate"),
            "--compare" => mode = Some("compare"),
            p if !p.starts_with("--") => paths.push(p.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    match mode {
        Some("validate") => {
            let p = paths
                .first()
                .unwrap_or_else(|| die("--validate needs a file"));
            validate(p);
        }
        Some("compare") => {
            if paths.len() != 2 {
                die("--compare needs COMMITTED and FRESH paths");
            }
            compare(&paths[0], &paths[1], tolerance);
        }
        _ => run(quick, out, checks_out),
    }
}
