//! Chaos soak: outage-heavy fault schedules x {recovery on, off}, with
//! panic-contained visits, the invariant auditor on everywhere, and a
//! committed completion floor as the CI gate.
//!
//! Where `fault_matrix` asks "do the invariants hold under faults?", this
//! binary asks the recovery question: when the network actively flaps and
//! blacks out, does the deterministic recovery runtime (stall watchdogs,
//! reconnect-with-backoff, retry queues) turn failed page loads into
//! completed ones — without perturbing determinism or the audited
//! invariants? Each cell runs the same seeds with recovery on and off, so
//! the delta is attributable to recovery alone. A defense overhead pass
//! rides on the recovered traces to confirm defenses survive chaos, and a
//! breaker cell soaks the circuit-breaker path under a broken policy.
//!
//! Exit 1 when: any invariant violation, any leaked visit panic, a
//! recovery-off blackout-early load that somehow completes (the baseline
//! must fail or the gate proves nothing), or recovery-on completion below
//! the committed floor.
//!
//! Usage: `chaos [--quick] [--telemetry] [visits] [seed]`
//! `STOB_JSON_OUT=<path>` writes a timing-free JSON report; CI runs it at
//! `STOB_THREADS=1` and `4` and byte-compares the files.

use netsim::par::{self, Timings};
use netsim::{FaultSchedule, Json, Nanos, SimRng};
use stob_bench::{cli, mean_overheads, FAULT_SAMPLE};
use traces::loader::{load_page, load_page_supervised, LoaderConfig, RecoveryConfig};
use traces::{paper_sites, Trace};

/// Committed floor on the recovery-on completion rate across the whole
/// grid (fraction of loads). Measured headroom: the grid completes every
/// load at the pinned seed; the floor forgives a little drift when
/// scenarios or the site model evolve, and the gate catches real
/// regressions (a broken watchdog or retry queue loses whole scenarios).
const COMPLETION_FLOOR: f64 = 0.90;

/// One (scenario, recovery) cell of the soak.
struct CellRun {
    scenario: &'static str,
    recovery: bool,
    loads: usize,
    complete: usize,
    /// Visits that panicked inside the simulator (caught per visit).
    errors: usize,
    stalls: u64,
    retries: u64,
    reconnects: u64,
    gave_up: u64,
    checks: u64,
    violations: Vec<String>,
    traces: Vec<Trace>,
}

fn main() {
    let (mut args, want_telemetry) = cli::args();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let visits: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 1 } else { 2 });
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0xC4A0);

    // Page loads must be able to fail: the deadline doubles as the fault
    // horizon, and blackout-early is tuned so TCP's SYN retransmit
    // ladder (1/3/7/15/31 s) cannot reach the far side in time.
    let deadline = Nanos::from_secs(30);
    let all_sites = paper_sites();
    let sites = if quick {
        &all_sites[..4]
    } else {
        &all_sites[..]
    };
    let root = SimRng::new(seed);

    // The grid: every outage-heavy scenario, first with recovery on,
    // then the identical seeds with recovery off.
    let grid: Vec<(usize, &'static str, bool)> = FaultSchedule::CHAOS_SCENARIOS
        .iter()
        .flat_map(|&s| [true, false].map(|r| (s, r)))
        .enumerate()
        .map(|(i, (s, r))| (i, s, r))
        .collect();

    eprintln!(
        "[chaos] {} cells x {} sites x {visits} visits on {} threads{}...",
        grid.len(),
        sites.len(),
        par::threads(),
        if quick { " (quick)" } else { "" }
    );
    let mut timings = Timings::new();
    let t0 = std::time::Instant::now();

    let runs: Vec<CellRun> = par::par_map(&grid, |_, &(i, name, recovery)| {
        // The schedule depends on the scenario only, so the on/off pair
        // sees the exact same fault sequence.
        let si = i / 2;
        let mut sched_rng = root.fork(si as u64 + 1);
        let sched = FaultSchedule::scenario(name, sched_rng.next_u64(), deadline)
            .expect("known chaos scenario");
        let cfg = LoaderConfig {
            deadline,
            loss: 0.0,
            faults: Some(sched),
            recovery: recovery.then(RecoveryConfig::default),
            ..LoaderConfig::default()
        };
        let mut run = CellRun {
            scenario: name,
            recovery,
            loads: 0,
            complete: 0,
            errors: 0,
            stalls: 0,
            retries: 0,
            reconnects: 0,
            gave_up: 0,
            checks: 0,
            violations: Vec::new(),
            traces: Vec::new(),
        };
        for (label, site) in sites.iter().enumerate() {
            for visit in 0..visits {
                run.loads += 1;
                match load_page_supervised(site, label, visit, seed, &cfg) {
                    Ok(out) => {
                        run.complete += usize::from(out.complete);
                        run.stalls += out.progress.stalls;
                        run.retries += out.progress.retries;
                        run.reconnects += out.progress.reconnects;
                        run.gave_up += out.progress.gave_up;
                        run.checks += out.audit.checks;
                        run.violations
                            .extend(out.audit.violations.iter().map(|v| v.to_string()));
                        run.traces.push(out.trace);
                    }
                    Err(e) => {
                        run.errors += 1;
                        run.violations.push(e.to_string());
                    }
                }
            }
        }
        run
    });
    timings.push("soak_wall", t0.elapsed().as_secs_f64());

    // Defense overhead on the *recovered* traffic: the same trace
    // emulations the fault matrix uses, applied to recovery-on traces.
    let t0 = std::time::Instant::now();
    let mut defense_cells = Vec::new();
    for run in runs.iter().filter(|r| r.recovery) {
        let scenario_root = root.fork(0xDEF).fork(
            FaultSchedule::CHAOS_SCENARIOS
                .iter()
                .position(|&s| s == run.scenario)
                .unwrap_or(0) as u64,
        );
        for (&(defense, kind), di) in FAULT_SAMPLE.iter().zip(1..) {
            let (bw, _) = mean_overheads(kind, &run.traces, &scenario_root.fork(di));
            defense_cells.push((run.scenario, defense, bw * 100.0));
        }
    }
    timings.push("defend_wall", t0.elapsed().as_secs_f64());

    // Breaker soak: a policy that cannot validate, attached by the
    // server per accepted connection behind the circuit breaker. The
    // pages must still load (shed = pass-through) and the breaker must
    // actually trip instead of re-validating every connection.
    let t0 = std::time::Instant::now();
    let mut bad = stob::policy::ObfuscationPolicy::split_and_delay("chaos-bad");
    bad.delay = stob::policy::DelaySpec::UniformFraction {
        lo_frac: 0.30,
        hi_frac: 0.10, // inverted: fails validation on every attach
    };
    let breaker_cfg = LoaderConfig {
        deadline,
        loss: 0.0,
        server_policy: Some(bad),
        breaker: Some(stob::BreakerConfig::default()),
        ..LoaderConfig::default()
    };
    let mut breaker_loads = 0usize;
    let mut breaker_complete = 0usize;
    let mut breaker_trips = 0u64;
    let mut breaker_shed = 0u64;
    for (label, site) in sites.iter().enumerate() {
        let out = load_page(site, label, 0, seed, &breaker_cfg);
        breaker_loads += 1;
        breaker_complete += usize::from(out.complete);
        if let Some(b) = out.breaker {
            breaker_trips += b.trips;
            breaker_shed += b.shed;
        }
    }
    timings.push("breaker_wall", t0.elapsed().as_secs_f64());

    println!("\nChaos soak ({visits} visits/site, deadline {deadline})\n");
    println!(
        "| scenario       | recovery | loads | complete | errors | stalls | retries | reconnects | gave up | checks |"
    );
    println!(
        "|----------------|----------|-------|----------|--------|--------|---------|------------|---------|--------|"
    );
    for r in &runs {
        println!(
            "| {:<14} | {:>8} | {:>5} | {:>8} | {:>6} | {:>6} | {:>7} | {:>10} | {:>7} | {:>6} |",
            r.scenario,
            if r.recovery { "on" } else { "off" },
            r.loads,
            r.complete,
            r.errors,
            r.stalls,
            r.retries,
            r.reconnects,
            r.gave_up,
            r.checks,
        );
    }
    println!("\n| scenario       | bw overhead: none | FRONT | RegulaTor | BuFLO |");
    println!("|----------------|-------------------|-------|-----------|-------|");
    for chunk in defense_cells.chunks(4) {
        println!(
            "| {:<14} | {:>16.1}% | {:>4.0}% | {:>8.0}% | {:>4.0}% |",
            chunk[0].0, chunk[0].2, chunk[1].2, chunk[2].2, chunk[3].2,
        );
    }
    println!(
        "\nbreaker soak: {breaker_complete}/{breaker_loads} loads complete, \
         {breaker_trips} trip(s), {breaker_shed} shed attach(es)"
    );
    eprintln!("[chaos] {timings}");

    let total_violations: usize = runs.iter().map(|r| r.violations.len()).sum();
    let total_errors: usize = runs.iter().map(|r| r.errors).sum();
    let (on_loads, on_complete) = runs
        .iter()
        .filter(|r| r.recovery)
        .fold((0, 0), |(l, c), r| (l + r.loads, c + r.complete));
    let on_rate = on_complete as f64 / on_loads.max(1) as f64;
    let blackout_off_complete = runs
        .iter()
        .find(|r| r.scenario == "blackout-early" && !r.recovery)
        .map_or(0, |r| r.complete);

    stob_bench::write_json_out("chaos", || {
        // Timing-free: CI byte-compares this file across thread counts.
        Json::obj()
            .set("seed", seed)
            .set("visits", visits as u64)
            .set("quick", quick)
            .set("total_violations", total_violations as u64)
            .set("total_errors", total_errors as u64)
            .set("recovery_on_completion_rate", on_rate)
            .set(
                "cells",
                Json::Arr(
                    runs.iter()
                        .map(|r| {
                            Json::obj()
                                .set("scenario", r.scenario)
                                .set("recovery", r.recovery)
                                .set("loads", r.loads as u64)
                                .set("complete", r.complete as u64)
                                .set("errors", r.errors as u64)
                                .set("stalls", r.stalls)
                                .set("retries", r.retries)
                                .set("reconnects", r.reconnects)
                                .set("gave_up", r.gave_up)
                                .set("checks", r.checks)
                                .set(
                                    "violations",
                                    Json::Arr(
                                        r.violations
                                            .iter()
                                            .map(|v| Json::from(v.as_str()))
                                            .collect(),
                                    ),
                                )
                        })
                        .collect(),
                ),
            )
            .set(
                "defense_cells",
                Json::Arr(
                    defense_cells
                        .iter()
                        .map(|(s, d, bw)| {
                            Json::obj()
                                .set("scenario", *s)
                                .set("defense", *d)
                                .set("bandwidth_overhead_pct", *bw)
                        })
                        .collect(),
                ),
            )
            .set(
                "breaker",
                Json::obj()
                    .set("loads", breaker_loads as u64)
                    .set("complete", breaker_complete as u64)
                    .set("trips", breaker_trips)
                    .set("shed", breaker_shed),
            )
    });

    let mut failed = false;
    if total_violations > 0 {
        eprintln!("[chaos] FAIL: {total_violations} invariant violation(s)");
        for r in &runs {
            for v in &r.violations {
                eprintln!("  [{} recovery={}] {v}", r.scenario, r.recovery);
            }
        }
        failed = true;
    }
    if total_errors > 0 {
        eprintln!("[chaos] FAIL: {total_errors} visit(s) panicked");
        failed = true;
    }
    if blackout_off_complete > 0 {
        eprintln!(
            "[chaos] FAIL: {blackout_off_complete} blackout-early load(s) completed \
             WITHOUT recovery — the baseline no longer fails, so the gate is vacuous"
        );
        failed = true;
    }
    if on_rate < COMPLETION_FLOOR {
        eprintln!(
            "[chaos] FAIL: recovery-on completion {on_complete}/{on_loads} \
             ({:.1}%) below the committed floor ({:.0}%)",
            on_rate * 100.0,
            COMPLETION_FLOOR * 100.0
        );
        failed = true;
    }
    if breaker_complete < breaker_loads || breaker_trips == 0 {
        eprintln!(
            "[chaos] FAIL: breaker soak: {breaker_complete}/{breaker_loads} complete, \
             {breaker_trips} trips (want all complete and at least one trip)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    if want_telemetry {
        cli::print_telemetry();
    }
    eprintln!(
        "[chaos] OK: recovery completed {on_complete}/{on_loads} loads \
         ({:.1}%), zero violations, zero panics",
        on_rate * 100.0
    );
}
