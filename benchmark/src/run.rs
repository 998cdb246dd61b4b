//! One benchmark run: one process, one workload, one seed. The untraced
//! run measures the end-to-end metrics; the traced run records spans,
//! snapshots counts, runs the unit-cost probes and reconciles the
//! per-layer ledger.

use crate::decl;
use crate::gauge::Gauge;
use crate::ledger::{analyze, Traced};
use crate::span::Spans;
use crate::stats::{median, min_max};
use crate::workloads::{build, RepOut, Scale, Workload};
use netsim::Json;
use std::time::Instant;

/// Seed used when none is given. `1212` is reserved as the held-out seed
/// for later claims and must not be used while a change is written.
pub const DEFAULT_SEED: u64 = 12;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 30.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Repetitions after the set-ups per untraced run, at least.
const MIN_REPS: usize = 2;
/// Untraced/traced repetition pairs per traced run, at least.
const TRACED_PAIRS: usize = 2;
/// Share of `--seconds` a traced run spends on repetition pairs; the
/// unit-cost probes and the ledger's side runs take the rest.
const TRACED_SHARE: f64 = 0.4;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub const USAGE: &str = "usage: benchmark [run|trace] --workload <name> [--seed <n>] \
                         [--seconds <s>] [--trace <0|1>] [--smoke]";

/// Parse the command line (without the program name). `run` and `trace`
/// are shorthands for `--trace 0` and `--trace 1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => {
            it.next();
        }
        Some("trace") => {
            it.next();
            out.trace = true;
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value("a workload name")?,
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: want 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !decl::WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            decl::WORKLOADS.join(", ")
        ));
    }
    if !(out.seconds.is_finite() && out.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

/// Peak resident set of this process so far, bytes (`VmHWM`).
fn rss_hwm_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Where the run happened: recorded beside every result.
fn meta(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    Json::obj()
        .set("nproc", nproc as u64)
        .set("threads", netsim::par::threads() as u64)
        .set("loadavg", loadavg.trim())
        .set("rustc", env!("BENCH_RUSTC_VERSION"))
        .set("seconds", args.seconds)
        .set("smoke", args.smoke)
}

/// A metric with the samples behind it, for the descriptive line.
fn sampled(value: f64, unit: &str, samples: &[f64]) -> Json {
    let (lo, hi) = min_max(samples);
    Json::obj()
        .set("value", value)
        .set("unit", unit)
        .set("min", lo)
        .set("max", hi)
        .set("median", median(samples))
        .set("reps", samples.len() as u64)
        .set(
            "samples",
            Json::Arr(samples.iter().map(|&s| Json::from(s)).collect()),
        )
}

fn check_digest(name: &str, want: &mut Option<u64>, out: &RepOut) -> Result<(), String> {
    match *want {
        None => *want = Some(out.digest),
        Some(d) if d != out.digest => {
            return Err(format!(
                "{name}: sim_digest changed between repetitions: {d:#018x} then {:#018x}",
                out.digest
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

/// The two stdout lines of a finished run: a descriptive object, then
/// the result object the driver reads.
pub struct Report {
    pub descriptive: Json,
    pub result: Json,
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj()
        .set("correct", correct)
        .set("attempted", attempted.max(1))
        .set("failed", failed)
        .set("metrics", metrics)
}

/// The untraced run: `SETUPS` set-ups (inputs from the seed, state
/// build, one repetition), then further repetitions until `seconds`
/// have passed since the process started, so a run lasts `seconds`
/// whatever the host's speed. Only the process's first repetition is
/// cold and discarded; every later one is a throughput sample, whether
/// it closed a set-up or not, so the median spans the whole run. Times
/// are taken at the nominal host speed (see `gauge`); the wall-clock
/// figures go on the descriptive line under `raw`.
fn run_untraced(args: &Args, scale: &Scale, started: Instant) -> Result<Report, String> {
    let name = args.workload.as_str();
    let mut gauge = Gauge::on();
    let mut digest = None;
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let (mut rates, mut raw_rates) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut sample = |out: &RepOut, digest: &mut Option<u64>| {
        check_digest(name, digest, out)?;
        rates.push(out.units / out.nominal_s);
        raw_rates.push(out.units / out.host_s);
        attempted += out.attempted;
        failed += out.failed;
        Ok::<(), String>(())
    };

    let mut workload: Option<Box<dyn Workload>> = None;
    for k in 0..SETUPS {
        // The first set-up is timed from process start.
        let t0 = if k == 0 { started } else { Instant::now() };
        let opening = gauge.read();
        drop(workload.take()); // free the previous inputs before building the next
        let w = build(name, args.seed, scale, &mut Spans::off())?;
        let out = w.rep(&mut Spans::off(), &mut gauge)?;
        let raw = t0.elapsed().as_secs_f64();
        setup_raw_s.push(raw);
        setup_s.push(raw * gauge.factor_since(opening));
        if k == 0 {
            check_digest(name, &mut digest, &out)?;
        } else {
            sample(&out, &mut digest)?;
        }
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up");

    // Start another repetition only if one as long as the last still fits.
    let mut reps = 0;
    let mut last_wall_s = 0.0;
    while reps < MIN_REPS || started.elapsed().as_secs_f64() + last_wall_s <= args.seconds {
        let t = Instant::now();
        sample(&w.rep(&mut Spans::off(), &mut gauge)?, &mut digest)?;
        last_wall_s = t.elapsed().as_secs_f64();
        reps += 1;
    }

    let peak_rss_mb = rss_hwm_bytes()? / (1024.0 * 1024.0);
    let e2e = decl::end_to_end();
    let unit = |n: &str| e2e.iter().find(|m| m.name == n).expect("declared").unit;
    let values = [
        ("throughput", rates.as_slice()),
        ("peak_rss_mb", &[peak_rss_mb][..]),
        ("setup_s", setup_s.as_slice()),
    ];
    let mut rich = Json::obj();
    let mut plain = Json::obj();
    for (n, samples) in values {
        let v = median(samples);
        rich = rich.set(n, sampled(v, unit(n), samples));
        plain = plain.set(n, Json::obj().set("value", v).set("unit", unit(n)));
    }
    let raw = Json::obj()
        .set(
            "throughput",
            sampled(median(&raw_rates), unit("throughput"), &raw_rates),
        )
        .set(
            "setup_s",
            sampled(median(&setup_raw_s), unit("setup_s"), &setup_raw_s),
        );
    let gauge_json = sampled(median(gauge.readings()), "s", gauge.readings())
        .set("nominal", crate::gauge::NOMINAL_SLICE_S);
    let descriptive = Json::obj()
        .set("workload", name)
        .set("seed", args.seed)
        .set("trace", false)
        .set("metrics", rich)
        .set("raw", raw)
        .set("gauge", gauge_json)
        .set("ops_attempted", attempted)
        .set("ops_failed", failed)
        .set("fail_share", failed as f64 / attempted.max(1) as f64)
        .set("sim_digest", format!("{:#018x}", digest.unwrap_or(0)))
        .set("meta", meta(args));
    Ok(Report {
        descriptive,
        result: result_line(failed == 0, attempted, failed, plain),
    })
}

/// The traced run: one set-up, then untraced and traced repetitions in
/// turn (the ratio of their medians is the tracing overhead) for
/// `TRACED_SHARE` of `seconds`, then the ledger. Its times are wall-clock
/// times: the gauge stays off.
fn run_traced(args: &Args, scale: &Scale, started: Instant) -> Result<Report, String> {
    let name = args.workload.as_str();
    let mut setup_spans = Spans::on();
    let w = build(name, args.seed, scale, &mut setup_spans)?;
    let mut digest = None;
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rss_per_rep = 0.0;
    let mut last: Option<(Spans, Json, RepOut)> = None;
    let mut gauge = Gauge::off();
    let budget_s = args.seconds * TRACED_SHARE;
    while traced_s.len() < TRACED_PAIRS || started.elapsed().as_secs_f64() < budget_s {
        let rss_before = rss_hwm_bytes()?;
        let out = w.rep(&mut Spans::off(), &mut gauge)?;
        if plain_s.is_empty() {
            rss_per_rep = (rss_hwm_bytes()? - rss_before).max(0.0);
        }
        check_digest(name, &mut digest, &out)?;
        plain_s.push(out.host_s);

        let mut spans = Spans::on();
        netsim::telemetry::reset();
        let out = w.rep(&mut spans, &mut gauge)?;
        let telemetry = netsim::telemetry::metrics_json();
        check_digest(name, &mut digest, &out)?;
        traced_s.push(out.host_s);
        attempted += out.attempted;
        failed += out.failed;
        last = Some((spans, telemetry, out));
    }
    let (spans, telemetry, out) = last.expect("at least one traced repetition");
    let traced = Traced {
        seed: args.seed,
        scale,
        setup: &setup_spans,
        spans: &spans,
        telemetry: &telemetry,
        out: &out,
        host_s: median(&[plain_s.as_slice(), traced_s.as_slice()].concat()),
        rss_per_rep_bytes: rss_per_rep,
    };
    let mut layers = analyze(w.as_ref(), &traced)?;
    let overhead = 1.0 - median(&plain_s) / median(&traced_s);
    layers
        .measured
        .insert("bench.trace_overhead_share".to_string(), overhead);

    // Every declared per-layer metric appears on the result line; one this
    // workload does not cross reads 0 there and null in the rich forms.
    let mut rich = Json::obj();
    let mut plain = Json::obj();
    for m in decl::per_layer() {
        let v = layers.measured.remove(&m.name);
        let shown = v.map_or(Json::Null, Json::from);
        rich = rich.set(&m.name, Json::obj().set("value", shown).set("unit", m.unit));
        plain = plain.set(
            &m.name,
            Json::obj()
                .set("value", v.unwrap_or(0.0))
                .set("unit", m.unit),
        );
    }
    if let Some(stray) = layers.measured.keys().next() {
        return Err(format!("{name}: measured undeclared metric {stray}"));
    }
    let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::from(s.as_str())).collect());
    let descriptive = Json::obj()
        .set("workload", name)
        .set("seed", args.seed)
        .set("trace", true)
        .set("metrics", rich)
        .set("ops_attempted", attempted)
        .set("ops_failed", failed)
        .set("sim_digest", format!("{:#018x}", digest.unwrap_or(0)))
        .set("flags", strings(&layers.flags))
        .set("missing_telemetry", strings(&layers.missing_telemetry))
        .set("meta", meta(args));

    let file = Json::obj()
        .set("run", descriptive.clone())
        .set("ledger", layers.ledger)
        .set("setup_spans", setup_spans.to_json())
        .set("spans", spans.to_json());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{name}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, file.to_string_compact()))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    Ok(Report {
        descriptive,
        result: result_line(failed == 0, attempted, failed, plain),
    })
}

/// Pin glibc's mmap threshold at its initial value. Left alone it grows
/// with the largest block freed so far, after which blocks of that size
/// come from the heap, and whether the heap can shrink again depends on
/// what small block sits on top of it: one seed in five holds 9 MiB more
/// than the others at its peak for no state of its own. Pinned, every
/// large block is mapped and unmapped on its own, and `peak_rss_mb`
/// follows the state the program holds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only sets a tunable of the allocator; called
    // before the process has a second thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

/// Run as `args` say and print the two lines. Returns the exit code.
pub fn execute(args: &Args, started: Instant) -> i32 {
    pin_mmap_threshold();
    // The ledger's currency is per-core cost: one worker, no knobs.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("STOB_") {
            std::env::remove_var(key);
        }
    }
    netsim::par::set_threads(1);
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let report = if args.trace {
        run_traced(args, &scale, started)
    } else {
        run_untraced(args, &scale, started)
    };
    match report {
        Ok(r) => {
            println!("{}", r.descriptive.to_string_compact());
            println!("{}", r.result.to_string_compact());
            0
        }
        Err(e) => {
            eprintln!("benchmark: FAILED: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_shorthands_parse_alike() {
        let a = args(&[
            "--workload",
            "wf_table2",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "wf_table2");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let b = args(&[
            "trace",
            "--workload",
            "wf_table2",
            "--seed",
            "7",
            "--seconds",
            "3",
        ])
        .unwrap();
        assert_eq!(a, b);
        let c = args(&["run", "--workload", "mux_replay"]).unwrap();
        assert_eq!((c.seed, c.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "wf_table2", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "wf_table2", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "wf_table2", "--frobnicate"]).is_err());
    }
}
