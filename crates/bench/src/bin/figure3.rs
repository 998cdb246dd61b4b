//! Regenerate **Figure 3**: single-flow throughput over a 100 Gb/s link
//! while Stob's `IncrementalReduce` strategy walks packet size down from
//! 1500 by α (10 steps, then reset) and TSO size down from 44 packets by
//! α/4 (8 steps, clamped at 1, then reset).
//!
//! Usage: `figure3 [--telemetry] [alpha_max] [alpha_step] [measure_ms] [seed]`
//! (defaults: 0..=40 step 4, 50 ms measurement window after a 30 ms
//! warm-up). `--telemetry` (or `STOB_TELEMETRY=1`) appends the global
//! metrics summary; `STOB_TRACE_OUT=<path>` dumps the per-flow
//! shaping-decision trace as JSONL; `STOB_JSON_OUT=<path>` writes the
//! sweep points as JSON (deterministic: no wall-clock timings, so runs
//! at different `STOB_THREADS` byte-compare equal).

use netsim::telemetry;
use netsim::{Json, Nanos};
use stob_bench::{cli, run_figure3, run_figure3_traced};

fn main() {
    let (args, want_telemetry) = cli::args();
    let alpha_max: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(40);
    let step: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let measure_ms: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(50);
    let seed: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(3);

    let alphas: Vec<u32> = (0..=alpha_max).step_by(step.max(1) as usize).collect();
    eprintln!("[figure3] sweeping alpha over {alphas:?} ({measure_ms} ms window, seed {seed})...");
    let t0 = std::time::Instant::now();
    let trace_path = telemetry::trace_out();
    let pts = if let Some(path) = &trace_path {
        let (pts, events) = run_figure3_traced(
            &alphas,
            Nanos::from_millis(measure_ms),
            seed,
            telemetry::DEFAULT_TRACE_CAP,
        );
        let mut out = String::new();
        for ev in &events {
            out.push_str(&ev.to_json().to_string_compact());
            out.push('\n');
        }
        match std::fs::write(path, out) {
            Ok(()) => eprintln!("[figure3] wrote {} flow events to {path}", events.len()),
            Err(e) => eprintln!("[figure3] could not write {path}: {e}"),
        }
        pts
    } else {
        run_figure3(&alphas, Nanos::from_millis(measure_ms), seed)
    };
    eprintln!("[figure3] sweep done in {:.1}s", t0.elapsed().as_secs_f64());

    stob_bench::write_json_out("figure3", || {
        Json::obj().set("seed", seed).set(
            "points",
            Json::Arr(
                pts.iter()
                    .map(|p| {
                        Json::obj()
                            .set("alpha", u64::from(p.alpha))
                            .set("goodput_gbps", p.goodput_gbps)
                    })
                    .collect(),
            ),
        )
    });

    println!("\nFigure 3: packet and TSO size adjustment vs. throughput");
    println!("(single CUBIC flow, 100 Gb/s path, calibrated 1-core CPU model)\n");
    println!("alpha  pkt-size-range     tso-range       goodput");
    for p in &pts {
        let pkt_lo = 1500u32.saturating_sub(p.alpha * 10);
        let tso_lo = 44u32.saturating_sub((p.alpha / 4) * 8).max(1);
        println!(
            "{:>5}  1500..{:<12} 44..{:<10} {:>6.1} Gb/s  {}",
            p.alpha,
            pkt_lo,
            tso_lo,
            p.goodput_gbps,
            bar(p.goodput_gbps),
        );
    }
    let min = pts
        .iter()
        .map(|p| p.goodput_gbps)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nminimum goodput across the sweep: {min:.1} Gb/s \
         (paper: \"preserves 19.7 Gb/s or higher\")"
    );

    if want_telemetry {
        cli::print_telemetry();
    }
}

fn bar(gbps: f64) -> String {
    let n = (gbps / 1.5).round().max(0.0) as usize;
    "#".repeat(n)
}
