//! Regenerate **Figure 3**: single-flow throughput over a 100 Gb/s link
//! while Stob's `IncrementalReduce` strategy walks packet size down from
//! 1500 by α (10 steps, then reset) and TSO size down from 44 packets by
//! α/4 (8 steps, clamped at 1, then reset).
//!
//! Usage: `figure3 [--telemetry] [--trace-out=<path>] [alpha_max]
//! [alpha_step] [measure_ms] [seed]` (defaults: 0..=40 step 4, 50 ms
//! measurement window after a 30 ms warm-up). `--telemetry` appends the
//! global metrics summary; `--trace-out=<path>` dumps the per-flow
//! shaping-decision trace as JSONL; `STOB_JSON_OUT=<path>` writes the
//! sweep points as JSON (deterministic: no wall-clock timings, so runs
//! at different `STOB_THREADS` byte-compare equal). Either file that
//! cannot be written exits 1.

use netsim::telemetry;
use netsim::{Json, Nanos};
use stob_bench::{cli, run_figure3};

fn main() {
    let args = cli::Positional::new(
        "figure3 [--telemetry] [--trace-out=<path>] [alpha_max] [alpha_step] [measure_ms] [seed]",
    );
    let trace_path = args.value("--trace-out", "a path", |s| {
        (!s.is_empty()).then(|| s.to_string())
    });
    let alpha_max = args.uint(1, 40u32);
    let step = args.count(2, 4);
    let measure_ms = args.count(3, 50) as u64;
    let seed = args.uint(4, 3u64);

    let alphas: Vec<u32> = (0..=alpha_max).step_by(step).collect();
    eprintln!("[figure3] sweeping alpha over {alphas:?} ({measure_ms} ms window, seed {seed})...");
    let t0 = std::time::Instant::now();
    let cap = trace_path.as_ref().map(|_| telemetry::DEFAULT_TRACE_CAP);
    let (pts, events) = run_figure3(&alphas, Nanos::from_millis(measure_ms), seed, cap);
    if let Some(path) = &trace_path {
        let out: String = events
            .iter()
            .map(|ev| ev.to_json().to_string_compact() + "\n")
            .collect();
        eprintln!("[figure3] {} flow events traced", events.len());
        stob_bench::write_out("figure3", path, &out);
    }
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

    if args.flag("--telemetry") {
        cli::print_telemetry();
    }
}

fn bar(gbps: f64) -> String {
    let n = (gbps / 1.5).round().max(0.0) as usize;
    "#".repeat(n)
}
