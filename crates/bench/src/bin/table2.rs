//! Regenerate **Table 2**: k-FP random-forest accuracy on the nine-site
//! closed world, for each §3 countermeasure applied to (and evaluated
//! on) the first N ∈ {15, 30, 45, All} packets.
//!
//! Usage: `table2 [--telemetry] [visits] [trees] [repeats] [seed]`
//! (defaults: 100 visits/site — the paper's collection size — 100 trees,
//! 5 repeats). Set `STOB_JSON_OUT=<path>` to also write the cells as
//! JSON (byte-stable run-to-run — the CI golden compare reads it;
//! per-stage wall-clock timings go to stderr); `STOB_THREADS` caps the
//! parallel driver.
//! `--telemetry` (or `STOB_TELEMETRY=1`) appends the global metrics
//! summary.

use netsim::Json;
use stob_bench::{cli, collect_dataset, format_table2, run_table2_timed, Table2Config};

fn main() {
    let (args, want_telemetry) = cli::args();
    let visits: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100);
    let trees: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100);
    let repeats: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(5);
    let seed: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(0x7AB1E2);

    eprintln!("[table2] collecting {visits} visits/site across 9 sites (seed {seed})...");
    let t0 = std::time::Instant::now();
    let summary = collect_dataset(visits, seed);
    let collect_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "[table2] collected+sanitized in {:.1}s: {} traces/site after cleaning \
         ({} error drops, {} IQR drops) — paper kept 74/100",
        collect_secs, summary.per_class, summary.dropped_errors, summary.dropped_outliers,
    );

    let cfg = Table2Config {
        trees,
        repeats,
        seed,
    };
    eprintln!("[table2] running the 16-dataset grid ({trees} trees x {repeats} repeats)...");
    let t1 = std::time::Instant::now();
    let (cells, mut timings) = run_table2_timed(&summary.dataset, &cfg);
    eprintln!("[table2] grid done in {:.1}s", t1.elapsed().as_secs_f64());
    timings.push("collect", collect_secs);
    eprintln!("[table2] {timings}");

    stob_bench::write_json_out("table2", || {
        Json::obj().set(
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::obj()
                            .set("countermeasure", c.countermeasure.name())
                            .set("n", c.n as u64)
                            .set("mean", c.mean)
                            .set("std", c.std)
                    })
                    .collect(),
            ),
        )
    });

    println!("\nTable 2: k-FP Random Forest accuracy rates (9 sites, closed world)");
    println!(
        "(reproduction: {} traces/site, {} trees, {} repeats, seed {seed})\n",
        summary.per_class, trees, repeats
    );
    print!("{}", format_table2(&cells));
    println!("\nPaper's Table 2 for comparison:");
    println!("| N   | Original      | Split         | Delayed       | Combined      |");
    println!("| 15  | 0.798 ± 0.017 | 0.825 ± 0.024 | 0.825 ± 0.030 | 0.795 ± 0.031 |");
    println!("| 30  | 0.884 ± 0.007 | 0.860 ± 0.013 | 0.855 ± 0.030 | 0.850 ± 0.062 |");
    println!("| 45  | 0.938 ± 0.016 | 0.897 ± 0.030 | 0.913 ± 0.021 | 0.904 ± 0.004 |");
    println!("| All | 0.963 ± 0.002 | 0.980 ± 0.008 | 0.980 ± 0.014 | 0.992 ± 0.009 |");

    if want_telemetry {
        cli::print_telemetry();
    }
}
