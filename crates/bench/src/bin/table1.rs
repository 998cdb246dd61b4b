//! Regenerate **Table 1** (the WF-defense taxonomy) with an extra,
//! *measured* dimension: average bandwidth and latency overhead of every
//! defense implemented in this workspace, on the nine-site corpus —
//! quantifying §2.3's argument that padding is expensive while timing
//! and packet-size manipulation are (nearly) work-conserving.
//!
//! Usage: `table1 [visits] [seed]` (defaults: 20 visits/site, statistical
//! generator for speed; the taxonomy itself is static). Set
//! `STOB_JSON_OUT=<path>` to also write the measured rows as JSON.

use defenses::taxonomy::{table1, Implementation};
use netsim::Json;
use stob_bench::{run_overheads, OverheadRow};
use traces::sites::paper_sites;
use traces::statgen::generate_corpus;
use traces::Dataset;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let visits: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(7);

    println!("Table 1: WF defense summary (taxonomy)\n");
    println!(
        "| {:<34} | {:<10} | {:<7} | {:<28} | implemented as |",
        "System", "Target", "Strategy", "Traffic manipulation"
    );
    println!(
        "|{}|{}|{}|{}|----------------|",
        "-".repeat(36),
        "-".repeat(12),
        "-".repeat(9),
        "-".repeat(30)
    );
    for e in table1() {
        let manip = e
            .manipulations
            .iter()
            .map(|m| m.label())
            .collect::<Vec<_>>()
            .join(", ");
        let imp = match e.implementation {
            Implementation::Full(p) => p.to_string(),
            Implementation::Lite(p) => format!("{p} (lite)"),
            Implementation::None => "—".to_string(),
        };
        println!(
            "| {:<34} | {:<10} | {:<7} | {:<28} | {imp} |",
            e.system,
            e.target.label(),
            e.strategy.label(),
            manip
        );
    }

    let sites = paper_sites();
    let names = sites.iter().map(|s| s.name.to_string()).collect();
    let dataset = Dataset::new(generate_corpus(&sites, visits, seed), names);
    println!(
        "\nMeasured overheads ({} traces, 9 sites x {visits} visits, seed {seed}):\n",
        dataset.len()
    );
    println!(
        "| {:<22} | bandwidth overhead | latency overhead |",
        "Defense"
    );
    println!(
        "|{}|--------------------|------------------|",
        "-".repeat(24)
    );
    let rows = run_overheads(&dataset, seed);
    stob_bench::write_json_out("table1", || {
        let row = |r: &OverheadRow| {
            Json::obj()
                .set("system", r.system)
                .set("bandwidth", r.bandwidth)
                .set("latency", r.latency)
        };
        Json::obj()
            .set("seed", seed)
            .set("visits", visits as u64)
            .set("rows", Json::Arr(rows.iter().map(row).collect()))
    });
    for row in &rows {
        println!(
            "| {:<22} | {:>16.1}% | {:>14.1}% |",
            row.system,
            row.bandwidth * 100.0,
            row.latency * 100.0
        );
    }
    println!(
        "\nPaper's §2.3 reference points: FRONT ≈ 80% bandwidth overhead, \
         QCSD ≈ 309%; timing manipulation is work-conserving."
    );
}
