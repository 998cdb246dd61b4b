//! Defended server: the §5.4 deployment story. A web server attaches a
//! Stob policy to every accepted connection; the browser and the
//! eavesdropper are unmodified. Compares the wire view of the same visit
//! with and without the in-stack defense.
//!
//! ```sh
//! cargo run --release --example defended_server
//! ```

use netsim::Direction;
use stob::policy::ObfuscationPolicy;
use traces::loader::{load_page, LoaderConfig};
use traces::sites::paper_sites;

fn describe(tag: &str, t: &traces::Trace) {
    let inc: Vec<u32> = t
        .packets
        .iter()
        .filter(|p| p.dir == Direction::In)
        .map(|p| p.size)
        .collect();
    let n = inc.len();
    let full = inc.iter().filter(|&&s| s > 1200).count();
    let mean = inc.iter().map(|&s| s as f64).sum::<f64>() / n.max(1) as f64;
    println!(
        "  {tag:<12} {:>5} pkts down | mean size {:>6.0} B | >1200 B: {:>4} | \
         duration {:>7.0} ms | {:>7.0} KB",
        n,
        mean,
        full,
        t.duration().as_millis_f64(),
        t.download_bytes() as f64 / 1e3,
    );
}

fn main() {
    let sites = paper_sites();
    let site = &sites[2]; // instagram-like: image-heavy, most to hide
    println!(
        "defended server: one visit to {} with and without a server-side Stob policy\n",
        site.name
    );

    let plain_cfg = LoaderConfig::default();
    let plain = load_page(site, 2, 0, 99, &plain_cfg);
    assert!(plain.complete);

    let defended_cfg = LoaderConfig {
        server_policy: Some(ObfuscationPolicy::split_and_delay("server-side")),
        ..LoaderConfig::default()
    };
    let defended = load_page(site, 2, 0, 99, &defended_cfg);
    assert!(defended.complete);
    // Zeros here mean a capture or the wire-byte count went unrecorded.
    for out in [&plain, &defended] {
        assert!(!out.trace.is_empty(), "the client capture is empty");
        assert!(out.server_wire_bytes > 0, "no server wire bytes counted");
    }

    println!("eavesdropper's view at the client access link:");
    describe("stock:", &plain.trace);
    describe("defended:", &defended.trace);

    let slow = defended.trace.duration().as_secs_f64() / plain.trace.duration().as_secs_f64();
    println!(
        "\ncost: page load time x{:.2}, zero padding bytes (work-conserving);",
        slow
    );
    println!(
        "server wire bytes {} -> {} (+{:.1}%, split headers only).",
        plain.server_wire_bytes,
        defended.server_wire_bytes,
        (defended.server_wire_bytes as f64 / plain.server_wire_bytes as f64 - 1.0) * 100.0
    );
    println!(
        "\nthe browser was untouched: the server's stack enforced the policy on \
         the final packet sequence (Figure 2's deployment)."
    );
}
