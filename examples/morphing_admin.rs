//! Morphing admin: an operator fits a Stob policy from observed target
//! traffic, publishes it to the shared registry as JSON (the §4.1 policy
//! table), and every new connection picks it up — no application change.
//!
//! ```sh
//! cargo run --release --example morphing_admin
//! ```

use netsim::Direction;
use stob::fit::fit_morphing_policy;
use stob::registry::{PolicyKey, PolicyRegistry};
use traces::loader::{load_page, LoaderConfig};
use traces::sites::paper_sites;

fn main() {
    let sites = paper_sites();

    // Step 1: the operator's target profile — an interactive messaging
    // app whose packets cluster around 700-950 bytes with relaxed
    // timing. (Bulk web downloads all ride at full MTU, so to *look*
    // interactive the victim's packets must shrink toward this band.)
    let mut rng = netsim::SimRng::new(42);
    let sizes: Vec<u32> = (0..400).map(|_| rng.range_u64(700, 950) as u32).collect();
    let gaps: Vec<f64> = (0..400).map(|_| rng.range_f64(200.0, 1_500.0)).collect();
    println!(
        "target profile: interactive app, {} size samples (700-950 B), {} gap samples",
        sizes.len(),
        gaps.len()
    );

    // Step 2: fit the policy and publish it through the registry's JSON
    // interface, as an administrator would.
    let policy = fit_morphing_policy("imitate-interactive", &sizes, &gaps, 24);
    let admin_registry = PolicyRegistry::new();
    admin_registry.publish(PolicyKey::Default, policy);
    let exported = admin_registry.export_json();
    println!(
        "exported policy table: {} bytes of JSON (histograms included)",
        exported.len()
    );

    // Step 3: a different host imports the table and serves a heavy site
    // (youtube-like) under the fitted policy.
    let host_registry = PolicyRegistry::new();
    host_registry
        .import_json(&exported)
        .expect("fresh export is valid");
    let fitted = host_registry
        .resolve(1, 0)
        .expect("default policy resolves");

    let plain = load_page(&sites[8], 8, 0, 9, &LoaderConfig::default());
    let defended = load_page(
        &sites[8],
        8,
        0,
        9,
        &LoaderConfig {
            server_policy: Some(fitted),
            ..LoaderConfig::default()
        },
    );

    let stat = |t: &traces::Trace| {
        let inc: Vec<f64> = t
            .packets
            .iter()
            .filter(|p| p.dir == Direction::In && p.size > 100)
            .map(|p| p.size as f64)
            .collect();
        (inc.len(), inc.iter().sum::<f64>() / inc.len().max(1) as f64)
    };
    let (n_p, mean_p) = stat(&plain.trace);
    let (n_d, mean_d) = stat(&defended.trace);
    println!("\nincoming data packets (count, mean wire size):");
    println!("  target profile          :   n/a pkts,    ~840 B");
    println!(
        "  victim plain    ({}): {n_p:>5} pkts, {mean_p:>6.0} B",
        sites[8].name
    );
    println!(
        "  victim morphed  ({}): {n_d:>5} pkts, {mean_d:>6.0} B",
        sites[8].name
    );
    println!(
        "\nthe morphed flow's packet sizes moved toward the target's \
         distribution\n(one-sided: Stob can shrink and delay, never grow or \
         hasten — the §4.2 envelope)."
    );
}
