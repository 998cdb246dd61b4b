//! Quickstart: attach a Stob obfuscation policy to a TCP connection and
//! watch the wire packet sequence change — without the application
//! touching a single packet.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use netsim::{Direction, PacketKind, SimRng};
use stack::apps::{BulkSender, ShapedSender, Sink};
use stack::net::{App, Network, CLIENT};
use stack::{HostConfig, PathConfig, StackConfig};
use stob::policy::ObfuscationPolicy;
use stob::registry::{PolicyKey, PolicyRegistry};
use stob::sockopt::attach;

fn run(policy: Option<ObfuscationPolicy>) -> (usize, f64, u32) {
    let app: Box<dyn App> = match policy {
        Some(p) => {
            // The `setsockopt`-style control path of §5.3: publish the
            // policy, attach it to flow 1, and open the connection with
            // its shaper installed.
            let registry = PolicyRegistry::new();
            registry.publish(PolicyKey::Default, p);
            let attachment = attach(&registry, 1, 0, 42, &mut SimRng::new(42))
                .attached()
                .expect("policy published above");
            println!("  attached policy: {}", attachment.name());
            Box::new(ShapedSender::new(
                BulkSender::new(2_000_000),
                StackConfig::default(),
                attachment.into_shaper(),
            ))
        }
        None => Box::new(BulkSender::new(2_000_000)),
    };
    let mut net = Network::new(
        HostConfig::default(),
        HostConfig::default(),
        PathConfig::internet(100, 20),
        app,
        Box::new(Sink::default()),
        7,
    );
    net.record_capture(CLIENT);
    net.run_to_idle();
    let data: Vec<_> = net
        .client_capture
        .records
        .iter()
        .filter(|r| r.kind == PacketKind::TcpData && r.dir == Direction::Out)
        .collect();
    let n = data.len();
    // An empty capture means the run forgot `record_capture`.
    assert!(n > 0, "the client vantage point saw no data packets");
    let mean_size = data.iter().map(|r| r.wire_len as f64).sum::<f64>() / n.max(1) as f64;
    let max_size = data.iter().map(|r| r.wire_len).max().unwrap_or(0);
    (n, mean_size, max_size)
}

fn main() {
    println!("stob quickstart: 2 MB upload over a 100 Mb/s, 20 ms-RTT path\n");

    println!("without obfuscation:");
    let (n, mean, max) = run(None);
    println!("  {n} data packets, mean wire size {mean:.0} B, max {max} B\n");

    println!("with the paper's split+delay policy (threshold 1200 B, 10-30% jitter):");
    let (n2, mean2, max2) = run(Some(ObfuscationPolicy::split_and_delay("quickstart")));
    println!("  {n2} data packets, mean wire size {mean2:.0} B, max {max2} B\n");

    println!(
        "the policy {} the packet count (+{:.0}%) and shrank sizes, purely in-stack —",
        if n2 > n { "raised" } else { "did not raise" },
        (n2 as f64 / n as f64 - 1.0) * 100.0
    );
    println!("the application still wrote the same 2 MB with plain send() calls.");
}
