//! Quickstart: attach a Stob obfuscation policy to a TCP connection and
//! watch the wire packet sequence change — without the application
//! touching a single packet.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use netsim::{Direction, FlowId, PacketKind, SimRng};
use stack::apps::{BulkSender, Sink};
use stack::net::{Api, App, Network};
use stack::{HostConfig, PathConfig, StackConfig};
use stob::policy::ObfuscationPolicy;
use stob::registry::{PolicyKey, PolicyRegistry};
use stob::sockopt::attach;

/// A sender that installs a Stob policy at connect time — the
/// `setsockopt`-style control path of §5.3.
struct ObfuscatedSender {
    inner: BulkSender,
    registry: PolicyRegistry,
}

impl App for ObfuscatedSender {
    fn on_start(&mut self, api: &mut Api) {
        let attachment = attach(&self.registry, 1, 0, 42, &mut SimRng::new(42))
            .attached()
            .expect("policy published below");
        println!("  attached policy: {}", attachment.name());
        api.connect_with(StackConfig::default(), Some(attachment.shaper));
    }
    fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
        self.inner.on_connected(api, flow);
    }
    fn on_sendable(&mut self, api: &mut Api, flow: FlowId) {
        self.inner.on_sendable(api, flow);
    }
}

fn run(policy: Option<ObfuscationPolicy>) -> (usize, f64, u32) {
    let registry = PolicyRegistry::new();
    let label = policy.as_ref().map(|p| p.name.clone());
    if let Some(p) = policy {
        registry.publish(PolicyKey::Default, p);
    }
    let app: Box<dyn App> = if label.is_some() {
        Box::new(ObfuscatedSender {
            inner: BulkSender::new(2_000_000),
            registry,
        })
    } else {
        Box::new(BulkSender::new(2_000_000))
    };
    let mut net = Network::new(
        HostConfig::default(),
        HostConfig::default(),
        PathConfig::internet(100, 20),
        app,
        Box::new(Sink::default()),
        7,
    );
    net.run_to_idle();
    let data: Vec<_> = net
        .client_capture
        .records
        .iter()
        .filter(|r| r.kind == PacketKind::TcpData && r.dir == Direction::Out)
        .collect();
    let n = data.len();
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
