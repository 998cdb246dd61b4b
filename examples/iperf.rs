//! iperf3-in-the-simulator: the Figure 3 measurement as a single run.
//!
//! Reports single-flow goodput over the 100 Gb/s lab path with the
//! `IncrementalReduce(alpha)` Stob strategy shaping the sender, plus the
//! safety audit proving no decision exceeded what the CCA allowed.
//!
//! ```sh
//! cargo run --release --example iperf -- 20      # alpha = 20
//! cargo run --release --example iperf            # alpha = 0 (stock)
//! ```

use netsim::{FlowId, Nanos};
use stack::apps::{BulkSender, Sink};
use stack::net::{Api, App, Network, CLIENT, SERVER};
use stack::{HostConfig, PathConfig, StackConfig};
use stob::safety::SafetyCap;
use stob::strategies::IncrementalReduce;

struct Iperf {
    inner: BulkSender,
    shaper: Option<Box<dyn stack::Shaper>>,
}

impl App for Iperf {
    fn on_start(&mut self, api: &mut Api) {
        let shaper = self.shaper.take();
        api.connect_with(StackConfig::default(), shaper);
    }
    fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
        self.inner.on_connected(api, flow);
    }
    fn on_sendable(&mut self, api: &mut Api, flow: FlowId) {
        self.inner.on_sendable(api, flow);
    }
}

fn main() {
    let alpha: u32 = stob_bench::cli::Positional::new("iperf [alpha]").uint(1, 0);

    let mut cap = SafetyCap::new(IncrementalReduce::with_alpha(alpha));
    let audit = cap.audit_handle();
    let mut net = Network::new(
        HostConfig::default(),
        HostConfig::default(),
        PathConfig::lab_100g(),
        Box::new(Iperf {
            inner: BulkSender::endless(),
            shaper: Some(Box::new(cap)),
        }),
        Box::new(Sink::default()),
        1,
    );

    println!("iperf (simulated): single CUBIC flow, 100 Gb/s path, alpha = {alpha}");
    println!("interval         transfer        goodput");
    let warmup = Nanos::from_millis(20);
    net.run_until(warmup);
    let mut last_bytes = net
        .flow_stats(SERVER, FlowId(1))
        .map(|s| s.bytes_delivered)
        .unwrap_or(0);
    let step = Nanos::from_millis(20);
    let mut t = warmup;
    let mut total = 0u64;
    for i in 0..10 {
        t += step;
        net.run_until(t);
        let bytes = net
            .flow_stats(SERVER, FlowId(1))
            .map(|s| s.bytes_delivered)
            .unwrap_or(0);
        let delta = bytes - last_bytes;
        total += delta;
        last_bytes = bytes;
        println!(
            "{:>3}-{:<3} ms     {:>8.2} MB     {:>6.2} Gb/s",
            (warmup + step * i).as_millis_f64(),
            (warmup + step * (i + 1)).as_millis_f64(),
            delta as f64 / 1e6,
            delta as f64 * 8.0 / step.as_secs_f64() / 1e9
        );
    }
    println!(
        "\naverage goodput: {:.2} Gb/s",
        total as f64 * 8.0 / (step * 10).as_secs_f64() / 1e9
    );

    let cs = net.flow_stats(CLIENT, FlowId(1)).expect("client conn");
    println!(
        "sender: {} segments, {} packets ({} shaped), {} fast retransmits, {} RTOs",
        cs.segs_sent, cs.pkts_sent, cs.shaped_segs, cs.retransmits, cs.timeouts
    );
    println!(
        "sender CPU utilization: {:.0}%",
        net.cpu(CLIENT).utilization(t) * 100.0
    );
    println!(
        "safety audit: {} decisions checked, {} clamped (must be 0 for a benign policy)",
        audit.decisions.load(std::sync::atomic::Ordering::Relaxed),
        audit.total_clamped()
    );
}
