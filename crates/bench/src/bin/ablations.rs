//! Ablations called out in DESIGN.md:
//!
//! 1. The two halves of Figure 3 separately — packet-size-only reduction
//!    vs. TSO-size-only reduction — showing which knob costs which CPU.
//! 2. The HTTPOS-style client-only alternative (§2.3): forcing small
//!    sender packets by advertising a small receive window/MSS, and the
//!    throughput it sacrifices — the paper's argument for why client-only
//!    defenses are "extremely inefficient and impractical".
//! 3. The §5.1 CCA-phase guard with BBR.
//! 4. Placement parity: the §3 combined defense run as app-layer trace
//!    emulation vs. lowered into the in-stack shaper, and how far the
//!    two schedules drift (they should agree to pacing granularity).
//!
//! Usage: `ablations [measure_ms] [seed]`
//!
//! Every cell is an independent simulated network, a pure function of
//! its configuration and seed, so the sweeps fan out across threads
//! (`netsim::par`) without changing any number. Set
//! `STOB_JSON_OUT=<path>` to also write the cells as JSON (stage
//! timings go to stderr).

use defenses::emulate::{CounterMeasure, EmulateConfig, Section3Defense};
use defenses::{emulate_trace, enforce_trace};
use netsim::par::{self, Timings};
use netsim::{FlowId, Json, Nanos, SimRng};
use stack::apps::{BulkSender, ShapedSender, Sink};
use stack::config::CcKind;
use stack::net::{Network, SERVER};
use stack::{HostConfig, PathConfig, StackConfig};
use stob::defense::{DefenseCtx, StackParams};
use stob::guard::CcaPhaseGuard;
use stob::safety::SafetyCap;
use stob::strategies::{DelayJitter, IncrementalReduce};

fn goodput(
    cfg: StackConfig,
    shaper: Option<Box<dyn stack::Shaper>>,
    path: PathConfig,
    server_cfg: Option<StackConfig>,
    measure: Nanos,
    seed: u64,
) -> f64 {
    let mut server_host = HostConfig::default();
    if let Some(sc) = server_cfg {
        server_host.stack = sc;
    }
    let mut net = Network::new(
        HostConfig::default(),
        server_host,
        path,
        Box::new(ShapedSender::new(BulkSender::endless(), cfg, shaper)),
        Box::new(Sink::default()),
        seed,
    );
    let warmup = Nanos::from_millis(30);
    net.run_until(warmup);
    let base = net
        .flow_stats(SERVER, FlowId(1))
        .map(|s| s.bytes_delivered)
        .unwrap_or(0);
    net.run_until(warmup + measure);
    let bytes = net
        .flow_stats(SERVER, FlowId(1))
        .map(|s| s.bytes_delivered)
        .unwrap_or(0)
        - base;
    bytes as f64 * 8.0 / measure.as_secs_f64() / 1e9
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let measure_ms: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(40);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);
    let measure = Nanos::from_millis(measure_ms);
    let mut timings = Timings::new();
    let mut json_cells: Vec<Json> = Vec::new();
    eprintln!("[ablations] running on {} threads", par::threads());

    println!("Ablation 1: which knob costs what (100 Gb/s path, calibrated CPU)\n");
    println!("alpha | pkt-size only | TSO-size only | both (Figure 3)");
    // 6 alphas × 3 shaper variants = 18 independent cells.
    let alphas = [0u32, 8, 16, 24, 32, 40];
    let cells: Vec<(u32, usize)> = alphas
        .iter()
        .flat_map(|&a| (0..3).map(move |v| (a, v)))
        .collect();
    let goodputs = timings.time("ablation1", || {
        par::par_map(&cells, |_, &(alpha, variant)| {
            let shaper: Box<dyn stack::Shaper> = match variant {
                0 => Box::new(SafetyCap::new(IncrementalReduce::new(alpha, 10, 0, 0))),
                1 => Box::new(SafetyCap::new(IncrementalReduce::new(0, 0, alpha / 4, 8))),
                _ => Box::new(SafetyCap::new(IncrementalReduce::with_alpha(alpha))),
            };
            goodput(
                StackConfig::default(),
                Some(shaper),
                PathConfig::lab_100g(),
                None,
                measure,
                seed,
            )
        })
    });
    for (row, alpha) in alphas.iter().enumerate() {
        let (g_pkt, g_tso, g_both) = (
            goodputs[row * 3],
            goodputs[row * 3 + 1],
            goodputs[row * 3 + 2],
        );
        println!("{alpha:>5} | {g_pkt:>10.1} Gb/s | {g_tso:>10.1} Gb/s | {g_both:>10.1} Gb/s");
        json_cells.push(
            Json::obj()
                .set("ablation", 1u64)
                .set("alpha", *alpha)
                .set("pkt_only_gbps", g_pkt)
                .set("tso_only_gbps", g_tso)
                .set("both_gbps", g_both),
        );
    }
    println!(
        "\nreading: TSO shrinkage dominates the CPU cost (more stack traversals \n\
         per byte); packet-size reduction alone is comparatively cheap.\n"
    );

    println!("Ablation 2: the HTTPOS-style client-only alternative (§2.3)\n");
    println!("The client forces small server packets by advertising a small window.");
    println!("Path: 1 Gb/s, 20 ms RTT (a fast residential/transit path).\n");
    println!("receiver window | goodput");
    let path = PathConfig {
        bottleneck_bps: 1_000_000_000,
        one_way_delay: Nanos::from_millis(10),
        queue_bytes: 2 << 20,
        loss: 0.0,
    };
    let windows = [
        ("32 MB (default)", 32u64 << 20),
        ("256 KB", 256 << 10),
        ("64 KB", 64 << 10),
        ("16 KB (HTTPOS-like)", 16 << 10),
        ("4 KB (aggressive)", 4 << 10),
    ];
    let window_goodputs = timings.time("ablation2", || {
        par::par_map(&windows, |_, &(_, rwnd)| {
            let cfg = StackConfig {
                recv_wnd: rwnd,
                ..StackConfig::default()
            };
            // The *receiver* (server here, since our sender is the
            // client) advertises the small window; emulate by capping
            // the client sender's peer window via the server stack
            // config.
            goodput(
                StackConfig::default(),
                None,
                path.clone(),
                Some(cfg),
                Nanos::from_secs(2),
                seed,
            )
        })
    });
    for ((label, rwnd), g) in windows.iter().zip(&window_goodputs) {
        println!("{label:>20} | {g:>7.3} Gb/s");
        json_cells.push(
            Json::obj()
                .set("ablation", 2u64)
                .set("recv_wnd_bytes", *rwnd)
                .set("goodput_gbps", *g),
        );
    }
    println!(
        "\nreading: shrinking the advertised window throttles the whole transfer \n\
         (rwnd/RTT), the §2.3 argument that HTTPOS-style client-only control \n\
         sacrifices bandwidth utilization; Stob's server-side shaping (Figure 3) \n\
         keeps tens of Gb/s instead.\n"
    );

    println!("Ablation 3: the §5.1 CCA-phase guard with BBR\n");
    println!("BBR uses pacing to sense the path during startup; a timing policy");
    println!("that stretches departure gaps there corrupts the bandwidth probe.");
    println!("Early-window goodput (30-180 ms) of a BBR flow under a 30-80%");
    println!("gap-stretch policy:\n");
    let bbr_cfg = StackConfig {
        cc: CcKind::Bbr,
        ..StackConfig::default()
    };
    let bbr_path = PathConfig {
        bottleneck_bps: 5_000_000_000,
        one_way_delay: Nanos::from_millis(5),
        queue_bytes: 4 << 20,
        loss: 0.0,
    };
    let jitter = || {
        DelayJitter::new(
            stob::policy::DelaySpec::UniformFraction {
                lo_frac: 0.3,
                hi_frac: 0.8,
            },
            seed,
        )
    };
    let early = Nanos::from_millis(150);
    let variants = [0usize, 1, 2];
    let bbr_goodputs = timings.time("ablation3", || {
        par::par_map(&variants, |_, &v| {
            let shaper: Option<Box<dyn stack::Shaper>> = match v {
                0 => None,
                1 => Some(Box::new(SafetyCap::new(jitter()))),
                _ => Some(Box::new(CcaPhaseGuard::new(SafetyCap::new(jitter())))),
            };
            goodput(bbr_cfg.clone(), shaper, bbr_path.clone(), None, early, seed)
        })
    });
    let (unshaped, naive, guarded) = (bbr_goodputs[0], bbr_goodputs[1], bbr_goodputs[2]);
    println!("  unshaped BBR:              {unshaped:>6.2} Gb/s");
    println!("  shaped through startup:    {naive:>6.2} Gb/s");
    println!("  shaped after startup only: {guarded:>6.2} Gb/s (CcaPhaseGuard)");
    println!(
        "\nreading: standing the policy down during BBR's startup (the guard) \n\
         preserves the bandwidth probe; §5.1's co-design question is how much \n\
         more than this simple interface is needed."
    );
    json_cells.push(
        Json::obj()
            .set("ablation", 3u64)
            .set("unshaped_gbps", unshaped)
            .set("shaped_through_startup_gbps", naive)
            .set("guarded_gbps", guarded),
    );

    println!("\nAblation 4: placement parity — §3 combined, app vs. in-stack\n");
    println!("The same defense spec runs once as trace emulation and once");
    println!("lowered into the egress shaper; the schedules should agree to");
    println!("pacing granularity (sizes exactly, timestamps within rounding).\n");
    let sites = traces::sites::paper_sites();
    let parity = timings.time("ablation4", || {
        par::par_map(&sites, |label, site| {
            let t = traces::statgen::generate(site, label, 0, seed);
            let d = Section3Defense::new(CounterMeasure::Combined, EmulateConfig::default());
            let ctx = DefenseCtx::default();
            let app = emulate_trace(&d, &t, &ctx, &mut SimRng::new(seed));
            let stk = enforce_trace(
                &d,
                &t,
                &ctx,
                &mut SimRng::new(seed),
                &StackParams::with_seed(seed),
            );
            let sizes_ok = app.trace.len() == stk.trace.len()
                && app
                    .trace
                    .packets
                    .iter()
                    .zip(&stk.trace.packets)
                    .all(|(a, b)| a.size == b.size && a.dir == b.dir);
            let max_dev = app
                .trace
                .packets
                .iter()
                .zip(&stk.trace.packets)
                .map(|(a, b)| a.ts.max(b.ts) - a.ts.min(b.ts))
                .max()
                .unwrap_or(Nanos::ZERO);
            (sizes_ok, max_dev)
        })
    });
    let all_sizes_ok = parity.iter().all(|p| p.0);
    let worst_dev = parity.iter().map(|p| p.1).max().unwrap_or(Nanos::ZERO);
    println!(
        "  sizes + directions identical: {}",
        if all_sizes_ok { "yes" } else { "NO" }
    );
    println!(
        "  worst timestamp deviation:    {:.3} \u{00B5}s",
        worst_dev.as_secs_f64() * 1e6
    );
    println!(
        "\nreading: the stack backend reproduces the emulated schedule — the \n\
         defense spec, not its placement, determines the on-wire shape."
    );
    json_cells.push(
        Json::obj()
            .set("ablation", 4u64)
            .set("sizes_identical", all_sizes_ok)
            .set("worst_ts_dev_ns", worst_dev.0),
    );
    eprintln!("[ablations] {timings}");

    stob_bench::write_json_out("ablations", || {
        Json::obj().set("cells", Json::Arr(json_cells))
    });
}
