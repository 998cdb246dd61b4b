//! Allocation budget for the live packet path.
//!
//! A counting global allocator wraps a small mix of what goes through
//! `stack::net`: a few TCP page loads per site, one QUIC page load, one
//! `Multiplex` replay over three legs and a short Figure 3 point. Every
//! allocation the process makes while they run counts — set-up, page
//! models and captures included — against the wire packets the NICs
//! sent. In steady state the transports write into action and segment
//! buffers the `Network` recycles, so the mix stays well under a quarter
//! of an allocation per wire packet; a per-packet or per-segment `Vec`
//! on that path puts it above one.
//!
//! The allocator also sums the bytes it hands out. A Figure 3 point at
//! α = 0 reads nothing but goodput, so it records no capture and
//! allocates a few bytes per wire packet; a capture recorded there,
//! growing with the run, costs tens.
//!
//! One test in its own binary: the allocator and the
//! `stack.nic.packets_tx` counter are process-wide.

use netsim::Nanos;
use stack::mux::SplitterSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use stob_bench::multipath::replay_multipath;
use traces::loader::{load_page, LoaderConfig, TransportKind};
use traces::sites::paper_sites;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only
// atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown buffer costs what it grew by, a shrunk one nothing.
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations per wire packet the mix may make.
const BUDGET: f64 = 0.25;

/// Most bytes per wire packet the α = 0 Figure 3 point may allocate.
const BULK_BYTES_BUDGET: f64 = 8.0;

#[test]
fn packet_path_stays_under_the_allocation_budget() {
    let sites = paper_sites();
    let tcp = LoaderConfig::default();
    let quic = LoaderConfig {
        transport: TransportKind::Quic,
        ..LoaderConfig::default()
    };
    let packets = netsim::tm_counter!("stack.nic.packets_tx");
    let (allocs0, packets0) = (ALLOCS.load(Ordering::Relaxed), packets.get());

    for (label, site) in sites.iter().enumerate() {
        for visit in 0..3 {
            assert!(load_page(site, label, visit, 12, &tcp).complete);
        }
    }
    let page = load_page(&sites[0], 0, 0, 12, &quic);
    assert!(page.complete);
    let (merged, _) = replay_multipath(
        &page.trace,
        &SplitterSpec::RoundRobin,
        3,
        "baseline",
        Some(4),
        12,
    );
    assert!(!merged.packets.is_empty());
    let point = stob_bench::figure3_point(40, Nanos::from_millis(10), 12);
    assert!(point.goodput_gbps > 0.0);

    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let wire = packets.get() - packets0;
    let per_pkt = allocs as f64 / wire as f64;
    eprintln!("{allocs} allocations for {wire} wire packets: {per_pkt:.3} per packet");
    assert!(
        per_pkt <= BUDGET,
        "{allocs} allocations for {wire} wire packets = {per_pkt:.3} per packet, budget {BUDGET}"
    );

    let (bytes0, packets0) = (BYTES.load(Ordering::Relaxed), packets.get());
    let point = stob_bench::figure3_point(0, Nanos::from_millis(10), 12);
    assert!(point.goodput_gbps > 0.0);
    let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
    let wire = packets.get() - packets0;
    let per_pkt = bytes as f64 / wire as f64;
    eprintln!("{bytes} bytes for {wire} wire packets at α 0: {per_pkt:.2} per packet");
    assert!(
        per_pkt <= BULK_BYTES_BUDGET,
        "{bytes} bytes for {wire} wire packets = {per_pkt:.2} per packet, \
         budget {BULK_BYTES_BUDGET}"
    );
}
