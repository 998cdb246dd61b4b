//! What a fleet run keeps per flow of its population.
//!
//! `run_fleet`'s memory is its shards' working sets — a shard runs one
//! flow at a time to completion, and keeps each of its flows' last
//! departure instant (8 bytes per flow of the shard) for its residency
//! peak — plus one residency table of 16 bytes per flow (a start and an
//! end instant) for the global peak-residency sweep. A second copy of
//! that table, or per-shard tables kept alive while the merge builds the
//! global one, doubles the per-flow share. A counting global allocator,
//! per thread, tracks live bytes and their high-water mark; at one
//! thread every shard runs on the calling thread, so the mark is the
//! run's peak. Doubling the flows and the shards together keeps a
//! shard's working set the same, so what the peak grows by is the
//! per-flow share alone. The shards are small (200 flows each), so that
//! a copy made at the merge, when no shard is running, is not hidden
//! under one shard's peak.

use defenses::front::FrontConfig;
use defenses::FrontDefense;
use netsim::{par, Nanos};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use stob::defense::Placement;
use stob::{run_fleet, FleetConfig, ObfuscationPolicy, PolicyKey, PolicyRegistry};

struct Counting;

thread_local! {
    /// Bytes live on this thread: allocated here and not yet freed.
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// The most bytes `LIVE` has held since the last reset.
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn grow(by: u64) {
    // `try_with`: an allocation while the thread is torn down goes
    // uncounted rather than panicking.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(by: u64) {
    // Saturating: a block allocated on another thread may be freed here.
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(by)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (old, new) = (layout.size() as u64, new_size as u64);
        if new > old {
            grow(new - old);
        } else {
            shrink(old - new);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size() as u64);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return what it returned and the most bytes it held live
/// at once on this thread, above what was live when it began.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// Most bytes the peak may grow by per added flow: the residency table's
/// 16, and slack for the shard whose resident set peaks highest.
const BYTES_PER_FLOW_BUDGET: f64 = 20.0;

fn cfg(flows: u64, shards: u64) -> FleetConfig {
    FleetConfig {
        seed: 0xF007,
        flows,
        shards,
        sites: 8,
        pkts_per_flow: (2, 6),
        gap_ns: (50_000, 400_000),
        window: Nanos::from_millis(5),
    }
}

#[test]
fn peak_grows_by_the_residency_table_alone() {
    // Every flow is shaped: a split/delay policy by default, FRONT's
    // padding core on one destination in eight.
    let reg = PolicyRegistry::new();
    reg.publish(
        PolicyKey::Default,
        ObfuscationPolicy::split_and_delay("fleet-footprint"),
    );
    reg.bind_defense(
        PolicyKey::Destination(0),
        Arc::new(FrontDefense::new(FrontConfig::default())),
        Placement::Stack,
    );
    par::set_threads(1);
    // Warm-up: whatever the first run initializes once is not per flow.
    run_fleet(&cfg(500, 1), &reg);
    let (small, small_peak) = peak_bytes(|| run_fleet(&cfg(8_000, 40), &reg));
    let (large, large_peak) = peak_bytes(|| run_fleet(&cfg(16_000, 80), &reg));
    par::set_threads(0);
    assert!(small.clean() && large.clean());
    assert_eq!((small.flows, large.flows), (8_000, 16_000));
    assert!(large.dummy_pkts > 0, "FRONT padded no flow");
    let per_flow = (large_peak as f64 - small_peak as f64) / 8_000.0;
    eprintln!(
        "peak {small_peak} B at 8k flows / 40 shards, {large_peak} B at 16k / 80: \
         {per_flow:.1} B per added flow"
    );
    assert!(
        per_flow <= BYTES_PER_FLOW_BUDGET,
        "the peak grew by {per_flow:.1} B per added flow \
         ({small_peak} B -> {large_peak} B), over {BYTES_PER_FLOW_BUDGET}"
    );
}
