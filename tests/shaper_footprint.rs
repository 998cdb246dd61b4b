//! What attaching a policy allocates: two heap blocks.
//!
//! Every flow a stack shapes holds its policy's shaper for as long as
//! the flow lives, so a fleet pays each block once per resident flow. A
//! counting global allocator, per thread so the tests in this binary do
//! not see each other's allocations, holds `assemble_policy_shaper` to
//! the boxed capped shaper and its audit handle for the policies the
//! fleet attaches most: a delay-only default and the §3 split+delay
//! pair.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stob::policy::{DelaySpec, ObfuscationPolicy};
use stob::sockopt::assemble_policy_shaper;

struct Counting;

thread_local! {
    /// Allocations (not reallocations) made on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: an allocation while the thread is torn down goes
    // uncounted rather than panicking.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only a
// const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `assemble_policy_shaper` makes on this thread for `p`.
fn assemble_allocs(p: &ObfuscationPolicy) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let assembled = assemble_policy_shaper(p, 12, 1);
    let n = ALLOCS.with(Cell::get) - before;
    drop(assembled);
    n
}

/// The fleet's host-wide default shape: delay jitter of 5–20 % of the
/// gap, nothing else.
fn delay_only(respect_slow_start: bool, first_n_pkts: u64) -> ObfuscationPolicy {
    ObfuscationPolicy {
        delay: DelaySpec::UniformFraction {
            lo_frac: 0.05,
            hi_frac: 0.20,
        },
        respect_slow_start,
        first_n_pkts,
        ..ObfuscationPolicy::passthrough("fleet-delay")
    }
}

#[test]
fn a_delay_only_policy_attaches_in_two_blocks() {
    for (respect_slow_start, first_n_pkts) in [(false, 0), (true, 0), (false, 20), (true, 20)] {
        let p = delay_only(respect_slow_start, first_n_pkts);
        assert_eq!(assemble_allocs(&p), 2, "{p:?}");
    }
}

#[test]
fn split_and_delay_attaches_in_two_blocks() {
    let p = ObfuscationPolicy::split_and_delay("s3");
    assert_eq!(assemble_allocs(&p), 2);
}
