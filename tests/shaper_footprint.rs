//! What attaching a policy allocates.
//!
//! Every flow a stack shapes holds its policy's shaper for as long as
//! the flow lives, so every block is paid once per shaped flow: per
//! connection on a `stack::net` host, per flow the fleet runs. A
//! counting global allocator, per thread so the tests in this binary do
//! not see each other's allocations, holds `attach` plus the
//! attachment's shaper to the blocks the flow keeps for each binding of
//! the fleet mix: the built policy's name (and a padding core, or a
//! histogram's bins, where the defense has them) and one boxed capped
//! shaper for a policy with a rule. It holds `assemble_policy_shaper`,
//! which audits, to the boxed capped shaper and its audit handle, the
//! unaudited lowering a harness calls on a policy it owns
//! (`StackParams::shaper`) to the boxed capped shaper alone, a bare
//! `SafetyCap` to none, and starting an mFRONT machine core to its
//! run's per-machine state and emissions.

use defenses::front::FrontConfig;
use defenses::machines::front_machine;
use defenses::FrontDefense;
use netsim::{Histogram, SimRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use stob::defense::{Defense, DefenseCtx, Placement, StackParams};
use stob::machine::MachineDefense;
use stob::policy::{DelaySpec, ObfuscationPolicy, SizeSpec};
use stob::registry::{PolicyKey, PolicyRegistry};
use stob::safety::SafetyCap;
use stob::sockopt::{assemble_policy_shaper, attach, Attachment};
use stob::strategies::IncrementalReduce;

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

/// Allocations `f` makes on this thread; what it returns is dropped
/// after counting.
fn allocs<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let kept = f();
    let n = ALLOCS.with(Cell::get) - before;
    drop(kept);
    n
}

/// Allocations `assemble_policy_shaper` makes on this thread for `p`.
fn assemble_allocs(p: &ObfuscationPolicy) -> u64 {
    allocs(|| assemble_policy_shaper(p, 12, 1))
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

#[test]
fn lowering_an_owned_parametric_policy_allocates_one_block() {
    let params = StackParams::for_flow(12, 1);
    for p in [
        delay_only(true, 20),
        ObfuscationPolicy::split_and_delay("s3"),
    ] {
        let name = p.name.clone();
        assert_eq!(allocs(|| params.shaper(p)), 1, "{name}");
    }
}

/// A histogram of `bins` bins with mass in every one.
fn full_histogram(lo: f64, hi: f64, bins: usize) -> Histogram {
    let mut h = Histogram::new(lo, hi, bins);
    let width = (hi - lo) / bins as f64;
    for b in 0..bins {
        h.push(lo + (b as f64 + 0.5) * width);
    }
    h
}

/// The fleet mix's bindings, plus a morphing policy of 64 size bins and
/// 64 delay bins, and what `attach` plus the attachment's shaper leave
/// the flow holding: the name the policy was built with, FRONT's
/// padding core (its pass-through policy lowers to no shaper), the two
/// histograms' bins moved into their rules and the size rule's box,
/// and one boxed capped shaper per policy with a rule.
#[test]
fn attaching_the_fleet_mix_allocates_only_what_the_flow_keeps() {
    let front = FrontDefense::new(FrontConfig {
        n_client: 4,
        n_server: 10,
        w_min: 0.5,
        w_max: 2.0,
        dummy_size: 1514,
    });
    let morphing = ObfuscationPolicy {
        size: SizeSpec::FromHistogram(full_histogram(0.0, 1500.0, 64)),
        delay: DelaySpec::FromHistogramMicros(full_histogram(0.0, 640.0, 64)),
        ..ObfuscationPolicy::passthrough("morph-64")
    };
    let bindings: [(Arc<dyn Defense>, u64); 4] = [
        (Arc::new(delay_only(false, 0)), 2),
        (Arc::new(front), 2),
        (
            Arc::new(ObfuscationPolicy::split_and_delay("fleet-split")),
            2,
        ),
        (Arc::new(morphing), 5),
    ];
    for (defense, want) in bindings {
        let name = defense.name().to_string();
        let reg = PolicyRegistry::new();
        reg.bind_defense(PolicyKey::Default, defense, Placement::Stack);
        let attach_and_lower = |flow: u32| {
            attach(&reg, flow, 0, 12, &mut SimRng::new(u64::from(flow)))
                .attached()
                .map(Attachment::into_shaper)
        };
        // Warm-up: the first attach registers the counters it touches.
        assert!(attach_and_lower(1).is_some(), "{name} attaches");
        assert_eq!(allocs(|| attach_and_lower(2)), want, "{name}");
    }
}

#[test]
fn a_safety_cap_allocates_nothing() {
    assert_eq!(
        allocs(|| SafetyCap::new(IncrementalReduce::with_alpha(40))),
        0
    );
}

/// A machine core holds its run inline, so starting one allocates the
/// run's per-machine state and the emissions it hands back, and no box
/// for the run itself. mFRONT's spec has no packet row: its core starts
/// at close.
#[test]
fn starting_an_mfront_core_allocates_two_blocks() {
    let mfront = MachineDefense::new(front_machine(&FrontConfig::default()));
    let close = |seed: u64| {
        let mut rng = SimRng::new(seed);
        let flow = mfront.build(&DefenseCtx::default(), &mut rng);
        let mut core = flow.padding.expect("mFRONT pads");
        allocs(|| core.on_close(&mut rng))
    };
    // Warm-up: the first close registers the counters it touches.
    close(1);
    for seed in 2..6 {
        assert_eq!(close(seed), 2, "seed {seed}");
    }
}
