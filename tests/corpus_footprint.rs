//! What the batch replay path keeps resident: one copy of the corpus,
//! and defended flows without slack.
//!
//! A replayed corpus lives for the whole run, and so does every
//! defended corpus a harness keeps, so a byte of slack per packet or a
//! second copy of a column is paid at the scale of the corpus. A counting
//! global allocator, per thread so the tests in this binary do not see
//! each other's allocations, holds three things:
//! - `TraceBank::new` borrows the corpus: what it allocates does not
//!   grow with the packet count;
//! - `statgen::generate` returns exact-sized packet vectors;
//! - `defend_all`'s defended traces are exact-sized at both placements,
//!   and a padded flow gets there without a shrinking copy.

use defenses::{defend_all, emulate_trace, enforce_trace, TraceBank};
use netsim::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stob::defense::{DefenseCtx, Placement, ReferenceBank, StackParams};
use stob_bench::suite::DefenseKind;
use traces::sites::paper_sites;
use traces::statgen::{generate, generate_corpus};
use traces::Trace;

struct Counting;

thread_local! {
    /// Bytes handed out on this thread; a grown buffer counts what it
    /// grew by.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Reallocations on this thread that shrank a buffer.
    static SHRINKS: Cell<u64> = const { Cell::new(0) };
}

fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    // `try_with`: an allocation while the thread is torn down goes
    // uncounted rather than panicking.
    let _ = cell.try_with(|c| c.set(c.get() + by));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&BYTES, layout.size() as u64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&BYTES, layout.size() as u64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size < layout.size() {
            bump(&SHRINKS, 1);
        }
        bump(&BYTES, new_size.saturating_sub(layout.size()) as u64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocated on this thread: bytes, and shrinking reallocs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (b0, s0) = (BYTES.with(Cell::get), SHRINKS.with(Cell::get));
    let out = f();
    (
        out,
        BYTES.with(Cell::get) - b0,
        SHRINKS.with(Cell::get) - s0,
    )
}

/// Most bytes a bank over the nine paper sites may allocate: its label
/// histogram, whatever the corpus holds.
const BANK_BYTES_BUDGET: u64 = 4096;

fn exact(t: &Trace) -> bool {
    t.packets.capacity() == t.packets.len()
}

#[test]
fn trace_bank_allocates_independently_of_the_corpus_size() {
    let sites = paper_sites();
    let mut bytes = Vec::new();
    for visits in [2, 20] {
        let corpus = generate_corpus(&sites, visits, 12);
        let (bank, b, _) = counted(|| TraceBank::new(&corpus));
        let pkts: usize = corpus.iter().map(Trace::len).sum();
        assert!(
            b <= BANK_BYTES_BUDGET,
            "9 x {visits} visits ({pkts} pkts): the bank allocated {b} B"
        );
        bytes.push(b);
        // A reference's inbound schedule is read from its trace, exact-sized.
        for (i, t) in corpus.iter().enumerate().step_by(7) {
            let times = bank.in_times(i);
            let want: Vec<_> = t
                .packets
                .iter()
                .filter(|p| p.dir == netsim::Direction::In)
                .map(|p| p.ts)
                .collect();
            assert_eq!(times, want, "trace {i}");
            assert_eq!(times.capacity(), times.len(), "trace {i}");
        }
    }
    assert_eq!(
        bytes[0], bytes[1],
        "the bank's allocation follows the corpus"
    );
}

#[test]
fn statgen_traces_are_exact_sized() {
    let sites = paper_sites();
    for t in generate_corpus(&sites, 20, 12) {
        assert!(exact(&t), "site {} visit {}", t.label, t.visit);
    }
    for seed in 0..20 {
        for (label, site) in sites.iter().enumerate() {
            let t = generate(site, label, seed as usize, seed);
            assert!(exact(&t), "site {label} seed {seed}");
        }
    }
}

#[test]
fn defended_traces_are_exact_sized_at_both_placements() {
    let sites = paper_sites();
    let corpus = generate_corpus(&sites, 3, 12);
    let bank = TraceBank::new(&corpus);
    let root = SimRng::new(12);
    let kinds = [
        DefenseKind::Split,
        DefenseKind::Front,
        DefenseKind::Buflo,
        DefenseKind::Surakav,
    ];
    for kind in kinds {
        let spec = kind.spec();
        for placement in Placement::ALL {
            let rows = defend_all(spec.as_ref(), placement, &corpus, Some(&bank), &root, 7);
            assert_eq!(rows.len(), corpus.len());
            for (d, t) in rows.iter().zip(&corpus) {
                assert!(
                    exact(&d.trace),
                    "{kind:?} at {}: site {} visit {}",
                    placement.name(),
                    t.label,
                    t.visit
                );
            }
        }
    }
}

/// FRONT only adds dummies, so its close-out keeps the whole stream and
/// appends the schedule: that grows the flow by exactly the schedule,
/// and nothing is left to shrink away afterwards.
#[test]
fn a_padded_flow_is_written_without_a_shrinking_copy() {
    let sites = paper_sites();
    let corpus = generate_corpus(&sites, 2, 12);
    let spec = DefenseKind::Front.spec();
    let params = StackParams::with_seed(7);
    for (i, t) in corpus.iter().enumerate() {
        let ctx = DefenseCtx {
            label: t.label,
            bank: None,
        };
        for placement in Placement::ALL {
            let mut rng = SimRng::new(i as u64);
            let (d, _, shrinks) = counted(|| match placement {
                Placement::App => emulate_trace(spec.as_ref(), t, &ctx, &mut rng),
                Placement::Stack => enforce_trace(spec.as_ref(), t, &ctx, &mut rng, &params),
            });
            assert!(d.trace.len() > t.len(), "trace {i} was padded");
            assert!(exact(&d.trace));
            assert_eq!(shrinks, 0, "trace {i} at {}", placement.name());
        }
    }
}
