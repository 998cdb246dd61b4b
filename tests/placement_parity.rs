//! The tentpole invariant of the placement-agnostic defense layer: one
//! defense spec, two backends, the same on-wire schedule.
//!
//! The §3 countermeasures are run over real statistically-generated
//! traces, once through app-layer emulation (`emulate_trace`, the
//! paper's methodology) and once lowered into the in-stack shaper and
//! replayed through the egress pipeline (`enforce_trace`). Sizes and
//! directions must agree exactly; timestamps must agree to pacing
//! granularity — the stack recovers each packet's nominal gap from a
//! pacing *rate* (an integer, bits/sec), so a sub-nanosecond-per-packet
//! rounding error accumulates into at most ~1e-4 of the elapsed time.

use defenses::emulate::{CounterMeasure, EmulateConfig, Section3Defense};
use defenses::overhead::Defended;
use defenses::{emulate_trace, enforce_trace};
use netsim::{Nanos, SimRng};
use stob::defense::{DefenseCtx, StackParams};
use traces::sites::paper_sites;
use traces::statgen::generate;
use traces::Trace;

/// Timing agreement bound: absolute floor of 1 µs, relative bound of
/// 1e-4 of the timestamp itself (rate-quantization drift is
/// proportional to elapsed time).
fn within_tolerance(a: Nanos, b: Nanos) -> bool {
    let dev = a.max(b) - a.min(b);
    let bound = Nanos(1_000).max(Nanos((a.max(b).0 as f64 * 1e-4) as u64));
    dev <= bound
}

fn corpus() -> Vec<Trace> {
    paper_sites()
        .iter()
        .enumerate()
        .flat_map(|(label, site)| (0..2).map(move |visit| generate(site, label, visit, 0xC0FFEE)))
        .collect()
}

fn run_both(cm: CounterMeasure, first_n: usize, t: &Trace, seed: u64) -> (Defended, Defended) {
    let em = EmulateConfig { first_n };
    let d = Section3Defense::new(cm, em);
    let ctx = DefenseCtx::default();
    // Aligned randomness: the app backend draws from the caller's rng,
    // the stack backend from the shaper built with (seed, flow_salt=0) —
    // the same stream, so the sampled delay fractions are identical and
    // only rate quantization separates the schedules.
    let app = emulate_trace(&d, t, &ctx, &mut SimRng::new(seed));
    let stk = enforce_trace(
        &d,
        t,
        &ctx,
        &mut SimRng::new(seed),
        &StackParams::with_seed(seed),
    );
    (app, stk)
}

fn assert_parity(cm: CounterMeasure, first_n: usize) {
    for (ti, t) in corpus().iter().enumerate() {
        let seed = 0xAB5EED ^ (ti as u64 + 1);
        let (app, stk) = run_both(cm, first_n, t, seed);
        assert_eq!(
            app.trace.len(),
            stk.trace.len(),
            "{cm:?} first_n={first_n} trace {ti}: packet count diverged"
        );
        for (pi, (a, b)) in app.trace.packets.iter().zip(&stk.trace.packets).enumerate() {
            assert_eq!(
                (a.size, a.dir),
                (b.size, b.dir),
                "{cm:?} first_n={first_n} trace {ti} pkt {pi}: size/dir diverged"
            );
            assert!(
                within_tolerance(a.ts, b.ts),
                "{cm:?} first_n={first_n} trace {ti} pkt {pi}: \
                 app ts {} vs stack ts {} outside pacing tolerance",
                a.ts,
                b.ts
            );
        }
    }
}

#[test]
fn split_matches_across_placements_whole_flow() {
    assert_parity(CounterMeasure::Split, 0);
}

#[test]
fn split_matches_across_placements_first_30() {
    assert_parity(CounterMeasure::Split, 30);
}

#[test]
fn delayed_matches_across_placements_whole_flow() {
    assert_parity(CounterMeasure::Delayed, 0);
}

#[test]
fn delayed_matches_across_placements_first_30() {
    assert_parity(CounterMeasure::Delayed, 30);
}

#[test]
fn combined_matches_across_placements_whole_flow() {
    assert_parity(CounterMeasure::Combined, 0);
}

#[test]
fn combined_matches_across_placements_first_30() {
    assert_parity(CounterMeasure::Combined, 30);
}

#[test]
fn split_only_is_bit_exact_across_placements() {
    // Without a delay spec the replay path never paces, so the two
    // backends must agree exactly, not just within tolerance.
    for (ti, t) in corpus().iter().enumerate() {
        let (app, stk) = run_both(CounterMeasure::Split, 0, t, 7 + ti as u64);
        assert_eq!(
            app.trace, stk.trace,
            "split-only schedules must be identical (trace {ti})"
        );
    }
}

#[test]
fn original_is_bit_exact_across_placements() {
    for (ti, t) in corpus().iter().enumerate() {
        let (app, stk) = run_both(CounterMeasure::Original, 0, t, 99);
        assert_eq!(app.trace, stk.trace, "passthrough diverged (trace {ti})");
        assert_eq!(app.trace, *t, "passthrough must not alter the trace");
    }
}
