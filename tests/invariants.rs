//! Randomized invariants spanning crates: the §3 countermeasures, trace
//! algebra and the sanitizer, checked over seeded random traces. The
//! sweep replaces the earlier proptest suite with a deterministic
//! `SimRng` generator so the workspace carries no external test deps;
//! every case is reproducible from the loop index.

use defenses::emulate::{apply, CounterMeasure, EmulateConfig};
use netsim::{Direction, Nanos, SimRng};
use traces::{Trace, TracePacket};

const CASES: u64 = 300;

fn split(t: &Trace, cfg: &EmulateConfig) -> Trace {
    apply(CounterMeasure::Split, t, cfg, &mut SimRng::new(0)).trace
}

fn delay(t: &Trace, cfg: &EmulateConfig, rng: &mut SimRng) -> Trace {
    apply(CounterMeasure::Delayed, t, cfg, rng).trace
}

/// A random well-formed trace, analogous to the old proptest strategy:
/// 1-120 packets, raw timestamps below 5 s, sizes in [66, 3000).
fn arb_trace(rng: &mut SimRng) -> Trace {
    let n = rng.range_usize(1, 120);
    let mut packets: Vec<TracePacket> = (0..n)
        .map(|_| {
            TracePacket::new(
                Nanos(rng.next_below(5_000_000_000)),
                if rng.chance(0.5) {
                    Direction::Out
                } else {
                    Direction::In
                },
                rng.range_u64(66, 2999) as u32,
            )
        })
        .collect();
    packets.sort_by_key(|p| p.ts);
    let mut t = Trace::new(0, 0, packets);
    t.normalize();
    t
}

/// Splitting conserves total bytes, never produces packets above the
/// threshold in the affected direction, and keeps time order.
#[test]
fn split_conserves_bytes_and_bounds_sizes() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x1A).fork(case + 1);
        let trace = arb_trace(&mut rng);
        let cfg = EmulateConfig::default();
        let s = split(&trace, &cfg);
        let orig: u64 = trace.packets.iter().map(|p| p.size as u64).sum();
        let new: u64 = s.packets.iter().map(|p| p.size as u64).sum();
        assert_eq!(orig, new, "case {case}");
        assert!(s.is_well_formed(), "case {case}");
        // The paper's rule halves once (not recursively): every incoming
        // packet in the output is either an untouched small packet or
        // half of an oversize one.
        let max_in_half = trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::In)
            .map(|p| p.size / 2 + p.size % 2)
            .max()
            .unwrap_or(0);
        let bound = cfg.split_threshold.max(max_in_half);
        assert!(
            s.packets
                .iter()
                .filter(|p| p.dir == Direction::In)
                .all(|p| p.size <= bound),
            "case {case}"
        );
        // And for MTU-sized inputs (the real case), halves are bounded
        // by the threshold itself.
        if trace
            .packets
            .iter()
            .all(|q| q.size <= 2 * cfg.split_threshold)
        {
            assert!(
                s.packets
                    .iter()
                    .filter(|p| p.dir == Direction::In)
                    .all(|p| p.size <= cfg.split_threshold),
                "case {case}"
            );
        }
        // Outgoing packets are untouched.
        let out_sizes = |t: &Trace| -> Vec<u32> {
            t.packets
                .iter()
                .filter(|p| p.dir == Direction::Out)
                .map(|p| p.size)
                .collect()
        };
        assert_eq!(out_sizes(&trace), out_sizes(&s), "case {case}");
    }
}

/// Delaying preserves count, sizes and directions, keeps timestamps
/// ordered, and only moves packets later (relative to the rebased
/// origin).
#[test]
fn delay_preserves_everything_but_time() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x2B).fork(case + 1);
        let trace = arb_trace(&mut rng);
        let cfg = EmulateConfig::default();
        let mut delay_rng = rng.fork(0xD);
        let d = delay(&trace, &cfg, &mut delay_rng);
        assert_eq!(d.len(), trace.len(), "case {case}");
        assert!(d.is_well_formed(), "case {case}");
        for (a, b) in trace.packets.iter().zip(&d.packets) {
            assert_eq!(a.size, b.size, "case {case}");
            assert_eq!(a.dir, b.dir, "case {case}");
            assert!(b.ts >= a.ts, "case {case}: packet moved earlier");
        }
        // Total stretch is bounded by the configured band.
        let max_growth = trace.duration().mul_f64(cfg.delay_hi);
        assert!(
            d.duration() <= trace.duration() + max_growth + Nanos(2),
            "case {case}"
        );
    }
}

/// Truncation then featurization is always safe, and truncation is
/// idempotent.
#[test]
fn truncation_is_idempotent_and_monotone() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x3C).fork(case + 1);
        let trace = arb_trace(&mut rng);
        let n = rng.next_below(60) as usize;
        let t1 = trace.truncated(n);
        let t2 = t1.truncated(n);
        assert_eq!(t1, t2, "case {case}");
        if n > 0 {
            assert!(t1.len() <= n, "case {case}");
        } else {
            assert_eq!(t1.len(), trace.len(), "case {case}");
        }
        let f = wf::features::extract_features(&t1, &wf::features::FeatureConfig::paper());
        assert_eq!(f.len(), wf::features::N_FEATURES, "case {case}");
        assert!(f.iter().all(|x| x.is_finite()), "case {case}");
    }
}

/// Feature extraction is invariant under size changes in paper mode.
#[test]
fn paper_features_ignore_sizes() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x4D).fork(case + 1);
        let trace = arb_trace(&mut rng);
        let bump = rng.range_u64(1, 499) as u32;
        let cfg = wf::features::FeatureConfig::paper();
        let f1 = wf::features::extract_features(&trace, &cfg);
        let mut bigger = trace.clone();
        for p in &mut bigger.packets {
            p.size = p.size.saturating_add(bump);
        }
        let f2 = wf::features::extract_features(&bigger, &cfg);
        assert_eq!(f1, f2, "case {case}");
    }
}

/// The sanitizer never *increases* the trace count and keeps only
/// well-formed members of the input.
#[test]
fn sanitizer_output_is_a_subset() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x5E).fork(case + 1);
        let n_traces = rng.range_usize(5, 24);
        let traces: Vec<Trace> = (0..n_traces)
            .map(|v| {
                let n = rng.range_usize(30, 199);
                let pkts = (0..n)
                    .map(|i| TracePacket::new(Nanos(i as u64 * 1000), Direction::In, 1514))
                    .collect();
                Trace::new(0, v, pkts)
            })
            .collect();
        let complete = vec![true; traces.len()];
        let (kept, rep) = traces::sanitize::sanitize_site(traces.clone(), &complete);
        assert!(kept.len() <= traces.len(), "case {case}");
        assert_eq!(
            rep.kept + rep.dropped_errors + rep.dropped_outliers,
            rep.input,
            "case {case}"
        );
        for k in &kept {
            assert!(traces.iter().any(|t| t == k), "case {case}");
        }
    }
}

#[test]
fn split_then_delay_commutes_with_byte_conservation() {
    // Not strictly commutative in timestamps, but byte totals and packet
    // counts agree regardless of order.
    let rng = SimRng::new(1);
    let site = &traces::sites::paper_sites()[1];
    let t = traces::statgen::generate(site, 1, 0, 2);
    let cfg = EmulateConfig::default();
    let a = delay(&split(&t, &cfg), &cfg, &mut rng.fork(1));
    let b = split(&delay(&t, &cfg, &mut rng.fork(2)), &cfg);
    let bytes = |x: &Trace| x.packets.iter().map(|p| p.size as u64).sum::<u64>();
    assert_eq!(bytes(&a), bytes(&b));
    assert_eq!(a.len(), b.len());
}
