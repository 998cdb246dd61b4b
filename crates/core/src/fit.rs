//! Policy fitting: build obfuscation policies from observed traffic —
//! the Traffic-Morphing idea (Wright et al., Table 1's "Morphing" row)
//! expressed as Stob policies.
//!
//! Given samples of a *target* site's packet sizes and inter-departure
//! gaps, fit the §4.1 histogram representations so a protected flow's
//! packets are resized/re-timed toward the target distribution. Because
//! Stob can only shrink packets and add delay (the safety envelope),
//! morphing is one-sided: a flow can imitate a target with smaller
//! packets and looser timing, never the reverse — an honest statement of
//! what in-stack morphing can do.

use crate::policy::{DelaySpec, ObfuscationPolicy, SizeSpec, TsoSpec};
use netsim::Histogram;

/// Fit a packet-size histogram policy from target IP packet sizes.
pub(crate) fn fit_size_policy(
    name: &str,
    target_ip_sizes: &[u32],
    bins: usize,
) -> ObfuscationPolicy {
    assert!(!target_ip_sizes.is_empty(), "no size samples");
    let lo = *target_ip_sizes.iter().min().expect("nonempty") as f64;
    let hi = (*target_ip_sizes.iter().max().expect("nonempty") as f64) + 1.0;
    let mut h = Histogram::new(lo.min(hi - 1.0), hi, bins.max(1));
    for &s in target_ip_sizes {
        h.push(s as f64);
    }
    ObfuscationPolicy {
        name: name.to_string(),
        size: SizeSpec::FromHistogram(h),
        delay: DelaySpec::Unchanged,
        tso: TsoSpec::Unchanged,
        first_n_pkts: 0,
        respect_slow_start: false,
    }
}

/// Fit a departure-gap histogram policy from target inter-departure
/// gaps (microseconds).
pub(crate) fn fit_delay_policy(
    name: &str,
    target_gaps_us: &[f64],
    bins: usize,
) -> ObfuscationPolicy {
    assert!(!target_gaps_us.is_empty(), "no gap samples");
    let hi = target_gaps_us.iter().cloned().fold(1.0, f64::max) + 1.0;
    let mut h = Histogram::new(0.0, hi, bins.max(1));
    for &g in target_gaps_us {
        h.push(g.max(0.0));
    }
    ObfuscationPolicy {
        name: name.to_string(),
        size: SizeSpec::Unchanged,
        delay: DelaySpec::FromHistogramMicros(h),
        tso: TsoSpec::Unchanged,
        first_n_pkts: 0,
        respect_slow_start: false,
    }
}

/// Fit both channels at once (Morphing-lite).
pub fn fit_morphing_policy(
    name: &str,
    target_ip_sizes: &[u32],
    target_gaps_us: &[f64],
    bins: usize,
) -> ObfuscationPolicy {
    let size = fit_size_policy(name, target_ip_sizes, bins).size;
    let delay = fit_delay_policy(name, target_gaps_us, bins).delay;
    ObfuscationPolicy {
        name: name.to_string(),
        size,
        delay,
        tso: TsoSpec::Unchanged,
        first_n_pkts: 0,
        respect_slow_start: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::PolicyShaper;
    use netsim::{FlowId, Nanos};
    use stack::{ShapeCtx, Shaper};

    fn ctx() -> ShapeCtx {
        ShapeCtx {
            flow: FlowId(1),
            now: Nanos(0),
            cwnd: 100_000,
            pacing_rate_bps: Some(1_000_000_000),
            in_slow_start: false,
            bytes_sent: 0,
            pkts_sent: 0,
            segs_sent: 0,
            mtu_ip: 1500,
            mss: 1448,
        }
    }

    #[test]
    fn fitted_size_policy_samples_near_the_target_distribution() {
        // Target: a site that sends mostly ~700-byte packets.
        let target: Vec<u32> = (0..500).map(|i| 650 + (i % 100)).collect();
        let policy = fit_size_policy("morph", &target, 20);
        let mut shaper = PolicyShaper::new(policy, 7, 1);
        let c = ctx();
        let sampled: Vec<u32> = (0..500)
            .map(|_| shaper.packet_ip_size(&c, 0, 1500))
            .collect();
        let mean = sampled.iter().map(|&s| s as f64).sum::<f64>() / sampled.len() as f64;
        assert!(
            (640.0..770.0).contains(&mean),
            "sampled mean {mean} should sit in the target band"
        );
        assert!(sampled.iter().all(|&s| s <= 1500));
    }

    #[test]
    fn fitted_size_policy_cannot_grow_packets() {
        // Target has jumbo sizes; the shaper must clamp to proposed.
        let target: Vec<u32> = vec![8000; 100];
        let policy = fit_size_policy("jumbo", &target, 10);
        let mut shaper = PolicyShaper::new(policy, 7, 1);
        let c = ctx();
        for _ in 0..100 {
            assert!(shaper.packet_ip_size(&c, 0, 1500) <= 1500);
        }
    }

    #[test]
    fn fitted_delay_policy_samples_in_target_range() {
        let gaps: Vec<f64> = (0..300).map(|i| 100.0 + (i % 50) as f64).collect();
        let policy = fit_delay_policy("slowmorph", &gaps, 15);
        let mut shaper = PolicyShaper::new(policy, 9, 2);
        let c = ctx();
        for _ in 0..200 {
            let d = shaper.extra_delay(&c);
            assert!(
                d <= Nanos::from_micros(160),
                "delay {d} beyond target range"
            );
        }
    }

    #[test]
    fn morphing_policy_combines_both_channels() {
        let sizes: Vec<u32> = vec![600; 50];
        let gaps: Vec<f64> = vec![250.0; 50];
        let p = fit_morphing_policy("full", &sizes, &gaps, 10);
        assert!(matches!(p.size, SizeSpec::FromHistogram(_)));
        assert!(matches!(p.delay, DelaySpec::FromHistogramMicros(_)));
        let mut shaper = PolicyShaper::new(p, 3, 4);
        let c = ctx();
        let s = shaper.packet_ip_size(&c, 0, 1500);
        assert!((590..=615).contains(&s), "size {s}");
        let d = shaper.extra_delay(&c);
        assert!(d > Nanos::ZERO && d < Nanos::from_micros(300), "{d}");
    }

    #[test]
    #[should_panic(expected = "no size samples")]
    fn empty_target_rejected() {
        let _ = fit_size_policy("x", &[], 10);
    }
}
