//! Live shaping: [`stack::Shaper`] implementations that enforce a policy
//! on the datapath — Figure 3's [`IncrementalReduce`], and the one shaper
//! every policy lowers to, `PolicyShaper`.

use crate::policy::{sample_delay, DelaySpec, ObfuscationPolicy, SizeSpec, TsoSpec};
use netsim::{Histogram, Nanos, SimRng};
use stack::{ShapeCtx, Shaper};

/// Figure 3's strategy: incrementally reduce the packet size and the TSO
/// size over successive transmissions, resetting to the defaults once the
/// maximum reduction is reached.
///
/// With aggressiveness `alpha`: packet IP size walks 1500, 1500-α, ...,
/// 1500-10α (then resets); TSO size walks 44, 44-α/4, ..., 44-8·(α/4)
/// clamped to at least 1 packet (then resets).
#[derive(Debug, Clone)]
pub struct IncrementalReduce {
    pub(crate) pkt_step: u32,
    pub(crate) pkt_steps: u32,
    pub(crate) tso_step: u32,
    pub(crate) tso_steps: u32,
    pkt_idx: u32,
    seg_idx: u32,
}

impl IncrementalReduce {
    /// Construct from the paper's single aggressiveness knob α.
    pub fn with_alpha(alpha: u32) -> Self {
        IncrementalReduce {
            pkt_step: alpha,
            pkt_steps: 10,
            tso_step: alpha / 4,
            tso_steps: 8,
            pkt_idx: 0,
            seg_idx: 0,
        }
    }

    pub fn new(pkt_step: u32, pkt_steps: u32, tso_step: u32, tso_steps: u32) -> Self {
        IncrementalReduce {
            pkt_step,
            pkt_steps,
            tso_step,
            tso_steps,
            pkt_idx: 0,
            seg_idx: 0,
        }
    }
}

impl Shaper for IncrementalReduce {
    fn tso_segment_pkts(&mut self, _ctx: &ShapeCtx, proposed: u32) -> u32 {
        if self.tso_step == 0 {
            return proposed;
        }
        // Saturating: a validated policy bounds `steps`, not `step`, and a
        // wrapped product would make the walk non-monotone.
        let reduction = self.seg_idx.saturating_mul(self.tso_step);
        self.seg_idx += 1;
        if self.seg_idx > self.tso_steps {
            self.seg_idx = 0; // reset to default and repeat
        }
        proposed.saturating_sub(reduction).max(1)
    }

    fn packet_ip_size(&mut self, ctx: &ShapeCtx, _pkt_index: u32, proposed: u32) -> u32 {
        if self.pkt_step == 0 {
            return proposed;
        }
        let reduction = self.pkt_idx.saturating_mul(self.pkt_step);
        self.pkt_idx += 1;
        if self.pkt_idx > self.pkt_steps {
            self.pkt_idx = 0;
        }
        // Reduce from the MTU, not from `proposed`: the final short
        // packet of a segment is already below the target.
        let target = ctx.mtu_ip.saturating_sub(reduction);
        proposed.min(target).max(1)
    }
}

/// A policy's packet-size rule. The Figure 3 walk keeps its counters
/// in [`PolicyShaper`]'s shared [`IncrementalReduce`].
enum SizeRule {
    Unchanged,
    /// `SizeSpec::IncrementalReduce`: the walk's packet-size half.
    Walk,
    /// The §3 splitting countermeasure, enforced in-stack: a packet above
    /// the threshold leaves as two equal halves. Halving the size decision
    /// doubles the packet count of the byte stream without copying or
    /// padding; the TSO budget stays in packets, so a burst carries half
    /// the bytes and stays CC-conformant.
    SplitAbove(u32),
    /// At most this IP size.
    Fixed(u32),
    /// Sizes drawn from an empirical histogram (the §4.1 policy
    /// representation) with the rule's own RNG.
    Histogram(Box<(Histogram, SimRng)>),
    /// A histogram with no mass (or a forged `total` its bins do not back
    /// up) cannot be sampled: the rule passes sizes through and counted
    /// itself in `stob.registry.degraded` when built, rather than
    /// panicking on the datapath.
    Degraded,
}

/// The live shaper one policy lowers to (§4): its TSO rule, size rule and
/// delay rule, behind the policy's first-N window (§3: the fight is over
/// the first tens of packets) and slow-start hold (§5.1: "do not perform
/// any action in certain phases", where BBR paces to measure). Both are
/// tested before any rule, so a held decision passes the proposal
/// through and draws nothing.
pub(crate) struct PolicyShaper {
    /// The Figure 3 walks, TSO and packet size; a zero step is identity.
    walk: IncrementalReduce,
    /// `TsoSpec::Cap` (`u32::MAX`: none).
    tso_cap: u32,
    size: SizeRule,
    delay: DelaySpec,
    delay_rng: SimRng,
    /// Shape only the first `first_n` data packets (0 = the whole flow).
    first_n: u64,
    respect_slow_start: bool,
}

// Every connection or replayed flow with a policy rule holds one of
// these behind its `Box`, so its size is paid once per shaped flow.
const _: () = assert!(std::mem::size_of::<crate::safety::SafetyCap<PolicyShaper>>() <= 160);

impl PolicyShaper {
    /// Lower `policy`, moving its rules in: a histogram's bins become
    /// the rule's own, uncopied. Each stochastic rule gets its own RNG,
    /// seeded `seed ^ flow_salt·φ` so flows sharing one policy
    /// decorrelate.
    pub(crate) fn new(policy: ObfuscationPolicy, seed: u64, flow_salt: u64) -> Self {
        let rng_seed = seed ^ flow_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (tso_step, tso_steps, tso_cap) = match policy.tso {
            TsoSpec::Unchanged => (0, 0, u32::MAX),
            TsoSpec::IncrementalReduce { step, steps } => (step, steps, u32::MAX),
            TsoSpec::Cap { pkts } => (0, 0, pkts),
        };
        let (pkt_step, pkt_steps) = match policy.size {
            SizeSpec::IncrementalReduce { step, steps } => (step, steps),
            _ => (0, 0),
        };
        let size = match policy.size {
            SizeSpec::Unchanged => SizeRule::Unchanged,
            SizeSpec::IncrementalReduce { .. } => SizeRule::Walk,
            SizeSpec::SplitAbove { threshold } => SizeRule::SplitAbove(threshold),
            SizeSpec::Fixed { ip_size } => SizeRule::Fixed(ip_size),
            SizeSpec::FromHistogram(h) => {
                if h.total == 0 || h.counts.iter().sum::<u64>() != h.total {
                    netsim::tm_counter!("stob.registry.degraded").inc();
                    SizeRule::Degraded
                } else {
                    SizeRule::Histogram(Box::new((h, SimRng::new(rng_seed))))
                }
            }
        };
        PolicyShaper {
            walk: IncrementalReduce::new(pkt_step, pkt_steps, tso_step, tso_steps),
            tso_cap,
            size,
            delay: policy.delay,
            delay_rng: SimRng::new(rng_seed),
            first_n: policy.first_n_pkts,
            respect_slow_start: policy.respect_slow_start,
        }
    }

    fn held(&self, ctx: &ShapeCtx) -> bool {
        (self.respect_slow_start && ctx.in_slow_start)
            || (self.first_n != 0 && ctx.pkts_sent >= self.first_n)
    }
}

impl Shaper for PolicyShaper {
    fn tso_segment_pkts(&mut self, ctx: &ShapeCtx, proposed: u32) -> u32 {
        if self.held(ctx) {
            return proposed;
        }
        self.walk.tso_segment_pkts(ctx, proposed).min(self.tso_cap)
    }

    fn packet_ip_size(&mut self, ctx: &ShapeCtx, pkt_index: u32, proposed: u32) -> u32 {
        if self.held(ctx) {
            return proposed;
        }
        match &mut self.size {
            SizeRule::Unchanged | SizeRule::Degraded => proposed,
            SizeRule::Walk => self.walk.packet_ip_size(ctx, pkt_index, proposed),
            // Round up, as the paper's trace emulation does.
            SizeRule::SplitAbove(t) if proposed > *t => proposed / 2 + proposed % 2,
            SizeRule::SplitAbove(_) => proposed,
            SizeRule::Fixed(ip) => proposed.min(*ip),
            SizeRule::Histogram(h) => {
                let (sizes, rng) = &mut **h;
                let s = sizes.sample(rng.next_f64(), rng.next_f64());
                (s.max(1.0) as u32).min(proposed)
            }
        }
    }

    /// The §3 delaying countermeasure, enforced in-stack: one draw from
    /// the delay rule. A fractional rule stretches the segment's nominal
    /// gap, the wire time of two MSS at the pacing rate (1 Gb/s if
    /// unpaced, a conservative stand-in; 10 µs at an infinite rate).
    fn extra_delay(&mut self, ctx: &ShapeCtx) -> Nanos {
        if self.held(ctx) || matches!(self.delay, DelaySpec::Unchanged) {
            return Nanos::ZERO;
        }
        let rate = ctx.pacing_rate_bps.unwrap_or(1_000_000_000).max(1);
        let nominal = if rate == u64::MAX {
            Nanos::from_micros(10)
        } else {
            Nanos::for_bytes_at_rate((ctx.mss as u64).max(1) * 2, rate)
        };
        sample_delay(&self.delay, nominal, &mut self.delay_rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sockopt::assemble_policy_shaper;
    use netsim::FlowId;
    use std::sync::atomic::Ordering;

    fn ctx() -> ShapeCtx {
        ShapeCtx {
            flow: FlowId(1),
            now: Nanos(0),
            cwnd: 100 * 1448,
            pacing_rate_bps: Some(1_000_000_000),
            in_slow_start: false,
            bytes_sent: 0,
            pkts_sent: 0,
            segs_sent: 0,
            mtu_ip: 1500,
            mss: 1448,
        }
    }

    fn at(in_slow_start: bool, pkts_sent: u64) -> ShapeCtx {
        ShapeCtx {
            in_slow_start,
            pkts_sent,
            ..ctx()
        }
    }

    fn shaper(size: SizeSpec, delay: DelaySpec) -> PolicyShaper {
        let p = ObfuscationPolicy {
            size,
            delay,
            ..ObfuscationPolicy::passthrough("t")
        };
        PolicyShaper::new(p, 1, 0)
    }

    fn split(threshold: u32) -> PolicyShaper {
        shaper(SizeSpec::SplitAbove { threshold }, DelaySpec::Unchanged)
    }

    fn guarded(first_n_pkts: u64, respect_slow_start: bool) -> PolicyShaper {
        let p = ObfuscationPolicy {
            size: SizeSpec::SplitAbove { threshold: 1200 },
            first_n_pkts,
            respect_slow_start,
            ..ObfuscationPolicy::passthrough("guarded")
        };
        PolicyShaper::new(p, 1, 0)
    }

    #[test]
    fn incremental_reduce_walks_and_resets_packet_sizes() {
        let mut s = IncrementalReduce::with_alpha(20);
        let c = ctx();
        let sizes: Vec<u32> = (0..12).map(|_| s.packet_ip_size(&c, 0, 1500)).collect();
        // 1500, 1480, ..., 1300 then reset to 1500.
        let expect: Vec<u32> = (0..=10).map(|k| 1500 - 20 * k).chain([1500]).collect();
        assert_eq!(sizes, expect);
    }

    #[test]
    fn incremental_reduce_walks_and_resets_tso() {
        let mut s = IncrementalReduce::with_alpha(40); // tso step 10
        let c = ctx();
        let sizes: Vec<u32> = (0..10).map(|_| s.tso_segment_pkts(&c, 44)).collect();
        // 44, 34, 24, 14, 4, then clamped to 1, then reset.
        assert_eq!(sizes, vec![44, 34, 24, 14, 4, 1, 1, 1, 1, 44]);
    }

    #[test]
    fn incremental_reduce_never_exceeds_proposed() {
        let mut s = IncrementalReduce::with_alpha(4);
        let c = ctx();
        for _ in 0..100 {
            assert!(s.tso_segment_pkts(&c, 7) <= 7);
            assert!(s.packet_ip_size(&c, 0, 900) <= 900);
        }
    }

    #[test]
    fn alpha_zero_is_identity() {
        let mut s = IncrementalReduce::with_alpha(0);
        let c = ctx();
        for _ in 0..20 {
            assert_eq!(s.tso_segment_pkts(&c, 44), 44);
            assert_eq!(s.packet_ip_size(&c, 0, 1500), 1500);
        }
    }

    #[test]
    fn split_threshold_halves_large_packets_only() {
        let mut s = split(1200);
        let c = ctx();
        assert_eq!(s.packet_ip_size(&c, 0, 1500), 750);
        assert_eq!(s.packet_ip_size(&c, 0, 1201), 601); // odd: round up
        assert_eq!(s.packet_ip_size(&c, 0, 1200), 1200);
        assert_eq!(s.packet_ip_size(&c, 0, 600), 600);
    }

    #[test]
    fn split_halves_stay_above_min_mss_for_default_mtu() {
        // §3: the 1200-byte threshold is chosen so halves never fall
        // below the minimum TCP MSS of 536 payload bytes.
        let mut s = split(1200);
        let c = ctx();
        for ip in 1201..=1500 {
            let half = s.packet_ip_size(&c, 0, ip);
            assert!(half - 52 >= 536, "half {half} too small for ip {ip}");
        }
    }

    #[test]
    fn delay_jitter_within_fraction_band() {
        // The paper's 10-30% uniform stretch.
        let spec = DelaySpec::UniformFraction {
            lo_frac: 0.10,
            hi_frac: 0.30,
        };
        let mut s = shaper(SizeSpec::Unchanged, spec);
        let c = ctx();
        // Nominal: 2*1448 bytes at 1 Gb/s = 23168 ns.
        for _ in 0..500 {
            let d = s.extra_delay(&c);
            assert!(
                (2_316..=6_951).contains(&d.0),
                "delay {} outside 10-30% of nominal",
                d.0
            );
        }
    }

    #[test]
    fn histogram_sampler_respects_proposed_cap() {
        let mut h = Histogram::new(0.0, 3000.0, 30);
        for _ in 0..100 {
            h.push(2_500.0); // wants jumbo sizes
        }
        let mut s = shaper(SizeSpec::FromHistogram(h), DelaySpec::Unchanged);
        let c = ctx();
        for _ in 0..100 {
            assert!(s.packet_ip_size(&c, 0, 1500) <= 1500);
        }
    }

    #[test]
    fn histogram_sampler_empty_histogram_degrades_to_passthrough() {
        // Regression: an all-zero histogram used to reach
        // `Histogram::sample` and panic. It must degrade instead. The
        // counter is process-wide and other tests bump it concurrently,
        // so only its rise is this test's to assert.
        let before = netsim::tm_counter!("stob.registry.degraded").get();
        let empty = Histogram::new(0.0, 1500.0, 10);
        let mut s = shaper(SizeSpec::FromHistogram(empty), DelaySpec::Unchanged);
        assert!(matches!(s.size, SizeRule::Degraded));
        assert!(
            netsim::tm_counter!("stob.registry.degraded").get() > before,
            "degradation must be observable"
        );
        let c = ctx();
        for proposed in [1500, 900, 64] {
            assert_eq!(s.packet_ip_size(&c, 0, proposed), proposed);
        }
    }

    #[test]
    fn histogram_sampler_forged_mass_degrades_to_passthrough() {
        let mut h = Histogram::new(0.0, 1500.0, 10);
        h.push(700.0);
        h.total = 99; // bins hold one sample; the claimed mass lies
        let mut s = shaper(SizeSpec::FromHistogram(h), DelaySpec::Unchanged);
        assert!(matches!(s.size, SizeRule::Degraded));
        let c = ctx();
        assert_eq!(s.packet_ip_size(&c, 0, 1200), 1200);
    }

    #[test]
    fn policy_shaper_composes_its_three_rules() {
        let p = ObfuscationPolicy {
            size: SizeSpec::SplitAbove { threshold: 1200 },
            delay: DelaySpec::UniformAbsolute {
                lo: Nanos(150),
                hi: Nanos(150),
            },
            tso: TsoSpec::Cap { pkts: 8 },
            ..ObfuscationPolicy::passthrough("three")
        };
        let mut s = PolicyShaper::new(p, 1, 0);
        let c = ctx();
        assert_eq!(s.tso_segment_pkts(&c, 44), 8);
        assert_eq!(s.tso_segment_pkts(&c, 5), 5);
        assert_eq!(s.packet_ip_size(&c, 0, 1500), 750);
        assert_eq!(s.extra_delay(&c), Nanos(150));
    }

    #[test]
    fn policy_shaper_from_policy_spec() {
        let mut s = PolicyShaper::new(ObfuscationPolicy::split_and_delay("x"), 1, 2);
        let c = ctx();
        assert_eq!(s.packet_ip_size(&c, 0, 1500), 750);
        assert!(s.extra_delay(&c) > Nanos::ZERO);
        // TSO untouched for this policy.
        assert_eq!(s.tso_segment_pkts(&c, 44), 44);
    }

    #[test]
    fn passthrough_policy_is_identity() {
        let mut s = PolicyShaper::new(ObfuscationPolicy::passthrough("id"), 1, 2);
        let c = ctx();
        assert_eq!(s.packet_ip_size(&c, 0, 1500), 1500);
        assert_eq!(s.tso_segment_pkts(&c, 44), 44);
        assert_eq!(s.extra_delay(&c), Nanos::ZERO);
    }

    #[test]
    fn flows_sharing_policy_are_decorrelated() {
        let p = ObfuscationPolicy::split_and_delay("shared");
        let mut a = PolicyShaper::new(p.clone(), 1, 1);
        let mut b = PolicyShaper::new(p, 1, 2);
        let c = ctx();
        let da: Vec<u64> = (0..8).map(|_| a.extra_delay(&c).0).collect();
        let db: Vec<u64> = (0..8).map(|_| b.extra_delay(&c).0).collect();
        assert_ne!(da, db, "flow salt must decorrelate jitter streams");
    }

    #[test]
    fn guard_suppresses_in_slow_start() {
        let mut g = guarded(0, true);
        let ss = at(true, 0);
        assert_eq!(g.packet_ip_size(&ss, 0, 1500), 1500, "untouched in SS");
        assert_eq!(g.extra_delay(&ss), Nanos::ZERO);
        assert_eq!(
            g.packet_ip_size(&at(false, 0), 0, 1500),
            750,
            "active in CA"
        );
    }

    #[test]
    fn first_n_guard_limits_scope() {
        let mut g = guarded(15, false);
        assert_eq!(g.packet_ip_size(&at(false, 0), 0, 1500), 750);
        assert_eq!(g.packet_ip_size(&at(false, 14), 0, 1500), 750);
        assert_eq!(g.packet_ip_size(&at(false, 15), 0, 1500), 1500);
        assert_eq!(g.packet_ip_size(&at(false, 1000), 0, 1500), 1500);
    }

    #[test]
    fn first_n_zero_means_whole_flow() {
        let mut g = guarded(0, false);
        assert_eq!(g.packet_ip_size(&at(false, 1 << 40), 0, 1500), 750);
    }

    #[test]
    fn guards_compose() {
        // Slow-start hold and first-N window on one policy.
        let mut g = guarded(10, true);
        assert_eq!(g.packet_ip_size(&at(true, 5), 0, 1500), 1500);
        assert_eq!(g.packet_ip_size(&at(false, 5), 0, 1500), 750);
        assert_eq!(g.packet_ip_size(&at(false, 50), 0, 1500), 1500);
    }

    #[test]
    fn held_decisions_draw_nothing_but_are_audited() {
        let p = ObfuscationPolicy {
            respect_slow_start: true,
            ..ObfuscationPolicy::split_and_delay("held")
        };
        let (mut held, audit) = assemble_policy_shaper(&p, 5, 6);
        let mut fresh = PolicyShaper::new(p, 5, 6);
        for _ in 0..10 {
            assert_eq!(held.extra_delay(&at(true, 0)), Nanos::ZERO);
        }
        assert_eq!(audit.decisions.load(Ordering::Relaxed), 10);
        // The held draws left the RNG where a fresh shaper's is.
        let c = at(false, 0);
        for _ in 0..10 {
            assert_eq!(held.extra_delay(&c), fresh.extra_delay(&c));
        }
    }
}
