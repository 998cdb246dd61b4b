//! Live shaping strategies: [`stack::Shaper`] implementations that
//! enforce a policy on the datapath.

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
    pub pkt_step: u32,
    pub pkt_steps: u32,
    pub tso_step: u32,
    pub tso_steps: u32,
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
        let reduction = self.seg_idx * self.tso_step;
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
        let reduction = self.pkt_idx * self.pkt_step;
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

/// The §3 splitting countermeasure, enforced in-stack: any packet that
/// would exceed `threshold_ip` bytes is emitted as two halves. Enforced
/// by halving the per-packet size decision, which doubles the packet
/// count of the byte stream without copying or padding.
#[derive(Debug, Clone)]
pub struct SplitThreshold {
    pub threshold_ip: u32,
}

impl SplitThreshold {
    pub fn new(threshold_ip: u32) -> Self {
        SplitThreshold { threshold_ip }
    }
}

impl Shaper for SplitThreshold {
    fn tso_segment_pkts(&mut self, ctx: &ShapeCtx, proposed: u32) -> u32 {
        // Splitting doubles packet count; keep the burst's *byte* length
        // by keeping the packet budget unchanged (the stack will fit
        // half as many bytes per segment, preserving CC conformance).
        let _ = ctx;
        proposed
    }

    fn packet_ip_size(&mut self, _ctx: &ShapeCtx, _pkt_index: u32, proposed: u32) -> u32 {
        if proposed > self.threshold_ip {
            // Halve the payload so the two halves are equal-sized, as in
            // the paper's trace emulation.
            proposed / 2 + proposed % 2
        } else {
            proposed
        }
    }
}

/// The §3 delaying countermeasure, enforced in-stack: every segment's
/// departure is pushed back by a uniformly drawn fraction of its nominal
/// serialization interval (the in-stack analogue of stretching
/// inter-arrival times by 10-30%).
#[derive(Debug)]
pub struct DelayJitter {
    pub spec: DelaySpec,
    rng: SimRng,
}

impl DelayJitter {
    pub fn new(spec: DelaySpec, seed: u64) -> Self {
        DelayJitter {
            spec,
            rng: SimRng::new(seed),
        }
    }

    /// The paper's 10-30% uniform stretch.
    pub fn section3(seed: u64) -> Self {
        Self::new(
            DelaySpec::UniformFraction {
                lo_frac: 0.10,
                hi_frac: 0.30,
            },
            seed,
        )
    }
}

impl Shaper for DelayJitter {
    fn extra_delay(&mut self, ctx: &ShapeCtx) -> Nanos {
        // Nominal gap: the wire time of one full segment at the pacing
        // rate (or at 1 Gb/s if unpaced, a conservative stand-in).
        let rate = ctx.pacing_rate_bps.unwrap_or(1_000_000_000).max(1);
        let seg_bytes = (ctx.mss as u64).max(1) * 2;
        let nominal = if rate == u64::MAX {
            Nanos::from_micros(10)
        } else {
            Nanos::for_bytes_at_rate(seg_bytes, rate)
        };
        sample_delay(&self.spec, nominal, &mut self.rng)
    }
}

/// Sample packet sizes from an empirical histogram (the §4.1 policy
/// representation). Sizes are clamped by the stack to the CC-safe range.
///
/// A histogram with no mass (or a forged `total` its bins don't back up)
/// cannot be sampled; constructing a sampler from one degrades to
/// pass-through and bumps the registry's degraded counter rather than
/// panicking on the datapath.
#[derive(Debug)]
pub struct HistogramSampler {
    pub sizes: Histogram,
    rng: SimRng,
    degraded: bool,
}

impl HistogramSampler {
    pub fn new(sizes: Histogram, seed: u64) -> Self {
        let degraded = sizes.total == 0 || sizes.counts.iter().sum::<u64>() != sizes.total;
        if degraded {
            netsim::tm_counter!("stob.registry.degraded").inc();
        }
        HistogramSampler {
            sizes,
            rng: SimRng::new(seed),
            degraded,
        }
    }

    /// True when the histogram was unsampleable and the shaper is a
    /// pass-through.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

impl Shaper for HistogramSampler {
    fn packet_ip_size(&mut self, _ctx: &ShapeCtx, _pkt_index: u32, proposed: u32) -> u32 {
        if self.degraded {
            return proposed;
        }
        let s = self.sizes.sample(self.rng.next_f64(), self.rng.next_f64());
        (s.max(1.0) as u32).min(proposed)
    }
}

/// Compose strategies: each hook threads the previous stage's output into
/// the next, so reductions compose and delays add.
pub struct Chain {
    pub stages: Vec<Box<dyn Shaper>>,
}

impl Chain {
    pub fn new(stages: Vec<Box<dyn Shaper>>) -> Self {
        Chain { stages }
    }
}

impl Shaper for Chain {
    fn tso_segment_pkts(&mut self, ctx: &ShapeCtx, proposed: u32) -> u32 {
        self.stages
            .iter_mut()
            .fold(proposed, |p, s| s.tso_segment_pkts(ctx, p))
    }
    fn packet_ip_size(&mut self, ctx: &ShapeCtx, pkt_index: u32, proposed: u32) -> u32 {
        self.stages
            .iter_mut()
            .fold(proposed, |p, s| s.packet_ip_size(ctx, pkt_index, p))
    }
    fn extra_delay(&mut self, ctx: &ShapeCtx) -> Nanos {
        self.stages.iter_mut().map(|s| s.extra_delay(ctx)).sum()
    }
    fn on_ack(&mut self, ctx: &ShapeCtx) {
        for s in &mut self.stages {
            s.on_ack(ctx);
        }
    }
}

/// Build the live shaper a policy describes. `seed` feeds the stochastic
/// strategies; `flow_salt` decorrelates flows sharing one policy.
pub fn build_shaper(policy: &ObfuscationPolicy, seed: u64, flow_salt: u64) -> Box<dyn Shaper> {
    let rng_seed = seed ^ flow_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut stages: Vec<Box<dyn Shaper>> = Vec::new();
    match &policy.tso {
        TsoSpec::Unchanged => {}
        TsoSpec::IncrementalReduce { step, steps } => {
            stages.push(Box::new(IncrementalReduce::new(0, 0, *step, *steps)));
        }
        TsoSpec::Cap { pkts } => {
            struct Cap(u32);
            impl Shaper for Cap {
                fn tso_segment_pkts(&mut self, _c: &ShapeCtx, p: u32) -> u32 {
                    p.min(self.0)
                }
            }
            stages.push(Box::new(Cap(*pkts)));
        }
    }
    match &policy.size {
        SizeSpec::Unchanged => {}
        SizeSpec::SplitAbove { threshold } => {
            stages.push(Box::new(SplitThreshold::new(*threshold)));
        }
        SizeSpec::IncrementalReduce { step, steps } => {
            stages.push(Box::new(IncrementalReduce::new(*step, *steps, 0, 0)));
        }
        SizeSpec::FromHistogram(h) => {
            stages.push(Box::new(HistogramSampler::new(h.clone(), rng_seed)));
        }
        SizeSpec::Fixed { ip_size } => {
            struct Fixed(u32);
            impl Shaper for Fixed {
                fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, p: u32) -> u32 {
                    p.min(self.0)
                }
            }
            stages.push(Box::new(Fixed(*ip_size)));
        }
    }
    match &policy.delay {
        DelaySpec::Unchanged => {}
        spec => stages.push(Box::new(DelayJitter::new(spec.clone(), rng_seed))),
    }
    // A lone stage is the shaper: `Chain` is for composing two or more.
    if stages.len() == 1 {
        return stages.remove(0);
    }
    Box::new(Chain::new(stages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::FlowId;

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
        let mut s = SplitThreshold::new(1200);
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
        let mut s = SplitThreshold::new(1200);
        let c = ctx();
        for ip in 1201..=1500 {
            let half = s.packet_ip_size(&c, 0, ip);
            assert!(half - 52 >= 536, "half {half} too small for ip {ip}");
        }
    }

    #[test]
    fn delay_jitter_within_fraction_band() {
        let mut s = DelayJitter::section3(7);
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
        let mut s = HistogramSampler::new(h, 1);
        let c = ctx();
        for _ in 0..100 {
            assert!(s.packet_ip_size(&c, 0, 1500) <= 1500);
        }
    }

    #[test]
    fn histogram_sampler_empty_histogram_degrades_to_passthrough() {
        // Regression: an all-zero histogram used to reach
        // `Histogram::sample` and panic. It must degrade instead.
        let before = netsim::tm_counter!("stob.registry.degraded").get();
        let mut s = HistogramSampler::new(Histogram::new(0.0, 1500.0, 10), 1);
        assert!(s.is_degraded());
        assert_eq!(
            netsim::tm_counter!("stob.registry.degraded").get(),
            before + 1,
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
        let mut s = HistogramSampler::new(h, 1);
        assert!(s.is_degraded());
        let c = ctx();
        assert_eq!(s.packet_ip_size(&c, 0, 1200), 1200);
    }

    #[test]
    fn chain_composes_reductions_and_adds_delays() {
        let mut chain = Chain::new(vec![
            Box::new(SplitThreshold::new(1200)),
            Box::new(DelayJitter::new(
                DelaySpec::UniformAbsolute {
                    lo: Nanos(100),
                    hi: Nanos(100),
                },
                1,
            )),
            Box::new(DelayJitter::new(
                DelaySpec::UniformAbsolute {
                    lo: Nanos(50),
                    hi: Nanos(50),
                },
                2,
            )),
        ]);
        let c = ctx();
        assert_eq!(chain.packet_ip_size(&c, 0, 1500), 750);
        assert_eq!(chain.extra_delay(&c), Nanos(150));
    }

    #[test]
    fn build_shaper_from_policy_spec() {
        let p = ObfuscationPolicy::split_and_delay("x");
        let mut s = build_shaper(&p, 1, 2);
        let c = ctx();
        assert_eq!(s.packet_ip_size(&c, 0, 1500), 750);
        assert!(s.extra_delay(&c) > Nanos::ZERO);
        // TSO untouched for this policy.
        assert_eq!(s.tso_segment_pkts(&c, 44), 44);
    }

    /// `p.min(n)` per hook: what `TsoSpec::Cap` and `SizeSpec::Fixed` are.
    struct Min {
        tso: u32,
        ip: u32,
    }
    impl Shaper for Min {
        fn tso_segment_pkts(&mut self, _c: &ShapeCtx, p: u32) -> u32 {
            p.min(self.tso)
        }
        fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, p: u32) -> u32 {
            p.min(self.ip)
        }
    }

    #[test]
    fn a_lone_stage_answers_exactly_as_a_chain_of_it() {
        let (seed, salt) = (3u64, 4u64);
        let jitter = |spec: &DelaySpec| -> Box<dyn Shaper> {
            let rng_seed = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Box::new(DelayJitter::new(spec.clone(), rng_seed))
        };
        let base = ObfuscationPolicy::passthrough;
        let stretch = DelaySpec::UniformFraction {
            lo_frac: 0.05,
            hi_frac: 0.20,
        };
        let two = ObfuscationPolicy::split_and_delay("split+delay");
        let SizeSpec::SplitAbove { threshold } = two.size else {
            panic!("split_and_delay splits");
        };
        // Each policy beside the stages it lowers to; the last one
        // lowers to two and must still compose.
        let cases: Vec<(ObfuscationPolicy, Vec<Box<dyn Shaper>>)> = vec![
            (
                ObfuscationPolicy {
                    delay: stretch.clone(),
                    ..base("delay-only")
                },
                vec![jitter(&stretch)],
            ),
            (
                ObfuscationPolicy {
                    size: SizeSpec::SplitAbove { threshold: 1200 },
                    ..base("split-only")
                },
                vec![Box::new(SplitThreshold::new(1200))],
            ),
            (
                ObfuscationPolicy {
                    size: SizeSpec::Fixed { ip_size: 900 },
                    ..base("fixed")
                },
                vec![Box::new(Min {
                    tso: u32::MAX,
                    ip: 900,
                })],
            ),
            (
                ObfuscationPolicy {
                    tso: TsoSpec::Cap { pkts: 8 },
                    ..base("tso-cap")
                },
                vec![Box::new(Min {
                    tso: 8,
                    ip: u32::MAX,
                })],
            ),
            (
                two.clone(),
                vec![Box::new(SplitThreshold::new(threshold)), jitter(&two.delay)],
            ),
        ];
        for (p, stages) in cases {
            let mut built = build_shaper(&p, seed, salt);
            let mut chained = Chain::new(stages);
            let mut rng = SimRng::new(0xC4A1);
            for i in 0..1_000 {
                let c = ShapeCtx {
                    pacing_rate_bps: match rng.next_below(4) {
                        0 => None,
                        1 => Some(u64::MAX),
                        _ => Some(rng.range_u64(1, 100_000_000_000)),
                    },
                    pkts_sent: rng.next_below(200),
                    mtu_ip: rng.range_u64(576, 9000) as u32,
                    mss: rng.range_u64(1, 8948) as u32,
                    ..ctx()
                };
                let (burst, ip) = (rng.range_u64(1, 64) as u32, rng.range_u64(1, 9000) as u32);
                let case = format!("{} #{i}", p.name);
                assert_eq!(
                    built.tso_segment_pkts(&c, burst),
                    chained.tso_segment_pkts(&c, burst),
                    "{case}"
                );
                assert_eq!(
                    built.packet_ip_size(&c, i, ip),
                    chained.packet_ip_size(&c, i, ip),
                    "{case}"
                );
                assert_eq!(built.extra_delay(&c), chained.extra_delay(&c), "{case}");
            }
        }
    }

    #[test]
    fn build_shaper_passthrough_is_identity() {
        let p = ObfuscationPolicy::passthrough("id");
        let mut s = build_shaper(&p, 1, 2);
        let c = ctx();
        assert_eq!(s.packet_ip_size(&c, 0, 1500), 1500);
        assert_eq!(s.tso_segment_pkts(&c, 44), 44);
        assert_eq!(s.extra_delay(&c), Nanos::ZERO);
    }

    #[test]
    fn flows_sharing_policy_are_decorrelated() {
        let p = ObfuscationPolicy::split_and_delay("shared");
        let mut a = build_shaper(&p, 1, 1);
        let mut b = build_shaper(&p, 1, 2);
        let c = ctx();
        let da: Vec<u64> = (0..8).map(|_| a.extra_delay(&c).0).collect();
        let db: Vec<u64> = (0..8).map(|_| b.extra_delay(&c).0).collect();
        assert_ne!(da, db, "flow salt must decorrelate jitter streams");
    }
}
