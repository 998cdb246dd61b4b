//! Obfuscation policies: the compact, shareable description of *what*
//! the obfuscation should look like, decoupled from the stack hooks that
//! enforce it.
//!
//! §4.1: "the packet departure time and size applied to data units can be
//! represented as relatively compact distribution functions like
//! histograms, and their instances can be shared between flows in some
//! cases (e.g., same destination)". A policy therefore carries a
//! [`SizeSpec`] and a [`DelaySpec`], each either a simple parametric rule
//! or an empirical histogram.
//!
//! Policies validate and round-trip through the workspace's own JSON:
//!
//! ```
//! use netsim::json::Wire;
//! use stob::policy::ObfuscationPolicy;
//! let p = ObfuscationPolicy::incremental("fig3", 20);
//! assert!(p.validate().is_ok());
//! let back = ObfuscationPolicy::from_json(&p.to_json()).unwrap();
//! assert_eq!(back.name, p.name);
//! ```

use crate::machine::MAX_DRAW_SECS;
use netsim::json::{fields, Json, JsonError, Wire};
use netsim::{Histogram, Nanos, SimRng};

/// §3's split threshold: packets larger than this many bytes are split
/// in two halves ("larger than 1200 bytes").
pub const SPLIT_THRESHOLD: u32 = 1200;
/// Lower end of §3's uniform inter-arrival stretch (10 %).
pub const DELAY_LO: f64 = 0.10;
/// Upper end of §3's uniform inter-arrival stretch (30 %).
pub const DELAY_HI: f64 = 0.30;

/// How packet sizes should be obfuscated.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeSpec {
    /// Leave sizes alone.
    Unchanged,
    /// Split packets whose IP size exceeds `threshold` into halves
    /// (the §3 countermeasure).
    SplitAbove { threshold: u32 },
    /// Cycle packet sizes downward: start at the MTU, shrink by `step`
    /// per packet for `steps` packets, then reset (Figure 3's rule).
    IncrementalReduce { step: u32, steps: u32 },
    /// Draw each packet's IP size from an empirical histogram.
    FromHistogram(Histogram),
    /// Force a fixed IP packet size (clamped to the MTU by the stack).
    Fixed { ip_size: u32 },
}

/// How departure times should be obfuscated.
#[derive(Debug, Clone, PartialEq)]
pub enum DelaySpec {
    /// Leave timing alone.
    Unchanged,
    /// Add a uniform extra delay of `lo_frac..hi_frac` of the segment's
    /// own serialization time at the current pacing rate — the in-stack
    /// analogue of §3's "increment the inter-arrival time by 10-30%".
    UniformFraction { lo_frac: f64, hi_frac: f64 },
    /// Add an absolute uniform delay in nanoseconds.
    UniformAbsolute { lo: Nanos, hi: Nanos },
    /// Draw extra delay (in microseconds) from an empirical histogram.
    FromHistogramMicros(Histogram),
}

/// How TSO/GSO segment sizes should be obfuscated.
#[derive(Debug, Clone, PartialEq)]
pub enum TsoSpec {
    Unchanged,
    /// Cycle the segment size downward by `step` packets for `steps`
    /// segments, then reset (Figure 3's rule: step = alpha/4, 8 steps).
    IncrementalReduce {
        step: u32,
        steps: u32,
    },
    /// Cap segments at a fixed number of packets.
    Cap {
        pkts: u32,
    },
}

/// Largest [`DelaySpec::UniformFraction`] `hi_frac` that
/// [`ObfuscationPolicy::validate`] accepts: a delay of 100 times the gap
/// it stretches. §3 draws 0.1–0.3; a larger fraction is a typo or an
/// attack on the accumulated shift, not a schedule.
pub(crate) const MAX_DELAY_FRAC: f64 = 100.0;

/// A complete obfuscation policy, as published to the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct ObfuscationPolicy {
    /// Human-readable identifier, unique within a registry.
    pub name: String,
    pub size: SizeSpec,
    pub delay: DelaySpec,
    pub tso: TsoSpec,
    /// Apply only to the first `first_n_pkts` data packets of the flow
    /// (0 = whole flow). §3 shows the censorship fight happens in the
    /// first tens of packets, so front-loading protection bounds cost.
    pub first_n_pkts: u64,
    /// Hold off while the CCA is in slow start (§5.1: don't disturb
    /// phases where pacing is a measurement instrument).
    pub respect_slow_start: bool,
}

impl ObfuscationPolicy {
    /// A policy that changes nothing (useful as a registry default).
    pub fn passthrough(name: &str) -> Self {
        ObfuscationPolicy {
            name: name.to_string(),
            size: SizeSpec::Unchanged,
            delay: DelaySpec::Unchanged,
            tso: TsoSpec::Unchanged,
            first_n_pkts: 0,
            respect_slow_start: false,
        }
    }

    /// The paper's §3 server-side countermeasure pair, expressed as a
    /// stack policy: split above [`SPLIT_THRESHOLD`], delay by
    /// [`DELAY_LO`]–[`DELAY_HI`].
    pub fn split_and_delay(name: &str) -> Self {
        ObfuscationPolicy {
            name: name.to_string(),
            size: SizeSpec::SplitAbove {
                threshold: SPLIT_THRESHOLD,
            },
            delay: DelaySpec::UniformFraction {
                lo_frac: DELAY_LO,
                hi_frac: DELAY_HI,
            },
            tso: TsoSpec::Unchanged,
            first_n_pkts: 0,
            respect_slow_start: false,
        }
    }

    /// Check internal consistency before the policy reaches the
    /// datapath. An inconsistent policy (an empty histogram, an inverted
    /// delay range, a zero split threshold, a delay past its cap) must
    /// not drive a live shaper: [`crate::sockopt::attach`] consults this
    /// and falls back to pass-through — shaping wrongly is worse than not
    /// shaping, and crashing the stack is worse than both. An absolute or
    /// histogram delay is capped at the machine runtime's per-draw clamp,
    /// `MAX_DRAW_SECS` (600 s), a fractional one at `MAX_DELAY_FRAC`:
    /// past them one draw can overflow the flow's accumulated shift.
    pub fn validate(&self) -> Result<(), String> {
        match &self.size {
            SizeSpec::Unchanged => {}
            SizeSpec::SplitAbove { threshold } => {
                if *threshold == 0 {
                    return Err("SplitAbove: threshold must be positive".into());
                }
            }
            SizeSpec::IncrementalReduce { steps, .. } => {
                if *steps == 0 {
                    return Err("size IncrementalReduce: steps must be positive".into());
                }
            }
            SizeSpec::FromHistogram(h) => histogram_ok(h, "size")?,
            SizeSpec::Fixed { ip_size } => {
                if *ip_size == 0 {
                    return Err("Fixed: ip_size must be positive".into());
                }
            }
        }
        match &self.delay {
            DelaySpec::Unchanged => {}
            DelaySpec::UniformFraction { lo_frac, hi_frac } => {
                if !lo_frac.is_finite() || !hi_frac.is_finite() || *lo_frac < 0.0 {
                    return Err("UniformFraction: fractions must be finite and >= 0".into());
                }
                if hi_frac < lo_frac {
                    return Err("UniformFraction: hi_frac below lo_frac".into());
                }
                if *hi_frac > MAX_DELAY_FRAC {
                    return Err(format!(
                        "UniformFraction: hi_frac {hi_frac} exceeds the cap of {MAX_DELAY_FRAC}"
                    ));
                }
            }
            DelaySpec::UniformAbsolute { lo, hi } => {
                if hi < lo {
                    return Err("UniformAbsolute: hi below lo".into());
                }
                if hi.as_secs_f64() > MAX_DRAW_SECS {
                    return Err(format!(
                        "UniformAbsolute: hi {hi} exceeds the {MAX_DRAW_SECS} s per-draw cap"
                    ));
                }
            }
            DelaySpec::FromHistogramMicros(h) => {
                histogram_ok(h, "delay")?;
                if h.hi > MAX_DRAW_SECS * 1e6 {
                    return Err(format!(
                        "delay histogram hi {} us exceeds the {MAX_DRAW_SECS} s per-draw cap",
                        h.hi
                    ));
                }
            }
        }
        match &self.tso {
            TsoSpec::Unchanged => {}
            TsoSpec::IncrementalReduce { steps, .. } => {
                if *steps == 0 {
                    return Err("tso IncrementalReduce: steps must be positive".into());
                }
            }
            TsoSpec::Cap { pkts } => {
                if *pkts == 0 {
                    return Err("tso Cap: pkts must be positive".into());
                }
            }
        }
        Ok(())
    }

    /// Figure 3's incremental-reduce policy at aggressiveness `alpha`.
    pub fn incremental(name: &str, alpha: u32) -> Self {
        ObfuscationPolicy {
            name: name.to_string(),
            size: SizeSpec::IncrementalReduce {
                step: alpha,
                steps: 10,
            },
            delay: DelaySpec::Unchanged,
            tso: TsoSpec::IncrementalReduce {
                step: alpha / 4,
                steps: 8,
            },
            first_n_pkts: 0,
            respect_slow_start: false,
        }
    }
}

/// A histogram deserialized from an external source can claim a mass
/// (`total`) its bins don't back up — sampling such a histogram silently
/// skews toward the edge bins — or bounds no draw can sit between.
/// Shared with the machine-spec validator.
pub(crate) fn histogram_ok(h: &Histogram, what: &str) -> Result<(), String> {
    if !h.lo.is_finite() || !h.hi.is_finite() || h.lo > h.hi {
        return Err(format!("{what} histogram needs finite lo <= hi"));
    }
    if h.total == 0 {
        return Err(format!("{what} histogram has no samples"));
    }
    let binned: u64 = h.counts.iter().sum();
    if binned != h.total {
        return Err(format!(
            "{what} histogram mass {} disagrees with binned count {binned}",
            h.total
        ));
    }
    Ok(())
}

netsim::wire_enum!(SizeSpec {
    Unchanged,
    SplitAbove { threshold },
    IncrementalReduce { step, steps },
    FromHistogram(h),
    Fixed { ip_size },
});
netsim::wire_enum!(DelaySpec {
    Unchanged,
    UniformFraction { lo_frac, hi_frac },
    UniformAbsolute { lo, hi },
    FromHistogramMicros(h),
});
netsim::wire_enum!(TsoSpec {
    Unchanged,
    IncrementalReduce { step, steps },
    Cap { pkts },
});

impl Wire for ObfuscationPolicy {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.name.as_str())
            .set("size", self.size.to_json())
            .set("delay", self.delay.to_json())
            .set("tso", self.tso.to_json())
            .set("first_n_pkts", self.first_n_pkts)
            .set("respect_slow_start", self.respect_slow_start)
    }

    fn from_json(v: &Json) -> Result<ObfuscationPolicy, JsonError> {
        fields(v, |f| {
            Ok(ObfuscationPolicy {
                name: f.req("name")?,
                size: f.req("size")?,
                delay: f.req("delay")?,
                tso: f.req("tso")?,
                first_n_pkts: f.req("first_n_pkts")?,
                respect_slow_start: f.req("respect_slow_start")?,
            })
        })
    }
}

/// Sample a [`DelaySpec`] given the segment's nominal serialization time.
pub(crate) fn sample_delay(spec: &DelaySpec, nominal: Nanos, rng: &mut SimRng) -> Nanos {
    match spec {
        DelaySpec::Unchanged => Nanos::ZERO,
        DelaySpec::UniformFraction { lo_frac, hi_frac } => {
            let f = rng.range_f64(*lo_frac, *hi_frac);
            nominal.mul_f64(f)
        }
        DelaySpec::UniformAbsolute { lo, hi } => Nanos(rng.range_u64(lo.0, hi.0)),
        DelaySpec::FromHistogramMicros(h) => {
            let us = h.sample(rng.next_f64(), rng.next_f64()).max(0.0);
            Nanos::from_secs_f64(us * 1e-6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_is_inert() {
        let p = ObfuscationPolicy::passthrough("none");
        assert!(matches!(p.size, SizeSpec::Unchanged));
        assert!(matches!(p.delay, DelaySpec::Unchanged));
        assert!(matches!(p.tso, TsoSpec::Unchanged));
        assert_eq!(p.first_n_pkts, 0);
    }

    #[test]
    fn split_and_delay_matches_section3_parameters() {
        let p = ObfuscationPolicy::split_and_delay("s3");
        match p.size {
            SizeSpec::SplitAbove { threshold } => assert_eq!(threshold, 1200),
            _ => panic!("wrong size spec"),
        }
        match p.delay {
            DelaySpec::UniformFraction { lo_frac, hi_frac } => {
                assert_eq!(lo_frac, 0.10);
                assert_eq!(hi_frac, 0.30);
            }
            _ => panic!("wrong delay spec"),
        }
    }

    #[test]
    fn incremental_matches_figure3_parameters() {
        let p = ObfuscationPolicy::incremental("fig3", 20);
        match p.size {
            SizeSpec::IncrementalReduce { step, steps } => {
                assert_eq!(step, 20);
                assert_eq!(steps, 10);
            }
            _ => panic!("wrong size spec"),
        }
        match p.tso {
            TsoSpec::IncrementalReduce { step, steps } => {
                assert_eq!(step, 5);
                assert_eq!(steps, 8);
            }
            _ => panic!("wrong tso spec"),
        }
    }

    #[test]
    fn delay_sampling_fraction_in_range() {
        let mut rng = SimRng::new(1);
        let spec = DelaySpec::UniformFraction {
            lo_frac: 0.10,
            hi_frac: 0.30,
        };
        let nominal = Nanos::from_micros(100);
        for _ in 0..1000 {
            let d = sample_delay(&spec, nominal, &mut rng);
            assert!(
                (Nanos::from_micros(10)..=Nanos::from_micros(30)).contains(&d),
                "delay {d} out of 10-30% band"
            );
        }
    }

    #[test]
    fn delay_sampling_absolute_in_range() {
        let mut rng = SimRng::new(2);
        let spec = DelaySpec::UniformAbsolute {
            lo: Nanos(100),
            hi: Nanos(200),
        };
        for _ in 0..1000 {
            let d = sample_delay(&spec, Nanos::ZERO, &mut rng);
            assert!((100..=200).contains(&d.0));
        }
    }

    #[test]
    fn delay_sampling_histogram() {
        let mut h = Histogram::new(0.0, 1000.0, 10);
        for _ in 0..50 {
            h.push(550.0); // all mass in 500-600 us
        }
        let mut rng = SimRng::new(3);
        let spec = DelaySpec::FromHistogramMicros(h);
        for _ in 0..100 {
            let d = sample_delay(&spec, Nanos::ZERO, &mut rng);
            assert!(
                (Nanos::from_micros(500)..Nanos::from_micros(600)).contains(&d),
                "{d}"
            );
        }
    }

    #[test]
    fn validate_accepts_the_stock_policies() {
        assert!(ObfuscationPolicy::passthrough("p").validate().is_ok());
        assert!(ObfuscationPolicy::split_and_delay("s").validate().is_ok());
        assert!(ObfuscationPolicy::incremental("i", 20).validate().is_ok());
    }

    #[test]
    fn validate_rejects_inconsistent_policies() {
        let mut p = ObfuscationPolicy::passthrough("bad");
        p.size = SizeSpec::SplitAbove { threshold: 0 };
        assert!(p.validate().is_err());

        p.size = SizeSpec::FromHistogram(Histogram::new(0.0, 1500.0, 10));
        assert!(p.validate().is_err(), "empty histogram must not sample");

        p.size = SizeSpec::Unchanged;
        p.delay = DelaySpec::UniformFraction {
            lo_frac: 0.30,
            hi_frac: 0.10,
        };
        assert!(p.validate().is_err(), "inverted fraction range");

        p.delay = DelaySpec::UniformFraction {
            lo_frac: f64::NAN,
            hi_frac: 0.1,
        };
        assert!(p.validate().is_err(), "NaN fraction");

        p.delay = DelaySpec::UniformAbsolute {
            lo: Nanos(200),
            hi: Nanos(100),
        };
        assert!(p.validate().is_err(), "inverted absolute range");

        // Each delay cap admits its bound and refuses past it.
        let cap = Nanos::from_secs_f64(MAX_DRAW_SECS);
        let mut micros = Histogram::new(0.0, MAX_DRAW_SECS * 1e6, 4);
        micros.push(1.0);
        for (at, past) in [
            (
                DelaySpec::UniformAbsolute { lo: cap, hi: cap },
                DelaySpec::UniformAbsolute {
                    lo: Nanos::ZERO,
                    hi: cap + Nanos(1),
                },
            ),
            (
                DelaySpec::UniformFraction {
                    lo_frac: 0.0,
                    hi_frac: MAX_DELAY_FRAC,
                },
                DelaySpec::UniformFraction {
                    lo_frac: 0.0,
                    hi_frac: MAX_DELAY_FRAC * 1.01,
                },
            ),
            (
                DelaySpec::FromHistogramMicros(micros.clone()),
                DelaySpec::FromHistogramMicros(Histogram {
                    hi: MAX_DRAW_SECS * 1e6 + 1.0,
                    ..micros.clone()
                }),
            ),
        ] {
            p.delay = at;
            assert!(p.validate().is_ok(), "{:?}", p.delay);
            p.delay = past;
            assert!(p.validate().is_err(), "{:?}", p.delay);
        }
        // Bounds no draw can sit between, on either kind of histogram.
        for (lo, hi) in [(5.0, 1.0), (f64::NAN, 1.0), (0.0, f64::INFINITY)] {
            let h = Histogram {
                lo,
                hi,
                ..micros.clone()
            };
            p.delay = DelaySpec::FromHistogramMicros(h.clone());
            assert!(p.validate().is_err(), "delay [{lo}, {hi}]");
            p.delay = DelaySpec::Unchanged;
            p.size = SizeSpec::FromHistogram(h);
            assert!(p.validate().is_err(), "size [{lo}, {hi}]");
            p.size = SizeSpec::Unchanged;
        }

        p.delay = DelaySpec::Unchanged;
        p.tso = TsoSpec::Cap { pkts: 0 };
        assert!(p.validate().is_err(), "zero TSO cap");
    }

    #[test]
    fn validate_rejects_forged_histogram_mass() {
        // A histogram whose claimed total disagrees with its bins (only
        // constructible by hand or via JSON) must not reach a sampler.
        let mut h = Histogram::new(0.0, 1500.0, 10);
        h.push(700.0);
        h.total = 5;
        let mut p = ObfuscationPolicy::passthrough("forged");
        p.size = SizeSpec::FromHistogram(h.clone());
        let err = p.validate().expect_err("forged mass must fail");
        assert!(err.contains("disagrees"), "{err}");

        p.size = SizeSpec::Unchanged;
        p.delay = DelaySpec::FromHistogramMicros(h);
        assert!(p.validate().is_err());
    }

    #[test]
    fn policies_serialize_round_trip() {
        let p = ObfuscationPolicy::split_and_delay("rt");
        let json = p.to_json().to_string_compact();
        let back =
            ObfuscationPolicy::from_json(&Json::parse(&json).expect("parse")).expect("deserialize");
        assert_eq!(back.name, "rt");
        assert!(matches!(
            back.size,
            SizeSpec::SplitAbove { threshold: 1200 }
        ));
    }

    #[test]
    fn histogram_specs_round_trip_through_json() {
        let mut h = Histogram::new(0.0, 100.0, 5);
        h.push(12.0);
        h.push(88.0);
        let p = ObfuscationPolicy {
            name: "hist".to_string(),
            size: SizeSpec::FromHistogram(h.clone()),
            delay: DelaySpec::FromHistogramMicros(h),
            tso: TsoSpec::Cap { pkts: 4 },
            first_n_pkts: 30,
            respect_slow_start: true,
        };
        let back = ObfuscationPolicy::from_json(
            &Json::parse(&p.to_json().to_string_compact()).expect("parse"),
        )
        .expect("de");
        match back.size {
            SizeSpec::FromHistogram(bh) => {
                assert_eq!(bh.counts, vec![1, 0, 0, 0, 1]);
                assert_eq!(bh.total, 2);
            }
            _ => panic!("wrong size spec"),
        }
        assert!(back.respect_slow_start);
        assert_eq!(back.first_n_pkts, 30);
    }
}
