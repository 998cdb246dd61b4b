//! A pin for every policy `assemble_policy_shaper` can lower, answer
//! for answer.
//!
//! The stack asks a policy's shaper three things: a TSO burst size, each
//! packet's IP size and each segment's extra departure delay. The answer
//! depends on the policy's TSO, size and delay rules, on its first-N
//! window and slow-start hold (tested before any rule, so a held
//! decision draws nothing) and on the seed and flow salt of its RNGs.
//! This test drives every `SizeSpec` × `DelaySpec` × `TsoSpec` variant ×
//! `first_n_pkts` {0, 7} × `respect_slow_start` {false, true} at three
//! (seed, salt) pairs over one `ShapeCtx` sequence that toggles slow
//! start and advances `pkts_sent` past the window, and folds every
//! answer plus the audit's clamp count into one FNV-1a digest.
//!
//! The digest was read at the commit before the guards and strategy
//! stages became one shaper; re-read it at the parent of the change
//! under test, never from the change.
//!
//! A connection gets its shaper another way: `attach` builds and
//! validates the policy, and the attachment moves it into its shaper.
//! Every shape that validates must answer the same along that path, and
//! a shape without a rule must lower to no shaper at all.

use netsim::{FlowId, Histogram, Nanos, SimRng};
use stack::{ShapeCtx, Shaper};
use stob::policy::{DelaySpec, ObfuscationPolicy, SizeSpec, TsoSpec};
use stob::registry::{PolicyKey, PolicyRegistry};
use stob::sockopt::{assemble_policy_shaper, attach};

const PINNED: u64 = 0x1016_052b_450c_cae5;

struct Fnv(u64);

impl Fnv {
    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn histogram(lo: f64, hi: f64, samples: &[f64]) -> Histogram {
    let mut h = Histogram::new(lo, hi, 16);
    for &s in samples {
        h.push(s);
    }
    h
}

fn sizes() -> Vec<SizeSpec> {
    vec![
        SizeSpec::Unchanged,
        SizeSpec::SplitAbove { threshold: 1200 },
        SizeSpec::IncrementalReduce {
            step: 20,
            steps: 10,
        },
        SizeSpec::FromHistogram(histogram(
            0.0,
            3000.0,
            &[90.0, 400.0, 576.0, 1100.0, 1400.0, 1500.0, 1500.0, 2600.0],
        )),
        // No mass: the shaper degrades this rule to pass-through.
        SizeSpec::FromHistogram(Histogram::new(0.0, 1500.0, 10)),
        SizeSpec::Fixed { ip_size: 900 },
    ]
}

fn delays() -> Vec<DelaySpec> {
    vec![
        DelaySpec::Unchanged,
        DelaySpec::UniformFraction {
            lo_frac: 0.10,
            hi_frac: 0.30,
        },
        DelaySpec::UniformAbsolute {
            lo: Nanos(1_000),
            hi: Nanos(50_000),
        },
        DelaySpec::FromHistogramMicros(histogram(0.0, 200.0, &[3.0, 20.0, 20.0, 150.0])),
    ]
}

fn tsos() -> [TsoSpec; 3] {
    [
        TsoSpec::Unchanged,
        TsoSpec::IncrementalReduce { step: 10, steps: 8 },
        TsoSpec::Cap { pkts: 8 },
    ]
}

/// The (seed, salt) pairs every shape is lowered at.
const SEEDS: [(u64, u64); 3] = [(1, 0), (12, 1), (0xDEAD_BEEF, 977)];

/// Every `SizeSpec` × `DelaySpec` × `TsoSpec` variant × first-N window ×
/// slow-start hold, in the order the digest folds them.
fn grid() -> Vec<ObfuscationPolicy> {
    let mut out = Vec::new();
    for size in sizes() {
        for delay in delays() {
            for tso in tsos() {
                for first_n_pkts in [0, 7] {
                    for respect_slow_start in [false, true] {
                        out.push(ObfuscationPolicy {
                            size: size.clone(),
                            delay: delay.clone(),
                            tso: tso.clone(),
                            first_n_pkts,
                            respect_slow_start,
                            ..ObfuscationPolicy::passthrough("pin")
                        });
                    }
                }
            }
        }
    }
    out
}

/// Drive one shaper through the fixed context sequence and return its
/// answers in order. Each step asks for a burst, sizes its packets (the
/// count follows the answer, as in the stack) and delays the segment.
fn answers(shaper: &mut dyn Shaper) -> Vec<u64> {
    let mut out = Vec::new();
    let mut rng = SimRng::new(0x5EED_C7A5);
    let mut pkts_sent = 0u64;
    for step in 0..40u64 {
        let mtu_ip = if step % 9 == 8 { 9000 } else { 1500 };
        let ctx = ShapeCtx {
            flow: FlowId(7),
            now: Nanos(step * 50_000),
            cwnd: 64 * 1448,
            pacing_rate_bps: match step % 4 {
                0 => None,
                1 => Some(u64::MAX),
                _ => Some(rng.range_u64(1_000_000, 100_000_000_000)),
            },
            in_slow_start: (step / 3) % 2 == 0,
            bytes_sent: pkts_sent * 1448,
            pkts_sent,
            segs_sent: step,
            mtu_ip,
            mss: mtu_ip - 52,
        };
        let burst = shaper.tso_segment_pkts(&ctx, rng.range_u64(1, 44) as u32);
        out.push(u64::from(burst));
        for i in 0..burst.min(3) {
            let proposed = rng.range_u64(1, u64::from(mtu_ip)) as u32;
            out.push(u64::from(shaper.packet_ip_size(&ctx, i, proposed)));
        }
        out.push(shaper.extra_delay(&ctx).0);
        // One or two packets a step: `pkts_sent` reads 6 and then 7, on
        // both sides of the first-N window's edge.
        pkts_sent += 1 + step % 2;
    }
    out
}

#[test]
fn every_policy_shape_answers_as_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut shapers = 0;
    for policy in grid() {
        for (seed, salt) in SEEDS {
            let (mut shaper, audit) = assemble_policy_shaper(&policy, seed, salt);
            answers(&mut *shaper).into_iter().for_each(|a| h.add(a));
            h.add(audit.total_clamped());
            shapers += 1;
        }
    }
    assert_eq!(shapers, 6 * 4 * 3 * 2 * 2 * 3);
    assert_eq!(h.0, PINNED, "digest {:#018x}", h.0);
}

/// Publish, attach to the flow whose id is the salt, lower: the same
/// answers as `assemble_policy_shaper`, and no shaper exactly for the
/// shapes without a rule.
#[test]
fn every_valid_shape_attaches_to_the_same_answers() {
    let (mut lowered, mut rule_less) = (0, 0);
    for policy in grid().into_iter().filter(|p| p.validate().is_ok()) {
        let has_rule = !matches!(
            (&policy.size, &policy.delay, &policy.tso),
            (
                SizeSpec::Unchanged,
                DelaySpec::Unchanged,
                TsoSpec::Unchanged
            )
        );
        let reg = PolicyRegistry::new();
        reg.publish(PolicyKey::Default, policy.clone());
        for (seed, salt) in SEEDS {
            let flow = u32::try_from(salt).expect("salts are flow ids");
            let attached = attach(&reg, flow, 0, seed, &mut SimRng::new(seed))
                .attached()
                .expect("a valid policy attaches");
            match attached.into_shaper() {
                Some(mut shaper) => {
                    assert!(has_rule, "{policy:?} lowered to a shaper");
                    let (mut assembled, _) = assemble_policy_shaper(&policy, seed, salt);
                    assert_eq!(
                        answers(&mut *shaper),
                        answers(&mut *assembled),
                        "{policy:?} at seed {seed}, flow {flow}"
                    );
                    lowered += 1;
                }
                None => {
                    assert!(!has_rule, "{policy:?} lowered to no shaper");
                    rule_less += 1;
                }
            }
        }
    }
    // The empty histogram fails validation; every other shape attaches.
    assert_eq!((lowered, rule_less), ((5 * 4 * 3 * 2 * 2 - 4) * 3, 4 * 3));
}
