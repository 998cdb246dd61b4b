//! Deterministic random number generation.
//!
//! The simulator cannot depend on ambient entropy: every experiment must be
//! exactly repeatable from a seed printed in its output. We implement
//! xoshiro256** seeded through SplitMix64 (the reference seeding procedure)
//! rather than pulling in `rand` here, so the substrate crate stays
//! dependency-light and the stream is stable across `rand` version bumps.
//!
//! `SimRng` also supports *forking*: deriving independent child streams for
//! subsystems (per-flow jitter, per-site noise) so that adding randomness
//! consumption in one subsystem does not perturb another — the classic
//! trick for variance reduction in network simulators.

/// xoshiro256** PRNG with SplitMix64 seeding.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child stream labelled by `stream`.
    ///
    /// Children with distinct labels (or from distinct parents) produce
    /// statistically independent sequences.
    pub fn fork(&self, stream: u64) -> SimRng {
        // Mix the label into the current state through SplitMix64 so that
        // fork(0) != self and fork(a) != fork(b) for a != b.
        let mut sm = self
            .s
            .iter()
            .fold(stream ^ 0xA076_1D64_78BD_642F, |acc, &w| {
                acc.rotate_left(17) ^ w
            });
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, bound). Panics if bound == 0.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in [lo, hi] inclusive.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo > hi");
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform integer in [lo, hi] inclusive.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform float in [lo, hi).
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli trial with probability `p` of returning true.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal via Box-Muller (one value per call; simple and
    /// deterministic — throughput is irrelevant here).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with given mean and standard deviation.
    pub fn normal_ms(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Log-normal: exp(Normal(mu, sigma)).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential with given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Pareto (Lomax-shifted) with scale `xm` and shape `alpha` — heavy
    /// tails for web object sizes.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        xm / u.powf(1.0 / alpha)
    }

    /// Rayleigh with scale sigma (used by the FRONT defense's padding
    /// schedule).
    pub fn rayleigh(&mut self, sigma: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u < 1.0 {
                break u;
            }
        };
        sigma * (-2.0 * (1.0 - u).ln()).sqrt()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_streams_are_independent_and_stable() {
        let root = SimRng::new(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let mut c1b = root.fork(1);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        // Child 2's first draw differs from child 1's.
        assert_ne!(c1.next_u64(), c2.next_u64());
        // Forking does not consume parent state.
        let mut r1 = SimRng::new(7);
        let mut r2 = SimRng::new(7);
        let _ = r2.fork(99);
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_unbiased_bounds() {
        let mut r = SimRng::new(9);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive() {
        let mut r = SimRng::new(11);
        for _ in 0..1000 {
            let v = r.range_u64(5, 7);
            assert!((5..=7).contains(&v));
        }
        assert_eq!(r.range_u64(4, 4), 4);
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(13);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(17);
        let n = 50_000;
        let mean = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn rayleigh_positive_and_mean() {
        let mut r = SimRng::new(19);
        let n = 50_000;
        let sigma = 2.0;
        let xs: Vec<f64> = (0..n).map(|_| r.rayleigh(sigma)).collect();
        assert!(xs.iter().all(|&x| x >= 0.0));
        let mean = xs.iter().sum::<f64>() / n as f64;
        let expect = sigma * (std::f64::consts::PI / 2.0).sqrt();
        assert!((mean - expect).abs() < 0.05, "mean {mean} expect {expect}");
    }

    #[test]
    fn pareto_at_least_scale() {
        let mut r = SimRng::new(23);
        for _ in 0..1000 {
            assert!(r.pareto(100.0, 1.5) >= 100.0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(29);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(37);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
