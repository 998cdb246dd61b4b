//! Small statistics toolkit shared by the experiment harnesses.
//!
//! Welford running moments, exact percentiles over collected samples, and
//! a fixed-bin histogram (the compact distribution representation §4.1 of
//! the paper proposes for sharing obfuscation policies between the
//! application and the stack).

/// Numerically stable running mean/variance (Welford).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Sample standard deviation (n-1 denominator), 0 for n < 2.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Exact percentile by sorting a copy. `p` in [0, 100], linear
/// interpolation between ranks (the same convention as numpy's default).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&v, p)
}

/// [`percentile`] over samples the caller has already sorted ascending —
/// lets hot paths that need several percentiles of one buffer sort once.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Fixed-width-bin histogram over [lo, hi). Out-of-range samples clamp to
/// the edge bins, so the histogram always accounts for every sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    pub counts: Vec<u64>,
    pub total: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    pub(crate) fn bin_of(&self, x: f64) -> usize {
        let bins = self.counts.len();
        if x <= self.lo {
            return 0;
        }
        if x >= self.hi {
            return bins - 1;
        }
        let idx = ((x - self.lo) / (self.hi - self.lo) * bins as f64) as usize;
        idx.min(bins - 1)
    }

    pub fn push(&mut self, x: f64) {
        let b = self.bin_of(x);
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Draw from the empirical distribution using uniforms `u1, u2` in
    /// [0,1): pick a bin by mass, then a uniform point inside it. This is
    /// the sampling operation Stob policies perform on the datapath.
    pub fn sample(&self, u1: f64, u2: f64) -> f64 {
        assert!(self.total > 0, "sampling an empty histogram");
        let target = (u1 * self.total as f64) as u64;
        let mut acc = 0u64;
        let mut bin = self.counts.len() - 1;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if target < acc {
                bin = i;
                break;
            }
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + bin as f64 * w + u2 * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.n, 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        let mut s1 = RunningStats::new();
        s1.push(3.0);
        assert_eq!(s1.mean(), 3.0);
        assert_eq!(s1.std_dev(), 0.0);
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((percentile(&v, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 25.0) - 25.75).abs() < 1e-9);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 50.0), 42.0);
    }

    #[test]
    fn percentile_sorted_matches_percentile() {
        let v: Vec<f64> = (0..57).map(|i| ((i * 37) % 57) as f64).collect();
        let mut sorted = v.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 12.5, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(
                percentile(&v, p).to_bits(),
                percentile_sorted(&sorted, p).to_bits()
            );
        }
    }

    #[test]
    fn histogram_binning_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(-5.0); // clamps to bin 0
        h.push(0.5);
        h.push(9.9);
        h.push(50.0); // clamps to last bin
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[9], 2);
        assert_eq!(h.total, 4);
    }

    #[test]
    fn histogram_sampling_tracks_mass() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        // All mass in bin 3 (30..40).
        for _ in 0..100 {
            h.push(35.0);
        }
        for i in 0..10 {
            let x = h.sample(i as f64 / 10.0, 0.5);
            assert!((30.0..40.0).contains(&x), "sample {x}");
        }
    }
}
