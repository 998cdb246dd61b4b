//! Order statistics for host-time samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller times at least one repetition.
pub fn median(xs: &[f64]) -> f64 {
    netsim::percentile(xs, 50.0)
}

/// The highest of the usual tail percentiles (50, 90, 95, 99, 99.9) that
/// still has at least ten samples beyond it, so the reported tail is
/// never a single outlier. `None` below twenty samples, where not even
/// the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per-mille, so "ten samples beyond" is an exact integer test.
    [999usize, 990, 950, 900, 500]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Minimum, maximum of a non-empty sample.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(540), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn min_max_of_sample() {
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
    }
}
