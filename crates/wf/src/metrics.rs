//! Classification metrics.

/// Fraction of correct predictions.
pub fn accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    pred.iter().zip(truth).filter(|(p, t)| p == t).count() as f64 / pred.len() as f64
}

/// Mean and sample standard deviation of a set of scores (the Table 2
/// `mean ± std` presentation).
pub fn mean_std(scores: &[f64]) -> (f64, f64) {
    assert!(!scores.is_empty());
    let n = scores.len() as f64;
    let mean = scores.iter().sum::<f64>() / n;
    if scores.len() < 2 {
        return (mean, 0.0);
    }
    let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 2]), 1.0);
        assert_eq!(accuracy(&[0, 0, 0], &[0, 1, 2]), 1.0 / 3.0);
    }

    #[test]
    fn mean_std_matches_hand_math() {
        let (m, s) = mean_std(&[0.9, 0.8, 1.0]);
        assert!((m - 0.9).abs() < 1e-12);
        assert!((s - 0.1).abs() < 1e-12);
        let (m1, s1) = mean_std(&[0.5]);
        assert_eq!((m1, s1), (0.5, 0.0));
    }
}
