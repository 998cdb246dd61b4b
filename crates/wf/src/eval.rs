//! Closed-world evaluation harness: repeated stratified splits of a
//! dataset, a fresh forest per repeat, accuracy reported as mean ± std —
//! the Table 2 protocol.

use crate::features::{extract_all, FeatureConfig};
use crate::forest::{Forest, ForestConfig};
use crate::knn::{FeatureKnn, KfpKnn};
use crate::metrics::{accuracy, mean_std};
use netsim::SimRng;
use traces::Dataset;

/// Which classifier head runs on top of the features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttackKind {
    /// Random-forest majority vote (Table 2's "k-FP Random Forest").
    #[default]
    RandomForest,
    /// Full k-FP: forest leaf-vector fingerprints + Hamming k-NN.
    KfpLeafKnn,
    /// Euclidean k-NN on z-scored raw features (classic baseline).
    FeatureKnn,
}

#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    pub features: FeatureConfig,
    pub forest: ForestConfig,
    pub attack: AttackKind,
    /// Independent train/test repetitions.
    pub repeats: usize,
    /// Fraction of each class held out for testing.
    pub test_frac: f64,
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            features: FeatureConfig::paper(),
            forest: ForestConfig::default(),
            attack: AttackKind::RandomForest,
            repeats: 5,
            test_frac: 0.25,
            seed: 0xC0FFEE,
        }
    }
}

#[derive(Debug, Clone)]
pub struct EvalResult {
    pub mean: f64,
    pub std: f64,
    pub per_repeat: Vec<f64>,
}

impl EvalResult {
    /// Table 2's `0.884 ± 0.007` presentation.
    pub fn formatted(&self) -> String {
        format!("{:.3} \u{00B1} {:.3}", self.mean, self.std)
    }
}

/// Evaluate the k-FP random-forest attack on a dataset.
pub fn evaluate(dataset: &Dataset, cfg: &EvalConfig) -> EvalResult {
    let features = extract_all(&dataset.traces, &cfg.features);
    evaluate_features(dataset, features, cfg)
}

/// Evaluate a colluding observer that holds several *aligned* views of
/// the same visits — e.g. the per-leg captures of a multipath flow plus
/// their timestamp-union. The adversary does not discard which leg each
/// packet took, so its classifier sees the concatenation of every
/// view's feature vector. Labels and splits come from the first view.
pub(crate) fn evaluate_joint(views: &[&Dataset], cfg: &EvalConfig) -> EvalResult {
    let base = views.first().expect("at least one view");
    let mut features = extract_all(&base.traces, &cfg.features);
    for v in &views[1..] {
        assert_eq!(
            v.traces.len(),
            base.traces.len(),
            "joint views are not aligned"
        );
        for (row, extra) in features
            .iter_mut()
            .zip(extract_all(&v.traces, &cfg.features))
        {
            row.extend(extra);
        }
    }
    evaluate_features(base, features, cfg)
}

/// The closed-world loop over precomputed feature rows, one per trace
/// of `dataset`: per repeat, a stratified split from the repeat's own
/// RNG fork, then the configured attack fitted and scored on it.
pub(crate) fn evaluate_features(
    dataset: &Dataset,
    features: Vec<Vec<f64>>,
    cfg: &EvalConfig,
) -> EvalResult {
    assert!(
        dataset.len() >= 2 * dataset.n_classes(),
        "dataset too small"
    );
    let k = dataset.n_classes();
    let labels: Vec<usize> = dataset.traces.iter().map(|t| t.label).collect();
    let mut scores = Vec::with_capacity(cfg.repeats);
    for rep in 0..cfg.repeats {
        let mut rng = SimRng::new(cfg.seed).fork(rep as u64 + 1);
        let (train, test_idx) = dataset.stratified_split(cfg.test_frac, &mut rng);
        let (x, y) = (&features, &labels);
        let pred: Vec<usize> = match cfg.attack {
            AttackKind::RandomForest => {
                let forest = Forest::fit_rows(x, y, &train, k, &cfg.forest, &mut rng);
                let rows: Vec<&[f64]> = test_idx.iter().map(|&i| features[i].as_slice()).collect();
                forest.predict_rows(&rows)
            }
            AttackKind::KfpLeafKnn => {
                let forest = Forest::fit_rows(x, y, &train, k, &cfg.forest, &mut rng);
                let knn = KfpKnn::fit(&forest, x, y, &train);
                test_idx
                    .iter()
                    .map(|&i| knn.predict(&forest, &features[i]))
                    .collect()
            }
            AttackKind::FeatureKnn => {
                let mut knn = FeatureKnn::fit(x, y, &train, k);
                test_idx
                    .iter()
                    .map(|&i| knn.predict(&features[i]))
                    .collect()
            }
        };
        let truth: Vec<usize> = test_idx.iter().map(|&i| labels[i]).collect();
        scores.push(accuracy(&pred, &truth));
    }
    let (mean, std) = mean_std(&scores);
    EvalResult {
        mean,
        std,
        per_repeat: scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::sites::paper_sites;
    use traces::statgen::generate_corpus;

    fn dataset(n_sites: usize, visits: usize) -> Dataset {
        let sites: Vec<_> = paper_sites().into_iter().take(n_sites).collect();
        let names = sites.iter().map(|s| s.name.to_string()).collect();
        Dataset::new(generate_corpus(&sites, visits, 1), names)
    }

    fn quick_cfg() -> EvalConfig {
        EvalConfig {
            forest: ForestConfig { n_trees: 30 },
            repeats: 3,
            ..EvalConfig::default()
        }
    }

    #[test]
    fn attack_beats_chance_decisively_on_synthetic_sites() {
        let d = dataset(5, 20);
        let r = evaluate(&d, &quick_cfg());
        // Chance is 0.2; the synthetic sites are built to be separable.
        assert!(r.mean > 0.6, "accuracy {} too low", r.mean);
        assert_eq!(r.per_repeat.len(), 3);
        assert!(r.std < 0.5);
    }

    #[test]
    fn truncation_reduces_or_preserves_accuracy() {
        let d = dataset(5, 20);
        let full = evaluate(&d, &quick_cfg());
        let tiny = evaluate(&d.truncated(10), &quick_cfg());
        assert!(
            tiny.mean <= full.mean + 0.1,
            "10-packet prefix ({}) should not beat full traces ({})",
            tiny.mean,
            full.mean
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let d = dataset(3, 12);
        let a = evaluate(&d, &quick_cfg());
        let b = evaluate(&d, &quick_cfg());
        assert_eq!(a.per_repeat, b.per_repeat);
    }

    #[test]
    fn formatted_output_style() {
        let r = EvalResult {
            mean: 0.884,
            std: 0.007,
            per_repeat: vec![],
        };
        assert_eq!(r.formatted(), "0.884 \u{00B1} 0.007");
    }

    #[test]
    fn all_attack_variants_beat_chance() {
        let d = dataset(4, 16);
        for attack in [
            AttackKind::RandomForest,
            AttackKind::KfpLeafKnn,
            AttackKind::FeatureKnn,
        ] {
            let cfg = EvalConfig {
                attack,
                ..quick_cfg()
            };
            let r = evaluate(&d, &cfg);
            assert!(
                r.mean > 0.5,
                "{attack:?} accuracy {} too close to chance (0.25)",
                r.mean
            );
        }
    }

    #[test]
    fn shuffled_labels_drop_to_chance() {
        // Destroying the label-trace association must kill the attack:
        // a sanity check that accuracy comes from signal, not leakage.
        let mut d = dataset(4, 16);
        let mut rng = SimRng::new(9);
        let mut labels: Vec<usize> = d.traces.iter().map(|t| t.label).collect();
        rng.shuffle(&mut labels);
        for (t, l) in d.traces.iter_mut().zip(labels) {
            t.label = l;
        }
        let r = evaluate(&d, &quick_cfg());
        assert!(
            r.mean < 0.55,
            "label-shuffled accuracy {} should be near chance (0.25)",
            r.mean
        );
    }
}
