//! Open-world evaluation: the deployment-realistic WF setting.
//!
//! The paper's §3 evaluates a *closed* world ("the most favorable
//! conditions for the attacker, therefore our results represent an upper
//! bound on attack success"). Real censors face the open world: most
//! traffic is to sites outside the monitored set, and a block decision on
//! a false positive has a cost. k-FP's k-NN stage was designed for this:
//! a test trace is attributed to a monitored site only when all [`K`] nearest
//! training fingerprints agree; anything else is "unmonitored".

use crate::features::{extract_all, FeatureConfig};
use crate::forest::{Forest, ForestConfig};
use crate::knn::KfpKnn;
pub use crate::knn::K;
use crate::metrics::mean_std;
use netsim::SimRng;
use traces::Trace;

/// Outcome of an open-world run.
#[derive(Debug, Clone)]
pub struct OpenWorldResult {
    /// True-positive rate: monitored test traces attributed to the
    /// correct monitored site.
    pub tpr_mean: f64,
    pub tpr_std: f64,
    /// False-positive rate: unmonitored test traces attributed to any
    /// monitored site.
    pub fpr_mean: f64,
    pub fpr_std: f64,
    /// Each repeat's TPR and FPR, in repeat order.
    pub tpr_per_repeat: Vec<f64>,
    pub fpr_per_repeat: Vec<f64>,
}

/// Configuration for the open-world evaluation.
#[derive(Debug, Clone, Copy)]
pub struct OpenWorldConfig {
    pub forest: ForestConfig,
    pub repeats: usize,
    pub seed: u64,
}

/// Fraction of each pool, monitored and background, held out for
/// testing.
const TEST_FRAC: f64 = 0.3;

impl Default for OpenWorldConfig {
    fn default() -> Self {
        OpenWorldConfig {
            forest: ForestConfig::default(),
            repeats: 3,
            seed: 0x09E4,
        }
    }
}

/// Evaluate k-FP in the open world.
///
/// `monitored` carries labels `0..n_monitored`; `background` traces'
/// labels are ignored (they are all "unmonitored"). The forest is
/// trained on monitored sites plus a lumped background class; the
/// unanimous-k-NN rule on leaf vectors makes the monitored/unmonitored
/// call.
pub fn evaluate_open_world(
    monitored: &[Trace],
    n_monitored: usize,
    background: &[Trace],
    cfg: &OpenWorldConfig,
) -> OpenWorldResult {
    assert!(!monitored.is_empty() && !background.is_empty());
    let unmon_label = n_monitored;
    // One table: the monitored rows, then the background rows.
    let n_mon = monitored.len();
    let features = FeatureConfig::paper();
    let mut x = extract_all(monitored, &features);
    x.extend(extract_all(background, &features));
    let y: Vec<usize> = monitored
        .iter()
        .map(|t| t.label)
        .chain(std::iter::repeat_n(unmon_label, background.len()))
        .collect();
    let mut tprs = Vec::new();
    let mut fprs = Vec::new();
    for rep in 0..cfg.repeats {
        let mut rng = SimRng::new(cfg.seed).fork(rep as u64 + 1);
        // Split both pools.
        let split = |n: usize, rng: &mut SimRng| -> (Vec<usize>, Vec<usize>) {
            let mut idx: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut idx);
            let n_test = ((n as f64) * TEST_FRAC).round().max(1.0) as usize;
            let test = idx.split_off(n - n_test.min(n - 1));
            (idx, test)
        };
        let (mon_train, mon_test) = split(n_mon, &mut rng);
        let (bg_train, bg_test) = split(background.len(), &mut rng);

        let train: Vec<usize> = mon_train
            .iter()
            .copied()
            .chain(bg_train.iter().map(|&i| n_mon + i))
            .collect();
        let forest = Forest::fit_rows(&x, &y, &train, n_monitored + 1, &cfg.forest, &mut rng);
        let knn = KfpKnn::fit(&forest, &x, &y, &train);

        // Unanimous rule: predict a monitored site only if the K nearest
        // fingerprints all carry it.
        let classify = |i: usize| knn.predict_unanimous(&forest.leaf_vector(&x[i]), unmon_label);

        let tp = mon_test.iter().filter(|&&i| classify(i) == y[i]).count();
        let fp = bg_test
            .iter()
            .filter(|&&i| classify(n_mon + i) != unmon_label)
            .count();
        tprs.push(tp as f64 / mon_test.len().max(1) as f64);
        fprs.push(fp as f64 / bg_test.len().max(1) as f64);
    }
    let (tpr_mean, tpr_std) = mean_std(&tprs);
    let (fpr_mean, fpr_std) = mean_std(&fprs);
    OpenWorldResult {
        tpr_mean,
        tpr_std,
        fpr_mean,
        fpr_std,
        tpr_per_repeat: tprs,
        fpr_per_repeat: fprs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::sites::{background_sites, paper_sites};
    use traces::statgen::{generate, generate_corpus};

    fn corpora() -> (Vec<Trace>, Vec<Trace>) {
        let mon_sites: Vec<_> = paper_sites().into_iter().take(5).collect();
        let monitored = generate_corpus(&mon_sites, 14, 3);
        let bg_sites = background_sites(30, 9);
        let background: Vec<Trace> = bg_sites
            .iter()
            .enumerate()
            .flat_map(|(i, s)| (0..2).map(move |v| generate(s, 0, v, 100 + i as u64)))
            .collect();
        (monitored, background)
    }

    #[test]
    fn open_world_attack_has_signal_and_bounded_fpr() {
        let (monitored, background) = corpora();
        let cfg = OpenWorldConfig {
            forest: ForestConfig { n_trees: 40 },
            ..OpenWorldConfig::default()
        };
        let r = evaluate_open_world(&monitored, 5, &background, &cfg);
        assert!(
            r.tpr_mean > 0.35,
            "open-world TPR {} too low to be a working attack",
            r.tpr_mean
        );
        assert!(
            r.fpr_mean < 0.5,
            "open-world FPR {} — the unanimous rule must reject most background",
            r.fpr_mean
        );
        // The whole point of the unanimous rule: precision over recall.
        assert!(
            r.tpr_mean > r.fpr_mean,
            "TPR {} should exceed FPR {}",
            r.tpr_mean,
            r.fpr_mean
        );
    }

    #[test]
    fn open_world_is_harder_than_closed_world() {
        use crate::eval::{evaluate, EvalConfig};
        use traces::Dataset;
        let (monitored, background) = corpora();
        let names = paper_sites()
            .iter()
            .take(5)
            .map(|s| s.name.to_string())
            .collect();
        let closed = evaluate(
            &Dataset::new(monitored.clone(), names),
            &EvalConfig {
                forest: ForestConfig { n_trees: 40 },
                repeats: 3,
                ..EvalConfig::default()
            },
        );
        let open = evaluate_open_world(
            &monitored,
            5,
            &background,
            &OpenWorldConfig {
                forest: ForestConfig { n_trees: 40 },
                ..OpenWorldConfig::default()
            },
        );
        assert!(
            open.tpr_mean <= closed.mean + 0.05,
            "open-world TPR {} should not beat closed-world accuracy {}",
            open.tpr_mean,
            closed.mean
        );
    }
}
