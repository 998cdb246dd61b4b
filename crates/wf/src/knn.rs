//! k-nearest-neighbour classification.
//!
//! k-FP's second stage: each training instance is fingerprinted by its
//! forest *leaf vector*; a test instance is classified by the k training
//! fingerprints with the highest leaf agreement (equivalently, lowest
//! Hamming distance). A plain Euclidean k-NN on raw features is also
//! provided as a baseline attack. Both fit on row indices of the
//! caller's feature table.

use crate::forest::Forest;
use std::cmp::Ordering;

/// Neighbours each k-NN head votes over (k-FP's k = 3).
pub const K: usize = 3;

/// The (at most) [`K`] smallest of `keys` under `cmp`, in `cmp` order,
/// then `None` in any slot left over when there are fewer than `K` keys.
/// One pass of insertion into a fixed array, so a query costs O(n) and
/// allocates nothing. The keys carry their row index, so none compare
/// equal and the result is exactly the first `K` of `keys` fully sorted.
fn k_smallest<T: Copy>(
    keys: impl Iterator<Item = T>,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> [Option<T>; K] {
    let mut best: [Option<T>; K] = [None; K];
    for key in keys {
        let Some(at) = best
            .iter()
            .position(|b| b.as_ref().is_none_or(|b| cmp(&key, b).is_lt()))
        else {
            continue;
        };
        best[at..].rotate_right(1);
        best[at] = Some(key);
    }
    best
}

/// The class most of the (at most [`K`]) `labels` carry, the largest of
/// tied maxima: [`crate::forest::argmax_last`] over the `n_classes` vote counts, so the
/// last class when there are no labels (0 when there are no classes).
/// The distinct labels are counted in a fixed array, so a query
/// allocates nothing.
fn vote(labels: impl Iterator<Item = usize>, n_classes: usize) -> usize {
    let mut tally = [(0usize, 0u32); K];
    let mut seen = 0;
    for l in labels {
        debug_assert!(l < n_classes, "label {l} of {n_classes} classes");
        match tally[..seen].iter_mut().find(|(c, _)| *c == l) {
            Some((_, n)) => *n += 1,
            None => {
                tally[seen] = (l, 1);
                seen += 1;
            }
        }
    }
    tally[..seen]
        .iter()
        .max_by_key(|&&(c, n)| (n, c))
        .map_or(n_classes.saturating_sub(1), |&(c, _)| c)
}

/// k-FP: leaf-vector fingerprints + Hamming k-NN.
pub(crate) struct KfpKnn {
    fingerprints: Vec<Vec<u32>>,
    labels: Vec<usize>,
    n_classes: usize,
}

impl KfpKnn {
    /// Fingerprint rows `rows` of (x, y) through a trained forest.
    pub(crate) fn fit(forest: &Forest, x: &[Vec<f64>], y: &[usize], rows: &[usize]) -> Self {
        KfpKnn {
            fingerprints: rows.iter().map(|&i| forest.leaf_vector(&x[i])).collect(),
            labels: rows.iter().map(|&i| y[i]).collect(),
            n_classes: forest.n_classes,
        }
    }

    fn hamming(a: &[u32], b: &[u32]) -> usize {
        a.iter().zip(b).filter(|(x, y)| x != y).count()
    }

    /// Labels of the [`K`] training fingerprints nearest `leaves`,
    /// nearest first (ties by training order).
    fn nearest(&self, leaves: &[u32]) -> impl Iterator<Item = usize> + '_ {
        let dists = self
            .fingerprints
            .iter()
            .enumerate()
            .map(|(i, fp)| (Self::hamming(leaves, fp), i));
        k_smallest(dists, Ord::cmp)
            .into_iter()
            .flatten()
            .map(|(_, i)| self.labels[i])
    }

    /// Classify a test sample's leaf vector.
    pub(crate) fn predict_from_leaves(&self, leaves: &[u32]) -> usize {
        vote(self.nearest(leaves), self.n_classes)
    }

    pub(crate) fn predict(&self, forest: &Forest, sample: &[f64]) -> usize {
        self.predict_from_leaves(&forest.leaf_vector(sample))
    }

    /// Open-world decision rule (Hayes & Danezis): attribute a monitored
    /// label only when all k nearest fingerprints agree on it; otherwise
    /// return `fallback` (the unmonitored class).
    pub(crate) fn predict_unanimous(&self, leaves: &[u32], fallback: usize) -> usize {
        let mut labels = self.nearest(leaves);
        let Some(first) = labels.next() else {
            return fallback;
        };
        if labels.all(|l| l == first) && first != fallback {
            first
        } else {
            fallback
        }
    }
}

/// Euclidean k-NN on (z-scored) raw features — a classic WF baseline.
pub(crate) struct FeatureKnn {
    x: Vec<Vec<f64>>,
    labels: Vec<usize>,
    n_classes: usize,
    mean: Vec<f64>,
    std: Vec<f64>,
    /// The z-scored query, rewritten by every `predict`.
    query: Vec<f64>,
}

impl FeatureKnn {
    /// z-score rows `rows` of `x` by their own mean and deviation.
    pub(crate) fn fit(x: &[Vec<f64>], y: &[usize], rows: &[usize], n_classes: usize) -> Self {
        assert!(!rows.is_empty());
        let d = x[rows[0]].len();
        let n = rows.len() as f64;
        let mut mean = vec![0.0; d];
        for &i in rows {
            for (m, v) in mean.iter_mut().zip(&x[i]) {
                *m += v;
            }
        }
        mean.iter_mut().for_each(|m| *m /= n);
        let mut std = vec![0.0; d];
        for &i in rows {
            for ((sd, v), m) in std.iter_mut().zip(&x[i]).zip(&mean) {
                *sd += (v - m) * (v - m);
            }
        }
        std.iter_mut().for_each(|s| *s = (*s / n).sqrt().max(1e-9));
        let z = rows
            .iter()
            .map(|&i| {
                x[i].iter()
                    .zip(&mean)
                    .zip(&std)
                    .map(|((v, m), sd)| (v - m) / sd)
                    .collect()
            })
            .collect();
        FeatureKnn {
            x: z,
            labels: rows.iter().map(|&i| y[i]).collect(),
            n_classes,
            query: Vec::with_capacity(d),
            mean,
            std,
        }
    }

    pub(crate) fn predict(&mut self, sample: &[f64]) -> usize {
        let z = &mut self.query;
        z.clear();
        z.extend(
            sample
                .iter()
                .zip(&self.mean)
                .zip(&self.std)
                .map(|((v, m), sd)| (v - m) / sd),
        );
        let dists = self.x.iter().enumerate().map(|(i, t)| {
            let d: f64 = t.iter().zip(&*z).map(|(a, b)| (a - b) * (a - b)).sum();
            (d, i)
        });
        let nearest = k_smallest(dists, |a, b| a.partial_cmp(b).expect("finite distances"));
        let labels = nearest.into_iter().flatten().map(|(_, i)| self.labels[i]);
        vote(labels, self.n_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{argmax_last, ForestConfig};
    use netsim::SimRng;

    fn blobs(n: usize, k: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = SimRng::new(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % k;
            x.push(vec![c as f64 * 5.0 + rng.normal() * 0.5, rng.normal()]);
            y.push(c);
        }
        (x, y)
    }

    fn all(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn hamming_distance() {
        assert_eq!(KfpKnn::hamming(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(KfpKnn::hamming(&[1, 2, 3], &[1, 9, 9]), 2);
    }

    #[test]
    fn kfp_knn_classifies_blobs() {
        let (x, y) = blobs(200, 4, 1);
        let mut rng = SimRng::new(2);
        let forest = Forest::fit(&x, &y, 4, &ForestConfig::default(), &mut rng);
        let knn = KfpKnn::fit(&forest, &x, &y, &all(x.len()));
        let (xt, yt) = blobs(80, 4, 55);
        let acc = xt
            .iter()
            .zip(&yt)
            .filter(|(s, &l)| knn.predict(&forest, s) == l)
            .count() as f64
            / xt.len() as f64;
        assert!(acc > 0.9, "k-FP knn accuracy {acc}");
    }

    #[test]
    fn feature_knn_classifies_blobs() {
        let (x, y) = blobs(200, 3, 3);
        let mut knn = FeatureKnn::fit(&x, &y, &all(x.len()), 3);
        let (xt, yt) = blobs(60, 3, 77);
        let acc = xt
            .iter()
            .zip(&yt)
            .filter(|(s, &l)| knn.predict(s) == l)
            .count() as f64
            / xt.len() as f64;
        assert!(acc > 0.9, "feature knn accuracy {acc}");
    }

    #[test]
    fn feature_knn_is_scale_invariant() {
        // One feature with a huge scale must not drown the informative
        // one, thanks to z-scoring.
        let (mut x, y) = blobs(200, 2, 4);
        for s in &mut x {
            s[1] *= 1e6; // blow up the noise dimension
        }
        let mut knn = FeatureKnn::fit(&x, &y, &all(x.len()), 2);
        let (mut xt, yt) = blobs(60, 2, 88);
        for s in &mut xt {
            s[1] *= 1e6;
        }
        let acc = xt
            .iter()
            .zip(&yt)
            .filter(|(s, &l)| knn.predict(s) == l)
            .count() as f64
            / xt.len() as f64;
        assert!(acc > 0.9, "z-scored knn accuracy {acc}");
    }

    #[test]
    fn nearest_k_outvote_farther_points() {
        // Two tight clusters of K points each: a query's K nearest are
        // its own cluster, whichever class sits closer in training order.
        let x: Vec<Vec<f64>> = [10.0, 10.1, 10.2, 0.0, 0.1, 0.2]
            .iter()
            .map(|&v| vec![v])
            .collect();
        let y = vec![1, 1, 1, 0, 0, 0];
        let rows = [3, 0, 4, 1, 5, 2];
        let mut knn = FeatureKnn::fit(&x, &y, &rows, 2);
        assert_eq!(knn.predict(&[1.0]), 0);
        assert_eq!(knn.predict(&[9.0]), 1);
        // Fewer training rows than K: every row votes.
        let mut knn = FeatureKnn::fit(&x, &y, &[3, 0], 2);
        assert_eq!(knn.predict(&[1.0]), 1, "a 1-1 tie goes to the last class");
    }

    /// The first `K` of `keys` under a full sort: the reference the
    /// selection must reproduce.
    /// The vote as it was: one count per class, `argmax_last` over it.
    fn vote_by_counts(labels: &[usize], n_classes: usize) -> usize {
        let mut votes = vec![0u32; n_classes];
        for &l in labels {
            votes[l] += 1;
        }
        argmax_last(&votes)
    }

    #[test]
    fn vote_matches_argmax_over_counts() {
        let mut rng = SimRng::new(0x707E);
        for round in 0..2_000 {
            // Few classes make ties common; a 0-class round has no labels.
            let n_classes = rng.range_u64(0, 6) as usize;
            let k = if n_classes == 0 {
                0
            } else {
                rng.range_u64(0, K as u64) as usize
            };
            let labels: Vec<usize> = (0..k)
                .map(|_| rng.range_u64(0, n_classes as u64 - 1) as usize)
                .collect();
            assert_eq!(
                vote(labels.iter().copied(), n_classes),
                vote_by_counts(&labels, n_classes),
                "round {round}: {labels:?} of {n_classes}"
            );
        }
        // All-distinct, all-equal, no neighbours, no classes.
        for (labels, n_classes) in [
            (&[2, 0, 1][..], 3),
            (&[4, 4, 4][..], 9),
            (&[1, 3, 1][..], 5),
            (&[][..], 7),
            (&[][..], 0),
        ] {
            assert_eq!(
                vote(labels.iter().copied(), n_classes),
                vote_by_counts(labels, n_classes),
                "{labels:?} of {n_classes}"
            );
        }
    }

    fn sort_then_truncate<T: Ord>(mut keys: Vec<T>) -> Vec<T> {
        keys.sort_unstable();
        keys.truncate(K);
        keys
    }

    #[test]
    fn selection_matches_sort_then_truncate_on_tie_heavy_keys() {
        let mut rng = SimRng::new(41);
        for n in [0usize, 1, 2, K, K + 1, 10, 200] {
            for spread in [1u64, 2, 4] {
                // Few distinct distances, so most keys tie on distance
                // and only the index tells them apart.
                let keys: Vec<(usize, usize)> = (0..n)
                    .map(|i| (rng.next_below(spread) as usize, i))
                    .collect();
                let want = sort_then_truncate(keys.clone());
                let got: Vec<_> = k_smallest(keys.into_iter(), Ord::cmp)
                    .into_iter()
                    .flatten()
                    .collect();
                assert_eq!(got, want, "n {n} spread {spread}");
            }
        }
    }

    #[test]
    fn kfp_nearest_matches_sort_then_truncate_on_tied_fingerprints() {
        // Fingerprints over 3 trees with 2 leaves each: at most 8
        // distinct vectors, so Hamming distances tie heavily.
        let mut rng = SimRng::new(43);
        let mut fp = || {
            (0..3)
                .map(|_| rng.next_below(2) as u32)
                .collect::<Vec<u32>>()
        };
        let fingerprints: Vec<Vec<u32>> = (0..60).map(|_| fp()).collect();
        let knn = KfpKnn {
            labels: (0..60).map(|i| i % 4).collect(),
            fingerprints,
            n_classes: 4,
        };
        for _ in 0..40 {
            let q = fp();
            let keys: Vec<(usize, usize)> = knn
                .fingerprints
                .iter()
                .enumerate()
                .map(|(i, f)| (KfpKnn::hamming(&q, f), i))
                .collect();
            let want: Vec<usize> = sort_then_truncate(keys)
                .into_iter()
                .map(|(_, i)| knn.labels[i])
                .collect();
            assert_eq!(knn.nearest(&q).collect::<Vec<_>>(), want);
        }
    }
}
