//! Random forests (Breiman): bootstrap-bagged CART trees with random
//! feature subsets. This is the classifier behind Table 2 ("k-FP Random
//! Forest accuracy rates"); it also emits the per-tree leaf vectors that
//! k-FP's k-NN stage fingerprints with.
//!
//! Every predictor walks the trees' one node array (`tree`'s
//! `CompactNode`); the attacks train on row indices of the feature
//! table they hold, never on a copy of its rows.

use crate::tree::{Tree, TreeConfig};
use netsim::{par, SimRng};

#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    pub n_trees: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { n_trees: 100 }
    }
}

/// Samples per parallel work item in the batched predictors. Small
/// enough that one block's vote table lives in L1, big enough to
/// amortize each tree's node array staying cache-hot across the block.
const PREDICT_BLOCK: usize = 128;

/// Rows advanced through one tree in lockstep (see
/// [`Forest::predict_rows`]).
const WALKERS: usize = 16;

/// Index of the maximum vote, preferring the *last* maximum on ties —
/// exactly `iter().enumerate().max_by_key(...)` semantics.
pub(crate) fn argmax_last(votes: &[u32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in votes.iter().enumerate() {
        if v >= votes[best] {
            best = i;
        }
    }
    best
}

/// A trained forest.
pub struct Forest {
    pub(crate) trees: Vec<Tree>,
    pub(crate) n_classes: usize,
}

impl Forest {
    /// Train on the full (x, y) with bootstrap per tree.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        cfg: &ForestConfig,
        rng: &mut SimRng,
    ) -> Forest {
        assert_eq!(x.len(), y.len());
        let rows: Vec<usize> = (0..x.len()).collect();
        Forest::fit_rows(x, y, &rows, n_classes, cfg, rng)
    }

    /// Train on rows `rows` of (x, y), in that order and with any
    /// repeats: the same forest [`fit`](Forest::fit) grows on those
    /// rows copied out. Tree `t` bootstraps `rows.len()` positions of
    /// `rows` from its own RNG, forked from `rng` by tree index, so the
    /// result is a pure function of (inputs, seed) at any thread count.
    pub(crate) fn fit_rows(
        x: &[Vec<f64>],
        y: &[usize],
        rows: &[usize],
        n_classes: usize,
        cfg: &ForestConfig,
        rng: &mut SimRng,
    ) -> Forest {
        assert!(!rows.is_empty());
        let _sp = netsim::telemetry::span("wf.forest.fit");
        let n = rows.len() as u64;
        let rng = &*rng;
        let tree_ids: Vec<usize> = (0..cfg.n_trees).collect();
        let trees = par::par_map(&tree_ids, |_, &t| {
            let mut tree_rng = rng.fork(t as u64 + 1);
            let idx: Vec<usize> = (0..n)
                .map(|_| rows[tree_rng.next_below(n) as usize])
                .collect();
            Tree::fit(x, y, &idx, n_classes, &TreeConfig::default(), &mut tree_rng)
        });
        Forest { trees, n_classes }
    }

    /// Majority-vote class prediction.
    pub fn predict(&self, sample: &[f64]) -> usize {
        let mut votes = vec![0u32; self.n_classes];
        for t in &self.trees {
            votes[t.predict(sample)] += 1;
        }
        argmax_last(&votes)
    }

    /// The k-FP fingerprint: the vector of leaf ids the sample reaches,
    /// one per tree.
    pub fn leaf_vector(&self, sample: &[f64]) -> Vec<u32> {
        self.trees
            .iter()
            .map(|t| t.predict_with_leaf(sample).1)
            .collect()
    }

    /// Batched majority vote, same result as per-sample [`predict`]
    /// (pinned by `tests/perf_equivalence.rs` and `tests/determinism.rs`).
    ///
    /// [`predict`]: Forest::predict
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        self.predict_rows(&rows)
    }

    /// [`predict_batch`](Forest::predict_batch) over borrowed rows.
    ///
    /// Iterates trees-outer / samples-inner within fixed-size sample
    /// blocks: one tree's nodes stay hot in cache while it classifies
    /// the whole block, instead of re-walking every tree's scattered
    /// node arrays per sample. The inner loop walks the tree's own
    /// node array and advances `WALKERS` rows through it in lockstep
    /// — a tree walk is a chain of dependent loads, so interleaving
    /// independent walkers is what actually fills the memory pipeline.
    /// Blocks are mapped in parallel; votes are per-sample totals, so
    /// the result is identical at any thread count and to the scalar
    /// path. Rows must share one width; a depth-0 tree reads no
    /// feature, so zero-width rows need no special case.
    pub fn predict_rows(&self, rows: &[&[f64]]) -> Vec<usize> {
        let _sp = netsim::telemetry::span("wf.forest.predict_batch");
        let d = rows.first().map_or(0, |r| r.len());
        assert!(rows.iter().all(|r| r.len() == d), "ragged feature rows");
        let nc = self.n_classes;
        let blocks: Vec<&[&[f64]]> = rows.chunks(PREDICT_BLOCK).collect();
        let per_block = par::par_map(&blocks, |_, block| {
            let m = block.len();
            let mut votes = vec![0u32; m * nc];
            for tree in &self.trees {
                let (nodes, depth) = (&tree.nodes, tree.depth);
                // Leaves self-loop, so running every walk for exactly
                // `depth` steps parks each lane at its leaf with a
                // branchless step: the constant `WALKERS` trip count
                // unrolls, keeping `WALKERS` independent load chains in
                // flight per cycle of the depth loop.
                let mut lanes = block.chunks_exact(WALKERS);
                for (c, lane) in lanes.by_ref().enumerate() {
                    let mut idx = [0u32; WALKERS];
                    for _ in 0..depth {
                        for l in 0..WALKERS {
                            let nd = nodes[idx[l] as usize];
                            idx[l] = if lane[l][nd.feature as usize] <= nd.threshold {
                                nd.left
                            } else {
                                nd.right
                            };
                        }
                    }
                    for l in 0..WALKERS {
                        let class = nodes[idx[l] as usize].class as usize;
                        votes[(c * WALKERS + l) * nc + class] += 1;
                    }
                }
                // Tail rows (< WALKERS left): same fixed-depth walk,
                // one row at a time.
                let tail = lanes.remainder();
                for (t, row) in (m - tail.len()..).zip(tail) {
                    let mut i = 0u32;
                    for _ in 0..depth {
                        let nd = nodes[i as usize];
                        i = if row[nd.feature as usize] <= nd.threshold {
                            nd.left
                        } else {
                            nd.right
                        };
                    }
                    votes[t * nc + nodes[i as usize].class as usize] += 1;
                }
            }
            (0..m)
                .map(|s| argmax_last(&votes[s * nc..(s + 1) * nc]))
                .collect::<Vec<usize>>()
        });
        per_block.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize, k: usize, spread: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = SimRng::new(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % k;
            x.push(vec![
                c as f64 * 4.0 + rng.normal() * spread,
                (c as f64 * 2.0).sin() * 3.0 + rng.normal() * spread,
                rng.normal(), // noise dim
            ]);
            y.push(c);
        }
        (x, y)
    }

    #[test]
    fn forest_beats_noise_on_multiclass() {
        let (x, y) = blobs(300, 5, 0.6, 1);
        let mut rng = SimRng::new(2);
        let f = Forest::fit(&x, &y, 5, &ForestConfig::default(), &mut rng);
        let (xt, yt) = blobs(200, 5, 0.6, 77);
        let acc = xt
            .iter()
            .zip(&yt)
            .filter(|(s, &l)| f.predict(s) == l)
            .count() as f64
            / xt.len() as f64;
        assert!(acc > 0.9, "forest accuracy {acc}");
    }

    #[test]
    fn leaf_vector_length_matches_trees() {
        let (x, y) = blobs(100, 2, 0.5, 5);
        let cfg = ForestConfig { n_trees: 17 };
        let mut rng = SimRng::new(6);
        let f = Forest::fit(&x, &y, 2, &cfg, &mut rng);
        assert_eq!(f.leaf_vector(&x[0]).len(), 17);
    }

    #[test]
    fn same_class_samples_share_more_leaves() {
        let (x, y) = blobs(300, 2, 0.4, 7);
        let mut rng = SimRng::new(8);
        let f = Forest::fit(&x, &y, 2, &ForestConfig::default(), &mut rng);
        // Compare two class-0 samples vs a class-0 and a class-1 sample.
        let v0a = f.leaf_vector(&x[0]);
        let v0b = f.leaf_vector(&x[2]);
        let v1 = f.leaf_vector(&x[1]);
        let agree = |a: &[u32], b: &[u32]| a.iter().zip(b).filter(|(x, y)| x == y).count();
        assert!(
            agree(&v0a, &v0b) > agree(&v0a, &v1),
            "same-class leaf agreement must dominate"
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let (x, y) = blobs(120, 3, 0.5, 9);
        let f1 = Forest::fit(&x, &y, 3, &ForestConfig::default(), &mut SimRng::new(10));
        let f2 = Forest::fit(&x, &y, 3, &ForestConfig::default(), &mut SimRng::new(10));
        for s in x.iter().take(20) {
            assert_eq!(f1.predict(s), f2.predict(s));
            assert_eq!(f1.leaf_vector(s), f2.leaf_vector(s));
        }
    }

    #[test]
    fn argmax_last_matches_max_by_key() {
        let cases: Vec<Vec<u32>> = vec![
            vec![3, 1, 2],
            vec![1, 3, 3],
            vec![2, 2, 2],
            vec![0, 0, 5, 5, 1],
            vec![7],
        ];
        for votes in cases {
            let want = votes
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| v)
                .expect("nonempty")
                .0;
            assert_eq!(argmax_last(&votes), want, "votes {votes:?}");
        }
    }

    #[test]
    fn batched_prediction_matches_scalar() {
        // Overlapping blobs force vote ties, exercising the tie-break.
        for seed in [1u64, 2, 3] {
            let (x, y) = blobs(150, 4, 2.5, seed);
            let cfg = ForestConfig { n_trees: 24 };
            let f = Forest::fit(&x, &y, 4, &cfg, &mut SimRng::new(seed + 50));
            let (xt, _) = blobs(300, 4, 2.5, seed + 100);
            let scalar: Vec<usize> = xt.iter().map(|s| f.predict(s)).collect();
            assert_eq!(f.predict_batch(&xt), scalar, "seed {seed}");
            let rows: Vec<&[f64]> = xt.iter().map(|v| v.as_slice()).collect();
            assert_eq!(f.predict_rows(&rows), scalar);
        }
    }

    #[test]
    fn batched_prediction_handles_empty_and_zero_width() {
        let (x, y) = blobs(40, 2, 0.4, 21);
        let f = Forest::fit(&x, &y, 2, &ForestConfig::default(), &mut SimRng::new(22));
        assert!(f.predict_batch(&[]).is_empty());
        // Zero-width rows: every tree degenerates to one leaf.
        let z: Vec<Vec<f64>> = vec![vec![]; 3];
        let zx = vec![vec![0.0; 3]; 8];
        let zy: Vec<usize> = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let fz = Forest::fit(&zx, &zy, 2, &ForestConfig::default(), &mut SimRng::new(23));
        let z0: Vec<Vec<f64>> = vec![vec![0.0; 3]; 3];
        assert_eq!(fz.predict_batch(&z0).len(), 3);
        assert_eq!(fz.predict_batch(&z), vec![fz.predict(&[]); 3], "zero width");
    }

    #[test]
    fn fitting_on_rows_equals_fitting_on_copied_rows() {
        let (x, y) = blobs(120, 3, 1.5, 31);
        let mut draw = SimRng::new(32);
        let mut permuted: Vec<usize> = (0..x.len()).collect();
        draw.shuffle(&mut permuted);
        let with_repeats: Vec<usize> = (0..90)
            .map(|_| draw.next_below(x.len() as u64) as usize)
            .collect();
        let cfg = ForestConfig { n_trees: 12 };
        for rows in [permuted, with_repeats] {
            let on_rows = Forest::fit_rows(&x, &y, &rows, 3, &cfg, &mut SimRng::new(33));
            let xc: Vec<Vec<f64>> = rows.iter().map(|&i| x[i].clone()).collect();
            let yc: Vec<usize> = rows.iter().map(|&i| y[i]).collect();
            let copied = Forest::fit(&xc, &yc, 3, &cfg, &mut SimRng::new(33));
            for s in &x {
                assert_eq!(on_rows.predict(s), copied.predict(s));
                assert_eq!(on_rows.leaf_vector(s), copied.leaf_vector(s));
            }
        }
    }

    #[test]
    fn single_tree_forest_works() {
        let (x, y) = blobs(60, 2, 0.3, 11);
        let cfg = ForestConfig { n_trees: 1 };
        let f = Forest::fit(&x, &y, 2, &cfg, &mut SimRng::new(12));
        assert_eq!(f.trees.len(), 1);
        let _ = f.predict(&x[0]);
    }
}
