//! CART decision trees with Gini impurity and per-split random feature
//! subsets — the building block of the random forest.
//!
//! A tree is one preorder array of 24-byte [`CompactNode`]s, grown in
//! place by [`Tree::fit`] and walked by every predictor: the scalar
//! [`Tree::predict_with_leaf`] and the forest's batched kernel. Leaves
//! loop to themselves, so a walk that runs for the tree's
//! [`depth`](Tree::depth) parks at its leaf without a leaf test; a leaf's
//! node index is its id, the element of k-FP's fingerprint.

use netsim::SimRng;

/// Tree growth parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TreeConfig {
    /// Features considered per split (0 = sqrt(d), the RF default).
    pub(crate) max_features: usize,
    pub(crate) max_depth: usize,
    pub(crate) min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_features: 0,
            max_depth: 40,
            min_samples_split: 2,
        }
    }
}

/// One tree node, split or leaf, in 24 bytes.
///
/// Leaves are encoded as *self-loops*: `left == right == own index`,
/// `feature == 0`, `threshold == +∞`. A split's children come after it
/// in preorder, so `left == own index` is the leaf test. The step
/// `next = if x[f] <= t { left } else { right }` is the whole batched
/// kernel: it parks a walk at its leaf once it gets there, and takes
/// exactly the branches the scalar walk takes (NaN compares false, so
/// even NaN inputs walk identically).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompactNode {
    pub(crate) threshold: f64,
    pub(crate) feature: u32,
    pub(crate) left: u32,
    pub(crate) right: u32,
    /// Majority class (leaves; 0 on split nodes).
    pub(crate) class: u32,
}

/// A trained decision tree.
#[derive(Debug, Clone)]
pub(crate) struct Tree {
    /// Preorder nodes; the root is node 0.
    pub(crate) nodes: Vec<CompactNode>,
    /// Depth of the deepest leaf: the number of steps after which
    /// every walk has parked at its leaf.
    pub(crate) depth: u32,
    /// Gini importance per feature: impurity decrease weighted by the
    /// fraction of training samples reaching each split.
    pub(crate) importances: Vec<f64>,
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

/// What one fit reads, plus the buffers every node of the tree reuses,
/// so growing allocates nothing per node but the node itself.
struct Grower<'a> {
    x: &'a [Vec<f64>],
    y: &'a [usize],
    cfg: &'a TreeConfig,
    /// Features tried per split.
    mtry: usize,
    /// Rows the root sees: the weight denominator of importances.
    n_total: usize,
    /// The feature order, reset to `0..d` before each shuffle so every
    /// node draws as a fresh `0..d` vector would.
    feats: Vec<usize>,
    /// `(value, label)` of the node's rows on the feature being tried.
    vals: Vec<(f64, usize)>,
    counts: Vec<usize>,
    left_counts: Vec<usize>,
    right_counts: Vec<usize>,
}

impl Tree {
    /// Fit on rows `idx` of `x` (n x d) with labels `y` in 0..n_classes.
    pub(crate) fn fit(
        x: &[Vec<f64>],
        y: &[usize],
        idx: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
        rng: &mut SimRng,
    ) -> Tree {
        assert!(!idx.is_empty(), "empty training set");
        let d = x[0].len();
        let mtry = if cfg.max_features == 0 {
            (d as f64).sqrt().round().max(1.0) as usize
        } else {
            cfg.max_features.min(d)
        };
        let mut tree = Tree {
            nodes: Vec::new(),
            depth: 0,
            importances: vec![0.0; d],
        };
        let mut g = Grower {
            x,
            y,
            cfg,
            mtry,
            n_total: idx.len(),
            feats: Vec::with_capacity(d),
            vals: Vec::with_capacity(idx.len()),
            counts: vec![0; n_classes],
            left_counts: vec![0; n_classes],
            right_counts: vec![0; n_classes],
        };
        tree.grow(&mut g, &mut idx.to_vec(), rng, 0);
        // Normalize to sum to 1 (when any split happened).
        let total: f64 = tree.importances.iter().sum();
        if total > 0.0 {
            tree.importances.iter_mut().for_each(|v| *v /= total);
        }
        tree
    }

    /// Grow the subtree over `idx` at `depth`; returns its root's index.
    /// Partitions `idx` in place: nothing a node computes depends on the
    /// order of its rows (class counts are order-free, and the sorted
    /// scan only scores thresholds between distinct values).
    fn grow(&mut self, g: &mut Grower, idx: &mut [usize], rng: &mut SimRng, depth: usize) -> u32 {
        let (x, y) = (g.x, g.y);
        g.counts.fill(0);
        for &i in idx.iter() {
            g.counts[y[i]] += 1;
        }
        let total = idx.len();
        let majority = g
            .counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("classes nonempty")
            .0;
        let pure = g.counts.contains(&total);
        if pure || total < g.cfg.min_samples_split || depth >= g.cfg.max_depth {
            return self.push_leaf(majority, depth);
        }

        // Random feature subset; best Gini split among them.
        g.feats.clear();
        g.feats.extend(0..x[0].len());
        rng.shuffle(&mut g.feats);
        let parent_gini = gini(&g.counts, total);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feat, thr)
        for &feat in g.feats.iter().take(g.mtry) {
            g.vals.clear();
            g.vals.extend(idx.iter().map(|&i| (x[i][feat], y[i])));
            g.vals
                .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            g.left_counts.fill(0);
            g.right_counts.copy_from_slice(&g.counts);
            let mut left_n = 0usize;
            for w in 0..total - 1 {
                let (v, c) = g.vals[w];
                g.left_counts[c] += 1;
                g.right_counts[c] -= 1;
                left_n += 1;
                let next_v = g.vals[w + 1].0;
                if next_v <= v {
                    continue; // no threshold separates equal values
                }
                let right_n = total - left_n;
                let gain = parent_gini
                    - (left_n as f64 / total as f64) * gini(&g.left_counts, left_n)
                    - (right_n as f64 / total as f64) * gini(&g.right_counts, right_n);
                if best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, feat, (v + next_v) / 2.0));
                }
            }
        }
        let Some((gain, feat, thr)) = best else {
            return self.push_leaf(majority, depth);
        };
        if gain <= 1e-12 {
            return self.push_leaf(majority, depth);
        }
        self.importances[feat] += gain * total as f64 / g.n_total as f64;

        // Partition in place: rows with `x[feat] <= thr` first.
        let mut n_left = 0;
        for j in 0..total {
            if x[idx[j]][feat] <= thr {
                idx.swap(n_left, j);
                n_left += 1;
            }
        }
        if n_left == 0 || n_left == total {
            return self.push_leaf(majority, depth);
        }
        // The split goes first (preorder); its children fill in below.
        let pos = self.nodes.len();
        self.nodes.push(CompactNode {
            threshold: thr,
            feature: feat as u32,
            left: 0,
            right: 0,
            class: 0,
        });
        let (left, right) = idx.split_at_mut(n_left);
        let l = self.grow(g, left, rng, depth + 1);
        let r = self.grow(g, right, rng, depth + 1);
        self.nodes[pos].left = l;
        self.nodes[pos].right = r;
        pos as u32
    }

    fn push_leaf(&mut self, class: usize, depth: usize) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(CompactNode {
            threshold: f64::INFINITY,
            feature: 0,
            left: id,
            right: id,
            class: class as u32,
        });
        self.depth = self.depth.max(depth as u32);
        id
    }

    /// Predict the class of a sample; also returns the leaf id reached.
    /// Tests for a leaf before reading a feature, so a row no split
    /// reads (a zero-width one, on a single-leaf tree) is never indexed.
    pub(crate) fn predict_with_leaf(&self, sample: &[f64]) -> (usize, u32) {
        let mut i = 0u32;
        loop {
            let nd = &self.nodes[i as usize];
            if nd.left == i {
                return (nd.class as usize, i);
            }
            i = if sample[nd.feature as usize] <= nd.threshold {
                nd.left
            } else {
                nd.right
            };
        }
    }

    pub(crate) fn predict(&self, sample: &[f64]) -> usize {
        self.predict_with_leaf(sample).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated 2-D blobs.
    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = SimRng::new(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let cx = if class == 0 { 0.0 } else { 10.0 };
            x.push(vec![cx + rng.normal(), rng.normal()]);
            y.push(class);
        }
        (x, y)
    }

    #[test]
    fn gini_math() {
        assert_eq!(gini(&[10, 0], 10), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[0, 0], 0), 0.0);
    }

    #[test]
    fn learns_separable_blobs_perfectly() {
        let (x, y) = blobs(200, 1);
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = SimRng::new(2);
        let tree = Tree::fit(&x, &y, &idx, 2, &TreeConfig::default(), &mut rng);
        let correct = idx.iter().filter(|&&i| tree.predict(&x[i]) == y[i]).count();
        assert_eq!(correct, x.len(), "separable data must fit exactly");
    }

    #[test]
    fn generalizes_to_unseen_points() {
        let (x, y) = blobs(200, 3);
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = SimRng::new(4);
        let tree = Tree::fit(&x, &y, &idx, 2, &TreeConfig::default(), &mut rng);
        let (xt, yt) = blobs(100, 99);
        let correct = xt
            .iter()
            .zip(&yt)
            .filter(|(s, &l)| tree.predict(s) == l)
            .count();
        assert!(correct >= 95, "{correct}/100 on held-out blobs");
    }

    #[test]
    fn constant_features_produce_a_single_leaf() {
        let x = vec![vec![1.0, 1.0]; 20];
        let y: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let idx: Vec<usize> = (0..20).collect();
        let mut rng = SimRng::new(5);
        let tree = Tree::fit(&x, &y, &idx, 2, &TreeConfig::default(), &mut rng);
        assert_eq!(tree.nodes.len(), 1, "no split possible on constant data");
        assert_eq!(tree.depth, 0);
    }

    #[test]
    fn max_depth_limits_growth() {
        let (x, y) = blobs(400, 6);
        let idx: Vec<usize> = (0..x.len()).collect();
        let cfg = TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        };
        let mut rng = SimRng::new(7);
        let tree = Tree::fit(&x, &y, &idx, 2, &cfg, &mut rng);
        assert!(tree.nodes.len() <= 3, "depth-1 tree has at most 3 nodes");
    }

    #[test]
    fn leaf_ids_are_leaf_nodes() {
        let (x, y) = blobs(200, 8);
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = SimRng::new(9);
        let tree = Tree::fit(&x, &y, &idx, 2, &TreeConfig::default(), &mut rng);
        let mut seen = std::collections::BTreeSet::new();
        for s in &x {
            let (class, leaf) = tree.predict_with_leaf(s);
            let nd = tree.nodes[leaf as usize];
            assert!(nd.left == leaf && nd.right == leaf, "node {leaf} is a leaf");
            assert_eq!(nd.class as usize, class);
            seen.insert(leaf);
        }
        assert!(seen.len() > 1, "blobs reach more than one leaf");
    }

    #[test]
    fn depth_is_the_deepest_leaf() {
        let (x, y) = blobs(300, 13);
        let idx: Vec<usize> = (0..x.len()).collect();
        for max_depth in [1, 2, 40] {
            let cfg = TreeConfig {
                max_depth,
                ..TreeConfig::default()
            };
            let tree = Tree::fit(&x, &y, &idx, 2, &cfg, &mut SimRng::new(14));
            let mut deepest = 0;
            let mut stack = vec![(0u32, 0u32)];
            while let Some((i, d)) = stack.pop() {
                let nd = tree.nodes[i as usize];
                if nd.left == i {
                    deepest = deepest.max(d);
                } else {
                    stack.push((nd.left, d + 1));
                    stack.push((nd.right, d + 1));
                }
            }
            assert_eq!(tree.depth, deepest, "max_depth {max_depth}");
            assert!(tree.depth as usize <= max_depth);
        }
    }

    #[test]
    fn importances_identify_the_informative_feature() {
        // Feature 0 separates the classes; feature 1 is pure noise.
        let (x, y) = blobs(300, 20);
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = SimRng::new(21);
        let tree = Tree::fit(&x, &y, &idx, 2, &TreeConfig::default(), &mut rng);
        assert!(
            tree.importances[0] > tree.importances[1] * 3.0,
            "importances {:?}",
            tree.importances
        );
        let sum: f64 = tree.importances.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "normalized: {sum}");
    }

    #[test]
    fn deterministic_for_seed() {
        let (x, y) = blobs(100, 10);
        let idx: Vec<usize> = (0..x.len()).collect();
        let t1 = Tree::fit(
            &x,
            &y,
            &idx,
            2,
            &TreeConfig::default(),
            &mut SimRng::new(11),
        );
        let t2 = Tree::fit(
            &x,
            &y,
            &idx,
            2,
            &TreeConfig::default(),
            &mut SimRng::new(11),
        );
        for s in &x {
            assert_eq!(t1.predict_with_leaf(s), t2.predict_with_leaf(s));
        }
    }

    #[test]
    fn three_class_problem() {
        let mut rng = SimRng::new(12);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let c = i % 3;
            x.push(vec![c as f64 * 5.0 + rng.normal() * 0.5]);
            y.push(c);
        }
        let idx: Vec<usize> = (0..x.len()).collect();
        let tree = Tree::fit(&x, &y, &idx, 3, &TreeConfig::default(), &mut rng);
        let correct = idx.iter().filter(|&&i| tree.predict(&x[i]) == y[i]).count();
        assert!(correct as f64 / x.len() as f64 > 0.98);
    }
}
