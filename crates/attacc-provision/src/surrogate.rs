//! A hand-rolled gradient-boosted-tree surrogate with monotone
//! constraints. No external dependencies, no randomness, no threads:
//! training is a fixed sequence of exact greedy splits, so the same
//! dataset always yields the same model and the same predictions — at
//! any `ATTACC_THREADS` setting.
//!
//! ## Model
//!
//! Least-squares boosting: `F_m(x) = F_{m-1}(x) + η · t_m(x)` where each
//! `t_m` is a depth-limited regression tree fit to the residuals of
//! `F_{m-1}` and `η` is the shrinkage. Splits minimize the sum of
//! squared errors over exact midpoint thresholds; ties break by
//! `(feature index, threshold)` so the greedy choice is total-ordered.
//!
//! ## Monotone constraints
//!
//! A feature marked `+1` guarantees `x_f ≤ x_f' ⇒ f(x) ≤ f(x')`
//! (all else equal), the XGBoost construction: a split on a `+1`
//! feature whose left child would predict *more* than its right child
//! is rejected, and the admitted split pins `mid = (w_l + w_r) / 2` as
//! the upper bound of the left subtree and lower bound of the right.
//! Leaf values clamp into their inherited `[lo, hi]` interval, so the
//! per-tree response in a constrained feature is stepwise
//! non-decreasing — and a sum of non-decreasing steps is
//! non-decreasing. The monotonicity proptest leans on this structure,
//! not on luck.

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GbtParams {
    /// Boosting rounds (trees).
    pub rounds: usize,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Shrinkage η applied to every leaf.
    pub shrinkage: f64,
    /// Minimum samples per leaf; splits creating smaller leaves are
    /// rejected.
    pub min_leaf: usize,
    /// Per-feature monotone constraint: `+1` non-decreasing, `-1`
    /// non-increasing, `0` unconstrained. Empty = all unconstrained.
    pub monotone: Vec<i8>,
}

impl Default for GbtParams {
    fn default() -> GbtParams {
        GbtParams {
            rounds: 120,
            max_depth: 3,
            shrinkage: 0.15,
            min_leaf: 2,
            monotone: Vec::new(),
        }
    }
}

/// One node of a fitted tree: an internal split or a leaf.
#[derive(Debug, Clone, PartialEq)]
enum TreeNode {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f64,
    },
}

/// A fitted regression tree (arena-allocated nodes, root at 0).
#[derive(Debug, Clone, PartialEq)]
struct Tree {
    nodes: Vec<TreeNode>,
}

impl Tree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// A fitted gradient-boosted surrogate for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct Gbt {
    base: f64,
    shrinkage: f64,
    trees: Vec<Tree>,
    n_features: usize,
}

/// The best admissible split of one node's sample set.
struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain: f64,
    left_mean: f64,
    right_mean: f64,
}

impl Gbt {
    /// Fits the surrogate to `(xs, ys)`. Deterministic and serial.
    ///
    /// # Panics
    /// Panics on empty data, ragged rows, or a `monotone` vector whose
    /// length differs from the feature count.
    #[must_use]
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &GbtParams) -> Gbt {
        assert!(!xs.is_empty() && xs.len() == ys.len(), "non-empty aligned data");
        let n_features = xs[0].len();
        assert!(xs.iter().all(|x| x.len() == n_features), "rectangular features");
        assert!(
            params.monotone.is_empty() || params.monotone.len() == n_features,
            "monotone vector must cover every feature"
        );
        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut residuals: Vec<f64> = ys.iter().map(|y| y - base).collect();
        let mut trees = Vec::with_capacity(params.rounds);
        let idx: Vec<usize> = (0..xs.len()).collect();
        for _ in 0..params.rounds {
            let mut nodes = Vec::new();
            grow(
                &mut nodes,
                xs,
                &residuals,
                idx.clone(),
                0,
                params,
                f64::NEG_INFINITY,
                f64::INFINITY,
            );
            let tree = Tree { nodes };
            for (i, x) in xs.iter().enumerate() {
                residuals[i] -= params.shrinkage * tree.predict(x);
            }
            trees.push(tree);
        }
        Gbt {
            base,
            shrinkage: params.shrinkage,
            trees,
            n_features,
        }
    }

    /// Predicts one point.
    ///
    /// # Panics
    /// Panics when `x` has the wrong arity.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature arity");
        self.base
            + self
                .trees
                .iter()
                .map(|t| self.shrinkage * t.predict(x))
                .sum::<f64>()
    }

    /// Mean absolute error over a labelled set.
    #[must_use]
    pub fn mae(&self, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        assert!(!xs.is_empty() && xs.len() == ys.len());
        xs.iter()
            .zip(ys)
            .map(|(x, y)| (self.predict(x) - y).abs())
            .sum::<f64>()
            / ys.len() as f64
    }
}

fn mean(vals: impl Iterator<Item = f64>, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        vals.sum::<f64>() / n as f64
    }
}

/// Recursively grows the tree over `samples`, returning the index of the
/// created node. `lo`/`hi` are the leaf-value bounds inherited from
/// monotone splits above.
#[allow(clippy::too_many_arguments)]
fn grow(
    nodes: &mut Vec<TreeNode>,
    xs: &[Vec<f64>],
    residuals: &[f64],
    samples: Vec<usize>,
    depth: usize,
    params: &GbtParams,
    lo: f64,
    hi: f64,
) -> usize {
    let node_mean = mean(samples.iter().map(|&i| residuals[i]), samples.len());
    let leaf_value = node_mean.clamp(lo, hi);
    if depth >= params.max_depth || samples.len() < 2 * params.min_leaf {
        nodes.push(TreeNode::Leaf { value: leaf_value });
        return nodes.len() - 1;
    }
    let Some(split) = best_split(xs, residuals, &samples, params) else {
        nodes.push(TreeNode::Leaf { value: leaf_value });
        return nodes.len() - 1;
    };
    let (left_set, right_set): (Vec<usize>, Vec<usize>) = samples
        .iter()
        .partition(|&&i| xs[i][split.feature] <= split.threshold);
    // Monotone bound propagation: pin the mid-point between the child
    // means so descendants cannot cross it.
    let constraint = params.monotone.get(split.feature).copied().unwrap_or(0);
    let (l_lo, l_hi, r_lo, r_hi) = match constraint {
        0 => (lo, hi, lo, hi),
        _ => {
            let mid = ((split.left_mean + split.right_mean) / 2.0).clamp(lo, hi);
            if constraint > 0 {
                (lo, mid, mid, hi)
            } else {
                (mid, hi, lo, mid)
            }
        }
    };
    let placeholder = nodes.len();
    nodes.push(TreeNode::Leaf { value: leaf_value });
    let left = grow(nodes, xs, residuals, left_set, depth + 1, params, l_lo, l_hi);
    let right = grow(nodes, xs, residuals, right_set, depth + 1, params, r_lo, r_hi);
    nodes[placeholder] = TreeNode::Split {
        feature: split.feature,
        threshold: split.threshold,
        left,
        right,
    };
    placeholder
}

/// Scans every feature's exact midpoint thresholds for the admissible
/// split with the highest SSE reduction. Ties break by `(feature,
/// threshold)`; monotone-violating splits are rejected outright.
fn best_split(
    xs: &[Vec<f64>],
    residuals: &[f64],
    samples: &[usize],
    params: &GbtParams,
) -> Option<SplitChoice> {
    let mut best: Option<SplitChoice> = None;
    #[allow(clippy::needless_range_loop)] // `f` indexes feature columns, not `xs` rows
    for f in 0..xs[samples[0]].len() {
        // Sort by (value, index) so equal feature values order stably.
        let mut order: Vec<usize> = samples.to_vec();
        order.sort_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]).then(a.cmp(&b)));
        let total: f64 = order.iter().map(|&i| residuals[i]).sum();
        let n = order.len();
        let mut left_sum = 0.0;
        let mut left_n = 0usize;
        for w in 0..n - 1 {
            left_sum += residuals[order[w]];
            left_n += 1;
            let (a, b) = (xs[order[w]][f], xs[order[w + 1]][f]);
            if a == b {
                continue; // not a valid cut point
            }
            let right_n = n - left_n;
            if left_n < params.min_leaf || right_n < params.min_leaf {
                continue;
            }
            let right_sum = total - left_sum;
            let left_mean = left_sum / left_n as f64;
            let right_mean = right_sum / right_n as f64;
            let constraint = params.monotone.get(f).copied().unwrap_or(0);
            if (constraint > 0 && left_mean > right_mean)
                || (constraint < 0 && left_mean < right_mean)
            {
                continue;
            }
            let gain = left_sum * left_sum / left_n as f64
                + right_sum * right_sum / right_n as f64
                - total * total / n as f64;
            let threshold = (a + b) / 2.0;
            let better = match &best {
                None => true,
                Some(cur) => match gain.total_cmp(&cur.gain) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => {
                        (f, threshold) < (cur.feature, cur.threshold)
                    }
                },
            };
            if better && gain > 1e-12 {
                best = Some(SplitChoice {
                    feature: f,
                    threshold,
                    gain,
                    left_mean,
                    right_mean,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 3x₀ + x₁² — smooth, monotone in x₀.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let (a, b) = (i as f64 / 2.0, j as f64 / 3.0);
                xs.push(vec![a, b]);
                ys.push(3.0 * a + b * b);
            }
        }
        (xs, ys)
    }

    #[test]
    fn fits_a_smooth_surface_tightly() {
        let (xs, ys) = grid_2d();
        let model = Gbt::fit(&xs, &ys, &GbtParams::default());
        let spread = ys.iter().cloned().fold(f64::MIN, f64::max)
            - ys.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            model.mae(&xs, &ys) < 0.02 * spread,
            "training MAE {} should be < 2% of spread {spread}",
            model.mae(&xs, &ys)
        );
    }

    #[test]
    fn training_is_bitwise_reproducible() {
        let (xs, ys) = grid_2d();
        let a = Gbt::fit(&xs, &ys, &GbtParams::default());
        let b = Gbt::fit(&xs, &ys, &GbtParams::default());
        assert_eq!(a, b);
        assert_eq!(a.predict(&[1.7, 2.3]).to_bits(), b.predict(&[1.7, 2.3]).to_bits());
    }

    #[test]
    fn monotone_constraint_holds_off_grid() {
        let (xs, ys) = grid_2d();
        let params = GbtParams {
            monotone: vec![1, 0],
            ..GbtParams::default()
        };
        let model = Gbt::fit(&xs, &ys, &params);
        for j in 0..40 {
            let b = j as f64 / 10.0;
            let mut prev = f64::NEG_INFINITY;
            for i in 0..80 {
                let a = i as f64 / 14.0;
                let y = model.predict(&[a, b]);
                assert!(
                    y >= prev - 1e-12,
                    "prediction must not decrease in x0: f({a}, {b}) = {y} < {prev}"
                );
                prev = y;
            }
        }
    }

    #[test]
    fn decreasing_constraint_mirrors() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..30).map(|i| -2.0 * i as f64 + ((i * 7) % 5) as f64 * 0.1).collect();
        let params = GbtParams {
            monotone: vec![-1],
            ..GbtParams::default()
        };
        let model = Gbt::fit(&xs, &ys, &params);
        let mut prev = f64::INFINITY;
        for i in 0..120 {
            let y = model.predict(&[i as f64 / 4.0]);
            assert!(y <= prev + 1e-12, "must not increase: {y} > {prev}");
            prev = y;
        }
    }
}
