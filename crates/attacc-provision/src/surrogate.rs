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
    /// Each feature's samples are sorted by `(value, index)` once per fit;
    /// every tree node keeps its members in each of those orders, so no
    /// node sorts. Features with no cut point anywhere in the data (every
    /// value equal) are never scanned: no node has a cut point in them
    /// either.
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
        let cols = columns(xs);
        let (features, orders) = presort(&cols, xs.len());
        boost(xs, ys, params, |residuals| {
            let mut grower = Grower {
                cols: &cols,
                residuals,
                params,
                features: &features,
                goes_left: vec![false; xs.len()],
                nodes: Vec::new(),
            };
            let root = NodeSet { samples: (0..xs.len()).collect(), orders: orders.clone() };
            grower.grow(root, 0, f64::NEG_INFINITY, f64::INFINITY);
            grower.nodes
        })
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

/// The boosting loop shared by [`Gbt::fit`] and the test-only reference
/// fit, over validated data: `grow_tree` fits one tree's nodes to the
/// current residuals.
fn boost(
    xs: &[Vec<f64>],
    ys: &[f64],
    params: &GbtParams,
    mut grow_tree: impl FnMut(&[f64]) -> Vec<TreeNode>,
) -> Gbt {
    let base = ys.iter().sum::<f64>() / ys.len() as f64;
    let mut residuals: Vec<f64> = ys.iter().map(|y| y - base).collect();
    let mut trees = Vec::with_capacity(params.rounds);
    for _ in 0..params.rounds {
        let tree = Tree { nodes: grow_tree(&residuals) };
        for (i, x) in xs.iter().enumerate() {
            residuals[i] -= params.shrinkage * tree.predict(x);
        }
        trees.push(tree);
    }
    Gbt {
        base,
        shrinkage: params.shrinkage,
        trees,
        n_features: xs[0].len(),
    }
}

/// The data column by column: feature `f` of sample `i` at `f · n + i`.
fn columns(xs: &[Vec<f64>]) -> Vec<f64> {
    (0..xs[0].len()).flat_map(|f| xs.iter().map(move |x| x[f])).collect()
}

/// The features with a cut point somewhere in the `n`-sample `cols` (two
/// adjacent sorted values that compare unequal), ascending, and for each
/// of them every sample in `(value, index)` order, the blocks
/// concatenated.
fn presort(cols: &[f64], n: usize) -> (Vec<usize>, Vec<usize>) {
    let (features, orders): (Vec<usize>, Vec<Vec<usize>>) = cols
        .chunks_exact(n)
        .enumerate()
        .filter_map(|(f, col)| {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| col[a].total_cmp(&col[b]).then(a.cmp(&b)));
            let has_cut = order.windows(2).any(|w| col[w[0]] != col[w[1]]);
            has_cut.then_some((f, order))
        })
        .unzip();
    (features, orders.concat())
}

/// One tree node's samples: `samples` in index order, and `orders`, the
/// same samples once per scanned feature (in [`Grower::features`] order),
/// each block in `(value, index)` order. `orders` is empty for a node
/// that cannot split.
struct NodeSet {
    samples: Vec<usize>,
    orders: Vec<usize>,
}

/// Grows one tree over presorted samples.
struct Grower<'a> {
    /// The data column by column (see [`columns`]).
    cols: &'a [f64],
    residuals: &'a [f64],
    params: &'a GbtParams,
    /// The features with a cut point somewhere in the data, ascending.
    features: &'a [usize],
    /// Scratch, one slot per sample: whether sample `i` falls left of the
    /// split being applied.
    goes_left: Vec<bool>,
    nodes: Vec<TreeNode>,
}

impl Grower<'_> {
    /// Feature `f` of every sample, by sample index.
    fn column(&self, f: usize) -> &[f64] {
        let n = self.goes_left.len();
        &self.cols[f * n..(f + 1) * n]
    }

    /// Whether a node of `len` samples at `depth` may be split.
    fn may_split(&self, depth: usize, len: usize) -> bool {
        depth < self.params.max_depth && len >= 2 * self.params.min_leaf
    }

    /// Recursively grows the tree over `set`, returning the index of the
    /// created node. `lo`/`hi` are the leaf-value bounds inherited from
    /// monotone splits above.
    fn grow(&mut self, set: NodeSet, depth: usize, lo: f64, hi: f64) -> usize {
        let residuals = self.residuals;
        let node_mean = mean(set.samples.iter().map(|&i| residuals[i]), set.samples.len());
        let leaf_value = node_mean.clamp(lo, hi);
        let split = if self.may_split(depth, set.samples.len()) {
            self.best_split(&set)
        } else {
            None
        };
        let Some(split) = split else {
            self.nodes.push(TreeNode::Leaf { value: leaf_value });
            return self.nodes.len() - 1;
        };
        let col = self.column(split.feature);
        let (left_set, right_set): (Vec<usize>, Vec<usize>) =
            set.samples.iter().partition(|&&i| col[i] <= split.threshold);
        for &i in &left_set {
            self.goes_left[i] = true;
        }
        for &i in &right_set {
            self.goes_left[i] = false;
        }
        // Each child keeps its members in every feature's order: a filter
        // of the parent's orders.
        let child = |samples: Vec<usize>, side: bool| {
            let mut orders = Vec::new();
            if self.may_split(depth + 1, samples.len()) {
                orders.reserve_exact(self.features.len() * samples.len());
                orders.extend(set.orders.iter().filter(|&&i| self.goes_left[i] == side));
            }
            NodeSet { samples, orders }
        };
        let (left_set, right_set) = (child(left_set, true), child(right_set, false));
        // Monotone bound propagation: pin the mid-point between the child
        // means so descendants cannot cross it.
        let constraint = self.params.monotone.get(split.feature).copied().unwrap_or(0);
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
        let placeholder = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { value: leaf_value });
        let left = self.grow(left_set, depth + 1, l_lo, l_hi);
        let right = self.grow(right_set, depth + 1, r_lo, r_hi);
        self.nodes[placeholder] = TreeNode::Split {
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
    fn best_split(&self, set: &NodeSet) -> Option<SplitChoice> {
        let n = set.samples.len();
        let mut best = None;
        for (order, &f) in set.orders.chunks(n).zip(self.features) {
            scan_feature(self.column(f), self.residuals, order, f, self.params, &mut best);
        }
        best
    }
}

/// Scans the cut points of feature `f` over one node's samples in
/// `(value, index)` order, replacing `best` with every better admissible
/// split. The child means are divided out only where they are used (the
/// monotone check, the stored split), and the parent term once: the same
/// expressions as a per-candidate evaluation, so the same bits.
fn scan_feature(
    col: &[f64],
    residuals: &[f64],
    order: &[usize],
    f: usize,
    params: &GbtParams,
    best: &mut Option<SplitChoice>,
) {
    let constraint = params.monotone.get(f).copied().unwrap_or(0);
    let total: f64 = order.iter().map(|&i| residuals[i]).sum();
    let n = order.len();
    let parent = total * total / n as f64;
    let mut left_sum = 0.0;
    let mut left_n = 0usize;
    for w in 0..n - 1 {
        left_sum += residuals[order[w]];
        left_n += 1;
        let (a, b) = (col[order[w]], col[order[w + 1]]);
        if a == b {
            continue; // not a valid cut point
        }
        let right_n = n - left_n;
        if left_n < params.min_leaf || right_n < params.min_leaf {
            continue;
        }
        let right_sum = total - left_sum;
        let means = || (left_sum / left_n as f64, right_sum / right_n as f64);
        if constraint != 0 {
            let (left_mean, right_mean) = means();
            if (constraint > 0 && left_mean > right_mean) || (constraint < 0 && left_mean < right_mean)
            {
                continue;
            }
        }
        let gain =
            left_sum * left_sum / left_n as f64 + right_sum * right_sum / right_n as f64 - parent;
        let threshold = (a + b) / 2.0;
        let better = match best {
            None => true,
            Some(cur) => match gain.total_cmp(&cur.gain) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => (f, threshold) < (cur.feature, cur.threshold),
            },
        };
        if better && gain > 1e-12 {
            let (left_mean, right_mean) = means();
            *best = Some(SplitChoice {
                feature: f,
                threshold,
                gain,
                left_mean,
                right_mean,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-node-sort fit that [`Gbt::fit`]'s presort replaced, kept as
    /// the reference the presorted fit must equal bit for bit.
    mod reference {
        use super::super::{boost, mean, Gbt, GbtParams, SplitChoice, TreeNode};

        pub(super) fn fit(xs: &[Vec<f64>], ys: &[f64], params: &GbtParams) -> Gbt {
            boost(xs, ys, params, |residuals| {
                let mut nodes = Vec::new();
                let samples = (0..xs.len()).collect();
                let (lo, hi) = (f64::NEG_INFINITY, f64::INFINITY);
                grow(&mut nodes, xs, residuals, samples, 0, params, lo, hi);
                nodes
            })
        }

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

        pub(super) fn best_split(
            xs: &[Vec<f64>],
            residuals: &[f64],
            samples: &[usize],
            params: &GbtParams,
        ) -> Option<SplitChoice> {
            let mut best: Option<SplitChoice> = None;
            #[allow(clippy::needless_range_loop)]
            for f in 0..xs[samples[0]].len() {
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
                        continue;
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
    }

    /// Most rows and features a drawn dataset has.
    const MAX_ROWS: usize = 40;
    const MAX_FEATURES: usize = 5;

    /// A feature value: small integers and halves (many ties), `+∞` (the
    /// load ratio of a fleet with no decode throughput) or a spread float.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            (-2i32..=2).prop_map(f64::from),
            (-4i32..=4).prop_map(|v| f64::from(v) / 2.0),
            Just(f64::INFINITY),
            -50.0f64..50.0,
        ]
    }

    /// A target spread over six decades, so summing in another order
    /// moves low bits.
    fn target() -> impl Strategy<Value = f64> {
        (-1.0f64..1.0, -3i32..=3).prop_map(|(m, e)| m * 10f64.powi(e))
    }

    /// `n` rows of `n_features` drawn cells; column `f` repeats its first
    /// cell when `constant[f]`.
    fn rows(n: usize, n_features: usize, cells: &[f64], constant: &[bool]) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..n_features)
                    .map(|f| cells[if constant[f] { f } else { i * MAX_FEATURES + f }])
                    .collect()
            })
            .collect()
    }

    fn monotone_of(signs: &[i8], n_features: usize, unconstrained: bool) -> Vec<i8> {
        if unconstrained {
            Vec::new()
        } else {
            signs[..n_features].to_vec()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn presorted_fit_equals_the_per_node_sort_reference(
            shape in (1usize..=MAX_ROWS, 1usize..=MAX_FEATURES),
            cells in prop::collection::vec(value(), MAX_ROWS * MAX_FEATURES),
            constant in prop::collection::vec(prop_oneof![Just(false), Just(false), Just(true)], MAX_FEATURES),
            ys in prop::collection::vec(target(), MAX_ROWS),
            signs in prop::collection::vec(-1i8..=1, MAX_FEATURES),
            knobs in (1usize..=4, 1usize..=4, 1usize..=4, 0u8..4),
        ) {
            let (n, n_features) = shape;
            let (min_leaf, max_depth, rounds, unconstrained) = knobs;
            let xs = rows(n, n_features, &cells, &constant);
            let params = GbtParams {
                rounds,
                max_depth,
                shrinkage: 0.3,
                min_leaf,
                monotone: monotone_of(&signs, n_features, unconstrained == 0),
            };
            let fast = Gbt::fit(&xs, &ys[..n], &params);
            let reference = reference::fit(&xs, &ys[..n], &params);
            // `Debug` prints every float exactly (and tells -0.0 from 0.0).
            prop_assert_eq!(format!("{fast:?}"), format!("{reference:?}"));
        }

        #[test]
        fn presorted_split_equals_the_reference_split_on_every_node(
            shape in (1usize..=MAX_ROWS, 1usize..=MAX_FEATURES),
            cells in prop::collection::vec(value(), MAX_ROWS * MAX_FEATURES),
            constant in prop::collection::vec(prop_oneof![Just(false), Just(false), Just(true)], MAX_FEATURES),
            residuals in prop::collection::vec(target(), MAX_ROWS),
            members in prop::collection::vec(0u8..3, MAX_ROWS),
            signs in prop::collection::vec(-1i8..=1, MAX_FEATURES),
            min_leaf in 1usize..=4,
        ) {
            let (n, n_features) = shape;
            let xs = rows(n, n_features, &cells, &constant);
            let params = GbtParams {
                min_leaf,
                monotone: monotone_of(&signs, n_features, false),
                ..GbtParams::default()
            };
            // A node's members, in index order, and its orders filtered
            // out of the whole fit's presort, as `Grower::grow` keeps them.
            let samples: Vec<usize> = (0..n).filter(|&i| members[i] > 0).collect();
            prop_assume!(!samples.is_empty());
            let cols = columns(&xs);
            let (features, all_orders) = presort(&cols, n);
            let orders = all_orders.into_iter().filter(|&i| members[i] > 0).collect();
            let grower = Grower {
                cols: &cols,
                residuals: &residuals[..n],
                params: &params,
                features: &features,
                goes_left: vec![false; n],
                nodes: Vec::new(),
            };
            let fast = grower.best_split(&NodeSet { samples: samples.clone(), orders });
            let reference = reference::best_split(&xs, &residuals[..n], &samples, &params);
            let bits = |s: &Option<SplitChoice>| {
                s.as_ref().map(|s| {
                    (
                        s.feature,
                        s.threshold.to_bits(),
                        s.gain.to_bits(),
                        s.left_mean.to_bits(),
                        s.right_mean.to_bits(),
                    )
                })
            };
            prop_assert_eq!(bits(&fast), bits(&reference));
        }
    }

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
