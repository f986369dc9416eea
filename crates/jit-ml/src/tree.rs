//! CART decision trees with weighted Gini impurity.
//!
//! Besides prediction, trees expose their **split thresholds** per feature:
//! the model-dependent heuristic of the candidates generator (Deutch &
//! Frost '19, as adapted in the JustInTime paper §II-A) proposes moves that
//! nudge a feature *just across* one of these thresholds, because between
//! thresholds a tree ensemble's output is piecewise constant.

use crate::dataset::Dataset;
use crate::model::{Model, ModelHints};
use jit_math::rng::Rng;

/// Hyperparameters for [`DecisionTree::fit`].
#[derive(Clone, Debug)]
pub struct DecisionTreeParams {
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum total example weight a leaf may hold.
    pub min_leaf_weight: f64,
    /// Number of features examined per split; `None` means all features.
    /// Random forests pass `sqrt(d)` here.
    pub feature_subsample: Option<usize>,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams {
            max_depth: 8,
            min_leaf_weight: 2.0,
            feature_subsample: None,
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        /// Weighted positive fraction of the training examples in the leaf.
        prob: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the child taken when `x[feature] <= threshold`.
        left: usize,
        /// Index of the child taken when `x[feature] > threshold`.
        right: usize,
    },
}

/// One flat tree node: 24 packed bytes, so a prediction step touches a
/// single cache line instead of one line per parallel array.
///
/// `feature == LEAF` marks a leaf whose probability sits in `threshold`;
/// otherwise `threshold` is the split value and `left`/`right` the child
/// node indices.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlatNode {
    pub(crate) threshold: f64,
    pub(crate) feature: u32,
    pub(crate) left: u32,
    pub(crate) right: u32,
}

/// Sentinel in [`FlatNode::feature`] marking a leaf node.
pub(crate) const LEAF: u32 = u32::MAX;

/// Per feature, the split thresholds of `trees` sorted ascending and
/// deduplicated: the one definition of the lists
/// [`ModelHints::Thresholds`] carries, so a compiled forest ranks its
/// splits in exactly the lists the search counts cells against.
pub(crate) fn sorted_thresholds<'a>(
    dim: usize,
    trees: impl IntoIterator<Item = &'a DecisionTree>,
) -> Vec<Vec<f64>> {
    let mut per_feature = vec![Vec::new(); dim];
    for tree in trees {
        for node in tree.nodes.iter().filter(|n| n.feature != LEAF) {
            per_feature[node.feature as usize].push(node.threshold);
        }
    }
    for ts in &mut per_feature {
        ts.sort_by(|a, b| a.partial_cmp(b).expect("finite thresholds"));
        ts.dedup();
    }
    per_feature
}

/// A fitted CART binary classifier.
///
/// Nodes are stored flat in build (pre-)order; the prediction loop is the
/// single hottest operation of the candidates search (thousands of calls
/// per user session), and the dense `FlatNode` layout keeps it to one
/// array read per level with no enum discriminants. (A branch-free
/// fixed-depth descent was tried and measured slower: most paths exit
/// well above the maximum depth.)
#[derive(Clone, Debug)]
pub struct DecisionTree {
    nodes: Vec<FlatNode>,
    dim: usize,
}

struct Builder<'a> {
    params: &'a DecisionTreeParams,
    nodes: Vec<Node>,
    rng: Rng,
    /// Per-example weights, copied out of the dataset once.
    weights: Vec<f64>,
    /// Per-example labels, copied out of the dataset once.
    labels: Vec<bool>,
    /// Column-major feature values: `cols[f][i]` is feature `f` of
    /// example `i`. Transposed once per tree so split scans are
    /// cache-linear.
    cols: Vec<Vec<f64>>,
    /// Scratch: which side of the current split each example fell on.
    goes_left: Vec<bool>,
}

/// A node's working set: its member examples plus, per feature, the same
/// members in ascending feature-value order.
///
/// Each feature column is sorted **once per tree** at the root; recursion
/// partitions the sorted lists stably, so every node sees presorted
/// columns without re-sorting (`O(n·d)` per node instead of
/// `O(k·n log n)`).
struct NodeSet {
    /// Member example ids in ascending id order (the summation order, kept
    /// stable so impurity accumulation is reproducible).
    members: Vec<u32>,
    /// Per feature: member ids in ascending feature-value order.
    sorted: Vec<Vec<u32>>,
}

/// Weighted Gini impurity of a (pos_weight, total_weight) split side.
fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

impl<'a> Builder<'a> {
    fn new(data: &Dataset, params: &'a DecisionTreeParams, rng: Rng) -> Self {
        let n = data.len();
        let d = data.dim();
        let mut cols = vec![Vec::with_capacity(n); d];
        for row in data.rows() {
            for (f, &v) in row.iter().enumerate() {
                cols[f].push(v);
            }
        }
        Builder {
            params,
            nodes: Vec::new(),
            rng,
            weights: data.weights().to_vec(),
            labels: data.labels().to_vec(),
            cols,
            goes_left: vec![false; n],
        }
    }

    /// Builder over the bootstrap sample `indices` of a presorted parent:
    /// columns and labels are gathered from the parent, weights are the
    /// unit weights a realized bootstrap carries.
    fn from_bootstrap(
        presort: &DatasetPresort,
        indices: &[u32],
        params: &'a DecisionTreeParams,
        rng: Rng,
    ) -> Self {
        let n = indices.len();
        let cols = presort
            .cols
            .iter()
            .map(|pc| indices.iter().map(|&i| pc[i as usize]).collect())
            .collect();
        let labels = indices.iter().map(|&i| presort.labels[i as usize]).collect();
        Builder {
            params,
            nodes: Vec::new(),
            rng,
            weights: vec![1.0; n],
            labels,
            cols,
            goes_left: vec![false; n],
        }
    }

    /// Derives the root [`NodeSet`] of a bootstrap sample from the parent
    /// presort: members are counting-sorted into per-parent-row buckets
    /// (ascending member id within a bucket), then emitted in the
    /// parent's per-feature value order — `O(n)` per feature instead of
    /// an `O(n log n)` sort.
    fn bootstrap_root_set(&self, presort: &DatasetPresort, indices: &[u32]) -> NodeSet {
        let n = indices.len();
        let parent_n = presort.len();
        let members: Vec<u32> = (0..n as u32).collect();
        let mut start = vec![0u32; parent_n + 1];
        for &pr in indices {
            start[pr as usize + 1] += 1;
        }
        for i in 0..parent_n {
            start[i + 1] += start[i];
        }
        let mut grouped = vec![0u32; n];
        let mut cursor = start.clone();
        for (m, &pr) in indices.iter().enumerate() {
            let c = &mut cursor[pr as usize];
            grouped[*c as usize] = m as u32;
            *c += 1;
        }
        let sorted = presort
            .sorted
            .iter()
            .map(|parent_order| {
                let mut order = Vec::with_capacity(n);
                for &pr in parent_order {
                    let lo = start[pr as usize] as usize;
                    let hi = start[pr as usize + 1] as usize;
                    order.extend_from_slice(&grouped[lo..hi]);
                }
                order
            })
            .collect();
        NodeSet { members, sorted }
    }

    fn root_set(&self) -> NodeSet {
        let n = self.weights.len();
        let members: Vec<u32> = (0..n as u32).collect();
        let sorted = self
            .cols
            .iter()
            .map(|col| {
                let mut order = members.clone();
                // Stable: ties keep ascending id order, like the previous
                // per-node stable sort over id-ordered gathers.
                order.sort_by(|&a, &b| {
                    col[a as usize]
                        .partial_cmp(&col[b as usize])
                        .expect("no NaN features")
                });
                order
            })
            .collect();
        NodeSet { members, sorted }
    }

    /// Finds the best split of the node over a feature subsample; returns
    /// `(feature, threshold, impurity_decrease)`.
    fn best_split(&mut self, set: &NodeSet) -> Option<(usize, f64, f64)> {
        let d = self.cols.len();

        let mut total_w = 0.0;
        let mut total_pos = 0.0;
        for &i in &set.members {
            let w = self.weights[i as usize];
            total_w += w;
            if self.labels[i as usize] {
                total_pos += w;
            }
        }
        if total_w <= 0.0 {
            return None;
        }
        let parent_impurity = gini(total_pos, total_w);
        if parent_impurity == 0.0 {
            return None; // already pure
        }

        let features: Vec<usize> = match self.params.feature_subsample {
            Some(k) if k < d => self.rng.sample_indices(d, k.max(1)),
            _ => (0..d).collect(),
        };

        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &features {
            let order = &set.sorted[f];
            let col = &self.cols[f];
            let mut left_w = 0.0;
            let mut left_pos = 0.0;
            for w in 0..order.len().saturating_sub(1) {
                let i = order[w] as usize;
                left_w += self.weights[i];
                if self.labels[i] {
                    left_pos += self.weights[i];
                }
                let v = col[i];
                let v_next = col[order[w + 1] as usize];
                // Can't split between equal values.
                if v == v_next {
                    continue;
                }
                let right_w = total_w - left_w;
                let right_pos = total_pos - left_pos;
                if left_w < self.params.min_leaf_weight
                    || right_w < self.params.min_leaf_weight
                {
                    continue;
                }
                let weighted_child = (left_w * gini(left_pos, left_w)
                    + right_w * gini(right_pos, right_w))
                    / total_w;
                let decrease = parent_impurity - weighted_child;
                let threshold = 0.5 * (v + v_next);
                match best {
                    Some((_, _, bd)) if bd >= decrease => {}
                    _ => best = Some((f, threshold, decrease)),
                }
            }
        }
        // Zero-gain splits are allowed (mirroring sklearn): on XOR-shaped
        // data no single split improves Gini, yet children can become
        // separable. Termination still holds because a split always has
        // non-empty children and depth is bounded.
        best.filter(|(_, _, d)| *d >= 0.0)
    }

    /// Stably partitions a node's members and presorted columns by the
    /// chosen split, preserving both id order and per-feature value order.
    fn partition(
        &mut self,
        set: NodeSet,
        feature: usize,
        threshold: f64,
    ) -> (NodeSet, NodeSet) {
        let col = &self.cols[feature];
        for &i in &set.members {
            self.goes_left[i as usize] = col[i as usize] <= threshold;
        }
        let split_members = |ids: &[u32], goes_left: &[bool]| -> (Vec<u32>, Vec<u32>) {
            let mut left = Vec::new();
            let mut right = Vec::new();
            for &i in ids {
                if goes_left[i as usize] {
                    left.push(i);
                } else {
                    right.push(i);
                }
            }
            (left, right)
        };
        let (lm, rm) = split_members(&set.members, &self.goes_left);
        let mut ls = Vec::with_capacity(set.sorted.len());
        let mut rs = Vec::with_capacity(set.sorted.len());
        for order in &set.sorted {
            let (lo, ro) = split_members(order, &self.goes_left);
            ls.push(lo);
            rs.push(ro);
        }
        (NodeSet { members: lm, sorted: ls }, NodeSet { members: rm, sorted: rs })
    }

    fn build(&mut self, set: NodeSet, depth: usize) -> usize {
        let mut total_w = 0.0;
        let mut pos_w = 0.0;
        for &i in &set.members {
            let w = self.weights[i as usize];
            total_w += w;
            if self.labels[i as usize] {
                pos_w += w;
            }
        }
        let leaf_prob = if total_w > 0.0 { pos_w / total_w } else { 0.5 };

        if depth >= self.params.max_depth || set.members.len() < 2 {
            self.nodes.push(Node::Leaf { prob: leaf_prob });
            return self.nodes.len() - 1;
        }
        let Some((feature, threshold, _)) = self.best_split(&set) else {
            self.nodes.push(Node::Leaf { prob: leaf_prob });
            return self.nodes.len() - 1;
        };

        let (left_set, right_set) = self.partition(set, feature, threshold);
        debug_assert!(!left_set.members.is_empty() && !right_set.members.is_empty());

        // Reserve this node's slot before recursing so children line up.
        let my = self.nodes.len();
        self.nodes.push(Node::Leaf { prob: leaf_prob }); // placeholder
        let left = self.build(left_set, depth + 1);
        let right = self.build(right_set, depth + 1);
        self.nodes[my] = Node::Split { feature, threshold, left, right };
        my
    }
}

/// Column-major presort of a whole dataset, computed **once per forest**
/// and shared by every tree trained on uniform (unweighted) bootstraps of
/// that dataset.
///
/// Each tree's root sort order per feature is then *derived* from the
/// parent order by a counting sort over the bootstrap indices
/// (`O(n·d)`) instead of re-sorting every feature per tree
/// (`O(d·n log n)`). Ties between equal feature values may land in a
/// different relative order than a direct stable sort of the sample, but
/// split search only evaluates boundaries between *distinct* values and
/// uniform bootstraps carry exact unit weights, so the fitted tree is
/// bit-identical either way.
#[derive(Clone, Debug)]
pub struct DatasetPresort {
    /// Column-major feature values of the parent dataset.
    cols: Vec<Vec<f64>>,
    /// Per feature: parent row ids in ascending feature-value order
    /// (stable, ties by ascending row id).
    sorted: Vec<Vec<u32>>,
    /// Parent labels.
    labels: Vec<bool>,
}

impl DatasetPresort {
    /// Transposes and presorts `data` (one `O(d·n log n)` pass).
    ///
    /// # Panics
    /// Panics on an empty dataset or one too large for `u32` row ids.
    pub fn new(data: &Dataset) -> Self {
        assert!(!data.is_empty(), "cannot presort an empty dataset");
        let n = data.len();
        assert!(u32::try_from(n).is_ok(), "dataset too large for tree ids");
        let d = data.dim();
        let mut cols = vec![Vec::with_capacity(n); d];
        for row in data.rows() {
            for (f, &v) in row.iter().enumerate() {
                cols[f].push(v);
            }
        }
        let ids: Vec<u32> = (0..n as u32).collect();
        let sorted = cols
            .iter()
            .map(|col| {
                let mut order = ids.clone();
                order.sort_by(|&a, &b| {
                    col[a as usize]
                        .partial_cmp(&col[b as usize])
                        .expect("no NaN features")
                });
                order
            })
            .collect();
        DatasetPresort { cols, sorted, labels: data.labels().to_vec() }
    }

    /// Number of parent rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the presort covers no rows (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.cols.len()
    }
}

impl DecisionTree {
    /// Fits a tree on `data`.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, params: &DecisionTreeParams, rng: &mut Rng) -> Self {
        assert!(!data.is_empty(), "cannot fit tree on empty dataset");
        assert!(u32::try_from(data.len()).is_ok(), "dataset too large for tree ids");
        let builder = Builder::new(data, params, rng.fork());
        let root_set = builder.root_set();
        Self::finish(builder, root_set, data.dim())
    }

    /// Fits a tree on the bootstrap sample `indices` of a presorted
    /// parent dataset, deriving the root sort order from the shared
    /// [`DatasetPresort`] instead of re-sorting per tree.
    ///
    /// Exactly equivalent to `DecisionTree::fit(&parent.bootstrap(rng),
    /// ..)` for a *uniform-weight* parent (unit example weights are
    /// materialized, as `bootstrap` realizes its draws to weight 1); the
    /// RNG is consumed identically to `fit` (one fork).
    ///
    /// # Panics
    /// Panics when `indices` is empty or references rows outside the
    /// presorted parent.
    pub fn fit_bootstrap(
        presort: &DatasetPresort,
        indices: &[u32],
        params: &DecisionTreeParams,
        rng: &mut Rng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit tree on empty bootstrap");
        let builder = Builder::from_bootstrap(presort, indices, params, rng.fork());
        let root_set = builder.bootstrap_root_set(presort, indices);
        Self::finish(builder, root_set, presort.dim())
    }

    fn finish(mut builder: Builder<'_>, root_set: NodeSet, dim: usize) -> Self {
        let root = builder.build(root_set, 0);
        debug_assert_eq!(root, 0);
        Self::flatten(&builder.nodes, dim)
    }

    /// Converts the builder's node list into the flat layout.
    fn flatten(nodes: &[Node], dim: usize) -> Self {
        let flat = nodes
            .iter()
            .map(|node| match node {
                Node::Leaf { prob } => {
                    FlatNode { threshold: *prob, feature: LEAF, left: 0, right: 0 }
                }
                Node::Split { feature, threshold, left, right } => FlatNode {
                    threshold: *threshold,
                    feature: *feature as u32,
                    left: *left as u32,
                    right: *right as u32,
                },
            })
            .collect();
        DecisionTree { nodes: flat, dim }
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[FlatNode], i: usize) -> usize {
            let n = &nodes[i];
            if n.feature == LEAF {
                0
            } else {
                1 + rec(nodes, n.left as usize).max(rec(nodes, n.right as usize))
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// The flat nodes in storage (pre-)order; the root is node 0.
    pub(crate) fn flat_nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// Collects every `(feature, threshold)` split used by the tree.
    pub fn split_thresholds(&self) -> Vec<(usize, f64)> {
        self.nodes
            .iter()
            .filter(|n| n.feature != LEAF)
            .map(|n| (n.feature as usize, n.threshold))
            .collect()
    }

    /// [`Model::predict_proba`] without the per-call dimension assert —
    /// the forest checks once and then walks all its trees through here.
    #[inline]
    pub(crate) fn predict_proba_unchecked(&self, x: &[f64]) -> f64 {
        let nodes = &self.nodes[..];
        let mut node = &nodes[0];
        loop {
            let f = node.feature;
            if f == LEAF {
                return node.threshold;
            }
            node = if x[f as usize] <= node.threshold {
                &nodes[node.left as usize]
            } else {
                &nodes[node.right as usize]
            };
        }
    }
}

impl DecisionTree {
    /// Folds the tree's full fitted content — dimension and every flat
    /// node, in storage order — into `w`. Together with the flat layout
    /// this captures everything `predict_proba` / `hints` can observe,
    /// which is what the [`Model::fingerprint`] contract requires.
    pub fn digest_into(&self, w: &mut jit_math::DigestWriter) {
        w.write_usize(self.dim);
        w.write_usize(self.nodes.len());
        for n in &self.nodes {
            w.write_f64(n.threshold);
            w.write_u64(u64::from(n.feature) | (u64::from(n.left) << 32));
            w.write_u64(u64::from(n.right));
        }
    }
}

impl Model for DecisionTree {
    fn dim(&self) -> usize {
        self.dim
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        self.predict_proba_unchecked(x)
    }

    /// The tree's thresholds, without a compiled evaluator: a lone tree
    /// is one walk either way.
    fn hints(&self) -> ModelHints {
        ModelHints::Thresholds {
            per_feature: sorted_thresholds(self.dim, [self]),
            forest: None,
        }
    }

    fn fingerprint(&self) -> Option<jit_math::Digest> {
        let mut w = jit_math::DigestWriter::new("jit-ml/tree");
        self.digest_into(&mut w);
        Some(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable toy data: positive iff x0 > 5.
    fn separable(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 0.0]).collect();
        let labels: Vec<bool> = (0..n).map(|i| i as f64 > 5.0).collect();
        Dataset::from_rows(rows, labels)
    }

    #[test]
    fn learns_separable_boundary() {
        let d = separable(20);
        let mut rng = Rng::seeded(1);
        let t = DecisionTree::fit(&d, &DecisionTreeParams::default(), &mut rng);
        assert!(t.predict_proba(&[0.0, 0.0]) < 0.5);
        assert!(t.predict_proba(&[19.0, 0.0]) > 0.5);
        // The single needed split is near 5.5.
        let ths = t.split_thresholds();
        assert!(ths.iter().any(|(f, th)| *f == 0 && (*th - 5.5).abs() < 1.0));
    }

    #[test]
    fn pure_dataset_is_single_leaf() {
        let d = Dataset::from_rows(vec![vec![1.0], vec![2.0]], vec![true, true]);
        let mut rng = Rng::seeded(2);
        let t = DecisionTree::fit(&d, &DecisionTreeParams::default(), &mut rng);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict_proba(&[5.0]), 1.0);
    }

    #[test]
    fn max_depth_zero_gives_prior() {
        let d = separable(20);
        let params = DecisionTreeParams { max_depth: 0, ..Default::default() };
        let mut rng = Rng::seeded(3);
        let t = DecisionTree::fit(&d, &params, &mut rng);
        assert_eq!(t.node_count(), 1);
        let prior = d.positive_rate();
        assert!((t.predict_proba(&[0.0, 0.0]) - prior).abs() < 1e-12);
    }

    #[test]
    fn respects_min_leaf_weight() {
        let d = separable(20);
        let params = DecisionTreeParams {
            min_leaf_weight: 100.0, // impossible: forces a leaf
            ..Default::default()
        };
        let mut rng = Rng::seeded(4);
        let t = DecisionTree::fit(&d, &params, &mut rng);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn xor_needs_depth_two() {
        // XOR of signs: not linearly separable, needs two levels.
        let rows = vec![
            vec![-1.0, -1.0],
            vec![-1.0, 1.0],
            vec![1.0, -1.0],
            vec![1.0, 1.0],
            vec![-2.0, -2.0],
            vec![-2.0, 2.0],
            vec![2.0, -2.0],
            vec![2.0, 2.0],
        ];
        let labels = vec![false, true, true, false, false, true, true, false];
        let d = Dataset::from_rows(rows, labels);
        // Zero-gain splits near the root consume depth before the
        // informative ones, so give the tree slack beyond the minimal 2.
        let params = DecisionTreeParams {
            max_depth: 6,
            min_leaf_weight: 1.0,
            feature_subsample: None,
        };
        let mut rng = Rng::seeded(5);
        let t = DecisionTree::fit(&d, &params, &mut rng);
        assert!(t.predict_proba(&[-1.5, 1.5]) > 0.5);
        assert!(t.predict_proba(&[1.5, 1.5]) < 0.5);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn weights_shift_leaf_probability() {
        // Same point twice with conflicting labels: probability follows weight.
        let d = Dataset::from_weighted_rows(
            vec![vec![0.0], vec![0.0]],
            vec![true, false],
            vec![3.0, 1.0],
        );
        let mut rng = Rng::seeded(6);
        let t = DecisionTree::fit(&d, &DecisionTreeParams::default(), &mut rng);
        assert!((t.predict_proba(&[0.0]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hints_are_sorted_dedup_thresholds() {
        let d = separable(30);
        let mut rng = Rng::seeded(8);
        let t = DecisionTree::fit(&d, &DecisionTreeParams::default(), &mut rng);
        match t.hints() {
            ModelHints::Thresholds { per_feature, .. } => {
                assert_eq!(per_feature.len(), 2);
                for ts in &per_feature {
                    for w in ts.windows(2) {
                        assert!(w[0] < w[1], "thresholds must be sorted+dedup");
                    }
                }
            }
            _ => panic!("tree must expose threshold hints"),
        }
    }

    #[test]
    fn fit_bootstrap_matches_view_bootstrap_fit() {
        // Heavy value ties across distinct rows: the derived root order
        // may permute tied members, which must not change the tree.
        let rows: Vec<Vec<f64>> = (0..48)
            .map(|i| vec![(i % 4) as f64, ((i * 3) % 5) as f64, (i % 2) as f64])
            .collect();
        let labels: Vec<bool> = (0..48).map(|i| (i % 3) == 0).collect();
        let d = Dataset::from_rows(rows, labels);
        let presort = DatasetPresort::new(&d);
        let params = DecisionTreeParams {
            feature_subsample: Some(2),
            min_leaf_weight: 1.0,
            ..Default::default()
        };
        for seed in 0..12u64 {
            // Old path: bootstrap view + per-tree sort.
            let mut rng_a = Rng::seeded(seed);
            let sample = d.bootstrap(&mut rng_a);
            let ta = DecisionTree::fit(&sample, &params, &mut rng_a);
            // New path: shared presort + derived order, identical draws.
            let mut rng_b = Rng::seeded(seed);
            let indices: Vec<u32> =
                (0..d.len()).map(|_| rng_b.below(d.len()) as u32).collect();
            let tb =
                DecisionTree::fit_bootstrap(&presort, &indices, &params, &mut rng_b);
            assert_eq!(ta.node_count(), tb.node_count(), "seed {seed}");
            assert_eq!(ta.split_thresholds(), tb.split_thresholds(), "seed {seed}");
            for i in 0..16 {
                let x = vec![(i % 5) as f64 * 0.8, (i % 7) as f64 * 0.6, 0.5];
                assert_eq!(ta.predict_proba(&x), tb.predict_proba(&x));
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let d = separable(40);
        let params =
            DecisionTreeParams { feature_subsample: Some(1), ..Default::default() };
        let t1 = DecisionTree::fit(&d, &params, &mut Rng::seeded(9));
        let t2 = DecisionTree::fit(&d, &params, &mut Rng::seeded(9));
        for i in 0..40 {
            let x = [i as f64, 0.0];
            assert_eq!(t1.predict_proba(&x), t2.predict_proba(&x));
        }
    }
}
