//! Random forests — the paper's model family (§III: "The models generator
//! trains a random forest classifier for each time span").
//!
//! Bagged CART trees with feature subsampling. The forest's
//! [`ModelHints::Thresholds`] aggregate every split threshold across all
//! trees, which is exactly the structure the candidates generator's
//! tree-heuristic exploits, and carry the forest compiled against those
//! thresholds ([`CompiledForest`]), which scores a profile's threshold
//! cells instead of the profile.

use crate::dataset::Dataset;
use crate::model::{Model, ModelHints};
use crate::tree::{
    sorted_thresholds, DatasetPresort, DecisionTree, DecisionTreeParams, LEAF,
};
use jit_math::rng::Rng;
use jit_runtime::{fork_streams, Runtime};
use std::sync::Arc;

/// Hyperparameters for [`RandomForest::fit`].
#[derive(Clone, Debug)]
pub struct RandomForestParams {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Minimum leaf weight per tree.
    pub min_leaf_weight: f64,
    /// Features examined per split; `None` = floor(sqrt(d)).max(1).
    pub feature_subsample: Option<usize>,
    /// Worker threads for tree training: `0` = one per core, `1` = serial.
    /// Results are bit-identical for every value (see `jit-runtime`).
    pub threads: usize,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams {
            n_trees: 50,
            max_depth: 8,
            min_leaf_weight: 2.0,
            feature_subsample: None,
            threads: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    dim: usize,
}

impl RandomForest {
    /// Fits `params.n_trees` trees, each on a bootstrap resample of `data`.
    ///
    /// Weighted datasets resample weight-proportionally, which is how
    /// `jit-temporal` trains future models on herded pseudo-samples.
    ///
    /// Trees train in parallel on `params.threads` workers. Each tree's
    /// RNG stream is forked from `rng` *before* dispatch, so the fitted
    /// forest is bit-identical for every thread count (including serial).
    ///
    /// # Panics
    /// Panics on an empty dataset or zero trees.
    pub fn fit(data: &Dataset, params: &RandomForestParams, rng: &mut Rng) -> Self {
        assert!(!data.is_empty(), "cannot fit forest on empty dataset");
        assert!(params.n_trees > 0, "forest needs at least one tree");
        let d = data.dim();
        let mtry = params
            .feature_subsample
            .unwrap_or_else(|| ((d as f64).sqrt().floor() as usize).max(1));
        let tree_params = DecisionTreeParams {
            max_depth: params.max_depth,
            min_leaf_weight: params.min_leaf_weight,
            feature_subsample: Some(mtry.min(d)),
        };
        let streams = fork_streams(rng, params.n_trees);
        let runtime = Runtime::new(params.threads);
        // Uniform (unweighted) bootstraps share one dataset-level presort
        // across all trees; each tree derives its root sort order from it
        // instead of re-sorting every feature. The uniformity predicate
        // and the per-draw RNG consumption replicate
        // `Dataset::bootstrap`'s uniform branch exactly, so the fitted
        // forest is bit-identical to the view-based path.
        let uniform = data.weights().iter().all(|w| (*w - 1.0).abs() < 1e-12);
        let trees = if uniform {
            let n = data.len();
            let presort = DatasetPresort::new(data);
            runtime.parallel_map(params.n_trees, |i| {
                let mut tree_rng = streams[i].clone();
                let indices: Vec<u32> =
                    (0..n).map(|_| tree_rng.below(n) as u32).collect();
                DecisionTree::fit_bootstrap(
                    &presort,
                    &indices,
                    &tree_params,
                    &mut tree_rng,
                )
            })
        } else {
            runtime.parallel_map(params.n_trees, |i| {
                let mut tree_rng = streams[i].clone();
                let sample = data.bootstrap(&mut tree_rng);
                DecisionTree::fit(&sample, &tree_params, &mut tree_rng)
            })
        };
        RandomForest { trees, dim: d }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Borrow of the fitted trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}

impl Model for RandomForest {
    fn dim(&self) -> usize {
        self.dim
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba_unchecked(x)).sum();
        sum / self.trees.len() as f64
    }

    fn hints(&self) -> ModelHints {
        let per_feature = sorted_thresholds(self.dim, &self.trees);
        let forest = CompiledForest::compile(&self.trees, &per_feature).map(Arc::new);
        ModelHints::Thresholds { per_feature, forest }
    }

    fn fingerprint(&self) -> Option<jit_math::Digest> {
        // Every prediction and hint is a pure function of the tree list
        // (in order) and the dimension; digest exactly those.
        let mut w = jit_math::DigestWriter::new("jit-ml/forest");
        w.write_usize(self.dim);
        w.write_usize(self.trees.len());
        for tree in &self.trees {
            tree.digest_into(&mut w);
        }
        Some(w.finish())
    }
}

/// A random forest compiled to score a profile's **threshold cells**
/// rather than the profile: the evaluator [`ModelHints::Thresholds`]
/// carries next to the threshold lists it was compiled against.
///
/// *Why it is exact.* Every split tests `x[f] <= τ`. Let `cell[f]` be
/// the count of `per_feature[f]` entries strictly below `x[f]`, and let
/// `τ` sit at index `r` of that sorted, deduplicated list. Then the
/// test equals `cell[f] <= r`: if `x[f] <= τ`, every threshold below
/// `x[f]` is below `τ` and so has an index `< r`; if `x[f] > τ`, the
/// entries `0..=r` are all below `x[f]`. This holds for every non-NaN
/// value, ±0.0 and ±inf included, so [`CompiledForest::predict_cells`]
/// walks every tree to the leaf `predict_proba` reaches. NaN is outside
/// the domain: its cell is 0, yet it goes right at every split. Callers
/// score finite profiles only.
///
/// *Layout.* All trees' internal nodes sit back to back in one array of
/// 8-byte `[u16; 4]` = (feature, rank, left, right) entries; a child is
/// an index into its tree's own nodes or, with the top bit set, into its
/// tree's run of one per-forest leaf table. Each tree keeps its node
/// base, leaf base and root. Scoring sums the leaves in tree order with
/// the same iterator `sum`, and divides by the same tree count as
/// [`RandomForest::predict_proba`], so every score keeps its bits.
///
/// A forest that does not fit 16-bit fields — a feature index or rank
/// of 65,535 or more, or a tree with 32,768 or more internal nodes or
/// leaves — does not compile, and callers keep `predict_proba`.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledForest {
    /// Every tree's internal nodes: (feature, rank, left, right).
    nodes: Vec<[u16; 4]>,
    /// Every tree's leaf values.
    leaves: Vec<f64>,
    /// Per tree, in the forest's order.
    trees: Vec<CompiledTree>,
}

/// Where one tree of a [`CompiledForest`] lives.
#[derive(Clone, Copy, Debug, PartialEq)]
struct CompiledTree {
    /// Index of the tree's first internal node.
    nodes: u32,
    /// Index of the tree's first leaf.
    leaves: u32,
    /// The root, as a child reference (a one-leaf tree's root is a leaf).
    root: u16,
}

/// Marks a child reference as a leaf index.
const LEAF_BIT: u16 = 0x8000;

impl CompiledForest {
    /// Compiles `trees` against `per_feature`, the lists
    /// [`sorted_thresholds`] builds from them; `None` when a field does
    /// not fit 16 bits (never truncated) or a split threshold is missing
    /// from its list.
    fn compile(trees: &[DecisionTree], per_feature: &[Vec<f64>]) -> Option<Self> {
        let mut nodes: Vec<[u16; 4]> = Vec::new();
        let mut leaves = Vec::new();
        let mut compiled = Vec::with_capacity(trees.len());
        let mut refs = Vec::new();
        for tree in trees {
            let flat = tree.flat_nodes();
            // Number internal nodes and leaves apart, in storage order.
            refs.clear();
            let (mut n_nodes, mut n_leaves) = (0u16, 0u16);
            for node in flat {
                let counter =
                    if node.feature == LEAF { &mut n_leaves } else { &mut n_nodes };
                if *counter >= LEAF_BIT {
                    return None;
                }
                refs.push(if node.feature == LEAF {
                    *counter | LEAF_BIT
                } else {
                    *counter
                });
                *counter += 1;
            }
            compiled.push(CompiledTree {
                nodes: u32::try_from(nodes.len()).ok()?,
                leaves: u32::try_from(leaves.len()).ok()?,
                root: *refs.first()?,
            });
            for node in flat {
                if node.feature == LEAF {
                    leaves.push(node.threshold);
                    continue;
                }
                let list = per_feature.get(node.feature as usize)?;
                let rank = list.partition_point(|t| *t < node.threshold);
                if list.get(rank) != Some(&node.threshold) {
                    return None;
                }
                nodes.push([
                    u16::try_from(node.feature).ok().filter(|&f| f != u16::MAX)?,
                    u16::try_from(rank).ok().filter(|&r| r != u16::MAX)?,
                    refs[node.left as usize],
                    refs[node.right as usize],
                ]);
            }
        }
        Some(CompiledForest { nodes, leaves, trees: compiled })
    }

    /// The forest's score for any finite profile whose threshold cells
    /// are `cells` — bit-identical to [`RandomForest::predict_proba`] on
    /// that profile.
    ///
    /// # Panics
    /// Panics when `cells` is shorter than the forest's dimension.
    pub fn predict_cells(&self, cells: &[u32]) -> f64 {
        let sum: f64 = self.trees.iter().map(|tree| self.leaf(tree, cells)).sum();
        sum / self.trees.len() as f64
    }

    /// The leaf value `tree` reaches for `cells`.
    #[inline]
    fn leaf(&self, tree: &CompiledTree, cells: &[u32]) -> f64 {
        let nodes = &self.nodes[tree.nodes as usize..];
        let mut at = tree.root;
        while at & LEAF_BIT == 0 {
            let [feature, rank, left, right] = nodes[usize::from(at)];
            at = if cells[usize::from(feature)] <= u32::from(rank) {
                left
            } else {
                right
            };
        }
        self.leaves[tree.leaves as usize + usize::from(at & !LEAF_BIT)]
    }

    /// Number of compiled trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_data(n: usize, rng: &mut Rng) -> Dataset {
        // Positive inside the unit disc, negative outside radius 2 ring.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let inside = rng.bernoulli(0.5);
            let (r_lo, r_hi) = if inside { (0.0, 1.0) } else { (1.5, 2.5) };
            let r = rng.uniform(r_lo, r_hi);
            let th = rng.uniform(0.0, std::f64::consts::TAU);
            rows.push(vec![r * th.cos(), r * th.sin()]);
            labels.push(inside);
        }
        Dataset::from_rows(rows, labels)
    }

    #[test]
    fn forest_beats_chance_on_nonlinear_data() {
        let mut rng = Rng::seeded(1);
        let train = ring_data(400, &mut rng);
        let test = ring_data(200, &mut rng);
        let params = RandomForestParams { n_trees: 30, ..Default::default() };
        let f = RandomForest::fit(&train, &params, &mut rng);
        let mut correct = 0;
        for (row, label, _) in test.iter() {
            if (f.predict_proba(row) > 0.5) == label {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.9, "forest accuracy {acc} too low");
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let mut rng = Rng::seeded(2);
        let d = ring_data(100, &mut rng);
        let f = RandomForest::fit(&d, &RandomForestParams::default(), &mut rng);
        for (row, _, _) in d.iter() {
            let p = f.predict_proba(row);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng_data = Rng::seeded(3);
        let d = ring_data(100, &mut rng_data);
        let params = RandomForestParams { n_trees: 10, ..Default::default() };
        let f1 = RandomForest::fit(&d, &params, &mut Rng::seeded(4));
        let f2 = RandomForest::fit(&d, &params, &mut Rng::seeded(4));
        for (row, _, _) in d.iter() {
            assert_eq!(f1.predict_proba(row), f2.predict_proba(row));
        }
    }

    #[test]
    fn hints_collect_all_tree_thresholds() {
        let mut rng = Rng::seeded(5);
        let d = ring_data(100, &mut rng);
        let params = RandomForestParams { n_trees: 5, ..Default::default() };
        let f = RandomForest::fit(&d, &params, &mut rng);
        let total_splits: usize =
            f.trees().iter().map(|t| t.split_thresholds().len()).sum();
        match f.hints() {
            ModelHints::Thresholds { per_feature, .. } => {
                let n: usize = per_feature.iter().map(Vec::len).sum();
                assert!(n > 0);
                assert!(n <= total_splits, "dedup can only shrink");
                for ts in per_feature {
                    for w in ts.windows(2) {
                        assert!(w[0] < w[1]);
                    }
                }
            }
            _ => panic!("forest must expose threshold hints"),
        }
    }

    #[test]
    fn uniform_presort_path_matches_view_path() {
        use crate::tree::DecisionTreeParams;
        use jit_runtime::fork_streams;
        let mut rng_data = Rng::seeded(11);
        let d = ring_data(120, &mut rng_data);
        let params =
            RandomForestParams { n_trees: 8, threads: 1, ..Default::default() };
        let forest = RandomForest::fit(&d, &params, &mut Rng::seeded(42));
        // Reference: the pre-presort implementation — per-tree bootstrap
        // views with per-tree feature sorts.
        let mtry = ((d.dim() as f64).sqrt().floor() as usize).max(1);
        let tree_params = DecisionTreeParams {
            max_depth: params.max_depth,
            min_leaf_weight: params.min_leaf_weight,
            feature_subsample: Some(mtry),
        };
        let mut rng = Rng::seeded(42);
        let streams = fork_streams(&mut rng, params.n_trees);
        let reference: Vec<DecisionTree> = (0..params.n_trees)
            .map(|i| {
                let mut tree_rng = streams[i].clone();
                let sample = d.bootstrap(&mut tree_rng);
                DecisionTree::fit(&sample, &tree_params, &mut tree_rng)
            })
            .collect();
        for (a, b) in forest.trees().iter().zip(&reference) {
            assert_eq!(a.split_thresholds(), b.split_thresholds());
        }
        for (row, _, _) in d.iter() {
            let ref_pred: f64 =
                reference.iter().map(|t| t.predict_proba(row)).sum::<f64>()
                    / reference.len() as f64;
            assert_eq!(forest.predict_proba(row), ref_pred);
        }
    }

    #[test]
    fn compile_declines_what_16_bits_cannot_hold() {
        let mut rng = Rng::seeded(12);
        let d = ring_data(120, &mut rng);
        let params =
            RandomForestParams { n_trees: 3, threads: 1, ..Default::default() };
        let f = RandomForest::fit(&d, &params, &mut rng);
        let per_feature = sorted_thresholds(f.dim, &f.trees);
        let compiled = CompiledForest::compile(&f.trees, &per_feature).unwrap();
        assert_eq!(compiled.n_trees(), 3);
        // A split threshold missing from its list has no rank.
        let mut missing = per_feature.clone();
        missing[0].remove(0);
        assert_eq!(CompiledForest::compile(&f.trees, &missing), None);
        // Thresholds padded in below the splits raise their ranks: the top
        // split's rank fits at 65,534 and is declined at 65,535.
        let mut crowded = per_feature.clone();
        let low = crowded[0][0] - 1.0;
        let pad: Vec<f64> =
            (0..65_535 - crowded[0].len()).map(|i| low - i as f64).rev().collect();
        crowded[0].splice(0..0, pad);
        assert!(CompiledForest::compile(&f.trees, &crowded).is_some());
        crowded[0].insert(0, low - 70_000.0);
        assert_eq!(CompiledForest::compile(&f.trees, &crowded), None);
    }

    #[test]
    fn single_leaf_trees_compile_to_their_root_leaf() {
        let mut rng = Rng::seeded(13);
        let d = ring_data(60, &mut rng);
        let params =
            RandomForestParams { n_trees: 5, max_depth: 0, ..Default::default() };
        let f = RandomForest::fit(&d, &params, &mut rng);
        let ModelHints::Thresholds { per_feature, forest: Some(forest) } = f.hints()
        else {
            panic!("a forest's hints carry its compiled evaluator");
        };
        assert!(per_feature.iter().all(Vec::is_empty));
        let p = forest.predict_cells(&[0, 0]);
        assert_eq!(p.to_bits(), f.predict_proba(&[0.3, -2.0]).to_bits());
    }

    #[test]
    fn n_trees_respected() {
        let mut rng = Rng::seeded(7);
        let d = ring_data(50, &mut rng);
        let params = RandomForestParams { n_trees: 7, ..Default::default() };
        let f = RandomForest::fit(&d, &params, &mut rng);
        assert_eq!(f.n_trees(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let mut rng = Rng::seeded(8);
        let d = ring_data(10, &mut rng);
        let params = RandomForestParams { n_trees: 0, ..Default::default() };
        RandomForest::fit(&d, &params, &mut rng);
    }
}
