//! Random forests — the paper's model family (§III: "The models generator
//! trains a random forest classifier for each time span").
//!
//! Bagged CART trees with feature subsampling. The forest's
//! [`ModelHints::Thresholds`] aggregate every split threshold across all
//! trees, which is exactly the structure the candidates generator's
//! tree-heuristic exploits.

use crate::dataset::Dataset;
use crate::model::{Model, ModelHints};
use crate::tree::{DatasetPresort, DecisionTree, DecisionTreeParams};
use jit_math::rng::Rng;
use jit_runtime::{fork_streams, Runtime};

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
        let mut per_feature = vec![Vec::new(); self.dim];
        for tree in &self.trees {
            for (f, t) in tree.split_thresholds() {
                per_feature[f].push(t);
            }
        }
        for ts in &mut per_feature {
            ts.sort_by(|a, b| a.partial_cmp(b).expect("finite thresholds"));
            ts.dedup();
        }
        ModelHints::Thresholds(per_feature)
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
            ModelHints::Thresholds(per_feature) => {
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
