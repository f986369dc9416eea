//! Weighted, labeled tabular datasets with zero-copy views.
//!
//! A [`Dataset`] holds feature rows in **one contiguous, row-major,
//! `Arc`-shared buffer** plus per-view labels and importance weights.
//! Weights matter here because future models in `jit-temporal` are trained
//! on *herded pseudo-samples* whose importance weights come from the
//! extrapolated distribution embedding.
//!
//! [`Dataset::subset`], [`Dataset::bootstrap`] and
//! [`Dataset::stratified_split`] produce **views**: they remap row indices
//! into the shared buffer instead of cloning row data. A random forest
//! drawing one bootstrap per tree therefore allocates `O(n)` indices per
//! tree instead of `O(n·d)` feature values — previously the dominant
//! allocation in forest training. Labels and weights (one `bool`/`f64` per
//! example) are materialized per view so hot-path accessors can stay
//! slice-returning.

use jit_math::rng::Rng;
use jit_math::Matrix;
use std::sync::Arc;

/// The shared, flattened row storage behind one or more dataset views.
#[derive(Clone, Debug, Default)]
struct RowStorage {
    /// Row-major feature values; `len == n_rows * dim`.
    values: Vec<f64>,
    /// Feature dimension (stride); 0 only when the storage is empty.
    dim: usize,
}

impl RowStorage {
    fn n_rows(&self) -> usize {
        self.values.len().checked_div(self.dim).unwrap_or(0)
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.dim..(i + 1) * self.dim]
    }
}

/// A labeled, optionally weighted tabular dataset for binary
/// classification.
///
/// Cloning a `Dataset` is cheap: the row buffer (and the index remap of a
/// view) is reference-counted, so clones and sub-views share storage.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    storage: Arc<RowStorage>,
    /// View row -> storage row. `None` means the identity view over all
    /// storage rows.
    index: Option<Arc<Vec<u32>>>,
    labels: Vec<bool>,
    weights: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Creates a dataset from rows and labels with unit weights.
    ///
    /// # Panics
    /// Panics when lengths mismatch or rows are ragged.
    pub fn from_rows(rows: Vec<Vec<f64>>, labels: Vec<bool>) -> Self {
        let n = rows.len();
        let weights = vec![1.0; n];
        Self::from_weighted_rows(rows, labels, weights)
    }

    /// Creates a dataset with explicit example weights.
    ///
    /// # Panics
    /// Panics when lengths mismatch, rows are ragged, or any weight is
    /// negative/non-finite.
    pub fn from_weighted_rows(
        rows: Vec<Vec<f64>>,
        labels: Vec<bool>,
        weights: Vec<f64>,
    ) -> Self {
        assert_eq!(rows.len(), labels.len(), "rows/labels length mismatch");
        assert_eq!(rows.len(), weights.len(), "rows/weights length mismatch");
        let dim = rows.first().map_or(0, Vec::len);
        let mut values = Vec::with_capacity(rows.len() * dim);
        for r in &rows {
            assert_eq!(r.len(), dim, "ragged feature rows");
            values.extend_from_slice(r);
        }
        Self::check_weights(&weights);
        Dataset {
            storage: Arc::new(RowStorage { values, dim }),
            index: None,
            labels,
            weights,
        }
    }

    fn check_weights(weights: &[f64]) {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
    }

    /// Concatenates datasets into one freshly flattened dataset (weights
    /// preserved). The result owns a single buffer that subsequent views
    /// share — `jit-temporal` builds its herding pool once with this and
    /// then materializes only weights per horizon step.
    ///
    /// # Panics
    /// Panics when non-empty parts disagree on feature dimension.
    pub fn concat<'a, I: IntoIterator<Item = &'a Dataset>>(parts: I) -> Self {
        let mut values = Vec::new();
        let mut labels = Vec::new();
        let mut weights = Vec::new();
        let mut dim = 0usize;
        for part in parts {
            if part.is_empty() {
                continue;
            }
            if dim == 0 {
                dim = part.dim();
            }
            assert_eq!(part.dim(), dim, "feature dimension mismatch in concat");
            for (row, label, w) in part.iter() {
                values.extend_from_slice(row);
                labels.push(label);
                weights.push(w);
            }
        }
        Dataset {
            storage: Arc::new(RowStorage { values, dim }),
            index: None,
            labels,
            weights,
        }
    }

    /// A view sharing this dataset's rows and labels but carrying new
    /// weights (e.g. per-horizon herding weights over a shared pool).
    ///
    /// # Panics
    /// Panics when the length mismatches or any weight is invalid.
    pub fn with_weights(&self, weights: Vec<f64>) -> Dataset {
        assert_eq!(weights.len(), self.len(), "weights length mismatch");
        Self::check_weights(&weights);
        Dataset {
            storage: Arc::clone(&self.storage),
            index: self.index.clone(),
            labels: self.labels.clone(),
            weights,
        }
    }

    /// Appends one example.
    ///
    /// On a shared or remapped dataset this first materializes a private
    /// copy of the view (copy-on-write); prefer constructing datasets up
    /// front via [`Dataset::from_rows`] in hot paths.
    pub fn push(&mut self, row: Vec<f64>, label: bool, weight: f64) {
        if !self.is_empty() {
            assert_eq!(self.dim(), row.len(), "feature dimension mismatch");
        }
        assert!(weight.is_finite() && weight >= 0.0, "invalid weight");
        if self.index.is_some() {
            // Flatten the view so storage rows == view rows again.
            let mut values = Vec::with_capacity((self.len() + 1) * row.len());
            for (r, _, _) in self.iter() {
                values.extend_from_slice(r);
            }
            self.storage = Arc::new(RowStorage { values, dim: row.len() });
            self.index = None;
        }
        let storage = Arc::make_mut(&mut self.storage);
        if storage.dim == 0 {
            storage.dim = row.len();
        }
        storage.values.extend_from_slice(&row);
        self.labels.push(label);
        self.weights.push(weight);
    }

    /// Number of examples in this view.
    pub fn len(&self) -> usize {
        match &self.index {
            Some(ix) => ix.len(),
            None => self.storage.n_rows(),
        }
    }

    /// `true` when the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimension (0 when empty).
    pub fn dim(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.storage.dim
        }
    }

    /// Storage row behind view row `i`.
    #[inline]
    fn storage_row(&self, i: usize) -> usize {
        match &self.index {
            Some(ix) => ix[i] as usize,
            None => i,
        }
    }

    /// Iterator over feature rows, in view order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + Clone + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The rows of this view as a dense matrix (one copy).
    pub fn matrix(&self) -> Matrix {
        let dim = self.storage.dim;
        match &self.index {
            None => Matrix::from_vec(
                self.storage.n_rows(),
                dim,
                self.storage.values.clone(),
            ),
            Some(_) => {
                let mut data = Vec::with_capacity(self.len() * dim);
                for r in self.rows() {
                    data.extend_from_slice(r);
                }
                Matrix::from_vec(self.len(), dim, data)
            }
        }
    }

    /// Borrow of all labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Borrow of all weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// One feature row.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        self.storage.row(self.storage_row(i))
    }

    /// One label.
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// Fraction of positive examples, weight-aware. Returns 0.0 when empty.
    pub fn positive_rate(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let pos: f64 = self
            .labels
            .iter()
            .zip(&self.weights)
            .filter(|(l, _)| **l)
            .map(|(_, w)| *w)
            .sum();
        pos / total
    }

    /// The sub-dataset at the given indices (weights preserved) as a
    /// zero-copy view into the shared row buffer.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let remap: Vec<u32> = indices
            .iter()
            .map(|&i| {
                u32::try_from(self.storage_row(i)).expect("storage row fits in u32")
            })
            .collect();
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        let weights = indices.iter().map(|&i| self.weights[i]).collect();
        Dataset {
            storage: Arc::clone(&self.storage),
            index: Some(Arc::new(remap)),
            labels,
            weights,
        }
    }

    /// Splits into (train, test) with `test_fraction` of examples held out,
    /// stratified by label so both splits keep the class balance.
    ///
    /// # Panics
    /// Panics when `test_fraction` is outside `(0, 1)`.
    pub fn stratified_split(
        &self,
        test_fraction: f64,
        rng: &mut Rng,
    ) -> (Dataset, Dataset) {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test_fraction must be in (0,1)"
        );
        let mut pos: Vec<usize> = Vec::new();
        let mut neg: Vec<usize> = Vec::new();
        for (i, &l) in self.labels.iter().enumerate() {
            if l {
                pos.push(i)
            } else {
                neg.push(i)
            }
        }
        rng.shuffle(&mut pos);
        rng.shuffle(&mut neg);
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for class in [pos, neg] {
            let n_test = ((class.len() as f64) * test_fraction).round() as usize;
            let n_test = n_test.min(class.len());
            test_idx.extend_from_slice(&class[..n_test]);
            train_idx.extend_from_slice(&class[n_test..]);
        }
        (self.subset(&train_idx), self.subset(&test_idx))
    }

    /// Draws a bootstrap sample of the same size, as a zero-copy view.
    ///
    /// When the dataset carries non-uniform weights the draw is
    /// weight-proportional, which is how future models are trained on
    /// herded pseudo-samples. Weighted draws binary-search a prefix-sum
    /// table (`O(n log n)` total) instead of scanning the weight vector
    /// per draw (`O(n²)`).
    pub fn bootstrap(&self, rng: &mut Rng) -> Dataset {
        assert!(!self.is_empty(), "bootstrap of empty dataset");
        let n = self.len();
        let uniform = self.weights.iter().all(|w| (*w - 1.0).abs() < 1e-12);
        let indices = if uniform {
            (0..n).map(|_| rng.below(n)).collect()
        } else {
            weighted_draw_indices(&self.weights, n, rng)
        };
        let mut out = self.subset(&indices);
        // Bootstrap resampling realizes the weights; reset them to 1.
        out.weights.iter_mut().for_each(|w| *w = 1.0);
        out
    }

    /// Iterator over `(row, label, weight)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], bool, f64)> + '_ {
        (0..self.len()).map(|i| (self.row(i), self.labels[i], self.weights[i]))
    }
}

/// Draws `n_draws` weight-proportional indices into `weights` via a
/// prefix-sum table and binary search (`O(n log n)` total instead of a
/// linear scan per draw). One uniform variate is consumed per draw.
///
/// # Panics
/// Panics when the total positive weight is zero.
pub(crate) fn weighted_draw_indices(
    weights: &[f64],
    n_draws: usize,
    rng: &mut Rng,
) -> Vec<usize> {
    // Inclusive prefix sums; zero-weight rows repeat the previous value
    // and can never be selected by a strictly-greater search.
    let mut prefix = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for &w in weights {
        acc += w.max(0.0);
        prefix.push(acc);
    }
    assert!(acc > 0.0, "weighted draw needs positive total weight");
    (0..n_draws)
        .map(|_| {
            let target = rng.next_f64() * acc;
            // First index with prefix[i] > target.
            prefix.partition_point(|&p| p <= target).min(weights.len() - 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![i as f64, (2 * i) as f64]).collect();
        let labels: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        Dataset::from_rows(rows, labels)
    }

    #[test]
    fn construction_and_accessors() {
        let d = toy(9);
        assert_eq!(d.len(), 9);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.row(2), &[2.0, 4.0]);
        assert!(d.label(0));
        assert!(!d.label(1));
    }

    #[test]
    fn positive_rate_weighted() {
        let d = Dataset::from_weighted_rows(
            vec![vec![0.0], vec![1.0]],
            vec![true, false],
            vec![3.0, 1.0],
        );
        assert!((d.positive_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn positive_rate_empty_is_zero() {
        assert_eq!(Dataset::new().positive_rate(), 0.0);
    }

    #[test]
    fn subset_preserves_rows() {
        let d = toy(5);
        let s = d.subset(&[4, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[4.0, 8.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn subset_is_view_not_copy() {
        let d = toy(100);
        let s = d.subset(&[1, 2, 3]);
        let nested = s.subset(&[2, 0]);
        // Views share the parent's buffer...
        assert!(Arc::ptr_eq(&d.storage, &s.storage));
        assert!(Arc::ptr_eq(&d.storage, &nested.storage));
        // ...and nested views resolve through composed remaps.
        assert_eq!(nested.row(0), d.row(3));
        assert_eq!(nested.row(1), d.row(1));
        assert_eq!(nested.label(0), d.label(3));
    }

    #[test]
    fn with_weights_shares_rows() {
        let d = toy(4);
        let w = d.with_weights(vec![2.0, 0.0, 1.0, 5.0]);
        assert!(Arc::ptr_eq(&d.storage, &w.storage));
        assert_eq!(w.weights(), &[2.0, 0.0, 1.0, 5.0]);
        assert_eq!(w.row(3), d.row(3));
        assert_eq!(w.labels(), d.labels());
    }

    #[test]
    fn concat_flattens_parts() {
        let a = toy(3);
        let b = toy(6).subset(&[4, 5]);
        let c = Dataset::concat([&a, &b]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.row(3), &[4.0, 8.0]);
        assert_eq!(c.dim(), 2);
        assert!(c.index.is_none());
        // Empty parts are skipped.
        let with_empty = Dataset::concat([&Dataset::new(), &a]);
        assert_eq!(with_empty.len(), 3);
    }

    #[test]
    fn matrix_matches_rows_for_views() {
        let d = toy(6);
        let v = d.subset(&[5, 1, 3]);
        let m = v.matrix();
        for (i, row) in v.rows().enumerate() {
            for j in 0..v.dim() {
                assert_eq!(m[(i, j)], row[j]);
            }
        }
    }

    #[test]
    fn stratified_split_keeps_class_balance() {
        let n = 300;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let labels: Vec<bool> = (0..n).map(|i| i < 100).collect(); // 1/3 positive
        let d = Dataset::from_rows(rows, labels);
        let mut rng = Rng::seeded(1);
        let (train, test) = d.stratified_split(0.3, &mut rng);
        assert_eq!(train.len() + test.len(), n);
        assert!((train.positive_rate() - 1.0 / 3.0).abs() < 0.02);
        assert!((test.positive_rate() - 1.0 / 3.0).abs() < 0.02);
    }

    #[test]
    fn stratified_split_disjoint_and_complete() {
        let d = toy(50);
        let mut rng = Rng::seeded(2);
        let (train, test) = d.stratified_split(0.2, &mut rng);
        // Reconstruct multiset of first coordinates.
        let mut all: Vec<i64> =
            train.rows().chain(test.rows()).map(|r| r[0] as i64).collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<i64>>());
    }

    #[test]
    fn bootstrap_same_size_and_unit_weights() {
        let d = toy(40);
        let mut rng = Rng::seeded(3);
        let b = d.bootstrap(&mut rng);
        assert_eq!(b.len(), 40);
        assert!(b.weights().iter().all(|w| *w == 1.0));
        assert!(Arc::ptr_eq(&d.storage, &b.storage), "bootstrap must be a view");
    }

    #[test]
    fn weighted_bootstrap_prefers_heavy_rows() {
        let rows = vec![vec![0.0], vec![1.0]];
        let labels = vec![false, true];
        let weights = vec![1.0, 99.0];
        let d = Dataset::from_weighted_rows(rows, labels, weights);
        let mut rng = Rng::seeded(4);
        let mut heavy = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            let b = d.bootstrap(&mut rng);
            heavy += b.rows().filter(|r| r[0] == 1.0).count();
            total += b.len();
        }
        assert!(heavy as f64 / total as f64 > 0.9);
    }

    #[test]
    fn weighted_bootstrap_never_selects_zero_weight() {
        let d = Dataset::from_weighted_rows(
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![false, true, false],
            vec![0.0, 1.0, 0.0],
        );
        let mut rng = Rng::seeded(5);
        for _ in 0..20 {
            let b = d.bootstrap(&mut rng);
            assert!(b.rows().all(|r| r[0] == 1.0));
        }
    }

    #[test]
    fn push_checks_dimension() {
        let mut d = toy(2);
        d.push(vec![7.0, 8.0], true, 1.0);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn push_on_view_copies_on_write() {
        let d = toy(5);
        let mut v = d.subset(&[4, 2]);
        v.push(vec![9.0, 9.0], false, 1.0);
        assert_eq!(v.len(), 3);
        assert_eq!(v.row(0), &[4.0, 8.0]);
        assert_eq!(v.row(2), &[9.0, 9.0]);
        // The parent is untouched.
        assert_eq!(d.len(), 5);
        assert_eq!(d.row(4), &[4.0, 8.0]);
    }

    #[test]
    fn push_onto_empty_sets_dimension() {
        let mut d = Dataset::new();
        d.push(vec![1.0, 2.0, 3.0], true, 1.0);
        assert_eq!(d.dim(), 3);
        assert_eq!(d.len(), 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_wrong_dim_panics() {
        let mut d = toy(2);
        d.push(vec![7.0], true, 1.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]], vec![true, false]);
    }

    #[test]
    fn iter_yields_triples() {
        let d = Dataset::from_weighted_rows(vec![vec![1.0]], vec![true], vec![2.0]);
        let (row, label, weight) = d.iter().next().unwrap();
        assert_eq!(row, &[1.0]);
        assert!(label);
        assert_eq!(weight, 2.0);
    }
}
