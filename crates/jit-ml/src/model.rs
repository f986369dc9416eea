//! The [`Model`] trait — Definition II.1 of the paper.
//!
//! A model maps a profile vector to the probability of the *desired*
//! positive classification. The candidates generator additionally needs
//! model-dependent structure to propose decision-altering moves; models
//! surface that through [`ModelHints`].

use crate::forest::CompiledForest;
use std::sync::Arc;

/// Structure a model exposes to guide counterfactual move proposal.
///
/// Hints are a pure function of the fitted model, so a caller that
/// serves many profiles against one model builds them once and keeps
/// them as long as the model stands.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelHints {
    /// Tree-family models.
    Thresholds {
        /// Per feature, the split thresholds sorted ascending and
        /// deduplicated. A proposal nudges a feature just across one of
        /// these, and a profile's *cell* in feature `f` is the count of
        /// `per_feature[f]` entries strictly below its value.
        per_feature: Vec<Vec<f64>>,
        /// The model compiled against `per_feature`: it scores a cell
        /// vector bit-identically to `predict_proba` on any finite
        /// profile in those cells (see [`CompiledForest`]). `None` when
        /// the model has no compiled form, or does not fit one.
        forest: Option<Arc<CompiledForest>>,
    },
    /// Linear-family models: the weight vector. A proposal steps along the
    /// (sign of the) gradient of the score.
    Linear(Vec<f64>),
    /// No structural information; the search falls back to data-driven
    /// coordinate perturbations.
    Opaque,
}

impl ModelHints {
    /// `true` when the hints carry no structure.
    pub fn is_opaque(&self) -> bool {
        matches!(self, ModelHints::Opaque)
    }
}

/// A binary classification model `M : R^d -> [0,1]` (paper Definition II.1).
pub trait Model: Send + Sync {
    /// Input dimension `d`.
    fn dim(&self) -> usize;

    /// Probability of the desired positive class for profile `x`.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Model-dependent structure for the counterfactual search.
    ///
    /// The default is [`ModelHints::Opaque`]; tree and linear models
    /// override it, and a forest's hints carry its compiled evaluator.
    /// A wrapper must forward this method, like every other one (as the
    /// `Box` and `Arc` impls below do): a wrapper that fell back to the
    /// default would hide the wrapped model's structure from the search.
    fn hints(&self) -> ModelHints {
        ModelHints::Opaque
    }

    /// Content fingerprint of the fitted model, or `None` when the model
    /// cannot vouch for one.
    ///
    /// The contract (see [`jit_math::digest`]): two models returning the
    /// same `Some(digest)` produce **bit-identical** `predict_proba` and
    /// [`Model::hints`] output for every input — the incremental serving
    /// layer replays stored results on the strength of this, so an
    /// implementation must digest every byte that can influence a
    /// prediction, and must return `None` (always treated as "changed")
    /// rather than guess.
    fn fingerprint(&self) -> Option<jit_math::Digest> {
        None
    }

    /// Convenience: hard decision at threshold `delta`
    /// (Definition II.3 requires a strict inequality `M(x') > δ`).
    fn decide(&self, x: &[f64], delta: f64) -> bool {
        self.predict_proba(x) > delta
    }
}

/// Blanket implementation so `Box<dyn Model>` is itself a `Model`.
impl Model for Box<dyn Model> {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        (**self).predict_proba(x)
    }

    fn hints(&self) -> ModelHints {
        (**self).hints()
    }

    fn fingerprint(&self) -> Option<jit_math::Digest> {
        (**self).fingerprint()
    }
}

/// Blanket implementation so `Arc<dyn Model>` (the shape future-model
/// sequences share their models in) is itself a `Model`.
impl Model for std::sync::Arc<dyn Model> {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        (**self).predict_proba(x)
    }

    fn hints(&self) -> ModelHints {
        (**self).hints()
    }

    fn fingerprint(&self) -> Option<jit_math::Digest> {
        (**self).fingerprint()
    }
}

/// A trivial constant model, useful in tests and as a degenerate baseline.
#[derive(Clone, Debug)]
pub struct ConstantModel {
    dim: usize,
    prob: f64,
}

impl ConstantModel {
    /// A model that outputs `prob` for every input of dimension `dim`.
    pub fn new(dim: usize, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        ConstantModel { dim, prob }
    }
}

impl Model for ConstantModel {
    fn dim(&self) -> usize {
        self.dim
    }

    fn predict_proba(&self, _x: &[f64]) -> f64 {
        self.prob
    }

    fn fingerprint(&self) -> Option<jit_math::Digest> {
        let mut w = jit_math::DigestWriter::new("jit-ml/constant");
        w.write_usize(self.dim);
        w.write_f64(self.prob);
        Some(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_outputs_constant() {
        let m = ConstantModel::new(3, 0.7);
        assert_eq!(m.predict_proba(&[0.0, 0.0, 0.0]), 0.7);
        assert_eq!(m.dim(), 3);
        assert!(m.hints().is_opaque());
    }

    #[test]
    fn decide_is_strict() {
        let m = ConstantModel::new(1, 0.5);
        assert!(!m.decide(&[0.0], 0.5), "M(x) > delta must be strict");
        assert!(m.decide(&[0.0], 0.49));
    }

    #[test]
    fn boxed_model_delegates() {
        let b: Box<dyn Model> = Box::new(ConstantModel::new(2, 0.9));
        assert_eq!(b.predict_proba(&[1.0, 2.0]), 0.9);
        assert_eq!(b.dim(), 2);
        assert!(b.decide(&[1.0, 2.0], 0.5));
    }

    #[test]
    fn blanket_impls_forward_every_method() {
        use crate::{Dataset, RandomForest, RandomForestParams};
        use jit_math::rng::Rng;
        // A wrapper that fell back to a trait default would still
        // predict identically, but report opaque hints or no fingerprint.
        let rows: Vec<Vec<f64>> =
            (0..40).map(|i| vec![f64::from(i % 7), f64::from(i % 5)]).collect();
        let labels: Vec<bool> = (0..40).map(|i| (i % 7) + (i % 5) > 5).collect();
        let params =
            RandomForestParams { n_trees: 4, threads: 1, ..Default::default() };
        let forest = RandomForest::fit(
            &Dataset::from_rows(rows, labels),
            &params,
            &mut Rng::seeded(3),
        );
        let direct = forest.hints();
        assert!(
            matches!(&direct, ModelHints::Thresholds { forest: Some(_), .. }),
            "a forest's hints carry its compiled evaluator"
        );
        let arc: std::sync::Arc<dyn Model> = std::sync::Arc::new(forest.clone());
        let boxed: Box<dyn Model> = Box::new(forest.clone());
        for wrapped in [&arc as &dyn Model, &boxed as &dyn Model] {
            assert_eq!(wrapped.dim(), forest.dim());
            assert_eq!(wrapped.hints(), direct);
            assert_eq!(wrapped.fingerprint(), forest.fingerprint());
            assert!(wrapped.fingerprint().is_some());
            for x in [[0.0, 0.0], [3.5, 1.5], [6.0, 4.0], [-1.0, 9.0]] {
                assert_eq!(
                    wrapped.predict_proba(&x).to_bits(),
                    forest.predict_proba(&x).to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn constant_model_validates_prob() {
        ConstantModel::new(1, 1.5);
    }
}
