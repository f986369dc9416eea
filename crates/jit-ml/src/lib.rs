//! # jit-ml
//!
//! Machine-learning substrate for JustInTime.
//!
//! The paper's framework only requires a binary classifier
//! `M : R^d -> [0,1]` (Definition II.1) plus, for the candidates generator,
//! *model-dependent heuristics* describing how `M` can be nudged across its
//! decision boundary. The original system used H2O random forests; this
//! crate provides from-scratch implementations with exactly the surface the
//! rest of the workspace needs:
//!
//! * [`dataset::Dataset`] — weighted, labeled tabular data with splits and
//!   bootstraps.
//! * [`tree::DecisionTree`] — CART with Gini impurity, sample weights and
//!   feature subsampling.
//! * [`forest::RandomForest`] — bagged trees, the paper's model family.
//! * [`logistic::LogisticRegression`] — a linear baseline whose gradient
//!   feeds the gradient-guided move proposer.
//! * [`metrics`] — accuracy, AUC, F1, log-loss, confusion counts.
//! * [`threshold`] — calibration of the per-model decision threshold `δ_t`.
//! * [`model::Model`] — the trait tying it together, including
//!   [`model::ModelHints`] consumed by the counterfactual search.

// Debt, tracked: training-time code leans on `partial_cmp(..).expect("no NaN")`
// invariants throughout. The serve path (jit-service, jit-db) holds the
// panic-freedom bar; sweeping training is future work.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod forest;
pub mod logistic;
pub mod metrics;
pub mod model;
pub mod threshold;
pub mod tree;

pub use dataset::Dataset;
pub use forest::{CompiledForest, RandomForest, RandomForestParams};
pub use logistic::{LogisticParams, LogisticRegression};
pub use model::{Model, ModelHints};
pub use tree::{DatasetPresort, DecisionTree, DecisionTreeParams};
