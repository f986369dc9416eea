//! The compiled forest scores a profile's threshold cells bit-identically
//! to `RandomForest::predict_proba` on the profile itself.
//!
//! A cell is the count of a feature's sorted, deduplicated thresholds
//! strictly below the value — the convention the candidates search folds
//! profiles into. The probes cover random profiles, values equal to a
//! threshold and one ulp either side of it, ±0.0 against 0.0 thresholds,
//! subnormals and ±inf. NaN is excluded on purpose: its cell is 0 while
//! every split sends it right, so it is outside the evaluator's domain,
//! and the search never scores it (a non-finite origin ends the search
//! before any model call, and every move it makes is finite).

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jit_math::rng::Rng;
use jit_ml::{
    CompiledForest, Dataset, Model, ModelHints, RandomForest, RandomForestParams,
};
use proptest::prelude::*;

/// Smallest positive subnormal.
const TINY: f64 = 5e-324;

/// The cell vector of `x` against `per_feature`.
fn cells(per_feature: &[Vec<f64>], x: &[f64]) -> Vec<u32> {
    per_feature
        .iter()
        .zip(x)
        .map(|(ts, v)| ts.partition_point(|t| *t < *v) as u32)
        .collect()
}

/// A feature value drawn from a mix that makes the fitted splits land
/// on 0.0 (midpoint of `±v`), on subnormals (midpoint of 0 and a
/// subnormal) and on ordinary values.
fn draw(rng: &mut Rng) -> f64 {
    match rng.below(6) {
        0 => {
            if rng.bernoulli(0.5) {
                -1.0
            } else {
                1.0
            }
        }
        1 => [0.0, 2.0 * TINY, 4.0 * TINY, -2.0 * TINY][rng.below(4)],
        2 => rng.below(9) as f64,
        3 => rng.uniform(-1e6, 1e6),
        _ => rng.normal(),
    }
}

/// A forest fitted on `rows` random profiles of `dim` features with
/// labels that depend on the features (plus noise), so trees split.
fn fit(
    seed: u64,
    dim: usize,
    rows: usize,
    params: &RandomForestParams,
) -> RandomForest {
    let mut rng = Rng::seeded(seed);
    let xs: Vec<Vec<f64>> =
        (0..rows).map(|_| (0..dim).map(|_| draw(&mut rng)).collect()).collect();
    let labels = xs
        .iter()
        .map(|x| {
            let s: f64 =
                x.iter().enumerate().map(|(f, v)| v.signum() * (f + 1) as f64).sum();
            (s > 0.0) ^ rng.bernoulli(0.1)
        })
        .collect();
    RandomForest::fit(&Dataset::from_rows(xs, labels), params, &mut rng)
}

/// The forest's hints, which must carry a compiled evaluator.
fn compiled(forest: &RandomForest) -> (Vec<Vec<f64>>, std::sync::Arc<CompiledForest>) {
    match forest.hints() {
        ModelHints::Thresholds { per_feature, forest: Some(compiled) } => {
            (per_feature, compiled)
        }
        other => panic!("a forest must compile, got {other:?}"),
    }
}

/// Asserts cell scoring equals `predict_proba` bit for bit at `x`.
fn assert_same(
    forest: &RandomForest,
    per_feature: &[Vec<f64>],
    c: &CompiledForest,
    x: &[f64],
) {
    let want = forest.predict_proba(x);
    let got = c.predict_cells(&cells(per_feature, x));
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "profile {x:?}: cells {got} vs predict {want}"
    );
}

/// Every threshold, one ulp either side of it, and the special values,
/// each set into feature `f` of `base`.
fn boundary_probes(per_feature: &[Vec<f64>], base: &[f64]) -> Vec<Vec<f64>> {
    let specials =
        [0.0, -0.0, TINY, -TINY, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN];
    let mut out = Vec::new();
    for (f, ts) in per_feature.iter().enumerate() {
        for v in
            ts.iter().flat_map(|t| [*t, t.next_up(), t.next_down()]).chain(specials)
        {
            let mut x = base.to_vec();
            x[f] = v;
            out.push(x);
        }
    }
    out
}

#[test]
fn zero_and_subnormal_thresholds_are_exact_at_their_edges() {
    // Feature 0 splits between -1 and 1 (threshold 0.0); feature 1
    // between 0 and 2·TINY (threshold TINY, a subnormal).
    let xs: Vec<Vec<f64>> = (0..32)
        .map(|i| {
            vec![
                if i % 2 == 0 { -1.0 } else { 1.0 },
                if i % 4 < 2 { 0.0 } else { 2.0 * TINY },
            ]
        })
        .collect();
    let labels: Vec<bool> = (0..32).map(|i| i % 2 == 0 && i % 4 < 2).collect();
    let params = RandomForestParams {
        n_trees: 3,
        min_leaf_weight: 1.0,
        feature_subsample: Some(2),
        threads: 1,
        ..Default::default()
    };
    let forest = RandomForest::fit(
        &Dataset::from_rows(xs, labels),
        &params,
        &mut Rng::seeded(1),
    );
    let (per_feature, c) = compiled(&forest);
    assert!(
        per_feature[0].contains(&0.0),
        "fixture must split at 0.0: {per_feature:?}"
    );
    assert!(
        per_feature[1].contains(&TINY),
        "fixture must split at a subnormal: {per_feature:?}"
    );
    for base in [[0.0, 0.0], [-0.0, -0.0], [1.0, TINY], [-1.0, -TINY]] {
        for x in boundary_probes(&per_feature, &base) {
            assert_same(&forest, &per_feature, &c, &x);
        }
    }
    // ±0.0 sit in the same cell against a 0.0 threshold, and both go left.
    assert_eq!(cells(&per_feature, &[0.0, 0.0]), cells(&per_feature, &[-0.0, -0.0]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_forest_scores_cells_like_predict_proba(
        seed in 0u64..1_000_000,
        dim in 1usize..5,
        rows in 8usize..160,
        n_trees in 1usize..9,
        max_depth in 0usize..9,
        min_leaf in 1usize..4,
        probes in proptest::collection::vec(0u64..u64::MAX, 24)
    ) {
        let params = RandomForestParams {
            n_trees,
            max_depth,
            min_leaf_weight: min_leaf as f64,
            feature_subsample: None,
            threads: 1,
        };
        let forest = fit(seed, dim, rows, &params);
        let (per_feature, c) = compiled(&forest);
        prop_assert_eq!(c.n_trees(), n_trees);
        // Random profiles from the training mix and far outside it.
        for (i, p) in probes.iter().enumerate() {
            let mut rng = Rng::seeded(*p);
            let x: Vec<f64> = (0..dim)
                .map(|_| if i % 3 == 0 { rng.uniform(-1e9, 1e9) } else { draw(&mut rng) })
                .collect();
            assert_same(&forest, &per_feature, &c, &x);
        }
        // Each threshold exactly, one ulp either side, and the specials,
        // against a random base profile.
        let mut rng = Rng::seeded(seed ^ 0x5eed);
        let base: Vec<f64> = (0..dim).map(|_| draw(&mut rng)).collect();
        for x in boundary_probes(&per_feature, &base) {
            assert_same(&forest, &per_feature, &c, &x);
        }
    }
}
