//! Shared fixtures for the benchmark harness.
//!
//! Every bench regenerates one experiment from DESIGN.md §5 (F1–F3,
//! E1–E6). Fixtures are deliberately small — the benches run on one core —
//! but structurally identical to the full pipeline. Each bench prints its
//! experiment's *shape table* (who wins, by how much) to stderr during
//! setup; EXPERIMENTS.md records those tables against the paper's claims.

// Bench fixtures: panics are the correct failure mode for a broken harness.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

use jit_core::{AdminConfig, CandidateParams, Job, JustInTime, UserRequest};
use jit_data::{FeatureSchema, LendingClubGenerator, LendingClubParams};
use jit_ml::{Dataset, RandomForestParams};
use jit_temporal::future::FutureModelsParams;

/// Standard bench-scale generator: fewer records per year than the demo,
/// same drift structure.
pub fn bench_generator(records_per_year: usize) -> LendingClubGenerator {
    LendingClubGenerator::new(LendingClubParams {
        records_per_year,
        ..Default::default()
    })
}

/// Year slices as datasets.
pub fn year_slices(gen: &LendingClubGenerator) -> Vec<Dataset> {
    gen.years()
        .into_iter()
        .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
        .collect()
}

/// Bench-scale admin config; `parallel: false` trains and serves on one
/// thread.
pub fn bench_config(horizon: usize, parallel: bool) -> AdminConfig {
    AdminConfig {
        horizon,
        start_year: 2019,
        period_years: 1,
        future: FutureModelsParams {
            n_landmarks: 40,
            pool_slices: 3,
            forest: RandomForestParams { n_trees: 24, ..Default::default() },
            ..Default::default()
        },
        candidates: CandidateParams {
            beam_width: 6,
            max_iters: 4,
            top_k: 6,
            ..Default::default()
        },
        threads: if parallel { 0 } else { 1 },
    }
}

/// A trained bench-scale system plus its schema.
pub fn trained_system(
    records_per_year: usize,
    horizon: usize,
    parallel: bool,
) -> (JustInTime, FeatureSchema) {
    let gen = bench_generator(records_per_year);
    let slices = year_slices(&gen);
    let schema = gen.schema().clone();
    let system = JustInTime::train(bench_config(horizon, parallel), &schema, &slices)
        .expect("bench training must succeed");
    (system, schema)
}

/// Serves John alone on a trained system.
pub fn john_session(system: &JustInTime) -> jit_core::UserSession<'_> {
    let john = Job::from(UserRequest::new(LendingClubGenerator::john()));
    system.serve(&[john], None).expect("bench session must open").remove(0)
}

/// A serving batch of `n` [`UserRequest`]s over rejected applicants from
/// the system's present year (falling back to John clones when the
/// generator yields too few rejections at bench scale).
pub fn serving_cohort(
    system: &JustInTime,
    gen: &LendingClubGenerator,
    n: usize,
) -> Vec<UserRequest> {
    let year = system.config().start_year.saturating_sub(1).max(2007);
    let mut profiles = rejected_cohort(gen, year, n);
    while profiles.len() < n {
        profiles.push(LendingClubGenerator::john());
    }
    profiles.into_iter().map(UserRequest::new).collect()
}

/// `cohort` as first-visit [`Job`]s.
pub fn cold_jobs(cohort: &[UserRequest]) -> Vec<Job> {
    cohort.iter().cloned().map(Job::from).collect()
}

/// First-visit snapshots for a returning-user workload: serves `cohort`
/// once and wraps each session's [`jit_core::SessionSnapshot`] as an
/// unchanged returning [`Job`] (the no-drift refresh).
pub fn returning_cohort(system: &JustInTime, cohort: &[UserRequest]) -> Vec<Job> {
    system
        .serve(&cold_jobs(cohort), None)
        .expect("bench first visit must serve")
        .iter()
        .map(|s| jit_core::ReturningUser::unchanged(s.snapshot()).into())
        .collect()
}

/// The 25%-drift variant of [`returning_cohort`]: every fourth user
/// returns with a perturbed profile, so (with the other three unchanged)
/// 25% of the cohort's `(user, time point)` pairs fail their fingerprint
/// diff and recompute while the rest replay.
pub fn drifted_returning_cohort(
    system: &JustInTime,
    cohort: &[UserRequest],
) -> Vec<Job> {
    let mut returning = returning_cohort(system, cohort);
    for user in returning.iter_mut().step_by(4) {
        // A $1 change of monthly debt changes every temporal input, so
        // all of this user's time points recompute.
        user.request.profile[jit_data::schema::lending_idx::DEBT] += 1.0;
    }
    returning
}

/// A realistic cohort of rejected applicants: records drawn from the
/// generator's latest year whose oracle probability is below 0.5.
///
/// Unlike the hand-crafted demo extremes, these live in the dense region
/// of the data distribution, where learned models are locally reliable —
/// the right population for transfer experiments (E1).
pub fn rejected_cohort(
    gen: &LendingClubGenerator,
    year: u32,
    n: usize,
) -> Vec<Vec<f64>> {
    gen.records_for_year(year)
        .into_iter()
        .filter(|r| gen.oracle_probability(&r.features, year) < 0.5)
        .map(|r| r.features)
        .take(n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (system, schema) = trained_system(120, 2, false);
        assert_eq!(schema.dim(), 6);
        assert_eq!(system.models().len(), 3);
        let session = john_session(&system);
        assert_eq!(session.temporal_inputs().len(), 3);
    }
}
