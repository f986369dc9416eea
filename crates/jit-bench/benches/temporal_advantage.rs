//! E1: the paper's motivating claim (Example I.1) quantified — plans made
//! against the *predicted future* models beat static plans replayed under
//! drift.
//!
//! Protocol: for a cohort of rejected applicants,
//!
//! * **static** — take the minimal-diff plan against the present model
//!   (t=0), replay the same absolute changes at t = 2 on the temporally
//!   updated profile, and score it with the *true* (oracle) 2021 rule;
//! * **temporal** — take JustInTime's minimal-diff plan *for t = 2* and
//!   score that with the same oracle.
//!
//! The metric is oracle approval rate; the temporal plan should win or tie
//! (it can't lose structurally: it optimizes the right target — the paper's
//! entire point).
//!
//! Run with: `cargo bench -p jit-bench --bench temporal_advantage`

// Bench code: panics are the correct failure mode for a broken harness.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use jit_bench::{bench_config, year_slices};
use jit_core::{JustInTime, UserRequest};

use std::hint::black_box;

fn bench_temporal_vs_static(c: &mut Criterion) {
    use jit_data::{LendingClubGenerator, LendingClubParams};
    // E4 shows the learned models sit at the Bayes ceiling of the default
    // workload — label noise swamps the drift signal. E1 demonstrates the
    // *mechanism*, so it runs in a lower-noise regime (sharper oracle);
    // EXPERIMENTS.md reports both regimes.
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 400,
        oracle_sharpness: 5.0,
        ..Default::default()
    });
    let slices = year_slices(&gen);
    let schema = gen.schema().clone();
    let system =
        JustInTime::train(bench_config(3, false), &schema, &slices).expect("train");
    // Realistic rejected applicants from the latest historical year,
    // restricted to the "John cohort": 28-29 year olds, who cross the
    // over-30 boundary during the horizon — exactly the population whose
    // effective criteria drift (Example I.1). A larger sampling generator
    // (same distribution, fresh draws) fills the cohort.
    let cohort_gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 4_000,
        oracle_sharpness: 5.0,
        ..Default::default()
    });
    let applicants: Vec<Vec<f64>> =
        jit_bench::rejected_cohort(&cohort_gen, 2018, usize::MAX)
            .into_iter()
            .filter(|p| (28.0..=29.0).contains(&p[0]))
            .take(20)
            .collect();
    // t=2 maps to calendar 2018+2 = 2020 in oracle terms (the oracle's
    // drift keeps extending past the generated years).
    let eval_year = 2020u32;
    let replay_t = 2usize;

    /// Per-strategy tallies: approvals and summed oracle probability.
    #[derive(Default, Clone, Copy)]
    struct Tally {
        ok: usize,
        p_sum: f64,
    }

    // Two plan choices per strategy: the fragile minimal-diff plan and the
    // robust maximal-confidence plan (paper Q4 vs Q5).
    let run_cohort = || -> ([Tally; 2], [Tally; 2], Tally, usize) {
        let mut static_t = [Tally::default(); 2];
        let mut temporal_t = [Tally::default(); 2];
        let mut none_t = Tally::default();
        let mut total = 0usize;
        let plans = [
            "SELECT * FROM candidates WHERE time = 0 ORDER BY diff LIMIT 1",
            "SELECT * FROM candidates WHERE time = 0 ORDER BY p DESC LIMIT 1",
        ];
        let temporal_plans = [
            "SELECT * FROM candidates WHERE time = 2 ORDER BY diff LIMIT 1",
            "SELECT * FROM candidates WHERE time = 2 ORDER BY p DESC LIMIT 1",
        ];
        for profile in &applicants {
            let job = UserRequest::new(profile.clone()).into();
            let Ok(sessions) = system.serve(&[job], None) else {
                continue;
            };
            let session = &sessions[0];
            total += 1;
            let update = system.default_update_fn();
            let projected = update.project(profile, replay_t);
            // Baseline: just wait and reapply unmodified at t=2.
            let p_none = gen.oracle_probability(&projected, eval_year);
            none_t.p_sum += p_none;
            if p_none > 0.5 {
                none_t.ok += 1;
            }

            for (i, sql) in plans.iter().enumerate() {
                // Static: the t=0 plan's absolute changes replayed at t=2.
                if let Ok(rs) = session.sql(sql) {
                    if let Some(cand) = rs.rows.first().and_then(|r| {
                        jit_core::tables::candidate_from_row(&schema, &rs.columns, r)
                    }) {
                        let mut replayed = projected.clone();
                        for f in 0..schema.dim() {
                            replayed[f] += cand.profile[f] - profile[f];
                        }
                        let replayed = schema.sanitize_row(&replayed);
                        let p = gen.oracle_probability(&replayed, eval_year);
                        static_t[i].p_sum += p;
                        if p > 0.5 {
                            static_t[i].ok += 1;
                        }
                    }
                }
            }
            for (i, sql) in temporal_plans.iter().enumerate() {
                // Temporal: the plan optimized for t=2 directly.
                if let Ok(rs) = session.sql(sql) {
                    if let Some(cand) = rs.rows.first().and_then(|r| {
                        jit_core::tables::candidate_from_row(&schema, &rs.columns, r)
                    }) {
                        let p = gen.oracle_probability(&cand.profile, eval_year);
                        temporal_t[i].p_sum += p;
                        if p > 0.5 {
                            temporal_t[i].ok += 1;
                        }
                    }
                }
            }
        }
        (static_t, temporal_t, none_t, total)
    };

    let (static_t, temporal_t, none_t, total) = run_cohort();
    eprintln!("\n[E1] static vs temporal plans, oracle-scored at t=2 ({eval_year})");
    eprintln!("cohort: {total} rejected applicants");
    eprintln!("{:<28} {:>10} {:>14}", "plan", "approved", "mean_oracle_p");
    for (label, t) in [
        ("no plan (wait + reapply)", none_t),
        ("static  min-diff (Q4)", static_t[0]),
        ("temporal min-diff (Q4)", temporal_t[0]),
        ("static  max-conf (Q5)", static_t[1]),
        ("temporal max-conf (Q5)", temporal_t[1]),
    ] {
        eprintln!(
            "{:<28} {:>7}/{:<3} {:>13.3}",
            label,
            t.ok,
            total,
            t.p_sum / total.max(1) as f64
        );
    }

    let mut group = c.benchmark_group("e1_temporal_vs_static");
    group.sample_size(10);
    group.bench_function("cohort_20", |b| b.iter(|| black_box(run_cohort())));
    group.finish();
}

criterion_group!(benches, bench_temporal_vs_static);
criterion_main!(benches);
