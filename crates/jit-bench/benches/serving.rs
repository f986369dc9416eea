//! Batch serving vs serial sessions: the amortization claim of the
//! serving layer (`JustInTime::serve`).
//!
//! A batch of N users shares per-time-point move-hint extraction, the
//! training-time compiled domain constraints and the DDL-initialized
//! database template; serial sessions repeat the per-call share of that
//! work N times. On a multi-core host the per-user fan-out adds the
//! parallel win on top (bit-identical output either way).
//!
//! Run with: `cargo bench -p jit-bench --bench serving`

// Bench code: panics are the correct failure mode for a broken harness.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use jit_bench::{bench_generator, cold_jobs, serving_cohort, trained_system};
use std::hint::black_box;

fn bench_serving(c: &mut Criterion) {
    let (system, _) = trained_system(200, 2, true);
    let gen = bench_generator(200);
    let cohort = serving_cohort(&system, &gen, 8);
    assert_eq!(cohort.len(), 8, "cohort fixture must fill up");
    let jobs = cold_jobs(&cohort);

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("serial_sessions_8xT2", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for job in &jobs {
                let sessions =
                    system.serve(std::slice::from_ref(job), None).expect("session");
                total += sessions[0].candidates().len();
            }
            black_box(total)
        })
    });
    group.bench_function("batch_sessions_8xT2", |b| {
        b.iter(|| {
            let sessions = system.serve(black_box(&jobs), None).expect("batch");
            black_box(sessions.iter().map(|s| s.candidates().len()).sum::<usize>())
        })
    });
    // Returning users: the fingerprint diff replays unchanged time
    // points from stored snapshots instead of re-searching.
    let no_drift = jit_bench::returning_cohort(&system, &cohort);
    group.bench_function("reserve_no_drift_8xT2", |b| {
        b.iter(|| {
            let sessions = system.serve(black_box(&no_drift), None).expect("reserve");
            black_box(sessions.iter().map(|s| s.candidates().len()).sum::<usize>())
        })
    });
    let drifted = jit_bench::drifted_returning_cohort(&system, &cohort);
    group.bench_function("reserve_drift25_8xT2", |b| {
        b.iter(|| {
            let sessions = system.serve(black_box(&drifted), None).expect("reserve");
            black_box(sessions.iter().map(|s| s.candidates().len()).sum::<usize>())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
