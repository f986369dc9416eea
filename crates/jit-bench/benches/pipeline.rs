//! F1 (Figure 1) + E3: end-to-end pipeline timing and the parallel
//! candidate-generator speedup claim (§II-B: "The generators are
//! independent of each other, and thus they can be executed in parallel").
//!
//! Run with: `cargo bench -p jit-bench --bench pipeline`

// Bench code: panics are the correct failure mode for a broken harness.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jit_bench::{bench_config, bench_generator, john_session, year_slices};
use jit_core::JustInTime;
use std::hint::black_box;
use std::time::Instant;

/// F1: admin-side training (models generator) at demo scale.
fn bench_training(c: &mut Criterion) {
    let gen = bench_generator(200);
    let slices = year_slices(&gen);
    let schema = gen.schema().clone();
    let mut group = c.benchmark_group("f1_pipeline");
    group.sample_size(10);
    group.bench_function("train_models_T4", |b| {
        b.iter(|| {
            let system =
                JustInTime::train(bench_config(4, false), &schema, black_box(&slices))
                    .expect("train");
            black_box(system.models().len())
        })
    });
    group.finish();
}

/// F1: user-side session (candidate generation + DB population).
fn bench_session(c: &mut Criterion) {
    let gen = bench_generator(200);
    let slices = year_slices(&gen);
    let schema = gen.schema().clone();
    let system =
        JustInTime::train(bench_config(4, false), &schema, &slices).expect("train");
    let mut group = c.benchmark_group("f1_pipeline");
    group.sample_size(10);
    group.bench_function("user_session_T4", |b| {
        b.iter(|| {
            let session = john_session(black_box(&system));
            black_box(session.candidates().len())
        })
    });
    group.bench_function("canned_catalogue_T4", |b| {
        let session = john_session(&system);
        b.iter(|| black_box(session.run_all().expect("queries run").len()))
    });
    group.finish();
}

/// E3: serial vs parallel per-time-point generators, T ∈ {4, 8}.
fn bench_parallel_generators(c: &mut Criterion) {
    let gen = bench_generator(200);
    let slices = year_slices(&gen);
    let schema = gen.schema().clone();

    // Shape table printed once for EXPERIMENTS.md.
    eprintln!("\n[E3] per-time-point generators: serial vs parallel wall-clock");
    eprintln!("{:<6} {:>12} {:>12} {:>8}", "T", "serial_ms", "parallel_ms", "ratio");
    for horizon in [4usize, 8] {
        let serial = JustInTime::train(bench_config(horizon, false), &schema, &slices)
            .expect("train");
        let parallel = JustInTime::train(bench_config(horizon, true), &schema, &slices)
            .expect("train");
        let time_it = |system: &JustInTime| {
            let start = Instant::now();
            for _ in 0..3 {
                black_box(john_session(system).candidates().len());
            }
            start.elapsed().as_secs_f64() * 1000.0 / 3.0
        };
        let t_serial = time_it(&serial);
        let t_parallel = time_it(&parallel);
        eprintln!(
            "{:<6} {:>12.1} {:>12.1} {:>8.2}",
            horizon,
            t_serial,
            t_parallel,
            t_serial / t_parallel
        );
    }

    let mut group = c.benchmark_group("e3_parallel_generators");
    group.sample_size(10);
    for horizon in [4usize, 8] {
        for (label, par) in [("serial", false), ("parallel", true)] {
            let system =
                JustInTime::train(bench_config(horizon, par), &schema, &slices)
                    .expect("train");
            group.bench_with_input(
                BenchmarkId::new(label, horizon),
                &system,
                |b, system| {
                    b.iter(|| black_box(john_session(system).candidates().len()))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_training, bench_session, bench_parallel_generators);
criterion_main!(benches);
