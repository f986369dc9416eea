//! Machine-readable perf snapshot for the `BENCH_*.json` trajectory
//! files, plus the CI perf-regression gate.
//!
//! Times the hot-path workloads the perf acceptance criteria track —
//! models-generator training (`future_models`), the end-to-end pipeline
//! (`pipeline`), the candidates search (`candidates`), multi-user
//! serving (`serve`), returning-user re-serving under the fingerprint
//! diff (`reserve`, no-drift and 25%-drift cohorts), the TCP serving
//! tier under a closed-loop load burst (`net`) and the synthetic
//! population workloads — a 1000-user cohort batch-served through the
//! sharded tier (shared cell cache vs no shared cache),
//! the recourse-invalidation refresh/classify loop and the
//! retrain → refresh-ahead → returning-user pass (`synth`) — and prints
//! one JSON object to stdout, so snapshots are reproducible with:
//!
//! ```text
//! cargo run --release -p jit-bench --bin perf_snapshot            # full
//! cargo run --release -p jit-bench --bin perf_snapshot -- --scale smoke
//! ```
//!
//! `--scale smoke` shrinks every workload (fewer records, trees, reps) so
//! CI can *run* the benches — not just compile them — in seconds.
//!
//! ## Threads sweep
//!
//! ```text
//! perf_snapshot --scale smoke --threads 1,2,4
//! ```
//!
//! re-runs the scaling-sensitive workloads (training, batch serving,
//! synthetic generation) once per requested thread count and emits a
//! sweep-only snapshot whose entries carry an `@tN` suffix, plus a
//! `"threads_sweep"` field. The sweep is a scaling-curve *artifact* —
//! thread counts above the runner's cores measure oversubscription, not
//! regressions — so it cannot be combined with `--check`.
//!
//! ## Regression gate
//!
//! ```text
//! perf_snapshot --scale smoke --check BENCH_3.json --tolerance 1.25
//! ```
//!
//! compares the fresh snapshot against the `"timings_ms"` block of the
//! given baseline file and **exits non-zero** when any benchmark present
//! in both regresses past `tolerance` (fresh `min` > baseline `min` ×
//! tolerance), or when a baseline entry is missing from the fresh run.
//! `min`-of-reps is compared because it is the noise-robust statistic
//! on shared CI runners; baselines below the `--floor` (default 1 ms)
//! are reported but not gated, since sub-ms timings are timer-noise
//! dominated across runner generations. The report goes to stderr so
//! stdout stays valid snapshot JSON for artifact upload.

// CLI tool: top-level unwraps abort with a message, which is the intended UX.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jit_bench::{
    bench_config, bench_generator, cold_jobs, drifted_returning_cohort, john_session,
    returning_cohort, serving_cohort, year_slices,
};
use jit_core::{Job, JustInTime, TimePointServe, UserRequest};
use jit_data::scenario::ScenarioSpec;
use jit_data::{LendingClubGenerator, SyntheticGenerator};
use jit_db::{DurableDatabase, MemFile, WalConfig};
use jit_ml::{Dataset, RandomForestParams};
use jit_service::invalidation::insight_digests;
use jit_service::loadgen::{self, LoadMode, LoadPlan};
use jit_service::net::{NetServer, NetServerConfig, ServeBackend};
use jit_service::{
    shard_index, CohortMember, DbSnapshotStore, JitService, MemorySnapshotStore,
    RefreshAheadOptions, ServeRequest, ShardedService, SnapshotStore,
};
use jit_temporal::future::{
    FutureModelsGenerator, FutureModelsParams, FuturePredictor,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy)]
struct Scale {
    name: &'static str,
    records_per_year: usize,
    n_trees: usize,
    horizon: usize,
    reps: usize,
    batch_users: usize,
}

const FULL: Scale = Scale {
    name: "full",
    records_per_year: 400,
    n_trees: 20,
    horizon: 4,
    reps: 5,
    batch_users: 8,
};

const SMOKE: Scale = Scale {
    name: "smoke",
    records_per_year: 60,
    n_trees: 6,
    horizon: 2,
    reps: 3,
    batch_users: 8,
};

/// Times `f` (`reps` samples after one warm-up); returns (mean_ms, min_ms).
fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> (f64, f64) {
    f();
    let mut total = 0.0;
    let mut min = f64::INFINITY;
    for _ in 0..reps {
        // jit-analyze: allow(no-wall-clock) — this binary exists to measure wall time; timings feed the perf report, not digests
        let start = Instant::now();
        f();
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        total += ms;
        min = min.min(ms);
    }
    (total / reps as f64, min)
}

struct Args {
    scale: Scale,
    check: Option<String>,
    tolerance: f64,
    floor_ms: f64,
    threads_sweep: Option<Vec<usize>>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_snapshot [--scale full|smoke] \
         [--check BASELINE.json [--tolerance RATIO] [--floor MS]] \
         [--threads N,N,...]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Args {
        scale: FULL,
        check: None,
        tolerance: 1.25,
        floor_ms: 1.0,
        threads_sweep: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                match argv.get(i + 1).map(String::as_str) {
                    Some("full") => out.scale = FULL,
                    Some("smoke") => out.scale = SMOKE,
                    _ => usage(),
                }
                i += 2;
            }
            "--check" => {
                let Some(path) = argv.get(i + 1) else { usage() };
                out.check = Some(path.clone());
                i += 2;
            }
            "--tolerance" => {
                let Some(t) = argv.get(i + 1).and_then(|t| t.parse::<f64>().ok())
                else {
                    usage()
                };
                if !(t.is_finite() && t >= 1.0) {
                    usage()
                }
                out.tolerance = t;
                i += 2;
            }
            "--floor" => {
                let Some(f) = argv.get(i + 1).and_then(|f| f.parse::<f64>().ok())
                else {
                    usage()
                };
                if !(f.is_finite() && f >= 0.0) {
                    usage()
                }
                out.floor_ms = f;
                i += 2;
            }
            "--threads" => {
                let Some(list) = argv.get(i + 1) else { usage() };
                let counts: Vec<usize> = list
                    .split(',')
                    .map(|t| t.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .unwrap_or_else(|_| usage());
                if counts.is_empty() || counts.contains(&0) {
                    usage()
                }
                out.threads_sweep = Some(counts);
                i += 2;
            }
            _ => usage(),
        }
    }
    // The sweep measures scaling curves, not regressions; gating one
    // against a flat baseline would be meaningless.
    if out.threads_sweep.is_some() && out.check.is_some() {
        usage()
    }
    out
}

/// Extracts `name -> min_ms` from the first `"timings_ms"` object of a
/// snapshot-shaped JSON file. A deliberately tiny scanner (the workspace
/// is dependency-free): entries look like
/// `"bench/name": { "mean": 1.23, "min": 1.11 }`.
fn parse_baseline_timings(text: &str) -> Vec<(String, f64)> {
    let Some(anchor) = text.find("\"timings_ms\"") else { return Vec::new() };
    let rest = &text[anchor..];
    let Some(open) = rest.find('{') else { return Vec::new() };
    let body = &rest[open + 1..];
    // The block ends at the first `}` that closes it; entry objects nest
    // exactly one level deep.
    let mut out = Vec::new();
    let mut depth = 1usize;
    let mut cursor = body;
    while depth > 0 {
        let Some(q) = cursor.find(['"', '{', '}']) else { break };
        match &cursor[q..=q] {
            "{" => {
                depth += 1;
                cursor = &cursor[q + 1..];
            }
            "}" => {
                depth -= 1;
                cursor = &cursor[q + 1..];
            }
            _ => {
                let after = &cursor[q + 1..];
                let Some(endq) = after.find('"') else { break };
                let key = &after[..endq];
                cursor = &after[endq + 1..];
                if depth == 1 && key.contains('/') {
                    // Benchmark entry: scan its object for "min".
                    if let Some(obj_end) = cursor.find('}') {
                        let obj = &cursor[..obj_end];
                        if let Some(min) = scan_number_field(obj, "\"min\"") {
                            out.push((key.to_string(), min));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Finds `"field": <number>` inside a flat object body.
fn scan_number_field(obj: &str, field: &str) -> Option<f64> {
    let at = obj.find(field)?;
    let after = &obj[at + field.len()..];
    let colon = after.find(':')?;
    let tail = after[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// The `"threads_available"` count a snapshot-shaped file records (top
/// level, or under `"machine"` in committed baselines), if any.
fn parse_baseline_threads(text: &str) -> Option<usize> {
    let at = text.find("\"threads_available\"")?;
    let (_, value) = text[at..].split_once(':')?;
    let value = value.trim_start();
    let end = value.find(|c: char| !c.is_ascii_digit()).unwrap_or(value.len());
    value[..end].parse().ok()
}

/// Compares fresh entries against a baseline file; returns the number of
/// gate failures and prints the gate report to stderr. A baseline taken
/// on a different core count draws a warning, never a failure.
fn check_regressions(
    entries: &[(String, f64, f64)],
    baseline_path: &str,
    tolerance: f64,
    floor_ms: f64,
) -> usize {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf gate: cannot read {baseline_path}: {e}");
            return 1;
        }
    };
    let baseline = parse_baseline_timings(&text);
    if baseline.is_empty() {
        eprintln!("perf gate: no \"timings_ms\" entries found in {baseline_path}");
        return 1;
    }
    eprintln!(
        "perf gate: baseline {baseline_path}, tolerance {tolerance}x, \
         floor {floor_ms} ms"
    );
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    if let Some(base) = parse_baseline_threads(&text).filter(|&base| base != threads) {
        eprintln!(
            "perf gate: WARNING: the baseline was taken with {base} threads \
             available, this runner has {threads}; timings may not compare"
        );
    }
    gate(entries, &baseline, tolerance, floor_ms)
}

/// The gate itself: one failure per fresh entry that regressed past
/// `tolerance` and per baseline entry the fresh run no longer produces
/// (a renamed or dropped workload must not leave the gate silently).
fn gate(
    entries: &[(String, f64, f64)],
    baseline: &[(String, f64)],
    tolerance: f64,
    floor_ms: f64,
) -> usize {
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (name, _, fresh_min) in entries {
        let Some((_, base_min)) =
            baseline.iter().find(|(base_name, _)| base_name == name)
        else {
            eprintln!("  [skip] {name} (not in baseline)");
            continue;
        };
        // Sub-floor baselines are timer-noise dominated (and magnify
        // cross-runner constant factors); report them without gating.
        if *base_min < floor_ms {
            eprintln!(
                "  [skip] {name} (baseline {base_min:.2} ms below the \
                 {floor_ms:.2} ms gate floor)"
            );
            continue;
        }
        compared += 1;
        let ratio = fresh_min / base_min;
        let verdict = if *fresh_min > base_min * tolerance {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "  [{verdict}] {name}: {fresh_min:.2} ms vs baseline {base_min:.2} ms \
             ({ratio:.2}x)"
        );
    }
    let mut missing = 0usize;
    for (name, _) in baseline {
        if !entries.iter().any(|(fresh_name, _, _)| fresh_name == name) {
            missing += 1;
            eprintln!("  [missing] {name} (in baseline, not produced by this run)");
        }
    }
    if compared == 0 {
        eprintln!("perf gate: no overlapping benchmarks — gate is vacuous, failing");
        return 1;
    }
    eprintln!(
        "perf gate: {compared} compared, {regressions} regressed past {tolerance}x, \
         {missing} missing"
    );
    regressions + missing
}

/// Prints the snapshot JSON document to stdout.
fn print_snapshot(
    scale: Scale,
    entries: &[(String, f64, f64)],
    sweep: Option<&[usize]>,
) {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!("{{");
    println!("  \"schema_version\": 1,");
    println!("  \"scale\": \"{}\",", scale.name);
    println!("  \"reps\": {},", scale.reps);
    println!("  \"threads_available\": {threads},");
    if let Some(counts) = sweep {
        let list: Vec<String> = counts.iter().map(usize::to_string).collect();
        println!("  \"threads_sweep\": [{}],", list.join(", "));
    }
    println!("  \"timings_ms\": {{");
    let n = entries.len();
    for (i, (name, mean, min)) in entries.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        println!("    \"{name}\": {{ \"mean\": {mean:.2}, \"min\": {min:.2} }}{comma}");
    }
    println!("  }}");
    println!("}}");
}

/// The `--threads` sweep: the scaling-sensitive workloads — forest
/// training, the amortized batch-serving layer and parallel synthetic
/// generation — once per requested thread count, with entries suffixed
/// `@tN` so a scaling curve can be read straight off the snapshot.
fn run_sweep(scale: Scale, thread_counts: &[usize]) {
    let mut entries: Vec<(String, f64, f64)> = Vec::new();
    let gen = bench_generator(scale.records_per_year.min(200));
    let slices = year_slices(&gen);
    let schema = gen.schema().clone();
    let h = scale.horizon;
    // Generation is microseconds per row; sweep a slice big enough for
    // the parallel dispatch to matter.
    let synth_rows =
        if scale.records_per_year >= FULL.records_per_year { 100_000 } else { 20_000 };
    let spec = ScenarioSpec::credit(0x5eed).with_rows_per_slice(synth_rows);
    for &t in thread_counts {
        let mut config = bench_config(h, true);
        config.threads = t;

        let (mean, min) = time_ms(scale.reps, || {
            let system = JustInTime::train(config.clone(), &schema, black_box(&slices))
                .expect("sweep training must succeed");
            black_box(system.models().len());
        });
        entries.push((format!("sweep/train_models_T{h}@t{t}"), mean, min));

        let system = JustInTime::train(config.clone(), &schema, &slices)
            .expect("sweep training must succeed");
        let n = 2 * scale.batch_users;
        let jobs = cold_jobs(&serving_cohort(&system, &gen, n));
        let (mean, min) = time_ms(scale.reps, || {
            let sessions = system.serve(black_box(&jobs), None).expect("sweep batch");
            black_box(sessions.iter().map(|s| s.candidates().len()).sum::<usize>());
        });
        entries.push((format!("sweep/batch_sessions_{n}xT{h}@t{t}"), mean, min));

        let synth = SyntheticGenerator::new(&spec, t);
        let present = synth.present_slice();
        let (mean, min) = time_ms(scale.reps, || {
            black_box(synth.slice(black_box(present)).len());
        });
        entries.push((format!("sweep/synth_slice_{synth_rows}x@t{t}"), mean, min));
    }
    print_snapshot(scale, &entries, Some(thread_counts));
}

fn main() {
    let args = parse_args();
    let scale = args.scale;
    if let Some(counts) = &args.threads_sweep {
        run_sweep(scale, counts);
        return;
    }
    let mut entries: Vec<(String, f64, f64)> = Vec::new();

    // --- future_models: models-generator training per predictor --------
    let gen = bench_generator(scale.records_per_year);
    let history: Vec<Dataset> = (2007..=2015)
        .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
        .collect();
    for (label, predictor) in [
        ("edd", FuturePredictor::Edd),
        ("param", FuturePredictor::ParamExtrapolation),
        ("frozen", FuturePredictor::Frozen),
    ] {
        let params = FutureModelsParams {
            horizon: scale.horizon,
            predictor,
            n_landmarks: 60,
            pool_slices: 4,
            forest: RandomForestParams { n_trees: scale.n_trees, ..Default::default() },
            seed: 7,
            ..Default::default()
        };
        let (mean, min) = time_ms(scale.reps, || {
            let models = FutureModelsGenerator::new(params.clone())
                .generate(black_box(&history))
                .expect("generation");
            black_box(models.len());
        });
        entries.push((
            format!("future_models/generate_{label}_T{}", scale.horizon),
            mean,
            min,
        ));
    }

    // --- pipeline: admin training + user session -----------------------
    let gen = bench_generator(scale.records_per_year.min(200));
    let slices = year_slices(&gen);
    let schema = gen.schema().clone();
    let config = bench_config(scale.horizon, true);
    let (mean, min) = time_ms(scale.reps, || {
        let system = JustInTime::train(config.clone(), &schema, black_box(&slices))
            .expect("train");
        black_box(system.models().len());
    });
    entries.push((format!("pipeline/train_models_T{}", scale.horizon), mean, min));

    let system_arc =
        Arc::new(JustInTime::train(config, &schema, &slices).expect("train"));
    let system = &*system_arc;
    let (mean, min) = time_ms(scale.reps, || {
        let session = john_session(black_box(system));
        black_box(session.candidates().len());
    });
    entries.push((format!("pipeline/user_session_T{}", scale.horizon), mean, min));

    // --- candidates: one generator run over the present model ----------
    let (mean, min) = time_ms(scale.reps, || {
        let session = john_session(black_box(system));
        black_box(session.run_all().expect("queries").len());
    });
    entries.push(("candidates/session_canned_queries".to_string(), mean, min));

    // --- serve: serial sessions vs the amortized batch layer -----------
    let cohort = serving_cohort(system, &gen, scale.batch_users);
    let jobs = cold_jobs(&cohort);
    let n = cohort.len();
    let (mean, min) = time_ms(scale.reps, || {
        let mut total = 0usize;
        for job in &jobs {
            let sessions =
                system.serve(std::slice::from_ref(job), None).expect("session");
            total += sessions[0].candidates().len();
        }
        black_box(total);
    });
    entries.push((format!("serve/serial_sessions_{n}xT{}", scale.horizon), mean, min));
    let (mean, min) = time_ms(scale.reps, || {
        let sessions = system.serve(black_box(&jobs), None).expect("batch");
        black_box(sessions.iter().map(|s| s.candidates().len()).sum::<usize>());
    });
    entries.push((format!("serve/batch_sessions_{n}xT{}", scale.horizon), mean, min));

    // --- reserve: returning users against the fingerprint diff ---------
    // No drift: every time point replays from the snapshots (the pure
    // refresh path). 25% drift: every fourth user returns with a changed
    // profile, so a quarter of the cohort's (user, t) pairs recompute.
    let no_drift = returning_cohort(system, &cohort);
    let (mean, min) = time_ms(scale.reps, || {
        let sessions = system.serve(black_box(&no_drift), None).expect("reserve");
        black_box(sessions.iter().map(|s| s.candidates().len()).sum::<usize>());
    });
    entries.push((format!("reserve/no_drift_{n}xT{}", scale.horizon), mean, min));
    let drifted = drifted_returning_cohort(system, &cohort);
    let (mean, min) = time_ms(scale.reps, || {
        let sessions = system.serve(black_box(&drifted), None).expect("reserve");
        black_box(sessions.iter().map(|s| s.candidates().len()).sum::<usize>());
    });
    entries.push((format!("reserve/drift25_{n}xT{}", scale.horizon), mean, min));

    // --- service: the typed front end (sharded dispatch + persisted
    //     snapshot refresh) ----------------------------------------------
    // Sharded mixed workload: a 2n-user population split across 4 shard
    // workers; each rep serves n fresh users (cold batch) and refreshes
    // the n returning ones from the per-shard stores in the same pass.
    let population: Vec<CohortMember> = serving_cohort(system, &gen, 2 * n)
        .into_iter()
        .enumerate()
        .map(|(i, request)| CohortMember::new(format!("svc-{i}"), request))
        .collect();
    let (returning_half, fresh_half) = population.split_at(n);
    let sharded = ShardedService::from_shared(Arc::clone(&system_arc), 4, 0, |_| {
        Arc::new(MemorySnapshotStore::new())
    });
    // First visit for the returning half, so their snapshots are stored.
    sharded.serve(ServeRequest::batch(returning_half.to_vec())).expect("warm-up serve");
    let returning_ids: Vec<String> =
        returning_half.iter().map(|m| m.user_id.clone()).collect();
    let (mean, min) = time_ms(scale.reps, || {
        let cold = sharded
            .serve(ServeRequest::batch(black_box(fresh_half.to_vec())))
            .expect("sharded batch");
        let warm = sharded
            .serve(ServeRequest::refresh(black_box(returning_ids.clone())))
            .expect("sharded refresh");
        black_box(cold.report.cold_time_points + warm.report.replayed_time_points);
    });
    entries.push((
        format!("service/sharded_mixed_{}xT{}", 2 * n, scale.horizon),
        mean,
        min,
    ));

    // Persisted refresh: snapshots live as SQL rows in a jit-db-backed
    // store; each rep loads them through the SQL engine and replays.
    let db_service = JitService::with_shared(
        Arc::clone(&system_arc),
        Arc::new(
            DbSnapshotStore::in_new_database(&schema).expect("snapshot store opens"),
        ),
    );
    db_service
        .serve(ServeRequest::batch(returning_half.to_vec()))
        .expect("populate persisted store");
    let (mean, min) = time_ms(scale.reps, || {
        let warm = db_service
            .serve(ServeRequest::refresh(black_box(returning_ids.clone())))
            .expect("persisted refresh");
        black_box(warm.report.replayed_time_points);
    });
    entries.push((format!("service/db_refresh_{n}xT{}", scale.horizon), mean, min));

    // --- db: the durable commit path in isolation ------------------------
    // Re-save the same n snapshots through a WAL-backed store over an
    // in-memory log: each save is one validate+encode+append+apply
    // commit, so this tracks the write-ahead-log overhead itself without
    // session-compute noise. (The log grows across reps and periodically
    // checkpoint-compacts, exactly as a long-lived serving process sees.)
    let snapshots: Vec<_> = returning_ids
        .iter()
        .map(|id| {
            let snapshot = db_service
                .store()
                .load(id)
                .expect("loadable")
                .expect("populated above");
            (id.clone(), snapshot)
        })
        .collect();
    let (wal, _) =
        DurableDatabase::open(Arc::new(MemFile::new()), WalConfig::default())
            .expect("in-memory WAL opens");
    let durable_store =
        DbSnapshotStore::open_durable(Arc::new(wal), &schema).expect("durable store");
    let (mean, min) = time_ms(scale.reps, || {
        for (id, snapshot) in &snapshots {
            durable_store.save(id, black_box(snapshot)).expect("durable save");
        }
        black_box(durable_store.wal().expect("durable").wal_bytes_logged());
    });
    entries.push((format!("db/wal_commit_{n}xT{}", scale.horizon), mean, min));

    // --- net: the TCP serving tier under a closed-loop burst ------------
    // The in-process sharded dispatcher behind the real wire protocol on
    // loopback: each rep drives 2 connections × 2 rounds of 4-user
    // batches (16 users) through framing, admission control and dispatch
    // end to end. (The OS-process backend needs the jit-shardd binary,
    // which a bench bin cannot assume is built; the wire + queue + TCP
    // cost this entry tracks is identical either way.)
    let net_backend: Arc<dyn ServeBackend> =
        Arc::new(ShardedService::from_shared(Arc::clone(&system_arc), 2, 0, |_| {
            Arc::new(MemorySnapshotStore::new())
        }));
    let server =
        NetServer::bind(net_backend, "127.0.0.1:0", NetServerConfig::default())
            .expect("bind loopback");
    let plan =
        LoadPlan { connections: 2, rounds: 2, cohort: 4, mode: LoadMode::Closed };
    let (mean, min) = time_ms(scale.reps, || {
        let report = loadgen::run(server.addr(), &schema, &plan).expect("load run");
        assert_eq!(report.failed + report.shed, 0, "loopback burst must not fail");
        black_box(report.users_served);
    });
    entries.push((format!("net/loadgen_16xT{}", scale.horizon), mean, min));
    server.shutdown();

    // --- synth: population-scale serving + recourse invalidation --------
    // The registry's credit scenario at serving scale: a deterministic
    // 1000-user cohort batch-served through the sharded tier, then the
    // invalidation hot loop — refresh the cohort through a system
    // retrained one drift step later and classify every (user, t) pair
    // against its served insight fingerprints. These are the inner
    // loops of `jit-scenariorun --smoke`, isolated from training noise.
    let spec = ScenarioSpec::credit(0x5eed)
        .with_rows_per_slice(scale.records_per_year)
        .with_cohort_size(1_000);
    let synth = SyntheticGenerator::new(&spec, 0);
    let mut synth_config = bench_config(scale.horizon, true);
    synth_config.start_year = spec.start_year;
    let mut serve_config = synth_config.clone();
    let system_a = Arc::new(
        JustInTime::train(synth_config, synth.schema(), &synth.history(0))
            .expect("synth training must succeed"),
    );
    let members: Vec<CohortMember> = synth
        .cohort()
        .iter()
        .map(|u| CohortMember::new(&u.user_id, UserRequest::new(u.profile.clone())))
        .collect();
    let ids: Vec<String> = members.iter().map(|m| m.user_id.clone()).collect();
    let jobs: Vec<Job> = members.iter().map(|m| m.request.clone().into()).collect();

    // Setup (untimed): the served insight fingerprints, the snapshots to
    // seed each rep's store with, and the one-drift-step-later system.
    // The setup serve deliberately runs without a shared cell cache: one
    // populated here would hold ~1k users' cells through every timed
    // section below and distort them (this one-core tier is acutely
    // sensitive to resident heap).
    let (prior, seeded) = {
        let sessions = system_a.serve(&jobs, None).expect("synth baseline serve");
        let prior: HashMap<String, Vec<_>> = ids
            .iter()
            .zip(&sessions)
            .map(|(id, s)| (id.clone(), insight_digests(s, scale.horizon)))
            .collect();
        let seeded: Vec<_> = ids
            .iter()
            .zip(&sessions)
            .map(|(id, s)| (id.clone(), s.snapshot()))
            .collect();
        (prior, seeded)
    };
    let system_b =
        Arc::new(system_a.retrain(&synth.history(1)).expect("synth retrain"));
    // Each rep refreshes against a fresh store seeded with the step-0
    // snapshots — otherwise the first refresh would overwrite them and
    // later reps would replay instead of recompute.
    let (mean, min) = time_ms(scale.reps, || {
        let store: Arc<dyn SnapshotStore> = Arc::new(MemorySnapshotStore::new());
        for (id, snap) in &seeded {
            store.save(id, snap).expect("seed save");
        }
        let service_b =
            ShardedService::from_shared(Arc::clone(&system_b), 4, 0, |_| {
                Arc::clone(&store)
            });
        let response = service_b
            .serve(ServeRequest::refresh(black_box(ids.clone())))
            .expect("synth refresh");
        let mut overturned = 0usize;
        for served in &response.users {
            let fresh = insight_digests(&served.session, scale.horizon);
            let before = &prior[&served.user_id];
            let report = served
                .session
                .reserve_report()
                .expect("refreshed sessions carry a reserve report");
            for (t, tp) in report.iter().enumerate() {
                if matches!(tp, TimePointServe::Recomputed) && fresh[t] != before[t] {
                    overturned += 1;
                }
            }
        }
        black_box(overturned);
    });
    entries.push((format!("synth/invalidation_1kxT{}", scale.horizon), mean, min));

    // The proactive re-serve pass: each rep seeds per-shard stores with
    // the step-0 snapshots, hands stores and cell caches to the
    // retrained system (`next_generation`), runs the refresh-ahead
    // sweep, then refreshes the returning cohort — which must replay
    // every time point, because the sweep pre-paid every recompute.
    let (mean, min) = time_ms(scale.reps, || {
        let stores: Vec<Arc<dyn SnapshotStore>> =
            (0..4).map(|_| Arc::new(MemorySnapshotStore::new()) as _).collect();
        for (id, snap) in &seeded {
            stores[shard_index(id, 4)].save(id, snap).expect("seed save");
        }
        let prior = ShardedService::from_shared(Arc::clone(&system_a), 4, 0, |s| {
            Arc::clone(&stores[s])
        });
        let service_b =
            ShardedService::next_generation(Arc::clone(&system_b), 0, &prior);
        let pass = service_b
            .refresh_ahead(&system_a, &RefreshAheadOptions::default())
            .expect("refresh-ahead pass");
        let returning = service_b
            .serve(ServeRequest::refresh(black_box(ids.clone())))
            .expect("returning cohort");
        assert_eq!(
            returning.report.recomputed_time_points, 0,
            "refresh-ahead must leave returning users on the replay path"
        );
        black_box(pass.refreshed + returning.report.replayed_time_points);
    });
    entries.push((format!("synth/refresh_ahead_1kxT{}", scale.horizon), mean, min));

    // The serve pair runs last — its serving-scale ensemble and populated
    // cell caches hold hundreds of MB, which would degrade locality for
    // every workload timed after them on this one-core tier.
    //
    // It uses a serving-scale ensemble because cell sharing trades a map
    // probe for a `predict_proba`, so it only pays when predicts dominate
    // the search — which they do for production-size forests but not for
    // the tiny trees the rest of the smoke tier uses (there a probe costs
    // about as much as the predict it saves, and the pair would measure
    // allocator noise). 96 trees keeps the pair in the predict-dominated
    // regime at both scales; training stays trivial.
    serve_config.future.forest =
        RandomForestParams { n_trees: 96, ..Default::default() };
    let system_serve = Arc::new(
        JustInTime::train(serve_config, synth.schema(), &synth.history(0))
            .expect("synth serving-scale training must succeed"),
    );
    // Steady-state population serving through the sharded tier: the
    // service — and with it each shard's cell cache — persists across
    // reps, so after the warm-up pass the timed passes measure batch
    // serving with the shard-level cross-user cache populated. This is
    // the "after" column; synth/serve_unshared_1k is "before".
    let service_serve =
        ShardedService::from_shared(Arc::clone(&system_serve), 4, 0, |_| {
            Arc::new(MemorySnapshotStore::new()) as _
        });
    let (mean, min) = time_ms(scale.reps, || {
        let response = service_serve
            .serve(ServeRequest::batch(black_box(members.clone())))
            .expect("synth batch serve");
        black_box(response.report.cold_time_points);
    });
    entries.push((format!("synth/serve_1kxT{}", scale.horizon), mean, min));

    // The same cohort and model through `JustInTime::serve` without a
    // shared cell cache (no cross-user or cross-batch cell sharing) — the
    // "before" column of the shared-cache speedup that synth/serve_1k
    // measures "after".
    let (mean, min) = time_ms(scale.reps, || {
        let sessions =
            system_serve.serve(black_box(&jobs), None).expect("unshared batch");
        black_box(sessions.iter().map(|s| s.candidates().len()).sum::<usize>());
    });
    entries.push((format!("synth/serve_unshared_1kxT{}", scale.horizon), mean, min));

    // --- JSON out -------------------------------------------------------
    print_snapshot(scale, &entries, None);

    // --- perf gate ------------------------------------------------------
    if let Some(baseline) = &args.check {
        let regressions =
            check_regressions(&entries, baseline, args.tolerance, args.floor_ms);
        if regressions > 0 {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{gate, parse_baseline_threads};

    fn entry(name: &str, min: f64) -> (String, f64, f64) {
        (name.to_string(), min, min)
    }

    fn base(name: &str, min: f64) -> (String, f64) {
        (name.to_string(), min)
    }

    #[test]
    fn baseline_entries_missing_from_the_run_fail_the_gate() {
        let baseline = [base("a/x", 10.0), base("a/y", 10.0), base("a/tiny", 0.1)];
        let all = [entry("a/x", 11.0), entry("a/y", 9.0), entry("a/tiny", 5.0)];
        assert_eq!(gate(&all, &baseline, 1.25, 1.0), 0);
        // A regression past tolerance fails once.
        let slow = [entry("a/x", 13.0), entry("a/y", 9.0), entry("a/tiny", 0.1)];
        assert_eq!(gate(&slow, &baseline, 1.25, 1.0), 1);
        // A renamed entry fails as missing, even below the floor; a new
        // entry the baseline lacks does not fail.
        let renamed = [entry("a/x", 10.0), entry("a/y", 10.0), entry("a/tiny2", 0.1)];
        assert_eq!(gate(&renamed, &baseline, 1.25, 1.0), 1);
        let dropped = [entry("a/x", 10.0)];
        assert_eq!(gate(&dropped, &baseline, 1.25, 1.0), 2);
        // Nothing comparable is a failure, not a pass.
        assert_eq!(gate(&[entry("b/z", 1.0)], &baseline, 1.25, 1.0), 1);
    }

    #[test]
    fn baseline_thread_counts_parse_at_top_level_or_under_machine() {
        let top =
            "{\n  \"reps\": 3,\n  \"threads_available\": 16,\n  \"timings_ms\": {}";
        assert_eq!(parse_baseline_threads(top), Some(16));
        let nested = "{ \"machine\": { \"note\": \"x\", \"threads_available\": 2, \
                      \"profile\": \"release\" }, \"timings_ms\": {} }";
        assert_eq!(parse_baseline_threads(nested), Some(2));
        assert_eq!(parse_baseline_threads("{ \"timings_ms\": {} }"), None);
        assert_eq!(parse_baseline_threads("{ \"threads_available\": \"two\" }"), None);
    }
}
