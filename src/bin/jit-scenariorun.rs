//! `jit-scenariorun` — drive a registered scenario through the sharded
//! serving tier and report recourse invalidation under drift.
//!
//! The population-scale companion to `jit-loadgen`: where loadgen
//! exercises the network tier with small cohorts, this bin generates a
//! whole synthetic population from a [`ScenarioRegistry`] entry, serves
//! it through `ShardedService`, advances the scenario's drift schedule
//! (retraining per step) and prints the [`InvalidationRun`] as JSON.
//!
//! ```text
//! jit-scenariorun --list
//! jit-scenariorun --digest [--scenario NAME] [--users N] [--threads N]
//! jit-scenariorun [--scenario NAME] [--users N] [--shards N] [--steps N]
//!                 [--threads N] [--smoke] [--check FILE]
//! ```
//!
//! * **`--smoke`** is what CI runs under a hard timeout: smoke-scale
//!   training parameters, 10 000 users by default, deterministic seed.
//!   It hard-asserts the run's internal invariants (the no-drift
//!   control refresh must replay every `(user, t)` pair; every step's
//!   counts must balance) and exits non-zero on any violation.
//! * **`--check FILE`** additionally compares the run's invalidation
//!   counts against a committed expectation (`SCENARIO_SMOKE.json`) and
//!   exits non-zero on any mismatch — the generator and the serving
//!   stack are bit-deterministic, so equality is exact.
//! * **`--digest`** prints only the generated population's digest
//!   (history slices + cohort, every bit), used by the determinism
//!   suite to compare two independent processes.

// CLI tool: top-level unwraps abort with a message, which is the intended UX.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jit_core::{AdminConfig, CandidateParams};
use jit_data::scenario::{ScenarioRegistry, Workload};
use jit_math::digest::DigestWriter;
use jit_ml::RandomForestParams;
use jit_service::{run_invalidation, InvalidationOptions, InvalidationRun};
use jit_temporal::future::FutureModelsParams;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("jit-scenariorun: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut scenario = "synth/credit".to_string();
    let mut users: Option<usize> = None;
    let mut shards = 4usize;
    let mut steps: Option<usize> = None;
    let mut threads = 0usize;
    let mut smoke = false;
    let mut digest_only = false;
    let mut list = false;
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value")).cloned()
        };
        match flag.as_str() {
            "--list" => list = true,
            "--digest" => digest_only = true,
            "--smoke" => smoke = true,
            "--scenario" => scenario = value("--scenario")?,
            "--users" => users = Some(parse(&value("--users")?, "--users")?),
            "--shards" => shards = parse(&value("--shards")?, "--shards")?,
            "--steps" => steps = Some(parse(&value("--steps")?, "--steps")?),
            "--threads" => threads = parse(&value("--threads")?, "--threads")?,
            "--check" => check = Some(value("--check")?),
            "--help" | "-h" => {
                eprintln!(
                    "usage: jit-scenariorun [--list | --digest] \
                     [--scenario NAME] [--users N] [--shards N] [--steps N] \
                     [--threads N] [--smoke] [--check FILE]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    let registry = ScenarioRegistry::builtin();
    if list {
        for (name, workload) in registry.iter() {
            println!(
                "{name:<20} horizon={} drift_steps={} cohort={} users",
                workload.horizon(),
                workload.drift_steps(),
                workload.cohort(threads.max(1)).len(),
            );
        }
        return Ok(());
    }

    let mut workload = registry.get(&scenario).cloned().ok_or_else(|| {
        format!(
            "unknown scenario {scenario:?}; registered: {}",
            registry.names().join(", ")
        )
    })?;
    if smoke && users.is_none() {
        users = Some(10_000);
    }
    if let Some(n) = users {
        workload = workload.with_cohort_size(n);
    }
    if let Some(k) = steps {
        workload = workload.with_drift_steps(k);
    }

    if digest_only {
        println!("{}", population_digest(&workload, threads));
        return Ok(());
    }

    let opts = InvalidationOptions {
        config: if smoke { smoke_config(threads) } else { full_config(threads) },
        shards,
        dispatch_threads: threads,
        ..Default::default()
    };
    let run = run_invalidation(&workload, &opts).map_err(|e| e.to_string())?;
    eprintln!("{run}");
    println!("{}", run.to_json());

    if smoke || check.is_some() {
        assert_invariants(&run)?;
        // Every class is printed unconditionally — a zero count is a
        // real measurement (e.g. fully-pinned or fully-drifted steps),
        // and smoke diffs must stay line-stable when one class empties.
        for report in &run.reports {
            eprintln!(
                "smoke: step {}: replayed={} surviving={} overturned={}",
                report.step,
                report.replayed(),
                report.surviving(),
                report.overturned(),
            );
        }
    }
    if let Some(path) = check {
        let expected = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        check_expectation(&run, &expected)?;
        eprintln!("jit-scenariorun: counts match {path}");
    }
    Ok(())
}

/// Smoke-scale training/search parameters (CI-sized, like the perf
/// gate's smoke scale).
fn smoke_config(threads: usize) -> AdminConfig {
    AdminConfig {
        future: FutureModelsParams {
            n_landmarks: 30,
            pool_slices: 3,
            forest: RandomForestParams { n_trees: 6, ..Default::default() },
            ..Default::default()
        },
        candidates: CandidateParams {
            beam_width: 4,
            max_iters: 3,
            top_k: 4,
            ..Default::default()
        },
        threads,
        ..Default::default()
    }
}

/// Full-scale parameters (bench-sized forests and beams).
fn full_config(threads: usize) -> AdminConfig {
    AdminConfig {
        future: FutureModelsParams {
            n_landmarks: 40,
            pool_slices: 3,
            forest: RandomForestParams { n_trees: 20, ..Default::default() },
            ..Default::default()
        },
        candidates: CandidateParams {
            beam_width: 6,
            max_iters: 4,
            top_k: 6,
            ..Default::default()
        },
        threads,
        ..Default::default()
    }
}

/// Digest of the workload's generated population (step-0 history slices
/// plus the cohort), bit for bit — the two-process determinism basis.
fn population_digest(workload: &Workload, threads: usize) -> String {
    let mut w = DigestWriter::new("jit-scenariorun/population");
    w.write_digest(workload.content_digest());
    for slice in workload.history(0, threads) {
        w.write_usize(slice.len());
        for i in 0..slice.len() {
            w.write_f64s(slice.row(i));
            w.write_bool(slice.label(i));
        }
    }
    let cohort = workload.cohort(threads);
    w.write_usize(cohort.len());
    for user in &cohort {
        w.write_str(&user.user_id);
        w.write_f64s(&user.profile);
    }
    w.finish().to_hex()
}

/// The run's internal invariants: determinism says the no-drift control
/// replays everything, and every step classifies every pair exactly
/// once.
fn assert_invariants(run: &InvalidationRun) -> Result<(), String> {
    let pairs = run.users * (run.horizon + 1);
    if let Some(replayed) = run.control_replayed {
        if replayed != pairs {
            return Err(format!(
                "control refresh replayed {replayed} of {pairs} time points — \
                 the serving stack is not deterministic"
            ));
        }
    }
    for report in &run.reports {
        if report.time_points() != pairs {
            return Err(format!(
                "step {} classified {} of {pairs} time points",
                report.step,
                report.time_points(),
            ));
        }
    }
    Ok(())
}

/// Compares the run's counts against the committed expectation document
/// (itself a previous run's JSON output).
fn check_expectation(run: &InvalidationRun, expected: &str) -> Result<(), String> {
    let want_users = extract_usize(expected, "users")
        .ok_or("expectation file has no \"users\" field")?;
    if run.users != want_users {
        return Err(format!("users: ran {} vs expected {want_users}", run.users));
    }
    if let Some(want) = extract_usize(expected, "control_replayed") {
        let got = run.control_replayed.unwrap_or(0);
        if got != want {
            return Err(format!("control_replayed: ran {got} vs expected {want}"));
        }
    }
    // One `{ "step": .. }` object per drift step, in order.
    let mut steps_seen = 0;
    for object in expected.split('{').filter(|o| o.contains("\"step\"")) {
        let step = extract_usize(object, "step")
            .ok_or("malformed step object in expectation file")?;
        let report = run
            .reports
            .iter()
            .find(|r| r.step == step)
            .ok_or_else(|| format!("expectation has step {step}, run does not"))?;
        for (field, got) in [
            ("replayed", report.replayed()),
            ("overturned", report.overturned()),
            ("surviving", report.surviving()),
        ] {
            let want = extract_usize(object, field)
                .ok_or_else(|| format!("step {step} missing {field:?}"))?;
            if got != want {
                return Err(format!(
                    "step {step} {field}: ran {got} vs expected {want}"
                ));
            }
        }
        steps_seen += 1;
    }
    if steps_seen != run.reports.len() {
        return Err(format!(
            "expectation covers {steps_seen} steps, run produced {}",
            run.reports.len()
        ));
    }
    Ok(())
}

/// Extracts the first `"key": <integer>` occurrence from a JSON
/// fragment (the expectation files are this bin's own stable output, so
/// a scanner is enough — same approach as the perf gate's baseline
/// parser).
fn extract_usize(json: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = json[at + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse(value: &str, flag: &str) -> Result<usize, String> {
    value.parse().map_err(|_| format!("{flag}: {value:?} is not a number"))
}
