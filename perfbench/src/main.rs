//! End-to-end benchmark of the JustInTime serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload applicant|traffic|retrain --seed N --seconds S --trace 0|1
//! ```
//!
//! Sets up several times — trains the serving system, brings up the TCP
//! tier and fills its caches; `setup_s` is the median — then runs the
//! workload's operations for `--seconds` seconds, closed or open loop,
//! and checks the served outputs against in-process serving.
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! With `--trace 0` the metrics are end to end: the median and 90th
//! percentile latency of one operation (`latency_p50_ms`,
//! `latency_p90_ms`), users served per second (`users_per_s`),
//! `setup_s`, and the process's peak resident memory (`peak_rss_mib`), so
//! that speed bought with bigger caches or stores shows. With
//! `--trace 1` spans are recorded around the calls into each layer (see
//! `trace.rs`) and the metrics are per-operation layer times and counts
//! instead. The workloads are described in `workloads.rs`.

mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;
use workloads::{Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {:?} needs a value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0 => {
            Ok(Args { workload, seed, seconds, trace })
        }
        _ => Err("usage: perfbench --workload applicant|traffic|retrain --seed N \
                  --seconds S --trace 0|1"
            .into()),
    }
}

/// Nearest-rank quantile of sorted samples, in milliseconds.
fn quantile_ms(sorted: &[Duration], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// The process's peak resident set size (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn report(outcome: &mut Outcome, trace: bool) -> Result<String, String> {
    outcome.latencies.sort();
    let lat = &outcome.latencies;
    eprintln!(
        "perfbench: {} ops ({} failed), {} users in {:.2}s, setup {:.3}s",
        outcome.attempted,
        outcome.failed,
        outcome.users,
        outcome.elapsed.as_secs_f64(),
        outcome.setup_s
    );
    let metrics: Vec<String> = if trace {
        let l = &outcome.layers;
        vec![
            metric("ingress_ms", l.ingress_ms, "ms"),
            metric("egress_ms", l.egress_ms, "ms"),
            metric("codec_ms", l.codec_ms, "ms"),
            metric("serve_ms", l.serve_ms, "ms"),
            metric("store_ms", l.store_ms, "ms"),
            metric("store_calls", l.store_calls, "count"),
            metric("cache_cells_per_user", outcome.cache_cells_per_user, "count"),
            metric("send_lag_ms", outcome.send_lag_ms, "ms"),
        ]
    } else {
        vec![
            metric("latency_p50_ms", quantile_ms(lat, 0.5), "ms"),
            metric("latency_p90_ms", quantile_ms(lat, 0.9), "ms"),
            metric(
                "users_per_s",
                outcome.users as f64 / outcome.elapsed.as_secs_f64(),
                "users/s",
            ),
            metric("setup_s", outcome.setup_s, "s"),
            metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ]
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct && outcome.failed == 0 && !lat.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match workloads::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(mut outcome) if outcome.attempted > 0 && !outcome.latencies.is_empty() => {
            match report(&mut outcome, args.trace) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(message) => {
                    eprintln!("perfbench: {message}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(_) => {
            eprintln!("perfbench: no operation completed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
