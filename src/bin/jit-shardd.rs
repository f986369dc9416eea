//! `jit-shardd` — the shard worker / serving daemon.
//!
//! Two modes:
//!
//! * **worker mode** (default, no flags): speak the `jit-service` wire
//!   protocol over **stdin/stdout** — the mode
//!   [`jit_service::ProcessShardBackend`] launches. The worker reads a
//!   `Hello(TrainSpec)` frame, trains the (bit-deterministic) system,
//!   answers `Ready { schema_digest }`, then serves `Serve`/`Ping`
//!   frames until `Shutdown` or EOF. It is stateless: snapshots are
//!   resolved and persisted by the supervisor.
//! * **`--listen ADDR`**: stand up the whole networked tier in one
//!   process — train from the CLI-provided spec, spawn shard worker
//!   processes (this same binary in worker mode), and serve TCP via
//!   [`jit_service::NetServer`]. Prints `LISTENING <addr>` on stdout,
//!   then runs until stdin reaches EOF.
//!
//! ```text
//! jit-shardd                              # worker mode (for supervisors)
//! jit-shardd --listen 127.0.0.1:0 \
//!            --shards 2 [--records 120 --years 4] [--workers 2]
//! ```

// CLI tool: top-level unwraps abort with a message, which is the intended UX.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jit_service::supervisor::serve_frames;
use jit_service::{
    DataSpec, MemorySnapshotStore, NetServer, NetServerConfig, ProcessShardBackend,
    ProcessShardConfig, TrainSpec,
};
use std::io::{self, BufReader, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return worker_mode();
    }
    match listen_mode(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("jit-shardd: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The stdin/stdout frame loop (see the module docs).
fn worker_mode() -> ExitCode {
    let mut stdin = BufReader::new(io::stdin().lock());
    let mut stdout = io::stdout().lock();
    match serve_frames(&mut stdin, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("jit-shardd worker: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--listen`: full TCP tier over shard worker processes.
fn listen_mode(args: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut shards = 2usize;
    let mut workers = 2usize;
    let mut data = DataSpec::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value")).cloned()
        };
        match flag.as_str() {
            "--listen" => addr = Some(value("--listen")?),
            "--shards" => shards = parse(&value("--shards")?, "--shards")?,
            "--workers" => workers = parse(&value("--workers")?, "--workers")?,
            "--records" => {
                data.records_per_year = parse(&value("--records")?, "--records")?
            }
            "--years" => data.n_years = parse(&value("--years")?, "--years")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let addr = addr.ok_or("worker mode takes no flags; use --listen ADDR")?;
    let spec = TrainSpec { data, config: jit_core::AdminConfig::default() };

    let shardd = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let backend = ProcessShardBackend::spawn(
        spec,
        ProcessShardConfig::new(shardd, shards.max(1)),
        |_| Arc::new(MemorySnapshotStore::new()),
    )
    .map_err(|e| format!("shard spawn: {e}"))?;
    let server = NetServer::bind(
        Arc::new(backend),
        &addr,
        NetServerConfig { workers, ..Default::default() },
    )
    .map_err(|e| format!("bind {addr}: {e}"))?;
    println!("LISTENING {}", server.addr());
    io::stdout().flush().ok();

    // Run until the launcher closes our stdin (portable lifetime
    // management without signal handling).
    let mut sink = Vec::new();
    let _ = io::stdin().lock().read_to_end(&mut sink);
    server.shutdown();
    Ok(())
}

fn parse(value: &str, flag: &str) -> Result<usize, String> {
    value.parse().map_err(|_| format!("{flag}: {value:?} is not a number"))
}
