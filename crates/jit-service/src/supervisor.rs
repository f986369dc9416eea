//! The OS-process shard backend and its supervisor.
//!
//! [`ProcessShardBackend`] is the out-of-process twin of
//! [`crate::ShardedService`]: it launches one `jit-shardd` worker
//! *process* per shard and speaks the [`crate::wire`] protocol over the
//! workers' stdin/stdout pipes. Both tiers serve through the same router
//! ([`crate::sharded`]): the same jump-hash placement, the same
//! earliest-failing-user error, the same request-order reassembly and
//! the same save step. Responses are therefore bit-identical to the
//! in-process tier and to a single unsharded [`crate::JitService`]
//! (locked by `tests/determinism.rs`). This module adds the shard step,
//! one request/reply exchange with the shard's worker process, and the
//! worker's side of that exchange, [`serve_frames`].
//!
//! ## Shard processes are stateless
//!
//! A shard worker trains its system from the wire-carried [`TrainSpec`]
//! (training is bit-deterministic, so every worker — and every
//! *restarted* worker — reaches the same system) and then serves pure
//! compute: requests in, owned responses out. The authoritative
//! [`crate::SnapshotStore`]s live **in the supervisor**, one per shard:
//! the shard step resolves a [`ServeRequest::Refresh`] from the shard's
//! store and sends the snapshots inline, and the router saves the
//! returned snapshots once every shard has succeeded. A `kill -9`'d
//! shard therefore loses nothing — the store survives in the parent, the
//! replacement process retrains the identical system, and the next
//! `Refresh` replays bit-for-bit.
//!
//! The cross-user cell cache ([`jit_core::SharedCellCache`]) is part of
//! that stateless compute: each worker owns its cache inside the worker
//! process, so a respawn starts the replacement cold. That is a warmth
//! loss only — cached cells are memoized recomputation, never inputs —
//! so restarted shards stay bit-identical, just briefly slower until the
//! cache re-fills.
//!
//! ## Supervision contract
//!
//! Failure detection is **on use**: a broken pipe or early EOF while
//! talking to a shard marks it dead, kills and reaps the child, and
//! fails the in-flight request with [`ServeError::Shard`] naming the
//! earliest affected user — all-or-nothing, exactly like any other
//! per-user serving failure. Respawn is lazy and synchronous: the next
//! request to touch the shard (or an explicit
//! [`ProcessShardBackend::ensure_healthy`]) spawns a replacement,
//! re-runs the `Hello`/`Ready` handshake and verifies the schema digest
//! before any traffic. No background threads, no timers — supervision is
//! deterministic and testable by polling [`ProcessShardBackend::health`]
//! with a deadline.

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::api::{ServeError, ServeRequest, ServeResponse};
use crate::net::ServeBackend;
use crate::service::serve_jobs;
use crate::sharded::{fold_report, resolve_refresh, serve_sharded, shard_index};
use crate::store::SnapshotStore;
use crate::wire::{
    self, Message, WireReport, WireResponse, WireServedUser, MAX_FRAME_LEN,
};
use jit_core::{AdminConfig, JustInTime, SharedCellCache, TrainError};
use jit_data::{FeatureSchema, LendingClubGenerator, LendingClubParams};
use jit_ml::Dataset;
use parking_lot::Mutex;
use std::fmt;
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The synthetic-data half of a [`TrainSpec`]: which Lending-Club
/// history every shard regenerates before training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataSpec {
    /// Applications generated per year.
    pub records_per_year: usize,
    /// Number of yearly slices (taken from the start of the generator's
    /// year range).
    pub n_years: usize,
    /// Generator seed; the default matches
    /// [`LendingClubParams::default`].
    pub seed: u64,
}

impl Default for DataSpec {
    fn default() -> Self {
        DataSpec {
            records_per_year: 120,
            n_years: 4,
            seed: LendingClubParams::default().seed,
        }
    }
}

impl DataSpec {
    /// Regenerates the schema and training slices this spec describes —
    /// bit-identical in every process, which is what lets shard workers
    /// train independently yet identically.
    pub fn slices(&self) -> (FeatureSchema, Vec<Dataset>) {
        let gen = LendingClubGenerator::new(LendingClubParams {
            records_per_year: self.records_per_year.max(1),
            seed: self.seed,
            ..Default::default()
        });
        let schema = gen.schema().clone();
        let slices = gen
            .years()
            .into_iter()
            .take(self.n_years)
            .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
            .collect();
        (schema, slices)
    }
}

/// Everything a shard worker needs to train the serving system from
/// scratch: the data recipe plus the full [`AdminConfig`]. Travels in
/// the wire handshake ([`Message::Hello`]); because training is
/// bit-deterministic, every worker holding the same spec serves
/// identically.
#[derive(Clone, Debug)]
pub struct TrainSpec {
    /// The training-data recipe.
    pub data: DataSpec,
    /// The full admin configuration.
    pub config: AdminConfig,
}

impl TrainSpec {
    /// The schema this spec trains under (no training required).
    pub fn schema(&self) -> FeatureSchema {
        LendingClubGenerator::new(LendingClubParams {
            records_per_year: self.data.records_per_year.max(1),
            seed: self.data.seed,
            ..Default::default()
        })
        .schema()
        .clone()
    }

    /// Trains the system the spec describes.
    ///
    /// # Errors
    /// The typed [`TrainError`] from [`JustInTime::train`].
    pub fn train(&self) -> Result<JustInTime, TrainError> {
        let (schema, slices) = self.data.slices();
        JustInTime::train(self.config.clone(), &schema, &slices)
    }
}

/// Locates the `jit-shardd` worker binary next to the current
/// executable (how examples and sibling bins find it): the `JIT_SHARDD`
/// environment variable wins, then `<exe dir>/jit-shardd`, then
/// `<exe dir>/../jit-shardd` (examples live one directory below the
/// bins).
pub fn locate_shardd() -> Option<PathBuf> {
    if let Some(path) = std::env::var_os("JIT_SHARDD") {
        return Some(PathBuf::from(path));
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let name = format!("jit-shardd{}", std::env::consts::EXE_SUFFIX);
    [dir.join(&name), dir.parent()?.join(&name)]
        .into_iter()
        .find(|candidate| candidate.is_file())
}

/// Configuration of the OS-process shard backend.
#[derive(Clone, Debug)]
pub struct ProcessShardConfig {
    /// Path to the `jit-shardd` worker binary (see [`locate_shardd`]).
    pub shardd: PathBuf,
    /// Number of shard worker processes.
    pub n_shards: usize,
    /// Frame cap for the worker pipes.
    pub max_frame_len: usize,
}

impl ProcessShardConfig {
    /// A config with the default frame cap.
    pub fn new(shardd: impl Into<PathBuf>, n_shards: usize) -> Self {
        ProcessShardConfig {
            shardd: shardd.into(),
            n_shards,
            max_frame_len: MAX_FRAME_LEN,
        }
    }
}

/// A live worker process with its pipe endpoints.
struct LiveShard {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

/// Supervisor-side state of one shard slot.
#[derive(Default)]
struct ShardSlot {
    live: Option<LiveShard>,
    /// Times a worker has been spawned into this slot.
    spawned: usize,
}

/// Health of one shard slot, as the supervisor sees it (a killed worker
/// still reads as alive until its next use — detection is on use).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// `true` when a worker process is attached to the slot.
    pub alive: bool,
    /// The attached worker's pid.
    pub pid: Option<u32>,
    /// Times the slot has been respawned after its first worker.
    pub restarts: usize,
}

/// The OS-process shard backend (see the module docs).
pub struct ProcessShardBackend {
    spec: TrainSpec,
    schema: FeatureSchema,
    config: ProcessShardConfig,
    stores: Vec<Arc<dyn SnapshotStore>>,
    shards: Vec<Mutex<ShardSlot>>,
    next_id: AtomicU64,
}

impl fmt::Debug for ProcessShardBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessShardBackend")
            .field("shards", &self.shards.len())
            .field("shardd", &self.config.shardd)
            .finish_non_exhaustive()
    }
}

impl ProcessShardBackend {
    /// Spawns `config.n_shards` worker processes, hands each the spec to
    /// train, and verifies every handshake before returning. Per-shard
    /// snapshot stores come from `store_for(shard)` and stay in the
    /// supervisor.
    ///
    /// # Errors
    /// [`ServeError::Transport`] when a worker cannot be spawned or its
    /// handshake fails (bad binary path, schema digest mismatch).
    ///
    /// # Panics
    /// Panics when `config.n_shards == 0`.
    pub fn spawn(
        spec: TrainSpec,
        config: ProcessShardConfig,
        mut store_for: impl FnMut(usize) -> Arc<dyn SnapshotStore>,
    ) -> Result<Self, ServeError> {
        // jit-analyze: allow(no-panic-paths) — documented `# Panics` contract: misconfiguration at spawn time, not serve-path input
        assert!(config.n_shards >= 1, "a shard backend needs at least one shard");
        let schema = spec.schema();
        let stores = (0..config.n_shards).map(&mut store_for).collect();
        let shards =
            (0..config.n_shards).map(|_| Mutex::new(ShardSlot::default())).collect();
        let backend = ProcessShardBackend {
            spec,
            schema,
            config,
            stores,
            shards,
            next_id: AtomicU64::new(1),
        };
        backend.ensure_healthy()?;
        Ok(backend)
    }

    /// Number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `user_id` is (always) routed to — same placement as
    /// [`crate::ShardedService::shard_of`].
    pub fn shard_of(&self, user_id: &str) -> usize {
        shard_index(user_id, self.shards.len())
    }

    /// The supervisor-held per-shard snapshot stores, in shard order.
    pub fn stores(&self) -> &[Arc<dyn SnapshotStore>] {
        &self.stores
    }

    /// The spec every worker trains from.
    pub fn spec(&self) -> &TrainSpec {
        &self.spec
    }

    /// Supervisor-side health of every shard slot.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, slot)| {
                let slot = slot.lock();
                ShardHealth {
                    shard,
                    alive: slot.live.is_some(),
                    pid: slot.live.as_ref().map(|l| l.child.id()),
                    restarts: slot.spawned.saturating_sub(1),
                }
            })
            .collect()
    }

    /// Respawns every dead shard (concurrently) and re-verifies its
    /// handshake. Idempotent; serving also respawns lazily on use, this
    /// just fronts the cost.
    ///
    /// # Errors
    /// [`ServeError::Transport`] naming the first shard that failed to
    /// come up.
    pub fn ensure_healthy(&self) -> Result<(), ServeError> {
        let results = jit_runtime::blocking_map(self.shards.len(), |shard| {
            let mut slot = self.shards[shard].lock();
            self.ensure_live(&mut slot)
        });
        for (shard, result) in results.into_iter().enumerate() {
            result.map_err(|detail| {
                ServeError::Transport(format!(
                    "shard {shard} failed to start: {detail}"
                ))
            })?;
        }
        Ok(())
    }

    /// Kills shard `shard`'s worker process with SIGKILL **without
    /// telling the supervisor** — the fault-injection entry point. The
    /// slot still reads alive; the next request routed there discovers
    /// the corpse, fails typed, and triggers the supervised respawn.
    /// Returns the killed worker's pid, or `None` when the slot had no
    /// live worker.
    pub fn kill_shard(&self, shard: usize) -> Option<u32> {
        let mut slot = self.shards[shard].lock();
        let live = slot.live.as_mut()?;
        let pid = live.child.id();
        // Kill and reap; the pipes stay in the slot so the supervisor
        // only learns of the death when it next uses them.
        let _ = live.child.kill();
        let _ = live.child.wait();
        Some(pid)
    }

    /// Sends every live worker an orderly [`Message::Shutdown`] and
    /// reaps it. [`Drop`] does the same (with a kill as backstop), so
    /// calling this is optional.
    pub fn shutdown(&self) {
        for slot in &self.shards {
            let mut slot = slot.lock();
            if let Some(mut live) = slot.live.take() {
                let _ = wire::write_frame(
                    &mut live.stdin,
                    &wire::encode_message(&Message::Shutdown),
                    self.config.max_frame_len,
                );
                // Closing stdin unblocks a worker waiting on a frame.
                drop(live.stdin);
                let _ = live.child.wait();
            }
        }
    }

    /// Serves one request across the shard processes — same contract and
    /// same bytes as [`crate::ShardedService::serve`], through the same
    /// router (see [`crate::sharded`]).
    ///
    /// # Errors
    /// The typed [`ServeError`]; a dead worker yields
    /// [`ServeError::Shard`] attributed to the earliest affected user,
    /// and with several failing shards the error of the user earliest in
    /// request order wins.
    pub fn serve(&self, request: ServeRequest) -> Result<WireResponse, ServeError> {
        let (users, report) = serve_sharded(
            request,
            self.shards.len(),
            |shard| self.stores[shard].as_ref(),
            |n, task| jit_runtime::blocking_map(n, task),
            |shard, sub| {
                self.call_shard(
                    shard,
                    resolve_refresh(sub, self.stores[shard].as_ref())?,
                )
            },
        )?;
        Ok(WireResponse { users, report: WireReport::totals(&report) })
    }

    /// One shard RPC under the slot lock: ensure a live worker, send the
    /// sub-request, read the reply. Any transport failure kills and
    /// detaches the worker and comes back as [`ServeError::Shard`],
    /// naming the shard's first user.
    fn call_shard(
        &self,
        shard: usize,
        sub: ServeRequest,
    ) -> Result<Vec<WireServedUser>, ServeError> {
        let first_user =
            sub.user_ids().first().map(|id| id.to_string()).unwrap_or_default();
        let mut slot = self.shards[shard].lock();
        self.ensure_live(&mut slot).map_err(|detail| ServeError::Shard {
            shard,
            user_id: first_user.clone(),
            detail,
        })?;
        let Some(live) = slot.live.as_mut() else {
            return Err(ServeError::Shard {
                shard,
                user_id: first_user,
                detail: "ensure_live returned without a worker".to_string(),
            });
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        match self.rpc(live, id, sub) {
            Ok(reply) => reply.map(|response| response.users),
            Err(detail) => {
                // The worker is gone or desynchronized: kill, reap,
                // detach. The next request respawns it.
                if let Some(mut live) = slot.live.take() {
                    let _ = live.child.kill();
                    let _ = live.child.wait();
                }
                Err(ServeError::Shard { shard, user_id: first_user, detail })
            }
        }
    }

    /// The raw request/reply exchange. The outer error is a transport
    /// failure (worker must be replaced); the inner result is the typed
    /// serving outcome from a healthy worker.
    fn rpc(
        &self,
        live: &mut LiveShard,
        id: u64,
        sub: ServeRequest,
    ) -> Result<Result<WireResponse, ServeError>, String> {
        let body = wire::encode_message(&Message::Serve { id, request: sub });
        wire::write_frame(&mut live.stdin, &body, self.config.max_frame_len)
            .map_err(|e| format!("request write failed: {e}"))?;
        let reply = wire::read_frame(&mut live.stdout, self.config.max_frame_len)
            .map_err(|e| format!("reply read failed: {e}"))?;
        match wire::decode_message(&reply, Some(&self.schema))
            .map_err(|e| format!("reply decode failed: {e}"))?
        {
            Message::Served { id: reply_id, response } if reply_id == id => {
                Ok(Ok(response))
            }
            Message::Failed { id: reply_id, error } if reply_id == id => Ok(Err(error)),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Spawns and handshakes a worker into `slot` when none is attached.
    fn ensure_live(&self, slot: &mut ShardSlot) -> Result<(), String> {
        if slot.live.is_some() {
            return Ok(());
        }
        let mut child = Command::new(&self.config.shardd)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {:?} failed: {e}", self.config.shardd))?;
        let Some(mut stdin) = child.stdin.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("worker stdin was not piped".to_string());
        };
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("worker stdout was not piped".to_string());
        };
        let mut stdout = BufReader::new(stdout);
        let handshake = (|| -> Result<(), String> {
            let hello = wire::encode_message(&Message::Hello(self.spec.clone()));
            wire::write_frame(&mut stdin, &hello, self.config.max_frame_len)
                .map_err(|e| format!("hello write failed: {e}"))?;
            let reply = wire::read_frame(&mut stdout, self.config.max_frame_len)
                .map_err(|e| format!("ready read failed: {e}"))?;
            match wire::decode_message(&reply, None)
                .map_err(|e| format!("ready decode failed: {e}"))?
            {
                Message::Ready { schema_digest } => {
                    let expected = self.schema.content_digest();
                    if schema_digest == expected {
                        Ok(())
                    } else {
                        Err(format!(
                            "schema digest mismatch: worker {schema_digest}, \
                             supervisor {expected}"
                        ))
                    }
                }
                other => Err(format!("unexpected handshake reply {other:?}")),
            }
        })();
        match handshake {
            Ok(()) => {
                slot.live = Some(LiveShard { child, stdin, stdout });
                slot.spawned += 1;
                Ok(())
            }
            Err(detail) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(detail)
            }
        }
    }
}

impl Drop for ProcessShardBackend {
    /// No orphaned workers: children are killed and reaped when the
    /// backend goes away (use [`ProcessShardBackend::shutdown`] first
    /// for an orderly exit).
    fn drop(&mut self) {
        for slot in &self.shards {
            if let Some(mut live) = slot.lock().live.take() {
                let _ = live.child.kill();
                let _ = live.child.wait();
            }
        }
    }
}

impl ServeBackend for ProcessShardBackend {
    fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    fn serve_wire(&self, request: ServeRequest) -> Result<WireResponse, ServeError> {
        self.serve(request)
    }
}

/// The shard worker's side of the pipe protocol, which `jit-shardd` runs
/// over its stdin and stdout. It reads the `Hello` frame, trains the
/// system its spec describes, answers `Ready` with the schema digest,
/// then answers every `Serve` frame with the compute step over its own
/// system and cell cache. It holds no store: the supervisor loads and
/// saves every snapshot, so a `Refresh` frame gets a typed error. Returns
/// at `Shutdown` or when the supervisor closes the pipe.
///
/// # Errors
/// What ended the loop early: a failed handshake, training or frame
/// exchange, or a message a worker never receives.
pub fn serve_frames(
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), String> {
    let max = MAX_FRAME_LEN;
    let body = wire::read_frame(input, max).map_err(|e| format!("hello read: {e}"))?;
    let spec = match wire::decode_message(&body, None)
        .map_err(|e| format!("hello decode: {e}"))?
    {
        Message::Hello(spec) => spec,
        other => return Err(format!("expected Hello, got {other:?}")),
    };
    let system = spec.train().map_err(|e| format!("training failed: {e}"))?;
    let cache = Arc::new(SharedCellCache::new());
    let ready = wire::encode_message(&Message::Ready {
        schema_digest: system.schema().content_digest(),
    });
    wire::write_frame(output, &ready, max).map_err(|e| format!("ready write: {e}"))?;

    loop {
        let body = match wire::read_frame(input, max) {
            Ok(body) => body,
            Err(wire::WireError::Closed) => return Ok(()),
            Err(e) => return Err(format!("request read: {e}")),
        };
        let reply = match wire::decode_message(&body, Some(system.schema())) {
            Ok(Message::Serve { id, request }) => {
                match serve_jobs(&system, &cache, request) {
                    Ok(users) => {
                        let report = fold_report(users.iter().map(|user| (0, user)));
                        let response = ServeResponse { users, report };
                        Message::Served {
                            id,
                            response: WireResponse::from_response(&response),
                        }
                    }
                    Err(error) => Message::Failed { id, error },
                }
            }
            Ok(Message::Ping { id }) => Message::Pong { id },
            Ok(Message::Shutdown) => return Ok(()),
            Ok(other) => return Err(format!("unexpected message {other:?}")),
            Err(e) => return Err(format!("request decode: {e}")),
        };
        wire::write_frame(output, &wire::encode_message(&reply), max)
            .map_err(|e| format!("reply write: {e}"))?;
    }
}
