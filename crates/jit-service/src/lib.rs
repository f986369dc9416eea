//! # jit-service
//!
//! The **one public serving front end** of the JustInTime reproduction:
//! a typed request/response API over the `jit-core` serving engine, with
//! pluggable snapshot stores and sharded tiers.
//!
//! ## Why this crate exists
//!
//! `jit-core`'s one serving entry point, [`JustInTime::serve`], takes a
//! batch of anonymous jobs and returns borrowed sessions: no user
//! identity, no persistence and no multi-shard story. This crate wraps
//! it in a single contract:
//!
//! * [`ServeRequest`] — the three workloads a serving tier sees:
//!   [`ServeRequest::Batch`] (first visits; one new user is a
//!   one-member batch), [`ServeRequest::Returning`] (snapshot provided
//!   inline) and [`ServeRequest::Refresh`] (snapshot loaded *by user id*
//!   from the service's store);
//! * [`ServeResponse`] — the served sessions **in request order** plus a
//!   [`ServeReport`] aggregating replay/recompute provenance per shard;
//! * [`ServeError`] — one structured error enum for every entry point
//!   (empty batch, duplicate/unknown user ids, per-user session errors
//!   carrying the user id, store failures including snapshot/schema
//!   mismatches). No panics, no stringly-typed errors.
//!
//! ## Request/response contract
//!
//! Every tier — [`JitService::serve`], [`ShardedService::serve`] and
//! [`ProcessShardBackend::serve`] — is all-or-nothing: either every user
//! in the request is served and the response holds one [`ServedUser`]
//! per request entry in request order, or the first failure (lowest
//! request index) is returned and nothing is stored. Snapshots are saved
//! only after every shard has succeeded: each served session is stored
//! under its user id, in request order, before the response is
//! returned, so the next [`ServeRequest::Refresh`] for that id replays
//! whatever drift leaves untouched. A store that fails mid-save is
//! reported against the first user it lost; the users before it stay
//! stored. Serving through the service is **bit-identical** to calling
//! [`JustInTime::serve`] directly (locked down by `tests/determinism.rs`
//! at the workspace root).
//!
//! ## Snapshot stores
//!
//! [`SnapshotStore`] is the persistence seam: `save`/`load`/`remove`/
//! `user_ids` keyed by user id, `&self` methods (implementations are
//! internally synchronized) so per-shard stores can be driven from pool
//! workers. Two backends ship:
//!
//! * [`MemorySnapshotStore`] — a `RwLock<HashMap>`; snapshots live as
//!   long as the process. The default.
//! * [`DbSnapshotStore`] — one `jit-db` row per user, `(user_id,
//!   snapshot BLOB)`, written and read through the engine's
//!   programmatic row API. The blob is a format-version byte, the
//!   schema's content digest, then the snapshot in the one binary
//!   encoding [`wire`] also uses for frames, with every float as its raw
//!   bits. Frames need no version byte, but stored bytes outlive the
//!   build that wrote them, so an unknown version (or any undecodable
//!   byte) loads as [`StoreError::Corrupt`]. Because the backing
//!   [`jit_db::Database`] is the durable medium, re-serves survive
//!   "process restarts": drop the service and the trained system,
//!   re-open a store over the same database, and
//!   [`ServeRequest::Refresh`] reproduces the original re-serve
//!   bit-for-bit. Loading under a different schema fails with
//!   [`StoreError::SchemaMismatch`] instead of mis-replaying.
//!
//! ## Sharding semantics
//!
//! [`ShardedService`] routes cohorts across `N` in-process shard
//! workers on the deterministic `jit-runtime` pool, and
//! [`ProcessShardBackend`] across `N` `jit-shardd` worker processes.
//! Both serve through one router ([`sharded`]): it splits the request,
//! picks the winning error, reassembles replies and saves snapshots the
//! same way for both. Placement uses **consistent jump hashing** of the
//! user id ([`shard_of`]): the same id always lands on the same shard
//! (per-shard stores stay coherent), and growing `N` relocates only
//! ~`1/N` of ids. Output is **bit-identical to a single-shard
//! [`JitService`] for any shard count** — per-user serving is
//! deterministic and shard-independent, and responses are reassembled
//! in request order.
//!
//! [`shard_of`]: ShardedService::shard_of
//!
//! ## From `jit-core` jobs to service requests
//!
//! | `jit-core` ([`JustInTime::serve`]) | service |
//! |---|---|
//! | `system.serve(&[Job::from(request)], None)` | `service.serve(ServeRequest::new_user(id, request))` |
//! | `system.serve(&jobs, None)`, first visits | `service.serve(ServeRequest::batch(members))` |
//! | `system.serve(&jobs, None)`, returning users | `service.serve(ServeRequest::returning(members))` |
//! | hand-held `SessionSnapshot` values | `ServeRequest::refresh(ids)` against the store |
//!
//! Every request runs the same engine, with this service's
//! [`jit_core::SharedCellCache`] in place of `None`, and stays
//! bit-identical; typed errors, persistence, sharding and serve reports
//! only exist here.
//!
//! ## Cross-user search sharing and refresh-ahead
//!
//! Every [`JitService`] owns a [`jit_core::SharedCellCache`]: confidence
//! values memoized per **(model fingerprint, threshold-cell vector)**
//! during `Batch`/`Returning`/`Refresh` serving and reused across all
//! users of that service. Equal fingerprints prove bit-identical models
//! and every reuse re-verifies the exact cell vector, so serving output
//! is bit-identical with the cache shared, private, or absent (see
//! `jit_core::candidates` for the proof sketch). Lifecycle contract:
//! constructors start the cache empty; after a retrain,
//! [`JitService::with_cell_cache`] / [`ShardedService::next_generation`]
//! carry the prior generation's cache forward and drop **exactly** the
//! slots whose model fingerprints did not survive. In the OS-process
//! tier each `jit-shardd` worker's cache lives in that worker process
//! and resets when the supervisor respawns it — a warmth loss, never a
//! correctness event.
//!
//! [`refresh`] adds the proactive half: after a retrain, one
//! refresh-ahead pass scans each shard's store, plans every snapshot
//! from fingerprints alone, and re-serves the stale users in
//! rate-limited batches through the ordinary `Refresh` path — so
//! returning users find their snapshots already re-served and replay
//! every time point instead of paying cold recomputes on the request
//! path.
//!
//! ## The networked tier
//!
//! Three modules extend the same contract across process and machine
//! boundaries without changing a single served byte:
//!
//! * [`wire`] — the std-only length-prefixed binary protocol and the
//!   one snapshot codec: exact f64-bits encoding, typed
//!   [`wire::WireError`]s for malformed /
//!   truncated / oversized frames (never panics), and the
//!   shard-count-invariant [`wire::WireResponse`] whose canonical bytes
//!   ([`wire::response_bytes`]) are the determinism comparison basis.
//! * [`net`] — [`NetServer`] (TCP ingress + bounded admission queue
//!   with typed [`ServeError::Overloaded`] load shedding) and
//!   [`NetClient`], over any [`ServeBackend`].
//! * [`supervisor`] — [`ProcessShardBackend`]: one `jit-shardd` worker
//!   *process* per shard, trained deterministically from a wire-carried
//!   [`TrainSpec`], supervised with detect-on-use failure handling and
//!   lazy respawn; snapshot stores stay in the supervisor so a killed
//!   shard loses nothing.
//! * [`loadgen`] — closed-/open-loop load generation (the `jit-loadgen`
//!   bin and the perf gate's network workload).
//!
//! The stack composes: `NetClient → NetServer → ProcessShardBackend →
//! N × jit-shardd`, and every layer is bit-identical to calling
//! [`JitService::serve`] directly (`tests/determinism.rs`) with every
//! failure mode typed (`tests/net_failures.rs`).
//!
//! ## Population workloads and recourse invalidation
//!
//! [`invalidation`] drives any registered workload
//! ([`jit_data::scenario`]) through this serving stack end to end:
//! first-visit cohort batches, one retrain per drift step
//! ([`jit_core::JustInTime::retrain`] over a sliding history window),
//! then refreshes whose `(user, time point)` outcomes are classified as
//! **replayed / surviving / overturned** into per-cohort
//! [`InvalidationReport`]s — the "Time Can Invalidate Algorithmic
//! Recourse" measurement, at population scale, with a content digest
//! that locks whole runs down across thread, shard and process counts.
//!
//! [`JustInTime::serve`]: jit_core::JustInTime::serve

#![forbid(unsafe_code)]

pub mod api;
pub mod db_store;
pub mod invalidation;
pub mod loadgen;
pub mod net;
pub mod refresh;
pub mod service;
pub mod sharded;
pub mod store;
pub mod supervisor;
pub mod wire;

pub use api::{
    CohortMember, ReturningMember, ServeError, ServeReport, ServeRequest,
    ServeResponse, ServedUser, ShardReport,
};
pub use db_store::DbSnapshotStore;
pub use invalidation::{
    run_invalidation, CohortInvalidation, InvalidationError, InvalidationOptions,
    InvalidationReport, InvalidationRun,
};
pub use loadgen::{LoadMode, LoadPlan, LoadReport};
pub use net::{
    ConnectRetry, NetClient, NetServer, NetServerConfig, ServeBackend, ServerStats,
};
pub use refresh::{RefreshAheadOptions, RefreshAheadReport};
pub use service::JitService;
pub use sharded::{shard_index, ShardedService};
pub use store::{retry_transient, MemorySnapshotStore, SnapshotStore, StoreError};
pub use supervisor::{
    locate_shardd, DataSpec, ProcessShardBackend, ProcessShardConfig, ShardHealth,
    TrainSpec,
};
pub use wire::{Message, WireError, WireReport, WireResponse, MAX_FRAME_LEN};
