//! The rule set: each project contract as a named, individually
//! suppressable rule.
//!
//! | rule | contract it enforces |
//! |---|---|
//! | `no-panic-paths` | decode/serve-path modules return typed errors, never panic |
//! | `no-wall-clock` | no ambient nondeterminism in library code |
//! | `no-lossy-float-fmt` | floats cross codec/digest boundaries as bits, not decimal |
//! | `lock-discipline` | poisoning handled deliberately; no nested acquisitions |
//!
//! Scopes are committed here, next to the rules, so a module entering a
//! contract is a reviewed one-line diff. See `CONTRACTS.md` at the
//! workspace root for the prose version of each invariant and the
//! annotation workflow.

/// Rule id: decode/serve-path modules must produce typed errors, never
/// panic. Flags `.unwrap()` / `.expect()` calls, panicking macros
/// (`panic!`, `unreachable!`, `unimplemented!`, `todo!`, `assert!`,
/// `assert_eq!`, `assert_ne!` — `debug_assert*` is deliberately exempt:
/// it vanishes in release serving builds), and slice indexing by
/// integer literal (`buf[0]`). Test code is exempt.
pub const NO_PANIC_PATHS: &str = "no-panic-paths";

/// Rule id: no ambient nondeterminism in library code. Flags
/// `SystemTime`, `Instant`, `thread::sleep`/`.sleep`, `RandomState`
/// everywhere, and `HashMap`/`HashSet` in the digest/codec/wire modules
/// (whose iteration order would otherwise feed digests or frames).
/// Load generators and benches keep their clocks behind reasoned
/// annotations.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";

/// Rule id: floats must round-trip bit-exactly through codec, digest
/// and wire modules (`f64::to_bits` / `sql_literal`), never decimal
/// text. Flags `.to_string()` and format strings with `{}`-family
/// placeholders in those modules; float-specific specs (`{:.3}`,
/// `{:e}`) are flagged even inside `Display`/`Debug` impls, which are
/// otherwise exempt (error rendering is not wire data).
pub const NO_LOSSY_FLOAT_FMT: &str = "no-lossy-float-fmt";

/// Rule id: lock poisoning on serve-path locks must be handled
/// deliberately (`unwrap_or_else(PoisonError::into_inner)` or a typed
/// error), so `.lock().unwrap()` / `.lock().expect()` is forbidden; a
/// function acquiring two or more locks is a nested-acquisition hazard
/// and must justify itself.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";

/// Engine-level rule id for sources the lexer cannot scan (fail
/// closed). Not suppressable.
pub const LEX_ERROR: &str = "lex-error";

/// Engine-level rule id for annotations that do not parse or carry no
/// reason. Not suppressable.
pub const BAD_ANNOTATION: &str = "bad-annotation";

/// Engine-level rule id for annotations that suppress nothing. Not
/// suppressable: stale allowlist entries must be removed.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// Every suppressable rule id (what `allow(…)` may name).
pub const SUPPRESSABLE: &[&str] =
    &[NO_PANIC_PATHS, NO_WALL_CLOCK, NO_LOSSY_FLOAT_FMT, LOCK_DISCIPLINE];

/// Files under the typed-error-never-panic contract: every tier's serve
/// path in `jit-service` (request types, the single-shard and sharded
/// steps, refresh-ahead, wire, net, supervisor) and its snapshot stores
/// (which decode bytes recovered from disk), plus `jit-db`'s binary
/// codec, WAL recovery, and the catalog and tables its replay applies
/// batches through.
pub const PANIC_PATH_FILES: &[&str] = &[
    "crates/jit-service/src/api.rs",
    "crates/jit-service/src/wire.rs",
    "crates/jit-service/src/db_store.rs",
    "crates/jit-service/src/net.rs",
    "crates/jit-service/src/service.rs",
    "crates/jit-service/src/refresh.rs",
    "crates/jit-service/src/supervisor.rs",
    "crates/jit-service/src/sharded.rs",
    "crates/jit-service/src/store.rs",
    "crates/jit-service/src/invalidation.rs",
    "crates/jit-db/src/codec.rs",
    "crates/jit-db/src/wal.rs",
    "crates/jit-db/src/catalog.rs",
    "crates/jit-db/src/table.rs",
];

/// Files whose output feeds digests, stable snapshots or wire frames:
/// the scope of the `HashMap`/`HashSet` iteration ban and of
/// `no-lossy-float-fmt`.
pub const DIGEST_SCOPE_FILES: &[&str] = &[
    "crates/jit-math/src/digest.rs",
    "crates/jit-db/src/codec.rs",
    "crates/jit-service/src/wire.rs",
    "crates/jit-service/src/db_store.rs",
];

/// Crate prefixes under the lock-discipline contract (the crates whose
/// locks the serving path shares).
pub const LOCK_SCOPE_PREFIXES: &[&str] = &[
    "crates/jit-core/",
    "crates/jit-db/",
    "crates/jit-service/",
    "crates/jit-runtime/",
];

/// `true` when `path` (workspace-relative, forward slashes) is under
/// the no-panic contract.
pub fn in_panic_scope(path: &str) -> bool {
    PANIC_PATH_FILES.contains(&path)
}

/// `true` when `path` is in the digest/codec/wire scope.
pub fn in_digest_scope(path: &str) -> bool {
    DIGEST_SCOPE_FILES.contains(&path)
}

/// `true` when `path` is under the lock-discipline contract.
pub fn in_lock_scope(path: &str) -> bool {
    LOCK_SCOPE_PREFIXES.iter().any(|p| path.starts_with(p))
}
