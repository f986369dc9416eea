//! The snapshot-store seam: pluggable persistence for served sessions.

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use jit_core::SessionSnapshot;
use jit_math::digest::Digest;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;

/// Everything a snapshot backend can fail with.
#[derive(Debug)]
pub enum StoreError {
    /// The backing SQL engine rejected a statement.
    Db(jit_db::DbError),
    /// A stored snapshot was recorded under a different feature schema
    /// than the one the store (and its serving system) runs now;
    /// replaying it could silently mis-serve, so loads refuse instead.
    SchemaMismatch {
        /// Digest of the schema the store expects.
        expected: Digest,
        /// Digest recorded with the snapshot.
        found: Digest,
    },
    /// Stored bytes failed to decode back into a snapshot, or a snapshot
    /// to save has no stored form that would decode (its constraints
    /// nest past [`crate::wire::MAX_CONSTRAINT_DEPTH`]).
    Corrupt {
        /// The user whose snapshot is damaged.
        user_id: String,
        /// What failed to decode.
        detail: String,
    },
    /// The backend is unreachable/unusable (used by fault injection and
    /// future out-of-process backends).
    Unavailable(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Db(e) => write!(f, "snapshot database error: {e}"),
            StoreError::SchemaMismatch { expected, found } => write!(
                f,
                "snapshot schema digest {found} does not match the store's \
                 schema {expected}"
            ),
            StoreError::Corrupt { user_id, detail } => {
                write!(f, "stored snapshot for {user_id:?} is corrupt: {detail}")
            }
            StoreError::Unavailable(why) => {
                write!(f, "snapshot store unavailable: {why}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<jit_db::DbError> for StoreError {
    fn from(e: jit_db::DbError) -> Self {
        StoreError::Db(e)
    }
}

impl StoreError {
    /// `true` for failures that a bounded retry can plausibly clear: the
    /// backend being momentarily unreachable, or an I/O error from the
    /// durability layer (whose commit protocol rolls the log back to its
    /// committed length, making the next attempt safe). Schema
    /// mismatches, corrupt rows, and SQL rejections are deterministic —
    /// retrying them only repeats the failure.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            StoreError::Unavailable(_) | StoreError::Db(jit_db::DbError::Io { .. })
        )
    }
}

/// Runs `f` up to 3 times, backing off briefly, while it fails with a
/// [transient](StoreError::is_transient) error. Deterministic errors and
/// the final attempt's failure surface unchanged — retrying never
/// reclassifies or swallows an error, it only buys another attempt.
pub fn retry_transient<T>(
    mut f: impl FnMut() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    const ATTEMPTS: u32 = 3;
    let mut attempt = 0;
    loop {
        match f() {
            Err(e) if e.is_transient() && attempt + 1 < ATTEMPTS => {
                // jit-analyze: allow(no-wall-clock) — retry backoff pacing; the delay never feeds a digest or response
                std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// A keyed store of [`SessionSnapshot`]s.
///
/// Methods take `&self` — implementations synchronize internally — so a
/// store can be driven from the sharded dispatcher's pool workers.
/// `save` overwrites; `load` returns `Ok(None)` for unknown ids (an
/// *absent* snapshot is not an error at this layer; the service turns it
/// into [`crate::ServeError::UnknownUser`] when a refresh needs it).
pub trait SnapshotStore: Send + Sync {
    /// Stores (or replaces) the snapshot for `user_id`.
    fn save(&self, user_id: &str, snapshot: &SessionSnapshot)
        -> Result<(), StoreError>;

    /// Loads the snapshot for `user_id`, if any.
    fn load(&self, user_id: &str) -> Result<Option<SessionSnapshot>, StoreError>;

    /// Removes the snapshot for `user_id`; `true` when one existed.
    fn remove(&self, user_id: &str) -> Result<bool, StoreError>;

    /// All stored user ids, sorted (deterministic iteration order).
    fn user_ids(&self) -> Result<Vec<String>, StoreError>;
}

/// The in-memory backend: snapshots live as long as the process.
#[derive(Default)]
pub struct MemorySnapshotStore {
    snapshots: RwLock<HashMap<String, SessionSnapshot>>,
}

impl MemorySnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        MemorySnapshotStore::default()
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.read().len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.snapshots.read().is_empty()
    }
}

impl fmt::Debug for MemorySnapshotStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemorySnapshotStore").field("len", &self.len()).finish()
    }
}

impl SnapshotStore for MemorySnapshotStore {
    fn save(
        &self,
        user_id: &str,
        snapshot: &SessionSnapshot,
    ) -> Result<(), StoreError> {
        self.snapshots.write().insert(user_id.to_string(), snapshot.clone());
        Ok(())
    }

    fn load(&self, user_id: &str) -> Result<Option<SessionSnapshot>, StoreError> {
        Ok(self.snapshots.read().get(user_id).cloned())
    }

    fn remove(&self, user_id: &str) -> Result<bool, StoreError> {
        Ok(self.snapshots.write().remove(user_id).is_some())
    }

    fn user_ids(&self) -> Result<Vec<String>, StoreError> {
        let mut ids: Vec<String> = self.snapshots.read().keys().cloned().collect();
        ids.sort();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_core::UserRequest;

    fn tiny_snapshot() -> SessionSnapshot {
        SessionSnapshot::from_parts(
            UserRequest::new(vec![1.0, 2.0]),
            vec![vec![1.0, 2.0], vec![2.0, 3.0]],
            vec![],
            vec![None, Some(Digest([1, 2]))],
        )
        .expect("well-formed parts")
    }

    #[test]
    fn memory_store_round_trip_and_listing() {
        let store = MemorySnapshotStore::new();
        assert!(store.is_empty());
        assert!(store.load("u1").unwrap().is_none());
        store.save("u2", &tiny_snapshot()).unwrap();
        store.save("u1", &tiny_snapshot()).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.user_ids().unwrap(), vec!["u1", "u2"]);
        let back = store.load("u1").unwrap().expect("stored");
        assert_eq!(back.fingerprints(), tiny_snapshot().fingerprints());
        assert!(store.remove("u1").unwrap());
        assert!(!store.remove("u1").unwrap());
        assert_eq!(store.user_ids().unwrap(), vec!["u2"]);
    }

    #[test]
    fn snapshot_from_parts_rejects_malformed_shapes() {
        let req = UserRequest::new(vec![1.0]);
        // Length mismatch between inputs and fingerprints.
        assert!(SessionSnapshot::from_parts(
            req.clone(),
            vec![vec![1.0]],
            vec![],
            vec![None, None],
        )
        .is_none());
        // No time points at all.
        assert!(
            SessionSnapshot::from_parts(req.clone(), vec![], vec![], vec![]).is_none()
        );
        // Candidate time index out of range.
        let bad_candidate = jit_core::Candidate {
            time_index: 5,
            profile: vec![1.0],
            diff: 0.0,
            gap: 0,
            confidence: 0.5,
        };
        assert!(SessionSnapshot::from_parts(
            req,
            vec![vec![1.0]],
            vec![bad_candidate],
            vec![None],
        )
        .is_none());
    }
}
