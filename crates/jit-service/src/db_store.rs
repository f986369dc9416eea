//! The `jit-db`-backed snapshot store: re-serves survive restarts.
//!
//! One table, one row per user:
//!
//! | table | columns |
//! |---|---|
//! | `jit_snapshots` | `user_id TEXT` (hash-indexed), `snapshot BLOB` |
//!
//! The blob is `[format version u8][schema digest][snapshot bytes]`,
//! and the snapshot bytes are the one serialized form of a
//! [`SessionSnapshot`] that [`crate::wire`] also puts in frames: floats
//! as raw bits, so NaN payloads and `-0.0` survive and a loaded snapshot
//! replays exactly like the in-memory one. Frames carry no version
//! byte, but stored bytes outlive the build that wrote them, so a blob
//! whose version this build does not read is [`StoreError::Corrupt`]
//! rather than a wrong decode. A blob recorded under a different feature
//! schema is [`StoreError::SchemaMismatch`]. A load is one
//! [`Database::select`] through the `user_id` hash index and one decode.
//!
//! A save is one typed batch, `[DeleteEq user_id, InsertRows row]`, and
//! a remove the batch's first op alone. On both durability tiers the
//! batch is applied by [`Database::apply`] under one table write lock,
//! so a concurrent load finds the old row or the new one, never neither,
//! and `remove` learns whether it removed a row from the batch itself.
//! The delete goes through the `user_id` hash index, so a save's cost
//! does not grow with the store.
//!
//! * [`DbSnapshotStore::open`] — the backing [`Database`] is the
//!   medium; keep its `Arc` alive across a restart.
//! * [`DbSnapshotStore::open_durable`] — a
//!   [`DurableDatabase`] is the medium; every
//!   save commits its batch as one write-ahead-log record, so snapshots
//!   survive a process **kill**, not just a drop. A save is
//!   crash-atomic: after recovery the store holds either the old
//!   snapshot or the new one, never a torn mix.

// Decode path: these blobs come back from disk, so panics are denied
// outright here (tests excepted) — damaged bytes must surface as typed
// errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::store::{SnapshotStore, StoreError};
use crate::wire::{self, WireError};
use jit_core::SessionSnapshot;
use jit_data::FeatureSchema;
use jit_db::codec::Decoder;
use jit_db::{ColumnType, Database, DurableDatabase, Value, WalOp};
use jit_math::digest::Digest;
use std::fmt;
use std::sync::Arc;

const TABLE: &str = "jit_snapshots";

/// Version of the stored blob layout. Bump it whenever the blob's bytes
/// change, including [`wire`]'s snapshot encoding.
const FORMAT_VERSION: u8 = 1;

fn columns() -> Vec<(String, ColumnType)> {
    vec![("user_id".into(), ColumnType::Text), ("snapshot".into(), ColumnType::Blob)]
}

/// The SQL-engine-backed [`SnapshotStore`].
pub struct DbSnapshotStore {
    db: Arc<Database>,
    /// When set, writes commit through the write-ahead log instead of
    /// mutating `db` directly (`db` is then the WAL's in-memory state).
    wal: Option<Arc<DurableDatabase>>,
    schema: FeatureSchema,
    schema_digest: Digest,
}

impl DbSnapshotStore {
    /// Opens a store over `db`, creating the snapshot table when absent
    /// (re-opening an already-populated database is the restart path).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] (with an empty user id) when
    /// `jit_snapshots` exists in another layout, such as an older
    /// build's; engine errors as [`StoreError::Db`].
    pub fn open(db: Arc<Database>, schema: &FeatureSchema) -> Result<Self, StoreError> {
        if !db.has_table(TABLE) {
            db.create_table(TABLE, columns())?;
        }
        Self::over(db, None, schema)
    }

    /// A store over a fresh private database.
    pub fn in_new_database(schema: &FeatureSchema) -> Result<Self, StoreError> {
        Self::open(Arc::new(Database::new()), schema)
    }

    /// Opens a store whose writes commit through `wal`'s write-ahead
    /// log: each save/remove is one crash-atomic logged batch, and a
    /// store reopened over the recovered log re-serves bit-identically.
    /// A missing snapshot table is created (and logged) on open.
    ///
    /// # Errors
    /// As for [`DbSnapshotStore::open`].
    pub fn open_durable(
        wal: Arc<DurableDatabase>,
        schema: &FeatureSchema,
    ) -> Result<Self, StoreError> {
        let db = Arc::clone(wal.database());
        if !db.has_table(TABLE) {
            wal.commit(&[WalOp::CreateTable {
                name: TABLE.into(),
                columns: columns(),
            }])?;
        }
        Self::over(db, Some(wal), schema)
    }

    fn over(
        db: Arc<Database>,
        wal: Option<Arc<DurableDatabase>>,
        schema: &FeatureSchema,
    ) -> Result<Self, StoreError> {
        if db.table_schema(TABLE).map(|t| t.columns) != Some(columns()) {
            return Err(StoreError::Corrupt {
                user_id: String::new(),
                detail: "jit_snapshots is not (user_id TEXT, snapshot BLOB)".into(),
            });
        }
        // The index is in-memory acceleration, not logged state: it is
        // declared on every open, including reopens over recovered WALs.
        db.create_index(TABLE, "user_id")?;
        Ok(DbSnapshotStore {
            db,
            wal,
            schema: schema.clone(),
            schema_digest: schema.content_digest(),
        })
    }

    /// The backing database (the durable medium — keep a clone of the
    /// `Arc` to survive a service restart).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The write-ahead log behind this store, when opened durable.
    pub fn wal(&self) -> Option<&Arc<DurableDatabase>> {
        self.wal.as_ref()
    }

    /// The stored row for `user_id`, if any.
    fn row(&self, user_id: &str) -> Result<Option<Vec<Value>>, StoreError> {
        let id = Value::from(user_id);
        let rs = self.db.select(TABLE, &["snapshot"], Some(("user_id", &id)))?;
        Ok(rs.rows.into_iter().next())
    }

    /// Replaces `user_id`'s row with `row` (`None` deletes it) in one
    /// batch, committed through the log when durable, and returns how
    /// many rows the batch removed.
    fn replace(
        &self,
        user_id: &str,
        row: Option<Vec<Value>>,
    ) -> Result<usize, StoreError> {
        let mut ops = vec![WalOp::DeleteEq {
            table: TABLE.into(),
            column: "user_id".into(),
            value: Value::from(user_id),
        }];
        ops.extend(
            row.map(|row| WalOp::InsertRows { table: TABLE.into(), rows: vec![row] }),
        );
        Ok(match &self.wal {
            Some(wal) => wal.commit(&ops)?.rows_removed,
            None => self.db.apply(&ops)?,
        })
    }

    /// Decodes a stored blob: version byte, schema digest, snapshot.
    fn decode(
        &self,
        user_id: &str,
        blob: &[u8],
    ) -> Result<SessionSnapshot, StoreError> {
        let corrupt =
            |detail: String| StoreError::Corrupt { user_id: user_id.into(), detail };
        // jit-analyze: allow(no-lossy-float-fmt) — error text for humans; no float payload crosses here
        let malformed = |e: WireError| corrupt(e.to_string());
        let mut d = Decoder::new(blob);
        let version = d.u8("format version").map_err(|e| malformed(e.into()))?;
        if version != FORMAT_VERSION {
            // jit-analyze: allow(no-lossy-float-fmt) — integer versions in error text; no float payload crosses here
            return Err(corrupt(format!(
                "format version {version}, not {FORMAT_VERSION}"
            )));
        }
        let found = wire::decode_digest(&mut d, "schema digest").map_err(malformed)?;
        if found != self.schema_digest {
            return Err(StoreError::SchemaMismatch {
                expected: self.schema_digest,
                found,
            });
        }
        let snapshot =
            wire::decode_snapshot(&mut d, &self.schema).map_err(malformed)?;
        if d.remaining() > 0 {
            return Err(corrupt("trailing bytes after the snapshot".into()));
        }
        Ok(snapshot)
    }
}

impl fmt::Debug for DbSnapshotStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DbSnapshotStore")
            .field("schema_digest", &self.schema_digest)
            .finish_non_exhaustive()
    }
}

impl SnapshotStore for DbSnapshotStore {
    fn save(
        &self,
        user_id: &str,
        snapshot: &SessionSnapshot,
    ) -> Result<(), StoreError> {
        // Refuse before writing what no later load could read back.
        if !wire::nests_within_cap(&snapshot.request) {
            return Err(StoreError::Corrupt {
                user_id: user_id.into(),
                detail: "constraints nest past MAX_CONSTRAINT_DEPTH; not saved".into(),
            });
        }
        let mut blob = vec![FORMAT_VERSION];
        wire::encode_digest(&mut blob, self.schema_digest);
        wire::encode_snapshot(&mut blob, snapshot);
        self.replace(user_id, Some(vec![Value::from(user_id), Value::Blob(blob)]))
            .map(|_| ())
    }

    fn load(&self, user_id: &str) -> Result<Option<SessionSnapshot>, StoreError> {
        match self.row(user_id)?.as_deref() {
            None => Ok(None),
            Some([Value::Blob(blob)]) => self.decode(user_id, blob).map(Some),
            Some(_) => Err(StoreError::Corrupt {
                user_id: user_id.into(),
                detail: "snapshot is not a blob".into(),
            }),
        }
    }

    fn remove(&self, user_id: &str) -> Result<bool, StoreError> {
        // An absent id logs nothing. Of concurrent removes that all saw
        // the row, the batch's own count picks the one that removed it.
        if self.row(user_id)?.is_none() {
            return Ok(false);
        }
        Ok(self.replace(user_id, None)? > 0)
    }

    fn user_ids(&self) -> Result<Vec<String>, StoreError> {
        let rs = self.db.select(TABLE, &["user_id"], None)?;
        let mut ids = rs
            .rows
            .into_iter()
            .map(|row| match row.as_slice() {
                [Value::Text(id)] => Ok(id.clone()),
                _ => Err(StoreError::Corrupt {
                    user_id: String::new(),
                    detail: "non-text user id".into(),
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        // The order SQL `ORDER BY user_id` gives: on text,
        // `Value::total_cmp` is `String`'s order.
        ids.sort_unstable();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::every_kind_request;
    use jit_core::{Candidate, UserRequest};
    use jit_data::LendingClubGenerator;
    use jit_math::digest::DigestWriter;

    /// Stored blobs outlive the build that wrote them, so their bytes may
    /// change only together with [`FORMAT_VERSION`]. Two snapshots that
    /// between them use every tag a blob holds pin the bytes down.
    #[test]
    fn stored_bytes_change_only_with_the_format_version() {
        let schema = FeatureSchema::lending_club();
        let inputs = vec![LendingClubGenerator::john(); 3];
        let candidate = Candidate {
            time_index: 2,
            profile: vec![-0.0; schema.dim()],
            diff: 0.1 + 0.2,
            gap: 2,
            confidence: f64::from_bits(0x7ff8_0000_dead_beef),
        };
        let full = SessionSnapshot::from_parts(
            every_kind_request(&schema),
            inputs.clone(),
            vec![candidate],
            vec![Some(Digest([1, u64::MAX])), None, Some(Digest([0, 7]))],
        )
        .unwrap();
        let plain = SessionSnapshot::from_parts(
            UserRequest::new(LendingClubGenerator::john()),
            inputs,
            vec![],
            vec![None; 3],
        )
        .unwrap();
        let store = DbSnapshotStore::in_new_database(&schema).unwrap();
        let mut digest = DigestWriter::new("jit-service/db_store/stored-bytes");
        let mut len = 0;
        for (id, snapshot) in [("full", &full), ("plain", &plain)] {
            store.save(id, snapshot).unwrap();
            let row = store.row(id).unwrap().unwrap();
            let [Value::Blob(blob)] = row.as_slice() else {
                panic!("one blob column, got {row:?}");
            };
            assert!(store.load(id).unwrap().is_some());
            digest.write_bytes(blob);
            len += blob.len();
        }
        assert_eq!(
            (FORMAT_VERSION, len, digest.finish()),
            (1, 1196, Digest([0x3439_ebb5_4327_5906, 0x54bf_54b6_7029_0f9d])),
            "the stored snapshot bytes changed: bump FORMAT_VERSION, then \
             update the expected length and digest here"
        );
    }

    /// A store's write-ahead log outlives the build that wrote it too, so
    /// the bytes a durable store logs may change only together with the
    /// WAL's magic. A create, two saves, an overwrite and a remove pin the
    /// framing and every op a store logs.
    #[test]
    fn logged_bytes_change_only_with_the_wal_magic() {
        let schema = FeatureSchema::lending_club();
        let snapshot = |request: UserRequest, candidates: Vec<Candidate>| {
            SessionSnapshot::from_parts(
                request,
                vec![LendingClubGenerator::john(); 3],
                candidates,
                vec![Some(Digest([3, 5])), None, Some(Digest([u64::MAX, 0]))],
            )
            .unwrap()
        };
        let candidate = Candidate {
            time_index: 1,
            profile: vec![-0.0; schema.dim()],
            diff: 0.1 + 0.2,
            gap: 1,
            confidence: f64::from_bits(0x7ff8_0000_dead_beef),
        };
        let full = snapshot(every_kind_request(&schema), vec![candidate]);
        let plain = snapshot(UserRequest::new(LendingClubGenerator::john()), vec![]);
        let file = Arc::new(jit_db::MemFile::new());
        let (wal, _) =
            DurableDatabase::open(file.clone(), jit_db::WalConfig::default()).unwrap();
        let store = DbSnapshotStore::open_durable(Arc::new(wal), &schema).unwrap();
        store.save("a", &full).unwrap();
        store.save("b", &plain).unwrap();
        store.save("a", &plain).unwrap();
        assert!(store.remove("b").unwrap());
        let bytes = file.snapshot();
        let mut digest = DigestWriter::new("jit-service/db_store/logged-bytes");
        digest.write_bytes(&bytes);
        assert_eq!(
            (bytes.len(), digest.finish()),
            (1896, Digest([0xb9b1_f18b_8a80_47e2, 0x6e8a_8c46_0816_41ea])),
            "the logged bytes changed: bump the WAL magic, then update the \
             expected length and digest here"
        );
    }
}
