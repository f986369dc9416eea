//! Durability: an append-only write-ahead log under [`Database`].
//!
//! # The durability contract
//!
//! * **Commit** ([`DurableDatabase::commit`], the only write path)
//!   means: the typed operation batch was validated, encoded into one
//!   length-prefixed, checksummed WAL record, appended to the log file
//!   and flushed to stable storage — *before* any in-memory table is
//!   touched. It is then applied by [`Database::apply`] under one table
//!   write lock. A batch is crash-atomic: after recovery either all of
//!   its ops are in effect or none are.
//! * **Recovery** ([`DurableDatabase::open`]) replays the log from the
//!   last checkpoint through the same [`Database::apply`], stopping at
//!   the first record whose length or checksum fails to verify;
//!   everything from that point on (a torn append, a media bit flip) is
//!   truncated away. Recovery never panics and never surfaces
//!   uncommitted rows: the reopened state is always the longest
//!   committed prefix of the log. A record whose checksum verifies was
//!   committed, so one this build cannot decode or apply (an op tag an
//!   older build wrote, say) refuses the open with [`DbError::Wal`]
//!   instead of being dropped as a torn tail.
//! * **Checkpoints** fold the log into a single full-image record via
//!   an atomic whole-file [`DbFile::replace`], bounding both log growth
//!   and reopen time. One is taken automatically every
//!   [`WalConfig::checkpoint_every_bytes`] of appended commit records
//!   (and on demand via [`DurableDatabase::checkpoint`]).
//!
//! All I/O goes through the pluggable [`DbFile`] trait: [`StdFile`] is
//! the real filesystem, [`MemFile`] an in-memory stand-in whose `Arc`
//! can be kept across a simulated "crash" and reopened, and
//! [`FaultFile`] a wrapper that injects torn writes, failed syncs and
//! failed truncates/replaces for the crash-recovery test harness.
//!
//! A failed append or sync rolls the file back to the last committed
//! length, so the log never accumulates a torn record mid-file; if even
//! that rollback fails the log is *poisoned* (every later commit fails
//! typed) until a successful [`DurableDatabase::checkpoint`] rewrites
//! the file whole.

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::catalog::Database;
use crate::codec::{self, Decoder};
use crate::error::DbError;
use crate::table::TableSchema;
use crate::value::{ColumnType, Value};
use parking_lot::Mutex;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic + format version.
const MAGIC: &[u8; 8] = b"JITWAL01";
/// Sanity cap on a single record's payload (corrupt length fields must
/// not trigger huge allocations).
const MAX_RECORD: u32 = 1 << 30;
/// Record tag: a committed batch of operations.
const TAG_COMMIT: u8 = 1;
/// Record tag: a full database image (checkpoint).
const TAG_CHECKPOINT: u8 = 2;

// ---------------------------------------------------------------------
// Pluggable I/O
// ---------------------------------------------------------------------

/// Byte-level log storage. Implementations must be usable from multiple
/// threads behind `&self`; the WAL serializes writers itself.
pub trait DbFile: Send + Sync + std::fmt::Debug {
    /// Reads the whole file.
    fn read_all(&self) -> Result<Vec<u8>, DbError>;
    /// Appends bytes at the end.
    fn append(&self, bytes: &[u8]) -> Result<(), DbError>;
    /// Flushes appended bytes to stable storage.
    fn sync(&self) -> Result<(), DbError>;
    /// Shrinks the file to `len` bytes.
    fn truncate(&self, len: u64) -> Result<(), DbError>;
    /// Atomically replaces the whole content (checkpoint compaction).
    /// On error the previous content must remain intact.
    fn replace(&self, bytes: &[u8]) -> Result<(), DbError>;
    /// Current length in bytes.
    fn len(&self) -> Result<u64, DbError>;
    /// `true` when the file has no bytes.
    fn is_empty(&self) -> Result<bool, DbError> {
        Ok(self.len()? == 0)
    }
}

/// In-memory [`DbFile`]. Keep a second `Arc` to the same `MemFile`
/// across a dropped [`DurableDatabase`] and reopen it — that simulates
/// a process crash without touching the filesystem.
#[derive(Debug, Default)]
pub struct MemFile {
    bytes: Mutex<Vec<u8>>,
}

impl MemFile {
    /// An empty in-memory file.
    pub fn new() -> Self {
        MemFile::default()
    }

    /// A copy of the current content (for corruption tests).
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.lock().clone()
    }

    /// XORs the byte at `offset` with `mask` — a media bit flip.
    pub fn corrupt(&self, offset: usize, mask: u8) {
        let mut bytes = self.bytes.lock();
        if let Some(b) = bytes.get_mut(offset) {
            *b ^= mask;
        }
    }
}

impl DbFile for MemFile {
    fn read_all(&self) -> Result<Vec<u8>, DbError> {
        Ok(self.bytes.lock().clone())
    }

    fn append(&self, bytes: &[u8]) -> Result<(), DbError> {
        self.bytes.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> Result<(), DbError> {
        Ok(())
    }

    fn truncate(&self, len: u64) -> Result<(), DbError> {
        let mut bytes = self.bytes.lock();
        bytes.truncate(len as usize);
        Ok(())
    }

    fn replace(&self, new: &[u8]) -> Result<(), DbError> {
        *self.bytes.lock() = new.to_vec();
        Ok(())
    }

    fn len(&self) -> Result<u64, DbError> {
        Ok(self.bytes.lock().len() as u64)
    }
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> DbError {
    move |e| DbError::Io { op, detail: e.to_string() }
}

/// Filesystem-backed [`DbFile`]. `replace` writes a sibling temp file
/// and renames it over the log, so a crash mid-checkpoint leaves either
/// the old log or the new one — never a hybrid.
#[derive(Debug)]
pub struct StdFile {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl StdFile {
    /// Opens (or creates) the log file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DbError> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err("open"))?;
        Ok(StdFile { path, file: Mutex::new(file) })
    }
}

impl DbFile for StdFile {
    fn read_all(&self) -> Result<Vec<u8>, DbError> {
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(0)).map_err(io_err("seek"))?;
        let mut out = Vec::new();
        file.read_to_end(&mut out).map_err(io_err("read"))?;
        Ok(out)
    }

    fn append(&self, bytes: &[u8]) -> Result<(), DbError> {
        let mut file = self.file.lock();
        file.seek(SeekFrom::End(0)).map_err(io_err("seek"))?;
        file.write_all(bytes).map_err(io_err("append"))
    }

    fn sync(&self) -> Result<(), DbError> {
        self.file.lock().sync_all().map_err(io_err("sync"))
    }

    fn truncate(&self, len: u64) -> Result<(), DbError> {
        self.file.lock().set_len(len).map_err(io_err("truncate"))
    }

    fn replace(&self, bytes: &[u8]) -> Result<(), DbError> {
        let mut file = self.file.lock();
        let tmp = self.path.with_extension("walswap");
        {
            let mut t = std::fs::File::create(&tmp).map_err(io_err("replace"))?;
            t.write_all(bytes).map_err(io_err("replace"))?;
            t.sync_all().map_err(io_err("replace"))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(io_err("replace"))?;
        *file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(io_err("replace"))?;
        file.sync_all().map_err(io_err("replace"))
    }

    fn len(&self) -> Result<u64, DbError> {
        Ok(self.file.lock().metadata().map_err(io_err("len"))?.len())
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Absolute offset past which appended bytes stop persisting; the
    /// surviving prefix is written, then the append errors (torn write).
    torn_at: Option<u64>,
    /// 1-based sync call numbers (counted from construction) that fail.
    fail_syncs_at: Vec<u64>,
    sync_calls: u64,
    fail_truncate: bool,
    fail_replace: bool,
}

/// Fault-injecting [`DbFile`] wrapper for the crash-recovery harness:
/// torn/short appends, fail-at-Nth-sync, failed truncate (rollback) and
/// failed replace (checkpoint). All injection is deterministic.
#[derive(Debug)]
pub struct FaultFile {
    inner: Arc<dyn DbFile>,
    state: Mutex<FaultState>,
}

impl FaultFile {
    /// Wraps an inner file with no faults armed.
    pub fn new(inner: Arc<dyn DbFile>) -> Self {
        FaultFile { inner, state: Mutex::new(FaultState::default()) }
    }

    /// Arms a torn write: bytes at or past `offset` never persist, and
    /// the append that crosses it fails after writing the prefix.
    pub fn tear_at(&self, offset: u64) {
        self.state.lock().torn_at = Some(offset);
    }

    /// Arms the `n`-th future sync call (1-based) to fail. Appended
    /// bytes stay in the inner file — the caller's rollback discipline
    /// is what keeps the log clean.
    pub fn fail_nth_sync(&self, n: u64) {
        let mut s = self.state.lock();
        let target = s.sync_calls + n;
        s.fail_syncs_at.push(target);
    }

    /// Makes every `truncate` fail (poisons rollback) until cleared.
    pub fn fail_truncate(&self, yes: bool) {
        self.state.lock().fail_truncate = yes;
    }

    /// Makes every `replace` fail (checkpoint failure) until cleared.
    pub fn fail_replace(&self, yes: bool) {
        self.state.lock().fail_replace = yes;
    }

    /// Disarms all faults.
    pub fn clear_faults(&self) {
        let mut state = self.state.lock();
        let calls = state.sync_calls;
        *state = FaultState { sync_calls: calls, ..FaultState::default() };
    }
}

impl DbFile for FaultFile {
    fn read_all(&self) -> Result<Vec<u8>, DbError> {
        self.inner.read_all()
    }

    fn append(&self, bytes: &[u8]) -> Result<(), DbError> {
        let torn_at = self.state.lock().torn_at;
        if let Some(t) = torn_at {
            let cur = self.inner.len()?;
            if cur + bytes.len() as u64 > t {
                let keep = t.saturating_sub(cur) as usize;
                self.inner.append(&bytes[..keep])?;
                return Err(DbError::Io {
                    op: "append",
                    detail: "injected torn write".to_string(),
                });
            }
        }
        self.inner.append(bytes)
    }

    fn sync(&self) -> Result<(), DbError> {
        let fail = {
            let mut s = self.state.lock();
            s.sync_calls += 1;
            s.fail_syncs_at.contains(&s.sync_calls)
        };
        if fail {
            return Err(DbError::Io {
                op: "sync",
                detail: "injected sync failure".to_string(),
            });
        }
        self.inner.sync()
    }

    fn truncate(&self, len: u64) -> Result<(), DbError> {
        if self.state.lock().fail_truncate {
            return Err(DbError::Io {
                op: "truncate",
                detail: "injected truncate failure".to_string(),
            });
        }
        self.inner.truncate(len)
    }

    fn replace(&self, bytes: &[u8]) -> Result<(), DbError> {
        if self.state.lock().fail_replace {
            return Err(DbError::Io {
                op: "replace",
                detail: "injected replace failure".to_string(),
            });
        }
        self.inner.replace(bytes)
    }

    fn len(&self) -> Result<u64, DbError> {
        self.inner.len()
    }
}

// ---------------------------------------------------------------------
// Logged operations
// ---------------------------------------------------------------------

/// One logged mutation. A batch of them is validated *before* its
/// record is appended and applied by [`Database::apply`], so a committed
/// batch cannot fail part-way, at commit or at replay. They are logged
/// under op tags 1, 3 and 4; a committed record holding any other op tag
/// refuses the open (see [`DurableDatabase::open`]).
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// `CREATE TABLE`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, ColumnType)>,
    },
    /// Append full-width rows to a table.
    InsertRows {
        /// Target table.
        table: String,
        /// Full-width rows.
        rows: Vec<Vec<Value>>,
    },
    /// Delete every row whose column equals the value (SQL equality).
    DeleteEq {
        /// Target table.
        table: String,
        /// Filter column.
        column: String,
        /// Filter value.
        value: Value,
    },
}

fn encode_op(out: &mut Vec<u8>, op: &WalOp) {
    match op {
        WalOp::CreateTable { name, columns } => {
            out.push(1);
            codec::encode_str(out, name);
            codec::encode_u32(out, columns.len() as u32);
            for (col, ty) in columns {
                codec::encode_str(out, col);
                codec::encode_column_type(out, *ty);
            }
        }
        WalOp::InsertRows { table, rows } => {
            out.push(3);
            codec::encode_str(out, table);
            codec::encode_rows(out, rows);
        }
        WalOp::DeleteEq { table, column, value } => {
            out.push(4);
            codec::encode_str(out, table);
            codec::encode_str(out, column);
            codec::encode_value(out, value);
        }
    }
}

fn decode_op(d: &mut Decoder<'_>) -> Result<WalOp, DbError> {
    match d.u8("op tag")? {
        1 => {
            let name = d.str("table name")?;
            let n = d.u32("column count")? as usize;
            if n > d.remaining() {
                return Err(DbError::Codec {
                    offset: d.offset(),
                    expected: "column count within record",
                });
            }
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                let col = d.str("column name")?;
                let ty = d.column_type()?;
                columns.push((col, ty));
            }
            Ok(WalOp::CreateTable { name, columns })
        }
        3 => {
            let table = d.str("table name")?;
            let rows = d.rows()?;
            Ok(WalOp::InsertRows { table, rows })
        }
        4 => Ok(WalOp::DeleteEq {
            table: d.str("table name")?,
            column: d.str("column name")?,
            value: d.value()?,
        }),
        _ => {
            Err(DbError::Codec { offset: d.offset() - 1, expected: "op tag 1, 3 or 4" })
        }
    }
}

/// A fully decoded record.
enum Record {
    Commit(Vec<WalOp>),
    Checkpoint(Vec<(TableSchema, Vec<Vec<Value>>)>),
}

fn decode_record(payload: &[u8]) -> Result<Record, DbError> {
    let mut d = Decoder::new(payload);
    let rec = match d.u8("record tag")? {
        TAG_COMMIT => {
            let n = d.u32("op count")? as usize;
            if n > d.remaining() {
                return Err(DbError::Codec {
                    offset: d.offset(),
                    expected: "op count within record",
                });
            }
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(decode_op(&mut d)?);
            }
            Record::Commit(ops)
        }
        TAG_CHECKPOINT => {
            let n = d.u32("table count")? as usize;
            if n > d.remaining() {
                return Err(DbError::Codec {
                    offset: d.offset(),
                    expected: "table count within record",
                });
            }
            let mut tables = Vec::with_capacity(n);
            for _ in 0..n {
                let name = d.str("table name")?;
                let ncols = d.u32("column count")? as usize;
                if ncols > d.remaining() {
                    return Err(DbError::Codec {
                        offset: d.offset(),
                        expected: "column count within record",
                    });
                }
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    let col = d.str("column name")?;
                    let ty = d.column_type()?;
                    columns.push((col, ty));
                }
                let rows = d.rows()?;
                tables.push((TableSchema { name, columns }, rows));
            }
            Record::Checkpoint(tables)
        }
        _ => {
            return Err(DbError::Codec { offset: 0, expected: "record tag 1 or 2" });
        }
    };
    d.finish()?;
    Ok(rec)
}

/// Frames a payload as `[u32 len][u64 checksum][payload]`.
fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    codec::encode_u32(&mut out, payload.len() as u32);
    codec::encode_u64(&mut out, codec::checksum64(&payload));
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------
// The durable database
// ---------------------------------------------------------------------

/// Compaction knob. Every commit is flushed before it is acknowledged.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Take a checkpoint once this many commit-record bytes have been
    /// appended since the last one. `0` disables automatic checkpoints.
    pub checkpoint_every_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { checkpoint_every_bytes: 4 * 1024 * 1024 }
    }
}

/// What recovery found in the log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid records replayed (checkpoints count as one).
    pub records_replayed: usize,
    /// Operations applied from commit records.
    pub ops_applied: usize,
    /// Bytes of invalid tail (torn/corrupt) truncated away.
    pub truncated_bytes: u64,
}

/// Receipt for one durable commit.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommitReceipt {
    /// Bytes this commit appended to the log (0 if folded away).
    pub wal_bytes: u64,
    /// `true` when the commit tripped an automatic checkpoint.
    pub checkpointed: bool,
    /// Rows the batch's [`WalOp::DeleteEq`] ops removed.
    pub rows_removed: usize,
}

#[derive(Debug)]
struct WalInner {
    file: Arc<dyn DbFile>,
    /// Length of the log holding only fully committed records.
    committed_len: u64,
    /// Cumulative commit-record bytes appended (monotonic; survives
    /// checkpoints).
    bytes_logged: u64,
    bytes_since_checkpoint: u64,
    /// Set when a failed append/sync could not be rolled back; cleared
    /// by a successful checkpoint (which rewrites the file whole).
    poisoned: Option<String>,
}

/// A [`Database`] whose mutations are write-ahead logged.
///
/// [`commit`](Self::commit) is the only write path: every write is a
/// typed [`WalOp`] batch. Mutating the inner
/// [`database`](Self::database) directly bypasses the log and will not
/// survive a reopen.
#[derive(Debug)]
pub struct DurableDatabase {
    db: Arc<Database>,
    inner: Mutex<WalInner>,
    config: WalConfig,
}

impl DurableDatabase {
    /// Opens (or creates) a durable database over `file`, replaying any
    /// existing log to the last valid record. Torn or corrupt tails are
    /// truncated, never panicked on.
    ///
    /// # Errors
    /// [`DbError::Wal`] for a file that is not a log, or for a record
    /// whose checksum verifies but which this build cannot decode or
    /// apply: it was committed, so truncating it would drop a write.
    pub fn open(
        file: Arc<dyn DbFile>,
        config: WalConfig,
    ) -> Result<(Self, RecoveryReport), DbError> {
        let bytes = file.read_all()?;
        let mut report = RecoveryReport::default();
        let mut db = Database::new();
        let committed_len;
        if bytes.is_empty() {
            file.append(MAGIC)?;
            file.sync()?;
            committed_len = MAGIC.len() as u64;
        } else {
            if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
                return Err(DbError::Wal(format!(
                    "not a WAL file (bad magic in {} byte(s))",
                    bytes.len()
                )));
            }
            let mut pos = MAGIC.len();
            while let Some((payload, next)) = take_record(&bytes, pos) {
                // The checksum verified, so the record was committed: one
                // this build cannot decode or apply refuses the open.
                let refuse = |e: DbError| {
                    DbError::Wal(format!(
                        "committed record at byte {pos} cannot be replayed: {e}"
                    ))
                };
                match decode_record(payload).map_err(refuse)? {
                    Record::Commit(ops) => {
                        db.apply(&ops).map_err(refuse)?;
                        report.ops_applied += ops.len();
                    }
                    Record::Checkpoint(tables) => {
                        db = restore_image(tables).map_err(refuse)?;
                        report.ops_applied = 0;
                    }
                }
                report.records_replayed += 1;
                pos = next;
            }
            committed_len = pos as u64;
            if (bytes.len() as u64) > committed_len {
                report.truncated_bytes = bytes.len() as u64 - committed_len;
                file.truncate(committed_len)?;
                file.sync()?;
            }
        }
        Ok((
            DurableDatabase {
                db: Arc::new(db),
                inner: Mutex::new(WalInner {
                    file,
                    committed_len,
                    bytes_logged: 0,
                    bytes_since_checkpoint: 0,
                    poisoned: None,
                }),
                config,
            },
            report,
        ))
    }

    /// Opens a durable database at a filesystem path via [`StdFile`].
    pub fn open_path(
        path: impl AsRef<Path>,
        config: WalConfig,
    ) -> Result<(Self, RecoveryReport), DbError> {
        DurableDatabase::open(Arc::new(StdFile::open(path)?), config)
    }

    /// The in-memory database. Reads are free to go through it
    /// directly; writes must use the commit paths.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Bytes of the log holding fully committed records.
    pub fn wal_len(&self) -> u64 {
        self.inner.lock().committed_len
    }

    /// Cumulative commit-record bytes appended over this handle's
    /// lifetime (checkpoint compaction does not subtract).
    pub fn wal_bytes_logged(&self) -> u64 {
        self.inner.lock().bytes_logged
    }

    /// Commits a batch crash-atomically: validate the batch, append one
    /// checksummed record, flush, then apply it to memory with
    /// [`Database::apply`]. On append/sync failure the log rolls back to
    /// its committed length and the error is typed and retryable.
    pub fn commit(&self, ops: &[WalOp]) -> Result<CommitReceipt, DbError> {
        if ops.is_empty() {
            return Ok(CommitReceipt::default());
        }
        let mut inner = self.inner.lock();
        if let Some(why) = &inner.poisoned {
            return Err(DbError::Wal(format!("log poisoned: {why}")));
        }
        self.db.validate(ops)?;
        let mut payload = vec![TAG_COMMIT];
        codec::encode_u32(&mut payload, ops.len() as u32);
        for op in ops {
            encode_op(&mut payload, op);
        }
        if payload.len() > MAX_RECORD as usize {
            return Err(DbError::Wal(format!(
                "commit record of {} bytes exceeds the {MAX_RECORD} byte cap",
                payload.len()
            )));
        }
        let record = frame(payload);
        let committed_len = inner.committed_len;
        let io = inner.file.append(&record).and_then(|()| inner.file.sync());
        if let Err(e) = io {
            // Roll the file back so no torn record sits mid-log. If even
            // that fails, poison: later commits would land after garbage.
            if inner.file.truncate(committed_len).is_err() {
                inner.poisoned = Some(format!("rollback after failed commit ({e})"));
            }
            return Err(e);
        }
        inner.committed_len += record.len() as u64;
        inner.bytes_logged += record.len() as u64;
        inner.bytes_since_checkpoint += record.len() as u64;

        // The record is durable; apply it to memory. Only this commit path
        // writes, under `inner`'s lock, so the batch validated above
        // still validates.
        let rows_removed = self.db.apply(ops)?;
        let mut checkpointed = false;
        if self.config.checkpoint_every_bytes > 0
            && inner.bytes_since_checkpoint >= self.config.checkpoint_every_bytes
        {
            // Compaction is opportunistic: a failed checkpoint leaves the
            // (intact) log in place and the next commit retries it.
            checkpointed = self.checkpoint_locked(&mut inner).is_ok();
        }
        Ok(CommitReceipt { wal_bytes: record.len() as u64, checkpointed, rows_removed })
    }

    /// Folds the whole log into one checkpoint record via an atomic
    /// file replace. Also the recovery valve for a poisoned log.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let mut inner = self.inner.lock();
        self.checkpoint_locked(&mut inner)
    }

    fn checkpoint_locked(&self, inner: &mut WalInner) -> Result<(), DbError> {
        let image = self.db.snapshot_tables();
        let mut payload = vec![TAG_CHECKPOINT];
        codec::encode_u32(&mut payload, image.len() as u32);
        for (schema, rows) in &image {
            codec::encode_str(&mut payload, &schema.name);
            codec::encode_u32(&mut payload, schema.columns.len() as u32);
            for (col, ty) in &schema.columns {
                codec::encode_str(&mut payload, col);
                codec::encode_column_type(&mut payload, *ty);
            }
            codec::encode_rows(&mut payload, rows);
        }
        if payload.len() > MAX_RECORD as usize {
            return Err(DbError::Wal(format!(
                "checkpoint image of {} bytes exceeds the {MAX_RECORD} byte cap",
                payload.len()
            )));
        }
        let mut content = MAGIC.to_vec();
        content.extend_from_slice(&frame(payload));
        inner.file.replace(&content)?;
        inner.file.sync()?;
        inner.committed_len = content.len() as u64;
        inner.bytes_since_checkpoint = 0;
        inner.poisoned = None;
        Ok(())
    }
}

/// Validates and extracts the record starting at `pos`; `None` means
/// the bytes from `pos` on are not a valid record (torn or corrupt).
fn take_record(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let header = bytes.get(pos..pos + 12)?;
    let len = u32::from_le_bytes(header.get(..4)?.try_into().ok()?);
    if len > MAX_RECORD {
        return None;
    }
    let checksum = u64::from_le_bytes(header.get(4..12)?.try_into().ok()?);
    let start = pos + 12;
    let payload = bytes.get(start..start + len as usize)?;
    if codec::checksum64(payload) != checksum {
        return None;
    }
    Some((payload, start + len as usize))
}

/// Rebuilds a database from a checkpoint image.
fn restore_image(
    tables: Vec<(TableSchema, Vec<Vec<Value>>)>,
) -> Result<Database, DbError> {
    let db = Database::new();
    for (TableSchema { name, columns }, rows) in tables {
        db.create_table(&name, columns)?;
        db.insert_rows(&name, rows)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Arc<MemFile> {
        Arc::new(MemFile::new())
    }

    fn seed(wal: &DurableDatabase) {
        wal.commit(&[WalOp::CreateTable {
            name: "t".to_string(),
            columns: vec![
                ("a".to_string(), ColumnType::Integer),
                ("b".to_string(), ColumnType::Real),
            ],
        }])
        .unwrap();
    }

    #[test]
    fn commit_then_reopen_replays() {
        let file = mem();
        let (wal, report) =
            DurableDatabase::open(file.clone(), WalConfig::default()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        seed(&wal);
        wal.commit(&[WalOp::InsertRows {
            table: "t".to_string(),
            rows: vec![vec![Value::Int(1), Value::Float(-0.0)]],
        }])
        .unwrap();
        drop(wal);

        let (wal, report) = DurableDatabase::open(file, WalConfig::default()).unwrap();
        assert_eq!(report.records_replayed, 2);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(wal.database().row_count("t").unwrap(), 1);
        let rs = wal.database().execute("SELECT b FROM t").unwrap();
        let Value::Float(b) = rs.rows[0][0] else { panic!() };
        assert_eq!(b.to_bits(), (-0.0f64).to_bits(), "bit-exact through the log");
    }

    #[test]
    fn torn_tail_recovers_to_committed_prefix() {
        let file = mem();
        let (wal, _) =
            DurableDatabase::open(file.clone(), WalConfig::default()).unwrap();
        seed(&wal);
        wal.commit(&[WalOp::InsertRows {
            table: "t".to_string(),
            rows: vec![vec![Value::Int(1), Value::Float(1.0)]],
        }])
        .unwrap();
        let committed = wal.wal_len();
        wal.commit(&[WalOp::InsertRows {
            table: "t".to_string(),
            rows: vec![vec![Value::Int(2), Value::Float(2.0)]],
        }])
        .unwrap();
        drop(wal);

        // Crash mid-append of the final record: keep an arbitrary prefix.
        for cut in committed..file.len().unwrap() {
            let bytes = file.snapshot();
            let torn = Arc::new(MemFile::new());
            torn.append(&bytes[..cut as usize]).unwrap();
            let (wal, report) =
                DurableDatabase::open(torn, WalConfig::default()).unwrap();
            assert_eq!(report.records_replayed, 2, "cut at {cut}");
            assert_eq!(report.truncated_bytes, cut - committed, "cut at {cut}");
            assert_eq!(wal.database().row_count("t").unwrap(), 1, "cut at {cut}");
        }
    }

    #[test]
    fn failed_sync_rolls_back_and_is_retryable() {
        let inner = mem();
        let fault = Arc::new(FaultFile::new(inner));
        let (wal, _) = DurableDatabase::open(
            fault.clone() as Arc<dyn DbFile>,
            WalConfig::default(),
        )
        .unwrap();
        seed(&wal);
        let len_before = wal.wal_len();
        fault.fail_nth_sync(1);
        let op = WalOp::InsertRows {
            table: "t".to_string(),
            rows: vec![vec![Value::Int(7), Value::Float(7.0)]],
        };
        let err = wal.commit(std::slice::from_ref(&op)).unwrap_err();
        assert!(matches!(err, DbError::Io { op: "sync", .. }), "{err:?}");
        // Nothing applied, nothing left in the log.
        assert_eq!(wal.database().row_count("t").unwrap(), 0);
        assert_eq!(fault.len().unwrap(), len_before);
        // The retry succeeds.
        wal.commit(&[op]).unwrap();
        assert_eq!(wal.database().row_count("t").unwrap(), 1);
    }

    #[test]
    fn failed_rollback_poisons_until_checkpoint() {
        let inner = mem();
        let fault = Arc::new(FaultFile::new(inner));
        let (wal, _) = DurableDatabase::open(
            fault.clone() as Arc<dyn DbFile>,
            WalConfig::default(),
        )
        .unwrap();
        seed(&wal);
        fault.fail_nth_sync(1);
        fault.fail_truncate(true);
        let op = WalOp::InsertRows {
            table: "t".to_string(),
            rows: vec![vec![Value::Int(1), Value::Float(1.0)]],
        };
        wal.commit(std::slice::from_ref(&op)).unwrap_err();
        let err = wal.commit(std::slice::from_ref(&op)).unwrap_err();
        assert!(matches!(err, DbError::Wal(_)), "poisoned log fails typed: {err:?}");
        // A checkpoint rewrites the file whole and heals the log.
        fault.clear_faults();
        wal.checkpoint().unwrap();
        wal.commit(&[op]).unwrap();
        assert_eq!(wal.database().row_count("t").unwrap(), 1);
    }

    #[test]
    fn checkpoint_compacts_and_survives_reopen() {
        let file = mem();
        let (wal, _) =
            DurableDatabase::open(file.clone(), WalConfig::default()).unwrap();
        seed(&wal);
        for i in 0..50 {
            wal.commit(&[WalOp::InsertRows {
                table: "t".to_string(),
                rows: vec![vec![Value::Int(i), Value::Float(i as f64)]],
            }])
            .unwrap();
        }
        let before = wal.wal_len();
        wal.checkpoint().unwrap();
        assert!(wal.wal_len() < before, "checkpoint must shrink the log");
        drop(wal);
        let (wal, report) = DurableDatabase::open(file, WalConfig::default()).unwrap();
        assert_eq!(report.records_replayed, 1, "one checkpoint record");
        assert_eq!(wal.database().row_count("t").unwrap(), 50);
    }

    #[test]
    fn automatic_checkpoint_triggers_on_byte_threshold() {
        let file = mem();
        let config = WalConfig { checkpoint_every_bytes: 256 };
        let (wal, _) = DurableDatabase::open(file, config).unwrap();
        seed(&wal);
        let mut saw_checkpoint = false;
        for i in 0..20 {
            let receipt = wal
                .commit(&[WalOp::InsertRows {
                    table: "t".to_string(),
                    rows: vec![vec![Value::Int(i), Value::Float(0.5)]],
                }])
                .unwrap();
            saw_checkpoint |= receipt.checkpointed;
        }
        assert!(saw_checkpoint);
        assert_eq!(wal.database().row_count("t").unwrap(), 20);
    }

    #[test]
    fn bit_flip_anywhere_truncates_from_that_record() {
        let file = mem();
        let (wal, _) =
            DurableDatabase::open(file.clone(), WalConfig::default()).unwrap();
        seed(&wal);
        wal.commit(&[WalOp::InsertRows {
            table: "t".to_string(),
            rows: vec![vec![Value::Int(3), Value::Float(3.0)]],
        }])
        .unwrap();
        drop(wal);
        let clean = file.snapshot();
        // Flip one bit inside the *second* record's payload.
        let flipped = Arc::new(MemFile::new());
        flipped.append(&clean).unwrap();
        flipped.corrupt(clean.len() - 4, 0x40);
        let (wal, report) =
            DurableDatabase::open(flipped, WalConfig::default()).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert!(report.truncated_bytes > 0);
        assert_eq!(wal.database().row_count("t").unwrap(), 0, "uncommitted row gone");
    }

    #[test]
    fn non_wal_file_is_a_typed_error() {
        let file = mem();
        file.append(b"definitely not a log").unwrap();
        let err = DurableDatabase::open(file, WalConfig::default()).unwrap_err();
        assert!(matches!(err, DbError::Wal(_)), "{err:?}");
    }
}
