//! # jit-db
//!
//! An in-memory relational engine with the SQL subset JustInTime needs.
//!
//! The original system stores generated candidates in MySQL and translates
//! canned user questions into SQL (paper §II-C, Figure 2). This crate
//! replaces MySQL with a small, fully tested engine that executes those
//! queries *verbatim*, including the gnarly ones: correlated `EXISTS`
//! subqueries referencing outer projection aliases (Q3) and
//! `>= ALL (subquery)` comparisons (Q6).
//!
//! Supported surface:
//!
//! * `CREATE TABLE t (col TYPE, …)` with `INTEGER | REAL | TEXT | BOOLEAN`
//! * `INSERT INTO t VALUES (…), (…), …` and `INSERT INTO t (cols) VALUES …`
//! * `SELECT [DISTINCT] proj, … FROM t [AS a]`
//!   `[INNER JOIN u [AS b] ON expr]*`
//!   `[WHERE expr] [GROUP BY expr, …] [HAVING expr]`
//!   `[ORDER BY expr [ASC|DESC], …] [LIMIT n]`
//! * expressions: literals, (qualified) columns, `+ - * / %`, comparisons,
//!   `AND OR NOT`, `BETWEEN`, `IN (list | subquery)`, `EXISTS (subquery)`,
//!   `expr op ALL/ANY (subquery)`, `IS [NOT] NULL`, scalar subqueries,
//!   aggregates `COUNT/SUM/AVG/MIN/MAX` (with `COUNT(*)`)
//!
//! Semantics notes: comparisons involving `NULL` are false (no full
//! three-valued logic); aggregates skip `NULL`s; `ORDER BY` is a stable
//! sort with `NULL`s last.
//!
//! Entry point: [`Database`], which wraps the catalog behind a
//! `parking_lot::RwLock` so the per-time-point candidate generators can
//! insert in parallel while readers run queries.
//!
//! ## Typed store API
//!
//! Programs that keep rows here, rather than query them, skip SQL text:
//! [`Database::apply`] writes a batch of typed [`WalOp`]s, and
//! [`Database::select`] reads columns with an optional equality filter,
//! probing a hash index declared with [`Database::create_index`]. Values
//! cross both as typed [`Value`]s, so floats stay bit-exact (NaN
//! payloads, `-0.0`). Every [`ResultSet`], from `select` or from SQL
//! text, reports [`ExecutionMetrics`] (rows/bytes scanned, rows output).
//!
//! ## Durability
//!
//! [`DurableDatabase`] (in [`wal`]) wraps a [`Database`] with an
//! append-only write-ahead log behind the pluggable [`DbFile`] trait.
//! Its one write path is [`DurableDatabase::commit`] of a typed
//! [`WalOp`] batch, the same batch [`Database::apply`] validates and
//! applies under one table write lock. The contract, in one paragraph:
//! a commit is acknowledged only after its batch is validated, encoded
//! into a checksummed record, appended, and flushed; reopening replays
//! the log through [`Database::apply`] to the last valid record and
//! truncates any torn or corrupt tail, so recovery always lands on the
//! longest committed prefix — never a partial batch, never a panic. A
//! record whose checksum verifies but which this build cannot decode
//! refuses the open instead of being truncated. Checkpoints fold the log
//! into one full-image record via an atomic file replace, bounding log
//! growth and reopen time. See the [`wal`] module docs for the
//! failure-handling fine print (rollback on failed append/sync,
//! poisoning, and the fault-injection harness).

#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
pub mod codec;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod result;
pub mod table;
pub mod value;
pub mod wal;

pub use catalog::Database;
pub use error::DbError;
pub use result::{ExecutionMetrics, ResultSet};
pub use value::{ColumnType, Value};
pub use wal::{
    CommitReceipt, DbFile, DurableDatabase, FaultFile, MemFile, RecoveryReport,
    StdFile, WalConfig, WalOp,
};

/// Parses and executes one SQL statement against a database.
///
/// Convenience wrapper over [`Database::execute`].
pub fn execute(db: &Database, sql: &str) -> Result<ResultSet, DbError> {
    db.execute(sql)
}
