//! Error type shared across the engine.

use std::fmt;

/// Anything that can go wrong parsing or executing SQL.
#[derive(Clone, Debug, PartialEq)]
pub enum DbError {
    /// Tokenizer/parser failure with byte offset.
    Parse {
        /// Byte offset into the SQL text.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// Referenced table does not exist.
    UnknownTable(String),
    /// Table already exists.
    DuplicateTable(String),
    /// Column not found (possibly ambiguous context in message).
    UnknownColumn(String),
    /// Column reference matches more than one table in scope.
    AmbiguousColumn(String),
    /// Value/type mismatch on insert.
    TypeMismatch {
        /// Table involved.
        table: String,
        /// Column involved.
        column: String,
        /// Description of the offending value.
        value: String,
    },
    /// Wrong arity in INSERT values.
    ArityMismatch {
        /// Expected column count.
        expected: usize,
        /// Provided value count.
        found: usize,
    },
    /// A scalar subquery returned more than one row/column.
    SubqueryShape(String),
    /// Aggregate misuse (nested aggregates, aggregate in WHERE, …).
    AggregateMisuse(String),
    /// Runtime evaluation failure (division by zero, bad operand types).
    Eval(String),
    /// Binary row/record decoding failure at a byte offset.
    Codec {
        /// Byte offset into the encoded buffer where decoding failed.
        offset: usize,
        /// What the decoder expected to find there.
        expected: &'static str,
    },
    /// I/O failure in the durability layer (rendered, since
    /// `std::io::Error` is neither `Clone` nor `PartialEq`).
    Io {
        /// Operation that failed (`"append"`, `"sync"`, …).
        op: &'static str,
        /// Rendered OS error.
        detail: String,
    },
    /// The write-ahead log file is unusable (bad magic, wrong version, a
    /// committed record this build cannot replay, or poisoned after a
    /// failed rollback).
    Wal(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse { offset, message } => {
                write!(f, "SQL parse error at byte {offset}: {message}")
            }
            DbError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            DbError::DuplicateTable(t) => write!(f, "table {t:?} already exists"),
            DbError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            DbError::AmbiguousColumn(c) => write!(f, "ambiguous column {c:?}"),
            DbError::TypeMismatch { table, column, value } => {
                write!(f, "type mismatch inserting {value} into {table}.{column}")
            }
            DbError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} values, found {found}")
            }
            DbError::SubqueryShape(msg) => write!(f, "bad subquery shape: {msg}"),
            DbError::AggregateMisuse(msg) => write!(f, "aggregate misuse: {msg}"),
            DbError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            DbError::Codec { offset, expected } => {
                write!(f, "codec error at byte {offset}: expected {expected}")
            }
            DbError::Io { op, detail } => write!(f, "i/o error during {op}: {detail}"),
            DbError::Wal(msg) => write!(f, "write-ahead log error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}
