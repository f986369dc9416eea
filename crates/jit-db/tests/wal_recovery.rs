//! Crash-recovery properties of the write-ahead log, driven through the
//! fault-injecting [`FaultFile`] and in-memory [`MemFile`]: torn tails
//! at every byte, bit flips at every byte, failed syncs with successful
//! retries, and the headline invariant — after arbitrary corruption,
//! recovery lands on a *committed prefix* of the history, never a
//! partial batch, never a panic.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jit_db::{
    DbError, DbFile, DurableDatabase, FaultFile, MemFile, Value, WalConfig, WalOp,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::Arc;

fn create_t() -> WalOp {
    WalOp::CreateTable {
        name: "t".to_string(),
        columns: vec![
            ("k".to_string(), jit_db::ColumnType::Integer),
            ("v".to_string(), jit_db::ColumnType::Real),
            ("s".to_string(), jit_db::ColumnType::Text),
        ],
    }
}

fn insert(k: i64, v: f64, s: &str) -> WalOp {
    WalOp::InsertRows {
        table: "t".to_string(),
        rows: vec![vec![Value::Int(k), Value::Float(v), Value::Text(s.to_string())]],
    }
}

/// Rows of `t` as (k, v-bits, s) triples, sorted by k; empty when the
/// table does not exist yet (recovery to the pre-DDL prefix).
fn rows_of(db: &jit_db::Database) -> Vec<(i64, u64, String)> {
    if !db.has_table("t") {
        return Vec::new();
    }
    let rs = db.execute("SELECT k, v, s FROM t ORDER BY k").unwrap();
    rs.rows
        .iter()
        .map(|r| {
            let Value::Int(k) = r[0] else { panic!() };
            let Value::Float(v) = r[1] else { panic!() };
            let Value::Text(s) = &r[2] else { panic!() };
            (k, v.to_bits(), s.clone())
        })
        .collect()
}

/// Blobs of the `blobs` table (a BLOB column beside `t`), by key.
fn blobs_of(db: &jit_db::Database) -> Vec<Vec<u8>> {
    if !db.has_table("blobs") {
        return Vec::new();
    }
    let rs = db.execute("SELECT b FROM blobs ORDER BY k").unwrap();
    rs.rows
        .iter()
        .map(|r| {
            let Value::Blob(b) = &r[0] else { panic!() };
            b.clone()
        })
        .collect()
}

#[test]
fn torn_tail_at_every_byte_recovers_the_committed_prefix() {
    // Build a log of commits, remembering the state after each.
    let file = Arc::new(MemFile::new());
    let (wal, _) = DurableDatabase::open(file.clone(), WalConfig::default()).unwrap();
    let state = |db: &jit_db::Database| (rows_of(db), blobs_of(db));
    let mut commit_ends = vec![wal.wal_len()];
    let mut states = vec![(Vec::new(), Vec::new())];
    wal.commit(&[create_t()]).unwrap();
    commit_ends.push(wal.wal_len());
    states.push(state(wal.database()));
    for (k, v) in [(1, f64::NAN), (2, -0.0), (3, 1.5e-310)] {
        wal.commit(&[insert(k, v, "x")]).unwrap();
        commit_ends.push(wal.wal_len());
        states.push(state(wal.database()));
    }
    // A BLOB column, with NUL and invalid UTF-8 bytes, in the last commit.
    let create_blobs = WalOp::CreateTable {
        name: "blobs".to_string(),
        columns: vec![
            ("k".to_string(), jit_db::ColumnType::Integer),
            ("b".to_string(), jit_db::ColumnType::Blob),
        ],
    };
    let insert_blob = WalOp::InsertRows {
        table: "blobs".to_string(),
        rows: vec![vec![Value::Int(1), Value::Blob(vec![0, 0xff, 0xfe, b'x'])]],
    };
    for op in [create_blobs, insert_blob] {
        wal.commit(&[op]).unwrap();
        commit_ends.push(wal.wal_len());
        states.push(state(wal.database()));
    }
    drop(wal);
    let clean = file.snapshot();

    // Cut the file at every possible length and reopen: the recovered
    // state must be exactly the last fully-committed prefix.
    for cut in 8..=clean.len() {
        let torn = Arc::new(MemFile::new());
        torn.append(&clean[..cut]).unwrap();
        let (wal, report) =
            DurableDatabase::open(torn.clone(), WalConfig::default()).unwrap();
        let prefix = commit_ends.iter().filter(|&&e| e <= cut as u64).count() - 1;
        assert_eq!(
            state(wal.database()),
            states[prefix],
            "cut at {cut} must recover the {prefix}-commit prefix"
        );
        let expected_end = commit_ends[prefix];
        assert_eq!(report.truncated_bytes, cut as u64 - expected_end, "cut at {cut}");
        // The torn tail is physically gone after recovery.
        assert_eq!(torn.len().unwrap(), expected_end, "cut at {cut}");
    }
}

#[test]
fn failed_sync_then_retry_is_exactly_once() {
    let fault = Arc::new(FaultFile::new(Arc::new(MemFile::new())));
    let (wal, _) =
        DurableDatabase::open(fault.clone() as Arc<dyn DbFile>, WalConfig::default())
            .unwrap();
    wal.commit(&[create_t()]).unwrap();
    for n in 0..5 {
        fault.fail_nth_sync(1);
        let op = insert(n, n as f64, "retry");
        let err = wal.commit(std::slice::from_ref(&op)).unwrap_err();
        assert!(matches!(err, DbError::Io { .. }), "{err:?}");
        // The retry lands the row exactly once.
        wal.commit(std::slice::from_ref(&op)).unwrap();
    }
    assert_eq!(wal.database().row_count("t").unwrap(), 5);
}

#[test]
fn checkpoint_compacts_and_preserves_bit_exact_floats() {
    let file = Arc::new(MemFile::new());
    let config = WalConfig { checkpoint_every_bytes: 0 };
    let (wal, _) = DurableDatabase::open(file.clone(), config).unwrap();
    wal.commit(&[create_t()]).unwrap();
    let nan = f64::from_bits(0x7ff8_dead_beef_0001);
    for k in 0..100 {
        wal.commit(&[insert(k, nan, "héllo\0🦀")]).unwrap();
    }
    let before = wal.wal_len();
    let state = rows_of(wal.database());
    wal.checkpoint().unwrap();
    // One image record beats 101 framed commits (shared per-record and
    // per-op overhead folds away).
    assert!(wal.wal_len() < before, "{} -> {}", before, wal.wal_len());
    drop(wal);
    let (wal, report) = DurableDatabase::open(file, config).unwrap();
    assert_eq!(report.records_replayed, 1);
    assert_eq!(rows_of(wal.database()), state, "NaN payloads survive checkpoint");
}

#[test]
fn commits_after_checkpoint_replay_on_top_of_the_image() {
    let file = Arc::new(MemFile::new());
    let config = WalConfig { checkpoint_every_bytes: 0 };
    let (wal, _) = DurableDatabase::open(file.clone(), config).unwrap();
    wal.commit(&[create_t()]).unwrap();
    wal.commit(&[insert(1, 1.0, "pre")]).unwrap();
    wal.checkpoint().unwrap();
    wal.commit(&[insert(2, 2.0, "post")]).unwrap();
    let state = rows_of(wal.database());
    drop(wal);
    let (wal, report) = DurableDatabase::open(file, config).unwrap();
    assert_eq!(report.records_replayed, 2, "checkpoint + one commit");
    assert_eq!(rows_of(wal.database()), state);
}

/// A record whose checksum verifies was committed, so one this build
/// cannot decode must refuse the open: truncating it as a torn tail
/// would silently drop a committed write. The record here is the tag-6
/// SQL-text op an older build could log. The same bytes torn or with a
/// bit flipped fail the checksum and are still truncated.
#[test]
fn a_valid_record_this_build_cannot_decode_refuses_the_open() {
    let file = Arc::new(MemFile::new());
    let (wal, _) = DurableDatabase::open(file.clone(), WalConfig::default()).unwrap();
    wal.commit(&[create_t()]).unwrap();
    drop(wal);
    let committed = file.snapshot();
    // [commit tag 1][op count 1][op tag 6][sql text], framed as
    // [u32 payload length][u64 checksum][payload].
    let mut payload = vec![1];
    jit_db::codec::encode_u32(&mut payload, 1);
    payload.push(6);
    jit_db::codec::encode_str(&mut payload, "INSERT INTO t VALUES (1, 0.5, 'sql')");
    let mut record = Vec::new();
    jit_db::codec::encode_u32(&mut record, payload.len() as u32);
    jit_db::codec::encode_u64(&mut record, jit_db::codec::checksum64(&payload));
    record.extend_from_slice(&payload);

    let with = |record: &[u8]| {
        let file = Arc::new(MemFile::new());
        file.append(&committed).unwrap();
        file.append(record).unwrap();
        file
    };
    let file = with(&record);
    let err = DurableDatabase::open(file.clone(), WalConfig::default()).unwrap_err();
    assert!(matches!(err, DbError::Wal(_)), "{err:?}");
    assert_eq!(file.len().unwrap(), (committed.len() + record.len()) as u64, "kept");

    let mut flipped = record.clone();
    if let Some(last) = flipped.last_mut() {
        *last ^= 0x01;
    }
    for damaged in [&record[..record.len() - 1], &flipped[..]] {
        let file = with(damaged);
        let (wal, report) = DurableDatabase::open(file.clone(), WalConfig::default())
            .expect("a torn or flipped record is a torn tail");
        assert_eq!(report.truncated_bytes, damaged.len() as u64);
        assert_eq!(file.len().unwrap(), committed.len() as u64);
        assert_eq!(wal.database().row_count("t").unwrap(), 0);
    }
}

/// A deterministic mixed batch for the property test.
fn arbitrary_ops(rng: &mut TestRng, round: i64) -> Vec<WalOp> {
    match rng.i128_in(0, 4) {
        0 => vec![insert(round, f64::from_bits(rng.next_u64()), "p")],
        1 => vec![insert(round, round as f64, "a"), insert(round + 1000, -0.0, "b")],
        2 => vec![WalOp::DeleteEq {
            table: "t".to_string(),
            column: "k".to_string(),
            value: Value::Int(rng.i128_in(0, round.max(1) as i128) as i64),
        }],
        _ => vec![
            WalOp::DeleteEq {
                table: "t".to_string(),
                column: "s".to_string(),
                value: Value::Text("p".to_string()),
            },
            insert(round, 0.25, "sql"),
        ],
    }
}

#[derive(Clone, Debug)]
struct CorruptionPlan;

impl Strategy for CorruptionPlan {
    type Value = (u64, Vec<(usize, u8)>);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let seed = rng.next_u64();
        let nflips = rng.i128_in(1, 3) as usize;
        let flips = (0..nflips)
            .map(|_| {
                let offset = rng.i128_in(0, 1 << 16) as usize;
                let mask = 1u8 << (rng.next_u64() % 8);
                (offset, mask)
            })
            .collect();
        (seed, flips)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline robustness property: run a random workload, corrupt
    /// the log with random bit flips, reopen. The recovered state must
    /// equal the state after some *prefix* of the committed batches (or
    /// the open must fail typed when the header itself is hit) — and
    /// nothing may panic.
    #[test]
    fn random_corruption_recovers_a_committed_prefix(plan in CorruptionPlan) {
        let (seed, flips) = plan;
        let mut rng = TestRng::seeded(seed);
        let file = Arc::new(MemFile::new());
        let (wal, _) =
            DurableDatabase::open(file.clone(), WalConfig::default()).unwrap();
        wal.commit(&[create_t()]).unwrap();
        let mut states = vec![rows_of(wal.database())];
        for round in 0..12 {
            let _ = wal.commit(&arbitrary_ops(&mut rng, round));
            states.push(rows_of(wal.database()));
        }
        drop(wal);

        let len = file.len().unwrap() as usize;
        for (offset, mask) in flips {
            file.corrupt(offset % len, mask);
        }
        match DurableDatabase::open(file, WalConfig::default()) {
            Err(DbError::Wal(_)) => {} // header hit: typed, not a panic
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
            Ok((wal, _)) => {
                let recovered = if wal.database().has_table("t") {
                    rows_of(wal.database())
                } else {
                    Vec::new()
                };
                let is_prefix = std::iter::once(&Vec::new())
                    .chain(states.iter())
                    .any(|s| *s == recovered);
                prop_assert!(
                    is_prefix,
                    "recovered state matches no committed prefix: {recovered:?}"
                );
            }
        }
    }
}
