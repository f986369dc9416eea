//! The database: a catalog of tables behind a reader-writer lock.

// WAL replay applies logged batches through this catalog, so panics are
// denied outright here (tests excepted).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ast::Statement;
use crate::error::DbError;
use crate::exec::Executor;
use crate::parser::parse_statement;
use crate::result::{ExecutionMetrics, ResultSet};
use crate::table::{Table, TableSchema};
use crate::value::{ColumnType, Value};
use crate::wal::WalOp;
use parking_lot::RwLock;
use std::collections::HashMap;

/// An in-memory database.
///
/// Thread-safe: the paper's per-time-point candidate generators run in
/// parallel and insert into the `candidates` table concurrently; readers
/// (user queries) take the read lock.
#[derive(Debug, Default)]
pub struct Database {
    tables: RwLock<HashMap<String, Table>>,
}

/// Deep point-in-time snapshot: the clone owns independent copies of all
/// schemas and rows.
///
/// Batch serving uses this as a *template/DDL split*: the pipeline
/// executes table DDL once into a schema-initialized template at training
/// time, then clones the (empty-table) template per user session instead
/// of re-running `CREATE TABLE` per user.
impl Clone for Database {
    fn clone(&self) -> Self {
        Database { tables: RwLock::new(self.tables.read().clone()) }
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a table programmatically.
    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<(String, ColumnType)>,
    ) -> Result<(), DbError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(DbError::DuplicateTable(name.to_string()));
        }
        tables.insert(key, Table::new(name, columns));
        Ok(())
    }

    /// Drops a table.
    pub fn drop_table(&self, name: &str) -> Result<(), DbError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        tables
            .remove(&key)
            .map(|_| ())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// `true` if the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.tables.read().values().map(|t| t.schema.name.clone()).collect();
        names.sort();
        names
    }

    /// Row count of a table.
    pub fn row_count(&self, name: &str) -> Result<usize, DbError> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .map(Table::len)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Inserts one row programmatically (full-width).
    pub fn insert_row(&self, table: &str, row: Vec<Value>) -> Result<(), DbError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        t.insert_row(row)
    }

    /// Inserts many rows programmatically under one lock acquisition.
    pub fn insert_rows(
        &self,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<(), DbError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        for row in rows {
            t.insert_row(row)?;
        }
        Ok(())
    }

    /// Applies a batch of typed writes: the whole batch is validated,
    /// then applied under one write-lock acquisition, so a reader sees
    /// either none of it or all of it, and a batch that fails validation
    /// changes nothing. Ops see the tables earlier ops in the batch
    /// create. Returns the number of rows the batch's
    /// [`WalOp::DeleteEq`] ops removed.
    ///
    /// This is the one write path of [`crate::DurableDatabase::commit`]
    /// and of its recovery replay.
    pub fn apply(&self, ops: &[WalOp]) -> Result<usize, DbError> {
        let mut tables = self.tables.write();
        validate(&tables, ops)?;
        let mut removed = 0;
        for op in ops {
            match op {
                WalOp::CreateTable { name, columns } => {
                    tables.insert(
                        name.to_ascii_lowercase(),
                        Table::new(name, columns.clone()),
                    );
                }
                WalOp::InsertRows { table, rows } => {
                    let t = table_mut(&mut tables, table)?;
                    for row in rows {
                        t.insert_row(row.clone())?;
                    }
                }
                WalOp::DeleteEq { table, column, value } => {
                    let t = table_mut(&mut tables, table)?;
                    let ci = t
                        .schema
                        .column_index(column)
                        .ok_or_else(|| DbError::UnknownColumn(column.clone()))?;
                    removed += t.delete_eq(ci, value);
                }
            }
        }
        Ok(removed)
    }

    /// Checks that [`apply`](Self::apply) would accept `ops` against the
    /// current state, without applying them.
    pub(crate) fn validate(&self, ops: &[WalOp]) -> Result<(), DbError> {
        validate(&self.tables.read(), ops)
    }

    /// Declares a hash secondary index on `table.column` (TEXT columns
    /// only), indexing existing rows immediately. Idempotent. A
    /// [`select`](Self::select) filtered on the column and a
    /// [`WalOp::DeleteEq`] on it then probe the index instead of
    /// scanning — same rows, fewer touched (visible in
    /// [`ExecutionMetrics::rows_scanned`]).
    pub fn create_index(&self, table: &str, column: &str) -> Result<(), DbError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let ci = t
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn(column.to_string()))?;
        t.create_index(ci)
    }

    /// A table's schema, if it exists.
    pub fn table_schema(&self, name: &str) -> Option<TableSchema> {
        self.tables.read().get(&name.to_ascii_lowercase()).map(|t| t.schema.clone())
    }

    /// Full point-in-time image of every table (schema + rows), sorted
    /// by table name. Used by the WAL checkpoint writer.
    pub fn snapshot_tables(&self) -> Vec<(TableSchema, Vec<Vec<Value>>)> {
        let tables = self.tables.read();
        let mut out: Vec<(TableSchema, Vec<Vec<Value>>)> =
            tables.values().map(|t| (t.schema.clone(), t.rows.clone())).collect();
        out.sort_by(|(a, _), (b, _)| a.name.cmp(&b.name));
        out
    }

    /// Reads `columns` of `table`'s rows, in ascending row position,
    /// keeping only the rows whose `filter` column SQL-equals the filter
    /// value when one is given. A filter on a hash-indexed column probes
    /// the index and touches only the matching rows; any other filter
    /// scans, so both return the same rows. The result's
    /// [`ExecutionMetrics`] count the rows touched and the encoded bytes
    /// of the rows kept.
    pub fn select(
        &self,
        table: &str,
        columns: &[&str],
        filter: Option<(&str, &Value)>,
    ) -> Result<ResultSet, DbError> {
        let tables = self.tables.read();
        let t = tables
            .get(&table.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let resolve = |name: &str| {
            t.schema
                .column_index(name)
                .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
        };
        let projection: Vec<usize> =
            columns.iter().map(|c| resolve(c)).collect::<Result<_, _>>()?;
        let filter = match filter {
            Some((column, value)) => Some((resolve(column)?, value)),
            None => None,
        };

        let mut rows = Vec::new();
        let mut bytes_scanned = 0;
        let mut consider = |row: &[Value]| {
            if filter.is_some_and(|(ci, v)| !row[ci].sql_eq(v)) {
                return;
            }
            bytes_scanned += row.iter().map(crate::codec::encoded_len).sum::<u64>();
            rows.push(projection.iter().map(|&i| row[i].clone()).collect::<Vec<_>>());
        };
        let rows_scanned = match filter.and_then(|(ci, v)| t.index_probe(ci, v)) {
            Some(positions) => {
                for &position in positions {
                    consider(&t.rows[position]);
                }
                positions.len()
            }
            None => {
                for row in &t.rows {
                    consider(row);
                }
                t.rows.len()
            }
        };
        let metrics = ExecutionMetrics {
            rows_scanned: rows_scanned as u64,
            bytes_scanned,
            rows_output: rows.len() as u64,
        };
        let columns = columns.iter().map(|c| c.to_string()).collect();
        Ok(ResultSet { columns, rows, metrics })
    }

    /// Parses and executes one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<ResultSet, DbError> {
        match parse_statement(sql)? {
            Statement::Select(q) => {
                let tables = self.tables.read();
                Executor::new(&tables).select(&q)
            }
            Statement::CreateTable { name, columns } => {
                self.create_table(&name, columns)?;
                Ok(ResultSet::empty())
            }
            Statement::DropTable(name) => {
                self.drop_table(&name)?;
                Ok(ResultSet::empty())
            }
            Statement::Insert { table, columns, rows } => {
                // Evaluate row literals without any table context.
                let mut evaluated: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
                for row in &rows {
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        vals.push(eval_insert_literal(e)?);
                    }
                    evaluated.push(vals);
                }
                // jit-analyze: allow(lock-discipline) — sequential arms of one match, never held together: each arm takes the same table lock once
                let mut tables = self.tables.write();
                let t = tables
                    .get_mut(&table.to_ascii_lowercase())
                    .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                for vals in evaluated {
                    match &columns {
                        Some(cols) => t.insert_partial(cols, vals)?,
                        None => t.insert_row(vals)?,
                    }
                }
                Ok(ResultSet::empty())
            }
            Statement::Delete { table, predicate } => {
                // Evaluate the predicate per row via a single-table SELECT
                // of row positions, then retain the complement — under one
                // write guard, so no concurrent write can shift the rows
                // between the two.
                // jit-analyze: allow(lock-discipline) — sequential arms of one match, never held together: each arm takes the same table lock once
                let mut tables = self.tables.write();
                let keep: Option<Vec<bool>> = match predicate {
                    None => None,
                    Some(pred) => {
                        let q = crate::ast::Select {
                            distinct: false,
                            projections: vec![crate::ast::Projection::Expr {
                                expr: pred,
                                alias: Some("matched".to_string()),
                            }],
                            from: crate::ast::TableRef {
                                name: table.clone(),
                                alias: None,
                            },
                            joins: vec![],
                            where_clause: None,
                            group_by: vec![],
                            having: None,
                            order_by: vec![],
                            limit: None,
                        };
                        let rs = Executor::new(&tables).select(&q)?;
                        Some(
                            rs.rows
                                .iter()
                                .map(|r| !r.first().is_some_and(Value::truthy))
                                .collect(),
                        )
                    }
                };
                let t = table_mut(&mut tables, &table)?;
                match keep {
                    None => t.rows.clear(),
                    Some(keep) => {
                        let mut it = keep.iter();
                        t.rows.retain(|_| *it.next().unwrap_or(&true));
                    }
                }
                t.rebuild_indexes();
                Ok(ResultSet::empty())
            }
        }
    }
}

/// The named table, for writing.
fn table_mut<'a>(
    tables: &'a mut HashMap<String, Table>,
    name: &str,
) -> Result<&'a mut Table, DbError> {
    tables
        .get_mut(&name.to_ascii_lowercase())
        .ok_or_else(|| DbError::UnknownTable(name.to_string()))
}

/// Checks a batch for [`Database::apply`] in order, with the tables
/// earlier ops create visible to later ones, so a batch that passes
/// cannot fail part-way through.
fn validate(tables: &HashMap<String, Table>, ops: &[WalOp]) -> Result<(), DbError> {
    let mut created: Vec<(String, &[(String, ColumnType)])> = Vec::new();
    for op in ops {
        let columns_of = |table: &str| {
            let key = table.to_ascii_lowercase();
            match tables.get(&key) {
                Some(t) => Ok(t.schema.columns.as_slice()),
                None => created
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, columns)| *columns)
                    .ok_or_else(|| DbError::UnknownTable(table.to_string())),
            }
        };
        match op {
            WalOp::CreateTable { name, columns } => {
                let key = name.to_ascii_lowercase();
                if tables.contains_key(&key) || created.iter().any(|(k, _)| *k == key) {
                    return Err(DbError::DuplicateTable(name.clone()));
                }
                created.push((key, columns));
            }
            WalOp::InsertRows { table, rows } => {
                let columns = columns_of(table)?;
                for row in rows {
                    if row.len() != columns.len() {
                        return Err(DbError::ArityMismatch {
                            expected: columns.len(),
                            found: row.len(),
                        });
                    }
                    for (v, (col, ty)) in row.iter().zip(columns) {
                        if !v.conforms_to(*ty) {
                            return Err(DbError::TypeMismatch {
                                table: table.clone(),
                                column: col.clone(),
                                value: v.to_string(),
                            });
                        }
                    }
                }
            }
            WalOp::DeleteEq { table, column, .. } => {
                if !columns_of(table)?
                    .iter()
                    .any(|(c, _)| c.eq_ignore_ascii_case(column))
                {
                    return Err(DbError::UnknownColumn(column.clone()));
                }
            }
        }
    }
    Ok(())
}

/// Evaluates a context-free expression (INSERT literals may contain
/// arithmetic such as `-1` or `2 + 3`).
fn eval_insert_literal(expr: &crate::ast::Expr) -> Result<Value, DbError> {
    // The executor's eval is private; emulate the tiny literal subset here.
    use crate::ast::{BinOp, Expr};
    Ok(match expr {
        Expr::Literal(v) => v.clone(),
        Expr::Neg(e) => match eval_insert_literal(e)? {
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            Value::Null => Value::Null,
            other => return Err(DbError::Eval(format!("cannot negate {other}"))),
        },
        Expr::Binary { lhs, op, rhs } => {
            let a = eval_insert_literal(lhs)?;
            let b = eval_insert_literal(rhs)?;
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Err(DbError::Eval(
                    "INSERT expressions must be numeric literals".to_string(),
                ));
            };
            let both_int = matches!((&a, &b), (Value::Int(_), Value::Int(_)));
            let out = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return Err(DbError::Eval("division by zero".to_string()));
                    }
                    x / y
                }
                _ => {
                    return Err(DbError::Eval(
                        "unsupported operator in INSERT literal".to_string(),
                    ))
                }
            };
            if both_int && out.fract() == 0.0 && *op != BinOp::Div {
                Value::Int(out as i64)
            } else {
                Value::Float(out)
            }
        }
        other => {
            return Err(DbError::Eval(format!(
                "unsupported INSERT expression: {other:?}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT)").unwrap();
        db.execute(
            "INSERT INTO t VALUES (1, 1.5, 'one'), (2, 2.5, 'two'), (3, 3.5, 'three')",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let db = sample_db();
        let rs = db.execute("SELECT a, c FROM t WHERE b > 2.0 ORDER BY a").unwrap();
        assert_eq!(rs.columns, vec!["a", "c"]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0][1].to_string(), "two");
        // The executor meters its scan.
        assert_eq!(rs.metrics.rows_output, rs.len() as u64);
        assert!(rs.metrics.rows_scanned > 0);
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = sample_db();
        let err = db.execute("CREATE TABLE t (x INTEGER)").unwrap_err();
        assert_eq!(err, DbError::DuplicateTable("t".to_string()));
    }

    #[test]
    fn drop_table() {
        let db = sample_db();
        db.execute("DROP TABLE t").unwrap();
        assert!(!db.has_table("t"));
        assert!(db.execute("SELECT * FROM t").is_err());
    }

    #[test]
    fn insert_with_columns_fills_nulls() {
        let db = sample_db();
        db.execute("INSERT INTO t (a) VALUES (9)").unwrap();
        let rs = db.execute("SELECT b FROM t WHERE a = 9").unwrap();
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn insert_negative_and_arithmetic_literals() {
        let db = sample_db();
        db.execute("INSERT INTO t VALUES (-4, 2 + 0.5, 'neg')").unwrap();
        let rs = db.execute("SELECT a, b FROM t WHERE c = 'neg'").unwrap();
        assert_eq!(rs.rows[0][0].as_i64(), Some(-4));
        assert_eq!(rs.rows[0][1].as_f64(), Some(2.5));
    }

    #[test]
    fn delete_with_predicate() {
        let db = sample_db();
        db.execute("DELETE FROM t WHERE a >= 2").unwrap();
        assert_eq!(db.row_count("t").unwrap(), 1);
        db.execute("DELETE FROM t").unwrap();
        assert_eq!(db.row_count("t").unwrap(), 0);
    }

    #[test]
    fn programmatic_insert() {
        let db = sample_db();
        db.insert_rows(
            "t",
            vec![vec![Value::Int(10), Value::Float(0.5), Value::from("ten")]],
        )
        .unwrap();
        assert_eq!(db.row_count("t").unwrap(), 4);
        let err = db.insert_row("zzz", vec![]).unwrap_err();
        assert_eq!(err, DbError::UnknownTable("zzz".to_string()));
    }

    #[test]
    fn table_names_sorted() {
        let db = sample_db();
        db.execute("CREATE TABLE alpha (x INTEGER)").unwrap();
        assert_eq!(db.table_names(), vec!["alpha".to_string(), "t".to_string()]);
    }

    #[test]
    fn type_mismatch_via_sql() {
        let db = sample_db();
        let err = db.execute("INSERT INTO t VALUES ('x', 1.0, 'y')").unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn clone_is_an_independent_snapshot() {
        let template = sample_db();
        let a = template.clone();
        let b = template.clone();
        // Schemas carried over; rows too (snapshot semantics).
        assert_eq!(a.table_names(), template.table_names());
        assert_eq!(a.row_count("t").unwrap(), 3);
        // Writes to one clone never leak into the template or siblings.
        a.execute("INSERT INTO t VALUES (99, 9.9, 'a-only')").unwrap();
        b.execute("DELETE FROM t").unwrap();
        assert_eq!(a.row_count("t").unwrap(), 4);
        assert_eq!(b.row_count("t").unwrap(), 0);
        assert_eq!(template.row_count("t").unwrap(), 3);
        // DDL on a clone stays local as well.
        a.execute("CREATE TABLE extra (x INTEGER)").unwrap();
        assert!(!template.has_table("extra"));
        assert!(!b.has_table("extra"));
    }

    #[test]
    fn hash_index_is_result_identical_and_skips_rows() {
        let db = sample_db();
        // Rows sorted by `a`, the order a SQL `ORDER BY a` would give.
        let select = |key: &Value| {
            let mut rs = db.select("t", &["a", "b"], Some(("c", key))).unwrap();
            rs.rows.sort_by(|x, y| x[0].total_cmp(&y[0]));
            rs
        };
        let probe = Value::from("two");
        let scanned = select(&probe);
        assert_eq!(scanned.metrics.rows_scanned, 3);

        db.create_index("t", "c").unwrap();
        db.create_index("t", "c").unwrap(); // idempotent
        let indexed = select(&probe);
        assert_eq!(indexed.rows, scanned.rows);
        assert_eq!(indexed.columns, scanned.columns);
        assert_eq!(indexed.metrics.rows_scanned, 1);

        // Maintained across inserts (duplicate keys, ascending order) …
        db.execute("INSERT INTO t VALUES (0, 0.5, 'two'), (9, 9.5, 'nine')").unwrap();
        let rs = select(&probe);
        assert_eq!(rs.metrics.rows_scanned, 2);
        let got: Vec<_> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![0, 2]);
        // … and across both delete paths (positions shift on retain).
        db.apply(&[WalOp::DeleteEq {
            table: "t".into(),
            column: "c".into(),
            value: Value::from("two"),
        }])
        .unwrap();
        assert!(select(&probe).rows.is_empty());
        db.execute("DELETE FROM t WHERE a = 1").unwrap();
        let rs = select(&Value::from("nine"));
        assert_eq!(rs.rows[0][0].as_i64(), Some(9));

        // NULL and cross-type probes are answered (empty) by the index:
        // SQL equality can never match them against stored text.
        db.execute("INSERT INTO t (a) VALUES (5)").unwrap();
        for probe in [Value::Null, Value::Int(9)] {
            let rs = select(&probe);
            assert!(rs.rows.is_empty());
            assert_eq!(rs.metrics.rows_scanned, 0);
        }
    }

    #[test]
    fn hash_index_only_on_text_columns() {
        let db = sample_db();
        assert!(matches!(db.create_index("t", "a"), Err(DbError::Eval(_))));
        assert!(matches!(db.create_index("t", "zzz"), Err(DbError::UnknownColumn(_))));
        assert!(matches!(db.create_index("zzz", "a"), Err(DbError::UnknownTable(_))));
    }

    #[test]
    fn concurrent_reads_and_writes() {
        use std::sync::Arc;
        let db = Arc::new(sample_db());
        let mut handles = Vec::new();
        for i in 0..4 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for j in 0..50 {
                    let v = (i * 50 + j) as i64;
                    db.insert_row(
                        "t",
                        vec![Value::Int(v), Value::Float(v as f64), Value::from("w")],
                    )
                    .unwrap();
                    let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
                    assert!(rs.scalar().unwrap().as_i64().unwrap() >= 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.row_count("t").unwrap(), 3 + 200);
    }

    /// A SQL DELETE evaluates its predicate and removes rows under one
    /// write guard: a concurrent writer's delete cannot shift the rows
    /// in between and make it delete the wrong ones.
    #[test]
    fn sql_delete_removes_exactly_its_rows_under_concurrent_deletes() {
        use std::sync::{Arc, Barrier};
        let db = Arc::new(sample_db());
        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = ["left", "right"]
            .into_iter()
            .map(|tag| {
                let (db, barrier) = (Arc::clone(&db), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..3000 {
                        let row =
                            vec![Value::Int(i), Value::Float(0.5), Value::from(tag)];
                        db.insert_rows("t", vec![row; 2]).unwrap();
                        db.execute(&format!("DELETE FROM t WHERE c = '{tag}'"))
                            .unwrap();
                        let count = db.execute(&format!(
                            "SELECT COUNT(*) FROM t WHERE c = '{tag}'"
                        ));
                        let count = count.unwrap().scalar().unwrap().as_i64();
                        assert_eq!(count, Some(0), "delete {i} left {tag} rows behind");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.row_count("t").unwrap(), 3, "no other row was deleted");
    }

    /// Random `DeleteEq`/`InsertRows` batches on a table with two
    /// indexes, checked against a plain row list: after every batch the
    /// removed count and the rows match, and every key's index probe
    /// returns exactly the positions a full scan finds, ascending.
    #[test]
    fn index_probes_match_a_full_scan_after_random_batches() {
        let db = Database::new();
        let columns = vec![
            ("k".to_string(), ColumnType::Text),
            ("tag".to_string(), ColumnType::Text),
            ("n".to_string(), ColumnType::Integer),
        ];
        db.create_table("t", columns).unwrap();
        db.create_index("t", "k").unwrap();
        db.create_index("t", "tag").unwrap();
        let keys = ["a", "b", "c", "d", "e"];
        let mut rng = proptest::test_runner::TestRng::seeded(20);
        let mut pick = |n: usize| rng.i128_in(0, n as i128) as usize;
        let mut model: Vec<Vec<Value>> = Vec::new();
        for round in 0..400 {
            let mut ops = Vec::new();
            for _ in 0..1 + pick(3) {
                let key = |i: usize| match keys.get(i) {
                    Some(k) => Value::from(*k),
                    None => Value::Null,
                };
                ops.push(match pick(4) {
                    0 => WalOp::DeleteEq {
                        table: "t".into(),
                        column: "k".into(),
                        value: key(pick(keys.len() + 1)),
                    },
                    1 => WalOp::DeleteEq {
                        table: "t".into(),
                        column: ["tag", "n"][pick(2)].into(),
                        value: [key(pick(2)), Value::Int(pick(3) as i64)][pick(2)]
                            .clone(),
                    },
                    _ => WalOp::InsertRows {
                        table: "t".into(),
                        rows: (0..1 + pick(3))
                            .map(|_| {
                                let n = Value::Int(pick(3) as i64);
                                vec![key(pick(keys.len() + 1)), key(pick(2)), n]
                            })
                            .collect(),
                    },
                });
            }
            let mut removed = 0;
            for op in &ops {
                match op {
                    WalOp::DeleteEq { column, value, .. } => {
                        let ci =
                            ["k", "tag", "n"].iter().position(|c| c == column).unwrap();
                        let before = model.len();
                        model.retain(|row| !row[ci].sql_eq(value));
                        removed += before - model.len();
                    }
                    WalOp::InsertRows { rows, .. } => {
                        model.extend(rows.iter().cloned())
                    }
                    WalOp::CreateTable { .. } => unreachable!(),
                }
            }
            assert_eq!(db.apply(&ops).unwrap(), removed, "round {round}");

            let tables = db.tables.read();
            let t = &tables["t"];
            let sorted = |rows: &[Vec<Value>]| {
                let mut rows: Vec<String> =
                    rows.iter().map(|r| format!("{r:?}")).collect();
                rows.sort();
                rows
            };
            assert_eq!(sorted(&t.rows), sorted(&model), "round {round}");
            for ci in [0, 1] {
                for key in keys.iter().map(|k| Value::from(*k)).chain([Value::Null]) {
                    let scanned: Vec<usize> = (0..t.rows.len())
                        .filter(|&p| t.rows[p][ci].sql_eq(&key))
                        .collect();
                    let probed = t.index_probe(ci, &key).unwrap();
                    assert_eq!(probed, scanned, "round {round}, column {ci}, {key:?}");
                }
            }
            let rows = t.rows.clone();
            drop(tables);

            // `select` returns a filtered full scan's rows in position
            // order, through the index on `k` and by scanning on `n`.
            let probes = keys.iter().map(|k| Value::from(*k));
            for key in probes.chain([Value::Null, Value::Int(1)]) {
                for (ci, column) in [(0, "k"), (2, "n")] {
                    let rs = db.select("t", &["k", "tag", "n"], Some((column, &key)));
                    let rs = rs.unwrap();
                    let scanned: Vec<Vec<Value>> =
                        rows.iter().filter(|r| r[ci].sql_eq(&key)).cloned().collect();
                    assert_eq!(rs.rows, scanned, "round {round}, {column}, {key:?}");
                    let touched = if ci == 0 { scanned.len() } else { rows.len() };
                    assert_eq!(rs.metrics.rows_scanned, touched as u64);
                    assert_eq!(rs.metrics.rows_output, scanned.len() as u64);
                }
            }
        }
    }
}
