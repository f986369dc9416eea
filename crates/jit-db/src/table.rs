//! Tables: schema + row storage + hash secondary indexes.

// WAL replay applies logged batches through these tables, so panics are
// denied outright here (tests excepted).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::DbError;
use crate::value::{ColumnType, Value};
use std::collections::HashMap;

/// A table's schema.
#[derive(Clone, Debug)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered `(column name, type)` pairs.
    pub columns: Vec<(String, ColumnType)>,
}

impl TableSchema {
    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(c, _)| c.eq_ignore_ascii_case(name))
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|(c, _)| c.clone()).collect()
    }
}

/// An in-memory table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Schema.
    pub schema: TableSchema,
    /// Row storage.
    pub rows: Vec<Vec<Value>>,
    /// Hash secondary indexes by column position: text key → row
    /// positions in **ascending order**, so an index probe visits rows
    /// in the same order a full scan would (result-identical output).
    /// Only TEXT columns are indexable; such columns store only `Text`
    /// or `Null` values, and SQL equality rejects NULL and cross-type
    /// probes, so a hash lookup fully answers any equality filter.
    indexes: HashMap<usize, HashMap<String, Vec<usize>>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, columns: Vec<(String, ColumnType)>) -> Self {
        Table {
            schema: TableSchema { name: name.to_string(), columns },
            rows: Vec::new(),
            indexes: HashMap::new(),
        }
    }

    /// Declares (or rebuilds) a hash index on the column at `column`.
    /// Idempotent; indexes existing rows immediately.
    ///
    /// # Errors
    /// [`DbError::UnknownColumn`] for an out-of-range position, or
    /// [`DbError::Eval`] for a non-TEXT column (hash indexes rely on the
    /// TEXT storage invariant documented on [`Table`]).
    pub fn create_index(&mut self, column: usize) -> Result<(), DbError> {
        match self.schema.columns.get(column) {
            Some((_, ColumnType::Text)) => {}
            Some((name, ty)) => {
                return Err(DbError::Eval(format!(
                    "cannot index {ty} column {name:?}: hash indexes cover \
                     TEXT columns only"
                )))
            }
            None => return Err(DbError::UnknownColumn(format!("#{column}"))),
        }
        self.indexes.insert(column, Self::build_index(&self.rows, column));
        Ok(())
    }

    /// `true` when `column` has a hash index.
    pub fn has_index(&self, column: usize) -> bool {
        self.indexes.contains_key(&column)
    }

    /// Row positions (ascending) matching `value` under an index on
    /// `column`; `None` when the column is not indexed (caller must
    /// scan). A `Some(&[])` is authoritative: NULL and non-text probes
    /// can never SQL-equal a stored text value.
    pub fn index_probe(&self, column: usize, value: &Value) -> Option<&[usize]> {
        let index = self.indexes.get(&column)?;
        Some(match value {
            Value::Text(s) => index.get(s).map_or(&[][..], Vec::as_slice),
            _ => &[],
        })
    }

    /// Deletes every row whose column at `column` SQL-equals `value` and
    /// returns how many went. On an indexed column the rows come from the
    /// index and each is swap-removed with index fix-ups, so the work
    /// does not grow with the table; other rows may change position.
    /// An unindexed column is scanned, keeping row order.
    pub(crate) fn delete_eq(&mut self, column: usize, value: &Value) -> usize {
        if let Some(positions) = self.index_probe(column, value) {
            let positions = positions.to_vec();
            // Descending, so every position still to remove stays valid.
            for &position in positions.iter().rev() {
                self.swap_remove_row(position);
            }
            return positions.len();
        }
        let before = self.rows.len();
        self.rows.retain(|row| !row.get(column).is_some_and(|v| v.sql_eq(value)));
        let removed = before - self.rows.len();
        if removed > 0 {
            self.rebuild_indexes();
        }
        removed
    }

    /// Removes the row at `position` by moving the last row into its
    /// place, then patches every index: the removed row's entries go,
    /// and the moved row's entry changes from the old last position to
    /// `position`, each position list kept ascending.
    fn swap_remove_row(&mut self, position: usize) {
        let Some(last) = self.rows.len().checked_sub(1).filter(|&l| position <= l)
        else {
            return;
        };
        for (&column, index) in &mut self.indexes {
            let key_at = |at: usize| match self.rows.get(at)?.get(column)? {
                Value::Text(key) => Some(key),
                _ => None,
            };
            if let Some(key) = key_at(position) {
                if let Some(list) = index.get_mut(key) {
                    if let Ok(i) = list.binary_search(&position) {
                        list.remove(i);
                    }
                    if list.is_empty() {
                        index.remove(key);
                    }
                }
            }
            if position == last {
                continue;
            }
            if let Some(list) = key_at(last).and_then(|key| index.get_mut(key)) {
                if let Ok(i) = list.binary_search(&last) {
                    list.remove(i);
                }
                if let Err(i) = list.binary_search(&position) {
                    list.insert(i, position);
                }
            }
        }
        self.rows.swap_remove(position);
    }

    /// Rebuilds every declared index from current row positions. Called
    /// after positional mutations (retain-style deletes); inserts
    /// maintain the indexes incrementally instead.
    pub fn rebuild_indexes(&mut self) {
        let columns: Vec<usize> = self.indexes.keys().copied().collect();
        for column in columns {
            self.indexes.insert(column, Self::build_index(&self.rows, column));
        }
    }

    fn build_index(rows: &[Vec<Value>], column: usize) -> HashMap<String, Vec<usize>> {
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for (position, row) in rows.iter().enumerate() {
            if let Value::Text(key) = &row[column] {
                index.entry(key.clone()).or_default().push(position);
            }
        }
        index
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Validates and appends a full row.
    pub fn insert_row(&mut self, row: Vec<Value>) -> Result<(), DbError> {
        if row.len() != self.schema.columns.len() {
            return Err(DbError::ArityMismatch {
                expected: self.schema.columns.len(),
                found: row.len(),
            });
        }
        let mut coerced = Vec::with_capacity(row.len());
        for (v, (cname, ctype)) in row.into_iter().zip(&self.schema.columns) {
            if !v.conforms_to(*ctype) {
                return Err(DbError::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: cname.clone(),
                    value: v.to_string(),
                });
            }
            // Widen ints stored in REAL columns so storage is homogeneous.
            let v = match (&v, ctype) {
                (Value::Int(i), ColumnType::Real) => Value::Float(*i as f64),
                _ => v,
            };
            coerced.push(v);
        }
        let position = self.rows.len();
        for (&column, index) in &mut self.indexes {
            if let Value::Text(key) = &coerced[column] {
                // Appends keep each position list ascending.
                index.entry(key.clone()).or_default().push(position);
            }
        }
        self.rows.push(coerced);
        Ok(())
    }

    /// Inserts a row given a subset of columns; missing columns get NULL.
    pub fn insert_partial(
        &mut self,
        columns: &[String],
        values: Vec<Value>,
    ) -> Result<(), DbError> {
        if columns.len() != values.len() {
            return Err(DbError::ArityMismatch {
                expected: columns.len(),
                found: values.len(),
            });
        }
        let mut row = vec![Value::Null; self.schema.columns.len()];
        for (cname, v) in columns.iter().zip(values) {
            let idx = self
                .schema
                .column_index(cname)
                .ok_or_else(|| DbError::UnknownColumn(cname.clone()))?;
            row[idx] = v;
        }
        self.insert_row(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("a".to_string(), ColumnType::Integer),
                ("b".to_string(), ColumnType::Real),
                ("c".to_string(), ColumnType::Text),
            ],
        )
    }

    #[test]
    fn insert_and_count() {
        let mut t = table();
        t.insert_row(vec![Value::Int(1), Value::Float(2.0), Value::from("x")]).unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn int_widens_into_real_column() {
        let mut t = table();
        t.insert_row(vec![Value::Int(1), Value::Int(2), Value::from("x")]).unwrap();
        assert!(matches!(t.rows[0][1], Value::Float(v) if v == 2.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = table();
        let err = t
            .insert_row(vec![Value::from("no"), Value::Float(1.0), Value::from("x")])
            .unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        let err = t.insert_row(vec![Value::Int(1)]).unwrap_err();
        assert_eq!(err, DbError::ArityMismatch { expected: 3, found: 1 });
    }

    #[test]
    fn partial_insert_fills_nulls() {
        let mut t = table();
        t.insert_partial(
            &["c".to_string(), "a".to_string()],
            vec![Value::from("hi"), Value::Int(9)],
        )
        .unwrap();
        assert!(t.rows[0][1].is_null());
        assert_eq!(t.rows[0][0].as_i64(), Some(9));
    }

    #[test]
    fn partial_insert_unknown_column() {
        let mut t = table();
        let err =
            t.insert_partial(&["zzz".to_string()], vec![Value::Int(1)]).unwrap_err();
        assert_eq!(err, DbError::UnknownColumn("zzz".to_string()));
    }

    #[test]
    fn column_index_case_insensitive() {
        let t = table();
        assert_eq!(t.schema.column_index("A"), Some(0));
        assert_eq!(t.schema.column_index("nope"), None);
    }

    #[test]
    fn nulls_conform_anywhere() {
        let mut t = table();
        t.insert_row(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(t.len(), 1);
    }
}
