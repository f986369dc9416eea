//! Query results.

use crate::value::Value;
use std::fmt;

/// Work counters accumulated while executing one statement.
///
/// `rows_scanned`/`bytes_scanned` meter rows materialized from base
/// tables (bytes in the binary codec's encoding, via
/// [`crate::codec::encoded_len`]); subquery scans accumulate into the
/// outer statement's totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutionMetrics {
    /// Base-table rows materialized during execution.
    pub rows_scanned: u64,
    /// Encoded bytes of those rows.
    pub bytes_scanned: u64,
    /// Rows in the final result.
    pub rows_output: u64,
}

/// The materialized result of a statement.
#[derive(Clone, Debug, Default)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Work counters for this statement.
    pub metrics: ExecutionMetrics,
}

impl ResultSet {
    /// An empty result (used by DDL/DML statements).
    pub fn empty() -> Self {
        ResultSet::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single scalar of a 1x1 result, if that is the shape.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Index of an output column by name (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
    }

    /// All values of one output column.
    pub fn column(&self, name: &str) -> Option<Vec<&Value>> {
        let i = self.column_index(name)?;
        Some(self.rows.iter().map(|r| &r[i]).collect())
    }

    /// Numeric view of one column; `None` entries for non-numerics.
    pub fn column_f64(&self, name: &str) -> Option<Vec<Option<f64>>> {
        let i = self.column_index(name)?;
        Some(self.rows.iter().map(|r| r[i].as_f64()).collect())
    }
}

impl fmt::Display for ResultSet {
    /// Renders an ASCII table, à la the MySQL client.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.columns.is_empty() {
            return write!(f, "(no results)");
        }
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        sep(f)?;
        write!(f, "|")?;
        for (c, w) in self.columns.iter().zip(&widths) {
            write!(f, " {c:<w$} |")?;
        }
        writeln!(f)?;
        sep(f)?;
        for row in &rendered {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)?;
        }
        sep(f)?;
        write!(f, "{} row(s)", self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs() -> ResultSet {
        ResultSet {
            columns: vec!["time".to_string(), "diff".to_string()],
            rows: vec![
                vec![Value::Int(0), Value::Float(12.5)],
                vec![Value::Int(1), Value::Null],
            ],
            ..ResultSet::default()
        }
    }

    #[test]
    fn scalar_shape() {
        let one = ResultSet {
            columns: vec!["min".to_string()],
            rows: vec![vec![Value::Int(3)]],
            ..ResultSet::default()
        };
        assert_eq!(one.scalar().unwrap().as_i64(), Some(3));
        assert!(rs().scalar().is_none());
        assert!(ResultSet::empty().scalar().is_none());
    }

    #[test]
    fn column_access() {
        let r = rs();
        assert_eq!(r.column_index("DIFF"), Some(1));
        let col = r.column_f64("diff").unwrap();
        assert_eq!(col, vec![Some(12.5), None]);
        assert!(r.column("missing").is_none());
    }

    #[test]
    fn display_renders_table() {
        let s = rs().to_string();
        assert!(s.contains("| time |"), "{s}");
        assert!(s.contains("12.5"), "{s}");
        assert!(s.contains("NULL"), "{s}");
        assert!(s.contains("2 row(s)"), "{s}");
    }

    #[test]
    fn display_empty() {
        assert_eq!(ResultSet::empty().to_string(), "(no results)");
    }
}
