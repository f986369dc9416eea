//! Prepared statements: parse once, execute many times with bound
//! parameters — no lexer or parser on the hot path.
//!
//! `?` placeholders are positional (numbered left to right in source
//! order) and bound at execution time by
//! [`Database::execute_prepared`](crate::Database::execute_prepared).
//!
//! Single-table SELECTs of plain columns with an optional `col = ?` (or
//! `col = literal`) filter and ascending plain-column ORDER BY also get
//! a `SimplePlan`: a direct scan/filter/stable-sort that bypasses the
//! general executor's frame machinery entirely. That shape is exactly
//! what `DbSnapshotStore` runs per user load, and the plan is what
//! brings its refresh cost from ~90× down to the ~2× band of the
//! in-memory store. Plans store column *names* — indices are resolved
//! against the live schema per execution, so a dropped/recreated table
//! fails typed instead of reading stale offsets.

use crate::ast::{Expr, OrderKey, Projection, Select, Statement};
use crate::error::DbError;
use crate::parser::parse_statement_with_params;
use crate::value::Value;

/// A compiled statement, reusable across executions and threads.
#[derive(Clone, Debug)]
pub struct Prepared {
    stmt: Statement,
    param_count: usize,
    plan: Option<SimplePlan>,
}

impl Prepared {
    /// Compiles SQL text (also available as
    /// [`Database::prepare`](crate::Database::prepare)).
    pub fn compile(sql: &str) -> Result<Prepared, DbError> {
        let (stmt, param_count) = parse_statement_with_params(sql)?;
        let plan = match &stmt {
            Statement::Select(q) => SimplePlan::from_select(q),
            _ => None,
        };
        Ok(Prepared { stmt, param_count, plan })
    }

    /// Number of `?` parameters the statement takes.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// `true` when the fast direct-scan plan applies.
    pub fn has_simple_plan(&self) -> bool {
        self.plan.is_some()
    }

    pub(crate) fn statement(&self) -> &Statement {
        &self.stmt
    }

    pub(crate) fn plan(&self) -> Option<&SimplePlan> {
        self.plan.as_ref()
    }
}

/// Right-hand side of a `col = …` equality filter.
#[derive(Clone, Debug)]
pub(crate) enum FilterRhs {
    /// Bound at execution time.
    Param(usize),
    /// Fixed at compile time.
    Literal(Value),
}

/// Direct scan plan for the store's hot query shape:
/// `SELECT cols FROM t [WHERE col = ?] [ORDER BY cols ASC] [LIMIT n]`.
#[derive(Clone, Debug)]
pub(crate) struct SimplePlan {
    pub(crate) table: String,
    pub(crate) projections: Vec<String>,
    pub(crate) filter: Option<(String, FilterRhs)>,
    pub(crate) order_by: Vec<String>,
    pub(crate) limit: Option<usize>,
}

/// A plain unqualified, unaliased column name, if the expression is one.
fn plain_column(expr: &Expr) -> Option<&String> {
    match expr {
        Expr::Column { qualifier: None, name } => Some(name),
        _ => None,
    }
}

impl SimplePlan {
    /// Derives a plan when the query fits the simple shape; `None` sends
    /// the query to the general executor.
    fn from_select(q: &Select) -> Option<SimplePlan> {
        if q.distinct
            || q.from.alias.is_some()
            || !q.joins.is_empty()
            || !q.group_by.is_empty()
            || q.having.is_some()
        {
            return None;
        }
        let mut projections = Vec::with_capacity(q.projections.len());
        for p in &q.projections {
            match p {
                Projection::Expr { expr, alias: None } => {
                    projections.push(plain_column(expr)?.clone());
                }
                _ => return None,
            }
        }
        let filter = match &q.where_clause {
            None => None,
            Some(Expr::Binary { lhs, op: crate::ast::BinOp::Eq, rhs }) => {
                let col = plain_column(lhs)?.clone();
                let rhs = match rhs.as_ref() {
                    Expr::Param(i) => FilterRhs::Param(*i),
                    Expr::Literal(v) => FilterRhs::Literal(v.clone()),
                    _ => return None,
                };
                Some((col, rhs))
            }
            Some(_) => return None,
        };
        let mut order_by = Vec::with_capacity(q.order_by.len());
        for OrderKey { expr, desc } in &q.order_by {
            if *desc {
                return None;
            }
            // Projections here are plain columns, so the executor's
            // "output columns first" ORDER BY scoping resolves to the
            // same source value as a direct row read.
            order_by.push(plain_column(expr)?.clone());
        }
        Some(SimplePlan {
            table: q.from.name.clone(),
            projections,
            filter,
            order_by,
            limit: q.limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_shape_gets_a_plan() {
        let p = Prepared::compile(
            "SELECT t, idx, v FROM jit_snapshot_inputs WHERE user_id = ? ORDER BY t, idx",
        )
        .unwrap();
        assert_eq!(p.param_count(), 1);
        assert!(p.has_simple_plan());
    }

    #[test]
    fn literal_filter_and_limit_get_a_plan() {
        let p = Prepared::compile("SELECT a FROM t WHERE b = 'x' ORDER BY a LIMIT 3")
            .unwrap();
        assert_eq!(p.param_count(), 0);
        assert!(p.has_simple_plan());
    }

    #[test]
    fn complex_shapes_fall_back_to_the_executor() {
        for sql in [
            "SELECT DISTINCT a FROM t",
            "SELECT a FROM t ORDER BY a DESC",
            "SELECT a + 1 FROM t",
            "SELECT a AS x FROM t",
            "SELECT a FROM t WHERE b > ?",
            "SELECT a FROM t WHERE b = ? AND c = ?",
            "SELECT COUNT(*) FROM t",
            "SELECT a FROM t u JOIN v ON u.a = v.a",
            "SELECT a FROM t GROUP BY a",
        ] {
            let p = Prepared::compile(sql).unwrap();
            assert!(!p.has_simple_plan(), "{sql} should not get a simple plan");
        }
    }

    #[test]
    fn non_select_statements_compile() {
        let p = Prepared::compile("INSERT INTO t VALUES (?, ?)").unwrap();
        assert_eq!(p.param_count(), 2);
        let p = Prepared::compile("DELETE FROM t WHERE a = ?").unwrap();
        assert_eq!(p.param_count(), 1);
    }
}
