//! Query execution.
//!
//! Pipeline per `SELECT`: scan/join → filter → group/aggregate → having →
//! project → distinct → order → limit. Everything is materialized; tables
//! at JustInTime scale (k·(T+1) candidate rows) never stress this.
//!
//! Correlated subqueries are supported through an *environment stack*:
//! each enclosing query contributes a frame with its current row and its
//! projection aliases, and name resolution walks frames innermost-first.
//! That is exactly what the paper's Q3 needs — its `EXISTS` subquery
//! references the outer projection alias `t`.

use crate::ast::*;
use crate::codec;
use crate::error::DbError;
use crate::result::{ExecutionMetrics, ResultSet};
use crate::table::Table;
use crate::value::Value;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Row layout of a scan/join: which binding owns which column range.
#[derive(Clone, Debug, Default)]
pub struct RowLayout {
    bindings: Vec<LayoutBinding>,
    width: usize,
}

#[derive(Clone, Debug)]
struct LayoutBinding {
    name: String,
    columns: Vec<String>,
    offset: usize,
}

impl RowLayout {
    fn push(&mut self, name: &str, columns: Vec<String>) {
        let offset = self.width;
        self.width += columns.len();
        self.bindings.push(LayoutBinding { name: name.to_string(), columns, offset });
    }

    /// Resolves a column reference to a flat index.
    fn resolve(
        &self,
        qualifier: Option<&str>,
        name: &str,
    ) -> Result<Option<usize>, DbError> {
        let mut found: Option<usize> = None;
        for b in &self.bindings {
            if let Some(q) = qualifier {
                if !b.name.eq_ignore_ascii_case(q) {
                    continue;
                }
            }
            if let Some(ci) =
                b.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
            {
                if found.is_some() {
                    return Err(DbError::AmbiguousColumn(name.to_string()));
                }
                found = Some(b.offset + ci);
            }
        }
        Ok(found)
    }

    /// All `(qualified name, index)` pairs, for wildcard projection.
    fn all_columns(&self) -> Vec<(String, usize)> {
        let mut out = Vec::with_capacity(self.width);
        for b in &self.bindings {
            for (i, c) in b.columns.iter().enumerate() {
                out.push((c.clone(), b.offset + i));
            }
        }
        out
    }

    fn binding_columns(&self, name: &str) -> Option<Vec<(String, usize)>> {
        self.bindings.iter().find(|b| b.name.eq_ignore_ascii_case(name)).map(|b| {
            b.columns
                .iter()
                .enumerate()
                .map(|(i, c)| (c.clone(), b.offset + i))
                .collect()
        })
    }
}

/// One frame of the correlation environment.
#[derive(Clone, Copy)]
pub struct Frame<'a> {
    layout: &'a RowLayout,
    row: &'a [Value],
    /// Projection aliases of the query this frame belongs to; visible to
    /// *inner* (correlated) subqueries, mirroring MySQL's behaviour that
    /// the paper's Q3 relies on.
    aliases: &'a [(String, Expr)],
}

/// Grouping context when evaluating aggregate expressions.
struct GroupCtx<'a> {
    layout: &'a RowLayout,
    rows: &'a [Vec<Value>],
    outer: &'a [Frame<'a>],
    aliases: &'a [(String, Expr)],
}

/// The executor; borrows the catalog's table map.
pub struct Executor<'a> {
    tables: &'a HashMap<String, Table>,
    /// Base-table rows materialized so far (subqueries accumulate here).
    rows_scanned: Cell<u64>,
    /// Encoded bytes of those rows, in the binary codec's sizing.
    bytes_scanned: Cell<u64>,
}

impl<'a> Executor<'a> {
    /// Creates an executor over a table map.
    pub fn new(tables: &'a HashMap<String, Table>) -> Self {
        Executor { tables, rows_scanned: Cell::new(0), bytes_scanned: Cell::new(0) }
    }

    /// Meters rows materialized from a base table.
    fn note_scan(&self, rows: &[Vec<Value>]) {
        self.rows_scanned.set(self.rows_scanned.get() + rows.len() as u64);
        let bytes: u64 =
            rows.iter().map(|r| r.iter().map(codec::encoded_len).sum::<u64>()).sum();
        self.bytes_scanned.set(self.bytes_scanned.get() + bytes);
    }

    /// Cumulative scan counters (also reported on every [`ResultSet`]).
    pub fn metrics(&self) -> ExecutionMetrics {
        ExecutionMetrics {
            rows_scanned: self.rows_scanned.get(),
            bytes_scanned: self.bytes_scanned.get(),
            rows_output: 0,
        }
    }

    fn table(&self, name: &str) -> Result<&'a Table, DbError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Executes a `SELECT` with no outer context.
    pub fn select(&self, q: &Select) -> Result<ResultSet, DbError> {
        self.select_with_env(q, &[])
    }

    /// Executes a `SELECT` inside the given correlation environment.
    #[allow(clippy::expect_used)] // `order` holds exactly the keys of `map`
    pub fn select_with_env(
        &self,
        q: &Select,
        env: &[Frame<'_>],
    ) -> Result<ResultSet, DbError> {
        // ---- scan + joins ------------------------------------------------
        let mut layout = RowLayout::default();
        let base = self.table(&q.from.name)?;
        layout.push(q.from.binding(), base.schema.column_names());
        let mut rows: Vec<Vec<Value>> = base.rows.clone();
        self.note_scan(&rows);

        for join in &q.joins {
            let right = self.table(&join.table.name)?;
            self.note_scan(&right.rows);
            let right_cols = right.schema.column_names();
            let mut next_layout = layout.clone();
            next_layout.push(join.table.binding(), right_cols);

            // Hash-join fast path for simple equi-joins `a.x = b.y`.
            let mut joined: Vec<Vec<Value>> = Vec::new();
            if let Some((left_idx, right_idx)) =
                equi_join_keys(&join.on, &layout, join.table.binding(), right)?
            {
                let mut index: HashMap<String, Vec<usize>> = HashMap::new();
                for (ri, rrow) in right.rows.iter().enumerate() {
                    index.entry(rrow[right_idx].group_key()).or_default().push(ri);
                }
                for lrow in &rows {
                    // NULL and NaN equal nothing under SQL `=`.
                    let key = &lrow[left_idx];
                    if key.is_null() || key.as_f64().is_some_and(f64::is_nan) {
                        continue;
                    }
                    if let Some(matches) = index.get(&key.group_key()) {
                        for &ri in matches {
                            let mut combined = lrow.clone();
                            combined.extend(right.rows[ri].iter().cloned());
                            joined.push(combined);
                        }
                    }
                }
            } else {
                for lrow in &rows {
                    for rrow in &right.rows {
                        let mut combined = lrow.clone();
                        combined.extend(rrow.iter().cloned());
                        let frame = Frame {
                            layout: &next_layout,
                            row: &combined,
                            aliases: &[],
                        };
                        let mut frames: Vec<Frame<'_>> = env.to_vec();
                        frames.push(frame);
                        if self.eval(&join.on, &frames, None)?.truthy() {
                            joined.push(combined);
                        }
                    }
                }
            }
            layout = next_layout;
            rows = joined;
        }

        // ---- filter ------------------------------------------------------
        let my_aliases = projection_aliases(&q.projections);
        if let Some(pred) = &q.where_clause {
            if pred.contains_aggregate() {
                return Err(DbError::AggregateMisuse(
                    "aggregates are not allowed in WHERE".to_string(),
                ));
            }
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                let frame = Frame { layout: &layout, row: &row, aliases: &my_aliases };
                let mut frames: Vec<Frame<'_>> = env.to_vec();
                frames.push(frame);
                if self.eval(pred, &frames, None)?.truthy() {
                    kept.push(row);
                }
            }
            rows = kept;
        }

        // ---- group / aggregate / project ---------------------------------
        let has_aggregates = q.projections.iter().any(
            |p| matches!(p, Projection::Expr { expr, .. } if expr.contains_aggregate()),
        ) || q
            .having
            .as_ref()
            .is_some_and(Expr::contains_aggregate);

        let columns = output_columns(&q.projections, &layout)?;
        let mut output: Vec<(Vec<Value>, Vec<Value>)> = Vec::new(); // (projected, sort keys)

        if !q.group_by.is_empty() || has_aggregates {
            // Partition rows into groups.
            let groups: Vec<Vec<Vec<Value>>> = if q.group_by.is_empty() {
                vec![rows] // single group (may be empty: aggregates of none)
            } else {
                let mut map: HashMap<String, Vec<Vec<Value>>> = HashMap::new();
                let mut order: Vec<String> = Vec::new();
                for row in rows {
                    let frame =
                        Frame { layout: &layout, row: &row, aliases: &my_aliases };
                    let mut frames: Vec<Frame<'_>> = env.to_vec();
                    frames.push(frame);
                    let mut key = String::new();
                    for g in &q.group_by {
                        key.push_str(&self.eval(g, &frames, None)?.group_key());
                        key.push('\u{1}');
                    }
                    if !map.contains_key(&key) {
                        order.push(key.clone());
                    }
                    map.entry(key).or_default().push(row);
                }
                order
                    .into_iter()
                    .map(|k| map.remove(&k).expect("key present"))
                    .collect()
            };

            for group in &groups {
                if group.is_empty() && !q.group_by.is_empty() {
                    continue;
                }
                let group_ctx = GroupCtx {
                    layout: &layout,
                    rows: group,
                    outer: env,
                    aliases: &my_aliases,
                };
                // Representative row for non-aggregate expressions.
                let empty_row: Vec<Value>;
                let rep: &[Value] = match group.first() {
                    Some(r) => r,
                    None => {
                        empty_row = vec![Value::Null; layout.width];
                        &empty_row
                    }
                };
                let frame = Frame { layout: &layout, row: rep, aliases: &my_aliases };
                let mut frames: Vec<Frame<'_>> = env.to_vec();
                frames.push(frame);

                if let Some(h) = &q.having {
                    if !self.eval(h, &frames, Some(&group_ctx))?.truthy() {
                        continue;
                    }
                }
                let projected = self.project_row(
                    &q.projections,
                    &layout,
                    &frames,
                    Some(&group_ctx),
                )?;
                let keys =
                    self.sort_keys(q, &frames, Some(&group_ctx), &projected, &columns)?;
                output.push((projected, keys));
            }
        } else {
            if q.having.is_some() {
                return Err(DbError::AggregateMisuse(
                    "HAVING requires GROUP BY or aggregates".to_string(),
                ));
            }
            for row in &rows {
                let frame = Frame { layout: &layout, row, aliases: &my_aliases };
                let mut frames: Vec<Frame<'_>> = env.to_vec();
                frames.push(frame);
                let projected =
                    self.project_row(&q.projections, &layout, &frames, None)?;
                let keys = self.sort_keys(q, &frames, None, &projected, &columns)?;
                output.push((projected, keys));
            }
        }

        // ---- distinct -----------------------------------------------------
        if q.distinct {
            let mut seen = std::collections::HashSet::new();
            output.retain(|(projected, _)| {
                let key: String =
                    projected.iter().map(|v| v.group_key() + "\u{1}").collect();
                seen.insert(key)
            });
        }

        // ---- order / limit -------------------------------------------------
        if !q.order_by.is_empty() {
            let descs: Vec<bool> = q.order_by.iter().map(|k| k.desc).collect();
            output.sort_by(|(_, ka), (_, kb)| {
                for ((a, b), desc) in ka.iter().zip(kb).zip(&descs) {
                    let ord = a.total_cmp(b);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        if let Some(limit) = q.limit {
            output.truncate(limit);
        }

        let rows: Vec<Vec<Value>> = output.into_iter().map(|(p, _)| p).collect();
        let metrics =
            ExecutionMetrics { rows_output: rows.len() as u64, ..self.metrics() };
        Ok(ResultSet { columns, rows, metrics })
    }

    fn sort_keys(
        &self,
        q: &Select,
        frames: &[Frame<'_>],
        group: Option<&GroupCtx<'_>>,
        projected: &[Value],
        columns: &[String],
    ) -> Result<Vec<Value>, DbError> {
        let mut keys = Vec::with_capacity(q.order_by.len());
        for k in &q.order_by {
            // Projection aliases and output columns take precedence in
            // ORDER BY, per SQL scoping.
            if let Expr::Column { qualifier: None, name } = &k.expr {
                if let Some(i) =
                    columns.iter().position(|c| c.eq_ignore_ascii_case(name))
                {
                    keys.push(projected[i].clone());
                    continue;
                }
            }
            keys.push(self.eval(&k.expr, frames, group)?);
        }
        Ok(keys)
    }

    #[allow(clippy::expect_used)] // the executor pushes its own frame before evaluating
    fn project_row(
        &self,
        projections: &[Projection],
        layout: &RowLayout,
        frames: &[Frame<'_>],
        group: Option<&GroupCtx<'_>>,
    ) -> Result<Vec<Value>, DbError> {
        let row = frames.last().expect("own frame present").row;
        let mut out = Vec::new();
        for p in projections {
            match p {
                Projection::Wildcard => {
                    for (_, idx) in layout.all_columns() {
                        out.push(row[idx].clone());
                    }
                }
                Projection::QualifiedWildcard(q) => {
                    let cols = layout
                        .binding_columns(q)
                        .ok_or_else(|| DbError::UnknownTable(q.clone()))?;
                    for (_, idx) in cols {
                        out.push(row[idx].clone());
                    }
                }
                Projection::Expr { expr, .. } => {
                    out.push(self.eval(expr, frames, group)?);
                }
            }
        }
        Ok(out)
    }

    /// Evaluates an expression. `group` enables aggregate calls.
    fn eval(
        &self,
        expr: &Expr,
        frames: &[Frame<'_>],
        group: Option<&GroupCtx<'_>>,
    ) -> Result<Value, DbError> {
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column { qualifier, name } => {
                self.resolve_column(qualifier.as_deref(), name, frames)
            }
            Expr::Neg(e) => match self.eval(e, frames, group)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                Value::Null => Ok(Value::Null),
                other => Err(DbError::Eval(format!("cannot negate {other}"))),
            },
            Expr::Not(e) => Ok(Value::Bool(!self.eval(e, frames, group)?.truthy())),
            Expr::Binary { lhs, op, rhs } => {
                self.eval_binary(lhs, *op, rhs, frames, group)
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr, frames, group)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::Between { expr, lo, hi, negated } => {
                let v = self.eval(expr, frames, group)?;
                let lo = self.eval(lo, frames, group)?;
                let hi = self.eval(hi, frames, group)?;
                let inside = matches!(
                    v.compare(&lo),
                    Some(Ordering::Greater) | Some(Ordering::Equal)
                ) && matches!(
                    v.compare(&hi),
                    Some(Ordering::Less) | Some(Ordering::Equal)
                );
                Ok(Value::Bool(inside != *negated))
            }
            Expr::InList { expr, list, negated } => {
                let v = self.eval(expr, frames, group)?;
                let mut found = false;
                for item in list {
                    if v.sql_eq(&self.eval(item, frames, group)?) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            Expr::InSubquery { expr, subquery, negated } => {
                let v = self.eval(expr, frames, group)?;
                let rs = self.subquery_column(subquery, frames)?;
                let found = rs.iter().any(|x| v.sql_eq(x));
                Ok(Value::Bool(found != *negated))
            }
            Expr::Exists { subquery, negated } => {
                let rs = self.select_with_env(subquery, frames)?;
                Ok(Value::Bool(rs.is_empty() == *negated))
            }
            Expr::QuantifiedCmp { lhs, op, quantifier, subquery } => {
                if !op.is_comparison() {
                    return Err(DbError::Eval(
                        "ALL/ANY requires a comparison operator".to_string(),
                    ));
                }
                let v = self.eval(lhs, frames, group)?;
                let values = self.subquery_column(subquery, frames)?;
                let holds =
                    |x: &Value| -> bool { compare_values(&v, *op, x).unwrap_or(false) };
                let result = match quantifier {
                    Quantifier::All => values.iter().all(holds),
                    Quantifier::Any => values.iter().any(holds),
                };
                Ok(Value::Bool(result))
            }
            Expr::ScalarSubquery(subquery) => {
                let rs = self.select_with_env(subquery, frames)?;
                if rs.columns.len() != 1 {
                    return Err(DbError::SubqueryShape(format!(
                        "scalar subquery returned {} columns",
                        rs.columns.len()
                    )));
                }
                match rs.rows.len() {
                    0 => Ok(Value::Null),
                    1 => Ok(rs.rows[0][0].clone()),
                    n => Err(DbError::SubqueryShape(format!(
                        "scalar subquery returned {n} rows"
                    ))),
                }
            }
            Expr::Aggregate { func, arg } => {
                let Some(g) = group else {
                    return Err(DbError::AggregateMisuse(format!(
                        "aggregate {func:?} outside of an aggregate context"
                    )));
                };
                self.eval_aggregate(*func, arg.as_deref(), g)
            }
        }
    }

    fn eval_binary(
        &self,
        lhs: &Expr,
        op: BinOp,
        rhs: &Expr,
        frames: &[Frame<'_>],
        group: Option<&GroupCtx<'_>>,
    ) -> Result<Value, DbError> {
        // Short-circuit logic ops.
        if op == BinOp::And {
            return Ok(Value::Bool(
                self.eval(lhs, frames, group)?.truthy()
                    && self.eval(rhs, frames, group)?.truthy(),
            ));
        }
        if op == BinOp::Or {
            return Ok(Value::Bool(
                self.eval(lhs, frames, group)?.truthy()
                    || self.eval(rhs, frames, group)?.truthy(),
            ));
        }
        let a = self.eval(lhs, frames, group)?;
        let b = self.eval(rhs, frames, group)?;
        if op.is_comparison() {
            return Ok(Value::Bool(compare_values(&a, op, &b).unwrap_or(false)));
        }
        // Arithmetic.
        if a.is_null() || b.is_null() {
            return Ok(Value::Null);
        }
        match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => {
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
                    BinOp::Mod => {
                        if y == 0.0 {
                            return Err(DbError::Eval("modulo by zero".to_string()));
                        }
                        x % y
                    }
                    _ => unreachable!("logic/comparison handled above"),
                };
                if both_int && out.fract() == 0.0 && op != BinOp::Div {
                    Ok(Value::Int(out as i64))
                } else {
                    Ok(Value::Float(out))
                }
            }
            _ => Err(DbError::Eval(format!(
                "arithmetic on non-numeric operands: {a} {op:?} {b}"
            ))),
        }
    }

    fn eval_aggregate(
        &self,
        func: AggFunc,
        arg: Option<&Expr>,
        g: &GroupCtx<'_>,
    ) -> Result<Value, DbError> {
        if let Some(arg) = arg {
            if arg.contains_aggregate() {
                return Err(DbError::AggregateMisuse(
                    "nested aggregates are not allowed".to_string(),
                ));
            }
        }
        // COUNT(*) counts rows directly.
        if func == AggFunc::Count && arg.is_none() {
            return Ok(Value::Int(g.rows.len() as i64));
        }
        let arg = arg.ok_or_else(|| {
            DbError::AggregateMisuse(format!("{func:?} requires an argument"))
        })?;
        let mut values: Vec<Value> = Vec::with_capacity(g.rows.len());
        for row in g.rows {
            let frame = Frame { layout: g.layout, row, aliases: g.aliases };
            let mut frames: Vec<Frame<'_>> = g.outer.to_vec();
            frames.push(frame);
            let v = self.eval(arg, &frames, None)?;
            if !v.is_null() {
                values.push(v);
            }
        }
        Ok(match func {
            AggFunc::Count => Value::Int(values.len() as i64),
            AggFunc::Min => {
                values.into_iter().min_by(|a, b| a.total_cmp(b)).unwrap_or(Value::Null)
            }
            AggFunc::Max => {
                values.into_iter().max_by(|a, b| a.total_cmp(b)).unwrap_or(Value::Null)
            }
            AggFunc::Sum | AggFunc::Avg => {
                if values.is_empty() {
                    return Ok(Value::Null);
                }
                let mut total = 0.0;
                let mut all_int = true;
                let n = values.len() as f64;
                for v in values {
                    match v {
                        Value::Int(i) => total += i as f64,
                        Value::Float(f) => {
                            all_int = false;
                            total += f;
                        }
                        other => {
                            return Err(DbError::Eval(format!(
                                "cannot {func:?} non-numeric value {other}"
                            )))
                        }
                    }
                }
                if func == AggFunc::Avg {
                    Value::Float(total / n)
                } else if all_int {
                    Value::Int(total as i64)
                } else {
                    Value::Float(total)
                }
            }
        })
    }

    /// Resolves a column through the frame stack, innermost first; falls
    /// back to outer projection aliases (the Q3 `t` case).
    fn resolve_column(
        &self,
        qualifier: Option<&str>,
        name: &str,
        frames: &[Frame<'_>],
    ) -> Result<Value, DbError> {
        for depth in (0..frames.len()).rev() {
            let frame = &frames[depth];
            if let Some(idx) = frame.layout.resolve(qualifier, name)? {
                return Ok(frame.row[idx].clone());
            }
            // Projection aliases: only for unqualified names, and only for
            // frames *enclosing* the current query (not the innermost one),
            // because SQL does not allow a query's own aliases in its WHERE.
            if qualifier.is_none() && depth + 1 < frames.len() {
                if let Some((_, aliased)) =
                    frame.aliases.iter().find(|(a, _)| a.eq_ignore_ascii_case(name))
                {
                    return self.eval(aliased, &frames[..=depth], None);
                }
            }
        }
        Err(DbError::UnknownColumn(match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.to_string(),
        }))
    }

    /// Runs a subquery expected to produce exactly one column.
    #[allow(clippy::expect_used)] // the projection was validated to one column above
    fn subquery_column(
        &self,
        subquery: &Select,
        frames: &[Frame<'_>],
    ) -> Result<Vec<Value>, DbError> {
        let rs = self.select_with_env(subquery, frames)?;
        if rs.columns.len() != 1 {
            return Err(DbError::SubqueryShape(format!(
                "subquery must return one column, returned {}",
                rs.columns.len()
            )));
        }
        Ok(rs.rows.into_iter().map(|mut r| r.pop().expect("one column")).collect())
    }
}

/// Detects a simple equi-join `left.x = right.y` usable by the hash path.
/// Returns `(left flat index, right column index)`.
fn equi_join_keys(
    on: &Expr,
    left_layout: &RowLayout,
    right_binding: &str,
    right: &Table,
) -> Result<Option<(usize, usize)>, DbError> {
    let Expr::Binary { lhs, op: BinOp::Eq, rhs } = on else {
        return Ok(None);
    };
    let (
        Expr::Column { qualifier: q1, name: n1 },
        Expr::Column { qualifier: q2, name: n2 },
    ) = (lhs.as_ref(), rhs.as_ref())
    else {
        return Ok(None);
    };
    let try_pair = |lq: &Option<String>,
                    ln: &str,
                    rq: &Option<String>,
                    rn: &str|
     -> Result<Option<(usize, usize)>, DbError> {
        // Right side must reference the newly joined binding.
        let right_matches =
            rq.as_deref().is_none_or(|q| q.eq_ignore_ascii_case(right_binding));
        if !right_matches {
            return Ok(None);
        }
        let Some(rc) = right.schema.column_index(rn) else {
            return Ok(None);
        };
        let Some(lc) = left_layout.resolve(lq.as_deref(), ln)? else {
            return Ok(None);
        };
        Ok(Some((lc, rc)))
    };
    if let Some(pair) = try_pair(q1, n1, q2, n2)? {
        return Ok(Some(pair));
    }
    try_pair(q2, n2, q1, n1)
}

fn compare_values(a: &Value, op: BinOp, b: &Value) -> Option<bool> {
    let ord = a.compare(b)?;
    Some(match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => return None,
    })
}

fn projection_aliases(projections: &[Projection]) -> Vec<(String, Expr)> {
    projections
        .iter()
        .filter_map(|p| match p {
            Projection::Expr { expr, alias: Some(a) } => {
                Some((a.clone(), expr.clone()))
            }
            _ => None,
        })
        .collect()
}

fn output_columns(
    projections: &[Projection],
    layout: &RowLayout,
) -> Result<Vec<String>, DbError> {
    let mut out = Vec::new();
    for p in projections {
        match p {
            Projection::Wildcard => {
                out.extend(layout.all_columns().into_iter().map(|(c, _)| c));
            }
            Projection::QualifiedWildcard(q) => {
                let cols = layout
                    .binding_columns(q)
                    .ok_or_else(|| DbError::UnknownTable(q.clone()))?;
                out.extend(cols.into_iter().map(|(c, _)| c));
            }
            Projection::Expr { expr, alias } => out.push(match alias {
                Some(a) => a.clone(),
                None => default_column_name(expr),
            }),
        }
    }
    Ok(out)
}

fn default_column_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Aggregate { func, arg } => {
            let inner = match arg {
                None => "*".to_string(),
                Some(e) => default_column_name(e),
            };
            format!("{}({inner})", format!("{func:?}").to_lowercase())
        }
        _ => "expr".to_string(),
    }
}
