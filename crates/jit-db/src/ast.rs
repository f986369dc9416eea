//! SQL abstract syntax.

use crate::value::{ColumnType, Value};

/// A parsed SQL statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE, …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, ColumnType)>,
    },
    /// `INSERT INTO name [(cols)] VALUES (…), …`.
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Row literals.
        rows: Vec<Vec<Expr>>,
    },
    /// A `SELECT` query.
    Select(Box<Select>),
    /// `DELETE FROM name [WHERE expr]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate; `None` truncates.
        predicate: Option<Expr>,
    },
    /// `DROP TABLE name`.
    DropTable(String),
}

/// A `SELECT` query.
#[derive(Clone, Debug, PartialEq)]
pub struct Select {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<Projection>,
    /// The `FROM` table (queries always have one in this subset).
    pub from: TableRef,
    /// `INNER JOIN`s in order.
    pub joins: Vec<Join>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT` row count.
    pub limit: Option<usize>,
}

/// A table reference with optional alias.
#[derive(Clone, Debug, PartialEq)]
pub struct TableRef {
    /// Table name in the catalog.
    pub name: String,
    /// Alias (defaults to the table name).
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table binds to in scopes.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One `INNER JOIN … ON …`.
#[derive(Clone, Debug, PartialEq)]
pub struct Join {
    /// Joined table.
    pub table: TableRef,
    /// Join predicate.
    pub on: Expr,
}

/// A projection item.
#[derive(Clone, Debug, PartialEq)]
pub enum Projection {
    /// `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
    /// Expression with optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// An `ORDER BY` key.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// `true` for descending.
    pub desc: bool,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// `true` for comparison operators (usable with ALL/ANY).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggFunc {
    /// Parses an aggregate name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// Quantifier for comparison subqueries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quantifier {
    /// `ALL`
    All,
    /// `ANY` / `SOME`
    Any,
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference, optionally qualified (`alias.column`).
    Column {
        /// Table qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        lhs: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// `NOT expr`.
    Not(Box<Expr>),
    /// Aggregate call; `None` argument means `COUNT(*)`.
    Aggregate {
        /// The function.
        func: AggFunc,
        /// Argument (`None` = `*`).
        arg: Option<Box<Expr>>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// `true` for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr IN (list)` / `expr NOT IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `true` for `NOT IN`.
        negated: bool,
    },
    /// `expr IN (subquery)` / `NOT IN`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// Single-column subquery.
        subquery: Box<Select>,
        /// `true` for `NOT IN`.
        negated: bool,
    },
    /// `EXISTS (subquery)` / `NOT EXISTS`.
    Exists {
        /// The subquery.
        subquery: Box<Select>,
        /// `true` for `NOT EXISTS`.
        negated: bool,
    },
    /// `expr op ALL|ANY (subquery)`.
    QuantifiedCmp {
        /// Left operand.
        lhs: Box<Expr>,
        /// Comparison operator.
        op: BinOp,
        /// `ALL` or `ANY`.
        quantifier: Quantifier,
        /// Single-column subquery.
        subquery: Box<Select>,
    },
    /// A scalar subquery `(SELECT …)` used as a value.
    ScalarSubquery(Box<Select>),
}

impl Expr {
    /// Convenience: column without qualifier.
    pub fn col(name: &str) -> Expr {
        Expr::Column { qualifier: None, name: name.to_string() }
    }

    /// `true` if the expression contains an aggregate call at any depth
    /// *outside of subqueries* (subqueries have their own aggregate
    /// context).
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Literal(_) | Expr::Column { .. } => false,
            Expr::Binary { lhs, rhs, .. } => {
                lhs.contains_aggregate() || rhs.contains_aggregate()
            }
            Expr::Neg(e) | Expr::Not(e) => e.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Between { expr, lo, hi, .. } => {
                expr.contains_aggregate()
                    || lo.contains_aggregate()
                    || hi.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Exists { .. } => false,
            Expr::QuantifiedCmp { lhs, .. } => lhs.contains_aggregate(),
            Expr::ScalarSubquery(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ref_binding() {
        let t = TableRef { name: "candidates".into(), alias: None };
        assert_eq!(t.binding(), "candidates");
        let a = TableRef { name: "candidates".into(), alias: Some("cnd".into()) };
        assert_eq!(a.binding(), "cnd");
    }

    #[test]
    fn agg_func_parsing() {
        assert_eq!(AggFunc::from_name("Min"), Some(AggFunc::Min));
        assert_eq!(AggFunc::from_name("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("median"), None);
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Ge.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::And.is_comparison());
    }

    #[test]
    fn contains_aggregate_walks_tree() {
        let agg =
            Expr::Aggregate { func: AggFunc::Min, arg: Some(Box::new(Expr::col("x"))) };
        let plus = Expr::Binary {
            lhs: Box::new(agg),
            op: BinOp::Add,
            rhs: Box::new(Expr::Literal(Value::Int(1))),
        };
        assert!(plus.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        // Aggregates inside EXISTS subqueries don't count for the outer query.
        let sub = Select {
            distinct: false,
            projections: vec![Projection::Wildcard],
            from: TableRef { name: "t".into(), alias: None },
            joins: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        };
        let ex = Expr::Exists { subquery: Box::new(sub), negated: false };
        assert!(!ex.contains_aggregate());
    }
}
