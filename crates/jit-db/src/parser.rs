//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::error::DbError;
use crate::lexer::{tokenize, Spanned, Token};
use crate::value::{ColumnType, Value};

/// Parses one SQL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement, DbError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, src_len: sql.len() };
    let stmt = p.statement()?;
    if p.peek_is(&Token::Semicolon) {
        p.pos += 1;
    }
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing input after statement"));
    }
    Ok(stmt)
}

/// Keywords that terminate a bare (AS-less) alias position.
const CLAUSE_KEYWORDS: &[&str] = &[
    "where", "group", "having", "order", "limit", "inner", "join", "on", "as", "and",
    "or", "not", "union", "values", "set",
];

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    src_len: usize,
}

impl Parser {
    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.src_len, |s| s.offset)
    }

    fn err(&self, message: impl Into<String>) -> DbError {
        DbError::Parse { offset: self.offset(), message: message.into() }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|s| &s.token)
    }

    fn peek_is(&self, t: &Token) -> bool {
        self.peek() == Some(t)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DbError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}, found {:?}", self.peek())))
        }
    }

    fn expect_tok(&mut self, t: Token, what: &str) -> Result<(), DbError> {
        if self.peek() == Some(&t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, DbError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement, DbError> {
        if self.peek_kw("select") {
            Ok(Statement::Select(Box::new(self.select()?)))
        } else if self.peek_kw("create") {
            self.create_table()
        } else if self.peek_kw("insert") {
            self.insert()
        } else if self.peek_kw("delete") {
            self.delete()
        } else if self.peek_kw("drop") {
            self.pos += 1;
            self.expect_kw("table")?;
            Ok(Statement::DropTable(self.ident("table name")?))
        } else {
            Err(self.err("expected SELECT, CREATE, INSERT, DELETE or DROP"))
        }
    }

    fn create_table(&mut self) -> Result<Statement, DbError> {
        self.expect_kw("create")?;
        self.expect_kw("table")?;
        let name = self.ident("table name")?;
        self.expect_tok(Token::LParen, "'('")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident("column name")?;
            let ty_name = self.ident("column type")?;
            let ty = match ty_name.to_ascii_lowercase().as_str() {
                "integer" | "int" | "bigint" => ColumnType::Integer,
                "real" | "float" | "double" => ColumnType::Real,
                "text" | "varchar" | "string" => ColumnType::Text,
                "boolean" | "bool" => ColumnType::Boolean,
                other => return Err(self.err(format!("unknown column type {other:?}"))),
            };
            columns.push((col, ty));
            if self.peek_is(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_tok(Token::RParen, "')'")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement, DbError> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident("table name")?;
        let columns = if self.peek_is(&Token::LParen) {
            self.pos += 1;
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident("column name")?);
                if self.peek_is(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect_tok(Token::RParen, "')'")?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_tok(Token::LParen, "'('")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if self.peek_is(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect_tok(Token::RParen, "')'")?;
            rows.push(row);
            if self.peek_is(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn delete(&mut self) -> Result<Statement, DbError> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident("table name")?;
        let predicate = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        Ok(Statement::Delete { table, predicate })
    }

    fn select(&mut self) -> Result<Select, DbError> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut projections = Vec::new();
        loop {
            projections.push(self.projection()?);
            if self.peek_is(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_kw("from")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.peek_kw("inner") {
                self.pos += 1;
                self.expect_kw("join")?;
            } else if self.peek_kw("join") {
                self.pos += 1;
            } else {
                break;
            }
            let table = self.table_ref()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            joins.push(Join { table, on });
        }
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if self.peek_is(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if self.peek_is(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.peek() {
                Some(Token::Int(n)) if *n >= 0 => {
                    let v = *n as usize;
                    self.pos += 1;
                    Some(v)
                }
                other => {
                    return Err(self.err(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Select {
            distinct,
            projections,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn projection(&mut self) -> Result<Projection, DbError> {
        if self.peek_is(&Token::Star) {
            self.pos += 1;
            return Ok(Projection::Wildcard);
        }
        // alias.* ?
        if let (Some(Token::Ident(q)), Some(Token::Dot)) = (self.peek(), self.peek2()) {
            if self.tokens.get(self.pos + 2).map(|s| &s.token) == Some(&Token::Star) {
                let q = q.clone();
                self.pos += 3;
                return Ok(Projection::QualifiedWildcard(q));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident("alias")?)
        } else {
            match self.peek() {
                Some(Token::Ident(s))
                    if !CLAUSE_KEYWORDS.contains(&s.to_ascii_lowercase().as_str())
                        && !s.eq_ignore_ascii_case("from") =>
                {
                    let s = s.clone();
                    self.pos += 1;
                    Some(s)
                }
                _ => None,
            }
        };
        Ok(Projection::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, DbError> {
        let name = self.ident("table name")?;
        let alias = if self.eat_kw("as") {
            Some(self.ident("alias")?)
        } else {
            match self.peek() {
                Some(Token::Ident(s))
                    if !CLAUSE_KEYWORDS.contains(&s.to_ascii_lowercase().as_str()) =>
                {
                    let s = s.clone();
                    self.pos += 1;
                    Some(s)
                }
                _ => None,
            }
        };
        Ok(TableRef { name, alias })
    }

    // ---- expressions -------------------------------------------------

    fn expr(&mut self) -> Result<Expr, DbError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, DbError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs =
                Expr::Binary { lhs: Box::new(lhs), op: BinOp::Or, rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, DbError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs =
                Expr::Binary { lhs: Box::new(lhs), op: BinOp::And, rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, DbError> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<Expr, DbError> {
        let lhs = self.additive()?;

        // IS [NOT] NULL
        if self.peek_kw("is") {
            self.pos += 1;
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull { expr: Box::new(lhs), negated });
        }

        // [NOT] BETWEEN / [NOT] IN
        let negated_prefix = if self.peek_kw("not")
            && self.peek2().is_some_and(|t| t.is_kw("between") || t.is_kw("in"))
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("between") {
            let lo = self.additive()?;
            self.expect_kw("and")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated: negated_prefix,
            });
        }
        if self.eat_kw("in") {
            self.expect_tok(Token::LParen, "'(' after IN")?;
            if self.peek_kw("select") {
                let sub = self.select()?;
                self.expect_tok(Token::RParen, "')'")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(lhs),
                    subquery: Box::new(sub),
                    negated: negated_prefix,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if self.peek_is(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect_tok(Token::RParen, "')'")?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated: negated_prefix,
            });
        }
        if negated_prefix {
            return Err(self.err("expected BETWEEN or IN after NOT"));
        }

        // Comparison, possibly quantified.
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            // ALL / ANY / SOME quantifier?
            for (kw, quant) in [
                ("all", Quantifier::All),
                ("any", Quantifier::Any),
                ("some", Quantifier::Any),
            ] {
                if self.peek_kw(kw) {
                    self.pos += 1;
                    self.expect_tok(Token::LParen, "'('")?;
                    let sub = self.select()?;
                    self.expect_tok(Token::RParen, "')'")?;
                    return Ok(Expr::QuantifiedCmp {
                        lhs: Box::new(lhs),
                        op,
                        quantifier: quant,
                        subquery: Box::new(sub),
                    });
                }
            }
            let rhs = self.additive()?;
            return Ok(Expr::Binary { lhs: Box::new(lhs), op, rhs: Box::new(rhs) });
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, DbError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary { lhs: Box::new(lhs), op, rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, DbError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Binary { lhs: Box::new(lhs), op, rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, DbError> {
        if self.peek_is(&Token::Minus) {
            self.pos += 1;
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, DbError> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(n)))
            }
            Some(Token::Float(n)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(n)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Text(s)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                if self.peek_kw("select") {
                    let sub = self.select()?;
                    self.expect_tok(Token::RParen, "')'")?;
                    Ok(Expr::ScalarSubquery(Box::new(sub)))
                } else {
                    let e = self.expr()?;
                    self.expect_tok(Token::RParen, "')'")?;
                    Ok(e)
                }
            }
            Some(Token::Ident(word)) => {
                let lower = word.to_ascii_lowercase();
                match lower.as_str() {
                    "null" => {
                        self.pos += 1;
                        return Ok(Expr::Literal(Value::Null));
                    }
                    "true" => {
                        self.pos += 1;
                        return Ok(Expr::Literal(Value::Bool(true)));
                    }
                    "false" => {
                        self.pos += 1;
                        return Ok(Expr::Literal(Value::Bool(false)));
                    }
                    // Non-finite float literals, so REAL values written by
                    // `Value::sql_literal` always parse back. These are
                    // reserved words: a column cannot be named nan/inf.
                    "nan" => {
                        self.pos += 1;
                        return Ok(Expr::Literal(Value::Float(f64::NAN)));
                    }
                    "inf" | "infinity" => {
                        self.pos += 1;
                        return Ok(Expr::Literal(Value::Float(f64::INFINITY)));
                    }
                    "exists" => {
                        self.pos += 1;
                        self.expect_tok(Token::LParen, "'(' after EXISTS")?;
                        let sub = self.select()?;
                        self.expect_tok(Token::RParen, "')'")?;
                        return Ok(Expr::Exists {
                            subquery: Box::new(sub),
                            negated: false,
                        });
                    }
                    _ => {}
                }
                // Function call?
                if self.peek2() == Some(&Token::LParen) {
                    let Some(func) = AggFunc::from_name(&word) else {
                        return Err(self.err(format!("unknown function {word:?}")));
                    };
                    self.pos += 2; // name + '('
                    let arg = if self.peek_is(&Token::Star) {
                        self.pos += 1;
                        None
                    } else {
                        Some(Box::new(self.expr()?))
                    };
                    self.expect_tok(Token::RParen, "')'")?;
                    return Ok(Expr::Aggregate { func, arg });
                }
                // Qualified column?
                self.pos += 1;
                if self.peek_is(&Token::Dot) {
                    self.pos += 1;
                    let col = self.ident("column name")?;
                    Ok(Expr::Column { qualifier: Some(word), name: col })
                } else {
                    Ok(Expr::Column { qualifier: None, name: word })
                }
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => *s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parses_paper_q1() {
        let s = sel("SELECT Min(time) FROM candidates WHERE diff = 0");
        assert_eq!(s.projections.len(), 1);
        match &s.projections[0] {
            Projection::Expr { expr: Expr::Aggregate { func, arg }, alias: None } => {
                assert_eq!(*func, AggFunc::Min);
                assert_eq!(**arg.as_ref().unwrap(), Expr::col("time"));
            }
            other => panic!("unexpected projection {other:?}"),
        }
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parses_paper_q2() {
        let s = sel("SELECT * FROM candidates ORDER BY gap LIMIT 1");
        assert_eq!(s.projections, vec![Projection::Wildcard]);
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].desc);
        assert_eq!(s.limit, Some(1));
    }

    #[test]
    fn parses_paper_q3_shape() {
        let s = sel("SELECT distinct time as t FROM candidates WHERE EXISTS \
             (SELECT * FROM candidates as cnd INNER JOIN temporal_inputs as ti \
              ON ti.time = cnd.time WHERE cnd.time = t AND ((gap = 0) OR (gap = 1 \
              AND cnd.income != ti.income)))");
        assert!(s.distinct);
        match &s.projections[0] {
            Projection::Expr { alias: Some(a), .. } => assert_eq!(a, "t"),
            other => panic!("expected aliased projection, got {other:?}"),
        }
        let Some(Expr::Exists { subquery, .. }) = &s.where_clause else {
            panic!("expected EXISTS in WHERE");
        };
        assert_eq!(subquery.joins.len(), 1);
        assert_eq!(subquery.from.alias.as_deref(), Some("cnd"));
        assert_eq!(subquery.joins[0].table.alias.as_deref(), Some("ti"));
    }

    #[test]
    fn parses_paper_q5_desc() {
        let s = sel("SELECT * FROM candidates ORDER BY p DESC LIMIT 1");
        assert!(s.order_by[0].desc);
    }

    #[test]
    fn parses_paper_q6_all_quantifier() {
        let s = sel("SELECT Min(time) FROM candidates WHERE time >= ALL \
             (SELECT time as t FROM candidates WHERE gap = 0)");
        let Some(Expr::QuantifiedCmp { op, quantifier, .. }) = &s.where_clause else {
            panic!("expected quantified comparison");
        };
        assert_eq!(*op, BinOp::Ge);
        assert_eq!(*quantifier, Quantifier::All);
    }

    #[test]
    fn parses_create_and_insert() {
        let c =
            parse_statement("CREATE TABLE t (a INTEGER, b REAL, c TEXT, d BOOLEAN)")
                .unwrap();
        match c {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 4);
                assert_eq!(columns[1], ("b".to_string(), ColumnType::Real));
            }
            other => panic!("{other:?}"),
        }
        let i =
            parse_statement("INSERT INTO t (a, b) VALUES (1, 2.5), (3, 4.5)").unwrap();
        match i {
            Statement::Insert { table, columns, rows } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_delete_and_drop() {
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete { predicate: Some(_), .. }
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t").unwrap(),
            Statement::Delete { predicate: None, .. }
        ));
        assert!(matches!(
            parse_statement("DROP TABLE t").unwrap(),
            Statement::DropTable(_)
        ));
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("SELECT a + b * 2 FROM t");
        match &s.projections[0] {
            Projection::Expr {
                expr: Expr::Binary { op: BinOp::Add, rhs, .. }, ..
            } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        match s.where_clause.unwrap() {
            Expr::Binary { op: BinOp::Or, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn between_and_in() {
        let s = sel("SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3)");
        assert!(s.where_clause.is_some());
        let s = sel("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 5");
        assert!(matches!(s.where_clause.unwrap(), Expr::Between { negated: true, .. }));
        let s = sel("SELECT * FROM t WHERE a NOT IN (SELECT a FROM u)");
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::InSubquery { negated: true, .. }
        ));
    }

    #[test]
    fn is_null_variants() {
        let s = sel("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL");
        let Expr::Binary { lhs, rhs, .. } = s.where_clause.unwrap() else { panic!() };
        assert!(matches!(*lhs, Expr::IsNull { negated: false, .. }));
        assert!(matches!(*rhs, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn bare_aliases() {
        let s = sel("SELECT c.a x FROM candidates c WHERE c.a > 0");
        assert_eq!(s.from.alias.as_deref(), Some("c"));
        match &s.projections[0] {
            Projection::Expr { alias: Some(a), .. } => assert_eq!(a, "x"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn qualified_wildcard() {
        let s = sel("SELECT c.* FROM candidates c");
        assert_eq!(s.projections[0], Projection::QualifiedWildcard("c".into()));
    }

    #[test]
    fn group_by_having() {
        let s = sel("SELECT time, COUNT(*) FROM candidates GROUP BY time \
             HAVING COUNT(*) > 2 ORDER BY time");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn scalar_subquery_in_expression() {
        let s = sel("SELECT * FROM t WHERE a > (SELECT Min(a) FROM t)");
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::Binary { rhs, .. } if matches!(*rhs, Expr::ScalarSubquery(_))
        ));
    }

    #[test]
    fn rejects_bad_sql() {
        for bad in [
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t LIMIT -1",
            "SELECT * FROM t LIMIT 1.5",
            "SELECT unknown_func(a) FROM t",
            "CREATE TABLE t (a FANCYTYPE)",
            "INSERT INTO t VALUES",
            "SELECT * FROM t; SELECT * FROM u",
            "SELECT * FROM t WHERE a NOT LIKE 'x'",
        ] {
            assert!(parse_statement(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_statement("SELECT 1 FROM t;").is_ok());
    }

    #[test]
    fn count_star() {
        let s = sel("SELECT COUNT(*) FROM t");
        match &s.projections[0] {
            Projection::Expr {
                expr: Expr::Aggregate { func: AggFunc::Count, arg: None },
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }
}
