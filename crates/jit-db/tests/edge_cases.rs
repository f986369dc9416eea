//! Edge-case and failure-injection tests for the SQL engine, beyond the
//! happy paths of `sql_queries.rs`.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jit_db::{Database, DbError, Value};

fn db_with(values: &[(i64, Option<f64>, &str)]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER, x REAL, s TEXT)").unwrap();
    for (k, x, s) in values {
        db.insert_row(
            "t",
            vec![Value::Int(*k), x.map_or(Value::Null, Value::Float), Value::from(*s)],
        )
        .unwrap();
    }
    db
}

#[test]
fn empty_table_queries() {
    let db = db_with(&[]);
    assert!(db.execute("SELECT * FROM t").unwrap().is_empty());
    assert!(db.execute("SELECT * FROM t ORDER BY x DESC LIMIT 5").unwrap().is_empty());
    let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(0));
    // Aggregates over the empty table produce NULL (except COUNT).
    let rs = db.execute("SELECT MIN(x) FROM t").unwrap();
    assert!(rs.scalar().unwrap().is_null());
    // EXISTS over empty table is false.
    let rs =
        db.execute("SELECT COUNT(*) FROM t WHERE EXISTS (SELECT * FROM t)").unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(0));
}

#[test]
fn group_by_expression_keys() {
    let db = db_with(&[
        (1, Some(1.0), "a"),
        (2, Some(2.0), "a"),
        (3, Some(3.0), "b"),
        (4, Some(4.0), "b"),
    ]);
    // Group by a computed expression.
    let rs = db
        .execute("SELECT k % 2, COUNT(*) FROM t GROUP BY k % 2 ORDER BY k % 2")
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.rows[0][1].as_i64(), Some(2));
    assert_eq!(rs.rows[1][1].as_i64(), Some(2));
}

#[test]
fn group_by_text_column_with_aggregate_expression() {
    let db =
        db_with(&[(1, Some(10.0), "a"), (2, Some(20.0), "a"), (3, Some(5.0), "b")]);
    let rs = db
        .execute("SELECT s, MAX(x) - MIN(x) AS range FROM t GROUP BY s ORDER BY s")
        .unwrap();
    assert_eq!(rs.columns, vec!["s", "range"]);
    assert_eq!(rs.rows[0][1].as_f64(), Some(10.0));
    assert_eq!(rs.rows[1][1].as_f64(), Some(0.0));
}

#[test]
fn having_without_group_by_on_scalar_aggregate() {
    let db = db_with(&[(1, Some(1.0), "a"), (2, Some(2.0), "b")]);
    // Single-group aggregate with HAVING filtering the lone group.
    let rs = db.execute("SELECT COUNT(*) FROM t HAVING COUNT(*) > 1").unwrap();
    assert_eq!(rs.len(), 1);
    let rs = db.execute("SELECT COUNT(*) FROM t HAVING COUNT(*) > 5").unwrap();
    assert!(rs.is_empty());
}

#[test]
fn having_without_aggregates_is_error() {
    let db = db_with(&[(1, Some(1.0), "a")]);
    let err = db.execute("SELECT k FROM t HAVING k > 0").unwrap_err();
    assert!(matches!(err, DbError::AggregateMisuse(_)), "{err:?}");
}

#[test]
fn nested_correlated_exists_two_levels() {
    let db = db_with(&[(1, Some(1.0), "a"), (2, Some(2.0), "b"), (3, Some(3.0), "c")]);
    // Outer row t.k; middle subquery binds u; inner references both u and
    // the outermost t (outer references must be qualified — an unqualified
    // `k` resolves against the innermost FROM first, per SQL scoping).
    let rs = db
        .execute(
            "SELECT k FROM t WHERE EXISTS \
             (SELECT * FROM t AS u WHERE u.k = t.k + 1 AND EXISTS \
              (SELECT * FROM t AS v WHERE v.k = u.k + 1 AND v.k > t.k))",
        )
        .unwrap();
    // Satisfied only for k=1 (chain 1 -> 2 -> 3).
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0].as_i64(), Some(1));
}

#[test]
fn order_by_nulls_last_and_desc() {
    let db = db_with(&[(1, Some(2.0), "a"), (2, None, "b"), (3, Some(1.0), "c")]);
    let rs = db.execute("SELECT x FROM t ORDER BY x").unwrap();
    assert_eq!(rs.rows[0][0].as_f64(), Some(1.0));
    assert!(rs.rows[2][0].is_null(), "NULLs sort last ascending");
    let rs = db.execute("SELECT x FROM t ORDER BY x DESC").unwrap();
    assert!(rs.rows[0][0].is_null(), "DESC reverses, NULL first");
}

#[test]
fn text_comparison_and_in_list() {
    let db = db_with(&[(1, Some(1.0), "alpha"), (2, Some(2.0), "beta")]);
    let rs = db.execute("SELECT k FROM t WHERE s = 'alpha'").unwrap();
    assert_eq!(rs.len(), 1);
    let rs = db.execute("SELECT k FROM t WHERE s IN ('beta', 'gamma')").unwrap();
    assert_eq!(rs.rows[0][0].as_i64(), Some(2));
    // Strings with escaped quotes.
    db.execute("INSERT INTO t VALUES (9, 0.0, 'it''s')").unwrap();
    let rs = db.execute("SELECT k FROM t WHERE s = 'it''s'").unwrap();
    assert_eq!(rs.rows[0][0].as_i64(), Some(9));
}

#[test]
fn cross_type_comparisons_are_false_not_errors() {
    let db = db_with(&[(1, Some(1.0), "a")]);
    let rs = db.execute("SELECT COUNT(*) FROM t WHERE s > 5").unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(0));
    let rs = db.execute("SELECT COUNT(*) FROM t WHERE s = 1").unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(0));
}

#[test]
fn arithmetic_type_errors_reported() {
    let db = db_with(&[(1, Some(1.0), "a")]);
    let err = db.execute("SELECT s + 1 FROM t").unwrap_err();
    assert!(matches!(err, DbError::Eval(_)), "{err:?}");
}

#[test]
fn quantified_any_all_with_empty_subquery() {
    let db = db_with(&[(1, Some(1.0), "a")]);
    // ALL over the empty set is vacuously true; ANY is false.
    let rs = db
        .execute("SELECT COUNT(*) FROM t WHERE k > ALL (SELECT k FROM t WHERE k > 99)")
        .unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(1));
    let rs = db
        .execute("SELECT COUNT(*) FROM t WHERE k > ANY (SELECT k FROM t WHERE k > 99)")
        .unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(0));
}

#[test]
fn delete_then_reinsert_keeps_schema() {
    let db = db_with(&[(1, Some(1.0), "a"), (2, Some(2.0), "b")]);
    db.execute("DELETE FROM t").unwrap();
    assert_eq!(db.row_count("t").unwrap(), 0);
    db.execute("INSERT INTO t VALUES (7, 7.5, 'seven')").unwrap();
    let rs = db.execute("SELECT s FROM t").unwrap();
    assert_eq!(rs.rows[0][0].to_string(), "seven");
}

#[test]
fn drop_and_recreate_table() {
    let db = db_with(&[(1, Some(1.0), "a")]);
    db.execute("DROP TABLE t").unwrap();
    db.execute("CREATE TABLE t (only INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (42)").unwrap();
    let rs = db.execute("SELECT only FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(42));
}

#[test]
fn distinct_on_expressions_and_aliases_in_order_by() {
    let db = db_with(&[(1, Some(1.0), "a"), (2, Some(1.0), "a"), (3, Some(2.0), "b")]);
    let rs =
        db.execute("SELECT DISTINCT x * 2 AS dbl FROM t ORDER BY dbl DESC").unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.rows[0][0].as_f64(), Some(4.0));
    assert_eq!(rs.rows[1][0].as_f64(), Some(2.0));
}

#[test]
fn between_with_nulls_never_matches() {
    let db = db_with(&[(1, None, "a"), (2, Some(5.0), "b")]);
    let rs = db.execute("SELECT COUNT(*) FROM t WHERE x BETWEEN 0 AND 10").unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(1));
}

#[test]
fn scalar_subquery_empty_is_null() {
    let db = db_with(&[(1, Some(1.0), "a")]);
    // Comparison with NULL scalar subquery matches nothing.
    let rs = db
        .execute("SELECT COUNT(*) FROM t WHERE k > (SELECT k FROM t WHERE k > 99)")
        .unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(0));
}

#[test]
fn join_on_text_keys() {
    let db = db_with(&[(1, Some(1.0), "a"), (2, Some(2.0), "b")]);
    db.execute("CREATE TABLE names (s TEXT, label TEXT)").unwrap();
    db.execute("INSERT INTO names VALUES ('a', 'first'), ('b', 'second')").unwrap();
    let rs = db
        .execute(
            "SELECT t.k, names.label FROM t INNER JOIN names ON t.s = names.s \
             ORDER BY t.k",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.rows[0][1].to_string(), "first");
    assert_eq!(rs.rows[1][1].to_string(), "second");
}

/// SQL `=` says `0.0 = -0.0` and `NaN <> NaN`. The hash join (a bare
/// equi-join) must return the nested-loop join's rows, and DISTINCT and
/// GROUP BY must fold `±0` into one row.
#[test]
fn joins_distinct_and_group_by_follow_sql_equality_on_signed_zero_and_nan() {
    let db = Database::new();
    db.execute("CREATE TABLE a (x REAL)").unwrap();
    db.execute("CREATE TABLE b (y REAL)").unwrap();
    db.execute("INSERT INTO a VALUES (0.0), (NAN), (1.5)").unwrap();
    db.execute("INSERT INTO b VALUES (-0.0), (NAN), (1.5)").unwrap();
    let bits = |sql: &str| -> Vec<Vec<u64>> {
        let rs = db.execute(sql).unwrap();
        rs.rows
            .iter()
            .map(|r| r.iter().map(|v| v.as_f64().unwrap().to_bits()).collect())
            .collect()
    };
    let nested = bits("SELECT a.x, b.y FROM a INNER JOIN b ON a.x = b.y AND 1 = 1");
    let expected = vec![
        vec![0.0f64.to_bits(), (-0.0f64).to_bits()],
        vec![1.5f64.to_bits(), 1.5f64.to_bits()],
    ];
    assert_eq!(nested, expected);
    assert_eq!(bits("SELECT a.x, b.y FROM a INNER JOIN b ON a.x = b.y"), expected);

    db.execute("INSERT INTO b VALUES (0.0)").unwrap();
    let distinct = db.execute("SELECT DISTINCT y FROM b WHERE y = 0").unwrap();
    assert_eq!(distinct.len(), 1, "{distinct}");
    let groups =
        db.execute("SELECT y, COUNT(*) FROM b WHERE y = 0 GROUP BY y").unwrap();
    assert_eq!(groups.len(), 1, "{groups}");
    assert_eq!(groups.rows[0][1].as_i64(), Some(2));
}

#[test]
fn aggregate_inside_order_by_of_grouped_query() {
    let db = db_with(&[(1, Some(10.0), "a"), (2, Some(1.0), "a"), (3, Some(5.0), "b")]);
    let rs = db.execute("SELECT s FROM t GROUP BY s ORDER BY SUM(x) DESC").unwrap();
    assert_eq!(rs.rows[0][0].to_string(), "a"); // sum 11 > 5
    assert_eq!(rs.rows[1][0].to_string(), "b");
}

#[test]
fn insert_arity_errors() {
    let db = db_with(&[]);
    let err = db.execute("INSERT INTO t VALUES (1, 2.0)").unwrap_err();
    assert!(matches!(err, DbError::ArityMismatch { expected: 3, found: 2 }));
    let err = db.execute("INSERT INTO t (k) VALUES (1, 2)").unwrap_err();
    assert!(matches!(err, DbError::ArityMismatch { .. }));
}

#[test]
fn unknown_entities_error_cleanly() {
    // Note: column resolution is lazy (per row), so unknown columns only
    // surface once the table has rows — hence the non-empty fixture.
    let db = db_with(&[(1, Some(1.0), "a")]);
    assert!(matches!(
        db.execute("SELECT * FROM ghosts").unwrap_err(),
        DbError::UnknownTable(_)
    ));
    assert!(matches!(
        db.execute("SELECT ghost FROM t").unwrap_err(),
        DbError::UnknownColumn(_)
    ));
    assert!(matches!(
        db.execute("INSERT INTO t (ghost) VALUES (1)").unwrap_err(),
        DbError::UnknownColumn(_)
    ));
    assert!(matches!(
        db.execute("DELETE FROM ghosts").unwrap_err(),
        DbError::UnknownTable(_)
    ));
}

#[test]
fn deeply_nested_boolean_expressions() {
    let db = db_with(&[(1, Some(1.0), "a"), (2, Some(2.0), "b"), (3, Some(3.0), "c")]);
    let rs = db
        .execute(
            "SELECT k FROM t WHERE ((k = 1 OR k = 2) AND NOT (k = 2)) \
             OR (k = 3 AND x > 2.5) ORDER BY k",
        )
        .unwrap();
    let ks: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ks, vec![1, 3]);
}

// ---------------------------------------------------------------------
// Lossless float round-trips (snapshot persistence relies on these)
// ---------------------------------------------------------------------

#[test]
fn float_edge_cases_survive_insert_select_bit_exactly() {
    let db = Database::new();
    db.execute("CREATE TABLE f (k INTEGER, v REAL)").unwrap();
    let cases: Vec<f64> = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,                  // smallest subnormal
        f64::MIN_POSITIVE,       // smallest normal
        f64::MIN_POSITIVE / 2.0, // mid subnormal
        f64::MAX,
        -f64::MAX,
        0.1 + 0.2, // classic shortest-repr case
        1.0 / 3.0,
        2.0, // integral float must NOT collapse to Int
        -1e15,
        9.007199254740993e15, // > 2^53, fract()==0 territory
    ];
    for (k, v) in cases.iter().enumerate() {
        let lit = Value::Float(*v).sql_literal();
        db.execute(&format!("INSERT INTO f VALUES ({k}, {lit})")).unwrap();
    }
    let rs = db.execute("SELECT k, v FROM f ORDER BY k").unwrap();
    assert_eq!(rs.len(), cases.len());
    for (row, expected) in rs.rows.iter().zip(&cases) {
        match &row[1] {
            Value::Float(got) => assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "{expected:?} came back as {got:?}"
            ),
            other => panic!("{expected:?} came back as non-float {other:?}"),
        }
    }
}

#[test]
fn integer_literals_still_integerize_and_nonfinite_parse_everywhere() {
    let db = Database::new();
    db.execute("CREATE TABLE f (k INTEGER, v REAL)").unwrap();
    // Digits-only literals stay integers (INTEGER columns accept them).
    db.execute("INSERT INTO f VALUES (1, 1.5), (2, INF), (3, NAN)").unwrap();
    let rs = db.execute("SELECT k FROM f WHERE v > 1e300").unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0].as_i64(), Some(2));
    // NaN compares false against everything, including itself.
    let rs = db.execute("SELECT k FROM f WHERE v = NAN").unwrap();
    assert_eq!(rs.len(), 0);
    // Case-insensitive, and usable in expressions.
    let rs = db.execute("SELECT k FROM f WHERE v = -(-inf)").unwrap();
    assert_eq!(rs.len(), 1);
}

#[test]
fn integers_above_two_pow_53_stay_distinct() {
    // 2^53 + 1 and 2^53 round to the same f64; SQL must still tell them
    // apart in every comparison, sort and grouping path.
    let db = Database::new();
    db.execute("CREATE TABLE big (k INTEGER)").unwrap();
    db.execute("INSERT INTO big VALUES (9007199254740993), (9007199254740992)")
        .unwrap();
    let count = |sql: &str| db.execute(sql).unwrap().scalar().unwrap().as_i64();
    assert_eq!(count("SELECT COUNT(*) FROM big WHERE k = 9007199254740992"), Some(1));
    assert_eq!(db.execute("SELECT DISTINCT k FROM big").unwrap().len(), 2);
    assert_eq!(db.execute("SELECT k, COUNT(*) FROM big GROUP BY k").unwrap().len(), 2);
    let ordered = db.execute("SELECT k FROM big ORDER BY k").unwrap();
    let keys: Vec<Option<i64>> = ordered.rows.iter().map(|r| r[0].as_i64()).collect();
    assert_eq!(keys, vec![Some(9_007_199_254_740_992), Some(9_007_199_254_740_993)]);
    // The hash join pairs each row only with itself.
    let joined = db
        .execute(
            "SELECT a.k, b.k FROM big a INNER JOIN big b ON a.k = b.k ORDER BY a.k",
        )
        .unwrap();
    assert_eq!(joined.len(), 2);
    for row in &joined.rows {
        assert_eq!(row[0].as_i64(), row[1].as_i64());
    }
}
