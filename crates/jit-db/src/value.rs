//! Runtime values and column types.

use std::cmp::Ordering;
use std::fmt;

/// Declared column types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Integer,
    /// 64-bit float.
    Real,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Boolean,
    /// Raw bytes. Reachable through the programmatic row API only: the
    /// SQL dialect has no `BLOB` type name and no blob literal.
    Blob,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Integer => write!(f, "INTEGER"),
            ColumnType::Real => write!(f, "REAL"),
            ColumnType::Text => write!(f, "TEXT"),
            ColumnType::Boolean => write!(f, "BOOLEAN"),
            ColumnType::Blob => write!(f, "BLOB"),
        }
    }
}

/// A runtime value.
///
/// The derived `PartialEq` is *structural* (used for AST equality in
/// tests); SQL equality with numeric coercion and NULL semantics is
/// [`Value::sql_eq`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Raw bytes (see [`ColumnType::Blob`]).
    Blob(Vec<u8>),
}

impl Value {
    /// `true` when the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (Int and Float only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (Int only; Float accepted when integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// Boolean view; numeric zero/nonzero coerces like SQL.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Null | Value::Text(_) | Value::Blob(_) => false,
        }
    }

    /// Whether this value can be stored in a column of the given type.
    /// NULL is storable anywhere; Int widens into REAL columns.
    pub fn conforms_to(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), ColumnType::Integer)
                | (Value::Int(_), ColumnType::Real)
                | (Value::Float(_), ColumnType::Real)
                | (Value::Text(_), ColumnType::Text)
                | (Value::Bool(_), ColumnType::Boolean)
                | (Value::Blob(_), ColumnType::Blob)
        )
    }

    /// SQL comparison; `None` when either side is NULL or types are
    /// incomparable. Int and Float compare numerically and exactly: two
    /// Ints as `i64`, and an Int against a Float by their true values, so
    /// a Float equals an Int only when it is integral and equal to it as
    /// an integer (distinct Ints above 2^53 stay distinct). Bool compares
    /// as false < true; Blobs compare bytewise.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Blob(a), Value::Blob(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Int(i), Value::Float(f)) => cmp_int_float(*i, *f),
            (Value::Float(f), Value::Int(i)) => {
                cmp_int_float(*i, *f).map(Ordering::reverse)
            }
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// SQL equality through [`Value::compare`].
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }

    /// Total ordering for ORDER BY / DISTINCT / GROUP BY: NULLs sort last,
    /// mixed incomparable types order by a type rank so sorting is total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 4,
                Value::Int(_) | Value::Float(_) => 0,
                Value::Text(_) => 1,
                Value::Bool(_) => 2,
                Value::Blob(_) => 3,
            }
        }
        match self.compare(other) {
            Some(o) => o,
            None => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                _ => rank(self).cmp(&rank(other)).then_with(|| {
                    // Same rank but incomparable can only be NaN floats.
                    let a = self.as_f64().unwrap_or(f64::NAN);
                    let b = other.as_f64().unwrap_or(f64::NAN);
                    a.total_cmp(&b)
                }),
            },
        }
    }

    /// Renders the value as a SQL literal that parses back to an equal
    /// value — **bit-exactly** for floats.
    ///
    /// This is the lossless serialization path: finite floats use Rust's
    /// shortest round-trip representation (always containing a `.` or an
    /// exponent, so the lexer keeps them `REAL` instead of integerizing
    /// `2.0`), and non-finite floats render as the `NAN` / `INF` /
    /// `-INF` literals the parser accepts. The one caveat: NaN *payloads*
    /// collapse to the canonical quiet NaN (there is only one NaN
    /// literal). Blobs render as `X'…'` hex for display only: the
    /// dialect has no blob literal, so they do not parse back.
    pub fn sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.is_nan() {
                    "NAN".to_string()
                } else if *f == f64::INFINITY {
                    "INF".to_string()
                } else if *f == f64::NEG_INFINITY {
                    "-INF".to_string()
                } else {
                    // `{:?}` is the shortest decimal that round-trips and
                    // always reads back as a float ("2.0", "-0.0", "1e300").
                    format!("{f:?}")
                }
            }
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Blob(_) => self.to_string(),
        }
    }

    /// Key usable in hash-based DISTINCT/GROUP BY and hash joins:
    /// canonicalizes numerics, so values SQL `=` calls equal share a key
    /// (`-0.0` takes `0.0`'s, and an Int takes the key of the Float it
    /// converts to exactly). An Int no Float can equal — one whose
    /// conversion to `f64` rounds — keys as an integer instead. Every NaN
    /// shares one key too, which groups NaNs together; a hash join must
    /// skip NaN keys itself.
    pub fn group_key(&self) -> String {
        match self {
            Value::Null => "\u{0}null".to_string(),
            Value::Int(i) => match exact_f64(*i) {
                Some(f) => format!("n{f}"),
                None => format!("i{i}"),
            },
            Value::Float(f) => format!("n{}", if *f == 0.0 { 0.0 } else { *f }),
            Value::Text(s) => format!("t{s}"),
            Value::Bool(b) => format!("b{b}"),
            Value::Blob(_) => format!("x{self}"),
        }
    }
}

/// 2^63 as an `f64`: the first value above every `i64`. `-2^63` is
/// `i64::MIN` itself.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// `i` as an `f64` when the conversion is exact, else `None`. The range
/// check comes first: `i64::MAX as f64` rounds up to 2^63, and casting
/// that back saturates to `i64::MAX`, so a round trip alone would call
/// it exact.
fn exact_f64(i: i64) -> Option<f64> {
    let f = i as f64;
    (f < TWO_POW_63 && f as i64 == i).then_some(f)
}

/// Exact order of the Int `i` against the Float `f` (`None` for NaN).
fn cmp_int_float(i: i64, f: f64) -> Option<Ordering> {
    if f.is_nan() {
        return None;
    }
    if f >= TWO_POW_63 {
        return Some(Ordering::Less);
    }
    if f < -TWO_POW_63 {
        return Some(Ordering::Greater);
    }
    // `f` is finite and in `i64` range here, so its integral part casts
    // exactly; equal integral parts leave the fraction to decide.
    let whole = f.trunc();
    Some(i.cmp(&(whole as i64)).then_with(|| {
        let fraction = f - whole;
        if fraction > 0.0 {
            Ordering::Less
        } else if fraction < 0.0 {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Blob(bytes) => {
                write!(f, "X'")?;
                for b in bytes {
                    write!(f, "{b:02x}")?;
                }
                write!(f, "'")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(Value::Int(2).compare(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Int(1).compare(&Value::Float(1.5)), Some(Ordering::Less));
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)));
    }

    #[test]
    fn null_comparisons_are_none() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn text_and_bool_compare() {
        assert_eq!(
            Value::Text("a".into()).compare(&Value::Text("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Bool(false).compare(&Value::Bool(true)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Text("a".into()).compare(&Value::Int(1)), None);
    }

    #[test]
    fn total_cmp_orders_nulls_last() {
        let mut vs = [Value::Null, Value::Int(3), Value::Float(1.5), Value::Int(2)];
        vs.sort_by(|a, b| a.total_cmp(b));
        let shown: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
        assert_eq!(shown, vec!["1.5", "2", "3", "NULL"]);
    }

    #[test]
    fn conforms_widens_int_to_real() {
        assert!(Value::Int(1).conforms_to(ColumnType::Real));
        assert!(!Value::Float(1.0).conforms_to(ColumnType::Integer));
        assert!(Value::Null.conforms_to(ColumnType::Text));
        assert!(!Value::Text("x".into()).conforms_to(ColumnType::Boolean));
        assert!(Value::Blob(vec![1]).conforms_to(ColumnType::Blob));
        assert!(!Value::Text("x".into()).conforms_to(ColumnType::Blob));
        assert!(!Value::Blob(vec![1]).conforms_to(ColumnType::Text));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Int(5).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Null.truthy());
    }

    #[test]
    fn group_keys_canonicalize_numerics() {
        assert_eq!(Value::Int(2).group_key(), Value::Float(2.0).group_key());
        assert_eq!(Value::Float(-0.0).group_key(), Value::Int(0).group_key());
        assert_eq!(Value::Float(-0.0).group_key(), Value::Float(0.0).group_key());
        assert_ne!(Value::Int(2).group_key(), Value::Text("2".into()).group_key());
        assert_ne!(Value::Null.group_key(), Value::Text("null".into()).group_key());
    }

    #[test]
    fn ints_above_two_pow_53_compare_and_key_exactly() {
        let two53: i64 = 1 << 53;
        let (below, at, above) =
            (Value::Int(two53 - 1), Value::Int(two53), Value::Int(two53 + 1));
        assert_eq!(above.compare(&at), Some(Ordering::Greater));
        assert_eq!(at.compare(&below), Some(Ordering::Greater));
        assert!(!above.sql_eq(&at));
        assert_ne!(above.group_key(), at.group_key());
        // 2^53 + 1 rounds to 2^53 as a float, yet the two are not equal.
        let float_at = Value::Float(two53 as f64);
        assert!(at.sql_eq(&float_at));
        assert_eq!(at.group_key(), float_at.group_key());
        assert_eq!(above.compare(&float_at), Some(Ordering::Greater));
        assert_eq!(float_at.compare(&above), Some(Ordering::Less));
        assert_ne!(above.group_key(), float_at.group_key());
        // Below 2^53 every Int is exact and keys like its Float.
        assert_eq!(below.group_key(), Value::Float((two53 - 1) as f64).group_key());
        // A fraction decides between equal integral parts.
        assert_eq!(Value::Int(2).compare(&Value::Float(2.5)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(-2).compare(&Value::Float(-2.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(0).compare(&Value::Float(-0.0)), Some(Ordering::Equal));
        assert_eq!(Value::Int(1).compare(&Value::Float(f64::NAN)), None);
    }

    #[test]
    fn i64_extremes_against_their_nearest_floats() {
        // i64::MAX converts to 2^63, one above it: never equal.
        let max = Value::Int(i64::MAX);
        let two63 = Value::Float(9_223_372_036_854_775_808.0);
        assert_eq!(max.compare(&two63), Some(Ordering::Less));
        assert_eq!(two63.compare(&max), Some(Ordering::Greater));
        assert_ne!(max.group_key(), two63.group_key());
        assert_eq!(max.compare(&Value::Float(f64::INFINITY)), Some(Ordering::Less));
        // i64::MIN is -2^63 exactly: equal, one key.
        let min = Value::Int(i64::MIN);
        let neg_two63 = Value::Float(-9_223_372_036_854_775_808.0);
        assert_eq!(min.compare(&neg_two63), Some(Ordering::Equal));
        assert_eq!(min.group_key(), neg_two63.group_key());
        assert_eq!(
            min.compare(&Value::Float(f64::NEG_INFINITY)),
            Some(Ordering::Greater)
        );
        assert_eq!(min.compare(&Value::Float(-1e19)), Some(Ordering::Greater));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
        assert_eq!(Value::Float(3.25).to_string(), "3.25");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Blob(vec![0x0a, 0xff]).to_string(), "X'0aff'");
    }

    #[test]
    fn sql_literal_floats_are_lossless_text() {
        assert_eq!(Value::Float(2.0).sql_literal(), "2.0");
        assert_eq!(Value::Float(-0.0).sql_literal(), "-0.0");
        assert_eq!(Value::Float(f64::NAN).sql_literal(), "NAN");
        assert_eq!(Value::Float(f64::INFINITY).sql_literal(), "INF");
        assert_eq!(Value::Float(f64::NEG_INFINITY).sql_literal(), "-INF");
        assert_eq!(Value::Int(-7).sql_literal(), "-7");
        assert_eq!(Value::Null.sql_literal(), "NULL");
        assert_eq!(Value::Text("it's".into()).sql_literal(), "'it''s'");
        assert_eq!(Value::Bool(true).sql_literal(), "TRUE");
        // Shortest-repr text re-parses to the identical bits.
        for v in [0.1 + 0.2, f64::MAX, f64::MIN_POSITIVE, 5e-324, 1.0 / 3.0] {
            let text = Value::Float(v).sql_literal();
            assert_eq!(text.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn as_i64_accepts_integral_floats() {
        assert_eq!(Value::Float(3.0).as_i64(), Some(3));
        assert_eq!(Value::Float(3.5).as_i64(), None);
        assert_eq!(Value::Text("3".into()).as_i64(), None);
    }
}
