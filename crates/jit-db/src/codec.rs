//! Bit-exact binary codec for [`Value`] rows and WAL records.
//!
//! The SQL-literal round trip (`Value::sql_literal` → lexer → parser)
//! is lossless for every value the engine stores *except* NaN payloads,
//! and it pays a full tokenizer/parser pass per row. This codec is the
//! storage-grade alternative: floats travel as raw `f64::to_bits`
//! (every NaN payload, `-0.0`, subnormals and infinities survive
//! bit-for-bit), strings and blobs are length-prefixed bytes, and
//! integers keep their little-endian two's-complement form.
//!
//! These are the workspace's only binary primitives. `jit-service`
//! builds its wire frames and its stored snapshot blobs on the same
//! encoder functions and [`Decoder`], so a frame, a WAL record and a
//! stored snapshot all share one set of bounds checks. The encoding
//! itself carries no version: what is stored says which build wrote it
//! (the WAL's magic, a snapshot blob's leading version byte), because
//! stored bytes outlive that build, while a frame is read by the build
//! that wrote it.
//!
//! Decoding never panics: every failure is a typed
//! [`DbError::Codec`] carrying the byte offset and what was expected
//! there, and length prefixes are validated against the remaining
//! buffer *before* any allocation, so a corrupt 4 GiB length claim
//! costs nothing.

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::DbError;
use crate::value::{ColumnType, Value};

/// Value tag: SQL NULL.
const TAG_NULL: u8 = 0;
/// Value tag: 64-bit signed integer.
const TAG_INT: u8 = 1;
/// Value tag: IEEE-754 double as raw bits.
const TAG_FLOAT: u8 = 2;
/// Value tag: length-prefixed UTF-8 string.
const TAG_TEXT: u8 = 3;
/// Value tag: boolean.
const TAG_BOOL: u8 = 4;
/// Value tag: length-prefixed raw bytes.
const TAG_BLOB: u8 = 5;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends the binary form of one value.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            encode_f64(out, *x);
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            encode_str(out, s);
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Blob(bytes) => {
            out.push(TAG_BLOB);
            encode_bytes(out, bytes);
        }
    }
}

/// Exact encoded size of one value, without encoding it. Used by the
/// executor to meter bytes materialized from storage.
pub fn encoded_len(v: &Value) -> u64 {
    match v {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Text(s) => 5 + s.len() as u64,
        Value::Blob(b) => 5 + b.len() as u64,
        Value::Bool(_) => 2,
    }
}

/// Appends a count-prefixed row of values.
pub fn encode_row(out: &mut Vec<u8>, row: &[Value]) {
    encode_u32(out, row.len() as u32);
    for v in row {
        encode_value(out, v);
    }
}

/// Appends a count-prefixed batch of rows.
pub fn encode_rows(out: &mut Vec<u8>, rows: &[Vec<Value>]) {
    encode_u32(out, rows.len() as u32);
    for row in rows {
        encode_row(out, row);
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn encode_str(out: &mut Vec<u8>, s: &str) {
    encode_bytes(out, s.as_bytes());
}

/// Appends `u32`-length-prefixed raw bytes.
pub fn encode_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    encode_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a little-endian `u32`.
pub fn encode_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn encode_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Appends a `usize` as a little-endian `u64`.
pub fn encode_usize(out: &mut Vec<u8>, n: usize) {
    encode_u64(out, n as u64);
}

/// Appends a float's raw IEEE-754 bits, little-endian: bit-exact for
/// every payload.
pub fn encode_f64(out: &mut Vec<u8>, x: f64) {
    encode_u64(out, x.to_bits());
}

/// Appends a column-type tag byte.
pub fn encode_column_type(out: &mut Vec<u8>, t: ColumnType) {
    out.push(match t {
        ColumnType::Integer => 0,
        ColumnType::Real => 1,
        ColumnType::Text => 2,
        ColumnType::Boolean => 3,
        ColumnType::Blob => 4,
    });
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A bounds-checked cursor over an encoded buffer.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to decode.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Typed "expected X at this offset" error.
    fn err(&self, expected: &'static str) -> DbError {
        DbError::Codec { offset: self.pos, expected }
    }

    /// Fails unless the whole buffer was consumed.
    pub fn finish(&self) -> Result<(), DbError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err("end of record"))
        }
    }

    fn take(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], DbError> {
        if self.remaining() < n {
            return Err(self.err(expected));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Decodes one byte.
    pub fn u8(&mut self, expected: &'static str) -> Result<u8, DbError> {
        Ok(self.take(1, expected)?[0])
    }

    /// Decodes a little-endian `u32`.
    pub fn u32(&mut self, expected: &'static str) -> Result<u32, DbError> {
        let b = self.take(4, expected)?;
        let a: [u8; 4] = b.try_into().map_err(|_| self.err(expected))?;
        Ok(u32::from_le_bytes(a))
    }

    /// Decodes a little-endian `u64`.
    pub fn u64(&mut self, expected: &'static str) -> Result<u64, DbError> {
        let b = self.take(8, expected)?;
        let a: [u8; 8] = b.try_into().map_err(|_| self.err(expected))?;
        Ok(u64::from_le_bytes(a))
    }

    /// Decodes a little-endian `u64` that must fit a `usize`.
    pub fn usize(&mut self, expected: &'static str) -> Result<usize, DbError> {
        let at = self.pos;
        usize::try_from(self.u64(expected)?)
            .map_err(|_| DbError::Codec { offset: at, expected })
    }

    /// Decodes a float from its raw little-endian bits.
    pub fn f64(&mut self, expected: &'static str) -> Result<f64, DbError> {
        Ok(f64::from_bits(self.u64(expected)?))
    }

    /// Decodes a one-byte tag that must be below `n`; an out-of-range
    /// tag fails at its own offset.
    pub fn tag(&mut self, n: u8, expected: &'static str) -> Result<u8, DbError> {
        let at = self.pos;
        match self.u8(expected)? {
            t if t < n => Ok(t),
            _ => Err(DbError::Codec { offset: at, expected }),
        }
    }

    /// Decodes `u32`-length-prefixed raw bytes, borrowed from the
    /// buffer. The length is checked against the remaining bytes, so a
    /// lying prefix allocates nothing.
    pub fn bytes(&mut self, expected: &'static str) -> Result<&'a [u8], DbError> {
        let len = self.u32(expected)? as usize;
        self.take(len, expected)
    }

    /// Decodes a length-prefixed UTF-8 string.
    pub fn str(&mut self, expected: &'static str) -> Result<String, DbError> {
        let bytes = self.bytes(expected)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DbError::Codec {
            offset: self.pos - bytes.len(),
            expected: "valid UTF-8",
        })
    }

    /// Decodes one tagged value.
    pub fn value(&mut self) -> Result<Value, DbError> {
        let tag = self.u8("value tag")?;
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_INT => {
                let b = self.take(8, "int payload")?;
                let a: [u8; 8] = b.try_into().map_err(|_| self.err("int payload"))?;
                Ok(Value::Int(i64::from_le_bytes(a)))
            }
            TAG_FLOAT => Ok(Value::Float(self.f64("float payload")?)),
            TAG_TEXT => Ok(Value::Text(self.str("text payload")?)),
            TAG_BLOB => Ok(Value::Blob(self.bytes("blob payload")?.to_vec())),
            TAG_BOOL => Ok(Value::Bool(self.tag(2, "bool 0 or 1")? == 1)),
            _ => Err(DbError::Codec {
                offset: self.pos - 1,
                expected: "value tag 0..=5",
            }),
        }
    }

    /// Decodes a count-prefixed row. Each value costs ≥ 1 byte, so the
    /// claimed count is validated against the remaining bytes up front.
    pub fn row(&mut self) -> Result<Vec<Value>, DbError> {
        let n = self.u32("row arity")? as usize;
        if n > self.remaining() {
            return Err(self.err("row arity within record"));
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row)
    }

    /// Decodes a count-prefixed batch of rows.
    pub fn rows(&mut self) -> Result<Vec<Vec<Value>>, DbError> {
        let n = self.u32("row count")? as usize;
        if n > self.remaining() {
            return Err(self.err("row count within record"));
        }
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(self.row()?);
        }
        Ok(rows)
    }

    /// Decodes a column-type tag byte.
    pub fn column_type(&mut self) -> Result<ColumnType, DbError> {
        Ok(match self.tag(5, "column type tag 0..=4")? {
            0 => ColumnType::Integer,
            1 => ColumnType::Real,
            2 => ColumnType::Text,
            3 => ColumnType::Boolean,
            _ => ColumnType::Blob,
        })
    }
}

// ---------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------

/// 64-bit content checksum for WAL records: FNV-1a with a splitmix64
/// finalizer for avalanche. Not cryptographic — it detects torn writes
/// and media bit flips, which is all the recovery path needs.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) -> Value {
        let mut buf = Vec::new();
        encode_value(&mut buf, &v);
        assert_eq!(buf.len() as u64, encoded_len(&v));
        let mut d = Decoder::new(&buf);
        let back = d.value().expect("decodes");
        d.finish().expect("fully consumed");
        back
    }

    #[test]
    fn scalar_roundtrips_are_bit_exact() {
        assert_eq!(roundtrip(Value::Null), Value::Null);
        assert_eq!(roundtrip(Value::Int(i64::MIN)), Value::Int(i64::MIN));
        assert_eq!(roundtrip(Value::Bool(true)), Value::Bool(true));
        assert_eq!(
            roundtrip(Value::Text("héllo\0🦀".into())),
            Value::Text("héllo\0🦀".into())
        );
        // NaN payloads survive — the one thing sql_literal collapses.
        let weird_nan = f64::from_bits(0x7ff8_dead_beef_0001);
        match roundtrip(Value::Float(weird_nan)) {
            Value::Float(x) => assert_eq!(x.to_bits(), weird_nan.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
        match roundtrip(Value::Float(-0.0)) {
            Value::Float(x) => assert_eq!(x.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
        // Blobs keep every byte, including NUL and invalid UTF-8.
        assert_eq!(roundtrip(Value::Blob(Vec::new())), Value::Blob(Vec::new()));
        let raw = vec![0x00, 0xff, 0xfe, b'x', 0x80];
        assert_eq!(roundtrip(Value::Blob(raw.clone())), Value::Blob(raw));
    }

    #[test]
    fn truncation_yields_typed_error() {
        for v in [Value::Text("abcdef".into()), Value::Blob(vec![1, 2, 3, 0xff])] {
            let mut buf = Vec::new();
            encode_value(&mut buf, &v);
            for cut in 0..buf.len() {
                let mut d = Decoder::new(&buf[..cut]);
                assert!(d.value().is_err(), "{v:?} cut at {cut} must fail typed");
            }
        }
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // Claims a 4 GiB string (then blob) with 2 bytes of payload.
        for tag in [TAG_TEXT, TAG_BLOB] {
            let buf = [tag, 0xff, 0xff, 0xff, 0xff, b'x', b'y'];
            let mut d = Decoder::new(&buf);
            match d.value() {
                Err(DbError::Codec { .. }) => {}
                other => panic!("expected codec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn encoded_len_counts_blob_payloads() {
        for v in [Value::Blob(Vec::new()), Value::Blob(vec![7; 300])] {
            let mut buf = Vec::new();
            encode_value(&mut buf, &v);
            assert_eq!(buf.len() as u64, encoded_len(&v), "{v:?}");
        }
    }

    #[test]
    fn column_types_round_trip_and_bad_tags_fail_at_their_offset() {
        use ColumnType::*;
        for t in [Integer, Real, Text, Boolean, Blob] {
            let mut buf = Vec::new();
            encode_column_type(&mut buf, t);
            assert_eq!(Decoder::new(&buf).column_type(), Ok(t));
        }
        let mut d = Decoder::new(&[9, 5]);
        assert_eq!(
            d.tag(9, "small tag"),
            Err(DbError::Codec { offset: 0, expected: "small tag" })
        );
        assert_eq!(d.tag(9, "small tag"), Ok(5));
    }

    #[test]
    fn checksum_differs_on_single_bit_flip() {
        let mut buf = Vec::new();
        encode_rows(&mut buf, &[vec![Value::Int(7), Value::Text("x".into())]]);
        let base = checksum64(&buf);
        for i in 0..buf.len() {
            buf[i] ^= 0x10;
            assert_ne!(checksum64(&buf), base, "flip at byte {i} must change checksum");
            buf[i] ^= 0x10;
        }
    }
}
