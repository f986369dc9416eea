//! Property tests for the binary row codec: bit-exact round trips under
//! adversarial bit patterns, and typed (never panicking) rejection of
//! truncated and corrupted buffers. Mirrors the wire-codec suite in
//! `jit-service/tests/wire.rs`, at the storage layer.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jit_db::codec::{self, checksum64, Decoder};
use jit_db::Value;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Floats chosen to break naive codecs: NaNs with payloads, signed
/// zeros, subnormals, infinities, and raw random bit patterns.
fn adversarial_f64(rng: &mut TestRng) -> f64 {
    match rng.i128_in(0, 9) {
        0 => f64::NAN,
        1 => f64::from_bits(0x7ff8_0000_dead_beef), // quiet NaN, payload
        2 => f64::from_bits(0xfff0_0000_0000_0001), // signaling-ish NaN
        3 => -0.0,
        4 => f64::from_bits(1),       // smallest subnormal
        5 => f64::MIN_POSITIVE / 4.0, // subnormal
        6 => f64::INFINITY,
        7 => f64::NEG_INFINITY,
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// Strings from a hostile palette: quotes, backslashes, control chars,
/// NUL, multi-byte unicode, emoji.
fn adversarial_string(rng: &mut TestRng) -> String {
    const PALETTE: &[char] =
        &['a', 'Z', '0', '"', '\'', '\\', '\n', '\t', '\0', ' ', 'é', '漢', '🦀'];
    let n = rng.i128_in(0, 24) as usize;
    (0..n).map(|_| PALETTE[rng.i128_in(0, PALETTE.len() as i128) as usize]).collect()
}

fn adversarial_value(rng: &mut TestRng) -> Value {
    match rng.i128_in(0, 6) {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::Float(adversarial_f64(rng)),
        3 => Value::Text(adversarial_string(rng)),
        4 => Value::Bool(rng.next_u64().is_multiple_of(2)),
        _ => Value::Blob(
            rng.next_u64().to_le_bytes()[..rng.i128_in(0, 9) as usize].to_vec(),
        ),
    }
}

/// A batch of rows with adversarial cell values and ragged widths.
#[derive(Clone, Debug)]
struct AdversarialRows;

impl Strategy for AdversarialRows {
    type Value = Vec<Vec<Value>>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let nrows = rng.i128_in(0, 8) as usize;
        (0..nrows)
            .map(|_| {
                let width = rng.i128_in(0, 6) as usize;
                (0..width).map(|_| adversarial_value(rng)).collect()
            })
            .collect()
    }
}

/// `Value` equality that is bit-exact for floats (`PartialEq` treats
/// NaN != NaN and -0.0 == 0.0; storage must be stricter).
fn bit_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rows_round_trip_bit_exactly(rows in AdversarialRows) {
        let mut buf = Vec::new();
        codec::encode_rows(&mut buf, &rows);
        let mut d = Decoder::new(&buf);
        let back = d.rows().expect("round trip decodes");
        d.finish().expect("fully consumed");
        prop_assert_eq!(back.len(), rows.len());
        for (ra, rb) in rows.iter().zip(&back) {
            prop_assert_eq!(ra.len(), rb.len());
            for (va, vb) in ra.iter().zip(rb) {
                prop_assert!(bit_eq(va, vb), "{va:?} != {vb:?}");
            }
        }
        // Re-encoding reproduces identical bytes: one canonical form.
        let mut again = Vec::new();
        codec::encode_rows(&mut again, &back);
        prop_assert_eq!(again, buf);
    }

    #[test]
    fn every_truncation_fails_typed(rows in AdversarialRows) {
        let mut buf = Vec::new();
        codec::encode_rows(&mut buf, &rows);
        for cut in 0..buf.len() {
            let mut d = Decoder::new(&buf[..cut]);
            match d.rows().and_then(|r| d.finish().map(|()| r)) {
                Err(jit_db::DbError::Codec { offset, .. }) => {
                    prop_assert!(offset <= cut, "offset {offset} past cut {cut}");
                }
                Ok(_) => prop_assert!(false, "cut at {cut} decoded"),
                Err(other) => prop_assert!(false, "non-codec error: {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_never_panics_and_flips_change_checksum(
        rows in AdversarialRows,
        flip_bit in 0usize..64,
    ) {
        let mut buf = Vec::new();
        codec::encode_rows(&mut buf, &rows);
        let base = checksum64(&buf);
        // encode_rows always emits at least the 4-byte count prefix.
        let byte = flip_bit % buf.len();
        let mask = 1u8 << (flip_bit % 8);
        buf[byte] ^= mask;
        // The checksum must notice every single-bit flip...
        prop_assert_ne!(checksum64(&buf), base);
        // ...and the decoder must reject or survive, never panic.
        let mut d = Decoder::new(&buf);
        let _ = d.rows().and_then(|r| d.finish().map(|()| r));
    }
}

#[test]
fn encoded_len_matches_encoding_for_known_extremes() {
    for v in [
        Value::Null,
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(f64::from_bits(0x7ff8_dead_beef_0001)),
        Value::Float(-0.0),
        Value::Text(String::new()),
        Value::Text("héllo\0🦀".to_string()),
        Value::Bool(false),
        Value::Blob(Vec::new()),
        Value::Blob(vec![0, 0xff, 0xfe]),
    ] {
        let mut buf = Vec::new();
        codec::encode_value(&mut buf, &v);
        assert_eq!(buf.len() as u64, codec::encoded_len(&v), "{v:?}");
    }
}
