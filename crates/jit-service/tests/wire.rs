//! Property tests for the wire codec: bit-exact round trips under
//! adversarial float bit patterns and arbitrary user-id strings, and
//! typed (never panicking) rejection of malformed, truncated and
//! corrupted frames.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jit_core::UserRequest;
use jit_data::{FeatureSchema, LendingClubGenerator};
use jit_service::wire::{self, Message, WireError};
use jit_service::{CohortMember, ServeError, ServeRequest};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

// ---------------------------------------------------------------------
// Adversarial strategies (custom impls — the vendored proptest shim has
// no `any`/`prop_flat_map`)
// ---------------------------------------------------------------------

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

#[derive(Clone, Debug)]
struct AdversarialProfile {
    max_len: usize,
}

impl Strategy for AdversarialProfile {
    type Value = Vec<f64>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let n = rng.i128_in(1, self.max_len as i128) as usize;
        (0..n).map(|_| adversarial_f64(rng)).collect()
    }
}

/// User ids drawn from a hostile palette: quotes, backslashes, newlines,
/// NUL, multi-byte unicode, emoji.
#[derive(Clone, Debug)]
struct AdversarialId;

impl Strategy for AdversarialId {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        const PALETTE: &[char] =
            &['a', 'Z', '0', '"', '\'', '\\', '\n', '\t', '\0', ' ', 'é', '漢', '🦀'];
        let n = rng.i128_in(0, 24) as usize;
        (0..n)
            .map(|_| PALETTE[rng.i128_in(0, PALETTE.len() as i128) as usize])
            .collect()
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serve_request_round_trips_bit_exactly(
        profile_a in AdversarialProfile { max_len: 12 },
        profile_b in AdversarialProfile { max_len: 12 },
        id_a in AdversarialId,
        id_b in AdversarialId,
        cap_bits in 0u64..u64::MAX,
        scope_t in 0usize..4,
    ) {
        let schema = FeatureSchema::lending_club();
        // Distinct ids (suffix makes hostile duplicates unique).
        let id_a = format!("{id_a}#a");
        let id_b = format!("{id_b}#b");
        let mut request_b = UserRequest::new(profile_b.clone());
        // Constraint constants with arbitrary bit patterns must survive
        // the trip exactly (constraints are encoded inline, as bits).
        let cap = f64::from_bits(cap_bits);
        if cap.is_finite() {
            request_b
                .constraints
                .add_at(scope_t, jit_constraints::builder::feature("income").le(cap));
        }
        let original = ServeRequest::Batch(vec![
            CohortMember::new(id_a.clone(), UserRequest::new(profile_a.clone())),
            CohortMember::new(id_b.clone(), request_b),
        ]);

        let encoded = wire::encode_message(&Message::Serve { id: 7, request: original });
        let decoded = wire::decode_message(&encoded, Some(&schema)).expect("decodes");
        let Message::Serve { id: 7, request: ServeRequest::Batch(members) } = decoded
        else {
            panic!("wrong message shape");
        };
        prop_assert_eq!(members.len(), 2);
        prop_assert_eq!(&members[0].user_id, &id_a);
        prop_assert_eq!(&members[1].user_id, &id_b);
        prop_assert_eq!(bits(&members[0].request.profile), bits(&profile_a));
        prop_assert_eq!(bits(&members[1].request.profile), bits(&profile_b));
        // Re-encoding the decoded value reproduces identical bytes —
        // the codec has one canonical form.
        let again = wire::encode_message(&Message::Serve {
            id: 7,
            request: ServeRequest::Batch(members),
        });
        prop_assert_eq!(again, encoded);
    }

    #[test]
    fn error_frames_round_trip_with_canonical_reencoding(
        id in AdversarialId,
        capacity in 0usize..1_000_000,
        shard in 0usize..64,
    ) {
        for error in [
            ServeError::EmptyBatch,
            ServeError::DuplicateUser(id.clone()),
            ServeError::UnknownUser(id.clone()),
            ServeError::Overloaded { capacity },
            ServeError::Shard { shard, user_id: id.clone(), detail: id.clone() },
            ServeError::Transport(id.clone()),
        ] {
            let encoded = wire::encode_message(&Message::Failed { id: 3, error });
            let decoded = wire::decode_message(&encoded, None).expect("decodes");
            let again = wire::encode_message(&decoded);
            prop_assert_eq!(again, encoded);
        }
    }

    #[test]
    fn frames_round_trip_and_truncations_are_typed(
        body in proptest::collection::vec(0u8..255, 0..200),
        cut in 0usize..205,
    ) {
        // Full frame round-trips...
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &body, wire::MAX_FRAME_LEN).expect("write");
        let back = wire::read_frame(&mut framed.as_slice(), wire::MAX_FRAME_LEN)
            .expect("read");
        prop_assert_eq!(&back, &body);

        // ...and every strict prefix fails typed, never panics, never
        // fabricates data.
        let cut = cut.min(framed.len().saturating_sub(1));
        let result = wire::read_frame(&mut framed[..cut].as_ref(), wire::MAX_FRAME_LEN);
        match result {
            Err(WireError::Closed) => prop_assert_eq!(cut, 0),
            Err(WireError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            Err(other) => panic!("unexpected error shape: {other}"),
            Ok(_) => panic!("a truncated frame must not parse"),
        }
    }

    #[test]
    fn corrupt_and_truncated_bodies_never_panic(
        profile in AdversarialProfile { max_len: 8 },
        id in AdversarialId,
        cut_num in 0usize..10_000,
        flip_pos in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let schema = FeatureSchema::lending_club();
        let encoded = wire::encode_message(&Message::Serve {
            id: 1,
            request: ServeRequest::new_user(id, UserRequest::new(profile)),
        });

        // Truncation at every relative position: must be a typed error
        // (a strict prefix can never satisfy the trailing-bytes check).
        let cut = cut_num % encoded.len();
        prop_assert!(wire::decode_message(&encoded[..cut], Some(&schema)).is_err());

        // A flipped bit anywhere: decode may succeed (the flip landed in
        // a float payload) or fail typed — it must never panic and never
        // over-allocate past the frame.
        let mut corrupt = encoded.clone();
        let pos = flip_pos % corrupt.len();
        corrupt[pos] ^= 1 << flip_bit;
        let _ = wire::decode_message(&corrupt, Some(&schema));
    }
}

// ---------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------

#[test]
fn oversized_write_and_read_are_refused_before_any_allocation() {
    // Writing past the cap fails without emitting anything.
    let mut out = Vec::new();
    let err = wire::write_frame(&mut out, &[0u8; 64], 16).unwrap_err();
    assert!(matches!(err, WireError::Oversized { len: 64, max: 16 }));
    assert!(out.is_empty());

    // Reading a frame that *claims* to be enormous fails on the length
    // prefix alone — the payload is never allocated or awaited.
    let mut claim = Vec::new();
    claim.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = wire::read_frame(&mut claim.as_slice(), 1 << 20).unwrap_err();
    assert!(matches!(err, WireError::Oversized { .. }));
}

#[test]
fn constraints_nested_past_the_cap_fail_typed_instead_of_overflowing_the_stack() {
    let frame = |depth: usize| {
        let mut constraint = jit_constraints::Constraint::True;
        for _ in 0..depth {
            constraint = jit_constraints::Constraint::Not(Box::new(constraint));
        }
        let mut request = UserRequest::new(LendingClubGenerator::john());
        request.constraints.add(constraint);
        wire::encode_message(&Message::Serve {
            id: 1,
            request: ServeRequest::new_user("deep", request),
        })
    };
    let at_cap = frame(wire::MAX_CONSTRAINT_DEPTH);
    let past_cap = frame(wire::MAX_CONSTRAINT_DEPTH + 1);
    // A few kilobytes, far under the frame cap.
    let hostile = frame(6_000);
    assert!(hostile.len() < 8 << 10, "{} bytes", hostile.len());
    // Decode where a server does: on a spawned, default-stack thread.
    std::thread::spawn(move || {
        let schema = FeatureSchema::lending_club();
        assert!(wire::decode_message(&at_cap, Some(&schema)).is_ok());
        for body in [past_cap, hostile] {
            let err = wire::decode_message(&body, Some(&schema)).unwrap_err();
            assert!(matches!(err, WireError::Malformed { .. }), "{err}");
        }
    })
    .join()
    .expect("decoding never overflows the stack");
}

#[test]
fn wire_errors_convert_to_typed_transport_serve_errors() {
    let err: ServeError = WireError::Closed.into();
    assert!(matches!(err, ServeError::Transport(_)));
    let err: ServeError =
        WireError::Malformed { offset: 3, expected: "user id" }.into();
    match err {
        ServeError::Transport(detail) => {
            assert!(detail.contains("user id"), "{detail}")
        }
        other => panic!("expected Transport, got {other:?}"),
    }
}
