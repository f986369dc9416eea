//! The length-prefixed binary wire protocol of the networked serving
//! tier.
//!
//! Everything the tier sends — requests, responses, errors, training
//! specs — travels as **frames** over any `Read`/`Write` byte stream
//! (TCP sockets for the front end, stdin/stdout pipes for shard worker
//! processes). The protocol is std-only and self-contained: no serde, no
//! crates.io.
//!
//! ## Frame format
//!
//! | bytes | field | notes |
//! |---|---|---|
//! | 4 | `len` | `u32` little-endian, length of everything after it |
//! | 1 | `tag` | message discriminant (see [`Message`]) |
//! | `len - 1` | payload | message-specific body |
//!
//! A reader enforces a frame cap *before* allocating: a `len` above the
//! cap is [`WireError::Oversized`] and the frame body is never read. EOF
//! cleanly between frames is [`WireError::Closed`]; EOF inside a frame is
//! an I/O error. Any byte-level mismatch while decoding a payload is
//! [`WireError::Malformed`] with the offset and what was expected —
//! malformed input produces typed errors, never panics.
//!
//! ## Value encoding
//!
//! Payloads are built on `jit-db`'s binary primitives
//! ([`jit_db::codec`]): integers are little-endian, counts and lengths
//! `u32`, and floats travel as their raw IEEE-754 bits
//! (`f64::to_bits`), so every NaN payload, `-0.0` and subnormal
//! round-trips **bit-exactly**. Strings are `u32` length + UTF-8 bytes;
//! enums are one tag byte. Constraint ASTs and temporal update functions
//! are encoded the same way, inline, so a decoded constraint set
//! compiles to the same content digests as the one encoded. Constraint
//! nesting is capped at [`MAX_CONSTRAINT_DEPTH`] levels.
//!
//! This module owns the one serialized form of a [`SessionSnapshot`]:
//! [`crate::DbSnapshotStore`] persists the same bytes. A stored blob
//! leads with a format-version byte and a frame does not, because
//! stored bytes outlive the build that wrote them while both ends of a
//! connection run one build (a shard worker is checked against its
//! supervisor's schema at the handshake).
//!
//! ## Determinism contract
//!
//! Encoding is a pure function of the value: the same `ServeRequest` or
//! [`WireResponse`] always encodes to the same bytes, on every process,
//! platform and thread count. [`WireResponse`] deliberately carries the
//! *shard-count-independent* part of a [`crate::ServeReport`] (totals,
//! not the per-shard breakdown), so a response served by 1, 2 or 4 shard
//! processes encodes to **identical bytes** — the property
//! `tests/determinism.rs` locks down across the whole networked tier.
//!
//! ## Lossy error mapping
//!
//! [`crate::ServeError`] round-trips structurally except for nested
//! database errors, which are carried as their rendered message and
//! decode as `DbError::Eval(message)` — the variant identity of a remote
//! engine internal is not load-bearing, the message is. Encoding a
//! decoded error re-produces identical bytes.

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::api::{
    CohortMember, ReturningMember, ServeError, ServeReport, ServeRequest, ServeResponse,
};
use crate::store::StoreError;
use crate::supervisor::{DataSpec, TrainSpec};
use jit_constraints::{
    CmpOp, Constraint, ConstraintSet, LinExpr, Special, TimeScope, VarRef,
};
use jit_core::{
    AdminConfig, Candidate, CandidateParams, Objective, ReturningUser, SessionError,
    SessionSnapshot, TimePointServe, UserRequest,
};
use jit_data::{FeatureSchema, TemporalSpec};
use jit_db::codec::{
    encode_f64, encode_str, encode_u32, encode_u64, encode_usize, Decoder,
};
use jit_db::DbError;
use jit_math::digest::Digest;
use jit_ml::threshold::ThresholdPolicy;
use jit_ml::RandomForestParams;
use jit_temporal::future::{FutureModelsParams, FuturePredictor};
use jit_temporal::herding::HerdingParams;
use jit_temporal::update::{Override, TemporalUpdateFn};
use std::fmt;
use std::io::{Read, Write};

/// Default frame cap: generous for cohort responses, small enough that a
/// corrupt length prefix cannot drive a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Deepest `And`/`Or`/`Not` nesting a decoded constraint may have.
/// Decoding recurses once per level, so without a cap a few kilobytes
/// of nested tags would overflow the decoding thread's stack; past the
/// cap a frame or stored snapshot is [`WireError::Malformed`].
pub const MAX_CONSTRAINT_DEPTH: usize = 64;

/// Everything frame I/O and payload decoding can fail with.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (including EOF mid-frame).
    Io(std::io::Error),
    /// A frame declared a length above the reader's cap; the body was
    /// not read.
    Oversized {
        /// The declared frame length.
        len: usize,
        /// The reader's cap.
        max: usize,
    },
    /// A payload failed to decode.
    Malformed {
        /// Byte offset into the frame body.
        offset: usize,
        /// What the decoder expected there.
        expected: &'static str,
    },
    /// The peer closed the stream cleanly between frames.
    Closed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Malformed { offset, expected } => {
                write!(f, "malformed payload: expected {expected} at byte {offset}")
            }
            WireError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DbError> for WireError {
    /// Payloads decode on `jit-db`'s bounds-checked [`Decoder`], which
    /// fails only with [`DbError::Codec`]: the same offset and
    /// expectation, as a malformed frame.
    fn from(e: DbError) -> Self {
        match e {
            DbError::Codec { offset, expected } => malformed(offset, expected),
            _ => malformed(0, "a decodable payload"),
        }
    }
}

impl From<WireError> for ServeError {
    /// Transport-level failures surface to callers as the typed
    /// [`ServeError::Transport`] variant.
    fn from(e: WireError) -> Self {
        // jit-analyze: allow(no-lossy-float-fmt) — error text for humans; no float payload crosses here
        ServeError::Transport(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Writes one frame (`len` prefix + `body`), then flushes.
///
/// The prefix and body are copied into one buffer and handed to `w` in
/// a single `write_all`, so an unbuffered stream sees one `write` per
/// frame. On a TCP socket, two writes per frame let Nagle's algorithm
/// hold the body back until the peer's delayed ACK of the prefix (~44 ms
/// each way on Linux loopback); on a shard worker's pipe they cost two
/// syscalls.
///
/// # Errors
/// [`WireError::Oversized`] when `body` exceeds `max` (nothing is
/// written), or the underlying I/O error.
pub fn write_frame(
    w: &mut impl Write,
    body: &[u8],
    max: usize,
) -> Result<(), WireError> {
    let len = match u32::try_from(body.len()) {
        Ok(len) if body.len() <= max => len,
        _ => return Err(WireError::Oversized { len: body.len(), max }),
    };
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame body, enforcing the `max` cap before allocating.
///
/// # Errors
/// [`WireError::Closed`] on clean EOF before any length byte,
/// [`WireError::Oversized`] for a declared length above `max` (the body
/// is not consumed), or I/O errors (EOF mid-frame included).
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Err(WireError::Closed),
            0 => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                )))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max {
        return Err(WireError::Oversized { len, max });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

// ---------------------------------------------------------------------
// Domain value codecs (on jit-db's primitives)
// ---------------------------------------------------------------------

/// Capacity preallocated for a decoded collection: a lying count costs
/// at most this many slots up front, and honest larger ones grow.
const PREALLOC: usize = 1024;

fn malformed(offset: usize, expected: &'static str) -> WireError {
    WireError::Malformed { offset, expected }
}

fn encode_f64s(out: &mut Vec<u8>, v: &[f64]) {
    encode_u32(out, v.len() as u32);
    for x in v {
        encode_f64(out, *x);
    }
}

fn decode_f64s(
    d: &mut Decoder<'_>,
    expected: &'static str,
) -> Result<Vec<f64>, WireError> {
    let n = d.u32(expected)? as usize;
    let mut out = Vec::with_capacity(n.min(PREALLOC));
    for _ in 0..n {
        out.push(d.f64(expected)?);
    }
    Ok(out)
}

pub(crate) fn encode_digest(out: &mut Vec<u8>, digest: Digest) {
    let Digest([a, b]) = digest;
    encode_u64(out, a);
    encode_u64(out, b);
}

pub(crate) fn decode_digest(
    d: &mut Decoder<'_>,
    expected: &'static str,
) -> Result<Digest, WireError> {
    Ok(Digest([d.u64(expected)?, d.u64(expected)?]))
}

fn encode_lin(out: &mut Vec<u8>, e: &LinExpr) {
    encode_f64(out, e.constant_part());
    encode_u32(out, e.terms().count() as u32);
    for (var, coef) in e.terms() {
        match var {
            VarRef::Feature(name) => {
                out.push(0);
                encode_str(out, name);
            }
            VarRef::Special(Special::Diff) => out.push(1),
            VarRef::Special(Special::Gap) => out.push(2),
            VarRef::Special(Special::Confidence) => out.push(3),
        }
        encode_f64(out, coef);
    }
}

fn decode_lin(d: &mut Decoder<'_>) -> Result<LinExpr, WireError> {
    let constant = d.f64("linear constant")?;
    let n = d.u32("term count")? as usize;
    let mut terms = Vec::with_capacity(n.min(PREALLOC));
    for _ in 0..n {
        let var = match d.tag(4, "variable tag")? {
            0 => VarRef::Feature(d.str("feature name")?),
            1 => VarRef::Special(Special::Diff),
            2 => VarRef::Special(Special::Gap),
            _ => VarRef::Special(Special::Confidence),
        };
        terms.push((var, d.f64("coefficient")?));
    }
    Ok(LinExpr::from_terms(terms, constant))
}

fn encode_constraint(out: &mut Vec<u8>, c: &Constraint) {
    match c {
        Constraint::True => out.push(0),
        Constraint::Cmp { lhs, op, rhs } => {
            out.push(1);
            out.push(match op {
                CmpOp::Le => 0,
                CmpOp::Lt => 1,
                CmpOp::Ge => 2,
                CmpOp::Gt => 3,
                CmpOp::Eq => 4,
                CmpOp::Ne => 5,
            });
            encode_lin(out, lhs);
            encode_lin(out, rhs);
        }
        Constraint::And(cs) | Constraint::Or(cs) => {
            out.push(if matches!(c, Constraint::And(_)) { 2 } else { 3 });
            encode_u32(out, cs.len() as u32);
            for c in cs {
                encode_constraint(out, c);
            }
        }
        Constraint::Not(inner) => {
            out.push(4);
            encode_constraint(out, inner);
        }
    }
}

/// Decodes one constraint `depth` combinators below the top. Recursion
/// is bounded by [`MAX_CONSTRAINT_DEPTH`], whatever the bytes claim.
fn decode_constraint(
    d: &mut Decoder<'_>,
    depth: usize,
) -> Result<Constraint, WireError> {
    let at = d.offset();
    let tag = d.tag(5, "constraint tag")?;
    if tag >= 2 && depth == MAX_CONSTRAINT_DEPTH {
        return Err(malformed(at, "constraint nesting within MAX_CONSTRAINT_DEPTH"));
    }
    Ok(match tag {
        0 => Constraint::True,
        1 => {
            let op = match d.tag(6, "comparison op")? {
                0 => CmpOp::Le,
                1 => CmpOp::Lt,
                2 => CmpOp::Ge,
                3 => CmpOp::Gt,
                4 => CmpOp::Eq,
                _ => CmpOp::Ne,
            };
            let lhs = decode_lin(d)?;
            let rhs = decode_lin(d)?;
            Constraint::Cmp { lhs, op, rhs }
        }
        2 | 3 => {
            let n = d.u32("constraint count")? as usize;
            let mut cs = Vec::with_capacity(n.min(PREALLOC));
            for _ in 0..n {
                cs.push(decode_constraint(d, depth + 1)?);
            }
            if tag == 2 {
                Constraint::And(cs)
            } else {
                Constraint::Or(cs)
            }
        }
        _ => Constraint::Not(Box::new(decode_constraint(d, depth + 1)?)),
    })
}

/// Whether every constraint in `request` nests within
/// [`MAX_CONSTRAINT_DEPTH`]. Deeper ones encode to bytes no decoder
/// accepts, so the serving tiers refuse them at admission and the store
/// refuses them before writing.
pub(crate) fn nests_within_cap(request: &UserRequest) -> bool {
    fn fits(c: &Constraint, depth: usize) -> bool {
        match c {
            Constraint::True | Constraint::Cmp { .. } => true,
            _ if depth == MAX_CONSTRAINT_DEPTH => false,
            Constraint::And(cs) | Constraint::Or(cs) => {
                cs.iter().all(|c| fits(c, depth + 1))
            }
            Constraint::Not(inner) => fits(inner, depth + 1),
        }
    }
    request.constraints.items().iter().all(|item| fits(&item.constraint, 0))
}

fn encode_spec(out: &mut Vec<u8>, spec: &TemporalSpec) {
    match spec {
        TemporalSpec::Static => out.push(0),
        TemporalSpec::Linear { per_period } => {
            out.push(1);
            encode_f64(out, *per_period);
        }
        TemporalSpec::Compound { rate } => {
            out.push(2);
            encode_f64(out, *rate);
        }
    }
}

fn decode_spec(d: &mut Decoder<'_>) -> Result<TemporalSpec, WireError> {
    Ok(match d.tag(3, "temporal spec tag")? {
        0 => TemporalSpec::Static,
        1 => TemporalSpec::Linear { per_period: d.f64("per-period change")? },
        _ => TemporalSpec::Compound { rate: d.f64("compound rate")? },
    })
}

fn encode_update_fn(out: &mut Vec<u8>, update: Option<&TemporalUpdateFn>) {
    let Some(update) = update else {
        out.push(0);
        return;
    };
    out.push(1);
    encode_u32(out, update.specs().len() as u32);
    for (spec, over) in update.specs().iter().zip(update.overrides()) {
        encode_spec(out, spec);
        match over {
            None => out.push(0),
            Some(Override::Spec(s)) => {
                out.push(1);
                encode_spec(out, s);
            }
            Some(Override::Trajectory(traj)) => {
                out.push(2);
                encode_f64s(out, traj);
            }
        }
    }
}

/// Decodes an optional update function against the serving schema: an
/// update function recorded under another dimension cannot be rebuilt
/// faithfully, so it is malformed here.
fn decode_update_fn(
    d: &mut Decoder<'_>,
    schema: &FeatureSchema,
) -> Result<Option<TemporalUpdateFn>, WireError> {
    if d.tag(2, "update-fn tag")? == 0 {
        return Ok(None);
    }
    let at = d.offset();
    let dim = d.u32("update-fn dimension")? as usize;
    let mut specs = Vec::with_capacity(dim.min(PREALLOC));
    let mut overrides = Vec::with_capacity(dim.min(PREALLOC));
    for _ in 0..dim {
        specs.push(decode_spec(d)?);
        overrides.push(match d.tag(3, "override tag")? {
            0 => None,
            1 => Some(Override::Spec(decode_spec(d)?)),
            _ => Some(Override::Trajectory(decode_f64s(d, "trajectory")?)),
        });
    }
    TemporalUpdateFn::from_parts(schema, specs, overrides)
        .map(Some)
        .ok_or(malformed(at, "schema-dimension update fn"))
}

fn encode_user_request(out: &mut Vec<u8>, request: &UserRequest) {
    encode_f64s(out, &request.profile);
    let items = request.constraints.items();
    encode_u32(out, items.len() as u32);
    for item in items {
        match item.scope {
            TimeScope::AllTimes => out.push(0),
            TimeScope::At(t) => {
                out.push(1);
                encode_usize(out, t);
            }
            TimeScope::Between(lo, hi) => {
                out.push(2);
                encode_usize(out, lo);
                encode_usize(out, hi);
            }
        }
        encode_constraint(out, &item.constraint);
    }
    encode_update_fn(out, request.update_fn.as_ref());
}

fn decode_user_request(
    d: &mut Decoder<'_>,
    schema: &FeatureSchema,
) -> Result<UserRequest, WireError> {
    let profile = decode_f64s(d, "profile")?;
    let n = d.u32("constraint count")? as usize;
    let mut constraints = ConstraintSet::new();
    for _ in 0..n {
        let at = d.offset();
        let scope = match d.tag(3, "constraint scope tag")? {
            0 => TimeScope::AllTimes,
            1 => TimeScope::At(d.usize("scope time")?),
            _ => TimeScope::Between(d.usize("scope lo")?, d.usize("scope hi")?),
        };
        let constraint = decode_constraint(d, 0)?;
        match scope {
            TimeScope::AllTimes => constraints.add(constraint),
            TimeScope::At(t) => constraints.add_at(t, constraint),
            TimeScope::Between(lo, hi) if lo <= hi => {
                constraints.add_between(lo, hi, constraint)
            }
            TimeScope::Between(..) => return Err(malformed(at, "ordered scope range")),
        };
    }
    let update_fn = decode_update_fn(d, schema)?;
    Ok(UserRequest { profile, constraints, update_fn })
}

/// Appends a snapshot's bytes: the one serialized form of a
/// [`SessionSnapshot`], in frames and in [`crate::DbSnapshotStore`]'s
/// blobs. The store versions these bytes, so a change here must bump
/// its format version.
pub(crate) fn encode_snapshot(out: &mut Vec<u8>, snapshot: &SessionSnapshot) {
    encode_user_request(out, &snapshot.request);
    let inputs = snapshot.temporal_inputs();
    encode_u32(out, inputs.len() as u32);
    for row in inputs {
        encode_f64s(out, row);
    }
    let candidates = snapshot.candidates();
    encode_u32(out, candidates.len() as u32);
    for c in candidates {
        encode_usize(out, c.time_index);
        encode_f64s(out, &c.profile);
        encode_f64(out, c.diff);
        encode_usize(out, c.gap);
        encode_f64(out, c.confidence);
    }
    let fingerprints = snapshot.fingerprints();
    encode_u32(out, fingerprints.len() as u32);
    for fp in fingerprints {
        match fp {
            None => out.push(0),
            Some(digest) => {
                out.push(1);
                encode_digest(out, *digest);
            }
        }
    }
}

/// Decodes [`encode_snapshot`] bytes. Every vector must have the
/// schema's dimension and the parts must agree in shape, so damaged
/// bytes never become a snapshot that mis-serves.
pub(crate) fn decode_snapshot(
    d: &mut Decoder<'_>,
    schema: &FeatureSchema,
) -> Result<SessionSnapshot, WireError> {
    let start = d.offset();
    let request = decode_user_request(d, schema)?;
    let n_inputs = d.u32("temporal input count")? as usize;
    let mut temporal_inputs = Vec::with_capacity(n_inputs.min(PREALLOC));
    for _ in 0..n_inputs {
        temporal_inputs.push(decode_f64s(d, "temporal input")?);
    }
    let n_candidates = d.u32("candidate count")? as usize;
    let mut candidates = Vec::with_capacity(n_candidates.min(PREALLOC));
    for _ in 0..n_candidates {
        candidates.push(Candidate {
            time_index: d.usize("candidate time index")?,
            profile: decode_f64s(d, "candidate profile")?,
            diff: d.f64("candidate diff")?,
            gap: d.usize("candidate gap")?,
            confidence: d.f64("candidate confidence")?,
        });
    }
    let n_fps = d.u32("fingerprint count")? as usize;
    let mut fingerprints = Vec::with_capacity(n_fps.min(PREALLOC));
    for _ in 0..n_fps {
        fingerprints.push(match d.tag(2, "fingerprint tag")? {
            0 => None,
            _ => Some(decode_digest(d, "fingerprint digest")?),
        });
    }
    let dim = schema.dim();
    if request.profile.len() != dim
        || temporal_inputs.iter().any(|x| x.len() != dim)
        || candidates.iter().any(|c| c.profile.len() != dim)
    {
        return Err(malformed(start, "schema-dimension snapshot vectors"));
    }
    SessionSnapshot::from_parts(request, temporal_inputs, candidates, fingerprints)
        .ok_or(malformed(start, "internally consistent snapshot shape"))
}

/// Encodes a [`ServeRequest`] body (without frame or message tag).
fn encode_request(out: &mut Vec<u8>, request: &ServeRequest) {
    match request {
        ServeRequest::Batch(ms) => {
            out.push(0);
            encode_u32(out, ms.len() as u32);
            for m in ms {
                encode_str(out, &m.user_id);
                encode_user_request(out, &m.request);
            }
        }
        ServeRequest::Returning(ms) => {
            out.push(1);
            encode_u32(out, ms.len() as u32);
            for m in ms {
                encode_str(out, &m.user_id);
                encode_user_request(out, &m.returning.request);
                encode_snapshot(out, &m.returning.prior);
            }
        }
        ServeRequest::Refresh(ids) => {
            out.push(2);
            encode_u32(out, ids.len() as u32);
            for id in ids {
                encode_str(out, id);
            }
        }
    }
}

/// Decodes a [`ServeRequest`] body.
fn decode_request(
    d: &mut Decoder<'_>,
    schema: &FeatureSchema,
) -> Result<ServeRequest, WireError> {
    Ok(match d.tag(3, "request tag")? {
        0 => {
            let n = d.u32("batch count")? as usize;
            let mut ms = Vec::with_capacity(n.min(PREALLOC));
            for _ in 0..n {
                let user_id = d.str("user id")?;
                let request = decode_user_request(d, schema)?;
                ms.push(CohortMember { user_id, request });
            }
            ServeRequest::Batch(ms)
        }
        1 => {
            let n = d.u32("returning count")? as usize;
            let mut ms = Vec::with_capacity(n.min(PREALLOC));
            for _ in 0..n {
                let user_id = d.str("user id")?;
                let request = decode_user_request(d, schema)?;
                let prior = decode_snapshot(d, schema)?;
                ms.push(ReturningMember {
                    user_id,
                    returning: ReturningUser { request, prior },
                });
            }
            ServeRequest::Returning(ms)
        }
        _ => {
            let n = d.u32("refresh count")? as usize;
            let mut ids = Vec::with_capacity(n.min(PREALLOC));
            for _ in 0..n {
                ids.push(d.str("user id")?);
            }
            ServeRequest::Refresh(ids)
        }
    })
}

/// One served user in a [`WireResponse`]: the owned twin of
/// [`crate::ServedUser`], carrying the session **snapshot** (the
/// system-independent value the store persists) instead of the
/// system-borrowing live session.
#[derive(Clone, Debug)]
pub struct WireServedUser {
    /// The id the session was served under.
    pub user_id: String,
    /// The served session as an owned snapshot.
    pub snapshot: SessionSnapshot,
    /// Per-time-point replay/recompute provenance (`None` for cold
    /// serves, mirroring [`jit_core::UserSession::reserve_report`]).
    pub provenance: Option<Vec<TimePointServe>>,
}

/// The shard-count-independent totals of a [`crate::ServeReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Users served.
    pub users: usize,
    /// Time points replayed from snapshots.
    pub replayed_time_points: usize,
    /// Time points recomputed under drift.
    pub recomputed_time_points: usize,
    /// Time points computed cold.
    pub cold_time_points: usize,
}

/// The owned, wire-encodable serving response.
///
/// Deliberately drops the per-shard report breakdown: totals are
/// shard-count-invariant, so the encoded bytes of a response are
/// identical whether 1, 2 or 4 shards (in-process or OS processes)
/// served it — the determinism bar of the networked tier.
#[derive(Clone, Debug, Default)]
pub struct WireResponse {
    /// One entry per requested user, in request order.
    pub users: Vec<WireServedUser>,
    /// Aggregate totals.
    pub report: WireReport,
}

impl WireResponse {
    /// Snapshots a borrowed [`ServeResponse`] into its owned wire form.
    pub fn from_response(response: &ServeResponse<'_>) -> Self {
        WireResponse {
            users: response
                .users
                .iter()
                .map(|u| WireServedUser {
                    user_id: u.user_id.clone(),
                    snapshot: u.session.snapshot(),
                    provenance: u.session.reserve_report().map(<[_]>::to_vec),
                })
                .collect(),
            report: WireReport::totals(&response.report),
        }
    }
}

impl WireReport {
    /// The totals of `report`.
    pub(crate) fn totals(report: &ServeReport) -> Self {
        WireReport {
            users: report.users,
            replayed_time_points: report.replayed_time_points,
            recomputed_time_points: report.recomputed_time_points,
            cold_time_points: report.cold_time_points,
        }
    }
}

/// Encodes a [`WireResponse`] body.
fn encode_response(out: &mut Vec<u8>, response: &WireResponse) {
    encode_u32(out, response.users.len() as u32);
    for user in &response.users {
        encode_str(out, &user.user_id);
        encode_snapshot(out, &user.snapshot);
        match &user.provenance {
            None => out.push(0),
            Some(report) => {
                out.push(1);
                encode_u32(out, report.len() as u32);
                for served in report {
                    out.push(match served {
                        TimePointServe::Replayed => 0,
                        TimePointServe::Recomputed => 1,
                    });
                }
            }
        }
    }
    encode_usize(out, response.report.users);
    encode_usize(out, response.report.replayed_time_points);
    encode_usize(out, response.report.recomputed_time_points);
    encode_usize(out, response.report.cold_time_points);
}

/// Decodes a [`WireResponse`] body.
fn decode_response(
    d: &mut Decoder<'_>,
    schema: &FeatureSchema,
) -> Result<WireResponse, WireError> {
    let n = d.u32("served user count")? as usize;
    let mut users = Vec::with_capacity(n.min(PREALLOC));
    for _ in 0..n {
        let user_id = d.str("user id")?;
        let snapshot = decode_snapshot(d, schema)?;
        let provenance = match d.tag(2, "provenance tag")? {
            0 => None,
            _ => {
                let n = d.u32("provenance count")? as usize;
                let mut report = Vec::with_capacity(n.min(PREALLOC));
                for _ in 0..n {
                    report.push(match d.tag(2, "provenance entry")? {
                        0 => TimePointServe::Replayed,
                        _ => TimePointServe::Recomputed,
                    });
                }
                Some(report)
            }
        };
        users.push(WireServedUser { user_id, snapshot, provenance });
    }
    let report = WireReport {
        users: d.usize("report users")?,
        replayed_time_points: d.usize("report replayed")?,
        recomputed_time_points: d.usize("report recomputed")?,
        cold_time_points: d.usize("report cold")?,
    };
    Ok(WireResponse { users, report })
}

/// Encodes a [`ServeError`] body. Nested database errors are carried as
/// their rendered message (see the module docs on the lossy mapping).
fn encode_error(out: &mut Vec<u8>, error: &ServeError) {
    match error {
        ServeError::EmptyBatch => out.push(0),
        ServeError::DuplicateUser(id) => {
            out.push(1);
            encode_str(out, id);
        }
        ServeError::UnknownUser(id) => {
            out.push(2);
            encode_str(out, id);
        }
        ServeError::Session { user_id, error } => {
            out.push(3);
            encode_str(out, user_id);
            match error {
                SessionError::DimensionMismatch { expected, found } => {
                    out.push(0);
                    encode_usize(out, *expected);
                    encode_usize(out, *found);
                }
                SessionError::UnknownFeature(name) => {
                    out.push(1);
                    encode_str(out, name);
                }
                SessionError::Db(e) => {
                    out.push(2);
                    // jit-analyze: allow(no-lossy-float-fmt) — documented lossy error mapping: DbError crosses the wire as display text
                    encode_str(out, &e.to_string());
                }
            }
        }
        ServeError::Store { user_id, error } => {
            out.push(4);
            match user_id {
                None => out.push(0),
                Some(id) => {
                    out.push(1);
                    encode_str(out, id);
                }
            }
            match error {
                StoreError::Db(e) => {
                    out.push(0);
                    // jit-analyze: allow(no-lossy-float-fmt) — documented lossy error mapping: DbError crosses the wire as display text
                    encode_str(out, &e.to_string());
                }
                StoreError::SchemaMismatch { expected, found } => {
                    out.push(1);
                    encode_digest(out, *expected);
                    encode_digest(out, *found);
                }
                StoreError::Corrupt { user_id, detail } => {
                    out.push(2);
                    encode_str(out, user_id);
                    encode_str(out, detail);
                }
                StoreError::Unavailable(why) => {
                    out.push(3);
                    encode_str(out, why);
                }
            }
        }
        ServeError::Overloaded { capacity } => {
            out.push(5);
            encode_usize(out, *capacity);
        }
        ServeError::Shard { shard, user_id, detail } => {
            out.push(6);
            encode_usize(out, *shard);
            encode_str(out, user_id);
            encode_str(out, detail);
        }
        ServeError::Transport(detail) => {
            out.push(7);
            encode_str(out, detail);
        }
    }
}

/// Decodes a [`ServeError`] body.
fn decode_error(d: &mut Decoder<'_>) -> Result<ServeError, WireError> {
    Ok(match d.tag(8, "error tag")? {
        0 => ServeError::EmptyBatch,
        1 => ServeError::DuplicateUser(d.str("user id")?),
        2 => ServeError::UnknownUser(d.str("user id")?),
        3 => {
            let user_id = d.str("user id")?;
            let error = match d.tag(3, "session error tag")? {
                0 => SessionError::DimensionMismatch {
                    expected: d.usize("expected dimension")?,
                    found: d.usize("found dimension")?,
                },
                1 => SessionError::UnknownFeature(d.str("feature name")?),
                _ => SessionError::Db(DbError::Eval(d.str("db message")?)),
            };
            ServeError::Session { user_id, error }
        }
        4 => {
            let user_id = match d.tag(2, "store user tag")? {
                0 => None,
                _ => Some(d.str("user id")?),
            };
            let error = match d.tag(4, "store error tag")? {
                0 => StoreError::Db(DbError::Eval(d.str("db message")?)),
                1 => StoreError::SchemaMismatch {
                    expected: decode_digest(d, "expected digest")?,
                    found: decode_digest(d, "found digest")?,
                },
                2 => StoreError::Corrupt {
                    user_id: d.str("corrupt user id")?,
                    detail: d.str("corrupt detail")?,
                },
                _ => StoreError::Unavailable(d.str("unavailable reason")?),
            };
            ServeError::Store { user_id, error }
        }
        5 => ServeError::Overloaded { capacity: d.usize("queue capacity")? },
        6 => ServeError::Shard {
            shard: d.usize("shard index")?,
            user_id: d.str("user id")?,
            detail: d.str("shard detail")?,
        },
        _ => ServeError::Transport(d.str("transport detail")?),
    })
}

// ---------------------------------------------------------------------
// Train-spec codec (supervisor handshake)
// ---------------------------------------------------------------------

fn encode_train_spec(out: &mut Vec<u8>, spec: &TrainSpec) {
    encode_usize(out, spec.data.records_per_year);
    encode_usize(out, spec.data.n_years);
    encode_u64(out, spec.data.seed);
    let c = &spec.config;
    encode_usize(out, c.horizon);
    encode_u32(out, c.start_year);
    encode_u32(out, c.period_years);
    let f = &c.future;
    encode_usize(out, f.horizon);
    out.push(match f.predictor {
        FuturePredictor::Edd => 0,
        FuturePredictor::ParamExtrapolation => 1,
        FuturePredictor::Frozen => 2,
    });
    encode_usize(out, f.n_landmarks);
    encode_f64(out, f.var_lambda);
    encode_f64(out, f.herding.lambda);
    encode_f64(out, f.herding.min_weight_fraction);
    encode_usize(out, f.pool_slices);
    encode_usize(out, f.forest.n_trees);
    encode_usize(out, f.forest.max_depth);
    encode_f64(out, f.forest.min_leaf_weight);
    match f.forest.feature_subsample {
        None => out.push(0),
        Some(k) => {
            out.push(1);
            encode_usize(out, k);
        }
    }
    encode_usize(out, f.forest.threads);
    match f.threshold {
        ThresholdPolicy::MaxF1 => out.push(0),
        ThresholdPolicy::TargetPrecision(p) => {
            out.push(1);
            encode_f64(out, p);
        }
        ThresholdPolicy::Fixed(t) => {
            out.push(2);
            encode_f64(out, t);
        }
    }
    encode_f64(out, f.calibration_fraction);
    encode_u64(out, f.seed);
    encode_usize(out, f.threads);
    let cand = &c.candidates;
    encode_usize(out, cand.beam_width);
    encode_usize(out, cand.max_iters);
    encode_usize(out, cand.top_k);
    encode_f64(out, cand.diversity_lambda);
    out.push(match cand.objective {
        Objective::MinDiff => 0,
        Objective::MinGap => 1,
        Objective::MaxConfidence => 2,
    });
    encode_usize(out, cand.max_moves_per_state);
    encode_usize(out, cand.early_stop_after);
    out.push(u8::from(cand.refine));
    encode_u64(out, cand.seed);
    encode_usize(out, c.threads);
}

fn decode_train_spec(d: &mut Decoder<'_>) -> Result<TrainSpec, WireError> {
    let data = DataSpec {
        records_per_year: d.usize("records per year")?,
        n_years: d.usize("year count")?,
        seed: d.u64("data seed")?,
    };
    let horizon = d.usize("horizon")?;
    let start_year = d.u32("start year")?;
    let period_years = d.u32("period years")?;
    let future = FutureModelsParams {
        horizon: d.usize("future horizon")?,
        predictor: match d.tag(3, "predictor tag")? {
            0 => FuturePredictor::Edd,
            1 => FuturePredictor::ParamExtrapolation,
            _ => FuturePredictor::Frozen,
        },
        n_landmarks: d.usize("landmark count")?,
        var_lambda: d.f64("var lambda")?,
        herding: HerdingParams {
            lambda: d.f64("herding lambda")?,
            min_weight_fraction: d.f64("herding weight floor")?,
        },
        pool_slices: d.usize("pool slices")?,
        forest: RandomForestParams {
            n_trees: d.usize("tree count")?,
            max_depth: d.usize("max depth")?,
            min_leaf_weight: d.f64("min leaf weight")?,
            feature_subsample: match d.tag(2, "subsample tag")? {
                0 => None,
                _ => Some(d.usize("subsample size")?),
            },
            threads: d.usize("forest threads")?,
        },
        threshold: match d.tag(3, "threshold tag")? {
            0 => ThresholdPolicy::MaxF1,
            1 => ThresholdPolicy::TargetPrecision(d.f64("target precision")?),
            _ => ThresholdPolicy::Fixed(d.f64("fixed threshold")?),
        },
        calibration_fraction: d.f64("calibration fraction")?,
        seed: d.u64("future seed")?,
        threads: d.usize("future threads")?,
    };
    let candidates = CandidateParams {
        beam_width: d.usize("beam width")?,
        max_iters: d.usize("max iters")?,
        top_k: d.usize("top k")?,
        diversity_lambda: d.f64("diversity lambda")?,
        objective: match d.tag(3, "objective tag")? {
            0 => Objective::MinDiff,
            1 => Objective::MinGap,
            _ => Objective::MaxConfidence,
        },
        max_moves_per_state: d.usize("max moves")?,
        early_stop_after: d.usize("early stop")?,
        refine: d.tag(2, "refine flag")? == 1,
        seed: d.u64("candidate seed")?,
    };
    let config = AdminConfig {
        horizon,
        start_year,
        period_years,
        future,
        candidates,
        threads: d.usize("threads")?,
    };
    Ok(TrainSpec { data, config })
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Every message the networked tier speaks, over both transports (TCP
/// front end and shard stdin/stdout pipes).
///
/// | tag | message | direction |
/// |---|---|---|
/// | 0 | [`Message::Hello`] | supervisor → shard (handshake) |
/// | 1 | [`Message::Ready`] | shard → supervisor |
/// | 2 | [`Message::Serve`] | caller → server |
/// | 3 | [`Message::Served`] | server → caller |
/// | 4 | [`Message::Failed`] | server → caller |
/// | 5 | [`Message::Ping`] | caller → server |
/// | 6 | [`Message::Pong`] | server → caller |
/// | 7 | [`Message::Shutdown`] | supervisor → shard |
#[derive(Debug)]
pub enum Message {
    /// Handshake: the spec the shard must train (bit-deterministically)
    /// before serving.
    Hello(TrainSpec),
    /// Handshake reply: the digest of the schema the shard trained
    /// under, verified against the supervisor's own.
    Ready {
        /// Content digest of the shard's feature schema.
        schema_digest: Digest,
    },
    /// A serving request; `id` is echoed in the reply.
    Serve {
        /// Caller-chosen correlation id.
        id: u64,
        /// The request.
        request: ServeRequest,
    },
    /// A successful serving reply.
    Served {
        /// Echo of the request's id.
        id: u64,
        /// The response.
        response: WireResponse,
    },
    /// A failed serving reply (or a protocol-level rejection, with the
    /// typed error inside).
    Failed {
        /// Echo of the request's id (0 when the request could not be
        /// read far enough to learn it).
        id: u64,
        /// The typed error.
        error: ServeError,
    },
    /// Liveness probe.
    Ping {
        /// Caller-chosen correlation id.
        id: u64,
    },
    /// Liveness reply.
    Pong {
        /// Echo of the ping's id.
        id: u64,
    },
    /// Orderly shutdown request; the shard exits after reading it.
    Shutdown,
}

/// Encodes a message into a frame body (message tag + payload).
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    match message {
        Message::Hello(spec) => {
            out.push(0);
            encode_train_spec(&mut out, spec);
        }
        Message::Ready { schema_digest } => {
            out.push(1);
            encode_digest(&mut out, *schema_digest);
        }
        Message::Serve { id, request } => {
            out.push(2);
            encode_u64(&mut out, *id);
            encode_request(&mut out, request);
        }
        Message::Served { id, response } => {
            out.push(3);
            encode_u64(&mut out, *id);
            encode_response(&mut out, response);
        }
        Message::Failed { id, error } => {
            out.push(4);
            encode_u64(&mut out, *id);
            encode_error(&mut out, error);
        }
        Message::Ping { id } => {
            out.push(5);
            encode_u64(&mut out, *id);
        }
        Message::Pong { id } => {
            out.push(6);
            encode_u64(&mut out, *id);
        }
        Message::Shutdown => out.push(7),
    }
    out
}

/// Decodes a frame body into a [`Message`]. `schema` is required for
/// request/response payloads ([`Message::Serve`], [`Message::Served`]) —
/// pre-handshake peers pass `None` and can still read handshake and
/// control messages.
///
/// # Errors
/// [`WireError::Malformed`] on any byte-level mismatch, including
/// trailing garbage after a well-formed payload; never panics.
pub fn decode_message(
    body: &[u8],
    schema: Option<&FeatureSchema>,
) -> Result<Message, WireError> {
    let mut d = Decoder::new(body);
    let d = &mut d;
    let need_schema = |d: &Decoder<'_>| {
        schema.ok_or(malformed(d.offset(), "handshake before serve traffic"))
    };
    let message = match d.tag(8, "message tag")? {
        0 => Message::Hello(decode_train_spec(d)?),
        1 => Message::Ready { schema_digest: decode_digest(d, "schema digest")? },
        2 => {
            let id = d.u64("request id")?;
            Message::Serve { id, request: decode_request(d, need_schema(d)?)? }
        }
        3 => {
            let id = d.u64("request id")?;
            Message::Served { id, response: decode_response(d, need_schema(d)?)? }
        }
        4 => Message::Failed { id: d.u64("request id")?, error: decode_error(d)? },
        5 => Message::Ping { id: d.u64("ping id")? },
        6 => Message::Pong { id: d.u64("pong id")? },
        _ => Message::Shutdown,
    };
    if d.remaining() > 0 {
        return Err(malformed(d.offset(), "end of message"));
    }
    Ok(message)
}

/// Convenience: the canonical encoded bytes of a [`WireResponse`] —
/// what the determinism suite compares across serving tiers.
pub fn response_bytes(response: &WireResponse) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response(&mut out, response);
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use jit_constraints::builder::{confidence, constant, diff, feature, gap};
    use jit_data::LendingClubGenerator;

    /// A request carrying every constraint tag, comparison op, variable,
    /// scope, temporal spec and override kind, with floats a lossy codec
    /// would damage: a NaN payload, `-0.0`, subnormals, `0.1 + 0.2`.
    pub(crate) fn every_kind_request(schema: &FeatureSchema) -> UserRequest {
        let mut request = UserRequest::new(LendingClubGenerator::john());
        request
            .constraints
            .add(Constraint::True)
            .add(feature("income").le(80_000.0))
            .add_at(1, gap().lt(3.0))
            .add_between(0, 2, diff().ge(-0.0))
            .add(confidence().gt(0.75))
            .add(feature("debt").eq(0.1 + 0.2))
            .add(feature("income").ne(constant(f64::MIN_POSITIVE / 2.0)))
            .add(
                feature("income")
                    .le(80_000.0)
                    .and(gap().le(2.0).or(diff().le(1500.0)))
                    .and(Constraint::Not(Box::new(feature("debt").eq(0.1 + 0.2)))),
            )
            .add(Constraint::Cmp {
                lhs: LinExpr::feature("income")
                    .plus(LinExpr::feature("debt").times(-0.25))
                    .offset(1e-300),
                op: CmpOp::Le,
                rhs: LinExpr::constant(5e-324),
            });
        let mut update = TemporalUpdateFn::from_schema(schema);
        update
            .override_feature(
                "debt",
                Override::Trajectory(vec![
                    1_500.0,
                    -0.0,
                    f64::from_bits(0x7ff8_0000_dead_beef),
                ]),
            )
            .override_feature("income", Override::Spec(TemporalSpec::Static))
            .override_feature(
                "age",
                Override::Spec(TemporalSpec::Linear { per_period: 0.5 }),
            )
            .override_feature(
                "loan_amount",
                Override::Spec(TemporalSpec::Compound { rate: 1e-3 }),
            );
        request.update_fn = Some(update);
        request
    }

    fn bits(v: Vec<f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn frame_round_trip_and_caps() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", 64).unwrap();
        write_frame(&mut buf, b"", 64).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"");
        assert!(matches!(read_frame(&mut r, 64), Err(WireError::Closed)));
        // Write-side cap.
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &[0u8; 100], 64),
            Err(WireError::Oversized { len: 100, max: 64 })
        ));
        assert!(sink.is_empty(), "nothing written for an oversized frame");
        // Read-side cap: the body must not be consumed.
        let mut oversized = Vec::new();
        write_frame(&mut oversized, &[7u8; 32], 64).unwrap();
        let mut r = &oversized[..];
        assert!(matches!(
            read_frame(&mut r, 16),
            Err(WireError::Oversized { len: 32, max: 16 })
        ));
        // Truncated mid-frame: I/O error, not a panic or a hang.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"full frame", 64).unwrap();
        truncated.truncate(7);
        let mut r = &truncated[..];
        assert!(matches!(read_frame(&mut r, 64), Err(WireError::Io(_))));
        // Truncated inside the length prefix itself.
        let mut r = &[1u8, 0][..];
        assert!(matches!(read_frame(&mut r, 64), Err(WireError::Io(_))));
        // One `write` per frame: a socket (Nagle) or an unbuffered pipe
        // must never see the prefix and the body as separate writes.
        #[derive(Default)]
        struct CountingWriter {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for CountingWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut counted = CountingWriter::default();
        write_frame(&mut counted, b"hello", 64).unwrap();
        assert_eq!(counted.writes, 1, "a frame must go out in one write");
        write_frame(&mut counted, b"", 64).unwrap();
        assert_eq!(counted.writes, 2, "an empty frame is one write too");
        assert_eq!(counted.bytes, buf, "same bytes as the buffered frames");
    }

    #[test]
    fn control_messages_round_trip_without_schema() {
        for message in [
            Message::Ping { id: 7 },
            Message::Pong { id: u64::MAX },
            Message::Shutdown,
            Message::Ready { schema_digest: Digest([1, 2]) },
            Message::Failed { id: 3, error: ServeError::Overloaded { capacity: 4 } },
        ] {
            let body = encode_message(&message);
            let back = decode_message(&body, None).unwrap();
            assert_eq!(encode_message(&back), body);
        }
    }

    #[test]
    fn train_spec_round_trips_bit_exactly() {
        let spec = TrainSpec {
            data: DataSpec { records_per_year: 77, n_years: 5, seed: 0xdead },
            config: AdminConfig {
                horizon: 3,
                future: FutureModelsParams {
                    predictor: FuturePredictor::ParamExtrapolation,
                    threshold: ThresholdPolicy::TargetPrecision(0.75),
                    forest: RandomForestParams {
                        feature_subsample: Some(3),
                        ..Default::default()
                    },
                    ..Default::default()
                },
                threads: 3,
                ..Default::default()
            },
        };
        let body = encode_message(&Message::Hello(spec));
        let back = decode_message(&body, None).unwrap();
        assert_eq!(encode_message(&back), body);
    }

    #[test]
    fn truncated_and_corrupt_bodies_are_typed_errors() {
        let body = encode_message(&Message::Ping { id: 42 });
        for cut in 0..body.len() {
            let err = decode_message(&body[..cut], None).unwrap_err();
            assert!(matches!(err, WireError::Malformed { .. }), "cut={cut}");
        }
        // Unknown message tag.
        assert!(matches!(
            decode_message(&[250], None),
            Err(WireError::Malformed { offset: 0, expected: "message tag" })
        ));
        // Trailing garbage after a valid message.
        let mut long = body.clone();
        long.push(9);
        assert!(matches!(
            decode_message(&long, None),
            Err(WireError::Malformed { expected: "end of message", .. })
        ));
    }

    #[test]
    fn constraints_and_update_fns_round_trip_every_variant_bit_exactly() {
        let schema = FeatureSchema::lending_club();
        let request = every_kind_request(&schema);
        let body = encode_message(&Message::Serve {
            id: 9,
            request: ServeRequest::new_user("u", request.clone()),
        });
        let Ok(Message::Serve { request: ServeRequest::Batch(mut members), .. }) =
            decode_message(&body, Some(&schema))
        else {
            panic!("a new-user serve decodes");
        };
        let back = members.remove(0);
        // The decoded request has the same structure, independently of
        // the encoder (a decoder swapping two op tags fails here) ...
        let (sent, got) =
            (request.constraints.items(), back.request.constraints.items());
        assert_eq!(sent.len(), got.len());
        for (a, b) in sent.iter().zip(got) {
            assert_eq!(a.scope, b.scope);
            assert_eq!(a.constraint.to_string(), b.constraint.to_string());
        }
        for t in 0..4 {
            let digest = |r: &UserRequest| {
                r.constraints.compile_at(t, &schema).unwrap().content_digest()
            };
            assert_eq!(digest(&request), digest(&back.request), "t={t}");
        }
        // ... projects bit-identically ...
        let (a, b) = (request.update_fn.as_ref(), back.request.update_fn.as_ref());
        let (a, b) = (a.unwrap(), b.expect("the update fn survives"));
        for t in 0..4 {
            assert_eq!(
                bits(a.project(&request.profile, t)),
                bits(b.project(&request.profile, t))
            );
        }
        // ... and re-encodes to the same bytes, every float bit included.
        let again = encode_message(&Message::Serve {
            id: 9,
            request: ServeRequest::Batch(vec![back]),
        });
        assert_eq!(again, body);
    }

    /// Decodes `bytes` as one constraint, demanding they are all used.
    fn constraint_from(bytes: &[u8]) -> Result<Constraint, WireError> {
        let mut d = Decoder::new(bytes);
        let c = decode_constraint(&mut d, 0)?;
        match d.remaining() {
            0 => Ok(c),
            _ => Err(malformed(d.offset(), "end of constraint")),
        }
    }

    #[test]
    fn constraint_decoding_rejects_bad_tags_and_truncation() {
        let mut valid = Vec::new();
        encode_constraint(
            &mut valid,
            &feature("income").le(1.0).or(confidence().gt(0.5)),
        );
        assert!(constraint_from(&valid).is_ok());
        for cut in 0..valid.len() {
            let err = constraint_from(&valid[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Malformed { .. }), "cut={cut}");
        }
        // One past the last valid tag of each kind: constraint, op and
        // variable.
        let bad_constraint = [5];
        let bad_op = [1, 6];
        let mut bad_variable = vec![1, 0];
        encode_f64(&mut bad_variable, 0.0);
        encode_u32(&mut bad_variable, 1);
        bad_variable.push(4);
        for (bytes, expected) in [
            (&bad_constraint[..], "constraint tag"),
            (&bad_op[..], "comparison op"),
            (&bad_variable[..], "variable tag"),
        ] {
            let err = constraint_from(bytes).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed { expected: e, .. } if e == expected),
                "{err}"
            );
        }
    }

    #[test]
    fn update_fn_decoding_rejects_wrong_dimension_and_bad_tags() {
        let schema = FeatureSchema::lending_club();
        let decode = |bytes: &[u8]| decode_update_fn(&mut Decoder::new(bytes), &schema);
        assert!(decode(&[0]).unwrap().is_none());
        // An update fn built for another schema dimension.
        let narrow = FeatureSchema::new(schema.features()[..2].to_vec());
        let mut bytes = Vec::new();
        encode_update_fn(&mut bytes, Some(&TemporalUpdateFn::from_schema(&narrow)));
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Malformed { expected: "schema-dimension update fn", .. }
            ),
            "{err}"
        );
        // The same through a whole frame.
        let mut request = UserRequest::new(LendingClubGenerator::john());
        request.update_fn = Some(TemporalUpdateFn::from_schema(&narrow));
        let body = encode_message(&Message::Serve {
            id: 1,
            request: ServeRequest::new_user("u", request),
        });
        let err = decode_message(&body, Some(&schema)).unwrap_err();
        assert!(matches!(err, WireError::Malformed { .. }), "{err}");
        // Bad tags: update fn, temporal spec, override.
        let mut valid = Vec::new();
        encode_update_fn(&mut valid, every_kind_request(&schema).update_fn.as_ref());
        assert!(decode(&valid).is_ok());
        let bad_spec = [1, 1, 0, 0, 0, 3];
        let bad_override = [1, 1, 0, 0, 0, 0, 3];
        for (bytes, expected) in [
            (&[2][..], "update-fn tag"),
            (&bad_spec[..], "temporal spec tag"),
            (&bad_override[..], "override tag"),
        ] {
            let err = decode(bytes).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed { expected: e, .. } if e == expected),
                "{err}"
            );
        }
        for cut in 0..valid.len() {
            assert!(decode(&valid[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn nesting_check_agrees_with_the_decoder_cap() {
        let nested = |depth: usize| {
            let mut c = feature("income").le(1.0);
            for level in 0..depth {
                c = match level % 3 {
                    0 => Constraint::Not(Box::new(c)),
                    1 => Constraint::And(vec![Constraint::True, c]),
                    _ => Constraint::Or(vec![c]),
                };
            }
            let mut request = UserRequest::new(LendingClubGenerator::john());
            request.constraints.add(Constraint::True).add_at(1, c);
            request
        };
        for depth in [
            0,
            1,
            MAX_CONSTRAINT_DEPTH - 1,
            MAX_CONSTRAINT_DEPTH,
            MAX_CONSTRAINT_DEPTH + 1,
        ] {
            let request = nested(depth);
            let mut bytes = Vec::new();
            encode_user_request(&mut bytes, &request);
            let decoded = decode_user_request(
                &mut Decoder::new(&bytes),
                &FeatureSchema::lending_club(),
            );
            assert_eq!(nests_within_cap(&request), decoded.is_ok(), "depth={depth}");
            assert_eq!(nests_within_cap(&request), depth <= MAX_CONSTRAINT_DEPTH);
        }
    }
}
