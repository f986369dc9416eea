//! The typed request/response surface of the serving service.

// Serve path: panics are denied outright here (tests and the few
// fn-level reasoned allows excepted) — every failure must surface as a
// typed error.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::store::StoreError;
use jit_core::{ReturningUser, SessionError, UserRequest, UserSession};
use std::fmt;

/// One identified user in a serving cohort.
#[derive(Clone, Debug)]
pub struct CohortMember {
    /// Stable user identity; snapshots are stored and refreshed under it.
    pub user_id: String,
    /// The serving request (profile, preferences, update-fn override).
    pub request: UserRequest,
}

impl CohortMember {
    /// Convenience constructor.
    pub fn new(user_id: impl Into<String>, request: UserRequest) -> Self {
        CohortMember { user_id: user_id.into(), request }
    }
}

/// One identified returning user, with their prior snapshot inline.
#[derive(Clone, Debug)]
pub struct ReturningMember {
    /// Stable user identity.
    pub user_id: String,
    /// The request to serve now plus the stored prior session.
    pub returning: ReturningUser,
}

impl ReturningMember {
    /// Convenience constructor.
    pub fn new(user_id: impl Into<String>, returning: ReturningUser) -> Self {
        ReturningMember { user_id: user_id.into(), returning }
    }
}

/// A serving request — the one entry point of the service tier.
///
/// All variants are all-or-nothing and respond in request order; see the
/// crate docs for the full contract.
#[derive(Clone, Debug)]
pub enum ServeRequest {
    /// Serve a cohort of first-visit users through the amortized batch
    /// layer (one new user is a one-member batch). Must be non-empty.
    Batch(Vec<CohortMember>),
    /// Re-serve returning users whose snapshots the caller holds.
    /// Must be non-empty.
    Returning(Vec<ReturningMember>),
    /// Re-serve returning users **by id**: snapshots are loaded from the
    /// service's [`crate::SnapshotStore`] and refreshed against the
    /// current system. Must be non-empty; unknown ids fail with
    /// [`ServeError::UnknownUser`].
    Refresh(Vec<String>),
}

impl ServeRequest {
    /// A one-member [`ServeRequest::Batch`]: one first-visit user.
    pub fn new_user(user_id: impl Into<String>, request: UserRequest) -> Self {
        ServeRequest::Batch(vec![CohortMember::new(user_id, request)])
    }

    /// A [`ServeRequest::Batch`] from parts.
    pub fn batch(members: impl IntoIterator<Item = CohortMember>) -> Self {
        ServeRequest::Batch(members.into_iter().collect())
    }

    /// A [`ServeRequest::Returning`] from parts.
    pub fn returning(members: impl IntoIterator<Item = ReturningMember>) -> Self {
        ServeRequest::Returning(members.into_iter().collect())
    }

    /// A [`ServeRequest::Refresh`] from ids.
    pub fn refresh<I: Into<String>>(ids: impl IntoIterator<Item = I>) -> Self {
        ServeRequest::Refresh(ids.into_iter().map(Into::into).collect())
    }

    /// The user ids in request order.
    pub fn user_ids(&self) -> Vec<&str> {
        match self {
            ServeRequest::Batch(ms) => ms.iter().map(|m| m.user_id.as_str()).collect(),
            ServeRequest::Returning(ms) => {
                ms.iter().map(|m| m.user_id.as_str()).collect()
            }
            ServeRequest::Refresh(ids) => ids.iter().map(String::as_str).collect(),
        }
    }

    /// Number of users addressed by the request.
    pub fn len(&self) -> usize {
        match self {
            ServeRequest::Batch(ms) => ms.len(),
            ServeRequest::Returning(ms) => ms.len(),
            ServeRequest::Refresh(ids) => ids.len(),
        }
    }

    /// `true` when the request addresses no users.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One served user in a [`ServeResponse`].
#[derive(Debug)]
pub struct ServedUser<'a> {
    /// The id the session was served (and its snapshot stored) under.
    pub user_id: String,
    /// The served session: candidates, queryable database, provenance.
    pub session: UserSession<'a>,
}

/// Aggregate provenance for one shard's slice of a request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index the users were routed to (always 0 for an unsharded
    /// [`crate::JitService`]).
    pub shard: usize,
    /// Users served by this shard.
    pub users: usize,
    /// Time points replayed from snapshots (fingerprint hit).
    pub replayed_time_points: usize,
    /// Time points recomputed because drift (or a preference change)
    /// invalidated their fingerprint.
    pub recomputed_time_points: usize,
    /// Time points computed cold (first-visit users carry no snapshot).
    pub cold_time_points: usize,
}

/// Aggregate serving report for one [`ServeResponse`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Users served.
    pub users: usize,
    /// Sum of replayed time points across users.
    pub replayed_time_points: usize,
    /// Sum of recomputed time points across users.
    pub recomputed_time_points: usize,
    /// Sum of cold-computed time points across users.
    pub cold_time_points: usize,
    /// Per-shard breakdown, in shard order (single entry for an
    /// unsharded service; only shards that served users appear).
    pub shards: Vec<ShardReport>,
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} users ({} replayed / {} recomputed / {} cold time points, \
             {} shard{})",
            self.users,
            self.replayed_time_points,
            self.recomputed_time_points,
            self.cold_time_points,
            self.shards.len(),
            if self.shards.len() == 1 { "" } else { "s" },
        )
    }
}

/// A serving response: sessions **in request order** plus the aggregate
/// report.
#[derive(Debug)]
pub struct ServeResponse<'a> {
    /// One entry per requested user, in request order.
    pub users: Vec<ServedUser<'a>>,
    /// Aggregate provenance.
    pub report: ServeReport,
}

impl<'a> ServeResponse<'a> {
    /// The session served for `user_id`, if present.
    pub fn session_for(&self, user_id: &str) -> Option<&UserSession<'a>> {
        self.users.iter().find(|u| u.user_id == user_id).map(|u| &u.session)
    }
}

/// Everything that can go wrong serving a [`ServeRequest`] — the typed
/// replacement for the ad-hoc per-method errors of the legacy entry
/// points.
#[derive(Debug)]
pub enum ServeError {
    /// A batch variant addressed zero users.
    EmptyBatch,
    /// The same user id appeared twice in one request (snapshot-store
    /// writes would be order-dependent).
    DuplicateUser(String),
    /// A [`ServeRequest::Refresh`] id has no stored snapshot.
    UnknownUser(String),
    /// A per-user serving failure (dimension mismatch, unknown feature
    /// in preferences, database population), tagged with the user.
    Session {
        /// The failing user.
        user_id: String,
        /// The underlying session error.
        error: SessionError,
    },
    /// The snapshot store failed (I/O-level failure, corrupt rows, or a
    /// snapshot recorded under a different feature schema). When the
    /// failure happened while loading or saving a specific user's
    /// snapshot, `user_id` names that user — so a store dying *mid-batch*
    /// is attributed to the first request entry it failed on, exactly
    /// like a per-user [`ServeError::Session`] failure.
    Store {
        /// The user whose load/save failed, when attributable.
        user_id: Option<String>,
        /// The underlying store error.
        error: StoreError,
    },
    /// The serving tier's admission queue was full: the request was shed
    /// instead of queued. Load shedding is typed and immediate — an
    /// overloaded server answers `Overloaded`, it never hangs the caller.
    Overloaded {
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// A shard worker process failed mid-request (crashed, was killed, or
    /// its pipe closed). The supervisor marks the shard dead and respawns
    /// it on next use; the in-flight request fails with this error,
    /// attributed to the earliest affected user in request order.
    Shard {
        /// Index of the failed shard.
        shard: usize,
        /// The earliest affected user, in request order.
        user_id: String,
        /// What the supervisor observed (broken pipe, early EOF, ...).
        detail: String,
    },
    /// The transport layer failed: connection I/O errors, malformed,
    /// truncated or oversized frames. Protocol failures are typed, never
    /// panics — a desynchronized connection is closed after reporting.
    /// Every tier also refuses, with this variant, a request whose
    /// constraints nest past [`crate::wire::MAX_CONSTRAINT_DEPTH`]: no
    /// frame or stored snapshot could carry it.
    Transport(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::EmptyBatch => write!(f, "request addresses no users"),
            ServeError::DuplicateUser(id) => {
                write!(f, "user {id:?} appears more than once in the request")
            }
            ServeError::UnknownUser(id) => {
                write!(f, "no stored snapshot for user {id:?}")
            }
            ServeError::Session { user_id, error } => {
                write!(f, "serving user {user_id:?} failed: {error}")
            }
            ServeError::Store { user_id: Some(id), error } => {
                write!(f, "snapshot store failure for user {id:?}: {error}")
            }
            ServeError::Store { user_id: None, error } => {
                write!(f, "snapshot store failure: {error}")
            }
            ServeError::Overloaded { capacity } => {
                write!(f, "admission queue full ({capacity} pending): request shed")
            }
            ServeError::Shard { shard, user_id, detail } => {
                write!(f, "shard {shard} failed serving user {user_id:?}: {detail}")
            }
            ServeError::Transport(detail) => {
                write!(f, "transport failure: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Session { error, .. } => Some(error),
            ServeError::Store { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<StoreError> for ServeError {
    fn from(error: StoreError) -> Self {
        ServeError::Store { user_id: None, error }
    }
}
