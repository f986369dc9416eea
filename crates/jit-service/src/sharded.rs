//! The shard router and the in-process sharded tier.
//!
//! Both sharded tiers serve through one crate-private router:
//! [`ShardedService`] here, over in-process [`JitService`] shards that
//! share one trained system, and [`crate::ProcessShardBackend`], over
//! `jit-shardd` worker processes. How a request is split, which failure
//! wins, how replies come back and when snapshots are loaded and saved
//! is therefore decided once, in four steps:
//!
//! 1. **Route.** The request is checked (non-empty, unique ids,
//!    constraints within the wire's nesting cap) and split into one
//!    sub-request per shard holding users, each in request order. Users
//!    are placed by consistent jump hashing of their id
//!    ([`shard_index`]), so a user's snapshot lands on the same shard in
//!    every tier.
//! 2. **Compute.** Every such shard runs the tier's shard step
//!    concurrently: a `Refresh` sub-request is resolved from that
//!    shard's store, then its users are served — on the `jit-runtime`
//!    pool, or by the shard's worker process. The step saves nothing.
//! 3. **Gather.** When shards fail, the error of the failing user
//!    earliest in request order wins — the error an unsharded
//!    [`JitService`] reports. Otherwise the replies are reassembled in
//!    request order; a reply missing a user is a
//!    [`ServeError::Transport`].
//! 4. **Save.** Only then are the snapshots saved, in request order,
//!    into each user's shard store, each save retried over transient
//!    store errors. The report is one fold over the served users'
//!    provenance, keyed by shard.
//!
//! [`JitService::serve`] is steps 2 and 4 over its one store. Every tier
//! is thus all-or-nothing — a failed request stores nothing, except that
//! a store dying mid-save keeps the users saved before it — and serves
//! bit-identical responses for any shard count (`tests/determinism.rs`).

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::api::{
    ReturningMember, ServeError, ServeReport, ServeRequest, ServeResponse, ServedUser,
    ShardReport,
};
use crate::service::{check_request, JitService};
use crate::store::{retry_transient, SnapshotStore};
use crate::wire::WireServedUser;
use jit_core::{JustInTime, ReturningUser, SessionSnapshot, TimePointServe};
use jit_runtime::Runtime;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Consistent jump hash (Lamping & Veach): maps `key` to a bucket in
/// `0..buckets` such that growing the bucket count relocates only
/// ~`1/buckets` of the keys. Deterministic across processes.
fn jump_consistent_hash(mut key: u64, buckets: usize) -> usize {
    debug_assert!(buckets >= 1);
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < buckets as i64 {
        b = j;
        key = key.wrapping_mul(2862933555777941757).wrapping_add(1);
        j = ((b.wrapping_add(1) as f64) * ((1u64 << 31) as f64)
            / (((key >> 33).wrapping_add(1)) as f64)) as i64;
    }
    b as usize
}

/// Stable 64-bit key for a user id (domain-separated digest, identical
/// across processes and runs).
fn user_key(user_id: &str) -> u64 {
    let mut w = jit_math::DigestWriter::new("jit-service/shard-placement");
    w.write_str(user_id);
    w.finish().0[0]
}

/// The shard `user_id` is routed to among `n_shards` — the one placement
/// function of the serving tier, shared by the in-process dispatcher and
/// the OS-process backend (`crate::supervisor`) so a user's snapshot
/// lands on the same shard no matter which tier serves them.
///
/// # Panics
/// Panics when `n_shards == 0`.
pub fn shard_index(user_id: &str, n_shards: usize) -> usize {
    // jit-analyze: allow(no-panic-paths) — documented `# Panics` contract: a zero-shard topology is a construction bug, not input
    assert!(n_shards >= 1, "routing needs at least one shard");
    jump_consistent_hash(user_key(user_id), n_shards)
}

/// A cohort dispatcher over `N` shard workers (see the module docs).
pub struct ShardedService {
    shards: Vec<JitService>,
    dispatch: Runtime,
}

impl fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedService {
    /// Builds `n_shards` workers sharing `system`, each owning the store
    /// `store_for(shard)` returns. `dispatch_threads` controls the shard
    /// fan-out (`0` = one per core, `1` = serial); output is identical
    /// for every value.
    ///
    /// # Panics
    /// Panics when `n_shards == 0` (a dispatcher with no workers is a
    /// construction bug, not a runtime condition).
    pub fn new(
        system: JustInTime,
        n_shards: usize,
        dispatch_threads: usize,
        store_for: impl FnMut(usize) -> Arc<dyn SnapshotStore>,
    ) -> Self {
        Self::from_shared(Arc::new(system), n_shards, dispatch_threads, store_for)
    }

    /// [`ShardedService::new`] over an already-shared system (e.g. when a
    /// standalone [`JitService`] and a sharded tier front one training).
    ///
    /// # Panics
    /// Panics when `n_shards == 0`.
    pub fn from_shared(
        system: Arc<JustInTime>,
        n_shards: usize,
        dispatch_threads: usize,
        mut store_for: impl FnMut(usize) -> Arc<dyn SnapshotStore>,
    ) -> Self {
        // jit-analyze: allow(no-panic-paths) — documented `# Panics` contract: misconfiguration at construction time, not serve-path input
        assert!(n_shards >= 1, "a sharded service needs at least one shard");
        let shards = (0..n_shards)
            .map(|s| JitService::with_shared(Arc::clone(&system), store_for(s)))
            .collect();
        ShardedService { shards, dispatch: Runtime::new(dispatch_threads) }
    }

    /// Builds the next-generation sharded service after a retrain:
    /// every shard keeps its snapshot store **and** its cell cache from
    /// `prior`, switching only the trained system. Cache slots whose
    /// model fingerprints did not survive into `system` are dropped per
    /// shard (see [`JitService::with_cell_cache`]); slots for pinned or
    /// undrifted models stay warm, so returning users on surviving
    /// models reuse cells computed before the retrain.
    ///
    /// # Panics
    /// Panics when `prior` has zero shards (impossible for a constructed
    /// [`ShardedService`]).
    pub fn next_generation(
        system: Arc<JustInTime>,
        dispatch_threads: usize,
        prior: &ShardedService,
    ) -> Self {
        // jit-analyze: allow(no-panic-paths) — documented `# Panics` contract: `prior` already upheld the ≥1-shard invariant
        assert!(prior.shard_count() >= 1, "a sharded service needs at least one shard");
        let shards = prior
            .shards
            .iter()
            .map(|shard| {
                JitService::with_cell_cache(
                    Arc::clone(&system),
                    Arc::clone(shard.store_arc()),
                    Arc::clone(shard.cell_cache()),
                )
            })
            .collect();
        ShardedService { shards, dispatch: Runtime::new(dispatch_threads) }
    }

    /// Number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard workers, in shard order (expert access; per-shard
    /// stores are reachable as `shards()[s].store()`).
    pub fn shards(&self) -> &[JitService] {
        &self.shards
    }

    /// The shared trained system.
    pub fn system(&self) -> &JustInTime {
        // jit-analyze: allow(no-panic-paths) — construction asserts ≥1 shard, so index 0 always exists
        self.shards[0].system()
    }

    /// The shard `user_id` is (always) routed to.
    pub fn shard_of(&self, user_id: &str) -> usize {
        shard_index(user_id, self.shards.len())
    }

    /// Serves one request across the shards — same contract as
    /// [`JitService::serve`], same output bit-for-bit, any shard count.
    ///
    /// # Errors
    /// The typed [`ServeError`]; with several failing shards, the error
    /// of the user earliest in request order wins (matching what an
    /// unsharded service would report).
    pub fn serve(
        &self,
        request: ServeRequest,
    ) -> Result<ServeResponse<'_>, ServeError> {
        let (users, report) = serve_sharded(
            request,
            self.shards.len(),
            |shard| self.shards[shard].store(),
            |n, task| self.dispatch.parallel_map(n, task),
            |shard, sub| self.shards[shard].compute(sub),
        )?;
        Ok(ServeResponse { users, report })
    }
}

/// One served user, as the router's save and report steps see it.
pub(crate) trait Served {
    /// The id the user was served under.
    fn user_id(&self) -> &str;
    /// The snapshot to store under [`Served::user_id`].
    fn snapshot(&self) -> Cow<'_, SessionSnapshot>;
    /// How each time point was served; `None` for a cold serve.
    fn provenance(&self) -> Option<&[TimePointServe]>;
    /// The number of time points served.
    fn time_points(&self) -> usize;
}

impl Served for ServedUser<'_> {
    fn user_id(&self) -> &str {
        &self.user_id
    }

    fn snapshot(&self) -> Cow<'_, SessionSnapshot> {
        Cow::Owned(self.session.snapshot())
    }

    fn provenance(&self) -> Option<&[TimePointServe]> {
        self.session.reserve_report()
    }

    fn time_points(&self) -> usize {
        self.session.temporal_inputs().len()
    }
}

impl Served for WireServedUser {
    fn user_id(&self) -> &str {
        &self.user_id
    }

    fn snapshot(&self) -> Cow<'_, SessionSnapshot> {
        Cow::Borrowed(&self.snapshot)
    }

    fn provenance(&self) -> Option<&[TimePointServe]> {
        self.provenance.as_deref()
    }

    fn time_points(&self) -> usize {
        self.snapshot.temporal_inputs().len()
    }
}

/// One shard's outcome: its users in sub-request order, or its error.
type ShardReply<U> = Result<Vec<U>, ServeError>;

/// Serves `request` over `n_shards` shards, steps 1 to 4 of the module
/// docs. `fan_out(n, task)` runs `task` on `0..n` concurrently and
/// returns the results in task order; `shard_step(shard, sub)` is the
/// tier's compute step; `store_of(shard)` is the shard's store.
pub(crate) fn serve_sharded<'s, U: Served>(
    request: ServeRequest,
    n_shards: usize,
    store_of: impl Fn(usize) -> &'s dyn SnapshotStore,
    fan_out: impl FnOnce(
        usize,
        &(dyn Fn(usize) -> ShardReply<U> + Sync),
    ) -> Vec<ShardReply<U>>,
    shard_step: impl Fn(usize, ServeRequest) -> ShardReply<U> + Sync,
) -> Result<(Vec<U>, ServeReport), ServeError> {
    let route = Route::new(request, n_shards)?;
    let replies = fan_out(route.subs.len(), &|i| {
        let (shard, sub) = &route.subs[i];
        // Each sub-request moves into its shard step: snapshots in a
        // `Returning` cohort can be large, so they are never copied.
        let sub = sub.lock().take().ok_or_else(|| {
            ServeError::Transport(format!("shard {shard}'s sub-request ran twice"))
        })?;
        shard_step(*shard, sub)
    });
    finish(route.gather(replies)?, store_of)
}

/// A request split across shards (step 1).
struct Route {
    /// User ids in request order.
    ids: Vec<String>,
    /// Per shard, the request positions of its users, ascending.
    positions: Vec<Vec<usize>>,
    /// Every shard holding users, in shard order, with its sub-request
    /// until the shard step takes it.
    subs: Vec<(usize, Mutex<Option<ServeRequest>>)>,
}

impl Route {
    fn new(request: ServeRequest, n_shards: usize) -> Result<Self, ServeError> {
        check_request(&request)?;
        let ids: Vec<String> =
            request.user_ids().into_iter().map(str::to_string).collect();
        let shard_of: Vec<usize> =
            ids.iter().map(|id| shard_index(id, n_shards)).collect();
        let mut positions = vec![Vec::new(); n_shards];
        for (position, &shard) in shard_of.iter().enumerate() {
            positions[shard].push(position);
        }
        let subs = match request {
            ServeRequest::Batch(members) => {
                split(members, &shard_of, n_shards, ServeRequest::Batch)
            }
            ServeRequest::Returning(members) => {
                split(members, &shard_of, n_shards, ServeRequest::Returning)
            }
            ServeRequest::Refresh(ids) => {
                split(ids, &shard_of, n_shards, ServeRequest::Refresh)
            }
        };
        Ok(Route { ids, positions, subs })
    }

    /// Step 3: the earliest failing user's error, or every shard's users
    /// back in request order, each with its shard.
    fn gather<U: Served>(
        self,
        replies: Vec<ShardReply<U>>,
    ) -> Result<Vec<(usize, U)>, ServeError> {
        let mut first_error: Option<(usize, ServeError)> = None;
        let mut slots: Vec<Option<(usize, U)>> =
            self.ids.iter().map(|_| None).collect();
        for ((shard, _), reply) in self.subs.iter().zip(replies) {
            let positions = &self.positions[*shard];
            match reply {
                Ok(users) => {
                    for (user, &position) in users.into_iter().zip(positions) {
                        if user.user_id() == self.ids[position] {
                            slots[position] = Some((*shard, user));
                        }
                    }
                }
                Err(error) => {
                    let position = error_position(&error, &self.ids, positions);
                    if first_error.as_ref().is_none_or(|(p, _)| position < *p) {
                        first_error = Some((position, error));
                    }
                }
            }
        }
        if let Some((_, error)) = first_error {
            return Err(error);
        }
        // A shard worker is another process: a reply that drops or
        // renames a user is a protocol violation to report, not an
        // invariant to assert.
        slots
            .into_iter()
            .zip(&self.ids)
            .map(|(slot, id)| {
                slot.ok_or_else(|| {
                    ServeError::Transport(format!("no shard reply carried user {id:?}"))
                })
            })
            .collect()
    }
}

/// Distributes `members` (in request order) over the shards `shard_of`
/// names, wrapping each non-empty share as a sub-request.
fn split<M>(
    members: Vec<M>,
    shard_of: &[usize],
    n_shards: usize,
    wrap: fn(Vec<M>) -> ServeRequest,
) -> Vec<(usize, Mutex<Option<ServeRequest>>)> {
    let mut shares: Vec<Vec<M>> = (0..n_shards).map(|_| Vec::new()).collect();
    for (member, &shard) in members.into_iter().zip(shard_of) {
        shares[shard].push(member);
    }
    shares
        .into_iter()
        .enumerate()
        .filter(|(_, share)| !share.is_empty())
        .map(|(shard, share)| (shard, Mutex::new(Some(wrap(share)))))
        .collect()
}

/// Original-request position a shard error is attributed to: the
/// failing user's position when the error names one, else the shard's
/// first member.
fn error_position(
    error: &ServeError,
    all_ids: &[String],
    shard_positions: &[usize],
) -> usize {
    let named_user = match error {
        ServeError::Session { user_id, .. } => Some(user_id.as_str()),
        ServeError::UnknownUser(id) => Some(id.as_str()),
        ServeError::Store { user_id: Some(id), .. } => Some(id.as_str()),
        ServeError::Shard { user_id, .. } => Some(user_id.as_str()),
        _ => None,
    };
    named_user
        // Ids are unique per request, so the id's index in the original
        // id list *is* the request position.
        .and_then(|id| all_ids.iter().position(|u| u == id))
        .or_else(|| shard_positions.first().copied())
        .unwrap_or(usize::MAX)
}

/// Loads `user_id`'s stored snapshot: the one load of every tier and of
/// refresh-ahead. Transient store errors are retried; an absent id is
/// [`ServeError::UnknownUser`] and a failing store a
/// [`ServeError::Store`] naming the user.
pub(crate) fn load_prior(
    store: &dyn SnapshotStore,
    user_id: &str,
) -> Result<SessionSnapshot, ServeError> {
    retry_transient(|| store.load(user_id))
        .map_err(|error| ServeError::Store {
            user_id: Some(user_id.to_string()),
            error,
        })?
        .ok_or_else(|| ServeError::UnknownUser(user_id.to_string()))
}

/// `request` with a `Refresh`'s ids resolved through [`load_prior`] into
/// the equivalent `Returning` request; other requests pass through.
pub(crate) fn resolve_refresh(
    request: ServeRequest,
    store: &dyn SnapshotStore,
) -> Result<ServeRequest, ServeError> {
    let ServeRequest::Refresh(ids) = request else { return Ok(request) };
    ids.into_iter()
        .map(|user_id| {
            let returning = ReturningUser::unchanged(load_prior(store, &user_id)?);
            Ok(ReturningMember { user_id, returning })
        })
        .collect::<Result<_, _>>()
        .map(ServeRequest::Returning)
}

/// Step 4, shared with [`JitService::serve`]: saves every served user's
/// snapshot into its shard's store in request order, each save retried
/// over transient errors, then folds the report. The first failing save
/// names its user; users before it stay stored and none after it is
/// attempted.
pub(crate) fn finish<'s, U: Served>(
    served: Vec<(usize, U)>,
    store_of: impl Fn(usize) -> &'s dyn SnapshotStore,
) -> Result<(Vec<U>, ServeReport), ServeError> {
    for (shard, user) in &served {
        let snapshot = user.snapshot();
        retry_transient(|| store_of(*shard).save(user.user_id(), &snapshot)).map_err(
            |error| ServeError::Store {
                user_id: Some(user.user_id().to_string()),
                error,
            },
        )?;
    }
    let report = fold_report(served.iter().map(|(shard, user)| (*shard, user)));
    Ok((served.into_iter().map(|(_, user)| user).collect(), report))
}

/// The one report fold: every user's provenance counted under the shard
/// that served it. Shards appear in shard order, only when they served
/// someone; the totals sum over them.
pub(crate) fn fold_report<'u, U: Served + 'u>(
    served: impl IntoIterator<Item = (usize, &'u U)>,
) -> ServeReport {
    let mut shards: Vec<ShardReport> = Vec::new();
    for (shard, user) in served {
        let at =
            shards.binary_search_by_key(&shard, |r| r.shard).unwrap_or_else(|at| {
                shards.insert(at, ShardReport { shard, ..ShardReport::default() });
                at
            });
        let counts = &mut shards[at];
        counts.users += 1;
        match user.provenance() {
            Some(served) => {
                let replayed =
                    served.iter().filter(|t| **t == TimePointServe::Replayed).count();
                counts.replayed_time_points += replayed;
                counts.recomputed_time_points += served.len() - replayed;
            }
            None => counts.cold_time_points += user.time_points(),
        }
    }
    let total =
        |count: fn(&ShardReport) -> usize| -> usize { shards.iter().map(count).sum() };
    ServeReport {
        users: total(|r| r.users),
        replayed_time_points: total(|r| r.replayed_time_points),
        recomputed_time_points: total(|r| r.recomputed_time_points),
        cold_time_points: total(|r| r.cold_time_points),
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySnapshotStore;

    #[test]
    fn jump_hash_is_stable_and_consistent() {
        // Stability: same key, same bucket, every call.
        for key in [0u64, 1, 42, u64::MAX] {
            for buckets in [1usize, 2, 4, 7] {
                let b = jump_consistent_hash(key, buckets);
                assert!(b < buckets);
                assert_eq!(b, jump_consistent_hash(key, buckets));
            }
        }
        // Single bucket degenerates to 0.
        assert_eq!(jump_consistent_hash(123, 1), 0);
        // Consistency: growing the bucket count must never move a key
        // between two *old* buckets — it either stays or moves to the
        // new bucket.
        for key in 0u64..500 {
            for buckets in 1usize..8 {
                let old = jump_consistent_hash(key, buckets);
                let new = jump_consistent_hash(key, buckets + 1);
                assert!(
                    new == old || new == buckets,
                    "key {key} jumped {old} -> {new} when adding bucket {buckets}"
                );
            }
        }
    }

    fn served(user_id: &str) -> WireServedUser {
        let snapshot = SessionSnapshot::from_parts(
            jit_core::UserRequest::new(vec![1.0]),
            vec![vec![1.0]],
            vec![],
            vec![None],
        );
        WireServedUser {
            user_id: user_id.to_string(),
            snapshot: snapshot.expect("well-formed parts"),
            provenance: None,
        }
    }

    /// Serves a 6-user refresh over 2 shards whose shard step answers
    /// with the users `reply` makes of the ids it was sent.
    fn serve_with(
        store: &MemorySnapshotStore,
        reply: impl Fn(Vec<&str>) -> Vec<&str> + Sync,
    ) -> Result<(Vec<WireServedUser>, ServeReport), ServeError> {
        let ids = (0..6).map(|i| format!("user-{i}"));
        serve_sharded(
            ServeRequest::refresh(ids),
            2,
            |_| store,
            |n, task| (0..n).map(task).collect(),
            |_, sub| Ok(reply(sub.user_ids()).into_iter().map(served).collect()),
        )
    }

    #[test]
    fn replies_that_drop_or_rename_a_user_are_transport_errors() {
        // Every user answered: served in request order, saved, counted.
        let store = MemorySnapshotStore::new();
        let (users, report) = serve_with(&store, |sent| sent).unwrap();
        let ids: Vec<String> = (0..6).map(|i| format!("user-{i}")).collect();
        let got: Vec<String> = users.into_iter().map(|u| u.user_id).collect();
        assert_eq!(got, ids);
        assert_eq!((report.users, report.cold_time_points), (6, 6));
        assert_eq!(store.user_ids().unwrap(), ids);

        // A shard drops its first user, or renames every user: typed
        // errors, and nothing saved.
        let store = MemorySnapshotStore::new();
        let err = serve_with(&store, |sent| sent[1..].to_vec()).unwrap_err();
        assert!(matches!(err, ServeError::Transport(_)), "{err:?}");
        let err =
            serve_with(&store, |sent| sent.iter().map(|_| "x").collect()).unwrap_err();
        assert!(matches!(err, ServeError::Transport(_)), "{err:?}");
        assert!(store.is_empty());
    }

    #[test]
    fn a_shard_step_runs_at_most_once() {
        let store = MemorySnapshotStore::new();
        let err = serve_sharded(
            ServeRequest::refresh(["a"]),
            1,
            |_| &store,
            |_, task| {
                let _ = task(0);
                vec![task(0)]
            },
            |_, sub| Ok(sub.user_ids().into_iter().map(served).collect()),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Transport(_)), "{err:?}");
    }

    #[test]
    fn user_keys_spread_across_shards() {
        let mut counts = [0usize; 4];
        for i in 0..400 {
            let key = user_key(&format!("user-{i}"));
            counts[jump_consistent_hash(key, 4)] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            assert!(
                (50..=150).contains(count),
                "shard {shard} got {count} of 400 users"
            );
        }
    }
}
