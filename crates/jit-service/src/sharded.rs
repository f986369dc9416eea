//! The in-process sharded dispatcher.
//!
//! [`ShardedService`] fronts `N` [`JitService`] shard workers that share
//! one trained system but own **independent snapshot stores**. Users are
//! placed by consistent jump hashing of their id, cohorts are split into
//! per-shard sub-requests, dispatched concurrently on the deterministic
//! `jit-runtime` pool, and reassembled **in request order** — so the
//! response is bit-identical to an unsharded [`JitService`] for any
//! shard count (locked down by `tests/determinism.rs`).
//!
//! The shard boundary is an owned-value boundary (requests in, sessions
//! and snapshots out; shards never share mutable state), which is the
//! shape an OS-process or network backend needs — swapping the worker
//! call for an RPC leaves the routing, ordering and error semantics
//! untouched.

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::api::{ServeError, ServeReport, ServeRequest, ServeResponse, ServedUser};
use crate::service::{check_request, JitService};
use crate::store::SnapshotStore;
use jit_core::JustInTime;
use jit_runtime::Runtime;
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
            .map(|s| {
                let mut service =
                    JitService::with_shared(Arc::clone(&system), store_for(s));
                service.set_shard_label(s);
                service
            })
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
            .enumerate()
            .map(|(s, shard)| {
                let mut service = JitService::with_cell_cache(
                    Arc::clone(&system),
                    Arc::clone(shard.store_arc()),
                    Arc::clone(shard.cell_cache()),
                );
                service.set_shard_label(s);
                service
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
    #[allow(clippy::expect_used)] // see jit-analyze annotation at the call site
    pub fn serve(
        &self,
        request: ServeRequest,
    ) -> Result<ServeResponse<'_>, ServeError> {
        check_request(&request)?;
        // Ids in request order (already known unique), for attributing a
        // failing shard's error back to its original request position.
        let all_ids: Vec<String> =
            request.user_ids().into_iter().map(str::to_string).collect();
        // Split the request into per-shard sub-requests, remembering each
        // member's original position for reassembly.
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let sub_requests: Vec<Option<ServeRequest>> = match request {
            ServeRequest::NewUser(member) => {
                let shard = self.shard_of(&member.user_id);
                positions[shard].push(0);
                let mut subs: Vec<Option<ServeRequest>> =
                    (0..self.shards.len()).map(|_| None).collect();
                subs[shard] = Some(ServeRequest::NewUser(member));
                subs
            }
            ServeRequest::Batch(members) => self
                .split(members, &mut positions, |m| &m.user_id)
                .into_iter()
                .map(|ms| (!ms.is_empty()).then_some(ServeRequest::Batch(ms)))
                .collect(),
            ServeRequest::Returning(members) => self
                .split(members, &mut positions, |m| &m.user_id)
                .into_iter()
                .map(|ms| (!ms.is_empty()).then_some(ServeRequest::Returning(ms)))
                .collect(),
            ServeRequest::Refresh(ids) => self
                .split(ids, &mut positions, |id| id)
                .into_iter()
                .map(|ids| (!ids.is_empty()).then_some(ServeRequest::Refresh(ids)))
                .collect(),
        };

        // Each sub-request is consumed exactly once by its worker; the
        // Mutex<Option<..>> lets workers *move* it out (snapshots in a
        // Returning cohort can be large — no second deep copy here).
        let active: Vec<(usize, parking_lot::Mutex<Option<ServeRequest>>)> =
            sub_requests
                .into_iter()
                .enumerate()
                .filter_map(|(s, r)| r.map(|r| (s, parking_lot::Mutex::new(Some(r)))))
                .collect();
        let results: Vec<Result<ServeResponse<'_>, ServeError>> =
            self.dispatch.parallel_map(active.len(), |i| {
                let (shard, sub) = &active[i];
                // jit-analyze: allow(no-panic-paths) — parallel_map calls each index exactly once, so the slot is provably Some
                let sub = sub.lock().take().expect("each sub-request runs once");
                self.shards[*shard].serve(sub)
            });

        // Deterministic error choice: the failing user earliest in the
        // original request (shard-count independent for per-user errors).
        let mut first_error: Option<(usize, ServeError)> = None;
        let mut responses: Vec<(usize, ServeResponse<'_>)> = Vec::new();
        for ((shard, _), result) in active.iter().zip(results) {
            match result {
                Ok(response) => responses.push((*shard, response)),
                Err(error) => {
                    let position = error_position(&error, &all_ids, &positions[*shard]);
                    if first_error.as_ref().is_none_or(|(p, _)| position < *p) {
                        first_error = Some((position, error));
                    }
                }
            }
        }
        if let Some((_, error)) = first_error {
            return Err(error);
        }

        // Reassemble sessions in request order and merge shard reports.
        let total: usize = positions.iter().map(Vec::len).sum();
        let mut slots: Vec<Option<ServedUser<'_>>> = (0..total).map(|_| None).collect();
        let mut report = ServeReport::default();
        for (shard, response) in responses {
            report.absorb(&response.report);
            for (user, position) in response.users.into_iter().zip(&positions[shard]) {
                slots[*position] = Some(user);
            }
        }
        let users = slots
            .into_iter()
            // jit-analyze: allow(no-panic-paths) — in-process shards are trusted: split() covers every position exactly once (unlike the supervisor, whose workers are separate processes and get a typed error instead)
            .map(|u| u.expect("every request position served exactly once"))
            .collect();
        Ok(ServeResponse { users, report })
    }

    /// Partitions `members` into per-shard vectors, recording original
    /// positions in `positions`.
    fn split<M>(
        &self,
        members: Vec<M>,
        positions: &mut [Vec<usize>],
        id_of: impl Fn(&M) -> &str,
    ) -> Vec<Vec<M>> {
        let mut out: Vec<Vec<M>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (position, member) in members.into_iter().enumerate() {
            let shard = self.shard_of(id_of(&member));
            positions[shard].push(position);
            out[shard].push(member);
        }
        out
    }
}

/// Original-request position a shard error should be attributed to: the
/// failing user's position when the error names one, else the shard's
/// first member. Shared with the OS-process backend (`crate::supervisor`)
/// so both tiers pick the same winning error.
pub(crate) fn error_position(
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

#[cfg(test)]
mod tests {
    use super::*;

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
