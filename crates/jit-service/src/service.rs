//! The single-shard serving service.

// Serve path: panics are denied outright here (tests and the few
// fn-level reasoned allows excepted) — request and store failures must
// surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::api::{ServeError, ServeRequest, ServeResponse, ServedUser};
use crate::sharded::{finish, resolve_refresh};
use crate::store::{MemorySnapshotStore, SnapshotStore};
use jit_core::{AdminConfig, Job, JustInTime, SharedCellCache, TrainError};
use jit_data::FeatureSchema;
use jit_ml::Dataset;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// The serving service: a trained [`JustInTime`] system plus a
/// [`SnapshotStore`], behind the typed [`ServeRequest`] /
/// [`ServeResponse`] contract (see the crate docs).
///
/// Serving is bit-identical to calling [`JustInTime::serve`]; what
/// the service adds is user identity, automatic snapshot persistence,
/// typed errors, the aggregate [`crate::ServeReport`] — and a per-service
/// [`SharedCellCache`]: confidence cells computed for one user are
/// reused by every later user on the same model (see
/// `jit_core::candidates` for why that is provably output-preserving).
/// The cache's lifetime follows the model fingerprints: constructors
/// start it fresh, and [`JitService::with_cell_cache`] carries a prior
/// generation's cache across a retrain, dropping exactly the slots whose
/// models changed.
pub struct JitService {
    system: Arc<JustInTime>,
    store: Arc<dyn SnapshotStore>,
    /// Cross-user confidence cells, scoped to `system`'s model
    /// fingerprints.
    cache: Arc<SharedCellCache>,
}

impl fmt::Debug for JitService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JitService")
            .field("horizon", &self.system.config().horizon)
            .finish_non_exhaustive()
    }
}

impl JitService {
    /// Wraps a trained system with the given snapshot store.
    pub fn new(system: JustInTime, store: impl SnapshotStore + 'static) -> Self {
        Self::with_shared(Arc::new(system), Arc::new(store))
    }

    /// Wraps an already-shared system and store (how [`crate::ShardedService`]
    /// builds its shard workers). The cell cache starts empty.
    pub fn with_shared(system: Arc<JustInTime>, store: Arc<dyn SnapshotStore>) -> Self {
        JitService { system, store, cache: Arc::new(SharedCellCache::new()) }
    }

    /// [`JitService::with_shared`] adopting a **prior generation's** cell
    /// cache — the retrain handover: slots whose model fingerprints
    /// survive into `system` (pinned or undrifted models) carry their
    /// warm cells over, and every other slot is dropped here, precisely
    /// when the fingerprints change. Sound for any cache: stale slots
    /// are keyed by fingerprints the new system never produces, and this
    /// constructor removes them anyway to free the memory.
    pub fn with_cell_cache(
        system: Arc<JustInTime>,
        store: Arc<dyn SnapshotStore>,
        cache: Arc<SharedCellCache>,
    ) -> Self {
        cache.retain_models(system.model_keys());
        JitService { system, store, cache }
    }

    /// A service over a fresh in-memory store.
    pub fn in_memory(system: JustInTime) -> Self {
        Self::new(system, MemorySnapshotStore::new())
    }

    /// Trains a system and wraps it — the one-call entry point.
    ///
    /// # Errors
    /// The typed [`TrainError`] from [`JustInTime::train`].
    pub fn train(
        config: AdminConfig,
        schema: &FeatureSchema,
        slices: &[Dataset],
        store: impl SnapshotStore + 'static,
    ) -> Result<Self, TrainError> {
        Ok(Self::new(JustInTime::train(config, schema, slices)?, store))
    }

    /// The trained system (read access; retraining means building a new
    /// service over the same store).
    pub fn system(&self) -> &JustInTime {
        &self.system
    }

    /// The shared handle to the system.
    pub fn system_arc(&self) -> &Arc<JustInTime> {
        &self.system
    }

    /// The snapshot store.
    pub fn store(&self) -> &dyn SnapshotStore {
        self.store.as_ref()
    }

    /// The shared handle to the store.
    pub fn store_arc(&self) -> &Arc<dyn SnapshotStore> {
        &self.store
    }

    /// The cross-user cell cache this service populates while serving.
    ///
    /// Hand it to [`JitService::with_cell_cache`] when building the
    /// next-generation service after a retrain to carry warm cells for
    /// surviving models across.
    pub fn cell_cache(&self) -> &Arc<SharedCellCache> {
        &self.cache
    }

    /// Serves one request — the one public serving entry point.
    ///
    /// All-or-nothing; sessions come back in request order; every served
    /// session's snapshot is stored under its user id before returning.
    /// See the crate docs for the full contract.
    ///
    /// # Errors
    /// The typed [`ServeError`] — never a panic: empty batches, duplicate
    /// or unknown user ids, per-user session failures (tagged with the
    /// user id) and store failures all surface as variants.
    pub fn serve(
        &self,
        request: ServeRequest,
    ) -> Result<ServeResponse<'_>, ServeError> {
        check_request(&request)?;
        let served = self.compute(request)?.into_iter().map(|user| (0, user)).collect();
        let (users, report) = finish(served, |_| self.store())?;
        Ok(ServeResponse { users, report })
    }

    /// The compute step of the in-process tiers: a `Refresh` is resolved
    /// from this service's store, then the request is served through
    /// [`serve_jobs`]. Nothing is saved; [`JitService::serve`] and the
    /// sharded router save once every shard has succeeded.
    pub(crate) fn compute(
        &self,
        request: ServeRequest,
    ) -> Result<Vec<ServedUser<'_>>, ServeError> {
        serve_jobs(&self.system, &self.cache, resolve_refresh(request, self.store())?)
    }
}

/// Serves `request` through `system`, sharing `cache` across its users,
/// and saves nothing — the compute every tier runs, in process or in a
/// shard worker. Snapshots are loaded before this step, so a `Refresh`
/// that reaches it is a [`ServeError::Transport`]: only a tier holding
/// the user's store can serve one.
pub(crate) fn serve_jobs<'a>(
    system: &'a JustInTime,
    cache: &Arc<SharedCellCache>,
    request: ServeRequest,
) -> Result<Vec<ServedUser<'a>>, ServeError> {
    let (user_ids, jobs): (Vec<String>, Vec<Job>) = match request {
        ServeRequest::Batch(members) => {
            members.into_iter().map(|m| (m.user_id, Job::from(m.request))).unzip()
        }
        ServeRequest::Returning(members) => {
            members.into_iter().map(|m| (m.user_id, Job::from(m.returning))).unzip()
        }
        ServeRequest::Refresh(_) => {
            return Err(ServeError::Transport(
                "a refresh reached a shard without its snapshot store".to_string(),
            ))
        }
    };
    let sessions = system.serve(&jobs, Some(cache)).map_err(|e| {
        ServeError::Session { user_id: user_ids[e.user].clone(), error: e.error }
    })?;
    Ok(user_ids
        .into_iter()
        .zip(sessions)
        .map(|(user_id, session)| ServedUser { user_id, session })
        .collect())
}

/// Shared request validation: batch variants must be non-empty, user
/// ids unique within one request, and every constraint must nest within
/// [`crate::wire::MAX_CONSTRAINT_DEPTH`] — deeper ones have no encoding a
/// frame or store can read back, so every tier refuses them alike.
pub(crate) fn check_request(request: &ServeRequest) -> Result<(), ServeError> {
    if request.is_empty() {
        return Err(ServeError::EmptyBatch);
    }
    let mut seen = HashSet::new();
    for id in request.user_ids() {
        if !seen.insert(id) {
            return Err(ServeError::DuplicateUser(id.to_string()));
        }
    }
    let fits = crate::wire::nests_within_cap;
    let too_deep = match request {
        ServeRequest::Batch(ms) => {
            ms.iter().find(|m| !fits(&m.request)).map(|m| &m.user_id)
        }
        ServeRequest::Returning(ms) => ms
            .iter()
            .find(|m| !fits(&m.returning.request) || !fits(&m.returning.prior.request))
            .map(|m| &m.user_id),
        ServeRequest::Refresh(_) => None,
    };
    match too_deep {
        Some(id) => Err(ServeError::Transport(format!(
            "user {id:?}: constraints nest deeper than {} levels, past what the \
             wire format carries",
            crate::wire::MAX_CONSTRAINT_DEPTH
        ))),
        None => Ok(()),
    }
}
