//! The single-shard serving service.

use crate::api::{
    ServeError, ServeReport, ServeRequest, ServeResponse, ServedUser, ShardReport,
};
use crate::store::{MemorySnapshotStore, SnapshotStore};
use jit_core::{
    AdminConfig, Job, JustInTime, ReturningUser, SharedCellCache, TimePointServe,
    TrainError, UserSession,
};
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
/// typed errors, the aggregate [`ServeReport`] — and a per-service
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
    /// Shard index stamped into reports (0 for standalone services; the
    /// sharded dispatcher labels its workers).
    shard_label: usize,
}

impl fmt::Debug for JitService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JitService")
            .field("horizon", &self.system.config().horizon)
            .field("shard_label", &self.shard_label)
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
        JitService {
            system,
            store,
            cache: Arc::new(SharedCellCache::new()),
            shard_label: 0,
        }
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
        JitService { system, store, cache, shard_label: 0 }
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

    pub(crate) fn set_shard_label(&mut self, shard: usize) {
        self.shard_label = shard;
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
        let (user_ids, jobs): (Vec<String>, Vec<Job>) = match request {
            ServeRequest::NewUser(member) => {
                (vec![member.user_id], vec![Job::from(member.request)])
            }
            ServeRequest::Batch(members) => {
                members.into_iter().map(|m| (m.user_id, Job::from(m.request))).unzip()
            }
            ServeRequest::Returning(members) => {
                members.into_iter().map(|m| (m.user_id, Job::from(m.returning))).unzip()
            }
            ServeRequest::Refresh(ids) => ids
                .into_iter()
                .map(|user_id| {
                    let prior =
                        crate::store::retry_transient(|| self.store.load(&user_id))
                            .map_err(|error| ServeError::Store {
                                user_id: Some(user_id.clone()),
                                error,
                            })?
                            .ok_or_else(|| ServeError::UnknownUser(user_id.clone()))?;
                    Ok((user_id, Job::from(ReturningUser::unchanged(prior))))
                })
                .collect::<Result<Vec<_>, ServeError>>()?
                .into_iter()
                .unzip(),
        };
        let sessions = self.system.serve(&jobs, Some(&self.cache)).map_err(|e| {
            ServeError::Session { user_id: user_ids[e.user].clone(), error: e.error }
        })?;
        self.finish(user_ids, sessions)
    }

    /// Stores snapshots and assembles the response + report.
    fn finish<'a>(
        &self,
        user_ids: Vec<String>,
        sessions: Vec<UserSession<'a>>,
    ) -> Result<ServeResponse<'a>, ServeError> {
        let mut shard = ShardReport {
            shard: self.shard_label,
            users: 0,
            replayed_time_points: 0,
            recomputed_time_points: 0,
            cold_time_points: 0,
        };
        let mut users = Vec::with_capacity(sessions.len());
        for (user_id, session) in user_ids.into_iter().zip(sessions) {
            // Attribute a store failure to the user whose save failed:
            // saves run in request order, so a store dying mid-batch
            // reports the first user it lost (everything before it is
            // durably stored; nothing after it was attempted).
            let snapshot = session.snapshot();
            crate::store::retry_transient(|| self.store.save(&user_id, &snapshot))
                .map_err(|error| ServeError::Store {
                    user_id: Some(user_id.clone()),
                    error,
                })?;
            shard.users += 1;
            match session.reserve_report() {
                Some(report) => {
                    for served in report {
                        match served {
                            TimePointServe::Replayed => shard.replayed_time_points += 1,
                            TimePointServe::Recomputed => {
                                shard.recomputed_time_points += 1
                            }
                        }
                    }
                }
                None => shard.cold_time_points += session.temporal_inputs().len(),
            }
            users.push(ServedUser { user_id, session });
        }
        let report = ServeReport {
            users: shard.users,
            replayed_time_points: shard.replayed_time_points,
            recomputed_time_points: shard.recomputed_time_points,
            cold_time_points: shard.cold_time_points,
            shards: vec![shard],
        };
        Ok(ServeResponse { users, report })
    }
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
        ServeRequest::NewUser(m) => (!fits(&m.request)).then_some(&m.user_id),
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
