//! The end-to-end JustInTime pipeline (Figure 1).
//!
//! **Admin side, once:** the administrator configures the horizon `T`,
//! interval `Δ` and domain constraints; the models generator trains the
//! sequence `(M_t, δ_t)` from timestamped historical data.
//!
//! **Per user:** a [`UserSession`] takes the user's profile, preference
//! constraints and (optionally overridden) temporal update function,
//! generates the per-time-point decision-altering candidates — in
//! parallel, as the paper notes the generators are independent — stores
//! them in the relational database, and answers canned or ad-hoc SQL
//! queries with rendered insights.
//!
//! **Returning users — the fingerprinting contract.** The realistic
//! serving workload is users who come back after the admin has retrained
//! under drift and need their insights refreshed. Recomputing every time
//! point on every visit wastes exactly the work drift did *not* touch,
//! so serving is content-addressed: at train time every `(M_t, δ_t)`
//! carries a fingerprint ([`FutureModel::fingerprint`]), the compiled
//! domain carries per-time-point digests, and each served session stamps
//! every time point with a fingerprint combining model, constraints
//! (with the user's overlay), temporal input, schema, scales and search
//! parameters — every byte the search at `t` can observe. A
//! [`SessionSnapshot`] captures those stamps with the results; a
//! [`Job`] that carries one makes [`JustInTime::serve`] diff them
//! against the current system and **replay** time points whose
//! fingerprint is unchanged (provably bit-identical to re-running the
//! search) while recomputing only the rest. Opaque artifacts fingerprint
//! as `None` and are always recomputed — the diff never guesses.
//! Fingerprints cover every input the search reads, but not the search
//! code itself: a build that changes how candidates are searched still
//! replays the time points of snapshots an earlier build stored.

use crate::candidates::{
    Candidate, CandidateParams, CandidatesGenerator, SharedCellCache, TimelineSearch,
};
use crate::insights::{render, Insight, InsightContext};
use crate::queries::CannedQuery;
use crate::tables;
use jit_constraints::{BoundConstraint, CompiledDomain, Constraint, ConstraintSet};
use jit_data::FeatureSchema;
use jit_db::{Database, DbError, ResultSet};
use jit_math::digest::{Digest, DigestWriter};
use jit_ml::{Dataset, Model, ModelHints};
use jit_runtime::Runtime;
use jit_temporal::future::{FutureModel, FutureModelsGenerator, FutureModelsParams};
use jit_temporal::update::{Override, TemporalUpdateFn};
use std::sync::{Arc, OnceLock};

/// Administrator configuration (the admin UI of Figure 1).
#[derive(Clone, Debug)]
pub struct AdminConfig {
    /// Number of future time points `T`.
    pub horizon: usize,
    /// Calendar year of `t = 0` (presentation only).
    pub start_year: u32,
    /// Years per time step (`Δ`).
    pub period_years: u32,
    /// Future-model generation parameters (its `horizon` field is
    /// overwritten with `self.horizon` during training).
    pub future: FutureModelsParams,
    /// Candidate-search parameters.
    pub candidates: CandidateParams,
    /// Worker threads for training and serving: `0` = one per core, `1`
    /// = serial. Propagated into `future.threads` during training (like
    /// `horizon`); [`JustInTime::serve`] fans a batch's users out over
    /// them, or a lone user's time points. (Forest-level parallelism
    /// stays governed by `future.forest.threads`.) Results are
    /// bit-identical for every value — see `jit-runtime`'s determinism
    /// contract.
    pub threads: usize,
}

impl Default for AdminConfig {
    fn default() -> Self {
        AdminConfig {
            horizon: 5,
            start_year: 2019,
            period_years: 1,
            future: FutureModelsParams::default(),
            candidates: CandidateParams::default(),
            threads: 0,
        }
    }
}

/// Errors from training the system.
#[derive(Debug)]
pub enum TrainError {
    /// The models generator failed.
    Future(jit_temporal::future::FutureError),
    /// Slices' feature dimension does not match the schema.
    DimensionMismatch {
        /// Schema dimension.
        expected: usize,
        /// Slice dimension encountered.
        found: usize,
    },
    /// The schema-derived domain constraints failed to compile (a schema
    /// whose feature names collide with derived constraint variables).
    Domain(jit_constraints::UnknownFeature),
    /// The session-table DDL failed against a fresh template database.
    Db(DbError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Future(e) => write!(f, "models generator failed: {e}"),
            TrainError::DimensionMismatch { expected, found } => {
                write!(f, "slice dimension {found} does not match schema {expected}")
            }
            TrainError::Domain(e) => {
                write!(f, "domain constraints failed to compile: {e}")
            }
            TrainError::Db(e) => write!(f, "session-table DDL failed: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Errors from opening a user session.
#[derive(Debug)]
pub enum SessionError {
    /// The profile's or the temporal update function's dimension does
    /// not match the schema.
    DimensionMismatch {
        /// Schema dimension.
        expected: usize,
        /// Dimension given.
        found: usize,
    },
    /// A user constraint referenced an unknown feature.
    UnknownFeature(String),
    /// Database population failed.
    Db(DbError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "profile or update-fn dimension {found} does not match schema \
                     {expected}"
                )
            }
            SessionError::UnknownFeature(name) => {
                write!(f, "user constraint references unknown feature {name:?}")
            }
            SessionError::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<DbError> for SessionError {
    fn from(e: DbError) -> Self {
        SessionError::Db(e)
    }
}

/// Error from [`JustInTime::serve`]: which job failed and why.
#[derive(Debug)]
pub struct BatchError {
    /// Index of the failing job within the batch.
    pub user: usize,
    /// The underlying per-user session error.
    pub error: SessionError,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch request {} failed: {}", self.user, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// One user's request in a serving batch: the present profile plus the
/// per-user knobs of the *Personal Preferences* screen.
///
/// Build directly, or fluently through [`JustInTime::session_builder`].
#[derive(Clone, Debug)]
pub struct UserRequest {
    /// The user's present feature vector `x`.
    pub profile: Vec<f64>,
    /// Preference/limitation constraints, conjoined with the admin's
    /// domain constraints at every time point they cover.
    pub constraints: ConstraintSet,
    /// Temporal update function override; `None` uses the schema-derived
    /// default.
    pub update_fn: Option<TemporalUpdateFn>,
}

impl UserRequest {
    /// A request with no preference constraints and the default update
    /// function.
    pub fn new(profile: impl Into<Vec<f64>>) -> Self {
        UserRequest {
            profile: profile.into(),
            constraints: ConstraintSet::new(),
            update_fn: None,
        }
    }
}

/// One user in a [`JustInTime::serve`] batch: the request to serve now,
/// plus the snapshot of the user's prior visit when they are returning.
///
/// A first visit converts from its [`UserRequest`], a returning user
/// from its [`ReturningUser`].
#[derive(Clone, Debug)]
pub struct Job {
    /// The request to serve now.
    pub request: UserRequest,
    /// The stored session from the previous visit; `None` serves the
    /// request cold.
    pub prior: Option<SessionSnapshot>,
}

impl From<UserRequest> for Job {
    fn from(request: UserRequest) -> Self {
        Job { request, prior: None }
    }
}

impl From<ReturningUser> for Job {
    fn from(returning: ReturningUser) -> Self {
        Job { request: returning.request, prior: Some(returning.prior) }
    }
}

/// The trained JustInTime system (admin side of Figure 1).
pub struct JustInTime {
    config: AdminConfig,
    schema: FeatureSchema,
    models: Vec<FutureModel>,
    scales: Vec<f64>,
    domain: ConstraintSet,
    /// The domain set compiled once per time point at training time —
    /// serving only overlays per-user constraints on top.
    compiled_domain: CompiledDomain,
    /// Schema-initialized database with the session table DDL already
    /// executed; every session clones this template instead of re-running
    /// `CREATE TABLE`.
    db_template: Database,
    /// Per-time-point `(M_t, δ_t)` fingerprints, computed once at train
    /// time (`None` for opaque models).
    model_digests: Vec<Option<Digest>>,
    /// Per-time-point **model-only** fingerprints — the cache keys the
    /// timeline search uses to decide whether its threshold cells may
    /// carry from `t` to `t+1` (frozen predictors share one model across
    /// the horizon; EDD models differ per step).
    model_keys: Vec<Option<Digest>>,
    /// Digest of the user-independent search environment: schema,
    /// scales and candidate-search parameters.
    search_env: Digest,
    /// Per-time-point move hints — with the compiled forest that scores
    /// the search's memo misses — built the first time a search at `t`
    /// needs them and kept for this generation of models, so replay-only
    /// traffic never builds one. Each slot describes `models[t]`: a
    /// method that replaces a model replaces its slot with it.
    hints: Vec<OnceLock<ModelHints>>,
}

impl JustInTime {
    /// Trains the system: fits the future model sequence on historical
    /// slices and derives domain constraints from the schema.
    pub fn train(
        config: AdminConfig,
        schema: &FeatureSchema,
        slices: &[Dataset],
    ) -> Result<Self, TrainError> {
        for s in slices {
            if !s.is_empty() && s.dim() != schema.dim() {
                return Err(TrainError::DimensionMismatch {
                    expected: schema.dim(),
                    found: s.dim(),
                });
            }
        }
        let mut future_params = config.future.clone();
        future_params.horizon = config.horizon;
        future_params.threads = config.threads;
        let generator = FutureModelsGenerator::new(future_params);
        let models = generator.generate(slices).map_err(TrainError::Future)?;

        // Per-feature scales from the union of all slices.
        let union = Dataset::concat(slices);
        let scales = if union.is_empty() {
            vec![1.0; schema.dim()]
        } else {
            jit_math::Standardizer::fit(&union.matrix()).stds().to_vec()
        };
        let (domain, _immutable) = jit_constraints::set::domain_constraints(schema);
        // Schema-derived constraints only mention schema features, and a
        // fresh template cannot collide on table names — but both caches
        // still surface typed errors instead of panicking, so a
        // pathological schema fails the train call, not the process.
        let compiled_domain = CompiledDomain::compile(&domain, schema, config.horizon)
            .map_err(TrainError::Domain)?;
        let db_template = Database::new();
        tables::create_tables(&db_template, schema).map_err(TrainError::Db)?;
        // Content fingerprints, once per train: serving stamps sessions
        // with them and incremental re-serving diffs them, at zero
        // per-request digesting cost for the model side.
        let model_digests: Vec<Option<Digest>> =
            models.iter().map(FutureModel::fingerprint).collect();
        let model_keys: Vec<Option<Digest>> =
            models.iter().map(|m| m.model.fingerprint()).collect();
        let search_env = {
            let mut w = DigestWriter::new("jit-core/search-env");
            w.write_digest(schema.content_digest());
            w.write_f64s(&scales);
            w.write_digest(config.candidates.content_digest());
            w.finish()
        };
        let hints = models.iter().map(|_| OnceLock::new()).collect();
        Ok(JustInTime {
            config,
            schema: schema.clone(),
            models,
            scales,
            domain,
            compiled_domain,
            db_template,
            model_digests,
            model_keys,
            search_env,
            hints,
        })
    }

    /// The drift-schedule hook: retrains the future-model sequence on a
    /// new set of historical slices, keeping this system's admin
    /// configuration and schema fixed. This is how a scenario's drift
    /// schedule advances — each step slides the training window and
    /// produces the next system; serving the same cohort through it
    /// (over the same snapshot store) measures which served insights
    /// the drift invalidated.
    ///
    /// Retraining is exactly [`JustInTime::train`], so it inherits the
    /// full determinism contract: the same slices reproduce the same
    /// models bit for bit, and unchanged models keep their content
    /// fingerprints (letting re-serves replay their time points).
    ///
    /// # Errors
    /// The typed [`TrainError`] from [`JustInTime::train`].
    pub fn retrain(&self, slices: &[Dataset]) -> Result<JustInTime, TrainError> {
        JustInTime::train(self.config.clone(), &self.schema, slices)
    }

    /// [`JustInTime::retrain`] with **pinned time points**: `pinned[t]`
    /// keeps this system's `(M_t, δ_t)` (and its fingerprints) in the
    /// retrained system instead of the freshly trained one — the partial
    /// -drift shape where an operator rolls out new models for some
    /// horizon steps while freezing others (e.g. near-term models whose
    /// validation did not clear yet).
    ///
    /// Pinning only helps returning users if the pinned time points'
    /// serving fingerprints actually survive, and the search environment
    /// (per-feature scales) is folded into every stamp — so this method
    /// also **freezes the prior normalization**: the retrained system
    /// keeps `self`'s scales (and hence its search-environment digest)
    /// rather than refitting them on the new window. That is the
    /// deployed-scaler practice, and it is what lets a pinned `t`
    /// replay: model, scales, schema and search parameters are then all
    /// bit-identical. Unpinned time points search with their *new*
    /// models under the frozen scales — deterministic and coherent, just
    /// a different (explicitly chosen) system than a full retrain.
    ///
    /// `pinned` entries beyond the horizon are ignored; missing entries
    /// count as unpinned. With no `true` entry this is exactly
    /// [`JustInTime::retrain`].
    ///
    /// # Errors
    /// The typed [`TrainError`] from [`JustInTime::train`].
    pub fn retrain_pinned(
        &self,
        slices: &[Dataset],
        pinned: &[bool],
    ) -> Result<JustInTime, TrainError> {
        let mut next = self.retrain(slices)?;
        if !pinned.iter().any(|p| *p) {
            return Ok(next);
        }
        next.scales = self.scales.clone();
        next.search_env = self.search_env;
        for t in 0..next.models.len() {
            if pinned.get(t).copied().unwrap_or(false) {
                // The hints slot travels with its model: built here if
                // `self` built it, never describing the replaced model.
                next.models[t] = self.models[t].clone();
                next.model_digests[t] = self.model_digests[t];
                next.model_keys[t] = self.model_keys[t];
                next.hints[t] = self.hints[t].clone();
            }
        }
        Ok(next)
    }

    /// Which time points drifted relative to `prior`: `true` at `t`
    /// where the two systems' `(M_t, δ_t)` content fingerprints differ
    /// (or either is missing), `false` where a re-serve against `self`
    /// can replay a `prior` session's time point. The same diff
    /// incremental re-serving performs per session, surfaced once per
    /// retrain so population-scale harnesses can report drift without
    /// touching any user.
    pub fn drifted_time_points(&self, prior: &JustInTime) -> Vec<bool> {
        (0..self.model_digests.len())
            .map(|t| {
                match (self.model_digests[t], prior.model_digests.get(t).copied()) {
                    (Some(a), Some(Some(b))) => a != b,
                    _ => true,
                }
            })
            .collect()
    }

    /// The admin configuration.
    pub fn config(&self) -> &AdminConfig {
        &self.config
    }

    /// The feature schema.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// The `(M_t, δ_t)` sequence, `t = 0..=T`.
    pub fn models(&self) -> &[FutureModel] {
        &self.models
    }

    /// Per-time-point **model-only** content fingerprints (`None` for
    /// opaque models) — the keys under which this system's searches
    /// cache threshold cells. Hand them to
    /// [`SharedCellCache::retain_models`] after a retrain so slots for
    /// surviving models carry over and stale ones drop.
    pub fn model_keys(&self) -> &[Option<Digest>] {
        &self.model_keys
    }

    /// Per-feature scales learned from the training data.
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// The schema-derived domain constraint set.
    pub fn domain(&self) -> &ConstraintSet {
        &self.domain
    }

    /// The domain constraints compiled per time point at training time.
    pub fn compiled_domain(&self) -> &CompiledDomain {
        &self.compiled_domain
    }

    /// Calendar year of time point `t`.
    pub fn year_of(&self, t: usize) -> u32 {
        self.config.start_year + (t as u32) * self.config.period_years
    }

    /// The default temporal update function (schema-derived).
    pub fn default_update_fn(&self) -> TemporalUpdateFn {
        TemporalUpdateFn::from_schema(&self.schema)
    }

    /// Starts a fluent per-user request for `profile`; finish with
    /// [`SessionBuilder::build`] (a [`UserRequest`]) or
    /// [`SessionBuilder::build_returning`] (a [`ReturningUser`]), and
    /// serve either as a [`Job`].
    pub fn session_builder(&self, profile: &[f64]) -> SessionBuilder<'_> {
        SessionBuilder { system: self, request: UserRequest::new(profile.to_vec()) }
    }

    /// Serves a batch of users — first visits and returning users alike —
    /// amortizing everything user-independent: each time point's move
    /// hints and compiled forest are built once per trained system, the
    /// first time a search at that `t` needs them (so replay-only traffic
    /// never walks the ensembles) and reused by every later call, the
    /// domain constraints were compiled once at training time (each user
    /// only overlays their preferences), and every session database is
    /// cloned from the schema-initialized template instead of re-running
    /// DDL.
    ///
    /// A job with a [`Job::prior`] snapshot is re-served against the
    /// current (possibly drifted) models: per time point, the stored
    /// fingerprint is diffed against what this system would stamp today;
    /// a time point whose model, overlay constraints and temporal inputs
    /// are all unchanged is **replayed** from the snapshot, and only
    /// changed (or unfingerprintable) time points re-run the search. The
    /// session's database is rebuilt either way, and
    /// [`UserSession::reserve_report`] records what happened per `t`.
    ///
    /// With `cache`, every search in the batch probes and populates that
    /// cross-user [`SharedCellCache`], so confidence cells computed for
    /// one user are reused by every later user on the same model. The
    /// caller owns the cache's lifetime — keep it across batches while
    /// the models stand, and [`SharedCellCache::retain_models`] it on
    /// retrain. `None` gives each search a private memo.
    ///
    /// The users fan out over `config.threads` workers; a lone user's
    /// time points fan out instead. Every session is **bit-identical to
    /// a cold serve of its job's request alone**, for any thread count,
    /// any cache (or none), any mix of jobs and any amount of drift:
    /// candidate generators derive their RNG streams from the time index
    /// alone, the runtime preserves task order, shared cells are pure
    /// functions of `(model fingerprint, threshold cells)` re-verified on
    /// every reuse, and replay only happens when every input the search
    /// reads is provably unchanged (`tests/determinism.rs` locks this
    /// down under no, partial and full drift).
    ///
    /// # Errors
    /// All-or-nothing: the first failing job (by batch index) is reported
    /// and the whole batch is discarded.
    pub fn serve(
        &self,
        jobs: &[Job],
        cache: Option<&Arc<SharedCellCache>>,
    ) -> Result<Vec<UserSession<'_>>, BatchError> {
        let runtime = Runtime::new(self.config.threads);
        runtime
            .parallel_map(jobs.len(), |u| self.serve_one(&jobs[u], &runtime, cache))
            .into_iter()
            .enumerate()
            .map(|(user, r)| r.map_err(|error| BatchError { user, error }))
            .collect()
    }

    /// The per-user serving pipeline behind [`JustInTime::serve`].
    fn serve_one(
        &self,
        job: &Job,
        runtime: &Runtime,
        cache: Option<&Arc<SharedCellCache>>,
    ) -> Result<UserSession<'_>, SessionError> {
        let (temporal_inputs, bounds, fingerprints) =
            self.fingerprint_inputs(&job.request)?;

        // A returning user replays every time point whose fingerprint
        // still matches; everything else (including unfingerprintable
        // artifacts) is recomputed.
        let provenance: Option<Vec<TimePointServe>> =
            job.prior.as_ref().map(|prior| Self::diff_plan(&fingerprints, prior));
        let replay = match (&job.prior, &provenance) {
            (Some(prior), Some(plan)) => Some((prior, plan.as_slice())),
            _ => None,
        };

        let candidates =
            self.generate_candidates(&temporal_inputs, &bounds, runtime, replay, cache);

        // Populate the user's relational database from the DDL template.
        let db = self.db_template.clone();
        tables::insert_temporal_inputs(&db, &temporal_inputs)?;
        tables::insert_candidates(&db, &candidates)?;

        Ok(UserSession {
            system: self,
            request: job.request.clone(),
            temporal_inputs,
            candidates,
            db,
            fingerprints,
            provenance,
        })
    }

    /// The serving fingerprint of time point `t` for a session with
    /// temporal input `origin` and compiled-constraint digest
    /// `bound_digest`. `None` when `(M_t, δ_t)` is unfingerprintable.
    fn time_fingerprint(
        &self,
        t: usize,
        origin: &[f64],
        bound_digest: Digest,
    ) -> Option<Digest> {
        let model = self.model_digests[t]?;
        let mut w = DigestWriter::new("jit-core/time-point");
        w.write_digest(self.search_env);
        w.write_usize(t);
        w.write_digest(model);
        w.write_digest(bound_digest);
        w.write_f64s(origin);
        Some(w.finish())
    }

    /// The user-dependent half of the serving-fingerprint contract,
    /// shared verbatim by [`JustInTime::serve_one`] and
    /// [`JustInTime::reserve_plan`]: projected temporal inputs, compiled
    /// per-`t` constraints (the cached domain compilation with this
    /// user's preferences overlaid) and the per-`t` fingerprints this
    /// system would stamp on a session for `request`.
    #[allow(clippy::type_complexity)]
    fn fingerprint_inputs(
        &self,
        request: &UserRequest,
    ) -> Result<(Vec<Vec<f64>>, Vec<BoundConstraint>, Vec<Option<Digest>>), SessionError>
    {
        if request.profile.len() != self.schema.dim() {
            return Err(SessionError::DimensionMismatch {
                expected: self.schema.dim(),
                found: request.profile.len(),
            });
        }
        let update =
            request.update_fn.clone().unwrap_or_else(|| self.default_update_fn());
        if update.specs().len() != self.schema.dim() {
            return Err(SessionError::DimensionMismatch {
                expected: self.schema.dim(),
                found: update.specs().len(),
            });
        }
        let temporal_inputs = update.project_all(&request.profile, self.config.horizon);

        let bounds: Vec<BoundConstraint> = (0..=self.config.horizon)
            .map(|t| {
                self.compiled_domain.overlay(t, &request.constraints, &self.schema)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| SessionError::UnknownFeature(e.0))?;

        // Stamp every time point with its serving fingerprint (see the
        // module docs); an empty preference set reuses the constraint
        // digests cached at compile time.
        let empty_prefs = request.constraints.is_empty();
        let fingerprints: Vec<Option<Digest>> = (0..=self.config.horizon)
            .map(|t| {
                let bound_digest = if empty_prefs {
                    self.compiled_domain.digest_at(t)
                } else {
                    bounds[t].content_digest()
                };
                self.time_fingerprint(t, &temporal_inputs[t], bound_digest)
            })
            .collect();
        Ok((temporal_inputs, bounds, fingerprints))
    }

    /// Diffs freshly stamped fingerprints against a prior snapshot's —
    /// the one replay decision, used both when actually serving and when
    /// planning ahead.
    fn diff_plan(
        fingerprints: &[Option<Digest>],
        prior: &SessionSnapshot,
    ) -> Vec<TimePointServe> {
        fingerprints
            .iter()
            .enumerate()
            .map(|(t, fp)| match (*fp, prior.fingerprint_at(t)) {
                (Some(now), Some(then)) if now == then => TimePointServe::Replayed,
                _ => TimePointServe::Recomputed,
            })
            .collect()
    }

    /// The per-time-point plan [`JustInTime::serve`] would use for
    /// `returning` — the exact fingerprint diff of a re-serve,
    /// **without running any search**. This is the staleness probe
    /// behind proactive re-serving (`jit-service`'s refresh-ahead): scan
    /// stored snapshots, and only users with at least one
    /// [`TimePointServe::Recomputed`] entry need a refresh.
    ///
    /// Unfingerprintable artifacts plan as `Recomputed` (the diff never
    /// guesses), matching serving behaviour exactly.
    ///
    /// # Errors
    /// The same [`SessionError`]s serving the request would produce
    /// (dimension mismatch, unknown constraint feature).
    pub fn reserve_plan(
        &self,
        returning: &ReturningUser,
    ) -> Result<Vec<TimePointServe>, SessionError> {
        let (_, _, fingerprints) = self.fingerprint_inputs(&returning.request)?;
        Ok(Self::diff_plan(&fingerprints, &returning.prior))
    }

    /// Runs the per-time-point generators; parallel when configured
    /// (§II-B: "The generators are independent of each other, and thus
    /// they can be executed in parallel").
    ///
    /// Each worker owns a [`TimelineSearch`] engine: on the serial path
    /// (and inside batch workers) one engine walks `t = 0..=T` in order,
    /// carrying warm threshold cells across adjacent time points
    /// whenever the per-`t` model fingerprints match. `replay` short-
    /// circuits time points a returning user's snapshot already holds.
    fn generate_candidates(
        &self,
        temporal_inputs: &[Vec<f64>],
        bounds: &[BoundConstraint],
        runtime: &Runtime,
        replay: Option<(&SessionSnapshot, &[TimePointServe])>,
        cache: Option<&Arc<SharedCellCache>>,
    ) -> Vec<Candidate> {
        let run_one = |engine: &mut TimelineSearch, t: usize| -> Vec<Candidate> {
            if let Some((prior, plan)) = replay {
                if plan[t] == TimePointServe::Replayed {
                    return prior
                        .candidates
                        .iter()
                        .filter(|c| c.time_index == t)
                        .cloned()
                        .collect();
                }
            }
            let model = &self.models[t];
            let generator = CandidatesGenerator {
                model: &model.model,
                delta: model.delta,
                origin: &temporal_inputs[t],
                constraint: &bounds[t],
                schema: &self.schema,
                scales: &self.scales,
                time_index: t,
            };
            engine.run(
                &generator,
                &self.config.candidates,
                self.hints_at(t),
                self.model_keys[t],
            )
        };

        // Each time point seeds its own generator from `t` alone, so no
        // RNG forking is needed for determinism here; the runtime keeps
        // results in time order for every thread count, and engine state
        // only memoizes provably identical work (so worker placement
        // cannot change output). The same argument covers the shared
        // cell cache: sharing changes which engine computes a cell
        // first, never the cell's bits.
        let mk_engine = || match cache {
            Some(cache) => TimelineSearch::with_shared(Arc::clone(cache)),
            None => TimelineSearch::new(),
        };
        let results =
            runtime.parallel_map_with(self.config.horizon + 1, mk_engine, run_one);
        results.into_iter().flatten().collect()
    }

    /// Time point `t`'s move hints, built on first use and kept for the
    /// generation. Only a search calls this, so a worker builds just the
    /// time points it searches.
    fn hints_at(&self, t: usize) -> &ModelHints {
        self.hints[t].get_or_init(|| self.models[t].model.hints())
    }
}

/// Fluent construction of a [`UserRequest`], bound to a trained system.
///
/// ```no_run
/// # use jit_core::{Job, JustInTime};
/// # use jit_data::LendingClubGenerator;
/// # fn demo(system: &JustInTime) {
/// let request = system
///     .session_builder(&LendingClubGenerator::john())
///     .constraint(jit_constraints::parse_constraint("gap <= 2").unwrap())
///     .build();
/// let sessions = system.serve(&[Job::from(request)], None).unwrap();
/// # }
/// ```
#[derive(Clone)]
pub struct SessionBuilder<'a> {
    system: &'a JustInTime,
    request: UserRequest,
}

impl std::fmt::Debug for SessionBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("request", &self.request)
            .finish_non_exhaustive()
    }
}

impl SessionBuilder<'_> {
    /// Adds a preference constraint at every time point.
    pub fn constraint(mut self, c: Constraint) -> Self {
        self.request.constraints.add(c);
        self
    }

    /// Adds a preference constraint at one time point.
    pub fn constraint_at(mut self, t: usize, c: Constraint) -> Self {
        self.request.constraints.add_at(t, c);
        self
    }

    /// Merges a whole preference set.
    pub fn constraints(mut self, set: &ConstraintSet) -> Self {
        self.request.constraints.merge(set);
        self
    }

    /// Replaces the temporal update function.
    pub fn update_fn(mut self, update: TemporalUpdateFn) -> Self {
        self.request.update_fn = Some(update);
        self
    }

    /// Overrides one feature's temporal behaviour, starting from the
    /// system's default update function when none was set yet.
    pub fn override_feature(mut self, name: &str, o: Override) -> Self {
        let mut update = self
            .request
            .update_fn
            .take()
            .unwrap_or_else(|| self.system.default_update_fn());
        update.override_feature(name, o);
        self.request.update_fn = Some(update);
        self
    }

    /// Finishes the builder as a batch request.
    pub fn build(self) -> UserRequest {
        self.request
    }

    /// Finishes the builder as a **returning-user** request against the
    /// given prior snapshot — the fluent way to say "same user, updated
    /// preferences".
    pub fn build_returning(self, prior: SessionSnapshot) -> ReturningUser {
        ReturningUser::with_request(prior, self.request)
    }
}

/// How [`JustInTime::serve`] produced one time point of a returning
/// user's fresh session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimePointServe {
    /// The stored fingerprint matched the current system: the time
    /// point's candidates were replayed from the snapshot (provably
    /// bit-identical to re-running the search).
    Replayed,
    /// The model, constraint overlay or temporal input changed — or an
    /// artifact was unfingerprintable — so the search re-ran.
    Recomputed,
}

/// An owned snapshot of a served session: the request, the per-time-point
/// results, and the serving fingerprints they were computed under.
///
/// Snapshots outlive the system that produced them (no borrow), which is
/// the point: store one when the user leaves, and when they return —
/// after any number of retrains — hand it to
/// [`JustInTime::serve`] as a [`Job`], which replays whatever drift
/// left untouched. Their one serialized form is `jit-service`'s binary
/// snapshot codec, shared by wire frames and persistent stores. Stored
/// copies lead with a format-version byte and frames do not: stored
/// bytes outlive the build that wrote them, frames never do.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    /// The request the stored session answered.
    pub request: UserRequest,
    temporal_inputs: Vec<Vec<f64>>,
    candidates: Vec<Candidate>,
    fingerprints: Vec<Option<Digest>>,
}

impl SessionSnapshot {
    /// Rebuilds a snapshot from its parts — the inverse of the accessors
    /// below, used by persistent snapshot stores (`jit-service`) to
    /// round-trip sessions through storage.
    ///
    /// `temporal_inputs` and `fingerprints` must have one entry per time
    /// point `0..=T` (equal lengths); candidates carry their own
    /// `time_index`. Returns `None` when the lengths disagree or a
    /// candidate's time index is out of range, so a corrupted store
    /// surfaces as a typed load error instead of a wrong replay.
    pub fn from_parts(
        request: UserRequest,
        temporal_inputs: Vec<Vec<f64>>,
        candidates: Vec<Candidate>,
        fingerprints: Vec<Option<Digest>>,
    ) -> Option<Self> {
        if temporal_inputs.is_empty() || temporal_inputs.len() != fingerprints.len() {
            return None;
        }
        if candidates.iter().any(|c| c.time_index >= temporal_inputs.len()) {
            return None;
        }
        Some(SessionSnapshot { request, temporal_inputs, candidates, fingerprints })
    }

    /// The stored horizon `T`.
    pub fn horizon(&self) -> usize {
        self.temporal_inputs.len().saturating_sub(1)
    }

    /// The serving fingerprints per time point (`None` entries mark
    /// unfingerprintable artifacts; those always re-serve as
    /// [`TimePointServe::Recomputed`]).
    pub fn fingerprints(&self) -> &[Option<Digest>] {
        &self.fingerprints
    }

    /// The stored candidates (all time points, in time order).
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The stored temporal inputs `x_0..x_T`.
    pub fn temporal_inputs(&self) -> &[Vec<f64>] {
        &self.temporal_inputs
    }

    /// The serving fingerprint time point `t` was computed under, if any
    /// (`None` for out-of-range `t` and unfingerprintable artifacts —
    /// both re-serve as [`TimePointServe::Recomputed`]).
    pub fn fingerprint_at(&self, t: usize) -> Option<Digest> {
        self.fingerprints.get(t).copied().flatten()
    }
}

/// One returning user: the request to serve now plus the snapshot of
/// their prior visit. Serve it as a [`Job`].
#[derive(Clone, Debug)]
pub struct ReturningUser {
    /// The request to serve now — the prior one verbatim, or updated
    /// preferences/profile (changed parts re-serve incrementally).
    pub request: UserRequest,
    /// The stored session from the previous visit.
    pub prior: SessionSnapshot,
}

impl ReturningUser {
    /// A user returning with the same request their snapshot was served
    /// for — the pure "has anything drifted?" refresh.
    pub fn unchanged(prior: SessionSnapshot) -> Self {
        ReturningUser { request: prior.request.clone(), prior }
    }

    /// A user returning with an updated request.
    pub fn with_request(prior: SessionSnapshot, request: UserRequest) -> Self {
        ReturningUser { request, prior }
    }
}

/// A per-user session: generated candidates plus the queryable database.
pub struct UserSession<'a> {
    system: &'a JustInTime,
    request: UserRequest,
    temporal_inputs: Vec<Vec<f64>>,
    candidates: Vec<Candidate>,
    db: Database,
    /// Per-time-point serving fingerprints (see the module docs).
    fingerprints: Vec<Option<Digest>>,
    /// Per-time-point provenance when this session came from a job with
    /// a prior snapshot; `None` for cold sessions.
    provenance: Option<Vec<TimePointServe>>,
}

impl std::fmt::Debug for UserSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserSession")
            .field("profile", &self.request.profile)
            .field("candidates", &self.candidates.len())
            .field("horizon", &(self.temporal_inputs.len().saturating_sub(1)))
            .finish_non_exhaustive()
    }
}

impl<'a> UserSession<'a> {
    /// The user's present profile.
    pub fn profile(&self) -> &[f64] {
        &self.request.profile
    }

    /// Snapshots the session for a later incremental re-serve (see
    /// [`SessionSnapshot`]).
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            request: self.request.clone(),
            temporal_inputs: self.temporal_inputs.clone(),
            candidates: self.candidates.clone(),
            fingerprints: self.fingerprints.clone(),
        }
    }

    /// For sessions served from a [`Job`] with a prior snapshot: how each
    /// time point was served. `None` for cold sessions.
    pub fn reserve_report(&self) -> Option<&[TimePointServe]> {
        self.provenance.as_deref()
    }

    /// The temporal inputs `x_0..x_T`.
    pub fn temporal_inputs(&self) -> &[Vec<f64>] {
        &self.temporal_inputs
    }

    /// All generated decision-altering candidates.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The underlying relational database (expert access).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The present model's verdict on the unmodified profile:
    /// `(confidence, approved)`.
    pub fn present_decision(&self) -> (f64, bool) {
        let m = &self.system.models()[0];
        let conf = m.model.predict_proba(&self.request.profile);
        (conf, conf > m.delta)
    }

    /// Executes raw SQL (the expert interface of §II-C).
    pub fn sql(&self, sql: &str) -> Result<ResultSet, DbError> {
        self.db.execute(sql)
    }

    /// Runs one canned query and renders its insight.
    pub fn run(&self, query: &CannedQuery) -> Result<Insight, DbError> {
        let rs = self.db.execute(&query.sql())?;
        let ctx = InsightContext {
            schema: self.system.schema(),
            temporal_inputs: &self.temporal_inputs,
            start_year: self.system.config().start_year,
            period_years: self.system.config().period_years,
        };
        Ok(render(&ctx, query, &rs))
    }

    /// Runs the full canned catalogue (the demo's Queries screen).
    pub fn run_all(&self) -> Result<Vec<Insight>, DbError> {
        CannedQuery::catalogue().iter().map(|q| self.run(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_data::{LendingClubGenerator, LendingClubParams};
    use jit_ml::CompiledForest;

    fn lending_slices(per_year: usize) -> (FeatureSchema, Vec<Dataset>) {
        let gen = LendingClubGenerator::new(LendingClubParams {
            records_per_year: per_year,
            ..Default::default()
        });
        let slices: Vec<Dataset> = gen
            .years()
            .into_iter()
            .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
            .collect();
        (gen.schema().clone(), slices)
    }

    fn small_config(horizon: usize) -> AdminConfig {
        use jit_ml::RandomForestParams;
        AdminConfig {
            horizon,
            start_year: 2019,
            period_years: 1,
            future: FutureModelsParams {
                n_landmarks: 40,
                pool_slices: 3,
                forest: RandomForestParams { n_trees: 12, ..Default::default() },
                ..Default::default()
            },
            candidates: CandidateParams {
                beam_width: 6,
                max_iters: 4,
                top_k: 6,
                ..Default::default()
            },
            threads: 0,
        }
    }

    fn trained(horizon: usize) -> JustInTime {
        let (schema, slices) = lending_slices(250);
        JustInTime::train(small_config(horizon), &schema, &slices).unwrap()
    }

    /// Serves one job in a batch of its own.
    fn serve_alone(
        system: &JustInTime,
        job: impl Into<Job>,
    ) -> Result<UserSession<'_>, SessionError> {
        match system.serve(&[job.into()], None) {
            Ok(mut sessions) => Ok(sessions.remove(0)),
            Err(e) => Err(e.error),
        }
    }

    fn john() -> UserRequest {
        UserRequest::new(LendingClubGenerator::john())
    }

    #[test]
    fn train_produces_model_sequence() {
        let system = trained(3);
        assert_eq!(system.models().len(), 4);
        assert_eq!(system.year_of(0), 2019);
        assert_eq!(system.year_of(3), 2022);
        assert_eq!(system.scales().len(), 6);
    }

    #[test]
    fn retrain_keeps_config_and_diffs_fingerprints() {
        let (schema, slices) = lending_slices(250);
        let system = JustInTime::train(small_config(2), &schema, &slices).unwrap();

        // Retraining on identical slices is bit-deterministic, so every
        // fingerprint matches and nothing reports as drifted.
        let same = system.retrain(&slices).unwrap();
        assert_eq!(same.config().horizon, 2);
        assert!(same.drifted_time_points(&system).iter().all(|d| !d));

        // Sliding the window by one year is real drift: at least one
        // time point's (M_t, δ_t) fingerprint must change.
        let moved = system.retrain(&slices[1..]).unwrap();
        let drifted = moved.drifted_time_points(&system);
        assert_eq!(drifted.len(), 3);
        assert!(drifted.iter().any(|d| *d));
    }

    #[test]
    fn john_session_end_to_end() {
        let system = trained(3);
        let session = serve_alone(&system, john()).unwrap();
        // Temporal inputs: age advances.
        assert_eq!(session.temporal_inputs().len(), 4);
        assert_eq!(session.temporal_inputs()[2][0], 31.0);
        // Candidates exist and are stamped with valid times.
        assert!(!session.candidates().is_empty());
        assert!(session.candidates().iter().all(|c| c.time_index <= 3));
        // The database is populated and queryable.
        assert_eq!(
            session.db().row_count(crate::tables::CANDIDATES_TABLE).unwrap(),
            session.candidates().len()
        );
        let rs = session.sql("SELECT COUNT(*) FROM temporal_inputs").unwrap();
        assert_eq!(rs.scalar().unwrap().as_i64(), Some(4));
    }

    #[test]
    fn canned_queries_render_insights() {
        let system = trained(2);
        let session = serve_alone(&system, john()).unwrap();
        let insights = session.run_all().unwrap();
        assert_eq!(insights.len(), 6);
        for i in &insights {
            assert!(!i.headline.is_empty(), "{} missing headline", i.query_id);
        }
    }

    #[test]
    fn user_constraints_flow_through() {
        use jit_constraints::builder::*;
        let system = trained(2);
        let mut request = john();
        request.constraints.add(gap().le(1.0));
        let session = serve_alone(&system, request).unwrap();
        for c in session.candidates() {
            assert!(c.gap <= 1, "gap constraint leaked: {}", c.gap);
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let (schema, slices) = lending_slices(250);
        let mut cfg = small_config(2);
        cfg.threads = 0;
        let par = JustInTime::train(cfg.clone(), &schema, &slices).unwrap();
        cfg.threads = 1;
        let ser = JustInTime::train(cfg, &schema, &slices).unwrap();
        let ps = serve_alone(&par, john()).unwrap();
        let ss = serve_alone(&ser, john()).unwrap();
        assert_eq!(ps.candidates().len(), ss.candidates().len());
        for (a, b) in ps.candidates().iter().zip(ss.candidates()) {
            assert_eq!(a.profile, b.profile);
            assert_eq!(a.time_index, b.time_index);
        }
    }

    type Fingerprint = Vec<(usize, Vec<u64>, u64)>;

    fn candidate_fingerprints(s: &UserSession<'_>) -> Fingerprint {
        s.candidates()
            .iter()
            .map(|c| {
                (
                    c.time_index,
                    c.profile.iter().map(|v| v.to_bits()).collect(),
                    c.confidence.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn serve_batch_is_bit_identical_to_serial_sessions() {
        use jit_constraints::builder::*;
        let system = trained(2);
        let mut prefs = ConstraintSet::new();
        prefs.add(gap().le(2.0));
        let cohort: Vec<Job> = vec![
            john().into(),
            UserRequest {
                profile: LendingClubGenerator::john(),
                constraints: prefs.clone(),
                update_fn: None,
            }
            .into(),
            UserRequest::new(vec![40.0, 1.0, 30_000.0, 3_000.0, 10.0, 30_000.0]).into(),
        ];
        let batch = system.serve(&cohort, None).unwrap();
        assert_eq!(batch.len(), 3);
        for (job, batched) in cohort.iter().zip(&batch) {
            let serial = serve_alone(&system, job.clone()).unwrap();
            assert_eq!(
                candidate_fingerprints(batched),
                candidate_fingerprints(&serial)
            );
            assert_eq!(
                batched.db().row_count(crate::tables::CANDIDATES_TABLE).unwrap(),
                batched.candidates().len()
            );
        }
    }

    #[test]
    fn batch_constraint_overlays_do_not_leak_between_users() {
        use jit_constraints::builder::*;
        let system = trained(2);
        let mut capped = ConstraintSet::new();
        capped.add(gap().le(1.0));
        // Constrained user sandwiched between unconstrained ones.
        let requests: Vec<Job> = vec![
            john().into(),
            UserRequest {
                profile: LendingClubGenerator::john(),
                constraints: capped,
                update_fn: None,
            }
            .into(),
            john().into(),
        ];
        let batch = system.serve(&requests, None).unwrap();
        for c in batch[1].candidates() {
            assert!(c.gap <= 1, "user 1's gap cap violated: {}", c.gap);
        }
        // Users 0 and 2 are identical requests: same candidates, and the
        // middle user's cap must not have constrained them.
        assert_eq!(
            candidate_fingerprints(&batch[0]),
            candidate_fingerprints(&batch[2])
        );
        let unconstrained = serve_alone(&system, john()).unwrap();
        assert_eq!(
            candidate_fingerprints(&batch[0]),
            candidate_fingerprints(&unconstrained)
        );
    }

    #[test]
    fn batch_thread_counts_agree() {
        let (schema, slices) = lending_slices(250);
        let requests: Vec<Job> = vec![
            john().into(),
            UserRequest::new(vec![40.0, 1.0, 30_000.0, 3_000.0, 10.0, 30_000.0]).into(),
        ];
        let mut reference: Option<Vec<Fingerprint>> = None;
        for threads in [1usize, 2, 8] {
            let mut cfg = small_config(2);
            cfg.threads = threads;
            let system = JustInTime::train(cfg, &schema, &slices).unwrap();
            let batch = system.serve(&requests, None).unwrap();
            let prints: Vec<_> = batch.iter().map(candidate_fingerprints).collect();
            match &reference {
                None => reference = Some(prints),
                Some(r) => assert_eq!(&prints, r, "threads {threads}"),
            }
        }
    }

    #[test]
    fn reserve_with_no_drift_replays_every_time_point() {
        let system = trained(2);
        let cold = system.serve(&[john().into()], None).unwrap();
        let returning = ReturningUser::unchanged(cold[0].snapshot());
        let warm = system.serve(&[returning.into()], None).unwrap();
        assert_eq!(
            warm[0].reserve_report().unwrap(),
            &[TimePointServe::Replayed; 3][..]
        );
        assert_eq!(candidate_fingerprints(&warm[0]), candidate_fingerprints(&cold[0]));
        // The fresh session's database is fully rebuilt.
        assert_eq!(
            warm[0].db().row_count(crate::tables::CANDIDATES_TABLE).unwrap(),
            warm[0].candidates().len()
        );
        // And the replayed session snapshots identically to the cold one.
        assert_eq!(
            warm[0].snapshot().fingerprint_at(1),
            cold[0].snapshot().fingerprint_at(1)
        );
    }

    #[test]
    fn reserve_recomputes_only_changed_time_points() {
        use jit_constraints::builder::*;
        let system = trained(2);
        let prior = serve_alone(&system, john()).unwrap().snapshot();
        // The user comes back with a new preference scoped to t = 1 only:
        // t = 0 and t = 2 replay, t = 1 re-runs under the new overlay.
        let returning = system
            .session_builder(&LendingClubGenerator::john())
            .constraint_at(1, gap().le(1.0))
            .build_returning(prior);
        let warm = serve_alone(&system, returning.clone()).unwrap();
        assert_eq!(
            warm.reserve_report().unwrap(),
            &[
                TimePointServe::Replayed,
                TimePointServe::Recomputed,
                TimePointServe::Replayed,
            ][..]
        );
        // Bit-identical to serving the new request cold.
        let cold = serve_alone(&system, returning.request).unwrap();
        assert_eq!(candidate_fingerprints(&warm), candidate_fingerprints(&cold));
        assert!(warm
            .candidates()
            .iter()
            .filter(|c| c.time_index == 1)
            .all(|c| c.gap <= 1));
    }

    #[test]
    fn reserve_under_full_drift_recomputes_everything_bit_identically() {
        let (schema, slices) = lending_slices(250);
        let before = JustInTime::train(small_config(2), &schema, &slices[..4]).unwrap();
        let prior = serve_alone(&before, john()).unwrap().snapshot();
        // Retrain on the full history: every model changes, so every time
        // point must recompute — and match the drifted system's cold
        // serve exactly.
        let after = JustInTime::train(small_config(2), &schema, &slices).unwrap();
        let warm = serve_alone(&after, ReturningUser::unchanged(prior)).unwrap();
        assert_eq!(
            warm.reserve_report().unwrap(),
            &[TimePointServe::Recomputed; 3][..]
        );
        let cold = serve_alone(&after, john()).unwrap();
        assert_eq!(candidate_fingerprints(&warm), candidate_fingerprints(&cold));
    }

    #[test]
    fn reserve_errors_mirror_serve_errors() {
        use jit_constraints::builder::*;
        let system = trained(1);
        let prior = serve_alone(&system, john()).unwrap().snapshot();
        let mut bad = ConstraintSet::new();
        bad.add(feature("fico_score").ge(700.0));
        let returning = ReturningUser::with_request(
            prior,
            UserRequest {
                profile: LendingClubGenerator::john(),
                constraints: bad,
                update_fn: None,
            },
        );
        let err = system.serve(&[returning.into()], None).unwrap_err();
        assert_eq!(err.user, 0);
        assert!(
            matches!(err.error, SessionError::UnknownFeature(ref f) if f == "fico_score")
        );
    }

    #[test]
    fn batch_error_reports_failing_user() {
        use jit_constraints::builder::*;
        let system = trained(1);
        let mut bad = ConstraintSet::new();
        bad.add(feature("fico_score").ge(700.0));
        let requests: Vec<Job> = vec![
            john().into(),
            UserRequest {
                profile: LendingClubGenerator::john(),
                constraints: bad,
                update_fn: None,
            }
            .into(),
        ];
        let err = system.serve(&requests, None).unwrap_err();
        assert_eq!(err.user, 1);
        assert!(
            matches!(err.error, SessionError::UnknownFeature(ref f) if f == "fico_score")
        );
        // Dimension errors surface the same way.
        let err =
            system.serve(&[UserRequest::new(vec![1.0]).into()], None).unwrap_err();
        assert_eq!(err.user, 0);
        assert!(matches!(
            err.error,
            SessionError::DimensionMismatch { expected: 6, found: 1 }
        ));
        // Empty batches are fine.
        assert!(system.serve(&[], None).unwrap().is_empty());
    }

    #[test]
    fn session_builder_overrides_flow_through() {
        use jit_constraints::builder::*;
        use jit_temporal::update::Override;
        let system = trained(2);
        let request = system
            .session_builder(&LendingClubGenerator::john())
            .constraint(gap().le(1.0))
            .override_feature("debt", Override::Trajectory(vec![1_000.0, 0.0]))
            .build();
        let session = serve_alone(&system, request).unwrap();
        assert!(session.candidates().iter().all(|c| c.gap <= 1));
        assert_eq!(session.temporal_inputs()[1][3], 1_000.0);
        assert_eq!(session.temporal_inputs()[2][3], 0.0);
    }

    #[test]
    fn dimension_errors() {
        let system = trained(1);
        let err = serve_alone(&system, UserRequest::new(vec![1.0, 2.0])).unwrap_err();
        assert!(matches!(
            err,
            SessionError::DimensionMismatch { expected: 6, found: 2 }
        ));
        // An update function built for another schema: a typed error from
        // serving and from planning a re-serve, not a projection panic.
        let narrow = FeatureSchema::new(system.schema().features()[..2].to_vec());
        let mut request = john();
        request.update_fn = Some(TemporalUpdateFn::from_schema(&narrow));
        let err = serve_alone(&system, request.clone()).unwrap_err();
        assert!(matches!(
            err,
            SessionError::DimensionMismatch { expected: 6, found: 2 }
        ));
        let prior = serve_alone(&system, john()).unwrap().snapshot();
        let err = system
            .reserve_plan(&ReturningUser::with_request(prior, request))
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::DimensionMismatch { expected: 6, found: 2 }
        ));
    }

    #[test]
    fn unknown_feature_in_user_constraints() {
        use jit_constraints::builder::*;
        let system = trained(1);
        let mut request = john();
        request.constraints.add(feature("fico_score").ge(700.0));
        let err = serve_alone(&system, request).unwrap_err();
        assert!(matches!(err, SessionError::UnknownFeature(f) if f == "fico_score"));
    }

    #[test]
    fn custom_update_fn_respected() {
        use jit_temporal::update::Override;
        let system = trained(2);
        let mut request = john();
        let mut update = system.default_update_fn();
        update.override_feature("debt", Override::Trajectory(vec![1_000.0, 0.0]));
        request.update_fn = Some(update);
        let session = serve_alone(&system, request).unwrap();
        assert_eq!(session.temporal_inputs()[1][3], 1_000.0);
        assert_eq!(session.temporal_inputs()[2][3], 0.0);
    }

    /// Which time points have a built hints slot.
    fn built_slots(system: &JustInTime) -> Vec<bool> {
        system.hints.iter().map(|slot| slot.get().is_some()).collect()
    }

    #[test]
    fn replay_only_batches_build_no_hints() {
        let (schema, slices) = lending_slices(250);
        let system = JustInTime::train(small_config(2), &schema, &slices).unwrap();
        let prior = serve_alone(&system, john()).unwrap().snapshot();
        // An identical retrain is a fresh generation whose fingerprints
        // all match, so the returning user replays every time point.
        let fresh = system.retrain(&slices).unwrap();
        assert_eq!(built_slots(&fresh), vec![false; 3]);
        let warm = serve_alone(&fresh, ReturningUser::unchanged(prior)).unwrap();
        assert_eq!(warm.reserve_report().unwrap(), &[TimePointServe::Replayed; 3][..]);
        assert_eq!(built_slots(&fresh), vec![false; 3], "replay must build nothing");
    }

    #[test]
    fn cold_serves_share_one_built_slot_per_time_point() {
        let system = trained(2);
        assert_eq!(built_slots(&system), vec![false; 3]);
        serve_alone(&system, john()).unwrap();
        assert_eq!(built_slots(&system), vec![true; 3]);
        let addresses =
            |system: &JustInTime| -> Vec<(*const f64, *const CompiledForest)> {
                system
                    .hints
                    .iter()
                    .map(|slot| match slot.get() {
                        Some(ModelHints::Thresholds {
                            per_feature,
                            forest: Some(forest),
                        }) => (per_feature[0].as_ptr(), Arc::as_ptr(forest)),
                        other => {
                            panic!("every t of a forest system compiles: {other:?}")
                        }
                    })
                    .collect()
            };
        let first = addresses(&system);
        serve_alone(
            &system,
            UserRequest::new(vec![40.0, 1.0, 30_000.0, 3_000.0, 10.0, 30_000.0]),
        )
        .unwrap();
        assert_eq!(addresses(&system), first, "a second serve must reuse the slots");
    }

    #[test]
    fn pinned_retrain_never_keeps_a_stale_slot() {
        let (schema, slices) = lending_slices(250);
        let before = JustInTime::train(small_config(2), &schema, &slices[..4]).unwrap();
        serve_alone(&before, john()).unwrap();
        assert_eq!(built_slots(&before), vec![true; 3]);
        let pinned = [true, false, true];
        let after = before.retrain_pinned(&slices, &pinned).unwrap();
        assert!(after.drifted_time_points(&before)[1], "t = 1 must have drifted");
        // Pinned slots arrive built with their models; the drifted one
        // waits for its first search.
        assert_eq!(built_slots(&after), pinned.to_vec());
        let check = |system: &JustInTime| {
            for (t, slot) in system.hints.iter().enumerate() {
                if let Some(hints) = slot.get() {
                    assert_eq!(
                        hints,
                        &system.models[t].model.hints(),
                        "stale slot at t = {t}"
                    );
                }
            }
        };
        check(&after);
        serve_alone(&after, john()).unwrap();
        assert_eq!(built_slots(&after), vec![true; 3]);
        check(&after);
    }

    #[test]
    fn present_decision_rejects_john() {
        let system = trained(1);
        let session = serve_alone(&system, john()).unwrap();
        let (conf, approved) = session.present_decision();
        assert!((0.0..=1.0).contains(&conf));
        assert!(!approved, "John should start rejected (conf {conf})");
    }
}
