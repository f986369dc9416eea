//! # justintime
//!
//! A from-scratch Rust reproduction of **JustInTime** — *"Just in Time:
//! Personal Temporal Insights for Altering Model Decisions"* (Boer,
//! Deutch, Frost, Milo; ICDE 2019, DOI 10.1109/ICDE.2019.00221).
//!
//! JustInTime answers the question every rejected loan applicant asks:
//! *what should I change — and when should I reapply — to get approved?*
//! Unlike single-shot counterfactual explainers, it accounts for the fact
//! that both the applicant's profile **and the bank's model** evolve over
//! time.
//!
//! ## Quickstart
//!
//! ```no_run
//! use justintime::prelude::*;
//!
//! // 1. Synthetic Lending-Club-like history, 2007-2018, with drift.
//! let gen = LendingClubGenerator::with_defaults();
//! let slices: Vec<Dataset> = gen
//!     .years()
//!     .into_iter()
//!     .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
//!     .collect();
//!
//! // 2. Admin trains the system: future models (M_t, delta_t), t = 0..=T.
//! let system =
//!     JustInTime::train(AdminConfig::default(), gen.schema(), &slices).unwrap();
//!
//! // 3. A rejected applicant is served with their preferences.
//! let mut request = UserRequest::new(LendingClubGenerator::john());
//! request
//!     .constraints
//!     .add(jit_constraints::parse_constraint("income <= 60000 and gap <= 2").unwrap());
//! let sessions = system.serve(&[Job::from(request)], None).unwrap();
//!
//! // 4. Canned questions, answered from the candidates database.
//! for insight in sessions[0].run_all().unwrap() {
//!     println!("{insight}");
//! }
//!
//! // 5. Serving at scale: the jit-service front end adds typed
//! //    requests/errors, snapshot stores and an in-process sharded
//! //    dispatcher (bit-identical to `JustInTime::serve` above; see
//! //    `examples/service_front_end.rs`).
//! let service = JitService::in_memory(system);
//! let cohort = vec![
//!     CohortMember::new("john", UserRequest::new(LendingClubGenerator::john())),
//!     CohortMember::new(
//!         "jane",
//!         service
//!             .system()
//!             .session_builder(&LendingClubGenerator::john())
//!             .constraint(gap().le(2.0))
//!             .build(),
//!     ),
//! ];
//! let response = service.serve(ServeRequest::batch(cohort)).unwrap();
//! for user in &response.users {
//!     println!("{}: {} candidates", user.user_id, user.session.candidates().len());
//! }
//!
//! // 6. Returning users: every served session was snapshotted into the
//! //    service's store, so when users come back — after any amount of
//! //    retraining — refresh them by id. Time points whose fingerprints
//! //    are unchanged replay from the stored snapshot; only drifted
//! //    ones recompute (bit-identical to a cold serve; persist the
//! //    store through jit-db via `DbSnapshotStore` to survive restarts).
//! let refreshed = service.serve(ServeRequest::refresh(["john", "jane"])).unwrap();
//! println!("{}", refreshed.report);
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`jit_math`] | vectors, matrices, Cholesky/ridge, kernels, RNG, content digests |
//! | [`jit_runtime`] | deterministic scoped thread pool for training |
//! | [`jit_ml`] | decision trees, random forests, logistic regression, metrics |
//! | [`jit_data`] | feature schema, drifting Lending-Club generator, scenario registry + deterministic synthetic populations |
//! | [`jit_constraints`] | the constraints language (diff/gap/confidence), compiled-domain cache |
//! | [`jit_temporal`] | temporal update fns, EDD future-model prediction |
//! | [`jit_db`] | in-memory SQL engine (Figure 2 queries run verbatim) |
//! | [`jit_core`] | timeline-aware candidates search, canned queries, insights, pipeline, batch + incremental serving |
//! | [`jit_service`] | the serving front end: typed request/response API, snapshot stores, sharded dispatcher |

#![forbid(unsafe_code)]

pub use jit_constraints;
pub use jit_core;
pub use jit_data;
pub use jit_db;
pub use jit_math;
pub use jit_ml;
pub use jit_runtime;
pub use jit_service;
pub use jit_temporal;

/// One-stop imports for applications.
pub mod prelude {
    pub use jit_constraints::builder::{confidence, constant, diff, feature, gap};
    pub use jit_constraints::{
        parse_constraint, CompiledDomain, Constraint, ConstraintSet,
    };
    pub use jit_core::{
        AdminConfig, BatchError, CandidateParams, CannedQuery, Insight, Job,
        JustInTime, Objective, ReturningUser, SessionBuilder, SessionSnapshot,
        SharedCellCache, TimePointServe, TimelineSearch, UserRequest, UserSession,
    };
    pub use jit_data::{
        CohortFilter, CohortSpec, CohortUser, DriftSchedule, FeatureSchema,
        LendingClubGenerator, LendingClubParams, LendingClubScenario, LoanRecord,
        ScenarioRegistry, ScenarioSpec, SyntheticFeature, SyntheticGenerator, Workload,
    };
    pub use jit_db::{Database, ResultSet, Value};
    pub use jit_math::digest::{Digest, DigestWriter};
    pub use jit_ml::{Dataset, Model, RandomForest, RandomForestParams};
    pub use jit_service::{
        locate_shardd, run_invalidation, shard_index, CohortInvalidation, CohortMember,
        DataSpec, DbSnapshotStore, InvalidationError, InvalidationOptions,
        InvalidationReport, InvalidationRun, JitService, LoadMode, LoadPlan,
        LoadReport, MemorySnapshotStore, NetClient, NetServer, NetServerConfig,
        ProcessShardBackend, ProcessShardConfig, RefreshAheadOptions,
        RefreshAheadReport, ReturningMember, ServeBackend, ServeError, ServeReport,
        ServeRequest, ServeResponse, ServedUser, ServerStats, ShardHealth, ShardReport,
        ShardedService, SnapshotStore, StoreError, TrainSpec, WireReport, WireResponse,
    };
    pub use jit_temporal::future::{FutureModelsParams, FuturePredictor};
    pub use jit_temporal::update::{Override, TemporalUpdateFn};
}
