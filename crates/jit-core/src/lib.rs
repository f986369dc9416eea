//! # jit-core
//!
//! The JustInTime system: "a novel framework that provides users with
//! insights and plans for changing their classification in particular
//! future time points" (paper abstract). This crate wires the substrates
//! together:
//!
//! * [`candidates`] — the adapted Deutch–Frost counterfactual search:
//!   an iterative beam search with model-dependent move proposers,
//!   multiple objectives (`diff`, `gap`, `confidence`) and a diverse
//!   top-k selection (§II-A), driven by the stateful
//!   [`candidates::TimelineSearch`] engine that carries warm state
//!   across the time points of a user's timeline.
//! * [`baselines`] — random-search and greedy coordinate-descent
//!   counterfactual baselines for experiment E6.
//! * [`tables`] — materializes the `temporal_inputs` and `candidates`
//!   relational tables in [`jit_db::Database`] (§II-B).
//! * [`queries`] — the canned questions of the intro, each translated to
//!   the SQL of Figure 2.
//! * [`insights`] — renders query results as the verbal insights of the
//!   *Plans and Insights* screen (Figure 3b).
//! * [`pipeline`] — the [`pipeline::JustInTime`] façade: admin
//!   configuration, model training, and one serving entry point,
//!   [`pipeline::JustInTime::serve`]. It serves a batch of
//!   [`pipeline::Job`]s with parallel per-user or per-time-point
//!   candidate generation, and re-serves returning users incrementally
//!   under model drift by diffing the fingerprints of their prior
//!   [`pipeline::SessionSnapshot`] (see
//!   [`pipeline::UserSession::snapshot`]).

#![forbid(unsafe_code)]

pub mod baselines;
pub mod candidates;
pub mod insights;
pub mod pipeline;
pub mod queries;
pub mod tables;

pub use candidates::{
    Candidate, CandidateParams, CandidatesGenerator, Objective, SharedCellCache,
    TimelineSearch,
};
pub use insights::Insight;
pub use pipeline::{
    AdminConfig, BatchError, Job, JustInTime, ReturningUser, SessionBuilder,
    SessionError, SessionSnapshot, TimePointServe, TrainError, UserRequest,
    UserSession,
};
pub use queries::CannedQuery;
