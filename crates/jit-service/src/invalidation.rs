//! The recourse-invalidation harness: how many served insights does
//! model drift overturn?
//!
//! "Time Can Invalidate Algorithmic Recourse" (PAPERS.md) asks the
//! question this module measures end to end: serve a cohort its
//! temporal insights at time *t*, let the models advance along the
//! scenario's drift schedule (retraining on a sliding history window),
//! re-serve the same cohort, and classify every `(user, time point)`
//! pair:
//!
//! * **replayed** — the time point's model fingerprint did not change,
//!   so incremental re-serving replayed the stored insight untouched
//!   (it provably still holds, bit for bit);
//! * **surviving** — the fingerprint changed and the time point was
//!   recomputed, but the recomputed candidates are identical to the
//!   served ones — drift happened, the advice survived it;
//! * **overturned** — the recomputation produced different candidates:
//!   the advice the user walked away with is no longer what the system
//!   would say today.
//!
//! The harness drives the real serving stack — [`ShardedService`] over
//! per-shard snapshot stores, [`ServeRequest::Batch`] for the first
//! visit, [`ServeRequest::Refresh`] after each retrain — so its numbers
//! are the production path's numbers, and its [`InvalidationRun`]
//! carries a content digest making whole runs comparable across thread
//! counts, shard counts and processes.

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::api::{CohortMember, ServeError, ServeRequest};
use crate::sharded::ShardedService;
use crate::store::{MemorySnapshotStore, SnapshotStore};
use jit_core::{
    AdminConfig, JustInTime, TimePointServe, TrainError, UserRequest, UserSession,
};
use jit_data::scenario::Workload;
use jit_math::digest::{Digest, DigestWriter};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Everything the harness can fail with.
#[derive(Debug)]
pub enum InvalidationError {
    /// A (re)train failed.
    Train(TrainError),
    /// A serve or refresh failed.
    Serve(ServeError),
}

impl fmt::Display for InvalidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidationError::Train(e) => write!(f, "training failed: {e}"),
            InvalidationError::Serve(e) => write!(f, "serving failed: {e}"),
        }
    }
}

impl std::error::Error for InvalidationError {}

impl From<TrainError> for InvalidationError {
    fn from(e: TrainError) -> Self {
        InvalidationError::Train(e)
    }
}

impl From<ServeError> for InvalidationError {
    fn from(e: ServeError) -> Self {
        InvalidationError::Serve(e)
    }
}

/// Harness knobs. The workload itself (cohort sizes, drift schedule,
/// horizon) comes from the [`Workload`]; these options say how to *run*
/// it.
#[derive(Clone, Debug)]
pub struct InvalidationOptions {
    /// Training/search configuration. `horizon` and `start_year` are
    /// overwritten from the workload; everything else (forest size,
    /// beam widths, thread counts) is the caller's scale choice.
    pub config: AdminConfig,
    /// Shard count of the serving tier.
    pub shards: usize,
    /// Dispatcher threads (`0` = one per core).
    pub dispatch_threads: usize,
    /// Users per [`ServeRequest`] — bounds peak memory at population
    /// scale without changing any output (serving is bit-identical for
    /// any batching).
    pub batch: usize,
    /// Run a step-0 control refresh before any drift: with unchanged
    /// models every time point must replay, which asserts end-to-end
    /// determinism of generation + serving + stores at cohort scale.
    pub control_refresh: bool,
}

impl Default for InvalidationOptions {
    fn default() -> Self {
        InvalidationOptions {
            config: AdminConfig::default(),
            shards: 4,
            dispatch_threads: 0,
            batch: 512,
            control_refresh: true,
        }
    }
}

/// Per-cohort classification counts for one drift step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CohortInvalidation {
    /// Cohort name (from the scenario's cohort mix).
    pub cohort: String,
    /// Members refreshed.
    pub users: usize,
    /// `(user, t)` pairs replayed from snapshots (fingerprint match).
    pub replayed: usize,
    /// Pairs recomputed with different candidates — invalidated advice.
    pub overturned: usize,
    /// Pairs recomputed to bit-identical candidates.
    pub surviving: usize,
}

impl CohortInvalidation {
    /// Total `(user, time point)` pairs classified.
    pub fn time_points(&self) -> usize {
        self.replayed + self.overturned + self.surviving
    }
}

/// One drift step's invalidation report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidationReport {
    /// Drift step (1-based; step 0 is the initial serve).
    pub step: usize,
    /// How many of the `T + 1` time points' model fingerprints changed
    /// in this retrain ([`JustInTime::drifted_time_points`]).
    pub drifted_models: usize,
    /// Per-cohort classification, in cohort order.
    pub cohorts: Vec<CohortInvalidation>,
}

impl InvalidationReport {
    /// Sum of replayed pairs across cohorts.
    pub fn replayed(&self) -> usize {
        self.cohorts.iter().map(|c| c.replayed).sum()
    }

    /// Sum of overturned pairs across cohorts.
    pub fn overturned(&self) -> usize {
        self.cohorts.iter().map(|c| c.overturned).sum()
    }

    /// Sum of surviving pairs across cohorts.
    pub fn surviving(&self) -> usize {
        self.cohorts.iter().map(|c| c.surviving).sum()
    }

    /// Total `(user, time point)` pairs classified.
    pub fn time_points(&self) -> usize {
        self.replayed() + self.overturned() + self.surviving()
    }
}

impl fmt::Display for InvalidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "drift step {}: {} models drifted; {} replayed / {} overturned / \
             {} surviving of {} time points",
            self.step,
            self.drifted_models,
            self.replayed(),
            self.overturned(),
            self.surviving(),
            self.time_points(),
        )?;
        for c in &self.cohorts {
            writeln!(
                f,
                "  cohort {:<12} ({} users): {} replayed / {} overturned / \
                 {} surviving",
                c.cohort, c.users, c.replayed, c.overturned, c.surviving,
            )?;
        }
        Ok(())
    }
}

/// The whole run: one report per drift step plus a content digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidationRun {
    /// Workload name.
    pub scenario: String,
    /// Users served.
    pub users: usize,
    /// Serving horizon `T`.
    pub horizon: usize,
    /// Replayed count of the step-0 control refresh (must equal
    /// `users * (T + 1)`), when the control ran.
    pub control_replayed: Option<usize>,
    /// Per-step reports, steps `1..`.
    pub reports: Vec<InvalidationReport>,
    /// Digest over every count and every user's final per-time-point
    /// candidate fingerprints: two runs agree on it exactly when they
    /// served and classified identically, bit for bit.
    pub digest: Digest,
}

impl InvalidationRun {
    /// Renders the run as the stable JSON document `jit-scenariorun`
    /// emits and `--check` compares against.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str(&format!("  \"scenario\": {:?},\n", self.scenario));
        out.push_str(&format!("  \"users\": {},\n", self.users));
        out.push_str(&format!("  \"horizon\": {},\n", self.horizon));
        match self.control_replayed {
            Some(n) => {
                out.push_str(&format!("  \"control_replayed\": {n},\n"));
            }
            None => out.push_str("  \"control_replayed\": null,\n"),
        }
        out.push_str("  \"steps\": [\n");
        for (i, r) in self.reports.iter().enumerate() {
            // The step-level counts stay ahead of the nested cohort
            // objects: `--check` scans brace-delimited fragments for the
            // `"step"` key, and reordering would feed it cohort counts.
            out.push_str(&format!(
                "    {{ \"step\": {}, \"drifted_models\": {}, \"replayed\": {}, \
                 \"overturned\": {}, \"surviving\": {},\n",
                r.step,
                r.drifted_models,
                r.replayed(),
                r.overturned(),
                r.surviving(),
            ));
            out.push_str("      \"cohorts\": [\n");
            for (j, c) in r.cohorts.iter().enumerate() {
                out.push_str(&format!(
                    "        {{ \"cohort\": {:?}, \"users\": {}, \"replayed\": {}, \
                     \"overturned\": {}, \"surviving\": {} }}{}\n",
                    c.cohort,
                    c.users,
                    c.replayed,
                    c.overturned,
                    c.surviving,
                    if j + 1 < r.cohorts.len() { "," } else { "" },
                ));
            }
            out.push_str(&format!(
                "      ] }}{}\n",
                if i + 1 < self.reports.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"digest\": {:?}\n", self.digest.to_hex()));
        out.push('}');
        out
    }
}

impl fmt::Display for InvalidationRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invalidation run: scenario {:?}, {} users, horizon {}",
            self.scenario, self.users, self.horizon,
        )?;
        if let Some(n) = self.control_replayed {
            writeln!(f, "control refresh (no drift): {n} time points replayed")?;
        }
        for r in &self.reports {
            write!(f, "{r}")?;
        }
        write!(f, "run digest: {}", self.digest.to_hex())
    }
}

/// Per-time-point candidate fingerprints of one served session: the
/// "insight" identity the harness diffs across retrains. Uses the same
/// domain-separated digesting as the engine's model fingerprints.
/// Public so external harnesses (the perf snapshot, custom drivers) can
/// classify refreshes exactly the way [`run_invalidation`] does.
pub fn insight_digests(session: &UserSession<'_>, horizon: usize) -> Vec<Digest> {
    let mut writers: Vec<DigestWriter> =
        (0..=horizon).map(|_| DigestWriter::new("jit-service/insight")).collect();
    for c in session.candidates() {
        let w = &mut writers[c.time_index];
        w.write_f64s(&c.profile);
        w.write_f64(c.diff);
        w.write_usize(c.gap);
        w.write_f64(c.confidence);
    }
    writers.into_iter().map(DigestWriter::finish).collect()
}

/// Runs the full harness over `workload`; see the module docs for the
/// protocol and the classification semantics.
///
/// # Errors
/// [`InvalidationError`] on any train or serve failure; the harness
/// never partially succeeds silently.
#[allow(clippy::expect_used)] // refreshed sessions always carry a reserve report
pub fn run_invalidation(
    workload: &Workload,
    opts: &InvalidationOptions,
) -> Result<InvalidationRun, InvalidationError> {
    let schema = workload.schema();
    let mut config = opts.config.clone();
    config.horizon = workload.horizon();
    config.start_year = workload.start_year();
    let gen_threads = config.threads;
    let horizon = config.horizon;

    // Train the step-0 system and generate the cohort.
    let mut system = Arc::new(JustInTime::train(
        config,
        &schema,
        &workload.history(0, gen_threads),
    )?);
    let cohort = workload.cohort(gen_threads);
    let cohort_names: Vec<String> = {
        let mut names = Vec::new();
        for user in &cohort {
            if names.last().map(String::as_str) != Some(user.cohort.as_str()) {
                names.push(user.cohort.clone());
            }
        }
        names
    };
    let cohort_index: HashMap<&str, usize> =
        cohort_names.iter().enumerate().map(|(i, name)| (name.as_str(), i)).collect();

    // One store per shard, shared across every service generation so
    // refreshes after a retrain see the previously served snapshots.
    let stores: Vec<Arc<dyn SnapshotStore>> = (0..opts.shards.max(1))
        .map(|_| Arc::new(MemorySnapshotStore::new()) as Arc<dyn SnapshotStore>)
        .collect();
    let mut service = ShardedService::from_shared(
        Arc::clone(&system),
        stores.len(),
        opts.dispatch_threads,
        |s| Arc::clone(&stores[s]),
    );

    // First visit: serve the whole cohort in batches, recording every
    // session's per-time-point insight fingerprints.
    let mut insights: HashMap<String, Vec<Digest>> =
        HashMap::with_capacity(cohort.len());
    let batch = opts.batch.max(1);
    for chunk in cohort.chunks(batch) {
        let members: Vec<CohortMember> = chunk
            .iter()
            .map(|u| CohortMember::new(&u.user_id, UserRequest::new(u.profile.clone())))
            .collect();
        let response = service.serve(ServeRequest::batch(members))?;
        for served in &response.users {
            insights.insert(
                served.user_id.clone(),
                insight_digests(&served.session, horizon),
            );
        }
    }

    // Optional control: refreshing with unchanged models must replay
    // every single time point.
    let control_replayed = if opts.control_refresh {
        let mut replayed = 0;
        for chunk in cohort.chunks(batch) {
            let ids = chunk.iter().map(|u| u.user_id.clone());
            let response = service.serve(ServeRequest::refresh(ids))?;
            replayed += response.report.replayed_time_points;
        }
        Some(replayed)
    } else {
        None
    };

    // Advance the drift schedule: retrain (pinning any time points the
    // scenario shields from drift, so reports exercise the replayed /
    // surviving middle ground), rebuild the serving tier over the same
    // stores — carrying each shard's cell cache so surviving models
    // keep their warm cells — then refresh and classify.
    let pinned_count = workload.pinned_time_points().min(horizon + 1);
    let pinned: Vec<bool> = (0..=horizon).map(|t| t < pinned_count).collect();
    let mut reports = Vec::with_capacity(workload.drift_steps());
    for step in 1..=workload.drift_steps() {
        let next = Arc::new(
            system.retrain_pinned(&workload.history(step, gen_threads), &pinned)?,
        );
        let drifted_models =
            next.drifted_time_points(&system).iter().filter(|d| **d).count();
        service = ShardedService::next_generation(
            Arc::clone(&next),
            opts.dispatch_threads,
            &service,
        );
        let mut cohorts: Vec<CohortInvalidation> = cohort_names
            .iter()
            .map(|name| CohortInvalidation {
                cohort: name.clone(),
                users: 0,
                replayed: 0,
                overturned: 0,
                surviving: 0,
            })
            .collect();
        for chunk in cohort.chunks(batch) {
            let ids = chunk.iter().map(|u| u.user_id.clone());
            let response = service.serve(ServeRequest::refresh(ids))?;
            for (member, served) in chunk.iter().zip(&response.users) {
                let counts = &mut cohorts[cohort_index[member.cohort.as_str()]];
                counts.users += 1;
                let fresh = insight_digests(&served.session, horizon);
                let prior = &insights[&served.user_id];
                let report = served
                    .session
                    .reserve_report()
                    // jit-analyze: allow(no-panic-paths) — serve(Refresh) recomputes every session, and recomputed sessions always carry a reserve report
                    .expect("refreshed sessions always carry a reserve report");
                for (t, tp) in report.iter().enumerate() {
                    match tp {
                        TimePointServe::Replayed => counts.replayed += 1,
                        TimePointServe::Recomputed => {
                            if fresh[t] == prior[t] {
                                counts.surviving += 1;
                            } else {
                                counts.overturned += 1;
                            }
                        }
                    }
                }
                insights.insert(served.user_id.clone(), fresh);
            }
        }
        reports.push(InvalidationReport { step, drifted_models, cohorts });
        system = next;
    }

    // Content digest: workload identity, every count, and every user's
    // final insight fingerprints in cohort order.
    let digest = {
        let mut w = DigestWriter::new("jit-service/invalidation-run");
        w.write_digest(workload.content_digest());
        w.write_usize(cohort.len());
        w.write_usize(horizon);
        if let Some(n) = control_replayed {
            w.write_usize(n);
        }
        for r in &reports {
            w.write_usize(r.step);
            w.write_usize(r.drifted_models);
            for c in &r.cohorts {
                w.write_str(&c.cohort);
                w.write_usize(c.users);
                w.write_usize(c.replayed);
                w.write_usize(c.overturned);
                w.write_usize(c.surviving);
            }
        }
        for user in &cohort {
            w.write_str(&user.user_id);
            for d in &insights[&user.user_id] {
                w.write_digest(*d);
            }
        }
        w.finish()
    };

    Ok(InvalidationRun {
        scenario: workload.name().to_string(),
        users: cohort.len(),
        horizon,
        control_replayed,
        reports,
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_core::CandidateParams;
    use jit_data::scenario::{LendingClubScenario, ScenarioSpec};
    use jit_data::LendingClubParams;
    use jit_ml::RandomForestParams;
    use jit_temporal::future::FutureModelsParams;

    fn tiny_config() -> AdminConfig {
        AdminConfig {
            future: FutureModelsParams {
                n_landmarks: 30,
                pool_slices: 3,
                forest: RandomForestParams { n_trees: 6, ..Default::default() },
                ..Default::default()
            },
            candidates: CandidateParams {
                beam_width: 4,
                max_iters: 3,
                top_k: 4,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn tiny_workload() -> Workload {
        Workload::Synthetic(
            ScenarioSpec::credit(7)
                .with_rows_per_slice(240)
                .with_cohort_size(12)
                .with_drift_steps(1),
        )
    }

    #[test]
    fn control_refresh_replays_everything_and_counts_balance() {
        let workload = tiny_workload();
        let opts = InvalidationOptions { config: tiny_config(), ..Default::default() };
        let run = run_invalidation(&workload, &opts).unwrap();
        let pairs = run.users * (run.horizon + 1);
        assert_eq!(run.control_replayed, Some(pairs));
        assert_eq!(run.reports.len(), 1);
        let step = &run.reports[0];
        assert_eq!(step.time_points(), pairs);
        // The sliding window retrains on genuinely different data, so
        // drift must be visible both in the models and the insights.
        assert!(step.drifted_models > 0);
        assert!(step.overturned() + step.surviving() > 0);
    }

    #[test]
    fn run_is_identical_across_shard_and_thread_counts() {
        let workload = tiny_workload();
        let base = InvalidationOptions { config: tiny_config(), ..Default::default() };
        let mut serial = base.clone();
        serial.shards = 1;
        serial.dispatch_threads = 1;
        serial.config.threads = 1;
        serial.batch = 5;
        let mut wide = base.clone();
        wide.shards = 3;
        wide.dispatch_threads = 2;
        wide.config.threads = 2;
        let a = run_invalidation(&workload, &serial).unwrap();
        let b = run_invalidation(&workload, &wide).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lendingclub_workload_runs_end_to_end() {
        let workload = Workload::LendingClub(LendingClubScenario {
            params: LendingClubParams { records_per_year: 160, ..Default::default() },
            horizon: 2,
            drift_steps: 1,
            cohort_size: 8,
        });
        let opts = InvalidationOptions {
            config: tiny_config(),
            shards: 2,
            ..Default::default()
        };
        let run = run_invalidation(&workload, &opts).unwrap();
        assert_eq!(run.users, 8);
        assert_eq!(run.control_replayed, Some(8 * 3));
        assert_eq!(run.reports[0].time_points(), 8 * 3);
    }
}
