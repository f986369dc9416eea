//! Fingerprint-driven proactive re-serving (**refresh-ahead**).
//!
//! After a retrain, returning users whose snapshots reference drifted
//! models pay a cold recompute on their next visit. Refresh-ahead moves
//! that cost off the request path: scan the snapshot store, plan each
//! user's re-serve from fingerprints alone ([`JustInTime::reserve_plan`]
//! — no search runs during the scan), and re-serve the stale users in
//! rate-limited batches through the ordinary [`ServeRequest::Refresh`]
//! path. Because the refresh pass *is* the on-demand path, the stored
//! snapshots — and any later on-demand re-serve — are byte-identical to
//! what a returning user would have produced themselves; the only
//! observable difference is that the returning user now replays every
//! time point ([`crate::ServeReport::cold_time_points`] and
//! [`crate::ServeReport::recomputed_time_points`] both zero).
//!
//! The scan is deterministic: [`crate::SnapshotStore::user_ids`] is
//! sorted, staleness is a pure function of stored fingerprints, and
//! batches are formed in id order. [`RefreshAheadReport`] is operator
//! telemetry only — it never enters a [`crate::ServeReport`] or crosses
//! the wire, so serving output stays bit-identical whether or not
//! refresh-ahead ran.
//!
//! One caveat: a snapshot time point with no fingerprint (a model that
//! does not expose [`jit_ml::ModelHints`] digests) can never be proven
//! fresh, so such users are re-refreshed on every pass rather than
//! settling into the `fresh` count.

// Serve path: panics are denied outright here (tests and the few
// fn-level reasoned allows excepted) — store failures must surface as
// typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::api::{ServeError, ServeRequest};
use crate::service::JitService;
use crate::sharded::{load_prior, ShardedService};
use crate::store::retry_transient;
use jit_core::{JustInTime, ReturningUser, TimePointServe};
use std::fmt;

/// Tuning for one refresh-ahead pass.
#[derive(Debug, Clone, Copy)]
pub struct RefreshAheadOptions {
    /// Users re-served per [`ServeRequest::Refresh`] batch — the rate
    /// limit: each batch bounds the working set (and, behind a sharded
    /// dispatcher, the per-shard burst) of the background pass.
    pub batch: usize,
    /// Cap on users refreshed in this pass (per shard when driven
    /// through [`ShardedService::refresh_ahead`]); stale users beyond
    /// the cap are counted as `deferred` and picked up by the next
    /// pass. `None` refreshes every stale user.
    pub max_users: Option<usize>,
}

impl Default for RefreshAheadOptions {
    fn default() -> Self {
        RefreshAheadOptions { batch: 256, max_users: None }
    }
}

/// What one refresh-ahead pass did. Operator telemetry only: these
/// counts never enter a [`crate::ServeReport`] or the wire protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshAheadReport {
    /// Snapshots examined (every stored user, in sorted id order).
    pub scanned: usize,
    /// Users whose every fingerprinted time point matched the current
    /// models — left untouched.
    pub fresh: usize,
    /// Users re-served by this pass.
    pub refreshed: usize,
    /// Stale users left for a later pass ([`RefreshAheadOptions::max_users`]).
    pub deferred: usize,
    /// Time points whose model fingerprint changed in the retrain
    /// (diffed once per pass via [`JustInTime::drifted_time_points`]).
    pub drifted_time_points: usize,
    /// Time points the refreshed users replayed from their snapshots.
    pub replayed_time_points: usize,
    /// Time points the refreshed users recomputed from scratch.
    pub recomputed_time_points: usize,
}

impl RefreshAheadReport {
    fn absorb(&mut self, other: &RefreshAheadReport) {
        self.scanned += other.scanned;
        self.fresh += other.fresh;
        self.refreshed += other.refreshed;
        self.deferred += other.deferred;
        self.replayed_time_points += other.replayed_time_points;
        self.recomputed_time_points += other.recomputed_time_points;
    }
}

impl fmt::Display for RefreshAheadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refresh-ahead: {} scanned, {} fresh, {} refreshed ({} deferred); \
             {} drifted time points, {} replayed / {} recomputed",
            self.scanned,
            self.fresh,
            self.refreshed,
            self.deferred,
            self.drifted_time_points,
            self.replayed_time_points,
            self.recomputed_time_points,
        )
    }
}

impl JitService {
    /// One refresh-ahead pass over this service's store (module docs
    /// have the full contract). `prior` is the system that was serving
    /// before the retrain, used only to report how many time points
    /// drifted; staleness itself is judged per snapshot against the
    /// *current* system's fingerprints.
    ///
    /// # Errors
    /// The typed [`ServeError`] of the failing scan load, plan, or
    /// refresh batch; users refreshed before the failure keep their
    /// refreshed snapshots (each batch is all-or-nothing, the pass is
    /// not).
    pub fn refresh_ahead(
        &self,
        prior: &JustInTime,
        options: &RefreshAheadOptions,
    ) -> Result<RefreshAheadReport, ServeError> {
        let mut report = self.refresh_ahead_pass(options)?;
        report.drifted_time_points = self
            .system()
            .drifted_time_points(prior)
            .iter()
            .filter(|drifted| **drifted)
            .count();
        Ok(report)
    }

    /// The scan + refresh body, `drifted_time_points` left at zero so
    /// the sharded fan-out can count the (shared-system) diff once.
    pub(crate) fn refresh_ahead_pass(
        &self,
        options: &RefreshAheadOptions,
    ) -> Result<RefreshAheadReport, ServeError> {
        let mut report = RefreshAheadReport::default();
        let mut stale: Vec<String> = Vec::new();
        let user_ids = retry_transient(|| self.store().user_ids())
            .map_err(|error| ServeError::Store { user_id: None, error })?;
        for user_id in user_ids {
            report.scanned += 1;
            let prior = load_prior(self.store(), &user_id)?;
            let plan =
                self.system().reserve_plan(&ReturningUser::unchanged(prior)).map_err(
                    |error| ServeError::Session { user_id: user_id.clone(), error },
                )?;
            if plan.iter().any(|t| matches!(t, TimePointServe::Recomputed)) {
                if options.max_users.is_some_and(|cap| stale.len() >= cap) {
                    report.deferred += 1;
                } else {
                    stale.push(user_id);
                }
            } else {
                report.fresh += 1;
            }
        }
        let batch = options.batch.max(1);
        for chunk in stale.chunks(batch) {
            let response = self.serve(ServeRequest::refresh(chunk.to_vec()))?;
            report.refreshed += response.report.users;
            report.replayed_time_points += response.report.replayed_time_points;
            report.recomputed_time_points += response.report.recomputed_time_points;
        }
        Ok(report)
    }
}

impl ShardedService {
    /// [`JitService::refresh_ahead`] fanned across every shard, shard by
    /// shard in shard order (the pass is background work — determinism
    /// and bounded bursts matter more than latency). Counts are summed;
    /// `drifted_time_points` is the once-computed per-system diff, not a
    /// per-shard sum. [`RefreshAheadOptions::max_users`] applies per
    /// shard.
    ///
    /// # Errors
    /// The first failing shard's [`ServeError`]; earlier shards keep
    /// their refreshed snapshots.
    pub fn refresh_ahead(
        &self,
        prior: &JustInTime,
        options: &RefreshAheadOptions,
    ) -> Result<RefreshAheadReport, ServeError> {
        let mut report = RefreshAheadReport::default();
        for shard in self.shards() {
            report.absorb(&shard.refresh_ahead_pass(options)?);
        }
        report.drifted_time_points = self
            .system()
            .drifted_time_points(prior)
            .iter()
            .filter(|drifted| **drifted)
            .count();
        Ok(report)
    }
}
