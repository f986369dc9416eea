//! Determinism and view-equivalence suite for the parallel training
//! runtime (jit-runtime) and the zero-copy `Dataset` views.
//!
//! Two families of guarantees are locked down here:
//!
//! 1. **Thread-count invariance.** Training output — forests, future
//!    model sequences, candidate tables — is bit-identical under a fixed
//!    seed for 1, 2 and 8 worker threads, and identical to the serial
//!    path. This is the `jit-runtime` determinism contract (per-task RNG
//!    streams forked before dispatch) observed end to end.
//! 2. **View semantics.** `Dataset::subset` / `bootstrap` /
//!    `stratified_split` are index-remapping views into one shared
//!    buffer, and must reproduce the old clone-based semantics exactly:
//!    same rows, labels, weights, in the same order, with the same RNG
//!    consumption.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::jit_constraints::ConstraintSet;
use justintime::jit_math::rng::Rng;
use justintime::jit_ml::{DecisionTree, DecisionTreeParams};
use justintime::jit_runtime::{fork_streams, Runtime};
use justintime::jit_temporal::future::FutureModelsGenerator;
use justintime::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

fn lending_slices(per_year: usize, n_years: usize) -> (FeatureSchema, Vec<Dataset>) {
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: per_year,
        ..Default::default()
    });
    let slices = gen
        .years()
        .into_iter()
        .take(n_years)
        .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
        .collect();
    (gen.schema().clone(), slices)
}

fn probe_grid(dim: usize, n: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::seeded(0xfeed);
    (0..n).map(|_| (0..dim).map(|_| rng.normal_with(0.0, 2.0)).collect()).collect()
}

// ---------------------------------------------------------------------
// 1. Thread-count invariance
// ---------------------------------------------------------------------

#[test]
fn forest_is_bit_identical_across_thread_counts() {
    let (_, slices) = lending_slices(120, 3);
    let data = slices.last().unwrap();
    let probes = probe_grid(data.dim(), 32);

    let fit = |threads: usize| {
        let params = RandomForestParams { n_trees: 12, threads, ..Default::default() };
        let forest = RandomForest::fit(data, &params, &mut Rng::seeded(77));
        probes.iter().map(|x| forest.predict_proba(x)).collect::<Vec<f64>>()
    };
    let serial = fit(1);
    for threads in [2usize, 8] {
        assert_eq!(fit(threads), serial, "forest differs at threads={threads}");
    }
}

#[test]
fn future_models_are_bit_identical_across_thread_counts() {
    let (_, slices) = lending_slices(100, 5);
    let probes = probe_grid(slices[0].dim(), 16);

    for predictor in [
        FuturePredictor::Edd,
        FuturePredictor::ParamExtrapolation,
        FuturePredictor::Frozen,
    ] {
        let generate = |threads: usize| {
            let gen = FutureModelsGenerator::new(FutureModelsParams {
                horizon: 3,
                predictor,
                n_landmarks: 25,
                forest: RandomForestParams {
                    n_trees: 6,
                    threads,
                    ..Default::default()
                },
                threads,
                seed: 913,
                ..Default::default()
            });
            let models = gen.generate(&slices).expect("generation succeeds");
            models
                .iter()
                .map(|m| {
                    let scores: Vec<f64> =
                        probes.iter().map(|x| m.model.predict_proba(x)).collect();
                    (m.time_index, m.delta, scores)
                })
                .collect::<Vec<_>>()
        };
        let serial = generate(1);
        for threads in [2usize, 8] {
            assert_eq!(
                generate(threads),
                serial,
                "{predictor:?} differs at threads={threads}"
            );
        }
    }
}

#[test]
fn end_to_end_candidates_are_bit_identical_across_thread_counts() {
    let (schema, slices) = lending_slices(120, 4);
    let session_profiles = |threads: usize| {
        let config = AdminConfig {
            horizon: 2,
            threads,
            future: FutureModelsParams {
                n_landmarks: 20,
                pool_slices: 2,
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
        };
        let system = JustInTime::train(config, &schema, &slices).expect("train");
        let session =
            serve_alone(&system, UserRequest::new(LendingClubGenerator::john()));
        session
            .candidates()
            .iter()
            .map(|c| (c.time_index, c.profile.clone(), c.confidence))
            .collect::<Vec<_>>()
    };
    let serial = session_profiles(1);
    assert!(!serial.is_empty(), "fixture must produce candidates");
    for threads in [2usize, 8] {
        assert_eq!(session_profiles(threads), serial, "threads={threads}");
    }
}

// ---------------------------------------------------------------------
// 1b. Batch serving: one `serve` call ≡ each user served alone, for any
//     thread count
// ---------------------------------------------------------------------

type SessionFingerprint = Vec<(usize, Vec<u64>, u64, u64)>;

fn fingerprint(session: &justintime::jit_core::UserSession<'_>) -> SessionFingerprint {
    session
        .candidates()
        .iter()
        .map(|c| {
            (
                c.time_index,
                c.profile.iter().map(|v| v.to_bits()).collect(),
                c.diff.to_bits(),
                c.confidence.to_bits(),
            )
        })
        .collect()
}

/// Serves one job in a batch of its own.
fn serve_alone(system: &JustInTime, job: impl Into<Job>) -> UserSession<'_> {
    system.serve(&[job.into()], None).expect("serve alone").remove(0)
}

/// First-visit jobs for `requests`.
fn cold_jobs(requests: &[UserRequest]) -> Vec<Job> {
    requests.iter().cloned().map(Job::from).collect()
}

fn batch_config(threads: usize) -> AdminConfig {
    AdminConfig {
        horizon: 2,
        threads,
        future: FutureModelsParams {
            n_landmarks: 20,
            pool_slices: 2,
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

fn batch_cohort() -> Vec<UserRequest> {
    let mut capped = ConstraintSet::new();
    capped.add(justintime::jit_constraints::builder::gap().le(1.0));
    vec![
        UserRequest::new(LendingClubGenerator::john()),
        UserRequest {
            profile: LendingClubGenerator::john(),
            constraints: capped,
            update_fn: None,
        },
        UserRequest::new(vec![45.0, 1.0, 28_000.0, 2_800.0, 12.0, 32_000.0]),
    ]
}

#[test]
fn serve_batch_is_bit_identical_to_serial_sessions_across_threads() {
    let (schema, slices) = lending_slices(120, 4);
    let cohort = cold_jobs(&batch_cohort());

    // Reference: each job served alone on a serially-trained system.
    let serial_system =
        JustInTime::train(batch_config(1), &schema, &slices).expect("train");
    let serial: Vec<SessionFingerprint> = cohort
        .iter()
        .map(|job| fingerprint(&serve_alone(&serial_system, job.clone())))
        .collect();
    assert!(serial.iter().all(|s| !s.is_empty()), "fixture must yield candidates");

    for threads in [1usize, 2, 8] {
        let system =
            JustInTime::train(batch_config(threads), &schema, &slices).expect("train");
        let batch = system.serve(&cohort, None).expect("serve");
        let prints: Vec<SessionFingerprint> = batch.iter().map(fingerprint).collect();
        assert_eq!(prints, serial, "batch serve diverged at threads={threads}");
    }
}

#[test]
fn batch_overlays_do_not_leak_between_users_at_any_thread_count() {
    let (schema, slices) = lending_slices(120, 4);
    let cohort = batch_cohort();
    for threads in [1usize, 2, 8] {
        let system =
            JustInTime::train(batch_config(threads), &schema, &slices).expect("train");
        let batch = system.serve(&cold_jobs(&cohort), None).expect("serve");
        // User 1 carries the gap cap; it must bind for them only.
        assert!(batch[1].candidates().iter().all(|c| c.gap <= 1));
        // Users 0 and 2 must match fresh unconstrained sessions.
        for idx in [0usize, 2] {
            let fresh =
                serve_alone(&system, UserRequest::new(cohort[idx].profile.clone()));
            assert_eq!(
                fingerprint(&batch[idx]),
                fingerprint(&fresh),
                "overlay leaked into user {idx} at threads={threads}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 1c. Incremental re-serving: returning jobs ≡ a cold serve under
//     no / partial / full drift, for any thread count, and mixed
//     batches of new and returning users
// ---------------------------------------------------------------------

/// The three drift scenarios the fingerprint diff must survive.
enum Drift {
    /// Same system, same requests: everything replays.
    None,
    /// Same system, a new time-scoped preference at `t = 1`: only that
    /// time point recomputes.
    Partial,
    /// Retrained on an extended history: every model changes, everything
    /// recomputes.
    Full,
}

#[test]
fn reserve_batch_is_bit_identical_to_cold_serve_under_drift() {
    use justintime::jit_constraints::builder::gap;
    let (schema, slices) = lending_slices(120, 5);
    let cohort = cold_jobs(&batch_cohort());

    for drift in [Drift::None, Drift::Partial, Drift::Full] {
        for threads in [1usize, 2, 8] {
            let config = batch_config(threads);
            let before = JustInTime::train(config.clone(), &schema, &slices[..4])
                .expect("train before");
            let priors: Vec<SessionSnapshot> = before
                .serve(&cohort, None)
                .expect("serve before")
                .iter()
                .map(UserSession::snapshot)
                .collect();

            // The system and requests the user returns to/with.
            let after;
            let current = match drift {
                Drift::Full => {
                    after = JustInTime::train(config.clone(), &schema, &slices)
                        .expect("train after");
                    &after
                }
                _ => &before,
            };
            let returning: Vec<Job> = priors
                .iter()
                .map(|prior| match drift {
                    Drift::Partial => {
                        let mut request = prior.request.clone();
                        request.constraints.add_at(1, gap().le(1.0));
                        ReturningUser::with_request(prior.clone(), request).into()
                    }
                    _ => ReturningUser::unchanged(prior.clone()).into(),
                })
                .collect();

            let warm = current.serve(&returning, None).expect("reserve");
            // Reference: cold serve of the same requests on the current
            // system.
            let requests: Vec<UserRequest> =
                returning.iter().map(|job| job.request.clone()).collect();
            let cold = current.serve(&cold_jobs(&requests), None).expect("cold serve");
            let warm_prints: Vec<SessionFingerprint> =
                warm.iter().map(fingerprint).collect();
            let cold_prints: Vec<SessionFingerprint> =
                cold.iter().map(fingerprint).collect();
            assert_eq!(
                warm_prints, cold_prints,
                "reserve diverged (threads={threads})"
            );

            // Provenance must reflect the drift exactly.
            for session in &warm {
                let report = session.reserve_report().expect("reserved session");
                match drift {
                    Drift::None => {
                        assert!(report.iter().all(|o| *o == TimePointServe::Replayed));
                    }
                    Drift::Partial => {
                        assert_eq!(
                            report,
                            &[
                                TimePointServe::Replayed,
                                TimePointServe::Recomputed,
                                TimePointServe::Replayed,
                            ][..]
                        );
                    }
                    Drift::Full => {
                        assert!(report
                            .iter()
                            .all(|o| *o == TimePointServe::Recomputed));
                    }
                }
            }
            // Replayed sessions still serve queries from a rebuilt DB.
            let rs = warm[0]
                .sql("SELECT COUNT(*) FROM candidates")
                .expect("rebuilt database answers SQL");
            assert_eq!(
                rs.scalar().unwrap().as_i64(),
                Some(warm[0].candidates().len() as i64)
            );
        }
    }
}

/// Canonical wire bytes of served sessions: every snapshot bit (request,
/// temporal inputs, candidates, fingerprints) plus provenance.
fn sessions_bytes(sessions: &[UserSession<'_>]) -> Vec<u8> {
    let users = sessions
        .iter()
        .map(|s| wire::WireServedUser {
            user_id: String::new(),
            snapshot: s.snapshot(),
            provenance: s.reserve_report().map(<[_]>::to_vec),
        })
        .collect();
    wire::response_bytes(&WireResponse { users, report: WireReport::default() })
}

#[test]
fn mixed_batches_of_new_and_returning_users_match_serving_each_alone() {
    use justintime::jit_constraints::builder::gap;
    let (schema, slices) = lending_slices(120, 4);
    let requests = batch_cohort();
    for threads in [1usize, 2] {
        let system =
            JustInTime::train(batch_config(threads), &schema, &slices).expect("train");
        let priors: Vec<SessionSnapshot> = system
            .serve(&cold_jobs(&requests), None)
            .expect("first visit")
            .iter()
            .map(UserSession::snapshot)
            .collect();
        let mut updated = requests[0].clone();
        updated.constraints.add_at(1, gap().le(1.0));
        // Cold, returning unchanged, returning updated, cold, returning
        // unchanged: every kind of job, interleaved.
        let jobs: Vec<Job> = vec![
            requests[2].clone().into(),
            ReturningUser::unchanged(priors[1].clone()).into(),
            ReturningUser::with_request(priors[0].clone(), updated).into(),
            requests[1].clone().into(),
            ReturningUser::unchanged(priors[2].clone()).into(),
        ];
        let alone: Vec<UserSession<'_>> =
            jobs.iter().map(|job| serve_alone(&system, job.clone())).collect();
        let expected = sessions_bytes(&alone);
        for cache in [None, Some(Arc::new(SharedCellCache::new()))] {
            let batch = system.serve(&jobs, cache.as_ref()).expect("mixed batch");
            assert_eq!(
                sessions_bytes(&batch),
                expected,
                "threads={threads} cache={}",
                cache.is_some()
            );
            for (job, session) in jobs.iter().zip(&batch) {
                assert_eq!(session.reserve_report().is_some(), job.prior.is_some());
            }
        }
        // The updated returning user replays t = 0 and t = 2 only.
        assert_eq!(
            alone[2].reserve_report().expect("returning"),
            &[
                TimePointServe::Replayed,
                TimePointServe::Recomputed,
                TimePointServe::Replayed
            ]
        );
    }
}

// ---------------------------------------------------------------------
// 1d. The service front end: ShardedService ≡ JitService ≡
//     `JustInTime::serve`, for any shard count and thread count;
//     persisted snapshots reproduce re-serves after the in-memory
//     system is gone
// ---------------------------------------------------------------------

use std::sync::Arc;

fn service_cohort() -> Vec<CohortMember> {
    batch_cohort()
        .into_iter()
        .enumerate()
        .map(|(i, request)| CohortMember::new(format!("user-{i}"), request))
        .collect()
}

#[test]
fn sharded_service_is_bit_identical_to_single_shard_and_legacy_paths() {
    let (schema, slices) = lending_slices(120, 4);
    let members = service_cohort();
    let requests: Vec<UserRequest> =
        members.iter().map(|m| m.request.clone()).collect();

    // Reference: the core batch path on a serially-configured system.
    let reference_system =
        JustInTime::train(batch_config(1), &schema, &slices).expect("train");
    let reference: Vec<SessionFingerprint> = reference_system
        .serve(&cold_jobs(&requests), None)
        .expect("core serve")
        .iter()
        .map(fingerprint)
        .collect();
    assert!(reference.iter().all(|s| !s.is_empty()), "fixture must yield candidates");

    for threads in [1usize, 2, 8] {
        let system =
            JustInTime::train(batch_config(threads), &schema, &slices).expect("train");
        let system = Arc::new(system);

        // Single service == core path.
        let service = JitService::with_shared(
            Arc::clone(&system),
            Arc::new(MemorySnapshotStore::new()),
        );
        let response =
            service.serve(ServeRequest::batch(members.clone())).expect("service serve");
        let service_prints: Vec<SessionFingerprint> =
            response.users.iter().map(|u| fingerprint(&u.session)).collect();
        assert_eq!(
            service_prints, reference,
            "JitService diverged (threads={threads})"
        );
        drop(response);

        // Sharded == single shard, for every shard count.
        for shards in [1usize, 2, 4, 8] {
            let sharded = ShardedService::from_shared(
                Arc::clone(&system),
                shards,
                threads,
                |_| Arc::new(MemorySnapshotStore::new()),
            );
            let response = sharded
                .serve(ServeRequest::batch(members.clone()))
                .expect("sharded serve");
            let prints: Vec<SessionFingerprint> =
                response.users.iter().map(|u| fingerprint(&u.session)).collect();
            assert_eq!(
                prints, reference,
                "ShardedService diverged (shards={shards} threads={threads})"
            );
            // Request order is preserved exactly.
            let ids: Vec<&str> =
                response.users.iter().map(|u| u.user_id.as_str()).collect();
            assert_eq!(ids, vec!["user-0", "user-1", "user-2"]);

            // And the refresh path (per-shard snapshot stores) is
            // bit-identical to serving the returning users directly.
            let refreshed = sharded
                .serve(ServeRequest::refresh(members.iter().map(|m| m.user_id.clone())))
                .expect("sharded refresh");
            let warm_prints: Vec<SessionFingerprint> =
                refreshed.users.iter().map(|u| fingerprint(&u.session)).collect();
            assert_eq!(
                warm_prints, reference,
                "sharded refresh diverged (shards={shards} threads={threads})"
            );
            assert_eq!(
                refreshed.report.replayed_time_points,
                3 * requests.len(),
                "no drift: every time point replays"
            );
        }
    }
}

#[test]
fn db_persisted_snapshots_reproduce_the_reserve_after_the_system_is_dropped() {
    let (schema, slices) = lending_slices(120, 5);
    let members = service_cohort();
    let config = batch_config(2);

    // First life: train, serve through a jit-db-backed store, record
    // the in-memory reserve under drift (retrain on extended history).
    let databases: Vec<Arc<Database>> =
        (0..2).map(|_| Arc::new(Database::new())).collect();
    let reference_warm: Vec<SessionFingerprint>;
    {
        let before = JustInTime::train(config.clone(), &schema, &slices[..4])
            .expect("train before");
        let sharded = ShardedService::new(before, 2, 2, |shard| {
            Arc::new(
                DbSnapshotStore::open(Arc::clone(&databases[shard]), &schema)
                    .expect("open store"),
            )
        });
        let first =
            sharded.serve(ServeRequest::batch(members.clone())).expect("first visit");
        let snapshots: Vec<SessionSnapshot> =
            first.users.iter().map(|u| u.session.snapshot()).collect();
        drop(first);
        drop(sharded);

        // The drifted system the users will return to.
        let after =
            JustInTime::train(config.clone(), &schema, &slices).expect("train after");
        let returning: Vec<Job> =
            snapshots.into_iter().map(|s| ReturningUser::unchanged(s).into()).collect();
        reference_warm = after
            .serve(&returning, None)
            .expect("in-memory reserve")
            .iter()
            .map(fingerprint)
            .collect();
        // `before`, `after`, every snapshot and store: all dropped here.
    }

    // Second life: only the databases survived. Re-open stores, refresh
    // by id on the drifted system — must equal the in-memory reserve.
    let after = JustInTime::train(config, &schema, &slices).expect("retrain after");
    let sharded = ShardedService::new(after, 2, 2, |shard| {
        Arc::new(
            DbSnapshotStore::open(Arc::clone(&databases[shard]), &schema)
                .expect("re-open store"),
        )
    });
    let refreshed = sharded
        .serve(ServeRequest::refresh(members.iter().map(|m| m.user_id.clone())))
        .expect("refresh from persisted snapshots");
    let warm_prints: Vec<SessionFingerprint> =
        refreshed.users.iter().map(|u| fingerprint(&u.session)).collect();
    assert_eq!(
        warm_prints, reference_warm,
        "persisted snapshots must reproduce the in-memory re-serve exactly"
    );
    // Full drift: every time point recomputed, none replayed.
    assert_eq!(refreshed.report.replayed_time_points, 0);
    assert_eq!(
        refreshed.report.recomputed_time_points,
        3 * members.len(),
        "retraining on extended history drifts every model"
    );
}

// ---------------------------------------------------------------------
// 1e. The networked tier: NetClient → NetServer → ProcessShardBackend →
//     N × jit-shardd OS processes is bit-identical to in-process
//     serving, for 1/2/4 shard processes and all of cold /
//     returning-inline / refresh-from-store workloads. The
//     comparison basis is the canonical response encoding
//     (`wire::response_bytes`), which is shard-count-invariant.
// ---------------------------------------------------------------------

use justintime::jit_service::{
    loadgen, wire, DataSpec, NetClient, NetServer, NetServerConfig,
    ProcessShardBackend, ProcessShardConfig, TrainSpec, WireResponse,
};

/// 16 users with deterministic in-bounds profiles; every third carries a
/// global preference, every fifth a time-scoped one.
fn net_cohort(schema: &FeatureSchema) -> Vec<CohortMember> {
    use justintime::jit_constraints::builder::{feature, gap};
    (0..16)
        .map(|i| {
            let mut request =
                UserRequest::new(loadgen::synthetic_profile(schema, 0, 0, i));
            if i % 3 == 0 {
                request.constraints.add(gap().le(2.0));
            }
            if i % 5 == 0 {
                request.constraints.add_at(1, feature("income").le(60_000.0));
            }
            CohortMember::new(format!("net-user-{i}"), request)
        })
        .collect()
}

/// The three-phase workload every tier runs: a cold 16-user batch, an
/// 8-user returning cohort carrying snapshots inline (straight from the
/// phase-1 response, so snapshots round-trip whatever transport the
/// tier uses), and a refresh-by-id of all 16 from the tier's stores.
fn run_workload(
    members: &[CohortMember],
    mut serve: impl FnMut(ServeRequest) -> WireResponse,
) -> [Vec<u8>; 3] {
    let cold = serve(ServeRequest::Batch(members.to_vec()));
    let returning: Vec<ReturningMember> = cold.users[..8]
        .iter()
        .map(|u| {
            ReturningMember::new(
                u.user_id.clone(),
                ReturningUser::unchanged(u.snapshot.clone()),
            )
        })
        .collect();
    let inline = serve(ServeRequest::Returning(returning));
    let refreshed =
        serve(ServeRequest::refresh(members.iter().map(|m| m.user_id.clone())));
    [
        wire::response_bytes(&cold),
        wire::response_bytes(&inline),
        wire::response_bytes(&refreshed),
    ]
}

#[test]
fn networked_tier_is_bit_identical_to_in_process_serving() {
    let shardd = std::path::PathBuf::from(env!("CARGO_BIN_EXE_jit-shardd"));
    let data = DataSpec { records_per_year: 120, n_years: 4, ..Default::default() };

    let spec = TrainSpec { data, config: batch_config(2) };
    let schema = spec.schema();
    let members = net_cohort(&schema);

    // Reference: one unsharded in-process service over the same
    // spec (shard workers train from the identical bytes).
    let system = Arc::new(spec.train().expect("train reference"));
    let service = JitService::with_shared(
        Arc::clone(&system),
        Arc::new(MemorySnapshotStore::new()),
    );
    let reference = run_workload(&members, |request| {
        WireResponse::from_response(&service.serve(request).expect("reference"))
    });
    assert!(
        !reference.iter().any(Vec::is_empty),
        "fixture must produce non-empty responses"
    );

    // In-process sharded dispatcher agrees (sanity anchor for the
    // cross-process comparison below).
    let sharded = ShardedService::from_shared(Arc::clone(&system), 2, 2, |_| {
        Arc::new(MemorySnapshotStore::new())
    });
    let in_process = run_workload(&members, |request| {
        WireResponse::from_response(&sharded.serve(request).expect("sharded"))
    });
    assert_eq!(in_process, reference, "in-process shards diverged");

    // The real thing: TCP client → server → shard OS processes.
    for shards in [1usize, 2, 4] {
        let backend = ProcessShardBackend::spawn(
            spec.clone(),
            ProcessShardConfig::new(&shardd, shards),
            |_| Arc::new(MemorySnapshotStore::new()),
        )
        .expect("spawn shard processes");
        let server = NetServer::bind(
            Arc::new(backend),
            "127.0.0.1:0",
            NetServerConfig::default(),
        )
        .expect("bind loopback");
        let mut client =
            NetClient::connect(server.addr(), schema.clone()).expect("connect");
        let networked = run_workload(&members, |request| {
            client.serve(request).expect("networked serve")
        });
        assert_eq!(networked, reference, "networked tier diverged (shards={shards})");
        server.shutdown();
    }
}

// ---------------------------------------------------------------------
// 1f. Cross-user cell-cache sharing and refresh-ahead: warm shared
//     caches (second batch, retrain-generation handover via
//     `next_generation`) stay bit-identical to cold serves on fresh
//     systems, and a refresh-ahead pass replays byte-identically to
//     on-demand re-serving while moving returning users onto the pure
//     replay path.
// ---------------------------------------------------------------------

#[test]
fn shared_cell_cache_is_bit_identical_warm_and_across_generations() {
    let (schema, slices) = lending_slices(120, 5);
    let members = service_cohort();
    let requests: Vec<UserRequest> =
        members.iter().map(|m| m.request.clone()).collect();

    for threads in [1usize, 2, 8] {
        let config = batch_config(threads);
        let before = Arc::new(
            JustInTime::train(config.clone(), &schema, &slices[..4])
                .expect("train before"),
        );
        // Partial drift: t = 0 keeps the prior generation's model
        // (and fingerprint), t = 1..=2 retrain on extended history.
        let after = Arc::new(
            before
                .retrain_pinned(&slices, &[true, false, false])
                .expect("retrain pinned"),
        );
        // Cold references: the core batch path on each generation,
        // no shared cache anywhere.
        let cold_before: Vec<SessionFingerprint> = before
            .serve(&cold_jobs(&requests), None)
            .expect("cold before")
            .iter()
            .map(fingerprint)
            .collect();
        let cold_after: Vec<SessionFingerprint> = after
            .serve(&cold_jobs(&requests), None)
            .expect("cold after")
            .iter()
            .map(fingerprint)
            .collect();
        assert!(cold_before.iter().all(|s| !s.is_empty()));

        for shards in [1usize, 2, 4] {
            let sharded = ShardedService::from_shared(
                Arc::clone(&before),
                shards,
                threads,
                |_| Arc::new(MemorySnapshotStore::new()),
            );
            // First batch populates the per-shard shared caches;
            // the second runs entirely against warm caches. Both
            // must equal the cache-free cold reference.
            for pass in ["cold", "warm"] {
                let response =
                    sharded.serve(ServeRequest::batch(members.clone())).expect("serve");
                let prints: Vec<SessionFingerprint> =
                    response.users.iter().map(|u| fingerprint(&u.session)).collect();
                assert_eq!(
                    prints, cold_before,
                    "{pass} shared-cache pass diverged (shards={shards} \
                     threads={threads})"
                );
            }

            // Generation handover: stores and caches carry over,
            // non-surviving model slots are dropped, the pinned
            // t = 0 slot stays warm.
            let next =
                ShardedService::next_generation(Arc::clone(&after), threads, &sharded);
            let refreshed = next
                .serve(ServeRequest::refresh(members.iter().map(|m| m.user_id.clone())))
                .expect("refresh across generations");
            let prints: Vec<SessionFingerprint> =
                refreshed.users.iter().map(|u| fingerprint(&u.session)).collect();
            assert_eq!(
                prints, cold_after,
                "post-handover refresh diverged (shards={shards} \
                 threads={threads})"
            );
            // Provenance: the pinned time point replays, the two
            // drifted ones recompute.
            assert_eq!(refreshed.report.replayed_time_points, members.len());
            assert_eq!(refreshed.report.recomputed_time_points, 2 * members.len());

            // A cold batch on the handed-over (warm-cache) service
            // still equals the fresh-system reference.
            let response = next
                .serve(ServeRequest::batch(members.clone()))
                .expect("serve next generation");
            let prints: Vec<SessionFingerprint> =
                response.users.iter().map(|u| fingerprint(&u.session)).collect();
            assert_eq!(
                prints, cold_after,
                "next-generation batch diverged (shards={shards} \
                 threads={threads})"
            );
        }
    }
}

#[test]
fn refresh_ahead_replays_byte_identically_and_pre_warms_returning_users() {
    let (schema, slices) = lending_slices(120, 5);
    let members = service_cohort();
    let ids: Vec<String> = members.iter().map(|m| m.user_id.clone()).collect();
    let config = batch_config(2);
    let before = Arc::new(
        JustInTime::train(config, &schema, &slices[..4]).expect("train before"),
    );
    let after = Arc::new(
        before.retrain_pinned(&slices, &[true, false, false]).expect("retrain"),
    );

    // Two identical pipelines: serve the cohort, retrain with partial
    // drift, hand the stores/caches to the next generation. One then
    // runs refresh-ahead; the other stays on-demand.
    let build = || {
        let sharded = ShardedService::from_shared(Arc::clone(&before), 2, 2, |_| {
            Arc::new(MemorySnapshotStore::new())
        });
        sharded.serve(ServeRequest::batch(members.clone())).expect("first visit");
        ShardedService::next_generation(Arc::clone(&after), 2, &sharded)
    };
    let proactive = build();
    let on_demand = build();

    let report = proactive
        .refresh_ahead(&before, &RefreshAheadOptions::default())
        .expect("refresh-ahead pass");
    assert_eq!(report.scanned, members.len());
    assert_eq!(report.fresh, 0, "every snapshot references drifted models");
    assert_eq!(report.refreshed, members.len());
    assert_eq!(report.deferred, 0);
    assert_eq!(report.drifted_time_points, 2, "t = 0 was pinned");
    assert_eq!(report.replayed_time_points, members.len());
    assert_eq!(report.recomputed_time_points, 2 * members.len());

    // Idempotence: the refreshed snapshots carry current fingerprints,
    // so a second pass finds everyone fresh and re-serves nobody.
    let again = proactive
        .refresh_ahead(&before, &RefreshAheadOptions::default())
        .expect("second pass");
    assert_eq!(again.fresh, members.len());
    assert_eq!(again.refreshed, 0);
    assert_eq!(again.drifted_time_points, 2);

    // The acceptance property: returning users on the pre-refreshed
    // service stay on the pure replay path — zero cold, zero recomputed.
    let warm = proactive
        .serve(ServeRequest::refresh(ids.clone()))
        .expect("pre-warmed refresh");
    assert_eq!(warm.report.cold_time_points, 0);
    assert_eq!(warm.report.recomputed_time_points, 0);
    assert_eq!(warm.report.replayed_time_points, 3 * members.len());

    // Byte identity: the on-demand pipeline recomputes the drifted time
    // points on the request path instead, but serves the same bytes.
    // Provenance and the report are the *intended* observable difference
    // (replay vs recompute), so the comparison normalizes exactly those
    // two fields and matches everything else — ids, candidates,
    // snapshots, fingerprints — in canonical wire encoding.
    let cold = on_demand.serve(ServeRequest::refresh(ids)).expect("on-demand refresh");
    assert_eq!(cold.report.recomputed_time_points, 2 * members.len());
    let content_bytes = |response: &ServeResponse<'_>| {
        let mut wire = WireResponse::from_response(response);
        for user in &mut wire.users {
            user.provenance = None;
        }
        wire.report = Default::default();
        wire::response_bytes(&wire)
    };
    assert_eq!(
        content_bytes(&warm),
        content_bytes(&cold),
        "refresh-ahead must not change a single served byte"
    );

    // Rate limiting: a per-shard cap defers the overflow to later
    // passes instead of dropping it.
    let capped = build();
    let limited = capped
        .refresh_ahead(&before, &RefreshAheadOptions { batch: 1, max_users: Some(1) })
        .expect("capped pass");
    assert_eq!(limited.scanned, members.len());
    assert_eq!(limited.refreshed + limited.deferred, members.len());
    assert!(
        (1..=2).contains(&limited.refreshed),
        "2 shards, cap 1 per shard: {} refreshed",
        limited.refreshed
    );
}

#[test]
fn runtime_parallel_map_matches_serial_with_forked_streams() {
    // The contract in miniature: fork first, then map.
    let run = |threads: usize| -> Vec<u64> {
        let mut parent = Rng::seeded(4242);
        let streams = fork_streams(&mut parent, 64);
        Runtime::new(threads).parallel_map(64, |i| {
            let mut rng = streams[i].clone();
            (0..100).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
        })
    };
    let serial = run(1);
    for threads in [2usize, 3, 8] {
        assert_eq!(run(threads), serial);
    }
}

// ---------------------------------------------------------------------
// 2. View semantics match the old clone-based behaviour
// ---------------------------------------------------------------------

/// Clone-based reference implementation of `subset` (the pre-view
/// semantics): materializes rows, labels and weights at `indices`.
fn subset_reference(
    d: &Dataset,
    indices: &[usize],
) -> (Vec<Vec<f64>>, Vec<bool>, Vec<f64>) {
    let rows: Vec<Vec<f64>> = indices.iter().map(|&i| d.row(i).to_vec()).collect();
    let labels = indices.iter().map(|&i| d.label(i)).collect();
    let weights = indices.iter().map(|&i| d.weights()[i]).collect();
    (rows, labels, weights)
}

fn materialize(d: &Dataset) -> (Vec<Vec<f64>>, Vec<bool>, Vec<f64>) {
    (d.rows().map(<[f64]>::to_vec).collect(), d.labels().to_vec(), d.weights().to_vec())
}

/// Strategy over random (rows, labels, weights) triples of varying shape.
///
/// Implemented against the vendored proptest's sampling `Strategy` trait
/// directly (the shim has no `prop_flat_map`/`any`).
#[derive(Clone, Debug)]
struct ArbitraryDataset {
    max_rows: usize,
}

fn arbitrary_dataset(max_rows: usize) -> ArbitraryDataset {
    ArbitraryDataset { max_rows }
}

impl Strategy for ArbitraryDataset {
    type Value = (Vec<Vec<f64>>, Vec<bool>, Vec<f64>);

    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Self::Value {
        let n = rng.i128_in(1, self.max_rows as i128) as usize;
        let dim = rng.i128_in(1, 4) as usize;
        let rows = (0..n)
            .map(|_| (0..dim).map(|_| -1e3 + 2e3 * rng.unit_f64()).collect())
            .collect();
        let labels = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
        let weights = (0..n).map(|_| 0.01 + 9.99 * rng.unit_f64()).collect();
        (rows, labels, weights)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn subset_view_matches_clone_semantics(
        data in arbitrary_dataset(24),
        pick in proptest::collection::vec(0usize..1000, 1..40),
    ) {
        let (rows, labels, weights) = data;
        let d = Dataset::from_weighted_rows(rows, labels, weights);
        let indices: Vec<usize> = pick.into_iter().map(|i| i % d.len()).collect();
        let expected = subset_reference(&d, &indices);
        let view = d.subset(&indices);
        prop_assert_eq!(materialize(&view), expected);
        // Views of views also resolve correctly.
        let half: Vec<usize> = (0..view.len() / 2).collect();
        if !half.is_empty() {
            let expected2 = subset_reference(&view, &half);
            prop_assert_eq!(materialize(&view.subset(&half)), expected2);
        }
    }

    #[test]
    fn stratified_split_view_matches_clone_semantics(
        data in arbitrary_dataset(40),
        seed in 0u64..500,
        fraction in 0.1f64..0.9,
    ) {
        let (rows, labels, weights) = data;
        let d = Dataset::from_weighted_rows(rows, labels, weights);
        // Reference: replicate the split index computation, then compare
        // against the view outputs.
        let mut pos: Vec<usize> = Vec::new();
        let mut neg: Vec<usize> = Vec::new();
        for (i, &l) in d.labels().iter().enumerate() {
            if l { pos.push(i) } else { neg.push(i) }
        }
        let mut rng = Rng::seeded(seed);
        rng.shuffle(&mut pos);
        rng.shuffle(&mut neg);
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for class in [pos, neg] {
            let n_test = ((class.len() as f64) * fraction).round() as usize;
            let n_test = n_test.min(class.len());
            test_idx.extend_from_slice(&class[..n_test]);
            train_idx.extend_from_slice(&class[n_test..]);
        }
        let (train, test) = d.stratified_split(fraction, &mut Rng::seeded(seed));
        prop_assert_eq!(materialize(&train), subset_reference(&d, &train_idx));
        prop_assert_eq!(materialize(&test), subset_reference(&d, &test_idx));
    }

    #[test]
    fn uniform_bootstrap_view_matches_clone_semantics(
        data in arbitrary_dataset(30),
        seed in 0u64..500,
    ) {
        let (rows, labels, _) = data;
        let d = Dataset::from_rows(rows, labels);
        // Reference: uniform bootstrap draws `below(n)` per row.
        let mut rng = Rng::seeded(seed);
        let indices: Vec<usize> = (0..d.len()).map(|_| rng.below(d.len())).collect();
        let (rows_e, labels_e, _) = subset_reference(&d, &indices);
        let b = d.bootstrap(&mut Rng::seeded(seed));
        let (rows_b, labels_b, weights_b) = materialize(&b);
        prop_assert_eq!(rows_b, rows_e);
        prop_assert_eq!(labels_b, labels_e);
        // Bootstrap realizes weights to 1.
        prop_assert!(weights_b.iter().all(|w| *w == 1.0));
    }

    #[test]
    fn weighted_bootstrap_draws_follow_weights(
        seed in 0u64..200,
    ) {
        // A 3-row dataset where row 1 carries ~98% of the mass: the view
        // bootstrap must never select zero-weight rows and must draw the
        // heavy row overwhelmingly often.
        let d = Dataset::from_weighted_rows(
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![false, true, false],
            vec![0.0, 98.0, 2.0],
        );
        let b = d.bootstrap(&mut Rng::seeded(seed));
        prop_assert_eq!(b.len(), 3);
        prop_assert!(b.rows().all(|r| r[0] > 0.0), "zero-weight row selected");
    }

    #[test]
    fn trees_are_identical_on_view_and_materialized_copy(
        data in arbitrary_dataset(30),
        seed in 0u64..200,
    ) {
        let (rows, labels, weights) = data;
        let d = Dataset::from_weighted_rows(rows, labels, weights);
        let indices: Vec<usize> = (0..d.len()).rev().collect();
        let view = d.subset(&indices);
        let (rows_m, labels_m, weights_m) = materialize(&view);
        let copy = Dataset::from_weighted_rows(rows_m, labels_m, weights_m);

        let params = DecisionTreeParams::default();
        let tv = DecisionTree::fit(&view, &params, &mut Rng::seeded(seed));
        let tc = DecisionTree::fit(&copy, &params, &mut Rng::seeded(seed));
        for x in probe_grid(d.dim(), 8) {
            prop_assert_eq!(tv.predict_proba(&x), tc.predict_proba(&x));
        }
    }
}

// ---------------------------------------------------------------------
// 3. Fingerprint contract: stable across rebuilds and re-serialization,
//    sensitive to every model/constraint byte
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn model_fingerprints_are_stable_and_sensitive(
        seed in 0u64..10_000,
        bump in 0usize..64,
    ) {
        // Forests: refitting from the same seed and data is the in-memory
        // analogue of deserializing the same bytes — fingerprints must
        // agree; a different seed grows different trees and must not.
        let (_, slices) = lending_slices(80, 2);
        let data = slices.last().unwrap();
        let params = RandomForestParams { n_trees: 4, threads: 1, ..Default::default() };
        let a = RandomForest::fit(data, &params, &mut Rng::seeded(seed));
        let b = RandomForest::fit(data, &params, &mut Rng::seeded(seed));
        let c = RandomForest::fit(data, &params, &mut Rng::seeded(seed ^ 0xdead_beef));
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert!(a.fingerprint().is_some());
        prop_assert_ne!(a.fingerprint(), c.fingerprint());

        // Linear models: one ULP of one weight is one changed byte.
        use justintime::jit_temporal::future::LinearScoreModel;
        let weights: Vec<f64> =
            (0..8).map(|i| (seed as f64 + i as f64) * 0.25 - 1.0).collect();
        let m1 = LinearScoreModel::new(weights.clone(), 0.5);
        let m2 = LinearScoreModel::new(weights.clone(), 0.5);
        prop_assert_eq!(m1.fingerprint(), m2.fingerprint());
        let mut bumped = weights.clone();
        let i = bump % bumped.len();
        bumped[i] = f64::from_bits(bumped[i].to_bits() ^ 1);
        let m3 = LinearScoreModel::new(bumped, 0.5);
        prop_assert_ne!(m1.fingerprint(), m3.fingerprint());
        let m4 = LinearScoreModel::new(weights, f64::from_bits(0.5f64.to_bits() ^ 1));
        prop_assert_ne!(m1.fingerprint(), m4.fingerprint());
    }

    #[test]
    fn constraint_digests_are_stable_and_sensitive(
        cap in 1.0f64..100_000.0,
        t in 0usize..3,
    ) {
        use justintime::jit_constraints::builder::*;
        let schema = FeatureSchema::lending_club();
        let build = |cap: f64| {
            let mut set = ConstraintSet::new();
            set.add(feature("income").le(cap));
            set.add_at(t, gap().le(2.0));
            set.compile_at(t, &schema).expect("compiles")
        };
        // Recompiling the same set digests identically…
        prop_assert_eq!(build(cap).content_digest(), build(cap).content_digest());
        // …and any byte of any constant is observable.
        let bumped = f64::from_bits(cap.to_bits() ^ 1);
        prop_assert_ne!(build(cap).content_digest(), build(bumped).content_digest());
        // Scope matters: the same set compiled at another time point
        // (where the scoped conjunct drops out) digests differently.
        let mut set = ConstraintSet::new();
        set.add(feature("income").le(cap));
        set.add_at(t, gap().le(2.0));
        let elsewhere = set.compile_at(t + 1, &schema).expect("compiles");
        prop_assert_ne!(build(cap).content_digest(), elsewhere.content_digest());
    }

    #[test]
    fn digests_round_trip_through_hex(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
    ) {
        use justintime::jit_math::digest::Digest;
        let d = Digest([a, b]);
        prop_assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }
}

#[test]
fn session_fingerprints_are_stable_across_retrains_on_identical_data() {
    // The whole point of content (not pointer) fingerprints: a system
    // retrained from the same bytes stamps the same fingerprints, so a
    // snapshot taken before the retrain replays entirely.
    let (schema, slices) = lending_slices(120, 4);
    let config = batch_config(1);
    let first = JustInTime::train(config.clone(), &schema, &slices).expect("train");
    let prior =
        serve_alone(&first, UserRequest::new(LendingClubGenerator::john())).snapshot();

    let retrained = JustInTime::train(config, &schema, &slices).expect("retrain");
    let warm = serve_alone(&retrained, ReturningUser::unchanged(prior));
    assert!(warm
        .reserve_report()
        .expect("reserved session")
        .iter()
        .all(|o| *o == TimePointServe::Replayed));
}
