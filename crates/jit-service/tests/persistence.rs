//! Property tests for snapshot persistence: a `SessionSnapshot` pushed
//! through a [`SnapshotStore`] (both backends) and loaded back must
//! re-serve **bit-identically** to reserving from the original in-memory
//! snapshot — under no drift and partial drift, for 1/2/8 worker
//! threads.
//!
//! This is the end-to-end guarantee the store stack (one versioned
//! binary snapshot blob per user, every float as its raw bits) exists
//! to provide; any lossy byte anywhere breaks fingerprint
//! equality and shows up here as a spurious recompute or a diverging
//! candidate bit pattern.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jit_core::{
    AdminConfig, Job, JustInTime, ReturningUser, TimePointServe, UserRequest,
    UserSession,
};
use jit_data::{FeatureSchema, LendingClubGenerator, LendingClubParams};
use jit_ml::{Dataset, RandomForestParams};
use jit_service::{DbSnapshotStore, MemorySnapshotStore, SnapshotStore};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn systems() -> &'static Vec<(usize, JustInTime)> {
    static SYSTEMS: OnceLock<Vec<(usize, JustInTime)>> = OnceLock::new();
    SYSTEMS.get_or_init(|| {
        let gen = LendingClubGenerator::new(LendingClubParams {
            records_per_year: 120,
            ..Default::default()
        });
        let slices: Vec<Dataset> = gen
            .years()
            .into_iter()
            .take(4)
            .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
            .collect();
        THREAD_COUNTS
            .into_iter()
            .map(|threads| {
                let config = AdminConfig {
                    horizon: 2,
                    threads,
                    future: jit_temporal::future::FutureModelsParams {
                        n_landmarks: 20,
                        pool_slices: 2,
                        forest: RandomForestParams { n_trees: 6, ..Default::default() },
                        ..Default::default()
                    },
                    candidates: jit_core::CandidateParams {
                        beam_width: 4,
                        max_iters: 3,
                        top_k: 4,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let system = JustInTime::train(config, gen.schema(), &slices)
                    .expect("property fixture trains");
                (threads, system)
            })
            .collect()
    })
}

/// Serves one job in a batch of its own.
fn serve_alone(system: &JustInTime, job: impl Into<Job>) -> UserSession<'_> {
    system.serve(&[job.into()], None).expect("serve").remove(0)
}

fn schema() -> &'static FeatureSchema {
    static SCHEMA: OnceLock<FeatureSchema> = OnceLock::new();
    SCHEMA.get_or_init(FeatureSchema::lending_club)
}

type Print = Vec<(usize, Vec<u64>, u64, u64)>;

fn print(session: &UserSession<'_>) -> Print {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn stored_snapshots_reserve_bit_identically_to_in_memory_ones(
        income_cap in 50_000.0f64..120_000.0,
        debt_floor in 0.0f64..100.0,
        drift_t in 0usize..3,
    ) {
        use jit_constraints::builder::{feature, gap};
        for (threads, system) in systems() {
            // A request with preferences whose constants exercise the
            // codec's float path (arbitrary f64s from the strategy).
            let request = system
                .session_builder(&LendingClubGenerator::john())
                .constraint(feature("income").le(income_cap))
                .constraint(feature("debt").ge(debt_floor))
                .override_feature(
                    "debt",
                    jit_temporal::update::Override::Trajectory(
                        vec![debt_floor + 1_000.0, debt_floor],
                    ),
                )
                .build();
            let snapshot = serve_alone(system, request.clone()).snapshot();

            let memory = MemorySnapshotStore::new();
            let db = DbSnapshotStore::in_new_database(schema()).expect("open");
            memory.save("u", &snapshot).expect("memory save");
            db.save("u", &snapshot).expect("db save");

            for store in [&memory as &dyn SnapshotStore, &db] {
                let loaded = store.load("u").expect("load").expect("stored");

                // No drift: both replay fully and match bit-for-bit.
                let from_memory =
                    serve_alone(system, ReturningUser::unchanged(snapshot.clone()));
                let from_store =
                    serve_alone(system, ReturningUser::unchanged(loaded.clone()));
                prop_assert_eq!(
                    print(&from_store),
                    print(&from_memory),
                    "no-drift divergence (threads={})",
                    threads
                );
                prop_assert!(from_store
                    .reserve_report()
                    .expect("reserved")
                    .iter()
                    .all(|o| *o == TimePointServe::Replayed));

                // Partial drift: a new preference at one time point;
                // that point recomputes, the rest replay — identically
                // from the stored and in-memory snapshots.
                let drifted_request = {
                    let mut r = request.clone();
                    r.constraints.add_at(drift_t, gap().le(1.0));
                    r
                };
                let warm_memory = serve_alone(
                    system,
                    ReturningUser::with_request(snapshot.clone(), drifted_request.clone()),
                );
                let warm_store = serve_alone(
                    system,
                    ReturningUser::with_request(loaded, drifted_request.clone()),
                );
                prop_assert_eq!(
                    print(&warm_store),
                    print(&warm_memory),
                    "partial-drift divergence (threads={})",
                    threads
                );
                prop_assert_eq!(
                    warm_store.reserve_report(),
                    warm_memory.reserve_report()
                );
                let report = warm_store.reserve_report().expect("reserved");
                prop_assert_eq!(report[drift_t], TimePointServe::Recomputed);
                prop_assert_eq!(
                    report
                        .iter()
                        .filter(|o| **o == TimePointServe::Replayed)
                        .count(),
                    report.len() - 1
                );
            }
        }
    }

    #[test]
    fn store_round_trip_preserves_every_snapshot_byte(
        bump in 0u64..u64::MAX,
    ) {
        // Direct store round-trip on a snapshot with adversarial floats
        // in the request (bit-pattern probing beyond what real serves
        // produce): save -> load must preserve profile/input/candidate
        // bits, fingerprints and constraint digests exactly.
        let (_, system) = &systems()[0];
        let mut profile = LendingClubGenerator::john();
        // Perturb one coordinate by an arbitrary ULP pattern within
        // schema bounds (keep it finite and in range).
        profile[2] = 46_000.0 + (bump % 1_000) as f64 + 0.1 + 0.2;
        let snapshot = serve_alone(system, UserRequest::new(profile)).snapshot();

        let db = DbSnapshotStore::in_new_database(schema()).expect("open");
        db.save("u", &snapshot).expect("save");
        let loaded = db.load("u").expect("load").expect("stored");

        prop_assert_eq!(loaded.fingerprints(), snapshot.fingerprints());
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        prop_assert_eq!(
            bits(loaded.temporal_inputs()),
            bits(snapshot.temporal_inputs())
        );
        prop_assert_eq!(
            bits(std::slice::from_ref(&loaded.request.profile)),
            bits(std::slice::from_ref(&snapshot.request.profile))
        );
        prop_assert_eq!(loaded.candidates().len(), snapshot.candidates().len());
        for (a, b) in loaded.candidates().iter().zip(snapshot.candidates()) {
            prop_assert_eq!(a.time_index, b.time_index);
            prop_assert_eq!(a.diff.to_bits(), b.diff.to_bits());
            prop_assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
    }
}

/// A small schema-shaped snapshot; `v` makes each one distinct.
fn small_snapshot(v: f64) -> jit_core::SessionSnapshot {
    let dim = schema().dim();
    jit_core::SessionSnapshot::from_parts(
        UserRequest::new(vec![v; dim]),
        vec![vec![v; dim]; 3],
        vec![],
        vec![Some(jit_math::Digest([v.to_bits(), 1])), None, None],
    )
    .unwrap()
}

/// A loaded snapshot as canonical wire bytes, for exact comparison.
fn snapshot_bytes(snapshot: Option<jit_core::SessionSnapshot>) -> Option<Vec<u8>> {
    snapshot.map(|snapshot| {
        jit_service::wire::response_bytes(&jit_service::WireResponse {
            users: vec![jit_service::wire::WireServedUser {
                user_id: String::new(),
                snapshot,
                provenance: None,
            }],
            report: Default::default(),
        })
    })
}

/// A durable store over `file`, replaying whatever the file holds.
fn durable_store(file: &Arc<jit_db::FaultFile>) -> DbSnapshotStore {
    let file = Arc::clone(file) as Arc<dyn jit_db::DbFile>;
    let (wal, _) =
        jit_db::DurableDatabase::open(file, jit_db::WalConfig::default()).unwrap();
    DbSnapshotStore::open_durable(Arc::new(wal), schema()).unwrap()
}

/// Model-based check of both `DbSnapshotStore` tiers against
/// `MemorySnapshotStore`: seeded histories of saves, overwrites,
/// removes, reopens of the durable store from its log and saves whose
/// log sync fails. After every step, every load, the id listing and
/// every remove result match the model.
#[test]
fn db_stores_match_the_memory_model_over_seeded_histories() {
    let ids = ["a", "b", "c", "d"];
    for seed in 0..8 {
        let mut rng = proptest::test_runner::TestRng::seeded(seed);
        let mut pick = |n: usize| rng.i128_in(0, n as i128) as usize;
        let model = MemorySnapshotStore::new();
        let direct = DbSnapshotStore::in_new_database(schema()).unwrap();
        let file = Arc::new(jit_db::FaultFile::new(Arc::new(jit_db::MemFile::new())));
        let mut durable = durable_store(&file);
        for step in 0..80 {
            let id = ids[pick(ids.len())];
            let snapshot = small_snapshot((seed * 1000 + step) as f64);
            let at = format!("seed {seed}, step {step}, id {id}");
            match pick(8) {
                0..=3 => {
                    for store in [&model as &dyn SnapshotStore, &direct, &durable] {
                        store.save(id, &snapshot).unwrap();
                    }
                }
                4 | 5 => {
                    let expected = model.remove(id).unwrap();
                    assert_eq!(direct.remove(id).unwrap(), expected, "{at}");
                    assert_eq!(durable.remove(id).unwrap(), expected, "{at}");
                }
                6 => {
                    file.fail_nth_sync(1);
                    let err = durable.save(id, &snapshot).unwrap_err();
                    assert!(
                        matches!(
                            err,
                            jit_service::StoreError::Db(jit_db::DbError::Io { .. })
                        ),
                        "{at}: {err:?}"
                    );
                }
                _ => durable = durable_store(&file),
            }
            let listed = model.user_ids().unwrap();
            assert_eq!(direct.user_ids().unwrap(), listed, "{at}");
            assert_eq!(durable.user_ids().unwrap(), listed, "{at}");
            for id in ids {
                let expected = snapshot_bytes(model.load(id).unwrap());
                assert_eq!(snapshot_bytes(direct.load(id).unwrap()), expected, "{at}");
                assert_eq!(snapshot_bytes(durable.load(id).unwrap()), expected, "{at}");
            }
        }
    }
}

/// Of N threads removing one stored id at once, exactly one learns it
/// removed a snapshot, on both tiers.
#[test]
fn concurrent_removes_of_one_id_report_exactly_one_removal() {
    let file = Arc::new(jit_db::FaultFile::new(Arc::new(jit_db::MemFile::new())));
    let stores =
        [DbSnapshotStore::in_new_database(schema()).unwrap(), durable_store(&file)];
    let threads = 4;
    for store in &stores {
        for round in 0..200 {
            store.save("u", &small_snapshot(round as f64)).unwrap();
            let barrier = std::sync::Barrier::new(threads);
            let removed = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            store.remove("u").unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).filter(|&r| r).count()
            });
            assert_eq!(removed, 1, "round {round}");
            assert!(store.load("u").unwrap().is_none(), "round {round}");
        }
    }
}
