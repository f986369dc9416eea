//! Integration tests for the serving service: the typed-error contract
//! (every public entry point returns a [`ServeError`] instead of
//! panicking), snapshot persistence through both store backends, and
//! the sharded dispatcher's routing invariants.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jit_core::{Job, JustInTime, UserRequest};
use jit_data::{FeatureSchema, LendingClubGenerator, LendingClubParams};
use jit_ml::{Dataset, RandomForestParams};
use jit_service::{
    CohortMember, DbSnapshotStore, JitService, MemorySnapshotStore, ReturningMember,
    ServeBackend, ServeError, ServeRequest, ShardedService, SnapshotStore, StoreError,
};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------
// Fixture: one small trained system, shared across tests
// ---------------------------------------------------------------------

fn small_config(horizon: usize) -> jit_core::AdminConfig {
    jit_core::AdminConfig {
        horizon,
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
    }
}

fn fixture() -> &'static (Arc<JustInTime>, FeatureSchema) {
    static FIXTURE: OnceLock<(Arc<JustInTime>, FeatureSchema)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
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
        let schema = gen.schema().clone();
        let system = JustInTime::train(small_config(2), &schema, &slices)
            .expect("fixture trains");
        (Arc::new(system), schema)
    })
}

fn shared_system() -> Arc<JustInTime> {
    Arc::clone(&fixture().0)
}

fn fresh_service() -> JitService {
    JitService::with_shared(shared_system(), Arc::new(MemorySnapshotStore::new()))
}

fn john_member(id: &str) -> CohortMember {
    CohortMember::new(id, UserRequest::new(LendingClubGenerator::john()))
}

type Print = Vec<(usize, Vec<u64>, u64, u64)>;

fn print(session: &jit_core::UserSession<'_>) -> Print {
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

// ---------------------------------------------------------------------
// Happy paths: service output === JustInTime::serve, snapshots stored
// ---------------------------------------------------------------------

#[test]
fn new_user_matches_core_serve_and_stores_snapshot() {
    let system = shared_system();
    let service = fresh_service();
    let response = service
        .serve(ServeRequest::new_user("john", john_member("x").request))
        .unwrap();
    assert_eq!(response.users.len(), 1);
    assert_eq!(response.users[0].user_id, "john");
    assert_eq!(response.report.users, 1);
    assert_eq!(response.report.cold_time_points, 3);
    assert_eq!(response.report.replayed_time_points, 0);
    assert_eq!(response.report.shards.len(), 1);

    let core = system.serve(&[john_member("x").request.into()], None).unwrap();
    assert_eq!(print(&response.users[0].session), print(&core[0]));
    // The snapshot landed in the store under the user id.
    assert_eq!(service.store().user_ids().unwrap(), vec!["john"]);
}

#[test]
fn batch_then_refresh_replays_everything() {
    let service = fresh_service();
    let cohort = vec![john_member("a"), john_member("b")];
    let first = service.serve(ServeRequest::batch(cohort)).unwrap();
    let first_prints: Vec<Print> =
        first.users.iter().map(|u| print(&u.session)).collect();
    drop(first);

    let refreshed = service.serve(ServeRequest::refresh(["a", "b"])).unwrap();
    assert_eq!(refreshed.report.users, 2);
    assert_eq!(refreshed.report.replayed_time_points, 6, "no drift: all replay");
    assert_eq!(refreshed.report.recomputed_time_points, 0);
    let prints: Vec<Print> =
        refreshed.users.iter().map(|u| print(&u.session)).collect();
    assert_eq!(prints, first_prints);
    // Response order is request order, not store order.
    assert_eq!(refreshed.users[0].user_id, "a");
    assert_eq!(refreshed.users[1].user_id, "b");
}

#[test]
fn returning_inline_matches_refresh() {
    let service = fresh_service();
    let first =
        service.serve(ServeRequest::new_user("u", john_member("u").request)).unwrap();
    let snapshot = first.users[0].session.snapshot();
    drop(first);
    let inline = service
        .serve(ServeRequest::returning([ReturningMember::new(
            "u",
            jit_core::ReturningUser::unchanged(snapshot),
        )]))
        .unwrap();
    let by_id = service.serve(ServeRequest::refresh(["u"])).unwrap();
    assert_eq!(print(&inline.users[0].session), print(&by_id.users[0].session));
}

// ---------------------------------------------------------------------
// Typed errors: every entry point, no panics
// ---------------------------------------------------------------------

#[test]
fn empty_batches_are_typed_errors() {
    let service = fresh_service();
    for request in [
        ServeRequest::Batch(vec![]),
        ServeRequest::Returning(vec![]),
        ServeRequest::Refresh(vec![]),
    ] {
        assert!(matches!(service.serve(request), Err(ServeError::EmptyBatch)));
    }
}

#[test]
fn duplicate_user_ids_are_typed_errors() {
    let service = fresh_service();
    let err = service
        .serve(ServeRequest::batch([john_member("dup"), john_member("dup")]))
        .unwrap_err();
    assert!(matches!(err, ServeError::DuplicateUser(id) if id == "dup"));
}

#[test]
fn unknown_refresh_id_is_a_typed_error() {
    let service = fresh_service();
    service.serve(ServeRequest::new_user("known", john_member("x").request)).unwrap();
    let err = service.serve(ServeRequest::refresh(["known", "ghost"])).unwrap_err();
    assert!(matches!(err, ServeError::UnknownUser(id) if id == "ghost"));
}

#[test]
fn per_user_session_errors_carry_the_user_id() {
    use jit_core::SessionError::{DimensionMismatch, UnknownFeature};
    let service = fresh_service();
    let sharded = ShardedService::from_shared(shared_system(), 2, 0, |_| {
        Arc::new(MemorySnapshotStore::new())
    });
    // A LendingClub profile carrying the update function of the
    // 8-feature synth/credit schema.
    let mut foreign = UserRequest::new(LendingClubGenerator::john());
    foreign.update_fn = Some(jit_temporal::update::TemporalUpdateFn::from_schema(
        &jit_data::scenario::ScenarioSpec::credit(0).schema(),
    ));
    let mut prefs = jit_constraints::ConstraintSet::new();
    prefs.add(jit_constraints::builder::feature("fico").ge(700.0));
    let bad_prefs = UserRequest {
        profile: LendingClubGenerator::john(),
        constraints: prefs,
        update_fn: None,
    };
    // Every failing user shares its batch with a good user on the other
    // shard, so each batch spans both shards.
    for bad in ["short", "foreign", "bad-prefs"] {
        assert_ne!(sharded.shard_of(bad), sharded.shard_of("ok-0"), "{bad}");
    }
    for tier in [&service as &dyn ServeBackend, &sharded] {
        // Wrong dimension (schema mismatch between profile and system).
        let err = tier
            .serve_wire(ServeRequest::batch([
                john_member("ok-0"),
                CohortMember::new("short", UserRequest::new(vec![1.0])),
            ]))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ServeError::Session {
                    user_id,
                    error: DimensionMismatch { expected: 6, found: 1 },
                } if user_id == "short"
            ),
            "{err:?}"
        );
        // An update function built for another schema.
        let err = tier
            .serve_wire(ServeRequest::batch([
                john_member("ok-0"),
                CohortMember::new("foreign", foreign.clone()),
            ]))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ServeError::Session {
                    user_id,
                    error: DimensionMismatch { expected: 6, found: 8 },
                } if user_id == "foreign"
            ),
            "{err:?}"
        );
        // Unknown feature in preferences.
        let err = tier
            .serve_wire(ServeRequest::batch([
                john_member("ok-0"),
                CohortMember::new("bad-prefs", bad_prefs.clone()),
            ]))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ServeError::Session { user_id, error: UnknownFeature(f) }
                    if user_id == "bad-prefs" && f == "fico"
            ),
            "{err:?}"
        );
    }
    // Nothing was stored for the failing batches (all-or-nothing), on
    // any tier or shard.
    assert!(service.store().user_ids().unwrap().is_empty());
    for shard in sharded.shards() {
        assert!(shard.store().user_ids().unwrap().is_empty());
    }
}

/// A store whose writes always fail — the fault-injection backend.
#[derive(Debug)]
struct BrokenStore;

impl SnapshotStore for BrokenStore {
    fn save(&self, _: &str, _: &jit_core::SessionSnapshot) -> Result<(), StoreError> {
        Err(StoreError::Unavailable("disk on fire".to_string()))
    }

    fn load(&self, _: &str) -> Result<Option<jit_core::SessionSnapshot>, StoreError> {
        Err(StoreError::Unavailable("disk on fire".to_string()))
    }

    fn remove(&self, _: &str) -> Result<bool, StoreError> {
        Err(StoreError::Unavailable("disk on fire".to_string()))
    }

    fn user_ids(&self) -> Result<Vec<String>, StoreError> {
        Err(StoreError::Unavailable("disk on fire".to_string()))
    }
}

#[test]
fn store_failures_are_typed_errors_not_panics() {
    let service = JitService::with_shared(shared_system(), Arc::new(BrokenStore));
    let err = service
        .serve(ServeRequest::new_user("u", john_member("u").request))
        .unwrap_err();
    assert!(matches!(
        &err,
        ServeError::Store { user_id: Some(id), error: StoreError::Unavailable(_) }
            if id == "u"
    ));
    let err = service.serve(ServeRequest::refresh(["u"])).unwrap_err();
    assert!(matches!(
        &err,
        ServeError::Store { user_id: Some(id), error: StoreError::Unavailable(_) }
            if id == "u"
    ));
}

#[test]
fn db_store_rejects_snapshots_from_a_different_schema() {
    let (_, schema) = fixture();
    let db = Arc::new(jit_db::Database::new());
    let store = DbSnapshotStore::open(Arc::clone(&db), schema).unwrap();
    let service = JitService::with_shared(shared_system(), Arc::new(store));
    service.serve(ServeRequest::new_user("u", john_member("u").request)).unwrap();

    // Re-open the same database under a different schema: the persisted
    // snapshot must be refused, not replayed.
    let mut features = schema.features().to_vec();
    features[0].max += 1.0;
    let other_schema = FeatureSchema::new(features);
    let reopened = DbSnapshotStore::open(db, &other_schema).unwrap();
    let err = reopened.load("u").unwrap_err();
    assert!(matches!(err, StoreError::SchemaMismatch { .. }), "{err:?}");
}

/// The stored snapshot blob for `id`, read through the engine.
fn stored_blob(db: &jit_db::Database, id: &str) -> Vec<u8> {
    let id = jit_db::Value::from(id);
    let rs = db.select("jit_snapshots", &["snapshot"], Some(("user_id", &id))).unwrap();
    let [jit_db::Value::Blob(blob)] = rs.rows[0].as_slice() else {
        panic!("one blob column, got {:?}", rs.rows[0]);
    };
    blob.clone()
}

/// Overwrites `id`'s stored blob in place, bypassing the store.
fn overwrite_blob(db: &jit_db::Database, id: &str, blob: Vec<u8>) {
    let id = jit_db::Value::from(id);
    db.apply(&[
        jit_db::WalOp::DeleteEq {
            table: "jit_snapshots".into(),
            column: "user_id".into(),
            value: id.clone(),
        },
        jit_db::WalOp::InsertRows {
            table: "jit_snapshots".into(),
            rows: vec![vec![id, jit_db::Value::Blob(blob)]],
        },
    ])
    .unwrap();
}

#[test]
fn db_store_reports_corrupt_rows_as_typed_errors() {
    let (_, schema) = fixture();
    let db = Arc::new(jit_db::Database::new());
    let store = DbSnapshotStore::open(Arc::clone(&db), schema).unwrap();
    let service = JitService::with_shared(shared_system(), Arc::new(store));
    service.serve(ServeRequest::new_user("u", john_member("u").request)).unwrap();
    let blob = stored_blob(&db, "u");

    // Vandalize the persisted blob: a blob cut short at any byte must
    // surface as StoreError::Corrupt on load, never a shape-invalid
    // snapshot that mis-serves downstream.
    for cut in 0..blob.len() {
        overwrite_blob(&db, "u", blob[..cut].to_vec());
        let err = service.store().load("u").unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { user_id, .. } if user_id == "u"),
            "cut at {cut}: {err:?}"
        );
    }

    // A format version this build does not read is refused outright,
    // through the serving path too.
    let mut flipped = blob.clone();
    flipped[0] ^= 0xff;
    overwrite_blob(&db, "u", flipped);
    let err = service.serve(ServeRequest::refresh(["u"])).unwrap_err();
    assert!(
        matches!(
            &err,
            ServeError::Store { error: StoreError::Corrupt { user_id, .. }, .. }
                if user_id == "u"
        ),
        "{err:?}"
    );
    overwrite_blob(&db, "u", blob);
    assert!(service.store().load("u").unwrap().is_some(), "the intact blob loads");

    // A database written in the older seven-table layout still has a
    // four-column `jit_snapshots`: opening over it fails typed, on both
    // durability tiers.
    const OLD_LAYOUT: &str = "CREATE TABLE jit_snapshots \
        (user_id TEXT, schema_digest TEXT, horizon INTEGER, update_fn TEXT)";
    let old = Arc::new(jit_db::Database::new());
    old.execute(OLD_LAYOUT).unwrap();
    old.execute("INSERT INTO jit_snapshots VALUES ('u', '00', 2, '-')").unwrap();
    let err = DbSnapshotStore::open(old, schema).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    let (wal, _) = jit_db::DurableDatabase::open(
        Arc::new(jit_db::MemFile::new()),
        jit_db::WalConfig::default(),
    )
    .unwrap();
    wal.commit(&[jit_db::WalOp::CreateTable {
        name: "jit_snapshots".into(),
        columns: vec![
            ("user_id".into(), jit_db::ColumnType::Text),
            ("schema_digest".into(), jit_db::ColumnType::Text),
            ("horizon".into(), jit_db::ColumnType::Integer),
            ("update_fn".into(), jit_db::ColumnType::Text),
        ],
    }])
    .unwrap();
    let err = DbSnapshotStore::open_durable(Arc::new(wal), schema).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
}

/// A request whose one constraint is `depth` `Not`s around `True`.
fn nested_request(depth: usize) -> UserRequest {
    let mut constraint = jit_constraints::Constraint::True;
    for _ in 0..depth {
        constraint = jit_constraints::Constraint::Not(Box::new(constraint));
    }
    let mut request = UserRequest::new(LendingClubGenerator::john());
    request.constraints.add(constraint);
    request
}

#[test]
fn requests_nested_past_the_wire_cap_are_refused_on_every_tier() {
    let (_, schema) = fixture();
    let cap = jit_service::wire::MAX_CONSTRAINT_DEPTH;
    let memory = fresh_service();
    let db = JitService::with_shared(
        shared_system(),
        Arc::new(DbSnapshotStore::in_new_database(schema).unwrap()),
    );
    let sharded = ShardedService::from_shared(shared_system(), 2, 0, |_| {
        Arc::new(MemorySnapshotStore::new())
    });
    let on_every_tier = |request: ServeRequest| {
        [
            memory.serve(request.clone()).map(|_| ()),
            db.serve(request.clone()).map(|_| ()),
            sharded.serve(request).map(|_| ()),
        ]
    };
    // At the cap: served, stored, and replayed from the store.
    for result in on_every_tier(ServeRequest::new_user("edge", nested_request(cap))) {
        result.unwrap();
    }
    let prior =
        db.serve(ServeRequest::refresh(["edge"])).unwrap().users[0].session.snapshot();
    // Past the cap, in a new user's, a returning user's or a prior
    // snapshot's request: refused before any search, on every tier.
    let deep = nested_request(cap + 1);
    let mut deep_prior = prior.clone();
    deep_prior.request = deep.clone();
    for request in [
        ServeRequest::batch([
            john_member("ok"),
            CohortMember::new("deep", deep.clone()),
        ]),
        ServeRequest::returning([ReturningMember::new(
            "deep",
            jit_core::ReturningUser { request: deep, prior },
        )]),
        ServeRequest::returning([ReturningMember::new(
            "deep",
            jit_core::ReturningUser::unchanged(deep_prior),
        )]),
    ] {
        for result in on_every_tier(request) {
            let err = result.unwrap_err();
            assert!(
                matches!(&err, ServeError::Transport(detail) if detail.contains("\"deep\"")),
                "{err:?}"
            );
        }
    }
}

#[test]
fn db_store_refuses_to_save_what_it_could_not_load() {
    let (_, schema) = fixture();
    let cap = jit_service::wire::MAX_CONSTRAINT_DEPTH;
    let snapshot = |depth: usize| {
        jit_core::SessionSnapshot::from_parts(
            nested_request(depth),
            vec![LendingClubGenerator::john(); 3],
            vec![],
            vec![None; 3],
        )
        .unwrap()
    };
    let db = Arc::new(jit_db::Database::new());
    let store = DbSnapshotStore::open(Arc::clone(&db), schema).unwrap();
    store.save("edge", &snapshot(cap)).unwrap();
    assert!(store.load("edge").unwrap().is_some());
    let err = store.save("deep", &snapshot(cap + 1)).unwrap_err();
    assert!(
        matches!(&err, StoreError::Corrupt { user_id, .. } if user_id == "deep"),
        "{err:?}"
    );
    assert!(store.load("deep").unwrap().is_none(), "nothing was written");

    // A blob nested past the cap by other hands fails the load typed:
    // stored bytes go through the wire decoder and its cap.
    let mut blob = stored_blob(&db, "edge");
    let not_run = blob.windows(cap).position(|w| w.iter().all(|&b| b == 4)).unwrap();
    blob.insert(not_run, 4);
    overwrite_blob(&db, "edge", blob);
    let err = store.load("edge").unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
}

#[test]
fn db_store_saves_are_atomic_under_concurrent_loads() {
    let (_, schema) = fixture();
    // Two schema-shaped snapshots that differ in every part.
    let snapshot = |v: f64| {
        jit_core::SessionSnapshot::from_parts(
            UserRequest::new(vec![v; schema.dim()]),
            vec![vec![v; schema.dim()]; 3],
            vec![],
            vec![Some(jit_math::Digest([v.to_bits(), 7])); 3],
        )
        .unwrap()
    };
    let pair = [snapshot(1.5), snapshot(-0.0)];
    // Exact identity through the canonical wire bytes.
    let bytes = |s: &jit_core::SessionSnapshot| {
        jit_service::wire::response_bytes(&jit_service::WireResponse {
            users: vec![jit_service::wire::WireServedUser {
                user_id: String::new(),
                snapshot: s.clone(),
                provenance: None,
            }],
            report: Default::default(),
        })
    };
    let expected = [bytes(&pair[0]), bytes(&pair[1])];
    let (wal, _) = jit_db::DurableDatabase::open(
        Arc::new(jit_db::MemFile::new()),
        jit_db::WalConfig::default(),
    )
    .unwrap();
    let stores = [
        DbSnapshotStore::in_new_database(schema).unwrap(),
        DbSnapshotStore::open_durable(Arc::new(wal), schema).unwrap(),
    ];
    for store in &stores {
        store.save("u", &pair[0]).unwrap();
        std::thread::scope(|scope| {
            for writer in 0..2 {
                let pair = &pair;
                scope.spawn(move || {
                    for i in 0..1000 {
                        store.save("u", &pair[(i + writer) % 2]).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        let loaded = store.load("u").unwrap().expect("never absent");
                        assert!(expected.contains(&bytes(&loaded)), "torn snapshot");
                    }
                });
            }
        });
    }
}

// ---------------------------------------------------------------------
// DbSnapshotStore: SQL round-trip + restart survival
// ---------------------------------------------------------------------

#[test]
fn db_store_round_trips_snapshots_bit_exactly() {
    let (system, schema) = fixture();
    // A request exercising every serialized part: preferences with
    // scopes and awkward floats, a trajectory override, constraints.
    use jit_constraints::builder::{diff, feature, gap};
    let request = system
        .session_builder(&LendingClubGenerator::john())
        .constraint(gap().le(2.0))
        .constraint_at(1, feature("income").le(80_000.5))
        .constraint(diff().le(0.1 + 0.2).or(feature("debt").ge(-0.0)))
        .override_feature(
            "debt",
            jit_temporal::update::Override::Trajectory(vec![1_500.0, 0.25]),
        )
        .build();
    let session = system.serve(&[request.into()], None).unwrap();
    let snapshot = session[0].snapshot();

    let store = DbSnapshotStore::in_new_database(schema).unwrap();
    store.save("john", &snapshot).unwrap();
    let loaded = store.load("john").unwrap().expect("stored");

    // Fingerprints, inputs and candidates round-trip bit-exactly...
    assert_eq!(loaded.fingerprints(), snapshot.fingerprints());
    assert_eq!(loaded.temporal_inputs(), snapshot.temporal_inputs());
    assert_eq!(loaded.candidates().len(), snapshot.candidates().len());
    for (a, b) in loaded.candidates().iter().zip(snapshot.candidates()) {
        assert_eq!(a.time_index, b.time_index);
        assert_eq!(a.gap, b.gap);
        assert_eq!(a.diff.to_bits(), b.diff.to_bits());
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.profile), bits(&b.profile));
    }
    // ...and re-serving from the loaded snapshot replays like the
    // original (same fingerprints -> full replay, bit-identical output).
    let returning = |prior| Job::from(jit_core::ReturningUser::unchanged(prior));
    let warm = system.serve(&[returning(snapshot), returning(loaded)], None).unwrap();
    let (from_memory, from_store) = (&warm[0], &warm[1]);
    assert_eq!(print(from_store), print(from_memory));
    assert!(from_store
        .reserve_report()
        .unwrap()
        .iter()
        .all(|o| *o == jit_core::TimePointServe::Replayed));
}

#[test]
fn db_store_survives_service_restart() {
    let (_, schema) = fixture();
    let db = Arc::new(jit_db::Database::new());
    let reference_print;
    {
        let store = DbSnapshotStore::open(Arc::clone(&db), schema).unwrap();
        let service = JitService::with_shared(shared_system(), Arc::new(store));
        let response = service
            .serve(ServeRequest::new_user("survivor", john_member("x").request))
            .unwrap();
        reference_print = print(&response.users[0].session);
        // Service, system and store dropped here; only `db` survives.
    }
    let store = DbSnapshotStore::open(db, schema).unwrap();
    assert_eq!(store.user_ids().unwrap(), vec!["survivor"]);
    let service = JitService::with_shared(shared_system(), Arc::new(store));
    let refreshed = service.serve(ServeRequest::refresh(["survivor"])).unwrap();
    assert_eq!(print(&refreshed.users[0].session), reference_print);
    assert_eq!(refreshed.report.replayed_time_points, 3);
    // remove() reports truthfully across restarts too.
    assert!(service.store().remove("survivor").unwrap());
    assert!(!service.store().remove("survivor").unwrap());
    assert!(service.store().user_ids().unwrap().is_empty());
}

// ---------------------------------------------------------------------
// Sharding: routing invariants (bit-identity lives in the workspace
// determinism suite)
// ---------------------------------------------------------------------

#[test]
fn sharded_service_routes_consistently_and_reassembles_in_order() {
    let sharded = ShardedService::from_shared(shared_system(), 4, 0, |_| {
        Arc::new(MemorySnapshotStore::new())
    });
    let ids: Vec<String> = (0..12).map(|i| format!("user-{i}")).collect();
    let members: Vec<CohortMember> = ids.iter().map(|id| john_member(id)).collect();
    let response = sharded.serve(ServeRequest::batch(members)).unwrap();
    assert_eq!(response.report.users, 12);
    let got: Vec<&str> = response.users.iter().map(|u| u.user_id.as_str()).collect();
    assert_eq!(got, ids.iter().map(String::as_str).collect::<Vec<_>>());
    // Every user's snapshot lives exactly on its consistent shard.
    for id in &ids {
        let home = sharded.shard_of(id);
        for (s, shard) in sharded.shards().iter().enumerate() {
            let stored = shard.store().load(id).unwrap().is_some();
            assert_eq!(stored, s == home, "user {id} on shard {s}");
        }
    }
    // Refresh round-trips through the per-shard stores.
    let refreshed = sharded.serve(ServeRequest::refresh(ids.clone())).unwrap();
    assert_eq!(refreshed.report.replayed_time_points, 12 * 3);
    // Reports aggregate only shards that served users.
    assert!(refreshed.report.shards.iter().all(|s| s.users > 0));
    assert_eq!(refreshed.report.shards.iter().map(|s| s.users).sum::<usize>(), 12);
}

#[test]
fn sharded_errors_are_typed_and_deterministic() {
    let sharded = ShardedService::from_shared(shared_system(), 3, 1, |_| {
        Arc::new(MemorySnapshotStore::new())
    });
    for request in [ServeRequest::Batch(vec![]), ServeRequest::Refresh(vec![])] {
        assert!(matches!(sharded.serve(request), Err(ServeError::EmptyBatch)));
    }
    let err = sharded
        .serve(ServeRequest::batch([john_member("dup"), john_member("dup")]))
        .unwrap_err();
    assert!(matches!(err, ServeError::DuplicateUser(_)));
    // The earliest failing user in request order wins, whatever its shard.
    let err = sharded
        .serve(ServeRequest::batch([
            john_member("ok-0"),
            CohortMember::new("bad-1", UserRequest::new(vec![1.0])),
            CohortMember::new("bad-2", UserRequest::new(vec![2.0, 3.0])),
        ]))
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::Session { user_id, .. } if user_id == "bad-1"
    ));
    // Unknown refresh ids surface from the owning shard.
    let err = sharded.serve(ServeRequest::refresh(["nobody"])).unwrap_err();
    assert!(matches!(err, ServeError::UnknownUser(id) if id == "nobody"));
}
