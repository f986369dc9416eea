//! Smoke test for the `justintime::prelude` surface.
//!
//! Exercises every symbol the prelude re-exports on a tiny generator
//! config (train → session → `run_all`), guarding the facade against
//! silent breakage: a symbol dropped from the prelude, or an API drift in
//! any re-exported type, fails this suite at compile time or runtime.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::prelude::*;

#[test]
fn prelude_surface_end_to_end() {
    // ---- jit_data: LendingClubParams, LendingClubGenerator, LoanRecord,
    // FeatureSchema -----------------------------------------------------
    let gen = LendingClubGenerator::new(LendingClubParams {
        start_year: 2013,
        end_year: 2018,
        records_per_year: 120,
        ..Default::default()
    });
    let schema: &FeatureSchema = gen.schema();
    assert_eq!(schema.dim(), FeatureSchema::lending_club().dim());
    let records: Vec<LoanRecord> = gen.records_for_year(2018);
    assert!(!records.is_empty());
    assert!(records.iter().all(|r| r.features.len() == schema.dim()));
    assert!(
        records.iter().any(|r| r.approved) && records.iter().any(|r| !r.approved),
        "generated year should contain both approved and rejected applications"
    );

    // ---- jit_ml: Dataset, RandomForest, RandomForestParams, Model ------
    let slices: Vec<Dataset> = gen
        .years()
        .into_iter()
        .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
        .collect();
    let mut rng = justintime::jit_math::rng::Rng::seeded(7);
    let forest = RandomForest::fit(
        &slices[0],
        &RandomForestParams { n_trees: 4, ..Default::default() },
        &mut rng,
    );
    let model: &dyn Model = &forest;
    let john = LendingClubGenerator::john();
    let p = model.predict_proba(&john);
    assert!((0.0..=1.0).contains(&p), "forest probability out of range: {p}");

    // ---- jit_constraints: builder fns, parse_constraint, Constraint,
    // ConstraintSet ------------------------------------------------------
    let built: Constraint = feature("income")
        .minus(constant(0.0))
        .le(constant(80_000.0))
        .and(gap().le(constant(4.0)))
        .and(diff().ge(constant(0.0)))
        .and(confidence().ge(constant(0.0)));
    let parsed: Constraint =
        parse_constraint("income <= 60000 and gap <= 2").expect("valid constraint");
    let mut prefs = ConstraintSet::new();
    prefs.add(parsed);
    prefs.add(built);

    // ---- jit_temporal: TemporalUpdateFn, Override, FutureModelsParams,
    // FuturePredictor ----------------------------------------------------
    let mut update = TemporalUpdateFn::from_schema(schema);
    update.override_feature("income", Override::Trajectory(vec![48_000.0, 52_000.0]));
    let future = FutureModelsParams {
        predictor: FuturePredictor::Edd,
        n_landmarks: 40,
        forest: RandomForestParams { n_trees: 8, ..Default::default() },
        ..Default::default()
    };

    // ---- jit_core: AdminConfig, CandidateParams, Objective, JustInTime, Job,
    // UserSession, CannedQuery, Insight ----------------------------------
    let config = AdminConfig {
        horizon: 2,
        start_year: 2019,
        future,
        candidates: CandidateParams {
            beam_width: 4,
            max_iters: 3,
            top_k: 3,
            objective: Objective::MinDiff,
            ..Default::default()
        },
        ..Default::default()
    };
    let system = JustInTime::train(config, schema, &slices).expect("training succeeds");
    assert_eq!(system.models().len(), 3, "horizon 2 trains models for t = 0..=2");

    let job = Job {
        request: UserRequest {
            profile: john.clone(),
            constraints: prefs,
            update_fn: Some(update),
        },
        prior: None,
    };
    let session: UserSession<'_> =
        system.serve(&[job], None).expect("session opens").remove(0);
    let (conf, _approved) = session.present_decision();
    assert!((0.0..=1.0).contains(&conf));

    let catalogue = CannedQuery::catalogue();
    assert!(!catalogue.is_empty());
    for q in &catalogue {
        assert!(!q.id().is_empty());
        assert!(!q.question().is_empty());
        assert!(!q.sql().is_empty());
    }

    let insights: Vec<Insight> = session.run_all().expect("canned queries run");
    assert_eq!(insights.len(), catalogue.len());
    for insight in &insights {
        assert!(!insight.headline.is_empty());
        assert!(!format!("{insight}").is_empty());
    }

    // ---- jit_db: Database, Value, ResultSet (standalone and via the
    // session's SQL door) ------------------------------------------------
    let db = Database::new();
    db.execute("CREATE TABLE t (v INTEGER)").expect("create table");
    db.insert_row("t", vec![Value::Int(3)]).expect("insert");
    let rs: ResultSet = db.execute("SELECT v FROM t").expect("select");
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0].as_i64(), Some(3));

    let counted: ResultSet =
        session.sql("SELECT COUNT(*) FROM candidates").expect("session SQL runs");
    assert_eq!(counted.len(), 1);
    drop(session);

    // ---- jit_service: JitService, ShardedService, ServeRequest/Response,
    // CohortMember/ReturningMember, stores, typed errors ------------------
    let db_store: DbSnapshotStore =
        DbSnapshotStore::in_new_database(schema).expect("snapshot store opens");
    let service: JitService = JitService::new(system, db_store);
    let member = CohortMember::new("john", UserRequest::new(john.clone()));
    let response: ServeResponse<'_> =
        service.serve(ServeRequest::batch([member])).expect("service serves");
    let served: &ServedUser<'_> = &response.users[0];
    assert_eq!(served.user_id, "john");
    let report: &ServeReport = &response.report;
    let shard_report: ShardReport = report.shards[0];
    assert_eq!((report.users, shard_report.shard), (1, 0));

    let returning = ReturningMember::new(
        "john",
        ReturningUser::unchanged(served.session.snapshot()),
    );
    let inline =
        service.serve(ServeRequest::returning([returning])).expect("returning");
    assert_eq!(inline.report.recomputed_time_points, 0);
    let refreshed: ServeResponse<'_> =
        service.serve(ServeRequest::refresh(["john"])).expect("refresh by id");
    assert_eq!(refreshed.report.replayed_time_points, 3);

    let err: ServeError = service.serve(ServeRequest::Batch(vec![])).unwrap_err();
    assert!(matches!(err, ServeError::EmptyBatch));
    let store: &dyn SnapshotStore = service.store();
    assert_eq!(store.user_ids().expect("listable"), vec!["john"]);
    let memory: MemorySnapshotStore = MemorySnapshotStore::new();
    let missing: Result<_, StoreError> = memory.load("nobody");
    assert!(missing.expect("memory load").is_none());

    let sharded: ShardedService =
        ShardedService::from_shared(service.system_arc().clone(), 2, 1, |_| {
            std::sync::Arc::new(MemorySnapshotStore::new())
        });
    assert_eq!(sharded.shard_count(), 2);
    assert!(sharded.shard_of("john") < 2);
}
