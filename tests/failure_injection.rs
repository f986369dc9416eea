//! Failure-injection tests: the pipeline must degrade gracefully, never
//! panic, on degenerate inputs.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::jit_service::wire;
use justintime::prelude::*;

fn tiny_slices(n_slices: usize, per: usize) -> (FeatureSchema, Vec<Dataset>) {
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: per.max(1),
        ..Default::default()
    });
    let schema = gen.schema().clone();
    let slices = gen
        .years()
        .into_iter()
        .take(n_slices)
        .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
        .collect();
    (schema, slices)
}

fn tiny_config(horizon: usize) -> AdminConfig {
    AdminConfig {
        horizon,
        future: FutureModelsParams {
            n_landmarks: 10,
            pool_slices: 2,
            forest: RandomForestParams { n_trees: 4, ..Default::default() },
            ..Default::default()
        },
        candidates: CandidateParams {
            beam_width: 3,
            max_iters: 2,
            top_k: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn john() -> UserRequest {
    UserRequest::new(LendingClubGenerator::john())
}

/// Serves one request in a batch of its own.
fn serve_alone(system: &JustInTime, request: UserRequest) -> UserSession<'_> {
    system.serve(&[request.into()], None).unwrap().remove(0)
}

#[test]
fn training_on_no_slices_errors() {
    let (schema, _) = tiny_slices(1, 10);
    let err = JustInTime::train(tiny_config(2), &schema, &[]);
    assert!(err.is_err());
}

#[test]
fn training_on_single_slice_errors_for_positive_horizon() {
    let (schema, slices) = tiny_slices(1, 30);
    let err = JustInTime::train(tiny_config(2), &schema, &slices);
    assert!(err.is_err(), "cannot learn drift from one slice");
}

#[test]
fn training_with_wrong_dimension_errors() {
    let (schema, _) = tiny_slices(2, 10);
    let bad = vec![Dataset::from_rows(vec![vec![1.0, 2.0]], vec![true])];
    let err = JustInTime::train(tiny_config(0), &schema, &bad);
    assert!(err.is_err());
}

#[test]
fn horizon_zero_works() {
    let (schema, slices) = tiny_slices(3, 60);
    let system = JustInTime::train(tiny_config(0), &schema, &slices).unwrap();
    assert_eq!(system.models().len(), 1);
    let session = serve_alone(&system, john());
    assert_eq!(session.temporal_inputs().len(), 1);
    // All six queries still run (answers may be empty/negative).
    let insights = session.run_all().unwrap();
    assert_eq!(insights.len(), 6);
}

#[test]
fn tiny_slices_still_train() {
    // 12 records per year is pathological but must not panic.
    let (schema, slices) = tiny_slices(4, 12);
    let system = JustInTime::train(tiny_config(1), &schema, &slices).unwrap();
    let session = serve_alone(&system, john());
    let _ = session.run_all().unwrap();
}

#[test]
fn contradictory_user_constraints_yield_empty_candidates() {
    let (schema, slices) = tiny_slices(3, 60);
    let system = JustInTime::train(tiny_config(1), &schema, &slices).unwrap();
    let mut request = john();
    // income must be both huge and tiny: unsatisfiable.
    request.constraints.add(
        jit_constraints::parse_constraint("income >= 1000000 and income <= 1").unwrap(),
    );
    let session = serve_alone(&system, request);
    assert!(session.candidates().is_empty());
    // Queries still answer (negatively) instead of erroring.
    let insights = session.run_all().unwrap();
    assert!(insights[0].headline.contains("No future time point"));
}

#[test]
fn profile_at_schema_bounds_is_handled() {
    let (schema, slices) = tiny_slices(3, 60);
    let system = JustInTime::train(tiny_config(1), &schema, &slices).unwrap();
    // Maximal-age applicant: temporal update clamps, search never leaves
    // the domain.
    let extreme = vec![100.0, 1.0, 2_000_000.0, 100_000.0, 60.0, 100_000.0];
    let session = serve_alone(&system, UserRequest::new(extreme));
    for inputs in session.temporal_inputs() {
        assert!(schema.row_in_bounds(inputs));
    }
    for cand in session.candidates() {
        assert!(schema.row_in_bounds(&cand.profile));
    }
}

#[test]
fn malformed_sql_from_expert_is_an_error_not_a_panic() {
    let (schema, slices) = tiny_slices(3, 60);
    let system = JustInTime::train(tiny_config(1), &schema, &slices).unwrap();
    let session = serve_alone(&system, john());
    for bad in [
        "SELEKT * FROM candidates",
        "SELECT * FROM nope",
        "SELECT nope FROM candidates",
        "SELECT * FROM candidates WHERE",
        "DROP TABLE candidates; DROP TABLE temporal_inputs",
    ] {
        assert!(session.sql(bad).is_err(), "should reject {bad:?}");
    }
    // The tables survive the failed statements.
    assert!(session.sql("SELECT COUNT(*) FROM candidates").is_ok());
}

#[test]
fn unparseable_user_constraint_is_rejected_up_front() {
    assert!(jit_constraints::parse_constraint("income <=").is_err());
    assert!(jit_constraints::parse_constraint("").is_err());
    assert!(jit_constraints::parse_constraint("not not not").is_err());
}

/// A store that serves normally until its fuse runs out, then fails
/// every save until healed — the mid-batch store-death fixture.
#[derive(Debug)]
struct FlakyStore {
    inner: MemorySnapshotStore,
    saves_left: std::sync::atomic::AtomicIsize,
}

impl FlakyStore {
    fn failing_after(successes: isize) -> Self {
        FlakyStore {
            inner: MemorySnapshotStore::new(),
            saves_left: std::sync::atomic::AtomicIsize::new(successes),
        }
    }

    fn heal(&self) {
        self.saves_left.store(isize::MAX, std::sync::atomic::Ordering::SeqCst);
    }
}

impl SnapshotStore for FlakyStore {
    fn save(
        &self,
        user_id: &str,
        snapshot: &SessionSnapshot,
    ) -> Result<(), StoreError> {
        if self.saves_left.fetch_sub(1, std::sync::atomic::Ordering::SeqCst) <= 0 {
            return Err(StoreError::Unavailable("store died mid-batch".to_string()));
        }
        self.inner.save(user_id, snapshot)
    }

    fn load(&self, user_id: &str) -> Result<Option<SessionSnapshot>, StoreError> {
        self.inner.load(user_id)
    }

    fn remove(&self, user_id: &str) -> Result<bool, StoreError> {
        self.inner.remove(user_id)
    }

    fn user_ids(&self) -> Result<Vec<String>, StoreError> {
        self.inner.user_ids()
    }
}

#[test]
fn store_dying_mid_batch_is_attributed_to_the_first_lost_user() {
    use std::sync::Arc;
    let (schema, slices) = tiny_slices(3, 60);
    let system = JustInTime::train(tiny_config(1), &schema, &slices).unwrap();
    let store = Arc::new(FlakyStore::failing_after(2));
    let service = JitService::with_shared(
        Arc::new(system),
        Arc::clone(&store) as Arc<dyn SnapshotStore>,
    );

    let members: Vec<CohortMember> = (0..4)
        .map(|i| {
            CohortMember::new(
                format!("u{i}"),
                UserRequest::new(LendingClubGenerator::john()),
            )
        })
        .collect();

    // Saves run in request order, so a store with two good writes left
    // dies exactly on u2 — and the typed error must say so.
    let err = service.serve(ServeRequest::batch(members.clone())).unwrap_err();
    match &err {
        ServeError::Store { user_id: Some(id), error: StoreError::Unavailable(_) } => {
            assert_eq!(id, "u2", "failure attributed to the first lost user");
        }
        other => panic!("expected an attributed store error, got {other:?}"),
    }
    // Everything before the failure is durably stored; nothing after it
    // was attempted.
    assert_eq!(store.user_ids().unwrap(), vec!["u0", "u1"]);

    // Healed, the same cohort serves in full, in request order.
    store.heal();
    let response = service.serve(ServeRequest::batch(members)).unwrap();
    let ids: Vec<&str> = response.users.iter().map(|u| u.user_id.as_str()).collect();
    assert_eq!(ids, vec!["u0", "u1", "u2", "u3"]);
    assert_eq!(store.user_ids().unwrap(), vec!["u0", "u1", "u2", "u3"]);
}

/// A store whose next load or save fails once with a transient error
/// after [`HiccupStore::arm`] — the store-hiccup fixture.
#[derive(Debug, Default)]
struct HiccupStore {
    inner: MemorySnapshotStore,
    armed: std::sync::atomic::AtomicBool,
}

impl HiccupStore {
    fn arm(&self) {
        self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    fn is_armed(&self) -> bool {
        self.armed.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn hiccup(&self) -> Result<(), StoreError> {
        if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            return Err(StoreError::Unavailable("store hiccup".to_string()));
        }
        Ok(())
    }
}

impl SnapshotStore for HiccupStore {
    fn save(
        &self,
        user_id: &str,
        snapshot: &SessionSnapshot,
    ) -> Result<(), StoreError> {
        self.hiccup()?;
        self.inner.save(user_id, snapshot)
    }

    fn load(&self, user_id: &str) -> Result<Option<SessionSnapshot>, StoreError> {
        self.hiccup()?;
        self.inner.load(user_id)
    }

    fn remove(&self, user_id: &str) -> Result<bool, StoreError> {
        self.inner.remove(user_id)
    }

    fn user_ids(&self) -> Result<Vec<String>, StoreError> {
        self.inner.user_ids()
    }
}

/// The spec the process-tier tests' shard workers train from.
fn tiny_spec() -> TrainSpec {
    TrainSpec {
        data: DataSpec { records_per_year: 60, n_years: 3, ..Default::default() },
        config: tiny_config(1),
    }
}

/// A 2-worker process backend over `stores`.
fn process_backend(stores: &[std::sync::Arc<HiccupStore>]) -> ProcessShardBackend {
    let shardd = env!("CARGO_BIN_EXE_jit-shardd");
    ProcessShardBackend::spawn(
        tiny_spec(),
        ProcessShardConfig::new(shardd, stores.len()),
        |s| std::sync::Arc::clone(&stores[s]) as std::sync::Arc<dyn SnapshotStore>,
    )
    .expect("spawn shard processes")
}

/// The first of `prefix-0`, `prefix-1`, ... that routes to `shard` of 2.
fn id_on_shard(prefix: &str, shard: usize) -> String {
    (0..)
        .map(|i| format!("{prefix}-{i}"))
        .find(|id| shard_index(id, 2) == shard)
        .expect("jump hashing reaches every shard")
}

#[test]
fn every_tier_retries_a_transient_store_error() {
    use std::sync::Arc;
    let system = Arc::new(tiny_spec().train().unwrap());
    let stores = |n: usize| -> Vec<Arc<HiccupStore>> {
        (0..n).map(|_| Arc::new(HiccupStore::default())).collect()
    };
    let (single, in_process, process) = (stores(1), stores(2), stores(2));
    let service = JitService::with_shared(
        Arc::clone(&system),
        Arc::clone(&single[0]) as Arc<dyn SnapshotStore>,
    );
    let sharded = ShardedService::from_shared(Arc::clone(&system), 2, 2, |s| {
        Arc::clone(&in_process[s]) as Arc<dyn SnapshotStore>
    });
    let backend = process_backend(&process);

    // Users on both shards, so every armed store is hit.
    let ids = [id_on_shard("u", 0), id_on_shard("u", 1), id_on_shard("v", 0)];
    let members: Vec<CohortMember> =
        ids.iter().map(|id| CohortMember::new(id.as_str(), john())).collect();
    let tiers = [
        (&service as &dyn ServeBackend, &single),
        (&sharded, &in_process),
        (&backend, &process),
    ];
    let mut reference: Vec<Vec<u8>> = Vec::new();
    for (tier, stores) in tiers {
        // A batch hits each store's first save, a refresh its first load.
        for (step, request) in
            [ServeRequest::batch(members.clone()), ServeRequest::refresh(ids.clone())]
                .into_iter()
                .enumerate()
        {
            stores.iter().for_each(|store| store.arm());
            let response = tier.serve_wire(request).expect("one hiccup is retried");
            assert!(
                stores.iter().all(|store| !store.is_armed()),
                "every store hiccuped"
            );
            let bytes = wire::response_bytes(&response);
            match reference.get(step) {
                Some(expected) => assert_eq!(&bytes, expected, "tiers agree"),
                None => reference.push(bytes),
            }
        }
        let mut stored: Vec<String> =
            stores.iter().flat_map(|store| store.user_ids().unwrap()).collect();
        stored.sort();
        let mut expected = ids.to_vec();
        expected.sort();
        assert_eq!(stored, expected);
    }
    backend.shutdown();
}

#[test]
fn process_tier_errors_are_typed_and_store_nothing() {
    let stores: Vec<std::sync::Arc<HiccupStore>> =
        (0..2).map(|_| Default::default()).collect();
    let backend = process_backend(&stores);
    for request in [ServeRequest::Batch(vec![]), ServeRequest::Refresh(vec![])] {
        assert!(matches!(backend.serve(request), Err(ServeError::EmptyBatch)));
    }
    let dup = CohortMember::new("dup", john());
    let err = backend.serve(ServeRequest::batch([dup.clone(), dup])).unwrap_err();
    assert!(matches!(err, ServeError::DuplicateUser(id) if id == "dup"));

    // Two shards fail; the failing user earliest in request order wins,
    // whichever shard it is on.
    let (on_0, on_1) = (id_on_shard("bad", 0), id_on_shard("bad", 1));
    let short = |id: &str| CohortMember::new(id, UserRequest::new(vec![1.0]));
    for (first, second) in [(&on_0, &on_1), (&on_1, &on_0)] {
        let request = ServeRequest::batch([
            CohortMember::new(id_on_shard("ok", 0), john()),
            CohortMember::new(id_on_shard("ok", 1), john()),
            short(first),
            short(second),
        ]);
        let err = backend.serve(request).unwrap_err();
        assert!(
            matches!(&err, ServeError::Session { user_id, .. } if user_id == first),
            "{err:?}"
        );
    }
    // Nothing was stored for the failed batches, on either shard.
    assert!(stores.iter().all(|store| store.user_ids().unwrap().is_empty()));

    let err = backend.serve(ServeRequest::refresh(["nobody"])).unwrap_err();
    assert!(matches!(err, ServeError::UnknownUser(id) if id == "nobody"));
    backend.shutdown();
}

#[test]
fn all_labels_one_class_still_trains() {
    // Degenerate labels: everyone approved.
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 40,
        ..Default::default()
    });
    let schema = gen.schema().clone();
    let slices: Vec<Dataset> = gen
        .years()
        .into_iter()
        .take(3)
        .map(|y| {
            let d = LendingClubGenerator::to_dataset(&gen.records_for_year(y));
            Dataset::from_rows(
                d.rows().map(<[f64]>::to_vec).collect(),
                vec![true; d.len()],
            )
        })
        .collect();
    let system = JustInTime::train(tiny_config(1), &schema, &slices).unwrap();
    let session = serve_alone(&system, john());
    // Everyone approved: the zero-gap candidate should exist everywhere.
    let insight = session.run(&CannedQuery::NoModification).unwrap();
    assert!(insight.headline.contains("t=0"), "{}", insight.headline);
}
