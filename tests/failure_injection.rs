//! Failure-injection tests: the pipeline must degrade gracefully, never
//! panic, on degenerate inputs.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

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
