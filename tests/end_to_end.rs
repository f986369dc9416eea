//! Cross-crate integration tests: the full JustInTime pipeline on the
//! synthetic Lending-Club workload.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::prelude::*;

fn small_system(horizon: usize, seed_bump: u64) -> (LendingClubGenerator, JustInTime) {
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 220,
        seed: 0x5ee0 + seed_bump,
        ..Default::default()
    });
    let slices: Vec<Dataset> = gen
        .years()
        .into_iter()
        .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
        .collect();
    let config = AdminConfig {
        horizon,
        start_year: 2019,
        future: FutureModelsParams {
            n_landmarks: 30,
            pool_slices: 3,
            forest: RandomForestParams { n_trees: 10, ..Default::default() },
            ..Default::default()
        },
        candidates: CandidateParams {
            beam_width: 6,
            max_iters: 4,
            top_k: 6,
            ..Default::default()
        },
        ..Default::default()
    };
    let system =
        JustInTime::train(config, gen.schema(), &slices).expect("training succeeds");
    (gen, system)
}

fn john() -> UserRequest {
    UserRequest::new(LendingClubGenerator::john())
}

/// Serves one request in a batch of its own.
fn serve_alone(system: &JustInTime, request: UserRequest) -> UserSession<'_> {
    system.serve(&[request.into()], None).unwrap().remove(0)
}

#[test]
fn pipeline_is_deterministic_under_fixed_seed() {
    let (_, system_a) = small_system(2, 1);
    let (_, system_b) = small_system(2, 1);
    let sa = serve_alone(&system_a, john());
    let sb = serve_alone(&system_b, john());
    assert_eq!(sa.candidates().len(), sb.candidates().len());
    for (a, b) in sa.candidates().iter().zip(sb.candidates()) {
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.time_index, b.time_index);
        assert_eq!(a.confidence, b.confidence);
    }
}

#[test]
fn canned_answers_consistent_with_brute_force_scan() {
    let (_, system) = small_system(3, 2);
    let session = serve_alone(&system, john());
    let cands = session.candidates();

    // Q1: min time with diff = 0, recomputed by hand over the candidates.
    let expected_q1 =
        cands.iter().filter(|c| c.diff == 0.0).map(|c| c.time_index as i64).min();
    let rs = session.sql(&CannedQuery::NoModification.sql()).unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), expected_q1);

    // Q4: global min diff.
    let expected_q4 = cands.iter().map(|c| c.diff).fold(f64::INFINITY, f64::min);
    let rs = session.sql("SELECT Min(diff) FROM candidates").unwrap();
    let got = rs.scalar().unwrap().as_f64().unwrap();
    assert!((got - expected_q4).abs() < 1e-9);

    // Q5: max confidence row.
    let expected_q5 =
        cands.iter().map(|c| c.confidence).fold(f64::NEG_INFINITY, f64::max);
    let rs = session.sql(&CannedQuery::MaximalConfidence.sql()).unwrap();
    let p_idx = rs.column_index("p").unwrap();
    let got = rs.rows[0][p_idx].as_f64().unwrap();
    assert!((got - expected_q5).abs() < 1e-9);

    // Row counts agree between the struct view and the SQL view.
    let rs = session.sql("SELECT COUNT(*) FROM candidates").unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64().unwrap() as usize, cands.len());
}

#[test]
fn every_candidate_row_satisfies_definition_ii3() {
    // Definition II.3: x' ∈ C(x) and M(x') > delta.
    let (_, system) = small_system(2, 3);
    let session = serve_alone(&system, john());
    for cand in session.candidates() {
        let model = &system.models()[cand.time_index];
        let p = model.model.predict_proba(&cand.profile);
        assert!(p > model.delta, "candidate below threshold: {p}");
        assert!(system.schema().row_in_bounds(&cand.profile));
        // diff/gap computed against the right temporal input.
        let origin = &session.temporal_inputs()[cand.time_index];
        let diff = justintime::jit_math::distance::l2_diff(&cand.profile, origin);
        assert!((diff - cand.diff).abs() < 1e-9);
    }
}

#[test]
fn user_constraint_round_trip_through_parser_and_search() {
    let (_, system) = small_system(2, 4);
    let mut request = john();
    request.constraints.add(
        jit_constraints::parse_constraint(
            "debt >= 500 and gap <= 2 and diff <= 100000",
        )
        .unwrap(),
    );
    let session = serve_alone(&system, request);
    for cand in session.candidates() {
        assert!(cand.profile[3] >= 500.0 - 1e-9, "debt floor violated");
        assert!(cand.gap <= 2, "gap cap violated");
        assert!(cand.diff <= 100_000.0 + 1e-9, "diff cap violated");
    }
}

#[test]
fn insights_cover_all_six_queries_and_mention_years() {
    let (_, system) = small_system(2, 5);
    let session = serve_alone(&system, john());
    let insights = session.run_all().unwrap();
    assert_eq!(insights.len(), 6);
    let ids: Vec<&str> = insights.iter().map(|i| i.query_id.as_str()).collect();
    assert_eq!(ids, vec!["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]);
    // Headlines must be renderable text mentioning either a year or a
    // negative result.
    for i in &insights {
        assert!(
            i.headline.contains("20") || i.headline.contains("No"),
            "[{}] unexpected headline: {}",
            i.query_id,
            i.headline
        );
    }
}

#[test]
fn future_models_approve_more_typical_profiles_than_extremes() {
    let (gen, system) = small_system(2, 6);
    // A comfortably strong profile must out-score a weak one at every t.
    let strong = vec![40.0, 1.0, 150_000.0, 400.0, 15.0, 10_000.0];
    let weak = vec![22.0, 0.0, 12_000.0, 4_500.0, 0.0, 50_000.0];
    for m in system.models() {
        let ps = m.model.predict_proba(&strong);
        let pw = m.model.predict_proba(&weak);
        assert!(ps > pw, "t={}: strong {ps} should beat weak {pw}", m.time_index);
    }
    // And the oracle agrees.
    assert!(
        gen.oracle_probability(&strong, 2018) > gen.oracle_probability(&weak, 2018)
    );
}

#[test]
fn temporal_inputs_written_to_db_match_update_fn() {
    let (_, system) = small_system(3, 7);
    let john = LendingClubGenerator::john();
    let session = serve_alone(&system, UserRequest::new(john.clone()));
    let update = system.default_update_fn();
    let rs = session
        .sql("SELECT time, age, income FROM temporal_inputs ORDER BY time")
        .unwrap();
    assert_eq!(rs.len(), 4);
    for row in &rs.rows {
        let t = row[0].as_i64().unwrap() as usize;
        let projected = update.project(&john, t);
        assert_eq!(row[1].as_f64().unwrap(), projected[0], "age at t={t}");
        assert!((row[2].as_f64().unwrap() - projected[2]).abs() < 1e-9);
    }
}

#[test]
fn expert_sql_joins_candidates_and_inputs() {
    let (_, system) = small_system(2, 8);
    let session = serve_alone(&system, john());
    // The Fig. 2 Q3 join must run against real generated tables.
    let q3 = CannedQuery::DominantFeature { feature: "debt".to_string() };
    let rs = session.sql(&q3.sql()).unwrap();
    for row in &rs.rows {
        let t = row[0].as_i64().unwrap();
        assert!((0..=2).contains(&t));
    }
}

#[test]
fn csv_export_of_training_data_round_trips() {
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 50,
        ..Default::default()
    });
    let records = gen.records_for_year(2014);
    let mut buf = Vec::new();
    justintime::jit_data::csv::write_records(&mut buf, &records).unwrap();
    let back = justintime::jit_data::csv::read_records(std::io::BufReader::new(
        buf.as_slice(),
    ))
    .unwrap();
    assert_eq!(back.len(), records.len());
}
