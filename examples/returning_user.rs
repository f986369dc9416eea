//! Returning users under model drift: incremental re-serving.
//!
//! The realistic serving workload is not cold sessions — it is users who
//! come back after the bank has retrained its models and want their
//! insights refreshed. This example walks that loop:
//!
//! 1. train, serve a cohort, and **snapshot** every session;
//! 2. re-serve the unchanged cohort on the unchanged system — every time
//!    point replays from the snapshots (no search runs at all);
//! 3. one user updates a preference at a single time point — only that
//!    time point recomputes;
//! 4. the admin **retrains on an extended history** (drift) — the
//!    fingerprint diff detects that every model changed and recomputes
//!    everything, bit-identically to a cold serve.
//!
//! Run with: `cargo run --release --example returning_user`

// Example code: unwraps keep the walkthrough focused; a panic is a fine demo failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::prelude::*;

fn report_line(label: &str, session: &UserSession<'_>) {
    let report = session.reserve_report().expect("re-served session");
    let replayed = report.iter().filter(|o| **o == TimePointServe::Replayed).count();
    let marks: Vec<&str> = report
        .iter()
        .map(|o| match o {
            TimePointServe::Replayed => "replay",
            TimePointServe::Recomputed => "RECOMPUTE",
        })
        .collect();
    println!(
        "      {label}: [{}]  ({replayed}/{} replayed, {} candidates)",
        marks.join(", "),
        report.len(),
        session.candidates().len()
    );
}

fn main() {
    println!("== JustInTime: re-serving returning users under drift ==\n");

    // ---- Admin side, first visit --------------------------------------
    println!("[1/4] training on 2007-2016 history and serving a cohort...");
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 400,
        ..Default::default()
    });
    let slice_of = |y: u32| LendingClubGenerator::to_dataset(&gen.records_for_year(y));
    let history: Vec<Dataset> = (2007..=2016).map(slice_of).collect();
    let config = AdminConfig { horizon: 3, start_year: 2017, ..Default::default() };
    let system = JustInTime::train(config.clone(), gen.schema(), &history)
        .expect("training should succeed on generated data");

    let present = system.models().first().expect("trained");
    let mut cohort: Vec<Job> = gen
        .records_for_year(2016)
        .into_iter()
        .filter(|r| !present.approves(&r.features))
        .take(5)
        .map(|r| UserRequest::new(r.features).into())
        .collect();
    cohort.push(UserRequest::new(LendingClubGenerator::john()).into());

    let first_visit = system.serve(&cohort, None).expect("first visit serves");
    // Snapshots are owned values: store them wherever sessions live.
    let snapshots: Vec<SessionSnapshot> =
        first_visit.iter().map(UserSession::snapshot).collect();
    println!("      served and snapshotted {} users\n", snapshots.len());

    // ---- Visit 2: nothing changed -------------------------------------
    println!("[2/4] the cohort returns; nothing has drifted...");
    let returning: Vec<Job> =
        snapshots.iter().map(|s| ReturningUser::unchanged(s.clone()).into()).collect();
    let start = std::time::Instant::now();
    let refreshed = system.serve(&returning, None).expect("re-serve");
    let warm_ms = start.elapsed().as_secs_f64() * 1000.0;
    for (i, session) in refreshed.iter().enumerate() {
        report_line(&format!("user {i}"), session);
    }

    let start = std::time::Instant::now();
    let cold = system.serve(&cohort, None).expect("cold serve");
    let cold_ms = start.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(cold.len(), refreshed.len());
    println!(
        "      re-serve {warm_ms:.1} ms vs cold serve {cold_ms:.1} ms \
         ({:.1}x), output identical\n",
        cold_ms / warm_ms.max(1e-9)
    );

    // ---- Visit 3: one user changes one preference ---------------------
    println!("[3/4] John returns with a new preference at t = 2 only...");
    let john = system
        .session_builder(&LendingClubGenerator::john())
        .constraint_at(2, gap().le(1.0))
        .build_returning(snapshots.last().expect("john's snapshot").clone());
    let session = system.serve(&[john.into()], None).expect("re-serve John");
    report_line("john", &session[0]);
    println!();

    // ---- Visit 4: the admin retrained under drift ---------------------
    println!("[4/4] retraining on 2007-2018 (drift!) and re-serving...");
    let extended: Vec<Dataset> = (2007..=2018).map(slice_of).collect();
    let drifted = JustInTime::train(config, gen.schema(), &extended)
        .expect("retraining should succeed");
    let refreshed = drifted.serve(&returning, None).expect("re-serve after drift");
    for (i, session) in refreshed.iter().enumerate() {
        report_line(&format!("user {i}"), session);
    }

    // The diff never guesses: re-served output is bit-identical to a
    // cold serve on the drifted system.
    let cold = drifted.serve(&cohort, None).expect("cold serve after drift");
    for (warm, cold) in refreshed.iter().zip(&cold) {
        assert_eq!(warm.candidates().len(), cold.candidates().len());
        for (a, b) in warm.candidates().iter().zip(cold.candidates()) {
            assert_eq!(a.profile, b.profile);
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
    }
    println!("\nsanity: drifted re-serve is bit-identical to a cold serve");
}
