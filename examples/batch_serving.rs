//! Batch serving: amortized multi-user sessions with per-user overlays.
//!
//! The admin trains once; a whole cohort of rejected applicants is then
//! served through one `JustInTime::serve` call, which shares everything
//! user-independent (per-time-point move hints, the compiled domain
//! constraints, the DDL-initialized database template) and fans users
//! out across the deterministic thread pool — with output bit-identical
//! to serving each user alone.
//!
//! Run with: `cargo run --release --example batch_serving`

// Example code: unwraps keep the walkthrough focused; a panic is a fine demo failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::prelude::*;

fn main() {
    println!("== JustInTime batch serving ==\n");

    // ---- Admin side (once) --------------------------------------------
    println!("[1/3] training the system on 2007-2018 history...");
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 400,
        ..Default::default()
    });
    let slices: Vec<Dataset> = gen
        .years()
        .into_iter()
        .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
        .collect();
    let config = AdminConfig {
        horizon: 3,
        start_year: 2019,
        // One worker per core. A batch fans out one task per user, and
        // per-time-point generators run inline inside each task (the
        // runtime's nested-parallelism guard keeps the pools from
        // multiplying).
        threads: 0,
        ..Default::default()
    };
    let system = JustInTime::train(config, gen.schema(), &slices)
        .expect("training should succeed on generated data");

    // ---- Build a cohort of rejected applicants ------------------------
    println!("[2/3] collecting a cohort of rejected 2018 applicants...");
    let present = system.models().first().expect("trained");
    let mut cohort: Vec<Job> = gen
        .records_for_year(2018)
        .into_iter()
        .filter(|r| !present.approves(&r.features))
        .take(6)
        .map(|r| UserRequest::new(r.features).into())
        .collect();
    // Per-user overlays via the builder: John refuses to touch more than
    // two attributes and plans to clear his debt next year.
    cohort.push(
        system
            .session_builder(&LendingClubGenerator::john())
            .constraint(gap().le(2.0))
            .override_feature("debt", Override::Trajectory(vec![0.0]))
            .build()
            .into(),
    );
    println!("      cohort size: {}", cohort.len());

    // ---- Serve the whole batch ----------------------------------------
    println!("[3/3] serving the batch...\n");
    let start = std::time::Instant::now();
    let sessions = system.serve(&cohort, None).expect("batch serves");
    let elapsed = start.elapsed().as_secs_f64() * 1000.0;
    for (i, session) in sessions.iter().enumerate() {
        let (conf, approved) = session.present_decision();
        let best = session
            .candidates()
            .iter()
            .filter(|c| c.gap > 0)
            .min_by(|a, b| a.diff.partial_cmp(&b.diff).expect("finite diff"));
        println!(
            "user {i}: present confidence {conf:.3} ({}), {} candidates{}",
            if approved { "approved" } else { "rejected" },
            session.candidates().len(),
            match best {
                Some(c) => format!(
                    ", cheapest fix at t={} changes {} attr(s) (diff {:.0})",
                    c.time_index, c.gap, c.diff
                ),
                None => String::new(),
            }
        );
    }
    println!(
        "\nserved {} users in {elapsed:.1} ms ({:.2} ms/user, amortized)",
        sessions.len(),
        elapsed / sessions.len() as f64
    );

    // The batch is bit-identical to serving each user alone:
    let alone = system.serve(&cohort[..1], None).expect("serve alone");
    assert_eq!(alone[0].candidates().len(), sessions[0].candidates().len());
    println!("sanity: batch output matches serving user 0 alone");
}
