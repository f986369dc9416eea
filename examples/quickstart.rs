//! Quickstart: the full JustInTime pipeline on synthetic Lending-Club data
//! (reproduces the architecture walk of the paper's Figure 1).
//!
//! Run with: `cargo run --release --example quickstart`

// Example code: unwraps keep the walkthrough focused; a panic is a fine demo failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::prelude::*;

fn main() {
    // ---- Admin side (done once) ---------------------------------------
    // Historical labeled data with timestamps: 2007..=2018, with both
    // covariate drift (incomes rise) and concept drift (for over-30
    // applicants, income requirements relax while debt tightens).
    println!("== JustInTime quickstart ==\n");
    println!("[1/4] generating 2007-2018 loan history with drift...");
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 500,
        ..Default::default()
    });
    let slices: Vec<Dataset> = gen
        .years()
        .into_iter()
        .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
        .collect();
    let total: usize = slices.iter().map(Dataset::len).sum();
    println!("      {} applications across {} years", total, slices.len());

    println!("[2/4] training future models (M_t, delta_t) for t = 0..=4 ...");
    let config = AdminConfig { horizon: 4, start_year: 2019, ..Default::default() };
    let system = JustInTime::train(config, gen.schema(), &slices)
        .expect("training should succeed on generated data");
    for m in system.models() {
        println!(
            "      t={} ({}): delta = {:.3}",
            m.time_index,
            system.year_of(m.time_index),
            m.delta
        );
    }

    // ---- User side ------------------------------------------------------
    // John, 29, gets rejected today and wants a plan.
    println!("\n[3/4] opening a session for John (29, $45k income, $3.2k/mo debt, $28k loan)...");
    let mut john = UserRequest::new(LendingClubGenerator::john());
    // John cannot raise his income past $60k and wants at most 2 changes.
    john.constraints.add(
        jit_constraints::parse_constraint("income <= 60000 and gap <= 2")
            .expect("valid constraint"),
    );
    let sessions = system.serve(&[john.into()], None).expect("session should open");
    let session = &sessions[0];
    let (conf, approved) = session.present_decision();
    println!(
        "      present decision: {} (confidence {:.1}%)",
        if approved { "APPROVED" } else { "REJECTED" },
        conf * 100.0
    );
    println!(
        "      generated {} decision-altering candidates across {} time points",
        session.candidates().len(),
        session.temporal_inputs().len()
    );

    // ---- Insights --------------------------------------------------------
    println!("\n[4/4] canned queries and insights:\n");
    for insight in session.run_all().expect("queries should run") {
        println!("{insight}");
    }

    // Expert access: raw SQL against the candidates database.
    println!("expert SQL: SELECT time, COUNT(*), MAX(p) FROM candidates GROUP BY time ORDER BY time");
    let rs = session
        .sql(
            "SELECT time, COUNT(*), MAX(p) FROM candidates GROUP BY time ORDER BY time",
        )
        .expect("sql should run");
    println!("{rs}");
}
