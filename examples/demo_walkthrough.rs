//! The conference-demo script (paper §III): a reenactment of five denied
//! loan applications, each walked through the three screens of Figure 3 —
//! Personal Preferences, Queries, and Plans & Insights.
//!
//! Run with: `cargo run --release --example demo_walkthrough`

// Example code: unwraps keep the walkthrough focused; a panic is a fine demo failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::prelude::*;

/// The audience-suggested preferences for each reenacted applicant, as
/// constraint-language text (the Personal Preferences screen).
fn preferences_for(name: &str) -> &'static str {
    match name {
        // John can't push income past 60k and wants few changes.
        "john-high-debt" => "income <= 60000 and gap <= 2",
        // Amara won't lower the requested amount below 25k.
        "amara-low-income" => "loan_amount >= 25000",
        // Bianca refuses to sell the house (household stays 1).
        "bianca-dti" => "household = 1",
        // Carlos wants small total change and high certainty.
        "carlos-oversized-loan" => "confidence >= 0.55",
        // Dana can only commit to one change at a time.
        "dana-thin-file" => "gap <= 1",
        _ => "true = true",
    }
}

fn main() {
    println!("== JustInTime demo walkthrough: five denied applications ==\n");
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 500,
        ..Default::default()
    });
    let slices: Vec<Dataset> = gen
        .years()
        .into_iter()
        .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
        .collect();
    let system = JustInTime::train(
        AdminConfig { horizon: 3, start_year: 2019, ..Default::default() },
        gen.schema(),
        &slices,
    )
    .expect("training succeeds");

    let names = gen.schema().names().join(", ");
    for (name, profile) in LendingClubGenerator::demo_applicants() {
        println!("----------------------------------------------------------");
        println!("applicant: {name}");
        println!("profile ({names}):");
        println!("  {:?}", profile.iter().map(|v| *v as i64).collect::<Vec<_>>());

        // Screen 1: Personal Preferences.
        let pref_text = preferences_for(&name);
        println!("preferences: {pref_text}");
        let mut request = UserRequest::new(profile);
        request.constraints.add(
            jit_constraints::parse_constraint(pref_text).expect("valid preference"),
        );

        let sessions = match system.serve(&[request.into()], None) {
            Ok(s) => s,
            Err(e) => {
                println!("  session failed: {}", e.error);
                continue;
            }
        };
        let session = &sessions[0];
        let (conf, approved) = session.present_decision();
        println!(
            "present decision: {} (confidence {:.1}%)",
            if approved { "APPROVED" } else { "REJECTED" },
            conf * 100.0
        );

        // Screen 2+3: Queries and Insights. The audience picks a couple of
        // queries per applicant; we run the full catalogue for the first
        // applicant and a targeted pair for the rest.
        let queries: Vec<CannedQuery> = if name == "john-high-debt" {
            CannedQuery::catalogue()
        } else {
            vec![CannedQuery::NoModification, CannedQuery::MinimalOverallModification]
        };
        println!();
        for q in &queries {
            match session.run(q) {
                Ok(insight) => print!("{insight}"),
                Err(e) => println!("  {} failed: {e}", q.id()),
            }
        }
        println!();
    }

    println!("----------------------------------------------------------");
    println!("behind the scenes (paper §III): one generator's raw candidates\n");
    // Show the raw candidates of the last applicant at t=0, as the demo
    // does when it "examines the execution of a single candidates
    // generator".
    let (_, profile) = &LendingClubGenerator::demo_applicants()[0];
    let sessions = system
        .serve(&[UserRequest::new(profile.clone()).into()], None)
        .expect("session opens");
    let rs = sessions[0]
        .sql("SELECT time, income, debt, loan_amount, gap, diff, p FROM candidates WHERE time = 0 ORDER BY diff")
        .expect("sql runs");
    println!("{rs}");
}
