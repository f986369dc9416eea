//! Example I.1 from the paper: why static counterfactual advice fails.
//!
//! John (29) is rejected in 2019. A *static* explainer tells him to raise
//! his income by ~20%. He spends two years doing so — but by 2021 he is
//! over 30 and the bank's criteria have drifted: income requirements have
//! relaxed while debt requirements have tightened. His reapplication is
//! rejected again. JustInTime instead plans *against the predicted 2021
//! model*, telling him up front to focus on his debt.
//!
//! Run with: `cargo run --release --example john_scenario`

// Example code: unwraps keep the walkthrough focused; a panic is a fine demo failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::jit_data::schema::lending_idx as idx;
use justintime::prelude::*;

fn main() {
    println!("== The John scenario (paper Example I.1) ==\n");
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 600,
        ..Default::default()
    });
    let slices: Vec<Dataset> = gen
        .years()
        .into_iter()
        .map(|y| LendingClubGenerator::to_dataset(&gen.records_for_year(y)))
        .collect();

    let config = AdminConfig { horizon: 3, start_year: 2019, ..Default::default() };
    let system =
        JustInTime::train(config, gen.schema(), &slices).expect("training succeeds");

    let john = LendingClubGenerator::john();
    let sessions = system
        .serve(&[UserRequest::new(john.clone()).into()], None)
        .expect("session opens");
    let session = &sessions[0];
    let (conf, approved) = session.present_decision();
    println!(
        "2019: John applies -> {} (confidence {:.1}%)\n",
        if approved { "APPROVED" } else { "REJECTED" },
        conf * 100.0
    );

    // ---- The static advice ---------------------------------------------
    // What a single-model explainer would say: the cheapest change that
    // flips the *present* (2019) model. John follows it for two years and
    // replays exactly those changes against the drifted 2021 model.
    println!("--- static explainer (single model, t=0) ---");
    let static_plan = session
        .sql("SELECT * FROM candidates WHERE time = 0 ORDER BY diff LIMIT 1")
        .expect("sql runs");
    let update = system.default_update_fn();
    let mut john_2021 = update.project(&john, 2);
    match static_plan.rows.first() {
        None => println!("advice: the 2019 model offers no feasible flip at all"),
        Some(row) => {
            let income_col = static_plan.column_index("income").expect("income");
            let debt_col = static_plan.column_index("debt").expect("debt");
            let p_col = static_plan.column_index("p").expect("p");
            let target_income = row[income_col].as_f64().unwrap_or(john[idx::INCOME]);
            let target_debt = row[debt_col].as_f64().unwrap_or(john[idx::DEBT]);
            println!(
                "advice: adjust to income ${target_income:.0}, debt ${target_debt:.0}/mo \
                 (flips the 2019 model at confidence {:.1}%)",
                row[p_col].as_f64().unwrap_or(0.0) * 100.0
            );
            // Replay the same *absolute* changes two years later (income
            // additionally grows with the expected wage trend).
            let d_income = target_income - john[idx::INCOME];
            let d_debt = target_debt - john[idx::DEBT];
            john_2021[idx::INCOME] += d_income;
            john_2021[idx::DEBT] += d_debt;
        }
    }
    let m2 = &system.models()[2];
    let conf_2021 = m2.model.predict_proba(&john_2021);
    println!(
        "2021: John reapplies with income ${:.0}, debt ${:.0}/mo -> {} (confidence {:.1}%)",
        john_2021[idx::INCOME],
        john_2021[idx::DEBT],
        if conf_2021 > m2.delta { "APPROVED" } else { "REJECTED" },
        conf_2021 * 100.0
    );
    println!(
        "      (models drift: for over-30 applicants income requirements relax \
         while debt requirements tighten, so 2019 advice may not hold in 2021)\n"
    );

    // ---- The temporal plan --------------------------------------------
    println!("--- JustInTime (temporal plan against the predicted 2021 model) ---");
    let rs = session
        .sql("SELECT * FROM candidates WHERE time = 2 ORDER BY diff LIMIT 1")
        .expect("sql runs");
    match rs.rows.first() {
        None => println!("no candidate found at t=2"),
        Some(_) => {
            let insight = session
                .run(&CannedQuery::MinimalOverallModification)
                .expect("query runs");
            println!("{insight}");
            // Verify the t=2 plan actually flips the predicted 2021 model.
            let debt_col = rs.column_index("debt").expect("debt column");
            let income_col = rs.column_index("income").expect("income column");
            let planned_debt = rs.rows[0][debt_col].as_f64().unwrap_or(f64::NAN);
            let planned_income = rs.rows[0][income_col].as_f64().unwrap_or(f64::NAN);
            println!(
                "t=2 plan touches: income ${planned_income:.0}, debt ${planned_debt:.0}/mo \
                 (vs. John's $45,000 / $3,200)"
            );
        }
    }

    // Dominant-feature check: income vs debt.
    for feature in ["income", "debt"] {
        let insight = session
            .run(&CannedQuery::DominantFeature { feature: feature.to_string() })
            .expect("query runs");
        println!("{insight}");
    }
}
