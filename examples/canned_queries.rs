//! Figure 2 reproduction: the six canned queries, their SQL, and their raw
//! relational results over a generated candidates database.
//!
//! Run with: `cargo run --release --example canned_queries`

// Example code: unwraps keep the walkthrough focused; a panic is a fine demo failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::prelude::*;

fn main() {
    println!("== Figure 2: predefined queries and their SQL ==\n");
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
        AdminConfig { horizon: 4, start_year: 2019, ..Default::default() },
        gen.schema(),
        &slices,
    )
    .expect("training succeeds");
    let sessions = system
        .serve(&[UserRequest::new(LendingClubGenerator::john()).into()], None)
        .expect("session opens");
    let session = &sessions[0];

    println!(
        "candidates table: {} rows; temporal_inputs: {} rows\n",
        session.db().row_count("candidates").unwrap(),
        session.db().row_count("temporal_inputs").unwrap()
    );

    for query in CannedQuery::catalogue() {
        println!("--- {} ---", query);
        println!("SQL:\n{}\n", query.sql());
        match session.sql(&query.sql()) {
            Ok(rs) => println!("{rs}\n"),
            Err(e) => println!("error: {e}\n"),
        }
    }
}
