//! Expert SQL console (paper §II-C: "Experts may interact with the system
//! directly in SQL").
//!
//! Builds a session for John and then executes SQL statements: either the
//! ones passed as command-line arguments, or an illustrative batch, or —
//! with `-` as the only argument — statements read line-by-line from
//! stdin.
//!
//! Run with:
//!   cargo run --release --example sql_console
//!   cargo run --release --example sql_console -- "SELECT Min(diff) FROM candidates"
//!   echo "SELECT COUNT(*) FROM candidates" | cargo run --release --example sql_console -- -

// Example code: unwraps keep the walkthrough focused; a panic is a fine demo failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::prelude::*;
use std::io::BufRead;

fn default_batch() -> Vec<String> {
    [
        "SELECT time, COUNT(*) AS n, MIN(diff) AS best_diff, MAX(p) AS best_p \
         FROM candidates GROUP BY time ORDER BY time",
        "SELECT * FROM candidates ORDER BY p DESC LIMIT 3",
        "SELECT time, income, debt FROM temporal_inputs ORDER BY time",
        "SELECT cnd.time, cnd.income - ti.income AS income_change \
         FROM candidates cnd INNER JOIN temporal_inputs ti ON ti.time = cnd.time \
         WHERE cnd.gap = 1 ORDER BY cnd.time LIMIT 5",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    eprintln!("[sql_console] training system and generating candidates for John...");
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 400,
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
    let sessions = system
        .serve(&[UserRequest::new(LendingClubGenerator::john()).into()], None)
        .expect("session opens");
    let session = &sessions[0];
    eprintln!(
        "[sql_console] tables: candidates ({} rows), temporal_inputs ({} rows)\n",
        session.db().row_count("candidates").unwrap(),
        session.db().row_count("temporal_inputs").unwrap()
    );

    let statements: Vec<String> = if args.len() == 1 && args[0] == "-" {
        std::io::stdin()
            .lock()
            .lines()
            .map_while(Result::ok)
            .filter(|l| !l.trim().is_empty())
            .collect()
    } else if !args.is_empty() {
        args
    } else {
        default_batch()
    };

    for sql in statements {
        println!("sql> {sql}");
        match session.sql(&sql) {
            Ok(rs) => println!("{rs}\n"),
            Err(e) => println!("error: {e}\n"),
        }
    }
}
