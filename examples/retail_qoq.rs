//! The paper's introduction example: a Databricks user asks *"what are
//! the QoQ trends for the 'retail' vertical?"* over a table of account
//! names, products, and revenue. Answering needs (a) world knowledge —
//! which companies count as retail — and (b) a business definition of
//! QoQ, neither of which is in the schema.
//!
//! The TAG pipeline: `sem_filter` the distinct account names by vertical
//! (LM world knowledge), then exact computation — a GROUP BY over
//! quarters with a UNION-assembled comparison — on the database engine.
//!
//! Run with: `cargo run --example retail_qoq`

use std::sync::Arc;
use tag_repro::tag_lm::model::LanguageModel;
use tag_repro::tag_lm::prompts::SemClaim;
use tag_repro::tag_lm::sim::{SimConfig, SimLm};
use tag_repro::tag_semops::{sem_filter, SemEngine};
use tag_repro::tag_sql::{Database, Value};

fn main() {
    // The data source: account revenue by quarter. Verticals are NOT a
    // column — they live in the LM's world knowledge.
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE accounts (account_name TEXT, product TEXT, quarter TEXT, revenue REAL)",
    )
    .expect("create accounts");
    let rows: &[(&str, &str, &str, f64)] = &[
        ("NorthMart", "POS Suite", "2024Q1", 120.0),
        ("NorthMart", "POS Suite", "2024Q2", 150.0),
        ("ShopRight", "Inventory AI", "2024Q1", 80.0),
        ("ShopRight", "Inventory AI", "2024Q2", 95.0),
        ("Cartwheel Stores", "POS Suite", "2024Q1", 60.0),
        ("Cartwheel Stores", "POS Suite", "2024Q2", 55.0),
        ("Vertex Systems", "Compute", "2024Q1", 300.0),
        ("Vertex Systems", "Compute", "2024Q2", 340.0),
        ("First Meridian Bank", "Risk Suite", "2024Q1", 210.0),
        ("First Meridian Bank", "Risk Suite", "2024Q2", 190.0),
        ("Helix Pharma", "Trials DB", "2024Q1", 170.0),
        ("Helix Pharma", "Trials DB", "2024Q2", 175.0),
    ];
    for (a, p, q, r) in rows {
        db.execute(&format!(
            "INSERT INTO accounts VALUES ('{a}', '{p}', '{q}', {r})"
        ))
        .expect("insert");
    }

    let request = "What are the QoQ trends for the 'retail' vertical?";
    println!("R: {request}\n");

    let lm = Arc::new(SimLm::new(SimConfig::default()));
    let engine = SemEngine::new(lm.clone() as Arc<dyn LanguageModel>);

    // Step 1 (semantic): which accounts are retail? Judge the *distinct*
    // names, Appendix-C style.
    let names = db
        .query_frame("SELECT DISTINCT account_name FROM accounts")
        .expect("distinct accounts");
    let retail = sem_filter(
        &engine,
        &names,
        "account_name",
        &SemClaim::CompanyInVertical {
            vertical: "retail".into(),
        },
    )
    .expect("sem_filter");
    let retail_names: Vec<String> = retail
        .rows()
        .iter()
        .map(|r| format!("'{}'", r[0]))
        .collect();
    println!("LM-judged retail accounts: {}", retail_names.join(", "));

    // Step 2 (exact): quarter-over-quarter revenue on the database
    // engine. "QoQ" is interpreted as last quarter vs the one before —
    // the business definition the intro says the system must supply.
    let in_list = retail_names.join(", ");
    let sql = format!(
        "SELECT quarter, SUM(revenue) AS total FROM accounts \
         WHERE account_name IN ({in_list}) GROUP BY quarter ORDER BY quarter"
    );
    let per_quarter = db.execute(&sql).expect("group by quarter");
    println!("\nQ (exact computation):\n  {sql}\n\n{per_quarter}");

    // Step 3 (gen): the trend statement.
    let q1 = per_quarter.rows[0][1].as_f64().unwrap_or(0.0);
    let q2 = per_quarter.rows[1][1].as_f64().unwrap_or(0.0);
    let pct = (q2 - q1) / q1 * 100.0;
    println!(
        "A: Retail revenue moved from {q1:.0} in {} to {q2:.0} in {} — {pct:+.1}% QoQ.",
        per_quarter.rows[0][0], per_quarter.rows[1][0]
    );

    // Sanity: the engine judged with one batched round.
    let stats = engine.stats();
    assert_eq!(stats.lm_batches, 1);
    assert!(matches!(per_quarter.rows[0][1], Value::Float(_)));
}
