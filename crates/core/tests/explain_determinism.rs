//! Golden-stability tests for the explain surfaces: `EXPLAIN`,
//! `EXPLAIN SEMPLAN`, and `EXPLAIN VERIFY` must render byte-identical
//! output across repeated runs, before and after the statement they
//! explain has itself run, *and* across independently built (but
//! identical) databases. The verifier's CI sweep and any golden tests
//! diff this text, so hash-order-dependent or run-dependent rendering
//! anywhere in the plan, catalog, or annotation paths would show up
//! here as flakes.

use std::sync::Arc;
use tag_core::answer::Answer;
use tag_core::env::TagEnv;
use tag_core::methods::HandWrittenTag;
use tag_core::model::TagMethod;
use tag_lm::sim::{SimConfig, SimLm};
use tag_sql::Database;

const QUESTION: &str = "How many schools are there?";

fn env() -> TagEnv {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE schools (CDSCode INTEGER PRIMARY KEY, School TEXT, City TEXT);
         CREATE TABLE posts (Id INTEGER PRIMARY KEY, Body TEXT, Score INTEGER);
         INSERT INTO schools VALUES (1, 'Gunn High', 'Palo Alto'), (2, 'Fresno High', 'Fresno');
         INSERT INTO posts VALUES (1, 'hello', 4), (2, 'world', 9);",
    )
    .unwrap();
    TagEnv::new(db, Arc::new(SimLm::new(SimConfig::default())))
}

fn render(env: &TagEnv, statement: &str) -> String {
    let rs = env.run_sql(statement).unwrap();
    rs.rows
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// `statement`'s text on a fresh database, checked equal on repeated
/// asks, after `run` has executed what it explains, and on a second
/// database.
fn stable_text(statement: &str, run: impl Fn(&TagEnv)) -> String {
    let a = env();
    let first = render(&a, statement);
    for _ in 0..3 {
        assert_eq!(render(&a, statement), first, "unstable across runs");
    }
    run(&a);
    assert_eq!(render(&a, statement), first, "changed by running it");
    assert_eq!(
        render(&env(), statement),
        first,
        "unstable across databases"
    );
    first
}

fn ask(env: &TagEnv) {
    let answer = HandWrittenTag.answer(QUESTION, env);
    assert_eq!(answer, Answer::List(vec!["2".into()]));
}

#[test]
fn explain_semplan_is_stable_across_runs_and_databases() {
    stable_text(&format!("EXPLAIN SEMPLAN {QUESTION}"), ask);
}

#[test]
fn explain_verify_is_stable_across_runs_and_databases() {
    let text = stable_text(&format!("EXPLAIN VERIFY {QUESTION}"), ask);
    assert!(text.starts_with("verify: ok"), "{text}");
}

#[test]
fn relational_explain_is_stable_across_runs_and_databases() {
    let select = "SELECT City FROM schools WHERE CDSCode = 2 ORDER BY School";
    let text = stable_text(&format!("EXPLAIN {select}"), |env| {
        assert_eq!(env.run_sql(select).unwrap().len(), 1);
    });
    assert!(text.contains("IndexProbe"), "{text}");
}
