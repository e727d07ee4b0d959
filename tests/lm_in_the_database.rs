//! Integration tests of LM ↔ database interplay: LM UDFs inside SQL
//! (§2.1), semantic operators over SQL results, and the multi-hop
//! extension.

use std::sync::Arc;
use tag_repro::tag_core::answer::Answer;
use tag_repro::tag_core::env::TagEnv;
use tag_repro::tag_core::multihop::{run_two_hop, TwoHopQuery};
use tag_repro::tag_datagen::{community, movies};
use tag_repro::tag_lm::model::{LanguageModel, LmRequest};
use tag_repro::tag_lm::nlq::{NlFilter, NlQuery, SemProperty};
use tag_repro::tag_lm::prompts::{sem_filter_prompt, SemClaim};
use tag_repro::tag_lm::sim::{SimConfig, SimLm};
use tag_repro::tag_lm::KnowledgeConfig;
use tag_repro::tag_semops::{sem_filter, SemEngine};
use tag_repro::tag_sql::{FnUdf, SqlError, Value};

fn exact_lm() -> Arc<SimLm> {
    Arc::new(SimLm::new(SimConfig {
        knowledge: KnowledgeConfig {
            coverage: 1.0,
            enumeration_coverage: 1.0,
            seed: 9,
        },
        judgment_noise: 0.0,
        ..SimConfig::default()
    }))
}

#[test]
fn lm_udf_inside_sql_filters_classics() {
    let domain = movies::generate(42);
    let mut db = domain.db;
    let lm = exact_lm();
    let udf_lm = Arc::clone(&lm);
    db.register_udf(Arc::new(FnUdf::new(
        "LLM_IS_CLASSIC",
        Some(1),
        move |args: &[Value]| {
            let prompt = sem_filter_prompt(&SemClaim::ClassicMovie, &args[0].to_string());
            let out = udf_lm
                .generate(&LmRequest::new(prompt))
                .map_err(|e| SqlError::Udf(e.to_string()))?;
            Ok(Value::from(out.text.trim().eq_ignore_ascii_case("true")))
        },
    )));
    let rs = db
        .execute(
            "SELECT movie_title FROM movies WHERE genre = 'Romance' AND \
             LLM_IS_CLASSIC(movie_title) ORDER BY revenue DESC LIMIT 1",
        )
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::text("Titanic"));
    assert!(lm.calls() > 0, "the UDF must actually call the LM");
}

#[test]
fn semantic_operator_over_sql_result() {
    let domain = community::generate(5, 30);
    let db = domain.db;
    let engine = SemEngine::new(exact_lm() as Arc<dyn LanguageModel>);
    let frame = db
        .query_frame("SELECT Id, Text FROM comments WHERE PostId = 2")
        .unwrap();
    let sarcastic = sem_filter(
        &engine,
        &frame,
        "Text",
        &SemClaim::Property(SemProperty::Sarcastic),
    )
    .unwrap();
    // With zero judgment noise the operator recovers exactly the planted
    // sarcastic comments of post 2.
    let expected: Vec<Value> = frame
        .rows()
        .iter()
        .filter(|r| {
            let id = r[0].as_i64().unwrap();
            domain.labels.comment_sarcastic[&id]
        })
        .map(|r| r[0].clone())
        .collect();
    let got: Vec<Value> = sarcastic.rows().iter().map(|r| r[0].clone()).collect();
    assert_eq!(got, expected);
}

#[test]
fn two_hop_beats_single_hop_on_composition() {
    let domain = community::generate(5, 40);
    let labels = domain.labels.clone();
    let posts = domain.db.catalog().table("posts").unwrap();
    let technical: std::collections::HashSet<i64> = posts
        .rows()
        .iter()
        .filter_map(|r| {
            let id = r[0].as_i64()?;
            (labels.post_technicality[&id] >= 2).then_some(id)
        })
        .collect();
    let comment_rows: Vec<Vec<Value>> = domain
        .db
        .catalog()
        .table("comments")
        .unwrap()
        .rows()
        .to_vec();
    let truth = comment_rows
        .iter()
        .filter(|r| {
            technical.contains(&r[1].as_i64().unwrap())
                && labels.comment_sarcastic[&r[0].as_i64().unwrap()]
        })
        .count() as f64;

    let env = TagEnv::new(domain.db, exact_lm() as Arc<dyn LanguageModel>);
    let q = TwoHopQuery {
        hop1: NlQuery::List {
            entity: "posts".into(),
            select_attr: "Id".into(),
            filters: vec![NlFilter::Semantic {
                attr: "Title".into(),
                property: SemProperty::Technical,
            }],
        },
        join_attr: "PostId".into(),
        hop2: NlQuery::Count {
            entity: "comments".into(),
            filters: vec![NlFilter::Semantic {
                attr: "Text".into(),
                property: SemProperty::Sarcastic,
            }],
        },
    };
    let two = run_two_hop(&q, &env);
    let two_n: f64 = match &two {
        Answer::List(v) => v[0].parse().unwrap(),
        other => panic!("{other:?}"),
    };
    // Single-hop can only count all sarcastic comments.
    let single = comment_rows
        .iter()
        .filter(|r| labels.comment_sarcastic[&r[0].as_i64().unwrap()])
        .count() as f64;
    assert!(
        (two_n - truth).abs() < (single - truth).abs(),
        "two-hop ({two_n}) must be closer to truth ({truth}) than single-hop ({single})"
    );
}
