//! A tour of the LOTUS-style semantic operator runtime (`tag-semops`):
//! relational verbs in SQL plus `sem_filter`, `sem_topk`, and `sem_agg`
//! over the frames SQL returns — the building blocks of the hand-written
//! TAG pipelines in Appendix C.
//!
//! Run with: `cargo run --example semantic_operators`

use std::sync::Arc;
use tag_repro::tag_datagen::community;
use tag_repro::tag_lm::nlq::SemProperty;
use tag_repro::tag_lm::prompts::SemClaim;
use tag_repro::tag_lm::sim::{SimConfig, SimLm};
use tag_repro::tag_semops::{sem_agg, sem_filter, sem_topk, SemEngine};
use tag_repro::tag_sql::SemFrame;

/// Print column `name` of `frame`, one `  - value` line per row.
fn print_column(frame: &SemFrame, name: &str) {
    let col = frame.column_index(name).unwrap();
    for row in frame.rows() {
        println!("  - {}", row[col]);
    }
}

fn main() {
    // Data: the community domain's posts + comments.
    let domain = community::generate(42, 80);
    let db = domain.db;
    let engine = SemEngine::new(Arc::new(SimLm::new(SimConfig::default())));

    // Appendix C ranking pipeline: top-5 posts by ViewCount, reordered
    // by an LM judging which Title is most technical.
    let top5 = db
        .query_frame("SELECT * FROM posts ORDER BY ViewCount DESC LIMIT 5")
        .unwrap();
    println!("Top-5 posts by ViewCount:");
    print_column(&top5, "Title");
    let ranked = sem_topk(&engine, &top5, "Title", SemProperty::Technical, 5).unwrap();
    println!("\nsem_topk (most technical first):");
    print_column(&ranked, "Title");

    // Appendix C filter pattern: sem_filter over *unique* values, then an
    // exact isin — here, sarcastic comments on one post.
    let first_post = db
        .query_frame("SELECT Text FROM comments WHERE PostId = 1")
        .unwrap();
    let sarcastic = sem_filter(
        &engine,
        &first_post,
        "Text",
        &SemClaim::Property(SemProperty::Sarcastic),
    )
    .unwrap();
    println!(
        "\nsem_filter: {} of {} comments on post 1 judged sarcastic:",
        sarcastic.len(),
        first_post.len()
    );
    print_column(&sarcastic, "Text");

    // sem_agg: summarize the comments of post 1 (hierarchical fold kicks
    // in automatically when the input outgrows the context window).
    let summary = sem_agg(&engine, &first_post, "Summarize the comments").unwrap();
    println!("\nsem_agg summary of post 1's comments:\n  {summary}");

    let stats = engine.stats();
    println!(
        "\nEngine stats: {} prompts in {} batches ({} cache hits).",
        stats.lm_prompts, stats.lm_batches, stats.cache_hits
    );
}
