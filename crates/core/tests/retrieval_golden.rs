//! Retrieval golden: the row store's vectors and every ranked retrieval
//! the 80 canonical questions make, pinned bit for bit.
//!
//! `retrieval_golden.txt` was written once, at commit 6010a8a, by the
//! `String`-per-feature embedder and the per-row `dot` scan, and is not
//! regenerated: a faster kernel must reproduce it exactly. For
//! `Harness::new(42, Scale::default(), ..)` it holds
//!
//! - `vectors <domain> <rows> <digest>`: an FNV-1a digest over the
//!   `to_bits` of every stored row's vector, in insertion order;
//! - `rag q<id> k=10 ...` and `rerank q<id> k=30 ...`: the ranked
//!   retrieval RAG (`k = 10`) and Retrieval + LM Rank (`pool = 30`) make
//!   for that question, one `<score bits>:<row digest>` per hit, where the
//!   row digest is an FNV-1a digest of the serialized row's text.
//!
//! Rows are serialized by the writer the store embeds with and the
//! relevance prompts use (`TagEnv::push_point_text`), read from the
//! table images the store embedded.

use std::collections::BTreeSet;
use tag_bench::Harness;
use tag_core::TagEnv;
use tag_datagen::Scale;
use tag_embed::Embedder;
use tag_lm::sim::SimConfig;

const GOLDEN: &str = include_str!("retrieval_golden.txt");

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The serialized text of stored row `id`, as the store embedded it.
fn row_text(env: &TagEnv, id: usize) -> String {
    let mut text = String::new();
    env.push_point_text(id, &mut text);
    text
}

fn vectors_line(domain: &str, env: &TagEnv) -> String {
    let embedder = Embedder::default();
    let rows = env.row_store().len();
    let bits = (0..rows).flat_map(|id| {
        embedder
            .embed(&row_text(env, id))
            .into_iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
    });
    format!("vectors {domain} {rows} {:016x}", fnv1a(bits))
}

fn retrieval_line(method: &str, id: usize, k: usize, question: &str, env: &TagEnv) -> String {
    let mut line = format!("{method} q{id} k={k}");
    for hit in env.row_store().retrieve(question, k) {
        let text = row_text(env, hit.id);
        line.push_str(&format!(
            " {:08x}:{:016x}",
            hit.score.to_bits(),
            fnv1a(text.bytes())
        ));
    }
    line
}

#[test]
fn retrieval_matches_the_golden() {
    let harness = Harness::new(42, Scale::default(), SimConfig::default());
    let queries = harness.queries();
    assert_eq!(queries.len(), 80);
    let domains: BTreeSet<&str> = queries.iter().map(|q| q.domain).collect();

    let mut got = Vec::new();
    for domain in &domains {
        got.push(vectors_line(domain, harness.env(domain)));
    }
    for q in queries {
        let env = harness.env(q.domain);
        let question = q.question();
        got.push(retrieval_line("rag", q.id, 10, &question, env));
        got.push(retrieval_line("rerank", q.id, 30, &question, env));
    }

    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(got.len(), want.len(), "golden line count");
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want, "retrieval drifted from the golden");
    }
}
