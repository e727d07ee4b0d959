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

use std::collections::BTreeSet;
use tag_bench::Harness;
use tag_datagen::Scale;
use tag_embed::{serialize_row, Embedder, RowStore};
use tag_lm::sim::SimConfig;

const GOLDEN: &str = include_str!("retrieval_golden.txt");

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn vectors_line(domain: &str, store: &RowStore) -> String {
    let embedder = Embedder::default();
    let bits = store.rows().iter().flat_map(|row| {
        embedder
            .embed(&serialize_row(row))
            .into_iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
    });
    format!("vectors {domain} {} {:016x}", store.len(), fnv1a(bits))
}

fn retrieval_line(method: &str, id: usize, k: usize, question: &str, store: &RowStore) -> String {
    let mut line = format!("{method} q{id} k={k}");
    for (row, score) in store.retrieve(question, k) {
        let text = serialize_row(row);
        line.push_str(&format!(
            " {:08x}:{:016x}",
            score.to_bits(),
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
        got.push(vectors_line(domain, harness.env(domain).row_store()));
    }
    for q in queries {
        let store = harness.env(q.domain).row_store();
        let question = q.question();
        got.push(retrieval_line("rag", q.id, 10, &question, store));
        got.push(retrieval_line("rerank", q.id, 30, &question, store));
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
