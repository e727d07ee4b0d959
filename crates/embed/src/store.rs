//! Row-level retrieval store: the RAG baseline's data layer.
//!
//! Rows are serialized in the paper's "- col: val" format (§4.2,
//! [`push_row_text`]), embedded, and indexed for similarity search. The
//! store keeps no copy of a row: retrieval returns [`Hit`]s, whose ids
//! are the rows' positions in insertion order, and the caller reads the
//! rows from wherever it serialized them.

use crate::embedder::Embedder;
use crate::index::{FlatIndex, Hit};
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of a store's retrieval counters (cumulative since build).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalStats {
    /// Retrieval probes served.
    pub probes: u64,
    /// Candidate rows returned across all probes (≤ probes × k).
    pub candidates: u64,
    /// Stored vectors scanned across all probes (flat index: the whole
    /// store per probe).
    pub rows_scanned: u64,
}

/// Hot-path retrieval counters: three relaxed atomics, bumped on every
/// [`RowStore::retrieve`], scraped by the serving layer's metrics hub.
#[derive(Debug, Default)]
struct RetrievalCounters {
    probes: AtomicU64,
    candidates: AtomicU64,
    rows_scanned: AtomicU64,
}

/// Append a row serialized the way the paper's RAG baseline does: one
/// `- col: val` line per column, joined by `\n`. `write_value(c, out)`
/// appends column `c`'s value.
pub fn push_row_text(
    out: &mut String,
    columns: &[String],
    mut write_value: impl FnMut(usize, &mut String),
) {
    for (c, col) in columns.iter().enumerate() {
        if c > 0 {
            out.push('\n');
        }
        out.push_str("- ");
        out.push_str(col);
        out.push_str(": ");
        write_value(c, out);
    }
}

/// A vector store over serialized table rows.
pub struct RowStore {
    embedder: Embedder,
    index: FlatIndex,
    retrievals: RetrievalCounters,
}

impl RowStore {
    /// An empty store using the given embedder.
    pub fn new(embedder: Embedder) -> Self {
        let dims = embedder.dims();
        RowStore {
            embedder,
            index: FlatIndex::new(dims),
            retrievals: RetrievalCounters::default(),
        }
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Embed and index one row's serialized text; returns its id.
    pub fn add(&mut self, text: &str) -> usize {
        self.index.add(&self.embedder.embed(text))
    }

    /// Retrieve the `k` rows most similar to a natural-language query,
    /// best first.
    pub fn retrieve(&self, query: &str, k: usize) -> Vec<Hit> {
        let hits = self.index.search(&self.embedder.embed(query), k);
        self.retrievals.probes.fetch_add(1, Ordering::Relaxed);
        self.retrievals
            .candidates
            .fetch_add(hits.len() as u64, Ordering::Relaxed);
        self.retrievals
            .rows_scanned
            .fetch_add(self.len() as u64, Ordering::Relaxed);
        hits
    }

    /// Cumulative retrieval counters.
    pub fn retrieval_stats(&self) -> RetrievalStats {
        RetrievalStats {
            probes: self.retrievals.probes.load(Ordering::Relaxed),
            candidates: self.retrievals.candidates.load(Ordering::Relaxed),
            rows_scanned: self.retrievals.rows_scanned.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Row = Vec<(String, String)>;

    /// The fixture's rows; a hit's id is its position here.
    fn rows() -> Vec<Row> {
        let races = |years: std::ops::RangeInclusive<i32>, race: &'static str, circuit| {
            years.map(move |y| {
                vec![
                    ("year".to_owned(), y.to_string()),
                    ("name".to_owned(), format!("{y} {race} Grand Prix")),
                    ("Circuit".to_owned(), String::from(circuit)),
                ]
            })
        };
        races(1999..=2017, "Malaysian", "Sepang International Circuit")
            .chain(races(
                2000..=2017,
                "Italian",
                "Autodromo Nazionale di Monza",
            ))
            .collect()
    }

    fn row_text(row: &Row) -> String {
        let columns: Vec<String> = row.iter().map(|(c, _)| c.clone()).collect();
        let mut text = String::new();
        push_row_text(&mut text, &columns, |c, out| out.push_str(&row[c].1));
        text
    }

    fn store() -> RowStore {
        let mut s = RowStore::new(Embedder::default());
        for (id, row) in rows().iter().enumerate() {
            assert_eq!(s.add(&row_text(row)), id);
        }
        s
    }

    #[test]
    fn serialization_format() {
        let row: Row = vec![
            ("School".to_owned(), "Gunn High".to_owned()),
            ("City".to_owned(), "Palo Alto".to_owned()),
        ];
        assert_eq!(row_text(&row), "- School: Gunn High\n- City: Palo Alto");
    }

    #[test]
    fn retrieval_prefers_matching_rows() {
        let (s, rows) = (store(), rows());
        let hits = s.retrieve("races held on Sepang International Circuit", 10);
        assert_eq!(hits.len(), 10);
        let sepang = hits
            .iter()
            .filter(|h| rows[h.id].iter().any(|(_, v)| v.contains("Sepang")))
            .count();
        assert!(sepang >= 8, "only {sepang}/10 hits were Sepang rows");
        // Scores descend.
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn retrieval_cannot_cover_all_19_races_with_k_10() {
        // The structural RAG failure on aggregation queries: 19 relevant
        // rows cannot fit in a top-10 retrieval.
        let (s, rows) = (store(), rows());
        let hits = s.retrieve("races held on Sepang International Circuit", 10);
        let years: std::collections::HashSet<&str> = hits
            .iter()
            .map(|h| &rows[h.id])
            .filter(|r| r.iter().any(|(_, v)| v.contains("Sepang")))
            .filter_map(|r| r.iter().find(|(c, _)| c == "year").map(|(_, v)| v.as_str()))
            .collect();
        assert!(years.len() < 19);
    }

    #[test]
    fn retrieval_counters_accumulate() {
        let s = store();
        assert_eq!(s.retrieval_stats(), RetrievalStats::default());
        s.retrieve("Sepang races", 10);
        s.retrieve("Monza races", 5);
        let stats = s.retrieval_stats();
        assert_eq!(stats.probes, 2);
        assert_eq!(stats.candidates, 15);
        assert_eq!(stats.rows_scanned, 2 * s.len() as u64);
    }

    #[test]
    fn empty_store() {
        let s = RowStore::new(Embedder::default());
        assert!(s.is_empty());
        assert!(s.retrieve("anything", 5).is_empty());
    }

    #[test]
    fn huge_k_returns_every_row_in_rank_order() {
        let s = store();
        let all = s.retrieve("races held on Sepang International Circuit", s.len());
        for k in [1_000_000_000_000, usize::MAX] {
            assert_eq!(
                s.retrieve("races held on Sepang International Circuit", k),
                all
            );
        }
        assert_eq!(s.retrieval_stats().candidates, 3 * s.len() as u64);
    }
}
