//! Row-level retrieval store: the RAG baseline's data layer.
//!
//! Rows are serialized in the paper's "- col: val" format (§4.2),
//! embedded, and indexed for similarity search. Retrieval returns the
//! original (column, value) pairs so the generation step can put them in
//! context verbatim.

use crate::embedder::Embedder;
use crate::index::{FlatIndex, Hit};
use std::sync::atomic::{AtomicU64, Ordering};

/// One stored row: ordered `(column, value)` pairs.
pub type StoredRow = Vec<(String, String)>;

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

/// Serialize a row the way the paper's RAG baseline does.
pub fn serialize_row(row: &StoredRow) -> String {
    row.iter()
        .map(|(c, v)| format!("- {c}: {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A vector store over serialized table rows.
pub struct RowStore {
    embedder: Embedder,
    index: FlatIndex,
    rows: Vec<StoredRow>,
    retrievals: RetrievalCounters,
}

impl RowStore {
    /// An empty store using the given embedder.
    pub fn new(embedder: Embedder) -> Self {
        let dims = embedder.dims();
        RowStore {
            embedder,
            index: FlatIndex::new(dims),
            rows: Vec::new(),
            retrievals: RetrievalCounters::default(),
        }
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Add one row (serialized, embedded, indexed).
    pub fn add_row(&mut self, row: StoredRow) {
        let text = serialize_row(&row);
        self.index.add(&self.embedder.embed(&text));
        self.rows.push(row);
    }

    /// Add many rows.
    pub fn add_rows(&mut self, rows: impl IntoIterator<Item = StoredRow>) {
        for r in rows {
            self.add_row(r);
        }
    }

    /// Retrieve the `k` most similar rows to a natural-language query.
    pub fn retrieve(&self, query: &str, k: usize) -> Vec<(&StoredRow, f32)> {
        let q = self.embedder.embed(query);
        let hits: Vec<(&StoredRow, f32)> = self
            .index
            .search(&q, k)
            .into_iter()
            .map(|Hit { id, score }| (&self.rows[id], score))
            .collect();
        self.retrievals.probes.fetch_add(1, Ordering::Relaxed);
        self.retrievals
            .candidates
            .fetch_add(hits.len() as u64, Ordering::Relaxed);
        self.retrievals
            .rows_scanned
            .fetch_add(self.rows.len() as u64, Ordering::Relaxed);
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

    /// The stored rows (insertion order).
    pub fn rows(&self) -> &[StoredRow] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> RowStore {
        let mut s = RowStore::new(Embedder::default());
        s.add_rows((1999..=2017).map(|y| {
            vec![
                ("year".to_owned(), y.to_string()),
                ("name".to_owned(), format!("{y} Malaysian Grand Prix")),
                (
                    "Circuit".to_owned(),
                    "Sepang International Circuit".to_owned(),
                ),
            ]
        }));
        s.add_rows((2000..=2017).map(|y| {
            vec![
                ("year".to_owned(), y.to_string()),
                ("name".to_owned(), format!("{y} Italian Grand Prix")),
                (
                    "Circuit".to_owned(),
                    "Autodromo Nazionale di Monza".to_owned(),
                ),
            ]
        }));
        s
    }

    #[test]
    fn serialization_format() {
        let row: StoredRow = vec![
            ("School".to_owned(), "Gunn High".to_owned()),
            ("City".to_owned(), "Palo Alto".to_owned()),
        ];
        assert_eq!(
            serialize_row(&row),
            "- School: Gunn High\n- City: Palo Alto"
        );
    }

    #[test]
    fn retrieval_prefers_matching_rows() {
        let s = store();
        let hits = s.retrieve("races held on Sepang International Circuit", 10);
        assert_eq!(hits.len(), 10);
        let sepang = hits
            .iter()
            .filter(|(r, _)| r.iter().any(|(_, v)| v.contains("Sepang")))
            .count();
        assert!(sepang >= 8, "only {sepang}/10 hits were Sepang rows");
        // Scores descend.
        assert!(hits.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn retrieval_cannot_cover_all_19_races_with_k_10() {
        // The structural RAG failure on aggregation queries: 19 relevant
        // rows cannot fit in a top-10 retrieval.
        let s = store();
        let hits = s.retrieve("races held on Sepang International Circuit", 10);
        let years: std::collections::HashSet<&str> = hits
            .iter()
            .filter(|(r, _)| r.iter().any(|(_, v)| v.contains("Sepang")))
            .filter_map(|(r, _)| r.iter().find(|(c, _)| c == "year").map(|(_, v)| v.as_str()))
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
