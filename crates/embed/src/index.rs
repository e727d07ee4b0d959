//! The vector index: exact flat search.
//!
//! The FAISS stand-in. `FlatIndex` is brute-force exact top-k, as
//! `IndexFlatIP` is: answers are byte-identical by contract, so an
//! approximate index could never serve.

use crate::embedder::dot;
use std::cmp::Ordering;

/// A scored search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Position of the vector in insertion order.
    pub id: usize,
    /// Similarity score (inner product; cosine for unit vectors).
    pub score: f32,
}

/// Exact inner-product top-k over a flat vector store.
#[derive(Debug, Clone, Default)]
pub struct FlatIndex {
    dims: usize,
    vectors: Vec<Vec<f32>>,
}

impl FlatIndex {
    /// An empty index for vectors of the given dimensionality.
    pub fn new(dims: usize) -> Self {
        FlatIndex {
            dims,
            vectors: Vec::new(),
        }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Append a vector; its id is its insertion position.
    pub fn add(&mut self, v: Vec<f32>) -> usize {
        assert_eq!(v.len(), self.dims, "dimension mismatch");
        self.vectors.push(v);
        self.vectors.len() - 1
    }

    /// Append many vectors.
    pub fn add_all(&mut self, vs: impl IntoIterator<Item = Vec<f32>>) {
        for v in vs {
            self.add(v);
        }
    }

    /// The stored vector for an id.
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.vectors[id]
    }

    /// Exact top-k by inner product, ties broken by id for determinism.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dims, "dimension mismatch");
        top_k_hits(
            self.vectors.iter().enumerate().map(|(id, v)| Hit {
                id,
                score: dot(query, v),
            }),
            k,
        )
    }
}

/// Collect the k best hits (highest score, then lowest id).
fn top_k_hits(hits: impl Iterator<Item = Hit>, k: usize) -> Vec<Hit> {
    let mut best: Vec<Hit> = Vec::with_capacity(k + 1);
    for h in hits {
        let pos = best
            .binary_search_by(|e| {
                e.score
                    .partial_cmp(&h.score)
                    .unwrap_or(Ordering::Equal)
                    .reverse()
                    .then(e.id.cmp(&h.id))
            })
            .unwrap_or_else(|p| p);
        if pos < k {
            best.insert(pos, h);
            if best.len() > k {
                best.pop();
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedder::Embedder;

    fn corpus() -> (Embedder, Vec<String>) {
        let e = Embedder::default();
        let texts: Vec<String> = (0..60)
            .map(|i| match i % 3 {
                0 => format!("formula one race at circuit number {i}"),
                1 => format!("school in city number {i} with SAT scores"),
                _ => format!("football player number {i} with volley rating"),
            })
            .collect();
        (e, texts)
    }

    #[test]
    fn flat_search_exact_order() {
        let mut idx = FlatIndex::new(2);
        idx.add(vec![1.0, 0.0]);
        idx.add(vec![0.8, 0.6]);
        idx.add(vec![0.0, 1.0]);
        let hits = idx.search(&[1.0, 0.0], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn flat_handles_k_larger_than_corpus() {
        let mut idx = FlatIndex::new(2);
        idx.add(vec![1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn flat_ties_break_by_id() {
        let mut idx = FlatIndex::new(2);
        idx.add(vec![1.0, 0.0]);
        idx.add(vec![1.0, 0.0]);
        idx.add(vec![1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
    }

    #[test]
    fn retrieval_finds_lexically_similar_rows() {
        let (e, texts) = corpus();
        let mut idx = FlatIndex::new(e.dims());
        idx.add_all(texts.iter().map(|t| e.embed(t)));
        let q = e.embed("SAT scores of the school in city number 4");
        let hits = idx.search(&q, 5);
        // The target row should be the top hit.
        assert_eq!(texts[hits[0].id], "school in city number 4 with SAT scores");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut idx = FlatIndex::new(3);
        idx.add(vec![1.0, 0.0]);
    }
}
