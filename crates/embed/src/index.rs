//! The vector index: exact flat search.
//!
//! The FAISS stand-in. `FlatIndex` is brute-force exact top-k, as
//! `IndexFlatIP` is: answers are byte-identical by contract, so an
//! approximate index could never serve.
//!
//! Vectors live in tiles of `TILE` rows, laid out dimension-major
//! (`tiles[t][k*TILE + l]` is dimension `k` of row `t*TILE + l`). A probe
//! adds `q[k] * x` into the tile's `TILE` accumulators for each `k` in
//! turn, a loop over rows that vectorises. Each row's sum still runs over
//! `k` in order from the neutral element [`dot`](crate::dot)'s `sum`
//! starts from, so every score is bit-identical to `dot(query, row)`.

use std::cmp::Ordering;

/// Rows per tile.
const TILE: usize = 64;

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
    len: usize,
    /// One allocation a tile, not one matrix: at 256 dimensions a tile is
    /// 64 KB, under glibc's 128 KB mmap threshold. A multi-megabyte matrix
    /// is mmapped, and freeing one raises glibc's dynamic threshold, after
    /// which the process's other mid-size allocations stay in its heap
    /// (DESIGN.md §17).
    tiles: Vec<Box<[f32]>>,
}

impl FlatIndex {
    /// An empty index for vectors of the given dimensionality.
    pub fn new(dims: usize) -> Self {
        FlatIndex {
            dims,
            len: 0,
            tiles: Vec::new(),
        }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a vector; its id is its insertion position.
    pub fn add(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dims, "dimension mismatch");
        let id = self.len;
        let l = id % TILE;
        if l == 0 {
            self.tiles
                .push(vec![0.0; TILE * self.dims].into_boxed_slice());
        }
        let tile = &mut self.tiles[id / TILE];
        for (k, &x) in v.iter().enumerate() {
            tile[k * TILE + l] = x;
        }
        self.len += 1;
        id
    }

    /// Exact top-k by inner product, ties broken by id for determinism.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dims, "dimension mismatch");
        let scores = self.scores(query);
        top_k_hits(
            scores
                .into_iter()
                .enumerate()
                .map(|(id, score)| Hit { id, score }),
            k,
        )
    }

    /// `dot(query, row)` for every row, in id order.
    fn scores(&self, query: &[f32]) -> Vec<f32> {
        let start: f32 = std::iter::empty::<f32>().sum();
        let mut out = Vec::with_capacity(self.tiles.len() * TILE);
        for tile in &self.tiles {
            let mut acc = [start; TILE];
            for (q, col) in query.iter().zip(tile.chunks_exact(TILE)) {
                for (a, x) in acc.iter_mut().zip(col) {
                    *a += q * x;
                }
            }
            out.extend_from_slice(&acc);
        }
        out.truncate(self.len);
        out
    }
}

/// Collect the k best hits (highest score, then lowest id).
fn top_k_hits(hits: impl ExactSizeIterator<Item = Hit>, k: usize) -> Vec<Hit> {
    let mut best: Vec<Hit> = Vec::with_capacity(k.min(hits.len()).saturating_add(1));
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
    use crate::embedder::{dot, Embedder};

    /// Reference scan: one `Vec` and one `dot` per row. The tiled scan is
    /// held to it bit for bit.
    fn reference_search(vectors: &[Vec<f32>], query: &[f32], k: usize) -> Vec<Hit> {
        top_k_hits(
            vectors.iter().enumerate().map(|(id, v)| Hit {
                id,
                score: dot(query, v),
            }),
            k,
        )
    }

    fn index_of(vectors: &[Vec<f32>], dims: usize) -> FlatIndex {
        let mut idx = FlatIndex::new(dims);
        for v in vectors {
            idx.add(v);
        }
        idx
    }

    fn key(hits: &[Hit]) -> Vec<(usize, u32)> {
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    fn corpus() -> (Embedder, Vec<String>) {
        let e = Embedder;
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
        idx.add(&[1.0, 0.0]);
        idx.add(&[0.8, 0.6]);
        idx.add(&[0.0, 1.0]);
        let hits = idx.search(&[1.0, 0.0], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn flat_handles_k_larger_than_corpus() {
        let mut idx = FlatIndex::new(2);
        idx.add(&[1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn huge_k_is_answered_not_allocated() {
        let mut idx = FlatIndex::new(2);
        idx.add(&[1.0, 0.0]);
        idx.add(&[0.0, 1.0]);
        for k in [1_000_000_000_000, usize::MAX] {
            let hits = idx.search(&[1.0, 0.0], k);
            assert_eq!(key(&hits), vec![(0, 1f32.to_bits()), (1, 0f32.to_bits())]);
        }
        assert!(FlatIndex::new(2).search(&[1.0, 0.0], usize::MAX).is_empty());
    }

    #[test]
    fn flat_ties_break_by_id() {
        let mut idx = FlatIndex::new(2);
        idx.add(&[1.0, 0.0]);
        idx.add(&[1.0, 0.0]);
        idx.add(&[1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
    }

    /// Tile edges (0, 1, 63, 64, 65, 130 rows) and every interesting `k`,
    /// with duplicate rows (ties broken by id) and zero queries (every
    /// score a signed zero; against the all-positive rows, `-0.0` unless
    /// a sum starts from another neutral element than `dot`'s).
    #[test]
    fn tiled_search_matches_per_row_dot() {
        let e = Embedder;
        for n in [0, 1, 63, 64, 65, 130] {
            let vectors: Vec<Vec<f32>> = (0..n)
                .map(|i| match i % 9 {
                    4 => vec![1.0 / 16.0; e.dims()],
                    _ => e.embed(&format!("row {} of a table at circuit {}", i % 40, i % 7)),
                })
                .collect();
            let idx = index_of(&vectors, e.dims());
            let queries = [
                e.embed("circuit 3 row 12"),
                e.embed("nothing alike"),
                vec![0.0; e.dims()],
                vec![-0.0; e.dims()],
            ];
            for q in &queries {
                for k in [0, 1, n, n + 5] {
                    assert_eq!(
                        key(&idx.search(q, k)),
                        key(&reference_search(&vectors, q, k)),
                        "n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn retrieval_finds_lexically_similar_rows() {
        let (e, texts) = corpus();
        let mut idx = FlatIndex::new(e.dims());
        for t in &texts {
            idx.add(&e.embed(t));
        }
        let q = e.embed("SAT scores of the school in city number 4");
        let hits = idx.search(&q, 5);
        // The target row should be the top hit.
        assert_eq!(texts[hits[0].id], "school in city number 4 with SAT scores");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut idx = FlatIndex::new(3);
        idx.add(&[1.0, 0.0]);
    }
}
