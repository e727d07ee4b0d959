//! Property-based tests for the embedding substrate.

use proptest::prelude::*;
use tag_embed::{cosine, Embedder, FlatIndex};

proptest! {
    /// Embeddings are unit-norm (or zero) and deterministic.
    #[test]
    fn embeddings_unit_norm(text in "\\PC{0,120}") {
        let e = Embedder::default();
        let v = e.embed(&text);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm < 1.0 + 1e-4);
        prop_assert!(norm.abs() < 1e-4 || (norm - 1.0).abs() < 1e-4);
        prop_assert_eq!(v, e.embed(&text));
    }

    /// Cosine similarity is bounded and symmetric; self-similarity is 1.
    #[test]
    fn cosine_properties(a in "\\PC{1,60}", b in "\\PC{1,60}") {
        let e = Embedder::default();
        let va = e.embed(&a);
        let vb = e.embed(&b);
        let c = cosine(&va, &vb);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&c));
        prop_assert!((c - cosine(&vb, &va)).abs() < 1e-5);
        if va.iter().any(|x| *x != 0.0) {
            prop_assert!((cosine(&va, &va) - 1.0).abs() < 1e-4);
        }
    }

    /// Flat search returns hits in non-increasing score order and the
    /// top-1 result for a stored vector's own embedding is itself (or an
    /// exact duplicate with smaller id).
    #[test]
    fn flat_search_invariants(
        texts in prop::collection::vec("[a-z ]{5,40}", 2..30),
        k in 1usize..8,
    ) {
        let e = Embedder::default();
        let mut idx = FlatIndex::new(e.dims());
        for t in &texts {
            idx.add(&e.embed(t));
        }
        let probe = &texts[texts.len() / 2];
        let hits = idx.search(&e.embed(probe), k);
        prop_assert!(hits.len() == k.min(texts.len()));
        prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
        let top = &texts[hits[0].id];
        prop_assert_eq!(e.embed(top), e.embed(probe));
    }
}
