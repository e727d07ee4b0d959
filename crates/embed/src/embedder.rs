//! Deterministic text embeddings via character n-gram feature hashing.
//!
//! Stands in for the E5-base embedding model: texts with shared vocabulary
//! land near each other under cosine similarity, which is the behaviour
//! row-level RAG retrieval depends on (and whose *limits* — aggregation
//! questions don't lexically mention most relevant rows — reproduce the
//! paper's RAG failures).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Configuration for the hashing embedder.
#[derive(Debug, Clone)]
pub struct EmbedderConfig {
    /// Embedding dimensionality.
    pub dims: usize,
    /// Character n-gram sizes to hash.
    pub ngram_sizes: Vec<usize>,
    /// Also hash whole words (captures exact term matches strongly).
    pub use_words: bool,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        EmbedderConfig {
            dims: 256,
            ngram_sizes: vec![3, 4],
            use_words: true,
        }
    }
}

/// A deterministic feature-hashing embedder.
#[derive(Debug, Clone)]
pub struct Embedder {
    config: EmbedderConfig,
}

impl Default for Embedder {
    fn default() -> Self {
        Self::new(EmbedderConfig::default())
    }
}

impl Embedder {
    /// Build an embedder.
    pub fn new(config: EmbedderConfig) -> Self {
        assert!(config.dims > 0, "dims must be positive");
        Embedder { config }
    }

    /// Embedding dimensionality.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// Embed a text into an L2-normalized vector.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0f32; self.config.dims];
        let normalized = text.to_lowercase();
        for feature in self.features(&normalized) {
            let (idx, sign) = self.slot(&feature);
            v[idx] += sign;
        }
        l2_normalize(&mut v);
        v
    }

    /// Embed a batch of texts.
    pub fn embed_batch<'a>(&self, texts: impl IntoIterator<Item = &'a str>) -> Vec<Vec<f32>> {
        texts.into_iter().map(|t| self.embed(t)).collect()
    }

    fn features(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let chars: Vec<char> = text.chars().collect();
        for &n in &self.config.ngram_sizes {
            if chars.len() >= n {
                for w in chars.windows(n) {
                    out.push(format!("g{n}:{}", w.iter().collect::<String>()));
                }
            }
        }
        if self.config.use_words {
            for w in text.split(|c: char| !c.is_alphanumeric()) {
                if !w.is_empty() {
                    out.push(format!("w:{w}"));
                }
            }
        }
        out
    }

    /// Hash a feature to (dimension, ±1) — signed feature hashing keeps
    /// the expected dot product of unrelated texts near zero.
    fn slot(&self, feature: &str) -> (usize, f32) {
        let mut h = DefaultHasher::new();
        feature.hash(&mut h);
        let x = h.finish();
        let idx = (x % self.config.dims as u64) as usize;
        let sign = if (x >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        (idx, sign)
    }
}

/// Normalize a vector to unit L2 norm (no-op for the zero vector).
pub fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity (assumes nothing about normalization).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Dot product (equals cosine for unit vectors).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embeddings_are_unit_norm_and_deterministic() {
        let e = Embedder::default();
        let a = e.embed("the quick brown fox");
        let b = e.embed("the quick brown fox");
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn similar_texts_are_closer() {
        let e = Embedder::default();
        let q = e.embed("races held on Sepang International Circuit");
        let near = e.embed("Malaysian Grand Prix at Sepang International Circuit 2004");
        let far = e.embed("average SAT math score of Palo Alto schools");
        assert!(cosine(&q, &near) > cosine(&q, &far) + 0.1);
    }

    #[test]
    fn case_insensitive() {
        let e = Embedder::default();
        assert_eq!(e.embed("Hello World"), e.embed("hello world"));
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = Embedder::default();
        let v = e.embed("");
        assert!(v.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn metric_helpers() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        assert_eq!(cosine(&a, &b), 0.0);
        assert_eq!(cosine(&a, &a), 1.0);
        assert_eq!(dot(&a, &b), 0.0);
        assert_eq!(cosine(&[0.0, 0.0], &a), 0.0);
    }

    #[test]
    fn batch_matches_single() {
        let e = Embedder::default();
        let batch = e.embed_batch(["a b c", "d e f"]);
        assert_eq!(batch[0], e.embed("a b c"));
        assert_eq!(batch[1], e.embed("d e f"));
    }
}
