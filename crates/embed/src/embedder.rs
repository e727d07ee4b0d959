//! Deterministic text embeddings via character n-gram feature hashing.
//!
//! Stands in for the E5-base embedding model: texts with shared vocabulary
//! land near each other under cosine similarity, which is the behaviour
//! row-level RAG retrieval depends on (and whose *limits* — aggregation
//! questions don't lexically mention most relevant rows — reproduce the
//! paper's RAG failures).
//!
//! A feature is a tagged string (`g3:` + a character 3-gram, `g4:` + a
//! 4-gram, `w:` + a word) hashed with `DefaultHasher` to a signed slot.
//! The string is never built: `str::hash` writes the string's bytes and
//! then `0xff`, and SipHash is streaming, so writing the tag, then the
//! slice of the lowercased text, then `0xff` gives the same hash.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// Embedding dimensionality.
const DIMS: usize = 256;
/// Character n-gram sizes and their hash tags.
const NGRAMS: [(usize, &[u8]); 2] = [(3, b"g3:"), (4, b"g4:")];
/// Hash tag of a whole word (captures exact term matches strongly).
const WORD: &[u8] = b"w:";

/// A deterministic feature-hashing embedder: `Embedder::default()`.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct Embedder;

impl Embedder {
    /// Embedding dimensionality.
    pub fn dims(&self) -> usize {
        DIMS
    }

    /// Embed a text into an L2-normalized vector.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0f32; DIMS];
        let text = text.to_lowercase();
        // Byte offset of every char, and the end: an n-gram is the slice
        // between two offsets n apart.
        let bounds: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .collect();
        for (n, tag) in NGRAMS {
            for w in bounds.windows(n + 1) {
                add_feature(&mut v, tag, &text[w[0]..w[n]]);
            }
        }
        for w in text.split(|c: char| !c.is_alphanumeric()) {
            if !w.is_empty() {
                add_feature(&mut v, WORD, w);
            }
        }
        l2_normalize(&mut v);
        v
    }
}

/// Count one feature into its slot. Slot counts are small integers, exact
/// in `f32`, so the order features are added in never shows in the bits.
fn add_feature(v: &mut [f32], tag: &[u8], body: &str) {
    let (idx, sign) = slot(feature_hash(tag, body));
    v[idx] += sign;
}

/// `DefaultHasher` over the feature `tag ++ body`, exactly as hashing that
/// string with `Hash` would.
fn feature_hash(tag: &[u8], body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(tag);
    h.write(body.as_bytes());
    h.write_u8(0xff);
    h.finish()
}

/// Map a feature hash to (dimension, ±1) — signed feature hashing keeps
/// the expected dot product of unrelated texts near zero.
fn slot(x: u64) -> (usize, f32) {
    let idx = (x % DIMS as u64) as usize;
    let sign = if (x >> 32) & 1 == 0 { 1.0 } else { -1.0 };
    (idx, sign)
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

/// Reference embedder: the same features, each built as a `String` and
/// hashed with `Hash`. [`Embedder::embed`] is held to it bit for bit.
#[cfg(test)]
mod reference {
    use super::{l2_normalize, DIMS};
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    pub(super) fn embed(text: &str) -> Vec<f32> {
        let mut v = vec![0f32; DIMS];
        let normalized = text.to_lowercase();
        for feature in features(&normalized) {
            let (idx, sign) = slot(&feature);
            v[idx] += sign;
        }
        l2_normalize(&mut v);
        v
    }

    fn features(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let chars: Vec<char> = text.chars().collect();
        for n in [3, 4] {
            if chars.len() >= n {
                for w in chars.windows(n) {
                    out.push(format!("g{n}:{}", w.iter().collect::<String>()));
                }
            }
        }
        for w in text.split(|c: char| !c.is_alphanumeric()) {
            if !w.is_empty() {
                out.push(format!("w:{w}"));
            }
        }
        out
    }

    fn slot(feature: &str) -> (usize, f32) {
        let mut h = DefaultHasher::new();
        feature.hash(&mut h);
        let x = h.finish();
        let idx = (x % DIMS as u64) as usize;
        let sign = if (x >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        (idx, sign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn embeddings_are_unit_norm_and_deterministic() {
        let e = Embedder;
        let a = e.embed("the quick brown fox");
        let b = e.embed("the quick brown fox");
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn similar_texts_are_closer() {
        let e = Embedder;
        let q = e.embed("races held on Sepang International Circuit");
        let near = e.embed("Malaysian Grand Prix at Sepang International Circuit 2004");
        let far = e.embed("average SAT math score of Palo Alto schools");
        assert!(cosine(&q, &near) > cosine(&q, &far) + 0.1);
    }

    #[test]
    fn case_insensitive() {
        let e = Embedder;
        assert_eq!(e.embed("Hello World"), e.embed("hello world"));
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = Embedder;
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
    fn embed_matches_reference_on_edge_cases() {
        for text in [
            "",
            "a",
            "ab",
            "abc",
            "- School: Gunn High\n- City: Palo Alto",
            "naïve café 東京 ünïcödé",
            "ΟΔΟΣ",         // final sigma: lowercases to 'ς' at a word end
            "İstanbul İ",   // 'İ' lowercases to two chars, three bytes
            "🦀🦀 x 🦀",    // four-byte chars
            "a--b  c\t\td", // runs of separators
        ] {
            assert_eq!(
                bits(&Embedder.embed(text)),
                bits(&reference::embed(text)),
                "{text:?}"
            );
        }
    }

    /// The vectors — and so every RAG answer and committed digest — hang
    /// on `DefaultHasher`, whose algorithm `std` does not promise to keep.
    #[test]
    fn slot_is_pinned() {
        let pinned = [
            (&b"g3:"[..], "sep", 0x1239_e64d_83e1_dea2_u64, (162, -1.0)),
            (&b"g4:"[..], "circ", 0xabae_b67a_b904_42c9, (201, 1.0)),
            (&b"w:"[..], "monza", 0x0c69_fcfe_8654_11c8, (200, 1.0)),
        ];
        for (tag, body, hash, want) in pinned {
            assert_eq!(
                (feature_hash(tag, body), slot(feature_hash(tag, body))),
                (hash, want),
                "DefaultHasher no longer hashes {:?} as it did on rustc 1.95.0, \
                 where every vector, the retrieval golden and the perf digests \
                 were pinned: this toolchain changed std's hasher, so those \
                 will all differ. Move the embedder to an in-repo hash and \
                 re-pin them, deliberately",
                String::from_utf8_lossy(tag) + body
            );
        }
    }

    proptest::proptest! {
        /// The allocation-free embedder is the `String`-per-feature one,
        /// bit for bit, on any printable text.
        #[test]
        fn embed_matches_reference(text in "\\PC{0,200}") {
            proptest::prop_assert_eq!(bits(&Embedder.embed(&text)), bits(&reference::embed(&text)));
        }

        /// Dense in what lowercasing changes the length of: `Σ` next to
        /// word ends, `İ`, four-byte chars, separators.
        #[test]
        fn embed_matches_reference_where_case_folding_moves_bytes(
            text in "[a-cA-CΣσİıß🦀 :\n-]{0,80}",
        ) {
            proptest::prop_assert_eq!(bits(&Embedder.embed(&text)), bits(&reference::embed(&text)));
        }
    }
}
