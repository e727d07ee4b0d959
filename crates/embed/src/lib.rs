//! # tag-embed — embeddings and vector search substrate
//!
//! Stands in for the E5-base embedding model and the FAISS index used by
//! the paper's RAG baseline (§4.2). Provides:
//!
//! - [`embedder::Embedder`] — deterministic character-n-gram feature
//!   hashing embeddings (L2-normalized);
//! - [`index::FlatIndex`] — exact inner-product top-k over 64-row tiles,
//!   every score bit-identical to [`dot`];
//! - [`store::RowStore`] — row-level retrieval over the paper's
//!   "- col: val" serialization.

#![warn(missing_docs)]

pub mod embedder;
pub mod index;
pub mod store;

pub use embedder::{cosine, dot, Embedder};
pub use index::{FlatIndex, Hit};
pub use store::{push_row_text, RetrievalStats, RowStore};
