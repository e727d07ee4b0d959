//! # tag-semops — LOTUS-style semantic operator runtime
//!
//! Reimplements the semantic-operator layer the paper's hand-written TAG
//! pipelines are built on (LOTUS, ref. 21 of the paper): a small [`frame::DataFrame`]
//! with pandas-like verbs, plus LM-powered operators — [`ops::sem_filter`],
//! [`ops::sem_topk`], [`ops::sem_agg`] — executed through a batched, cached
//! [`engine::SemEngine`]. Batched inference is what gives TAG its
//! execution-time advantage in Table 1.

#![warn(missing_docs)]

pub mod engine;
pub mod frame;
pub mod lru;
pub mod ops;

pub use engine::{EngineStats, OpStats, SemEngine};
pub use frame::DataFrame;
pub use lru::LruCache;
pub use ops::{sem_agg, sem_agg_refine, sem_filter, sem_judge, sem_topk, SemError, SemResult};
