//! # tag-semops — LOTUS-style semantic operator runtime
//!
//! Reimplements the semantic-operator layer the paper's hand-written TAG
//! pipelines are built on (LOTUS, ref. 21 of the paper): LM-powered
//! operators — [`ops::sem_filter`], [`ops::sem_topk`], [`ops::sem_agg`] —
//! over [`tag_sql::SemFrame`] selections of the SQL engine's columns,
//! executed through a batched, cached [`engine::SemEngine`]. Batched
//! inference is what gives TAG its execution-time advantage in Table 1.

#![warn(missing_docs)]

pub mod engine;
pub mod lru;
pub mod ops;

pub use engine::{EngineStats, SemEngine};
pub use lru::LruCache;
pub use ops::{sem_agg, sem_agg_refine, sem_filter, sem_judge, sem_topk, SemError, SemResult};

/// The frame the operators take, under the name the benchmark harness
/// (`perf/`, its only user) imports it by.
pub use tag_sql::SemFrame as DataFrame;
