//! # tag-core — the TAG model and the paper's five methods
//!
//! Implements the primary contribution of *"Text2SQL is Not Enough:
//! Unifying AI and Databases with TAG"* (CIDR 2025): the three-step
//! Table-Augmented Generation model
//!
//! ```text
//! syn(R) -> Q,   exec(Q) -> T,   gen(R, T) -> A
//! ```
//!
//! as a composable pipeline ([`model::TagPipeline`]), plus every method
//! the evaluation compares ([`methods`]):
//!
//! | Method | syn | exec | gen |
//! |---|---|---|---|
//! | Text2SQL | LM over BIRD prompt | SQL engine | identity |
//! | RAG | embed question | vector top-k | one LM call |
//! | Retrieval + LM Rank | embed question | top-k + LM rerank | one LM call |
//! | Text2SQL + LM | LM (retrieval SQL) | SQL engine | one LM call |
//! | Hand-written TAG | expert pipeline | SQL + semantic operators | LM over computed table |
//!
//! [`multihop`] adds the §2/§5 future-work extension (iterated TAG).

#![warn(missing_docs)]

pub mod answer;
pub mod env;
pub mod methods;
pub mod model;
pub mod multihop;
pub mod semplan;

pub use answer::{exact_match, normalize_value, Answer};
pub use env::TagEnv;
pub use methods::{HandWrittenTag, Rag, RetrievalLmRank, Text2Sql, Text2SqlLm};
pub use model::{AnswerGeneration, QuerySynthesis, TagMethod, TagPipeline};
pub use multihop::{run_two_hop, TwoHopQuery};
pub use semplan::{
    compile_generate_over, compile_nlq, compile_rag, compile_rerank, nlq_reads, plan_nlq,
    run_semplan, SemRuntime,
};
