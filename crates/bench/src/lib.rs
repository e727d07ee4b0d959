//! # tag-bench — TAG-Bench and the evaluation harness
//!
//! Reconstructs the paper's benchmark (§4.1): 80 queries over 5 BIRD
//! domains — 20 per query type (match-based, comparison, ranking,
//! aggregation), split 40 knowledge / 40 reasoning — plus the harness
//! that reruns the evaluation and regenerates **Table 1**, **Table 2**,
//! and **Figure 2**. Ground truth comes from [`oracle::Oracle`]
//! (full-coverage world facts + labels planted at data-generation time).
//!
//! Binaries:
//!
//! - `paper-report` — rerun Table 1, Table 2, Figure 2, the five
//!   ablations and the SemPlan rules-off/on accounting ([`report`]),
//!   rewrite EXPERIMENTS.md's generated blocks, and exit 1 if a paper
//!   shape claim fails;
//! - `trace-report` — replay the benchmark traced and untraced, and
//!   print the per-stage cost breakdown.

#![warn(missing_docs)]

pub mod eval;
pub mod oracle;
pub mod queries;
pub mod report;

pub use eval::{Harness, MethodId, Outcome};
pub use oracle::Oracle;
pub use queries::{build_benchmark, BenchQuery, QueryKind, QueryType};
