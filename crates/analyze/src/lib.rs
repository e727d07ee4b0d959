//! Source tooling for the TAG workspace.
//!
//! Two analyses over the workspace's source text, no execution and no
//! dependency on the crates they read (the SemPlan verifier and LM-cost
//! bound live in `tag-sql`, beside the rewrite rules they check):
//!
//! 1. **`tag-lint`** ([`lint`]): a hand-rolled source-level linter (no
//!    new dependencies; the same token-scanning approach as the SQL
//!    lexer) enforcing repo invariants — no `.unwrap()`/`.expect()` on
//!    serve/sqlengine hot paths (ratcheted), and no poison-panicking
//!    `std::sync` lock use in serve.
//! 2. **`tag-audit`** ([`audit`]): a multi-pass concurrency &
//!    determinism analyzer over the same [`scanner`] infrastructure —
//!    a lock-order pass against the declared hierarchy
//!    (`crates/analyze/lock-order.txt`), a determinism pass over
//!    result-producing executor paths (ratcheted in
//!    `crates/analyze/det-ratchet.txt`), and a liveness pass for the
//!    serve pool (predicate-loop condvar waits, no blocking
//!    sends under hub/cache locks, sender-drop-before-join shutdown).

#![warn(missing_docs)]

pub mod audit;
pub mod lint;
pub mod scanner;

pub use audit::{run_audit, AuditConfig, AuditFinding, AuditOutcome};
pub use lint::{run_lint, LintConfig, LintFinding, LintOutcome};
