//! Static analysis for the TAG stack.
//!
//! Four analyses, all computed from artifacts alone — no execution:
//!
//! 1. **SemPlan verifier** ([`verify_plan`], [`verify_rewrite`]): a typed
//!    well-formedness pass over [`tag_sql::SemNode`] trees. Column
//!    resolution flows through every node against the live catalog,
//!    stage tags are checked legal per operator, cardinality bounds are
//!    monotone through `Cut`/`SemTopK`/pre-cut, and each `semopt`
//!    rewrite rule's pre/postconditions are checked against the
//!    before/after pair. Runs automatically after `optimize_sem` in
//!    debug builds, interactively as `EXPLAIN VERIFY <question>`, and in
//!    CI over all 80 TAG-Bench plans × every `SemOptOptions` combination
//!    (`verify-report`).
//! 2. **Static LM-cost bounds** ([`plan_cost`]): a per-plan upper bound
//!    on LM calls (and, loosely, tokens) derived from the IR alone.
//!    `trace-report` cross-checks the bound against traced actuals; an
//!    actual exceeding its static bound fails CI.
//! 3. **`tag-lint`** ([`lint`]): a hand-rolled source-level linter (no
//!    new dependencies; the same token-scanning approach as the SQL
//!    lexer) enforcing repo invariants — no `.unwrap()`/`.expect()` on
//!    serve/sqlengine hot paths (ratcheted), every
//!    `complete_op`/`complete_batch_op` call site carries a known stage
//!    tag, and no poison-panicking `std::sync` lock use in serve.
//! 4. **`tag-audit`** ([`audit`]): a multi-pass concurrency &
//!    determinism analyzer over the same [`scanner`] infrastructure —
//!    a lock-order pass against the declared hierarchy
//!    (`crates/analyze/lock-order.txt`), a determinism pass over
//!    result-producing executor paths (ratcheted in
//!    `crates/analyze/det-ratchet.txt`), and a liveness pass for the
//!    serve pool (predicate-loop condvar waits, no blocking
//!    sends under hub/cache locks, sender-drop-before-join shutdown).

#![warn(missing_docs)]

pub mod audit;
pub mod cost;
pub mod lint;
pub mod scanner;
pub mod verifier;

pub use audit::{run_audit, AuditConfig, AuditFinding, AuditOutcome};
pub use cost::{plan_cost, topk_call_bound, CostBound, DEFAULT_SCAN_ROWS};
pub use lint::{run_lint, LintConfig, LintFinding, LintOutcome};
pub use verifier::{
    annotated_explain, verify_plan, verify_report_text, verify_rewrite, Diagnostic, NoSchema,
    SchemaSource, VerifyReport,
};
