//! # tag-sql — in-memory SQL engine for the TAG reproduction
//!
//! A from-scratch SQL database engine standing in for SQLite3 in the
//! reproduction of *"Text2SQL is Not Enough: Unifying AI and Databases
//! with TAG"* (CIDR 2025). It implements the full `exec` stage of the TAG
//! model: a tokenizer, recursive-descent parser, binder/planner with
//! eager uncorrelated subqueries and per-row correlated
//! EXISTS/IN/scalar subqueries, a rule-based optimizer (predicate
//! pushdown, hash-join selection, index selection, top-k), and a
//! columnar, morsel-at-a-time executor over tables stored as columnar
//! images, with B+-tree and hash indexes.
//!
//! The engine is dynamically typed in the SQLite tradition and supports
//! the dialect used by the BIRD/TAG-Bench workloads: joins, grouping and
//! aggregation, HAVING, ORDER BY/LIMIT, DISTINCT, subqueries in
//! FROM/IN/EXISTS/scalar positions, CASE/CAST, LIKE/IN/BETWEEN, and
//! scalar UDFs — including LM UDFs, the §2.1 extension point that lets
//! the TAG `syn` step place language-model calls inside SQL.
//!
//! ## Quick start
//!
//! ```
//! use tag_sql::Database;
//!
//! let mut db = Database::new();
//! db.execute_script(
//!     "CREATE TABLE movies (title TEXT, genre TEXT, revenue REAL);
//!      INSERT INTO movies VALUES
//!        ('Titanic', 'Romance', 2257.8),
//!        ('The Notebook', 'Romance', 115.6),
//!        ('Alien', 'SciFi', 104.9);",
//! ).unwrap();
//! let top = db.execute(
//!     "SELECT title FROM movies WHERE genre = 'Romance' ORDER BY revenue DESC LIMIT 1",
//! ).unwrap();
//! assert_eq!(top.rows[0][0].to_string(), "Titanic");
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod chunk;
pub mod chunk_exec;
pub mod engine;
pub mod error;
mod exec;
pub mod expr;
pub mod functions;
pub mod index;
pub mod lexer;
mod morsel;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod result;
pub mod schema;
mod semcost;
pub mod semopt;
pub mod semplan;
mod semverify;
pub mod table;
pub mod udf;
pub mod value;
pub mod vector;

pub use catalog::Catalog;
pub use engine::{Database, PlanCacheStats};
pub use error::{SqlError, SqlResult};
pub use expr::{BoundExpr, EvalCtx};
pub use plan::{AggCall, AggFunc, IndexRange, Plan, SortKey};
pub use result::ResultSet;
pub use schema::{Column, DataType, Row, Schema};
pub use semcost::{plan_cost, CostBound};
pub use semopt::{lower_scans, optimize_sem, plan_sem, SemOptOptions};
pub use semplan::{
    execute_sem, scan_sql, CutSpec, FrameSource, GenFormat, Generate, Rerank, Retrieve,
    RetrieveKind, SemClaimSpec, SemDelegate, SemFrame, SemOp, SemPlan, SemPredicate, SemReads,
    SemStep,
};
pub use semverify::{verify_plan, verify_report_text, verify_rewrite, Diagnostic, VerifyReport};
pub use table::{IndexKind, Table};
pub use udf::{FnUdf, ScalarUdf, UdfRegistry};
pub use value::Value;
