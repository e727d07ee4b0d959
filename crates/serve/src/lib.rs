//! `tag-serve`: a concurrent multi-domain query-serving runtime for the
//! TAG pipelines.
//!
//! The benchmark crates answer one question at a time; this crate turns
//! the same environments into a server:
//!
//! - [`Server`] owns one shared [`TagEnv`](tag_core::env::TagEnv) per
//!   BIRD domain. Every request runs on the thread that asked it:
//!   answer-cache hits straight away, misses under one of a fixed
//!   number of execution slots, run to completion, with per-request
//!   deadlines and typed load-shedding when every slot is held and the
//!   line waiting for one is full ([`ServeError::QueueFull`],
//!   [`ServeError::DeadlineExceeded`]).
//!   Every domain's env calls the model directly: LM calls are batched
//!   within a request, in its `SemEngine`'s rounds, and a panic
//!   anywhere in a request becomes that request's typed error.
//! - [`AnswerCache`] is a sharded LRU keyed on
//!   `(domain, method, normalized question)`.
//! - [`MetricsRegistry`] counts request outcomes (admitted, ok, error,
//!   shed) and holds one [`tag_metrics::WindowedHistogram`] per latency
//!   (slot wait / exec / end-to-end), each with cumulative and rolling
//!   10s/60s views. The `STATS` text report reads those histograms and
//!   the [`AnswerCache`]'s own counters. The histograms are adopted by
//!   a shared [`tag_metrics::MetricsHub`], which renders the
//!   Prometheus-text exposition behind the `METRICS` command.
//! - Every executed request is traced through `tag-trace`: the captured
//!   span tree is kept in a bounded [`TraceStore`] ring with a
//!   tail-sampling reservoir for slow/error traces (`TRACE <id>`
//!   retrieves it, as a tree or JSONL; [`TraceLookup`] distinguishes
//!   evicted ids from unknown ones), and one pass over its spans feeds
//!   [`SpanMetrics`]: per-stage aggregates (one hub-adopted span-time
//!   histogram per stage) and the per-operator table of rows and LM
//!   usage, both in the `STATS` report.
//!
//! Two binaries ship with the crate: `tag-serve`, a stdin/stdout line
//! server speaking `ASK <domain> <method> <question>`, and `obs-bench`,
//! the observability overhead gate that replays the benchmark with the
//! hub enabled vs the null registry. Load is `tag-perf`'s job
//! (`perf/`, workloads `serve_cold` and `serve_hot`).

#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod trace;

pub use cache::{normalize_question, AnswerCache, CacheStats};
pub use metrics::{MetricsRegistry, SpanMetrics};
pub use protocol::{format_answer, parse_line, run_method, Command, MethodName};
pub use server::{BatchStats, Request, Response, ServeError, Server, ServerConfig};
pub use trace::{TraceLookup, TraceStore};
