//! # tag-trace
//!
//! Structured tracing for the TAG pipeline (`syn → exec → gen`).
//!
//! The paper decomposes every query into query synthesis, relational
//! execution, and answer generation; this crate makes that decomposition
//! observable. A [`Trace`] owns a tree of spans, each tagged with a
//! pipeline [`Stage`], a wall-clock duration, and per-span LM accounting
//! ([`LmUsage`]: calls, batch rounds, prompt-cache hits, token counts,
//! and virtual-clock seconds plumbed from `tag-lm`'s cost model).
//!
//! Plan operators are spans too: under an active trace every node of a
//! statement's relational plan and of a semantic plan opens one span,
//! labelled as `EXPLAIN` labels the node, and records the rows it
//! produced ([`SpanGuard::set_rows`], [`SpanRecord::rows`]). The tree a
//! request leaves is therefore its `EXPLAIN ANALYZE`: stages, operators,
//! rows out, wall time and LM cost, in one place.
//!
//! Design constraints, in order:
//!
//! 1. **Tracing must not change answers.** Instrumented code paths only
//!    *read* state; when no trace is installed every entry point is a
//!    no-op behind a single thread-local check. Traced and untraced runs
//!    are byte-identical.
//! 2. **Lock-cheap.** Span open/close touches only a thread-local stack;
//!    the shared sink is hit once per span, at close.
//! 3. **No global registry.** A trace is installed for the duration of a
//!    closure ([`with_trace`]) on the current thread — exactly the shape
//!    of a serve worker handling one request, or a bench replay loop.
//!
//! Completed spans are delivered to a [`TraceSink`]; [`MemSink`] collects
//! them in memory, [`NullSink`] discards them. [`SpanRecord::to_json`]
//! renders one span as a JSON object (the JSONL export format) and
//! [`render_tree`] pretty-prints a span tree for the `TRACE` protocol
//! command and `trace-report`. [`self_times`] gives each span's wall
//! time less its children's, so per-stage tables add up to the request.

#![warn(missing_docs)]

mod ctx;
mod sink;
mod span;

pub use ctx::{
    annotate, current_trace_id, is_active, record_lm, span, with_trace, SpanGuard, Trace,
};
pub use sink::{MemSink, NullSink, TraceSink};
pub use span::{render_tree, self_times, LmUsage, SpanRecord, Stage};
