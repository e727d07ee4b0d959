//! Workspace-wide telemetry for the TAG serving stack. Every latency
//! the workspace records lives in one of these instruments:
//!
//! - [`Counter`] / [`Gauge`]: single relaxed atomics, safe on hot paths.
//! - [`WindowedHistogram`]: 16 fixed latency buckets (100µs to 10s,
//!   plus +inf) with a cumulative view and a per-second ring of slots,
//!   so callers read *rolling* 10s/60s rates and p50/p95/p99 alongside
//!   the cumulative view. Quantiles are bucket upper bounds. Buckets
//!   carry last-write-wins trace-id exemplars so a p99 spike links to a
//!   `TRACE <id>` lookup.
//! - [`MetricsHub`]: a registry of named instruments plus scrape-time
//!   collectors for subsystems that already keep their own counters
//!   (answer cache, semantic-op stats, batch rounds). `MetricsHub::noop()`
//!   is the null registry used by the `obs-bench` overhead gate: every
//!   instrument it hands out drops observations after one branch, while
//!   a histogram the caller built and passed to
//!   [`MetricsHub::adopt_histogram`] is left unregistered and keeps
//!   recording.
//! - [`MetricsHub::render`]: deterministic Prometheus-text exposition
//!   (`# HELP`/`# TYPE`, `_bucket{le=...}`/`_sum`/`_count`, rolling
//!   quantiles as a `<name>_window_seconds` gauge family, OpenMetrics
//!   `# {trace_id="..."}` exemplars on bucket lines).
//!
//! Naming scheme: `tag_<crate>_<subsystem>_<name>{label="..."}` —
//! see DESIGN.md §12 for the full policy.
//!
//! Clocks are injectable ([`Clock::mock`]) so window rotation is
//! deterministic under test.

#![warn(missing_docs)]

mod clock;
mod expo;
mod hub;
mod instruments;
mod window;

pub use clock::{Clock, MockClock};
pub use hub::{InstrumentKind, MetricsHub, Sample};
pub use instruments::{Counter, Gauge};
pub use window::{Quantile, WindowSnapshot, WindowedHistogram, BOUNDS, WINDOWS};
