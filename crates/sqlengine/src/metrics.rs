//! Per-operator execution metrics fed from [`PlanProfiler`] output.
//!
//! The serving runtime installs a [`tag_metrics::MetricsHub`] on the
//! database ([`crate::Database::install_metrics_hub`]); every profiled
//! query then folds its node profiles into per-operator-kind counters
//! and windowed latency histograms:
//!
//! - `tag_sqlengine_operator_executions_total{op=...}`
//! - `tag_sqlengine_operator_rows_total{op=...}` (rows produced)
//! - `tag_sqlengine_operator_lm_prompts_total{op=...}`
//! - `tag_sqlengine_operator_seconds{op=...}` (wall time *including*
//!   children, matching the profiler's per-node semantics)
//!
//! The operator kind is the first token of the profiler label
//! ("TableScan schools" → `op="TableScan"`), keeping cardinality at
//! the operator vocabulary, not the table vocabulary.

use crate::profile::NodeProfile;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tag_metrics::{Counter, MetricsHub, WindowedHistogram};

struct OpInstruments {
    executions: Arc<Counter>,
    rows_out: Arc<Counter>,
    lm_prompts: Arc<Counter>,
    elapsed: Arc<WindowedHistogram>,
}

/// Hub-backed sink for plan-profiler node records.
pub struct ExecMetrics {
    active: bool,
    hub: Arc<MetricsHub>,
    ops: Mutex<HashMap<String, OpInstruments>>,
}

impl std::fmt::Debug for ExecMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecMetrics")
            .field("active", &self.active)
            .finish()
    }
}

impl ExecMetrics {
    /// A sink registering instruments on `hub`. Inactive (records
    /// nothing) when the hub is a no-op registry.
    pub fn new(hub: Arc<MetricsHub>) -> ExecMetrics {
        ExecMetrics {
            active: hub.is_enabled(),
            hub,
            ops: Mutex::new(HashMap::new()),
        }
    }

    /// Fold one profiled query's node records into the hub.
    pub fn record(&self, nodes: &[NodeProfile]) {
        if !self.active {
            return;
        }
        let mut ops = self.ops.lock().unwrap_or_else(|e| e.into_inner());
        for node in nodes {
            let kind = node.label.split_whitespace().next().unwrap_or("Unknown");
            let hub = &self.hub;
            let inst = ops.entry(kind.to_string()).or_insert_with(|| {
                let labels = [("op", kind)];
                OpInstruments {
                    executions: hub.counter(
                        "tag_sqlengine_operator_executions_total",
                        "Plan-operator executions by operator kind (profiled queries).",
                        &labels,
                    ),
                    rows_out: hub.counter(
                        "tag_sqlengine_operator_rows_total",
                        "Rows produced by operator kind (profiled queries).",
                        &labels,
                    ),
                    lm_prompts: hub.counter(
                        "tag_sqlengine_operator_lm_prompts_total",
                        "LM prompts issued by operator kind (semantic operators only).",
                        &labels,
                    ),
                    elapsed: hub.histogram(
                        "tag_sqlengine_operator_seconds",
                        "Per-operator wall time including children (profiled queries).",
                        &labels,
                    ),
                }
            });
            inst.executions.inc();
            inst.rows_out.add(node.rows_out as u64);
            inst.lm_prompts.add(node.lm_calls);
            inst.elapsed.observe(node.elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn node(label: &str, rows_out: usize, lm: u64, ms: u64) -> NodeProfile {
        NodeProfile {
            label: label.to_string(),
            depth: 0,
            parent: None,
            rows_in: 0,
            rows_out,
            elapsed: Duration::from_millis(ms),
            lm_calls: lm,
            lm_prompt_tokens: 0,
            lm_completion_tokens: 0,
        }
    }

    #[test]
    fn nodes_fold_into_per_operator_series() {
        let hub = Arc::new(MetricsHub::new());
        let m = ExecMetrics::new(Arc::clone(&hub));
        m.record(&[
            node("TableScan schools", 100, 0, 1),
            node("TableScan races", 50, 0, 1),
            node("SemFilter is_urban", 20, 20, 40),
        ]);
        let text = hub.render();
        assert!(text.contains("tag_sqlengine_operator_executions_total{op=\"TableScan\"} 2"));
        assert!(text.contains("tag_sqlengine_operator_rows_total{op=\"TableScan\"} 150"));
        assert!(text.contains("tag_sqlengine_operator_lm_prompts_total{op=\"SemFilter\"} 20"));
        assert!(text.contains("tag_sqlengine_operator_seconds_count{op=\"SemFilter\"} 1"));
    }

    #[test]
    fn noop_hub_records_nothing() {
        let hub = Arc::new(MetricsHub::noop());
        let m = ExecMetrics::new(Arc::clone(&hub));
        m.record(&[node("TableScan schools", 100, 0, 1)]);
        assert_eq!(hub.render(), "");
        assert!(m.ops.lock().unwrap_or_else(|e| e.into_inner()).is_empty());
    }
}
