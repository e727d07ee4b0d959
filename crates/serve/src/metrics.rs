//! Serving metrics: request-outcome counters plus the STATS text
//! renderer over [`tag_metrics`] instruments.
//!
//! Every latency is one [`WindowedHistogram`], built here and adopted
//! by the server's [`MetricsHub`]. On an enabled hub it also feeds the
//! Prometheus exposition; on the null hub it is left unregistered but
//! keeps recording, so STATS shows the same latencies either way. A
//! percentile is the upper bound of the bucket that crosses its rank,
//! the same estimate METRICS and the rolling-window lines use.
//! Observations past the 10s bound land in a +inf overflow bucket; its
//! count is surfaced in reports and any percentile whose rank falls in
//! it renders with a `+` suffix (a lower bound, not an estimate).
//!
//! Answer-cache traffic is not counted here: [`crate::AnswerCache`]
//! keeps per-shard counters and the report reads them.
//!
//! Request spans are folded twice after each traced request: per stage
//! ([`StageMetrics`]) and, for the plan-operator spans, per operator
//! kind ([`OperatorMetrics`]).

use crate::cache::CacheStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tag_metrics::{Counter, MetricsHub, Quantile, WindowedHistogram, WINDOWS};

/// A fresh histogram registered on `hub` (or left unregistered, still
/// recording, when `hub` is the null registry).
fn adopt(
    hub: &MetricsHub,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
) -> Arc<WindowedHistogram> {
    hub.adopt_histogram(name, help, labels, Arc::new(WindowedHistogram::new()))
}

/// A quantile in milliseconds to three places, `+` when a lower bound.
fn ms(q: Quantile) -> String {
    let plus = if q.lower_bound { "+" } else { "" };
    format!("{:.3}{plus}", q.seconds * 1e3)
}

/// Per-stage aggregates derived from request traces: wall-clock and
/// virtual LM time, call and token counts, bucketed by
/// [`tag_trace::Stage`]. Fed by the server after each traced request;
/// all relaxed atomics, so recording never contends with serving.
///
/// Span self time (wall less nested spans') lives in one
/// [`WindowedHistogram`] per stage: its cumulative count and sum are
/// the table's `spans=` and `wall=`, and
/// its per-second slots give the rolling 10s/60s view. Spans carry
/// their trace id into the histogram as a bucket exemplar, which is how
/// a slow window quantile links back to `TRACE <id>`.
#[derive(Debug)]
pub struct StageMetrics {
    virtual_us: [AtomicU64; 6],
    lm_calls: [AtomicU64; 6],
    prompt_tokens: [AtomicU64; 6],
    completion_tokens: [AtomicU64; 6],
    windows: [Arc<WindowedHistogram>; 6],
}

impl StageMetrics {
    /// A zeroed table whose span histograms are adopted by `hub` as
    /// `tag_serve_stage_seconds{stage=...}`.
    pub fn new(hub: &MetricsHub) -> Self {
        StageMetrics {
            virtual_us: Default::default(),
            lm_calls: Default::default(),
            prompt_tokens: Default::default(),
            completion_tokens: Default::default(),
            windows: std::array::from_fn(|i| {
                adopt(
                    hub,
                    "tag_serve_stage_seconds",
                    "Span self time (wall less nested spans) by trace stage.",
                    &[("stage", tag_trace::Stage::ALL[i].as_str())],
                )
            }),
        }
    }

    /// Fold one request's spans into the per-stage totals. A span
    /// counts its self time ([`tag_trace::self_times`]), so time spent
    /// in nested spans is counted once, at the innermost, and a
    /// request's stage walls sum to its request span.
    pub fn record(&self, spans: &[tag_trace::SpanRecord]) {
        let r = Ordering::Relaxed;
        for (span, own) in spans.iter().zip(tag_trace::self_times(spans)) {
            let i = span.stage.index();
            self.virtual_us[i].fetch_add((span.lm.virtual_seconds * 1e6) as u64, r);
            self.lm_calls[i].fetch_add(span.lm.calls, r);
            self.prompt_tokens[i].fetch_add(span.lm.prompt_tokens, r);
            self.completion_tokens[i].fetch_add(span.lm.completion_tokens, r);
            self.windows[i].observe_with_exemplar(own, span.trace_id);
        }
    }

    /// The stages with at least one recorded span.
    fn seen(&self) -> impl Iterator<Item = tag_trace::Stage> + '_ {
        tag_trace::Stage::ALL
            .into_iter()
            .filter(|s| self.windows[s.index()].count() > 0)
    }

    /// One line per seen stage with rolling 10s/60s counts, rates and
    /// quantiles, plus the slowest resident exemplar trace id:
    ///
    /// ```text
    /// == stage windows (rolling) ==
    /// request  10s: n=4 rate=0.4/s p50=2.5ms p95=10.0ms p99=10.0ms | 60s: ... | exemplar trace=17 (9.8ms)
    /// ```
    pub fn windows_report(&self) -> String {
        let mut out = String::from("== stage windows (rolling) ==\n");
        for stage in self.seen() {
            let i = stage.index();
            out.push_str(&format!("{:<8}", stage.as_str()));
            for (wi, w) in WINDOWS.iter().enumerate() {
                let snap = self.windows[i].window(*w);
                if wi > 0 {
                    out.push_str(" |");
                }
                out.push_str(&format!(
                    " {w}s: n={} rate={:.1}/s p50={}ms p95={}ms p99={}ms",
                    snap.count(),
                    snap.rate(),
                    snap.quantile(0.50).display_ms(),
                    snap.quantile(0.95).display_ms(),
                    snap.quantile(0.99).display_ms(),
                ));
            }
            if let Some((id, secs)) = self.windows[i].slowest_exemplar() {
                out.push_str(&format!(" | exemplar trace={id} ({:.1}ms)", secs * 1e3));
            }
            out.push('\n');
        }
        out
    }

    /// True when no span has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.seen().next().is_none()
    }

    /// One line per seen stage:
    /// `stage: spans=.. wall=..ms virtual=..s lm_calls=.. tok=../..`.
    pub fn report(&self) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::from("== stage breakdown (traced requests) ==\n");
        for stage in self.seen() {
            let i = stage.index();
            out.push_str(&format!(
                "{:<8} spans={} wall={:.3}ms virtual={:.3}s lm_calls={} tok={}/{}\n",
                stage.as_str(),
                self.windows[i].count(),
                self.windows[i].sum_seconds() * 1e3,
                load(&self.virtual_us[i]) as f64 / 1e6,
                load(&self.lm_calls[i]),
                load(&self.prompt_tokens[i]),
                load(&self.completion_tokens[i]),
            ));
        }
        out
    }
}

/// One operator kind's instruments.
struct OpInstruments {
    executions: Arc<Counter>,
    rows_out: Arc<Counter>,
    elapsed: Arc<WindowedHistogram>,
}

/// `tag_sqlengine_operator_{executions_total,rows_total,seconds}{op=..}`,
/// fed from traced requests' plan-node spans (the spans that carry rows),
/// keyed on the label's first word ("TableScan schools" → `TableScan`)
/// so cardinality stays at the operator vocabulary. LM usage is counted
/// per stage ([`StageMetrics`]): it sits on the innermost span of the
/// work that caused it, not always a node span. The null hub records
/// nothing.
pub(crate) struct OperatorMetrics {
    hub: Arc<MetricsHub>,
    ops: Mutex<HashMap<String, OpInstruments>>,
}

impl OperatorMetrics {
    /// Instruments registered on `hub` as operator kinds appear.
    pub(crate) fn new(hub: &Arc<MetricsHub>) -> Self {
        OperatorMetrics {
            hub: Arc::clone(hub),
            ops: Mutex::new(HashMap::new()),
        }
    }

    /// Fold one request's spans into the per-operator series.
    pub(crate) fn record(&self, spans: &[tag_trace::SpanRecord]) {
        if !self.hub.is_enabled() {
            return;
        }
        let mut ops = self.ops.lock();
        for span in spans {
            let Some(rows) = span.rows else { continue };
            let kind = span.label.split_whitespace().next().unwrap_or("Unknown");
            if !ops.contains_key(kind) {
                let labels = [("op", kind)];
                let inst = OpInstruments {
                    executions: self.hub.counter(
                        "tag_sqlengine_operator_executions_total",
                        "Plan-operator executions by operator kind (traced requests).",
                        &labels,
                    ),
                    rows_out: self.hub.counter(
                        "tag_sqlengine_operator_rows_total",
                        "Rows produced by operator kind (traced requests).",
                        &labels,
                    ),
                    elapsed: self.hub.histogram(
                        "tag_sqlengine_operator_seconds",
                        "Per-operator wall time including its inputs (traced requests).",
                        &labels,
                    ),
                };
                ops.insert(kind.to_owned(), inst);
            }
            let Some(inst) = ops.get(kind) else { continue };
            inst.executions.inc();
            inst.rows_out.add(rows);
            inst.elapsed.observe(span.wall);
        }
    }
}

/// The serving runtime's request-outcome counters and latency
/// histograms.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Requests answered from the cache, given a slot, or let wait for
    /// one.
    pub requests_admitted: AtomicU64,
    /// Requests answered successfully.
    pub requests_ok: AtomicU64,
    /// Executed requests whose answer is an `Answer::Error`.
    pub requests_error: AtomicU64,
    /// Requests shed at admission: every slot held and the line waiting
    /// for one full.
    pub rejected_queue_full: AtomicU64,
    /// Requests dropped at their slot grant because their deadline had
    /// passed while they waited.
    pub rejected_deadline: AtomicU64,
    /// Time from arrival until a miss held an execution slot, waiting
    /// for one included (`tag_serve_queue_wait_seconds`).
    pub queue_wait: Arc<WindowedHistogram>,
    /// Time executing the method, cache misses only
    /// (`tag_serve_exec_seconds`).
    pub exec_time: Arc<WindowedHistogram>,
    /// End-to-end time from admission to reply
    /// (`tag_serve_total_seconds`).
    pub total_time: Arc<WindowedHistogram>,
}

impl MetricsRegistry {
    /// A zeroed registry whose histograms are adopted by `hub` as
    /// `tag_serve_{queue_wait,exec,total}_seconds`.
    pub fn new(hub: &MetricsHub) -> Self {
        MetricsRegistry {
            requests_admitted: AtomicU64::new(0),
            requests_ok: AtomicU64::new(0),
            requests_error: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            queue_wait: adopt(
                hub,
                "tag_serve_queue_wait_seconds",
                "Time from arrival until a cache miss held an execution slot.",
                &[],
            ),
            exec_time: adopt(
                hub,
                "tag_serve_exec_seconds",
                "Method execution time (answer-cache misses only).",
                &[],
            ),
            total_time: adopt(
                hub,
                "tag_serve_total_seconds",
                "End-to-end time from admission to reply.",
                &[],
            ),
        }
    }

    /// Render the standard text report, with the answer-cache line read
    /// from `cache`. Percentile values carry a `+` suffix when they are
    /// only lower bounds (rank in the +inf overflow bucket); each
    /// histogram line surfaces its overflow count so overload is
    /// visible instead of silently clamped.
    pub fn report(&self, cache: &CacheStats) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::new();
        out.push_str("== serving metrics ==\n");
        out.push_str(&format!(
            "requests: admitted={} ok={} error={} shed_queue_full={} shed_deadline={}\n",
            load(&self.requests_admitted),
            load(&self.requests_ok),
            load(&self.requests_error),
            load(&self.rejected_queue_full),
            load(&self.rejected_deadline),
        ));
        let lookups = cache.hits + cache.misses;
        out.push_str(&format!(
            "answer cache: hits={} misses={} evictions={} hit_rate={:.1}%\n",
            cache.hits,
            cache.misses,
            cache.evictions,
            if lookups == 0 {
                0.0
            } else {
                cache.hits as f64 / lookups as f64 * 100.0
            },
        ));
        for (name, hist) in [
            ("queue wait ms", &self.queue_wait),
            ("exec time ms", &self.exec_time),
            ("total time ms", &self.total_time),
        ] {
            let n = hist.count();
            let mean = if n == 0 {
                0.0
            } else {
                hist.sum_seconds() / n as f64
            };
            out.push_str(&format!(
                "{name}: mean={:.3} p50={} p95={} p99={} overflow={}\n",
                mean * 1e3,
                ms(hist.quantile(0.50)),
                ms(hist.quantile(0.95)),
                ms(hist.quantile(0.99)),
                hist.overflow(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tag_trace::{LmUsage, SpanRecord, Stage};

    fn span(trace_id: u64, stage: Stage, wall: Duration, lm: LmUsage) -> SpanRecord {
        SpanRecord {
            trace_id,
            id: 1,
            parent: None,
            stage,
            label: stage.as_str().into(),
            start_us: 0,
            wall,
            lm,
            rows: None,
            annotations: vec![],
        }
    }

    fn node(label: &str, rows: u64, ms: u64) -> SpanRecord {
        SpanRecord {
            label: label.into(),
            rows: Some(rows),
            ..span(
                1,
                Stage::Exec,
                Duration::from_millis(ms),
                LmUsage::default(),
            )
        }
    }

    #[test]
    fn node_spans_fold_into_per_operator_series() {
        let hub = Arc::new(MetricsHub::new());
        let m = OperatorMetrics::new(&hub);
        m.record(&[
            node("TableScan schools", 100, 1),
            node("TableScan races", 50, 1),
            node("SemFilter City [in region Bay Area]", 20, 40),
            // Not a plan node: no rows, not folded.
            span(1, Stage::Exec, Duration::from_millis(3), LmUsage::default()),
        ]);
        m.record(&[node("SemFilter City [eu]", 5, 2)]);
        let text = hub.render();
        for line in [
            "tag_sqlengine_operator_executions_total{op=\"TableScan\"} 2",
            "tag_sqlengine_operator_rows_total{op=\"TableScan\"} 150",
            "tag_sqlengine_operator_executions_total{op=\"SemFilter\"} 2",
            "tag_sqlengine_operator_rows_total{op=\"SemFilter\"} 25",
            "tag_sqlengine_operator_seconds_count{op=\"SemFilter\"} 2",
        ] {
            assert!(text.contains(line), "missing {line}: {text}");
        }
        assert!(!text.contains("op=\"exec\""), "{text}");
        assert!(!text.contains("lm_prompts"), "{text}");

        let noop = OperatorMetrics::new(&Arc::new(MetricsHub::noop()));
        noop.record(&[node("TableScan schools", 100, 1)]);
        assert!(noop.ops.lock().is_empty() && noop.hub.render().is_empty());
    }

    #[test]
    fn overflow_surfaces_in_report_with_lower_bound_marker() {
        let m = MetricsRegistry::new(&MetricsHub::new());
        for _ in 0..9 {
            m.total_time.observe(Duration::from_millis(5));
        }
        // Overload: most observations past the 10s bound.
        for _ in 0..20 {
            m.total_time.observe(Duration::from_secs(60));
        }
        let r = m.report(&CacheStats::default());
        assert!(r.contains("overflow=20"), "{r}");
        // p50 rank lands in the +inf bucket → lower-bound marker.
        assert!(r.contains("p50=10000.000+"), "{r}");
        // Unaffected histograms report overflow=0 without markers.
        assert!(r.contains("queue wait ms: mean=0.000 p50=0.000 p95=0.000 p99=0.000 overflow=0"));
    }

    #[test]
    fn stage_metrics_bucket_by_stage() {
        let s = StageMetrics::new(&MetricsHub::new());
        assert!(s.is_empty());
        let lm = LmUsage {
            calls: 1,
            rounds: 1,
            prompt_tokens: 100,
            completion_tokens: 10,
            virtual_seconds: 0.5,
            ..LmUsage::default()
        };
        s.record(&[span(1, Stage::Syn, Duration::from_millis(2), lm)]);
        assert!(!s.is_empty());
        let r = s.report();
        assert!(
            r.contains("syn      spans=1 wall=2.000ms virtual=0.500s"),
            "{r}"
        );
        assert!(r.contains("lm_calls=1"), "{r}");
        assert!(r.contains("tok=100/10"), "{r}");
        assert!(!r.contains("gen "), "unseen stages are omitted: {r}");
    }

    #[test]
    fn stage_windows_roll_and_carry_exemplars() {
        let s = StageMetrics::new(&MetricsHub::new());
        let exec = |id, ms| {
            span(
                id,
                Stage::Exec,
                Duration::from_millis(ms),
                LmUsage::default(),
            )
        };
        s.record(&[exec(7, 2)]);
        s.record(&[exec(9, 400)]);
        let r = s.windows_report();
        assert!(r.contains("== stage windows (rolling) =="), "{r}");
        assert!(r.contains("exec"), "{r}");
        assert!(r.contains("10s: n=2"), "{r}");
        assert!(r.contains("60s: n=2"), "{r}");
        assert!(r.contains("exemplar trace=9 (400.0ms)"), "{r}");
    }

    #[test]
    fn hub_backed_registry_feeds_exposition() {
        let hub = MetricsHub::new();
        let m = MetricsRegistry::new(&hub);
        m.total_time.observe(Duration::from_millis(3));
        let text = hub.render();
        assert!(text.contains("tag_serve_total_seconds_count 1"), "{text}");
        assert!(text.contains("tag_serve_total_window_seconds"), "{text}");
    }

    #[test]
    fn noop_hub_registry_and_stage_histograms_still_count() {
        let hub = MetricsHub::noop();
        let m = MetricsRegistry::new(&hub);
        m.total_time.observe(Duration::from_millis(3));
        assert_eq!(m.total_time.count(), 1);
        let s = StageMetrics::new(&hub);
        s.record(&[span(
            1,
            Stage::Exec,
            Duration::from_millis(3),
            LmUsage::default(),
        )]);
        assert!(!s.is_empty());
        assert!(s.report().contains("spans=1"));
        assert_eq!(hub.render(), "");
    }

    #[test]
    fn report_renders_all_sections() {
        let m = MetricsRegistry::new(&MetricsHub::new());
        m.requests_admitted.fetch_add(3, Ordering::Relaxed);
        m.requests_ok.fetch_add(2, Ordering::Relaxed);
        m.requests_error.fetch_add(1, Ordering::Relaxed);
        m.queue_wait.observe(Duration::from_micros(120));
        m.exec_time.observe(Duration::from_millis(4));
        m.total_time.observe(Duration::from_millis(5));
        let cache = CacheStats {
            hits: 1,
            misses: 1,
            ..CacheStats::default()
        };
        let r = m.report(&cache);
        assert!(r.contains("admitted=3 ok=2 error=1"), "{r}");
        assert!(r.contains("hit_rate=50.0%"), "{r}");
        assert!(r.contains("queue wait ms"));
        // Bucket upper bounds: 4ms and 5ms both fall in (2.5ms, 5ms].
        assert!(r.contains("exec time ms: mean=4.000 p50=5.000"), "{r}");
        assert!(r.contains("p99"));
    }
}
