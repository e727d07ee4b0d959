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
//! Each traced request's spans are folded once ([`SpanMetrics`]): per
//! stage, and per operator kind for every span that carries rows or LM
//! usage. That operator table is the only per-operator LM ledger: the
//! semantic engine records its work on the span of the operator that
//! asked for it, and keeps no per-operator state of its own.

use crate::cache::CacheStats;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tag_metrics::{Counter, MetricsHub, Quantile, WindowedHistogram, WINDOWS};
use tag_trace::{LmUsage, SpanRecord};

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

/// Aggregates folded from traced requests' spans, one pass per request
/// ([`SpanMetrics::record`]):
///
/// - per [`tag_trace::Stage`]: span self time in one [`WindowedHistogram`]
///   (its count and sum are the table's `spans=` and `wall=`, its
///   per-second slots the rolling 10s/60s view, its exemplars the trace
///   ids a slow window quantile links back to), and the summed
///   [`LmUsage`];
/// - per operator kind, the label's first word ("TableScan schools" →
///   `TableScan`), for every span that carries rows (a plan node) or LM
///   usage (a semantic operator, `text2sql`, an answer): spans, rows out,
///   wall including nested spans and summed [`LmUsage`], also fed to the
///   hub's `tag_sqlengine_operator_*{op=..}` series.
///
/// Both tables render in STATS whether or not the hub is live.
#[derive(Debug)]
pub struct SpanMetrics {
    hub: Arc<MetricsHub>,
    windows: [Arc<WindowedHistogram>; 6],
    tables: Mutex<Tables>,
}

#[derive(Debug, Default)]
struct Tables {
    /// By [`tag_trace::Stage::index`].
    stages: [LmUsage; 6],
    ops: BTreeMap<String, OpRow>,
}

/// The per-kind counters `tag_sqlengine_operator_{name}_total{op=..}`
/// and their help, in the order [`OpRow::add`] feeds them.
const OP_COUNTERS: [(&str, &str); 4] = [
    ("executions", "Operator spans"),
    ("rows", "Rows produced"),
    ("lm_calls", "Prompts sent to the LM"),
    ("lm_cache_hits", "Prompt-cache hits"),
];

/// One operator kind's totals and its hub series. The histogram keeps
/// recording on the null hub (its count and sum are the row's spans and
/// wall); the counters are inert there.
#[derive(Debug)]
struct OpRow {
    rows: u64,
    lm: LmUsage,
    counters: [Arc<Counter>; 4],
    elapsed: Arc<WindowedHistogram>,
}

impl OpRow {
    fn new(hub: &MetricsHub, kind: &str) -> Self {
        let labels = [("op", kind)];
        OpRow {
            rows: 0,
            lm: LmUsage::default(),
            counters: OP_COUNTERS.map(|(name, help)| {
                let name = format!("tag_sqlengine_operator_{name}_total");
                hub.counter(
                    &name,
                    &format!("{help} by operator kind (traced requests)."),
                    &labels,
                )
            }),
            elapsed: adopt(
                hub,
                "tag_sqlengine_operator_seconds",
                "Per-operator wall time including its inputs (traced requests).",
                &labels,
            ),
        }
    }

    fn add(&mut self, span: &SpanRecord) {
        let rows = span.rows.unwrap_or(0);
        self.rows += rows;
        self.lm.add(&span.lm);
        let counts = [1, rows, span.lm.calls, span.lm.cache_hits];
        for (counter, n) in self.counters.iter().zip(counts) {
            counter.add(n);
        }
        self.elapsed.observe(span.wall);
    }
}

impl SpanMetrics {
    /// Empty tables whose stage histograms are adopted by `hub` as
    /// `tag_serve_stage_seconds{stage=...}`.
    pub fn new(hub: &Arc<MetricsHub>) -> Self {
        SpanMetrics {
            hub: Arc::clone(hub),
            windows: std::array::from_fn(|i| {
                adopt(
                    hub,
                    "tag_serve_stage_seconds",
                    "Span self time (wall less nested spans) by trace stage.",
                    &[("stage", tag_trace::Stage::ALL[i].as_str())],
                )
            }),
            tables: Mutex::new(Tables::default()),
        }
    }

    /// Fold one request's spans into both tables. A span counts its self
    /// time ([`tag_trace::self_times`]) in its stage, so time spent in
    /// nested spans is counted once, at the innermost, and a request's
    /// stage walls sum to its request span. A new operator kind
    /// registers its series while the tables are locked (declared order
    /// `serve.metrics.spans < metrics.hub.families`).
    pub fn record(&self, spans: &[SpanRecord]) {
        let own = tag_trace::self_times(spans);
        let mut tables = self.tables.lock();
        for (span, own) in spans.iter().zip(own) {
            let i = span.stage.index();
            self.windows[i].observe_with_exemplar(own, span.trace_id);
            tables.stages[i].add(&span.lm);
            if span.rows.is_none() && span.lm.is_zero() {
                continue;
            }
            let kind = span.label.split_whitespace().next().unwrap_or("Unknown");
            if !tables.ops.contains_key(kind) {
                tables
                    .ops
                    .insert(kind.to_owned(), OpRow::new(&self.hub, kind));
            }
            if let Some(row) = tables.ops.get_mut(kind) {
                row.add(span);
            }
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
        let tables = self.tables.lock();
        let mut out = String::from("== stage breakdown (traced requests) ==\n");
        for stage in self.seen() {
            let i = stage.index();
            let lm = &tables.stages[i];
            out.push_str(&format!(
                "{:<8} spans={} wall={:.3}ms virtual={:.3}s lm_calls={} tok={}/{}\n",
                stage.as_str(),
                self.windows[i].count(),
                self.windows[i].sum_seconds() * 1e3,
                lm.virtual_seconds,
                lm.calls,
                lm.prompt_tokens,
                lm.completion_tokens,
            ));
        }
        out
    }

    /// One line per operator kind, in name order: `kind: spans=..
    /// rows=.. wall=..ms lm_calls=.. rounds=.. cache_hits=.. tok=../..`
    /// (wall includes nested spans).
    pub fn operators_report(&self) -> String {
        let tables = self.tables.lock();
        let mut out = String::from("== operators (traced requests) ==\n");
        for (kind, row) in &tables.ops {
            out.push_str(&format!(
                "{kind}: spans={} rows={} wall={:.3}ms lm_calls={} rounds={} cache_hits={} tok={}/{}\n",
                row.elapsed.count(),
                row.rows,
                row.elapsed.sum_seconds() * 1e3,
                row.lm.calls,
                row.lm.rounds,
                row.lm.cache_hits,
                row.lm.prompt_tokens,
                row.lm.completion_tokens,
            ));
        }
        out
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
    use tag_trace::Stage;

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

    fn sem(label: &str, stage: Stage, calls: u64, cache_hits: u64) -> SpanRecord {
        let lm = LmUsage {
            calls,
            rounds: 1,
            cache_hits,
            prompt_tokens: 10 * calls,
            completion_tokens: calls,
            virtual_seconds: 0.25,
        };
        SpanRecord {
            label: label.into(),
            ..span(1, stage, Duration::from_millis(5), lm)
        }
    }

    #[test]
    fn node_spans_fold_into_per_operator_series() {
        let hub = Arc::new(MetricsHub::new());
        let m = SpanMetrics::new(&hub);
        m.record(&[
            node("TableScan schools", 100, 1),
            node("TableScan races", 50, 1),
            node("SemFilter City [in region Bay Area]", 20, 40),
            // Neither rows nor LM usage: not an operator.
            span(1, Stage::Exec, Duration::from_millis(3), LmUsage::default()),
        ]);
        m.record(&[
            node("SemFilter City [eu]", 5, 2),
            sem("sem_filter", Stage::Exec, 3, 1),
            sem("text2sql", Stage::Syn, 1, 0),
        ]);
        let text = hub.render();
        for line in [
            "tag_sqlengine_operator_executions_total{op=\"TableScan\"} 2",
            "tag_sqlengine_operator_rows_total{op=\"TableScan\"} 150",
            "tag_sqlengine_operator_executions_total{op=\"SemFilter\"} 2",
            "tag_sqlengine_operator_rows_total{op=\"SemFilter\"} 25",
            "tag_sqlengine_operator_seconds_count{op=\"SemFilter\"} 2",
            "tag_sqlengine_operator_lm_calls_total{op=\"sem_filter\"} 3",
            "tag_sqlengine_operator_lm_cache_hits_total{op=\"sem_filter\"} 1",
            "tag_sqlengine_operator_lm_calls_total{op=\"text2sql\"} 1",
            "tag_sqlengine_operator_lm_calls_total{op=\"TableScan\"} 0",
        ] {
            assert!(text.contains(line), "missing {line}: {text}");
        }
        assert!(!text.contains("op=\"exec\""), "{text}");
        let r = m.operators_report();
        assert!(
            r.contains(
                "sem_filter: spans=1 rows=0 wall=5.000ms lm_calls=3 rounds=1 cache_hits=1 tok=30/3"
            ),
            "{r}"
        );
        assert!(
            r.contains("TableScan: spans=2 rows=150 wall=2.000ms lm_calls=0"),
            "{r}"
        );
        assert!(!r.contains("exec:"), "{r}");

        // The null hub renders nothing; the table still counts.
        let noop = SpanMetrics::new(&Arc::new(MetricsHub::noop()));
        noop.record(&[node("TableScan schools", 100, 1)]);
        assert!(noop.hub.render().is_empty());
        assert!(noop
            .operators_report()
            .contains("TableScan: spans=1 rows=100"));
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
        let s = SpanMetrics::new(&Arc::new(MetricsHub::new()));
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
        let s = SpanMetrics::new(&Arc::new(MetricsHub::new()));
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
        let hub = Arc::new(MetricsHub::noop());
        let m = MetricsRegistry::new(&hub);
        m.total_time.observe(Duration::from_millis(3));
        assert_eq!(m.total_time.count(), 1);
        let s = SpanMetrics::new(&hub);
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
