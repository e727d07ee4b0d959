//! Lock-free serving metrics: atomic counters and fixed-bucket latency
//! histograms with a text report.
//!
//! Every hot-path touch is a handful of relaxed atomic operations; the
//! report renders percentiles by linear interpolation inside the bucket
//! that crosses the target rank (the usual fixed-bucket estimate).
//! Observations past the 10s bound land in a +inf overflow bucket; its
//! count is surfaced in reports and any percentile whose rank falls in
//! it renders with a `+` suffix (a lower bound, not an estimate).
//!
//! Alongside each cumulative histogram, the registry and the stage
//! table keep [`tag_metrics::WindowedHistogram`] twins that
//! feed rolling 10s/60s views and, through a shared
//! [`tag_metrics::MetricsHub`], the Prometheus exposition surface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tag_metrics::{MetricsHub, WindowSnapshot, WindowedHistogram, WINDOWS};

/// Histogram bucket upper bounds, in seconds. Spans 100µs to 10s, log-ish
/// spacing; the final implicit bucket is +inf.
const BOUNDS: [f64; 16] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// A fixed-bucket latency histogram (thread-safe, relaxed atomics).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BOUNDS.len() + 1],
    count: AtomicU64,
    /// Total observed time in nanoseconds.
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn observe(&self, d: Duration) {
        let secs = d.as_secs_f64();
        let idx = BOUNDS.partition_point(|&b| b < secs);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(
            d.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean observation in seconds (0 when empty).
    pub fn mean_seconds(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9 / n as f64
    }

    /// Observations above the largest finite bound (10s), i.e. the
    /// +inf bucket count. Quantiles that land here are lower bounds.
    pub fn overflow(&self) -> u64 {
        self.buckets[BOUNDS.len()].load(Ordering::Relaxed)
    }

    /// Estimated quantile in seconds (`q` in 0..=1; 0 when empty).
    ///
    /// Degenerate inputs are defanged rather than surfaced: an empty
    /// histogram and a NaN `q` both return 0, out-of-range `q` is
    /// clamped, and the computed rank is clamped to `1..=count` so
    /// `q = 1.0` lands exactly on the last observation instead of
    /// walking past it into the overflow bound. When the rank falls in
    /// the +inf overflow bucket the value (10s) is only a *lower bound*
    /// on the true latency — use
    /// [`Histogram::quantile_seconds_bounded`] to see the flag.
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        self.quantile_seconds_bounded(q).0
    }

    /// Like [`Histogram::quantile_seconds`], but the bool is true when
    /// the rank landed in the +inf overflow bucket: the true quantile
    /// is *at least* the returned value. Reports render such values
    /// with a `+` suffix instead of presenting 10s as an estimate.
    pub fn quantile_seconds_bounded(&self, q: f64) -> (f64, bool) {
        let total = self.count();
        if total == 0 || q.is_nan() {
            return (0.0, false);
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            if seen + in_bucket >= target {
                if i == BOUNDS.len() {
                    // Overflow bucket: no finite upper bound to
                    // interpolate toward; clamp and flag.
                    return (BOUNDS[BOUNDS.len() - 1], true);
                }
                let lo = if i == 0 { 0.0 } else { BOUNDS[i - 1] };
                let hi = BOUNDS[i];
                if in_bucket == 0 {
                    return (hi, false);
                }
                let frac = (target - seen) as f64 / in_bucket as f64;
                return (lo + frac * (hi - lo), false);
            }
            seen += in_bucket;
        }
        (BOUNDS[BOUNDS.len() - 1], true)
    }

    /// `p50/p95/p99` in milliseconds, for reports.
    pub fn percentiles_ms(&self) -> (f64, f64, f64) {
        (
            self.quantile_seconds(0.50) * 1e3,
            self.quantile_seconds(0.95) * 1e3,
            self.quantile_seconds(0.99) * 1e3,
        )
    }

    /// `p50/p95/p99` rendered in milliseconds with a trailing `+` on
    /// any value that is only a lower bound (rank in the overflow
    /// bucket).
    pub fn percentiles_ms_display(&self) -> (String, String, String) {
        let fmt = |q: f64| {
            let (secs, lower_bound) = self.quantile_seconds_bounded(q);
            if lower_bound {
                format!("{:.3}+", secs * 1e3)
            } else {
                format!("{:.3}", secs * 1e3)
            }
        };
        (fmt(0.50), fmt(0.95), fmt(0.99))
    }
}

/// Per-stage aggregates derived from request traces: wall-clock and
/// virtual LM time, call and token counts, bucketed by
/// [`tag_trace::Stage`]. Fed by the server after each traced request;
/// all relaxed atomics, so recording never contends with serving.
///
/// Each stage also owns a [`WindowedHistogram`] of span wall time, so
/// STATS can show *rolling* 10s/60s load next to the lifetime totals.
/// Spans carry their trace id into the histogram as a bucket exemplar,
/// which is how a slow window quantile links back to `TRACE <id>`.
#[derive(Debug)]
pub struct StageMetrics {
    spans: [AtomicU64; 6],
    wall_us: [AtomicU64; 6],
    virtual_us: [AtomicU64; 6],
    lm_calls: [AtomicU64; 6],
    prompt_tokens: [AtomicU64; 6],
    completion_tokens: [AtomicU64; 6],
    windows: [Arc<WindowedHistogram>; 6],
}

impl StageMetrics {
    /// A zeroed table with detached (hub-less) rolling windows.
    pub fn new() -> Self {
        StageMetrics {
            spans: Default::default(),
            wall_us: Default::default(),
            virtual_us: Default::default(),
            lm_calls: Default::default(),
            prompt_tokens: Default::default(),
            completion_tokens: Default::default(),
            windows: std::array::from_fn(|_| Arc::new(WindowedHistogram::new())),
        }
    }

    /// A zeroed table whose rolling windows are registered on `hub` as
    /// `tag_serve_stage_seconds{stage=...}`. On a no-op hub the
    /// windows are inactive, so recording costs one branch per span.
    pub fn with_hub(hub: &MetricsHub) -> Self {
        let mut m = StageMetrics::new();
        m.windows = std::array::from_fn(|i| {
            hub.histogram(
                "tag_serve_stage_seconds",
                "Span wall time by trace stage.",
                &[("stage", tag_trace::Stage::ALL[i].as_str())],
            )
        });
        m
    }

    /// Fold one span into the per-stage totals.
    pub fn record(&self, span: &tag_trace::SpanRecord) {
        let i = span.stage.index();
        let r = Ordering::Relaxed;
        self.spans[i].fetch_add(1, r);
        self.wall_us[i].fetch_add(span.wall.as_micros().min(u128::from(u64::MAX)) as u64, r);
        self.virtual_us[i].fetch_add((span.lm.virtual_seconds * 1e6) as u64, r);
        self.lm_calls[i].fetch_add(span.lm.calls, r);
        self.prompt_tokens[i].fetch_add(span.lm.prompt_tokens, r);
        self.completion_tokens[i].fetch_add(span.lm.completion_tokens, r);
        self.windows[i].observe_with_exemplar(span.wall, span.trace_id);
    }

    /// Rolling view of one stage's span wall time.
    pub fn window(&self, stage: tag_trace::Stage, window_secs: u64) -> WindowSnapshot {
        self.windows[stage.index()].window(window_secs)
    }

    /// The most recent slow exemplar for a stage: `(trace_id, seconds)`
    /// from the slowest populated bucket.
    pub fn exemplar(&self, stage: tag_trace::Stage) -> Option<(u64, f64)> {
        self.windows[stage.index()].slowest_exemplar()
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
        for stage in tag_trace::Stage::ALL {
            let i = stage.index();
            if self.spans[i].load(Ordering::Relaxed) == 0 {
                continue;
            }
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
        self.spans.iter().all(|c| c.load(Ordering::Relaxed) == 0)
    }

    /// One line per seen stage:
    /// `stage: spans=.. wall=..ms virtual=..s lm_calls=.. tok=../..`.
    pub fn report(&self) -> String {
        let mut out = String::from("== stage breakdown (traced requests) ==\n");
        for stage in tag_trace::Stage::ALL {
            let i = stage.index();
            let spans = self.spans[i].load(Ordering::Relaxed);
            if spans == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<8} spans={} wall={:.3}ms virtual={:.3}s lm_calls={} tok={}/{}\n",
                stage.as_str(),
                spans,
                self.wall_us[i].load(Ordering::Relaxed) as f64 / 1e3,
                self.virtual_us[i].load(Ordering::Relaxed) as f64 / 1e6,
                self.lm_calls[i].load(Ordering::Relaxed),
                self.prompt_tokens[i].load(Ordering::Relaxed),
                self.completion_tokens[i].load(Ordering::Relaxed),
            ));
        }
        out
    }
}

impl Default for StageMetrics {
    fn default() -> Self {
        StageMetrics::new()
    }
}

/// All counters the serving runtime exposes.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Requests accepted into the queue.
    pub requests_admitted: AtomicU64,
    /// Requests answered successfully.
    pub requests_ok: AtomicU64,
    /// Requests shed at admission because the queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Requests dropped at dequeue because their deadline had passed.
    pub rejected_deadline: AtomicU64,
    /// Answer-cache hits.
    pub answer_cache_hits: AtomicU64,
    /// Answer-cache misses (request executed).
    pub answer_cache_misses: AtomicU64,
    /// Answer-cache evictions.
    pub answer_cache_evictions: AtomicU64,
    /// Time from admission to dequeue.
    pub queue_wait: Histogram,
    /// Time executing the method (cache misses only).
    pub exec_time: Histogram,
    /// End-to-end time from admission to reply.
    pub total_time: Histogram,
    /// Rolling-window twin of [`MetricsRegistry::queue_wait`].
    pub queue_wait_window: Arc<WindowedHistogram>,
    /// Rolling-window twin of [`MetricsRegistry::exec_time`].
    pub exec_time_window: Arc<WindowedHistogram>,
    /// Rolling-window twin of [`MetricsRegistry::total_time`].
    pub total_time_window: Arc<WindowedHistogram>,
}

impl MetricsRegistry {
    /// A zeroed registry with detached (hub-less) rolling windows.
    pub fn new() -> Self {
        MetricsRegistry {
            requests_admitted: AtomicU64::new(0),
            requests_ok: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            answer_cache_hits: AtomicU64::new(0),
            answer_cache_misses: AtomicU64::new(0),
            answer_cache_evictions: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            exec_time: Histogram::new(),
            total_time: Histogram::new(),
            queue_wait_window: Arc::new(WindowedHistogram::new()),
            exec_time_window: Arc::new(WindowedHistogram::new()),
            total_time_window: Arc::new(WindowedHistogram::new()),
        }
    }

    /// A zeroed registry whose rolling windows are registered on `hub`
    /// as `tag_serve_{queue_wait,exec,total}_seconds`. On a no-op hub
    /// the windows are inactive (one branch per observation).
    pub fn with_hub(hub: &MetricsHub) -> Self {
        let mut m = MetricsRegistry::new();
        m.queue_wait_window = hub.histogram(
            "tag_serve_queue_wait_seconds",
            "Time from admission to dequeue.",
            &[],
        );
        m.exec_time_window = hub.histogram(
            "tag_serve_exec_seconds",
            "Method execution time (answer-cache misses only).",
            &[],
        );
        m.total_time_window = hub.histogram(
            "tag_serve_total_seconds",
            "End-to-end time from admission to reply.",
            &[],
        );
        m
    }

    /// Answer-cache hit rate in 0..=1 (0 when no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let h = self.answer_cache_hits.load(Ordering::Relaxed);
        let m = self.answer_cache_misses.load(Ordering::Relaxed);
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Render the standard text report. Percentile values carry a `+`
    /// suffix when they are only lower bounds (rank in the +inf
    /// overflow bucket); each histogram line surfaces its overflow
    /// count so overload is visible instead of silently clamped.
    pub fn report(&self) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::new();
        out.push_str("== serving metrics ==\n");
        out.push_str(&format!(
            "requests: admitted={} ok={} shed_queue_full={} shed_deadline={}\n",
            load(&self.requests_admitted),
            load(&self.requests_ok),
            load(&self.rejected_queue_full),
            load(&self.rejected_deadline),
        ));
        out.push_str(&format!(
            "answer cache: hits={} misses={} evictions={} hit_rate={:.1}%\n",
            load(&self.answer_cache_hits),
            load(&self.answer_cache_misses),
            load(&self.answer_cache_evictions),
            self.cache_hit_rate() * 100.0,
        ));
        for (name, hist) in [
            ("queue wait ms", &self.queue_wait),
            ("exec time ms", &self.exec_time),
            ("total time ms", &self.total_time),
        ] {
            let (p50, p95, p99) = hist.percentiles_ms_display();
            out.push_str(&format!(
                "{name}: mean={:.3} p50={p50} p95={p95} p99={p99} overflow={}\n",
                hist.mean_seconds() * 1e3,
                hist.overflow(),
            ));
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_monotone() {
        let h = Histogram::new();
        for ms in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            h.observe(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_seconds(0.5);
        let p95 = h.quantile_seconds(0.95);
        let p99 = h.quantile_seconds(0.99);
        assert!(p50 > 0.0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(h.mean_seconds() > 0.0);
    }

    #[test]
    fn overflow_bucket_catches_outliers() {
        let h = Histogram::new();
        h.observe(Duration::from_secs(30));
        assert_eq!(h.count(), 1);
        assert!(h.quantile_seconds(0.5) >= 9.99);
        assert_eq!(h.overflow(), 1);
        let (secs, lower_bound) = h.quantile_seconds_bounded(0.5);
        assert_eq!(secs, 10.0);
        assert!(lower_bound, "overflow quantile must be flagged");
    }

    #[test]
    fn overflow_surfaces_in_report_with_lower_bound_marker() {
        let m = MetricsRegistry::new();
        for _ in 0..9 {
            m.total_time.observe(Duration::from_millis(5));
        }
        // Overload: most observations past the 10s bound.
        for _ in 0..20 {
            m.total_time.observe(Duration::from_secs(60));
        }
        let r = m.report();
        assert!(r.contains("overflow=20"), "{r}");
        // p50 rank lands in the +inf bucket → lower-bound marker.
        assert!(r.contains("p50=10000.000+"), "{r}");
        // Unaffected histograms report overflow=0 without markers.
        assert!(r.contains("queue wait ms: mean=0.000 p50=0.000 p95=0.000 p99=0.000 overflow=0"));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_seconds(0.99), 0.0);
        assert_eq!(h.mean_seconds(), 0.0);
    }

    #[test]
    fn quantile_edge_cases_never_panic_or_nan() {
        let h = Histogram::new();
        // Empty histogram: every q, including pathological ones, is 0.
        for q in [0.0, 0.5, 1.0, 2.0, -1.0, f64::NAN] {
            let v = h.quantile_seconds(q);
            assert_eq!(v, 0.0, "empty histogram q={q}");
        }
        for ms in [1u64, 2, 3] {
            h.observe(Duration::from_millis(ms));
        }
        // q = 1.0 must land on the last observation's bucket, not the
        // +inf overflow bound.
        let p100 = h.quantile_seconds(1.0);
        assert!(p100 > 0.0 && p100 <= 0.005, "{p100}");
        // NaN q is defanged to 0; out-of-range q is clamped and finite.
        assert_eq!(h.quantile_seconds(f64::NAN), 0.0);
        for q in [-0.5, 0.0, 1.5, 100.0] {
            let v = h.quantile_seconds(q);
            assert!(v.is_finite() && v >= 0.0, "q={q} -> {v}");
        }
        assert!(h.quantile_seconds(0.0) <= h.quantile_seconds(1.0));
    }

    #[test]
    fn stage_metrics_bucket_by_stage() {
        use tag_trace::{LmUsage, SpanRecord, Stage};
        let s = StageMetrics::new();
        assert!(s.is_empty());
        s.record(&SpanRecord {
            trace_id: 1,
            id: 1,
            parent: None,
            stage: Stage::Syn,
            label: "text2sql".into(),
            start_us: 0,
            wall: Duration::from_millis(2),
            lm: LmUsage {
                calls: 1,
                rounds: 1,
                prompt_tokens: 100,
                completion_tokens: 10,
                virtual_seconds: 0.5,
                ..LmUsage::default()
            },
            annotations: vec![],
        });
        assert!(!s.is_empty());
        let r = s.report();
        assert!(r.contains("syn"), "{r}");
        assert!(r.contains("lm_calls=1"), "{r}");
        assert!(r.contains("tok=100/10"), "{r}");
        assert!(!r.contains("gen "), "unseen stages are omitted: {r}");
    }

    #[test]
    fn stage_windows_roll_and_carry_exemplars() {
        use tag_trace::{LmUsage, SpanRecord, Stage};
        let s = StageMetrics::new();
        let span = |id: u64, ms: u64| SpanRecord {
            trace_id: id,
            id: 1,
            parent: None,
            stage: Stage::Exec,
            label: "exec".into(),
            start_us: 0,
            wall: Duration::from_millis(ms),
            lm: LmUsage::default(),
            annotations: vec![],
        };
        s.record(&span(7, 2));
        s.record(&span(9, 400));
        let w = s.window(Stage::Exec, 10);
        assert_eq!(w.count(), 2);
        assert_eq!(s.exemplar(Stage::Exec), Some((9, 0.4)));
        let r = s.windows_report();
        assert!(r.contains("== stage windows (rolling) =="), "{r}");
        assert!(r.contains("exec"), "{r}");
        assert!(r.contains("10s: n=2"), "{r}");
        assert!(r.contains("60s: n=2"), "{r}");
        assert!(r.contains("exemplar trace=9"), "{r}");
    }

    #[test]
    fn hub_backed_registry_feeds_exposition() {
        let hub = MetricsHub::new();
        let m = MetricsRegistry::with_hub(&hub);
        m.total_time_window.observe(Duration::from_millis(3));
        let text = hub.render();
        assert!(text.contains("tag_serve_total_seconds_count 1"), "{text}");
        assert!(text.contains("tag_serve_total_window_seconds"), "{text}");
    }

    #[test]
    fn noop_hub_registry_windows_are_inactive() {
        let hub = MetricsHub::noop();
        let m = MetricsRegistry::with_hub(&hub);
        m.total_time_window.observe(Duration::from_millis(3));
        assert_eq!(m.total_time_window.count(), 0);
        let s = StageMetrics::with_hub(&hub);
        assert!(!s.windows[0].is_active());
    }

    #[test]
    fn report_renders_all_sections() {
        let m = MetricsRegistry::new();
        m.requests_admitted.fetch_add(3, Ordering::Relaxed);
        m.requests_ok.fetch_add(2, Ordering::Relaxed);
        m.answer_cache_hits.fetch_add(1, Ordering::Relaxed);
        m.answer_cache_misses.fetch_add(1, Ordering::Relaxed);
        m.queue_wait.observe(Duration::from_micros(120));
        m.exec_time.observe(Duration::from_millis(4));
        m.total_time.observe(Duration::from_millis(5));
        let r = m.report();
        assert!(r.contains("admitted=3"));
        assert!(r.contains("hit_rate=50.0%"));
        assert!(r.contains("queue wait ms"));
        assert!(r.contains("p99"));
    }
}
