//! The instrument registry shared across the workspace.
//!
//! A [`MetricsHub`] hands out named counters/gauges/histograms (idempotent
//! per name+labels, so callers can re-request instead of threading Arcs),
//! adopts pre-built histograms (the serve latency and stage histograms
//! are built by `tag-serve` and registered here), and runs scrape-time *collectors* — closures
//! that sample subsystems which already keep their own counters (plan
//! cache, semantic-op stats, batch rounds) without adding hot-path work.
//!
//! [`MetricsHub::noop`] is the null registry: it hands out inactive
//! instruments and renders nothing. The obs-bench overhead gate replays
//! TAG-Bench against both hubs and fails CI when the active hub costs
//! more than the threshold.

use crate::clock::Clock;
use crate::expo;
use crate::instruments::{Counter, Gauge};
use crate::window::WindowedHistogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    /// Monotone count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl InstrumentKind {
    pub(crate) fn type_str(&self) -> &'static str {
        match self {
            InstrumentKind::Counter => "counter",
            InstrumentKind::Gauge => "gauge",
            InstrumentKind::Histogram => "histogram",
        }
    }
}

/// One scrape-time sample produced by a collector.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric family name (`tag_<crate>_<subsystem>_<name>`).
    pub name: String,
    /// One-line family help text.
    pub help: String,
    /// Counter or gauge (collectors never emit histograms).
    pub kind: InstrumentKind,
    /// Label pairs; sorted at render time.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// A counter sample.
    pub fn counter(
        name: impl Into<String>,
        help: impl Into<String>,
        labels: &[(&str, &str)],
        value: u64,
    ) -> Sample {
        Sample {
            name: name.into(),
            help: help.into(),
            kind: InstrumentKind::Counter,
            labels: own_labels(labels),
            value: value as f64,
        }
    }

    /// A gauge sample.
    pub fn gauge(
        name: impl Into<String>,
        help: impl Into<String>,
        labels: &[(&str, &str)],
        value: f64,
    ) -> Sample {
        Sample {
            name: name.into(),
            help: help.into(),
            kind: InstrumentKind::Gauge,
            labels: own_labels(labels),
            value,
        }
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Canonical series key: labels sorted by key, rendered `k="v"`.
pub(crate) fn label_key(labels: &[(String, String)]) -> String {
    let mut pairs: Vec<&(String, String)> = labels.iter().collect();
    pairs.sort();
    pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", expo::escape_label(v)))
        .collect::<Vec<_>>()
        .join(",")
}

#[derive(Debug, Clone)]
pub(crate) enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<WindowedHistogram>),
}

#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: InstrumentKind,
    /// Series keyed by canonical label string.
    pub(crate) series: BTreeMap<String, Instrument>,
}

type Collector = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

/// Registry of named instruments plus scrape-time collectors.
pub struct MetricsHub {
    enabled: bool,
    clock: Clock,
    families: Mutex<BTreeMap<String, Family>>,
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHub")
            .field("enabled", &self.enabled)
            .field("families", &self.families.lock().len())
            .field("collectors", &self.collectors.lock().len())
            .finish()
    }
}

impl MetricsHub {
    /// An enabled hub on the real clock.
    pub fn new() -> MetricsHub {
        MetricsHub::with_clock(Clock::real())
    }

    /// An enabled hub on the given clock (tests pass a mock).
    pub fn with_clock(clock: Clock) -> MetricsHub {
        MetricsHub {
            enabled: true,
            clock,
            families: Mutex::new(BTreeMap::new()),
            collectors: Mutex::new(Vec::new()),
        }
    }

    /// The null registry: instruments are inactive, render is empty.
    pub fn noop() -> MetricsHub {
        MetricsHub {
            enabled: false,
            clock: Clock::real(),
            families: Mutex::new(BTreeMap::new()),
            collectors: Mutex::new(Vec::new()),
        }
    }

    /// True when this hub records and renders.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get or create a counter series. Idempotent per name+labels.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        if !self.enabled {
            return Arc::new(Counter::noop());
        }
        let owned = own_labels(labels);
        let key = label_key(&owned);
        let mut families = self.families.lock();
        let fam = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: InstrumentKind::Counter,
            series: BTreeMap::new(),
        });
        if fam.kind != InstrumentKind::Counter {
            return Arc::new(Counter::new());
        }
        match fam
            .series
            .entry(key)
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::new())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::new()),
        }
    }

    /// Get or create a gauge series. Idempotent per name+labels.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        if !self.enabled {
            return Arc::new(Gauge::noop());
        }
        let owned = own_labels(labels);
        let key = label_key(&owned);
        let mut families = self.families.lock();
        let fam = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: InstrumentKind::Gauge,
            series: BTreeMap::new(),
        });
        if fam.kind != InstrumentKind::Gauge {
            return Arc::new(Gauge::new());
        }
        match fam
            .series
            .entry(key)
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::new())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Get or create a windowed histogram series (hub clock).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<WindowedHistogram> {
        if !self.enabled {
            return Arc::new(WindowedHistogram::noop());
        }
        let hist = Arc::new(WindowedHistogram::with_clock(self.clock.clone()));
        self.adopt_histogram(name, help, labels, hist)
    }

    /// Register a pre-built histogram under a name, or return the series
    /// that already owns the name+labels. On a no-op hub the histogram
    /// is returned unregistered and unchanged: an active histogram keeps
    /// recording for its owner but never renders.
    pub fn adopt_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: Arc<WindowedHistogram>,
    ) -> Arc<WindowedHistogram> {
        if !self.enabled {
            return hist;
        }
        let owned = own_labels(labels);
        let key = label_key(&owned);
        let mut families = self.families.lock();
        let fam = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: InstrumentKind::Histogram,
            series: BTreeMap::new(),
        });
        if fam.kind != InstrumentKind::Histogram {
            return hist;
        }
        match fam
            .series
            .entry(key)
            .or_insert_with(|| Instrument::Histogram(Arc::clone(&hist)))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => hist,
        }
    }

    /// Register a scrape-time collector. No-op on a disabled hub.
    pub fn register_collector(&self, collector: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static) {
        if !self.enabled {
            return;
        }
        self.collectors.lock().push(Box::new(collector));
    }

    /// Render the Prometheus-text exposition: registered families plus
    /// collector samples, deterministically ordered. Empty on a no-op
    /// hub.
    pub fn render(&self) -> String {
        if !self.enabled {
            return String::new();
        }
        let mut collected = Vec::new();
        for c in self.collectors.lock().iter() {
            c(&mut collected);
        }
        let families = self.families.lock();
        expo::render(&families, collected)
    }
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn instruments_are_idempotent_per_series() {
        let hub = MetricsHub::new();
        let a = hub.counter("tag_test_hits_total", "hits", &[("shard", "0")]);
        let b = hub.counter("tag_test_hits_total", "hits", &[("shard", "0")]);
        a.inc();
        assert_eq!(b.get(), 1, "same series must share storage");
        let c = hub.counter("tag_test_hits_total", "hits", &[("shard", "1")]);
        c.add(5);
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn noop_hub_hands_out_inactive_instruments() {
        let hub = MetricsHub::noop();
        let c = hub.counter("tag_test_x_total", "x", &[]);
        c.inc();
        assert_eq!(c.get(), 0);
        let h = hub.histogram("tag_test_y_seconds", "y", &[]);
        h.observe(Duration::from_secs(1));
        assert_eq!(h.count(), 0);
        hub.register_collector(|out| out.push(Sample::counter("tag_test_z", "z", &[], 1)));
        assert_eq!(hub.render(), "");
    }

    #[test]
    fn adopted_histograms_render_under_their_name() {
        let hub = MetricsHub::new();
        let own = Arc::new(WindowedHistogram::new());
        let shared = hub.adopt_histogram("tag_test_lat_seconds", "latency", &[], own.clone());
        shared.observe(Duration::from_millis(2));
        assert_eq!(own.count(), 1);
        assert!(hub.render().contains("tag_test_lat_seconds_count 1"));
    }

    #[test]
    fn collectors_feed_render() {
        let hub = MetricsHub::new();
        hub.register_collector(|out| {
            out.push(Sample::counter(
                "tag_test_pulled_total",
                "pulled",
                &[("domain", "bird_f1")],
                3,
            ))
        });
        let text = hub.render();
        assert!(text.contains("# TYPE tag_test_pulled_total counter"));
        assert!(text.contains("tag_test_pulled_total{domain=\"bird_f1\"} 3"));
    }
}
