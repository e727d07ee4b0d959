//! Fixed-bucket latency histogram with sliding-window aggregation.
//!
//! One bucket layout serves the whole workspace (16 bounds from 100µs
//! to 10s plus an implicit +inf overflow bucket), so every latency
//! reads on the same scale. Besides the cumulative view, every
//! observation also lands in a per-second ring of
//! [`SLOTS`] slots; reading a window merges the slots stamped within
//! the last N seconds, which yields *rolling* 10s/60s counts, rates and
//! quantiles without any background thread.
//!
//! Slot rotation is lazy: the writer that first touches a slot in a new
//! second CASes the slot's stamp and zeroes it. A writer racing across
//! the ring period (64s apart) can smear a handful of observations into
//! a freshly claimed slot; windows tolerate that — the cumulative view
//! is never reset and stays exact.
//!
//! Quantiles are bucket upper bounds. When the rank lands in the +inf
//! bucket the true value is unknown, so the result is flagged as a
//! lower bound ([`Quantile::lower_bound`]) instead of silently clamping
//! to 10s.

use crate::clock::Clock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds in seconds (le semantics); an implicit
/// +inf bucket catches overflow.
pub const BOUNDS: [f64; 16] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Bucket count including the +inf overflow bucket.
const NBUCKETS: usize = BOUNDS.len() + 1;

/// Ring size in seconds; must exceed the widest window.
const SLOTS: usize = 64;

/// The rolling windows reported everywhere, in seconds.
pub const WINDOWS: [u64; 2] = [10, 60];

/// One second's worth of observations. `stamp` is the second index + 1
/// (0 = never used), so a slot can tell a live second from a stale lap.
#[derive(Debug)]
struct Slot {
    stamp: AtomicU64,
    buckets: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

/// A quantile estimate: the bucket upper bound covering the rank. When
/// the rank falls in the +inf bucket the estimate is only a lower bound
/// on the true latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Bucket upper bound in seconds (the largest finite bound when
    /// `lower_bound` is set).
    pub seconds: f64,
    /// True when the rank landed in the +inf overflow bucket: the true
    /// value is *at least* `seconds`.
    pub lower_bound: bool,
}

impl Quantile {
    /// Render as milliseconds, with a `+` suffix when only a lower bound.
    pub fn display_ms(&self) -> String {
        let ms = self.seconds * 1e3;
        if self.lower_bound {
            format!("{ms:.1}+")
        } else {
            format!("{ms:.1}")
        }
    }
}

fn quantile_from(buckets: &[u64; NBUCKETS], count: u64, q: f64) -> Quantile {
    if count == 0 {
        return Quantile {
            seconds: 0.0,
            lower_bound: false,
        };
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            if i == NBUCKETS - 1 {
                return Quantile {
                    seconds: BOUNDS[BOUNDS.len() - 1],
                    lower_bound: true,
                };
            }
            return Quantile {
                seconds: BOUNDS[i],
                lower_bound: false,
            };
        }
    }
    Quantile {
        seconds: BOUNDS[BOUNDS.len() - 1],
        lower_bound: true,
    }
}

fn bucket_index(seconds: f64) -> usize {
    BOUNDS
        .iter()
        .position(|&b| seconds <= b)
        .unwrap_or(NBUCKETS - 1)
}

/// Merged view of the slots inside one rolling window.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    window_secs: u64,
    buckets: [u64; NBUCKETS],
    count: u64,
    sum_nanos: u64,
}

impl WindowSnapshot {
    /// The window width in seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// Observations inside the window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations per second over the window.
    pub fn rate(&self) -> f64 {
        self.count as f64 / self.window_secs as f64
    }

    /// Mean observation in seconds (0.0 when empty).
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / 1e9 / self.count as f64
        }
    }

    /// Observations above the largest finite bound.
    pub fn overflow(&self) -> u64 {
        self.buckets[NBUCKETS - 1]
    }

    /// Quantile estimate over the window.
    pub fn quantile(&self, q: f64) -> Quantile {
        quantile_from(&self.buckets, self.count, q)
    }
}

/// A histogram with a cumulative view plus per-second slots for rolling
/// windows and per-bucket trace exemplars.
#[derive(Debug)]
pub struct WindowedHistogram {
    active: bool,
    clock: Clock,
    buckets: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    slots: Vec<Slot>,
    exemplar_ids: [AtomicU64; NBUCKETS],
    exemplar_bits: [AtomicU64; NBUCKETS],
}

impl WindowedHistogram {
    /// An active histogram on a real clock.
    pub fn new() -> WindowedHistogram {
        WindowedHistogram::with_clock(Clock::real())
    }

    /// An active histogram on the given clock (tests use a mock).
    pub fn with_clock(clock: Clock) -> WindowedHistogram {
        WindowedHistogram {
            active: true,
            clock,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            slots: (0..SLOTS).map(|_| Slot::new()).collect(),
            exemplar_ids: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_bits: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// A histogram that drops every observation (null-registry arm).
    pub fn noop() -> WindowedHistogram {
        let mut h = WindowedHistogram::with_clock(Clock::real());
        h.active = false;
        h.slots = Vec::new();
        h
    }

    /// True when observations are recorded.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Record one observation.
    pub fn observe(&self, d: Duration) {
        self.record(d, None);
    }

    /// Record one observation carrying a trace-id exemplar. The bucket
    /// the observation lands in remembers the id (last write wins), so
    /// exposition can link a slow bucket to a resident trace.
    pub fn observe_with_exemplar(&self, d: Duration, trace_id: u64) {
        self.record(d, Some(trace_id));
    }

    fn record(&self, d: Duration, trace_id: Option<u64>) {
        if !self.active {
            return;
        }
        let secs = d.as_secs_f64();
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        let idx = bucket_index(secs);

        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);

        if let Some(id) = trace_id {
            // Value first, id second: a torn pair can mismatch value
            // and id briefly; exemplars are diagnostics, not ledgers.
            self.exemplar_bits[idx].store(secs.to_bits(), Ordering::Relaxed);
            self.exemplar_ids[idx].store(id, Ordering::Relaxed);
        }

        let now = self.clock.now_seconds();
        let slot = &self.slots[now as usize % SLOTS];
        let stamp = now + 1;
        let cur = slot.stamp.load(Ordering::Acquire);
        if cur != stamp {
            // First writer of this second claims the slot and zeroes
            // the previous lap; losers just add to the claimed slot.
            if slot
                .stamp
                .compare_exchange(cur, stamp, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                for b in &slot.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                slot.count.store(0, Ordering::Relaxed);
                slot.sum_nanos.store(0, Ordering::Relaxed);
            }
        }
        slot.buckets[idx].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total observations (cumulative; never reset).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Cumulative sum of observations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Observations above the largest finite bound (cumulative).
    pub fn overflow(&self) -> u64 {
        self.buckets[NBUCKETS - 1].load(Ordering::Relaxed)
    }

    /// Cumulative per-bucket counts (not le-cumulative), +inf last.
    pub fn bucket_counts(&self) -> [u64; NBUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Cumulative quantile estimate.
    pub fn quantile(&self, q: f64) -> Quantile {
        quantile_from(&self.bucket_counts(), self.count(), q)
    }

    /// Merge the slots stamped within the last `window_secs` seconds.
    pub fn window(&self, window_secs: u64) -> WindowSnapshot {
        let window_secs = window_secs.clamp(1, SLOTS as u64 - 1);
        let mut snap = WindowSnapshot {
            window_secs,
            buckets: [0; NBUCKETS],
            count: 0,
            sum_nanos: 0,
        };
        if !self.active {
            return snap;
        }
        let now = self.clock.now_seconds();
        let lo = now.saturating_sub(window_secs - 1);
        for slot in &self.slots {
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == 0 {
                continue;
            }
            let sec = stamp - 1;
            if sec < lo || sec > now {
                continue;
            }
            for (i, b) in slot.buckets.iter().enumerate() {
                snap.buckets[i] += b.load(Ordering::Relaxed);
            }
            snap.count += slot.count.load(Ordering::Relaxed);
            snap.sum_nanos += slot.sum_nanos.load(Ordering::Relaxed);
        }
        snap
    }

    /// Per-bucket exemplars as `(bucket_index, trace_id, seconds)`,
    /// ascending by bucket.
    pub fn exemplars(&self) -> Vec<(usize, u64, f64)> {
        (0..NBUCKETS)
            .filter_map(|i| {
                let id = self.exemplar_ids[i].load(Ordering::Relaxed);
                if id == 0 {
                    return None;
                }
                let secs = f64::from_bits(self.exemplar_bits[i].load(Ordering::Relaxed));
                Some((i, id, secs))
            })
            .collect()
    }

    /// The exemplar from the slowest populated bucket, if any.
    pub fn slowest_exemplar(&self) -> Option<(u64, f64)> {
        self.exemplars().pop().map(|(_, id, secs)| (id, secs))
    }
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cumulative_quantiles_match_fixed_layout() {
        let h = WindowedHistogram::new();
        // Empty: every q, out-of-range and NaN included, is 0.
        for q in [0.0, 0.5, 1.0, 2.0, -1.0, f64::NAN] {
            assert_eq!(h.quantile(q).seconds, 0.0, "empty histogram q={q}");
        }
        for _ in 0..98 {
            h.observe(Duration::from_millis(3));
        }
        h.observe(Duration::from_millis(400));
        h.observe(Duration::from_secs(2));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        assert_eq!(p50.seconds, 0.005);
        assert!(!p50.lower_bound);
        let p99 = h.quantile(0.99);
        assert_eq!(p99.seconds, 0.5);
        // q = 1.0 lands on the last populated bucket, not +inf; an
        // out-of-range q is clamped and finite.
        assert_eq!(
            h.quantile(1.0),
            Quantile {
                seconds: 2.5,
                lower_bound: false
            }
        );
        assert_eq!(h.quantile(100.0), h.quantile(1.0));
        assert_eq!(h.quantile(-0.5).seconds, 0.005);

        let fib = WindowedHistogram::new();
        for ms in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            fib.observe(Duration::from_millis(ms));
        }
        let [p50, p95, p99] = [0.5, 0.95, 0.99].map(|q| fib.quantile(q).seconds);
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(fib.sum_seconds() / fib.count() as f64 > 0.0);
    }

    #[test]
    fn overflow_is_counted_and_flagged() {
        let h = WindowedHistogram::new();
        h.observe(Duration::from_secs(30));
        assert_eq!(h.overflow(), 1);
        let q = h.quantile(0.5);
        assert_eq!(q.seconds, 10.0);
        assert!(q.lower_bound, "+inf rank must be flagged as a lower bound");
        assert_eq!(q.display_ms(), "10000.0+");
    }

    #[test]
    fn window_rotation_under_mock_clock() {
        let (clock, handle) = Clock::mock();
        let h = WindowedHistogram::with_clock(clock);

        // Three observations in second 0.
        for _ in 0..3 {
            h.observe(Duration::from_millis(2));
        }
        assert_eq!(h.window(10).count(), 3);

        // Five seconds later: still inside the 10s window.
        handle.advance_millis(5_000);
        h.observe(Duration::from_millis(8));
        let w10 = h.window(10);
        assert_eq!(w10.count(), 4);
        assert!((w10.rate() - 0.4).abs() < 1e-9);

        // Twelve seconds in: second-0 slots have aged out of the 10s
        // window but remain in the 60s window.
        handle.set_millis(12_000);
        assert_eq!(h.window(10).count(), 1);
        assert_eq!(h.window(60).count(), 4);

        // After 70s everything has aged out of both windows, but the
        // cumulative view is intact.
        handle.set_millis(70_000);
        assert_eq!(h.window(10).count(), 0);
        assert_eq!(h.window(60).count(), 0);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn ring_lap_reclaims_slots() {
        let (clock, handle) = Clock::mock();
        let h = WindowedHistogram::with_clock(clock);
        h.observe(Duration::from_millis(1));
        // One full ring lap later the same slot index is reclaimed for
        // the new second; the old second must not leak into the window.
        handle.set_millis(64_000);
        h.observe(Duration::from_millis(1));
        assert_eq!(h.window(10).count(), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn window_quantiles_see_only_recent_load() {
        let (clock, handle) = Clock::mock();
        let h = WindowedHistogram::with_clock(clock);
        // Old slow traffic...
        for _ in 0..50 {
            h.observe(Duration::from_secs(2));
        }
        handle.set_millis(30_000);
        // ...recent fast traffic.
        for _ in 0..50 {
            h.observe(Duration::from_millis(1));
        }
        assert_eq!(h.window(10).quantile(0.99).seconds, 0.001);
        // The 60s window still sees both phases.
        assert_eq!(h.window(60).quantile(0.99).seconds, 2.5);
        assert_eq!(h.quantile(0.99).seconds, 2.5);
    }

    #[test]
    fn exemplars_attach_to_buckets() {
        let h = WindowedHistogram::new();
        h.observe_with_exemplar(Duration::from_millis(2), 7);
        h.observe_with_exemplar(Duration::from_secs(4), 42);
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(h.slowest_exemplar(), Some((42, 4.0)));
    }

    #[test]
    fn noop_histogram_records_nothing() {
        let h = WindowedHistogram::noop();
        h.observe(Duration::from_secs(1));
        h.observe_with_exemplar(Duration::from_secs(1), 9);
        assert_eq!(h.count(), 0);
        assert_eq!(h.window(10).count(), 0);
        assert!(h.exemplars().is_empty());
    }

    #[test]
    fn concurrent_observe_rotate_quantile_race() {
        // Writers hammer observations while the clock advances and a
        // reader folds windows + quantiles. The cumulative count must
        // be exact; windows must never exceed the cumulative total.
        let (clock, handle) = Clock::mock();
        let h = Arc::new(WindowedHistogram::with_clock(clock));
        let writers = 4u64;
        let per_writer = 5_000u64;
        let total = writers * per_writer;

        let mut threads = Vec::new();
        for t in 0..writers {
            let h = Arc::clone(&h);
            threads.push(std::thread::spawn(move || {
                for i in 0..per_writer {
                    h.observe_with_exemplar(Duration::from_micros(50 + (i % 900)), t * 1000 + i);
                }
            }));
        }
        let ticker = {
            let handle = handle.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    handle.advance_millis(500);
                    std::thread::yield_now();
                }
            })
        };
        let reader = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let w = h.window(10);
                    assert!(w.count() <= total);
                    let q = w.quantile(0.99);
                    assert!(q.seconds >= 0.0);
                    std::thread::yield_now();
                }
            })
        };
        for t in threads {
            t.join().expect("writer panicked");
        }
        ticker.join().expect("ticker panicked");
        reader.join().expect("reader panicked");
        assert_eq!(h.count(), total);
    }
}
