//! Per-request trace capture: a bounded ring buffer of completed
//! request traces plus a tail-sampling reservoir, addressable by trace
//! id for the `TRACE <id>` protocol command.
//!
//! The ring keeps the most recent `capacity` traces FIFO. When a trace
//! ages out of the ring it is offered to the *tail reservoir*, which
//! preferentially keeps error traces and the slowest requests (ranked
//! by root-span wall time). That is tail-based sampling: by the time a
//! p99 spike shows up in a windowed histogram, the exemplar trace id it
//! points at is usually long past the FIFO horizon — the reservoir is
//! what keeps `TRACE <id>` resolvable for exactly those requests.
//!
//! Traces that fall out of both structures leave a tombstone id behind
//! (bounded), so [`TraceStore::lookup`] can distinguish "evicted —
//! widen the store" from "never saw that id".
//!
//! Span vectors are stored as delivered by the request's
//! [`tag_trace::MemSink`], i.e. children before parents in completion
//! order.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Duration;
use tag_trace::SpanRecord;

/// Upper bound on remembered evicted ids (tombstones).
const EVICTED_IDS_MAX: usize = 4096;

/// Result of a [`TraceStore::lookup`].
#[derive(Debug, Clone)]
pub enum TraceLookup {
    /// The trace is resident (ring or tail reservoir).
    Found(Vec<SpanRecord>),
    /// The trace was captured but has since been evicted; widening the
    /// ring (`--trace-capacity`) or the tail reservoir would have kept
    /// it.
    Evicted,
    /// The id was never inserted (mistyped, or from a previous run).
    Unknown,
}

#[derive(Debug)]
struct TailEntry {
    id: u64,
    /// Root-span wall time; the reservoir keeps the slowest.
    score: Duration,
    /// Error traces always outrank non-errors.
    error: bool,
    spans: Vec<SpanRecord>,
}

impl TailEntry {
    fn rank(&self) -> (bool, Duration) {
        (self.error, self.score)
    }
}

#[derive(Debug)]
struct RingEntry {
    id: u64,
    error: bool,
    spans: Vec<SpanRecord>,
}

#[derive(Debug, Default)]
struct Inner {
    ring: VecDeque<RingEntry>,
    tail: Vec<TailEntry>,
    evicted: VecDeque<u64>,
}

/// A bounded FIFO of completed request traces keyed by trace id, with a
/// slow/error tail reservoir behind it.
#[derive(Debug)]
pub struct TraceStore {
    capacity: usize,
    tail_capacity: usize,
    inner: Mutex<Inner>,
}

/// The root span's wall time (the request span has no parent); falls
/// back to the longest span when the sink delivered no root.
fn root_wall(spans: &[SpanRecord]) -> Duration {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.wall)
        .max()
        .or_else(|| spans.iter().map(|s| s.wall).max())
        .unwrap_or(Duration::ZERO)
}

impl TraceStore {
    /// A ring-only store holding at most `capacity` traces (0 disables
    /// storage entirely — nothing is ever inserted or tombstoned).
    pub fn new(capacity: usize) -> Self {
        Self::with_tail(capacity, 0)
    }

    /// A store with a FIFO ring of `capacity` plus a tail reservoir
    /// keeping the `tail_capacity` slowest/error traces that age out of
    /// the ring.
    pub fn with_tail(capacity: usize, tail_capacity: usize) -> Self {
        TraceStore {
            capacity,
            tail_capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Insert a completed, non-error trace.
    pub fn insert(&self, trace_id: u64, spans: Vec<SpanRecord>) {
        self.insert_with_outcome(trace_id, spans, false);
    }

    /// Insert a completed trace, evicting the oldest ring entry into
    /// the tail reservoir when full. `is_error` marks request failures
    /// so the reservoir retains them ahead of merely-slow traces.
    pub fn insert_with_outcome(&self, trace_id: u64, spans: Vec<SpanRecord>, is_error: bool) {
        if self.capacity == 0 {
            return;
        }
        let mut g = self.inner.lock();
        if g.ring.len() == self.capacity {
            if let Some(old) = g.ring.pop_front() {
                let entry = TailEntry {
                    id: old.id,
                    score: root_wall(&old.spans),
                    error: old.error,
                    spans: old.spans,
                };
                self.tail_consider(&mut g, entry);
            }
        }
        g.ring.push_back(RingEntry {
            id: trace_id,
            error: is_error,
            spans,
        });
    }

    fn tail_consider(&self, g: &mut Inner, entry: TailEntry) {
        if self.tail_capacity == 0 {
            Self::tombstone(g, entry.id);
            return;
        }
        if g.tail.len() < self.tail_capacity {
            g.tail.push(entry);
            return;
        }
        // Replace the lowest-ranked resident if the newcomer outranks
        // it; ties keep the resident (older exemplars stay stable).
        let (mut min_i, mut min_rank) = (0usize, g.tail[0].rank());
        for (i, e) in g.tail.iter().enumerate().skip(1) {
            let r = e.rank();
            if r < min_rank {
                min_i = i;
                min_rank = r;
            }
        }
        if entry.rank() > min_rank {
            let old = std::mem::replace(&mut g.tail[min_i], entry);
            Self::tombstone(g, old.id);
        } else {
            Self::tombstone(g, entry.id);
        }
    }

    fn tombstone(g: &mut Inner, id: u64) {
        if g.evicted.len() == EVICTED_IDS_MAX {
            g.evicted.pop_front();
        }
        g.evicted.push_back(id);
    }

    /// The spans of trace `trace_id`, if still resident (ring or tail).
    pub fn get(&self, trace_id: u64) -> Option<Vec<SpanRecord>> {
        match self.lookup(trace_id) {
            TraceLookup::Found(spans) => Some(spans),
            _ => None,
        }
    }

    /// Three-way lookup: resident, evicted (tombstoned), or unknown.
    pub fn lookup(&self, trace_id: u64) -> TraceLookup {
        let g = self.inner.lock();
        if let Some(e) = g.ring.iter().find(|e| e.id == trace_id) {
            return TraceLookup::Found(e.spans.clone());
        }
        if let Some(e) = g.tail.iter().find(|e| e.id == trace_id) {
            return TraceLookup::Found(e.spans.clone());
        }
        if g.evicted.contains(&trace_id) {
            return TraceLookup::Evicted;
        }
        TraceLookup::Unknown
    }

    /// Number of resident traces (ring + tail reservoir).
    pub fn len(&self) -> usize {
        let g = self.inner.lock();
        g.ring.len() + g.tail.len()
    }

    /// Traces resident in the tail reservoir.
    pub fn tail_len(&self) -> usize {
        self.inner.lock().tail.len()
    }

    /// True when no trace is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of traces in the FIFO ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Maximum number of traces in the tail reservoir.
    pub fn tail_capacity(&self) -> usize {
        self.tail_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sized(trace_id: u64, wall_ms: u64) -> Vec<SpanRecord> {
        vec![SpanRecord {
            trace_id,
            id: 1,
            parent: None,
            stage: tag_trace::Stage::Request,
            label: "req".into(),
            start_us: 0,
            wall: std::time::Duration::from_millis(wall_ms),
            lm: tag_trace::LmUsage::default(),
            rows: None,
            annotations: vec![],
        }]
    }

    fn dummy(trace_id: u64) -> Vec<SpanRecord> {
        sized(trace_id, 1)
    }

    #[test]
    fn ring_evicts_oldest() {
        let store = TraceStore::new(2);
        store.insert(1, dummy(1));
        store.insert(2, dummy(2));
        store.insert(3, dummy(3));
        assert_eq!(store.len(), 2);
        assert!(store.get(1).is_none(), "oldest evicted");
        assert!(store.get(2).is_some());
        assert!(store.get(3).is_some());
        assert_eq!(store.get(3).unwrap()[0].trace_id, 3);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let store = TraceStore::new(0);
        store.insert(1, dummy(1));
        assert!(store.is_empty());
        assert!(store.get(1).is_none());
        assert!(matches!(store.lookup(1), TraceLookup::Unknown));
    }

    #[test]
    fn lookup_distinguishes_evicted_from_unknown() {
        let store = TraceStore::new(1);
        store.insert(1, dummy(1));
        store.insert(2, dummy(2));
        assert!(matches!(store.lookup(1), TraceLookup::Evicted));
        assert!(matches!(store.lookup(2), TraceLookup::Found(_)));
        assert!(matches!(store.lookup(999), TraceLookup::Unknown));
    }

    #[test]
    fn tail_reservoir_keeps_slowest() {
        let store = TraceStore::with_tail(1, 2);
        // Slow (id 1), fast (id 2), medium (id 3) age out of the
        // 1-entry ring in turn; the 2-slot tail should keep 1 and 3.
        store.insert(1, sized(1, 500));
        store.insert(2, sized(2, 1));
        store.insert(3, sized(3, 50));
        store.insert(4, sized(4, 2));
        assert!(
            matches!(store.lookup(1), TraceLookup::Found(_)),
            "slowest kept"
        );
        assert!(
            matches!(store.lookup(3), TraceLookup::Found(_)),
            "second slowest kept"
        );
        assert!(
            matches!(store.lookup(2), TraceLookup::Evicted),
            "fast trace dropped"
        );
        assert!(
            matches!(store.lookup(4), TraceLookup::Found(_)),
            "still in ring"
        );
        assert_eq!(store.tail_len(), 2);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn tail_reservoir_prefers_errors_over_slow() {
        let store = TraceStore::with_tail(1, 1);
        store.insert(1, sized(1, 1000));
        store.insert_with_outcome(2, sized(2, 1), true);
        store.insert(3, sized(3, 1));
        store.insert(4, sized(4, 1));
        // Both 1 (slow) and 2 (error) aged out with one tail slot: the
        // error wins even though it was faster.
        assert!(matches!(store.lookup(1), TraceLookup::Evicted));
        assert!(
            matches!(store.lookup(2), TraceLookup::Found(_)),
            "error trace kept"
        );
    }

    #[test]
    fn tail_disabled_tombstones_everything() {
        let store = TraceStore::with_tail(1, 0);
        store.insert(1, sized(1, 500));
        store.insert(2, sized(2, 1));
        assert!(matches!(store.lookup(1), TraceLookup::Evicted));
        assert_eq!(store.tail_len(), 0);
    }
}
