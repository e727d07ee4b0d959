//! Thread-local trace context: install a trace, open spans, attribute
//! LM usage.

use crate::sink::{MemSink, TraceSink};
use crate::span::{LmUsage, SpanRecord, Stage};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide trace id allocator (ids are unique across traces so the
/// serving layer can hand them out as `TRACE <id>` handles).
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

struct TraceInner {
    id: u64,
    started: Instant,
    next_span: AtomicU64,
    sink: Arc<dyn TraceSink>,
}

/// A handle to one trace: an id, a start instant, a span-id allocator,
/// and the sink completed spans are delivered to. Cloning is cheap and
/// shares the same trace.
#[derive(Clone)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace").field("id", &self.inner.id).finish()
    }
}

impl Trace {
    /// New trace delivering spans to `sink`.
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Trace {
        Trace {
            inner: Arc::new(TraceInner {
                id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
                started: Instant::now(),
                next_span: AtomicU64::new(1),
                sink,
            }),
        }
    }

    /// New trace collecting into a fresh [`MemSink`]; returns both.
    pub fn memory() -> (Trace, Arc<MemSink>) {
        let sink = Arc::new(MemSink::new());
        let trace = Trace::with_sink(sink.clone());
        (trace, sink)
    }

    /// The process-unique trace id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    fn next_span_id(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed)
    }
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    stage: Stage,
    label: String,
    started: Instant,
    start_us: u64,
    lm: LmUsage,
    rows: Option<u64>,
    annotations: Vec<String>,
}

struct ActiveTrace {
    trace: Trace,
    stack: Vec<OpenSpan>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Install `trace` on the current thread for the duration of `f`.
/// Nesting is supported: the previous trace (if any) is restored on
/// exit, including on unwind.
pub fn with_trace<T>(trace: &Trace, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<ActiveTrace>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            ACTIVE.with(|a| *a.borrow_mut() = prev);
        }
    }
    let prev = ACTIVE.with(|a| {
        a.borrow_mut().replace(ActiveTrace {
            trace: trace.clone(),
            stack: Vec::new(),
        })
    });
    let _restore = Restore(prev);
    f()
}

/// True when a trace is installed on the current thread. Instrumented
/// code uses this to skip trace-only work (plan-node spans, LM
/// usage snapshots) on the hot untraced path.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Id of the trace installed on the current thread, if any.
pub fn current_trace_id() -> Option<u64> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|t| t.trace.id()))
}

/// Guard for an open span. Dropping it closes the span and delivers the
/// [`SpanRecord`] to the trace's sink. When no trace is active the guard
/// is inert.
#[must_use = "dropping the guard closes the span; bind it with `let _span = ...`"]
pub struct SpanGuard {
    id: Option<u64>,
}

/// Open a span tagged `stage` on the current thread's trace. Returns an
/// inert guard when no trace is installed.
pub fn span(stage: Stage, label: &str) -> SpanGuard {
    let id = ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let active = a.as_mut()?;
        let id = active.trace.next_span_id();
        let parent = active.stack.last().map(|s| s.id);
        let start_us = active.trace.inner.started.elapsed().as_micros() as u64;
        active.stack.push(OpenSpan {
            id,
            parent,
            stage,
            label: label.to_owned(),
            started: Instant::now(),
            start_us,
            lm: LmUsage::default(),
            rows: None,
            annotations: Vec::new(),
        });
        Some(id)
    });
    SpanGuard { id }
}

impl SpanGuard {
    /// Record the rows this span's operator produced (a plan node's
    /// rows out). A no-op on an inert guard.
    pub fn set_rows(&self, rows: usize) {
        let Some(id) = self.id else { return };
        ACTIVE.with(|a| {
            if let Some(active) = a.borrow_mut().as_mut() {
                if let Some(open) = active.stack.iter_mut().rfind(|s| s.id == id) {
                    open.rows = Some(rows as u64);
                }
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        // Close the span and ship it. If guards are dropped out of order
        // (early returns interleaving with `?`), pop down to this id so
        // orphaned children are still flushed, attributed to themselves.
        let records: Vec<SpanRecord> = ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            let Some(active) = a.as_mut() else {
                return Vec::new();
            };
            let Some(pos) = active.stack.iter().rposition(|s| s.id == id) else {
                return Vec::new();
            };
            let trace_id = active.trace.id();
            active
                .stack
                .split_off(pos)
                .into_iter()
                .rev() // innermost first: children recorded before parents
                .map(|open| SpanRecord {
                    trace_id,
                    id: open.id,
                    parent: open.parent,
                    stage: open.stage,
                    label: open.label,
                    start_us: open.start_us,
                    wall: open.started.elapsed(),
                    lm: open.lm,
                    rows: open.rows,
                    annotations: open.annotations,
                })
                .collect()
        });
        if records.is_empty() {
            return;
        }
        // Sink delivery happens outside the thread-local borrow so a
        // sink may itself call trace functions without panicking.
        let sink = ACTIVE.with(|a| {
            a.borrow()
                .as_ref()
                .map(|active| Arc::clone(&active.trace.inner.sink))
        });
        if let Some(sink) = sink {
            for r in records {
                sink.record(r);
            }
        }
    }
}

/// Attribute LM usage to the innermost open span on the current thread.
/// A no-op when no trace is installed or no span is open.
pub fn record_lm(usage: LmUsage) {
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            if let Some(open) = active.stack.last_mut() {
                open.lm.add(&usage);
            }
        }
    });
}

/// Attach a free-form annotation (SQL text, an annotated plan, ...) to
/// the innermost open span. A no-op when no trace is installed.
pub fn annotate(text: impl Into<String>) {
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            if let Some(open) = active.stack.last_mut() {
                open.annotations.push(text.into());
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        assert!(!is_active());
        assert_eq!(current_trace_id(), None);
        // Inert guard: no panic, nothing recorded.
        let _g = span(Stage::Syn, "noop");
        record_lm(LmUsage::default());
        annotate("ignored");
    }

    #[test]
    fn spans_form_a_tree() {
        let (trace, sink) = Trace::memory();
        with_trace(&trace, || {
            let _root = span(Stage::Request, "request");
            {
                let _syn = span(Stage::Syn, "syn");
                record_lm(LmUsage {
                    calls: 1,
                    rounds: 1,
                    prompt_tokens: 100,
                    completion_tokens: 10,
                    ..LmUsage::default()
                });
            }
            {
                let _exec = span(Stage::Exec, "sql");
                annotate("SELECT 1");
            }
        });
        let spans = sink.take();
        assert_eq!(spans.len(), 3);
        // Children recorded before the root (guard drop order).
        assert_eq!(spans[0].stage, Stage::Syn);
        assert_eq!(spans[1].stage, Stage::Exec);
        assert_eq!(spans[2].stage, Stage::Request);
        let root = &spans[2];
        assert_eq!(root.parent, None);
        assert_eq!(spans[0].parent, Some(root.id));
        assert_eq!(spans[1].parent, Some(root.id));
        assert_eq!(spans[0].lm.calls, 1);
        assert_eq!(spans[1].annotations, vec!["SELECT 1".to_string()]);
        // Ids increase parent-to-child.
        assert!(root.id < spans[0].id && spans[0].id < spans[1].id);
    }

    #[test]
    fn usage_goes_to_innermost_span_only() {
        let (trace, sink) = Trace::memory();
        with_trace(&trace, || {
            let _outer = span(Stage::Exec, "outer");
            {
                let _inner = span(Stage::Gen, "inner");
                record_lm(LmUsage {
                    calls: 2,
                    ..LmUsage::default()
                });
            }
        });
        let spans = sink.take();
        let inner = spans.iter().find(|s| s.label == "inner").unwrap();
        let outer = spans.iter().find(|s| s.label == "outer").unwrap();
        assert_eq!(inner.lm.calls, 2);
        assert_eq!(outer.lm.calls, 0, "parent must not double-count");
    }

    #[test]
    fn nested_with_trace_restores_outer() {
        let (outer, outer_sink) = Trace::memory();
        let (inner, inner_sink) = Trace::memory();
        with_trace(&outer, || {
            let _a = span(Stage::Request, "outer-span");
            with_trace(&inner, || {
                let _b = span(Stage::Request, "inner-span");
                assert_eq!(current_trace_id(), Some(inner.id()));
            });
            assert_eq!(current_trace_id(), Some(outer.id()));
        });
        assert!(!is_active());
        assert_eq!(outer_sink.len(), 1);
        assert_eq!(inner_sink.len(), 1);
        assert_ne!(outer.id(), inner.id());
    }

    #[test]
    fn child_durations_nest_within_parent() {
        let (trace, sink) = Trace::memory();
        with_trace(&trace, || {
            let _root = span(Stage::Request, "request");
            for i in 0..3 {
                let _child = span(Stage::Exec, &format!("step-{i}"));
                std::hint::black_box((0..1000).sum::<u64>());
            }
        });
        let spans = sink.take();
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        let child_sum: std::time::Duration = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| s.wall)
            .sum();
        assert!(
            child_sum <= root.wall,
            "children {child_sum:?} exceed root {root:?}"
        );
    }

    #[test]
    fn rows_land_on_their_own_span() {
        let (trace, sink) = Trace::memory();
        with_trace(&trace, || {
            let outer = span(Stage::Exec, "Filter");
            span(Stage::Exec, "TableScan t").set_rows(10);
            outer.set_rows(4);
        });
        let rows: Vec<_> = sink
            .take()
            .iter()
            .map(|s| (s.label.clone(), s.rows))
            .collect();
        assert_eq!(
            rows,
            [("TableScan t".into(), Some(10)), ("Filter".into(), Some(4))]
        );
        span(Stage::Exec, "inert").set_rows(1); // no trace: a no-op
    }

    #[test]
    fn guard_outliving_trace_is_harmless() {
        let (trace, sink) = Trace::memory();
        let guard = with_trace(&trace, || span(Stage::Syn, "escaped"));
        drop(guard); // trace no longer installed: nothing to record
        assert_eq!(sink.len(), 0);
    }
}
