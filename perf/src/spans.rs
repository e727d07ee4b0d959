//! The harness's span recorder.
//!
//! No program file may change in the PR that defines the benchmark, so
//! every layer is measured from outside: the harness records a span
//! around each call into a crate's public function. Spans stay in memory
//! and are written out once, when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// One span: what ran, when, under which span, for which request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded recorder. Client threads each own one (sharing the
/// epoch) and the runs are merged afterwards, so recording takes no lock.
pub struct Recorder {
    epoch: Instant,
    /// Ids are `base + index`; every recorder of the process gets a base
    /// of its own, so merged ids stay unique.
    base: u64,
    spans: Vec<Span>,
}

static RECORDERS: AtomicU64 = AtomicU64::new(0);

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            base: RECORDERS.fetch_add(1, Relaxed) << 32,
            spans: Vec::new(),
        }
    }

    /// Make room up front, so that recording never reallocates mid-pass.
    pub fn reserve(&mut self, spans: usize) {
        self.spans.reserve(spans);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.base + self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Negative when children overrun their parent, which
/// [`self_time_error`] then reports.
pub fn self_times(spans: &[Span]) -> HashMap<u64, i128> {
    let mut own: HashMap<u64, i128> = spans
        .iter()
        .map(|s| (s.id, s.duration_ns() as i128))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(t) = own.get_mut(&p) {
                *t -= s.duration_ns() as i128;
            }
        }
    }
    own
}

/// The worst relative gap, over all root spans, between the root's
/// duration and the sum of the (non-negative) self times in its tree.
/// Zero when every child lies inside its parent.
pub fn self_time_error(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let parent_of: HashMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let root_of = |mut id: u64| {
        while let Some(Some(p)) = parent_of.get(&id) {
            id = *p;
        }
        id
    };
    let mut sums: HashMap<u64, i128> = HashMap::new();
    for s in spans {
        *sums.entry(root_of(s.id)).or_default() += own[&s.id].max(0);
    }
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.duration_ns() > 0)
        .map(|r| {
            let d = r.duration_ns() as f64;
            (sums[&r.id] as f64 - d).abs() / d
        })
        .fold(0.0, f64::max)
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        *by_name.entry(s.name).or_default() += own[&s.id].max(0) as u64;
    }
    by_name
}

/// End of a traced run: refuse a tree whose self times miss a root by
/// more than 1%, write the spans out, and say where.
pub fn finish(path: &std::path::Path, spans: &[Span]) -> Result<String, String> {
    let gap = self_time_error(spans);
    if gap > 0.01 {
        return Err(format!(
            "span self-times miss their root by {:.2}%",
            gap * 100.0
        ));
    }
    write_jsonl(path, spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(format!("{} spans in {}", spans.len(), path.display()))
}

/// Write spans as JSON lines.
fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Vec<Span> {
        let mut r = Recorder::new(Instant::now());
        let root = r.push("request", None, 1, 0, 1000);
        r.push("protocol.parse", Some(root), 1, 0, 100);
        let ask = r.push("server.ask", Some(root), 1, 100, 900);
        r.push("queue_wait", Some(ask), 1, 110, 300);
        r.push("exec", Some(ask), 1, 300, 800);
        r.push("reply", Some(ask), 1, 800, 850);
        r.push("protocol.format", Some(root), 1, 900, 990);
        r.into_spans()
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let spans = tree();
        let own = self_times(&spans);
        assert_eq!(own[&spans[0].id], 1000 - 100 - 800 - 90);
        assert_eq!(own[&spans[2].id], 800 - 190 - 500 - 50);
        assert_eq!(own.values().sum::<i128>(), 1000);
        assert_eq!(self_time_error(&spans), 0.0);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["exec"], 500);
        assert_eq!(by_name.values().sum::<u64>(), 1000);
    }

    #[test]
    fn children_overrunning_their_parent_are_reported() {
        let mut spans = tree();
        spans[4].end_ns += 400; // exec now outlasts server.ask
        assert!(self_time_error(&spans) > 0.01);
    }

    #[test]
    fn merged_recorders_keep_ids_unique() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        let mut b = Recorder::new(epoch);
        let ia = a.push("x", None, 1, 0, 1);
        let ib = b.push("x", None, 2, 0, 1);
        assert_ne!(ia, ib);
    }
}
