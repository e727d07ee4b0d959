//! Span records: the unit of trace data.

use std::fmt::Write as _;
use std::time::Duration;

/// Pipeline stage a span belongs to. Mirrors the paper's decomposition
/// (`syn`/`exec`/`gen`) plus the retrieval stages used by the baselines
/// and a `request` root for whole-request spans in the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Whole-request root span (serving layer, bench replay).
    Request,
    /// Query synthesis: the LM writes SQL.
    Syn,
    /// Relational/semantic execution over the database.
    Exec,
    /// Answer generation from the computed table.
    Gen,
    /// Embedding retrieval (RAG and rerank baselines).
    Retrieve,
    /// LM reranking of retrieved candidates.
    Rerank,
}

impl Stage {
    /// All stages, in display order. `index` follows this order.
    pub const ALL: [Stage; 6] = [
        Stage::Request,
        Stage::Syn,
        Stage::Exec,
        Stage::Gen,
        Stage::Retrieve,
        Stage::Rerank,
    ];

    /// Stable lowercase tag (used in JSONL and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Syn => "syn",
            Stage::Exec => "exec",
            Stage::Gen => "gen",
            Stage::Retrieve => "retrieve",
            Stage::Rerank => "rerank",
        }
    }

    /// Position in [`Stage::ALL`] — for array-indexed per-stage counters.
    pub fn index(self) -> usize {
        match self {
            Stage::Request => 0,
            Stage::Syn => 1,
            Stage::Exec => 2,
            Stage::Gen => 3,
            Stage::Retrieve => 4,
            Stage::Rerank => 5,
        }
    }

    /// Parse the lowercase tag back into a stage.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.as_str() == s)
    }
}

/// Per-span LM accounting. All counters are attributed to the innermost
/// open span at the time of the LM interaction, so summing any set of
/// spans never double-counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LmUsage {
    /// Prompts sent to the language model (after cache dedup).
    pub calls: u64,
    /// Batch rounds those prompts were grouped into.
    pub rounds: u64,
    /// Prompts served from the semantic-operator prompt cache.
    pub cache_hits: u64,
    /// Prompt tokens consumed across the calls.
    pub prompt_tokens: u64,
    /// Completion tokens produced across the calls.
    pub completion_tokens: u64,
    /// Virtual-clock seconds charged by the cost model. Exact under
    /// serial replay; an approximation under concurrent serving where
    /// batch rounds are shared between requests.
    pub virtual_seconds: f64,
}

impl LmUsage {
    /// Accumulate another usage record into this one.
    pub fn add(&mut self, other: &LmUsage) {
        self.calls += other.calls;
        self.rounds += other.rounds;
        self.cache_hits += other.cache_hits;
        self.prompt_tokens += other.prompt_tokens;
        self.completion_tokens += other.completion_tokens;
        self.virtual_seconds += other.virtual_seconds;
    }

    /// True when every counter is zero (span did no LM work).
    pub fn is_zero(&self) -> bool {
        self.calls == 0
            && self.rounds == 0
            && self.cache_hits == 0
            && self.prompt_tokens == 0
            && self.completion_tokens == 0
            && self.virtual_seconds == 0.0
    }
}

/// One completed span, as delivered to a [`crate::TraceSink`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Span id, unique and monotonically increasing within the trace
    /// (a parent always has a smaller id than its children).
    pub id: u64,
    /// Parent span id; `None` for a root span.
    pub parent: Option<u64>,
    /// Pipeline stage tag.
    pub stage: Stage,
    /// Human-readable label ("text2sql-syn", "sql", "answer", ...).
    pub label: String,
    /// Microseconds from trace start to span open.
    pub start_us: u64,
    /// Wall-clock duration of the span.
    pub wall: Duration,
    /// LM accounting attributed to this span (not its children).
    pub lm: LmUsage,
    /// Rows the span's plan node produced; `None` for a span that is
    /// not a plan node.
    pub rows: Option<u64>,
    /// Free-form annotations (SQL text, errors, ...).
    pub annotations: Vec<String>,
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl SpanRecord {
    /// Render the span as one JSON object (no trailing newline). This is
    /// the JSONL trace-export format; no external JSON crate is used.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"trace\":{},\"span\":{},\"parent\":",
            self.trace_id, self.id
        );
        match self.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"stage\":\"{}\",\"label\":\"", self.stage.as_str());
        json_escape(&mut out, &self.label);
        let _ = write!(
            out,
            "\",\"start_us\":{},\"wall_us\":{},\"lm_calls\":{},\"lm_rounds\":{},\
             \"cache_hits\":{},\"prompt_tokens\":{},\"completion_tokens\":{},\
             \"virtual_s\":{:.6},\"rows\":",
            self.start_us,
            self.wall.as_micros(),
            self.lm.calls,
            self.lm.rounds,
            self.lm.cache_hits,
            self.lm.prompt_tokens,
            self.lm.completion_tokens,
            self.lm.virtual_seconds,
        );
        match self.rows {
            Some(rows) => {
                let _ = write!(out, "{rows}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"annotations\":[");
        for (i, a) in self.annotations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(&mut out, a);
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    }
}

fn render_span(out: &mut String, spans: &[SpanRecord], idx: usize, depth: usize) {
    let s = &spans[idx];
    let pad = "  ".repeat(depth);
    let _ = write!(
        out,
        "{pad}[{}] {} {}",
        s.stage.as_str(),
        s.label,
        fmt_duration(s.wall)
    );
    if let Some(rows) = s.rows {
        let _ = write!(out, "  rows={rows}");
    }
    if !s.lm.is_zero() {
        let _ = write!(
            out,
            "  lm: calls={} rounds={} hits={} tok={}/{} virt={:.3}s",
            s.lm.calls,
            s.lm.rounds,
            s.lm.cache_hits,
            s.lm.prompt_tokens,
            s.lm.completion_tokens,
            s.lm.virtual_seconds
        );
    }
    out.push('\n');
    for a in &s.annotations {
        for line in a.lines() {
            let _ = writeln!(out, "{pad}  | {line}");
        }
    }
    for (j, child) in spans.iter().enumerate() {
        if child.parent == Some(s.id) {
            render_span(out, spans, j, depth + 1);
        }
    }
}

/// Pretty-print a span tree (the `TRACE <id>` response format). Spans
/// whose parent is absent from the slice are rendered as roots.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for (i, s) in spans.iter().enumerate() {
        let is_root = match s.parent {
            None => true,
            Some(p) => !ids.contains(&p),
        };
        if is_root {
            render_span(&mut out, spans, i, 0);
        }
    }
    out
}

/// Each span's self time: its wall time less its children's, in the
/// order of `spans`. Spans nest (a stage span holds its plan-node spans,
/// a node span its inputs'), so summing full walls counts nested time
/// once per enclosing span; self times of one tree sum to its root's
/// wall. A child whose parent is absent from the slice subtracts from
/// nothing, and a parent never goes below zero.
pub fn self_times(spans: &[SpanRecord]) -> Vec<Duration> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<Duration> = spans.iter().map(|s| s.wall).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            own[p] = own[p].saturating_sub(s.wall);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: Option<u64>, stage: Stage) -> SpanRecord {
        SpanRecord {
            trace_id: 7,
            id,
            parent,
            stage,
            label: format!("span-{id}"),
            start_us: id * 10,
            wall: Duration::from_micros(100 * id),
            lm: LmUsage::default(),
            rows: None,
            annotations: Vec::new(),
        }
    }

    #[test]
    fn stage_roundtrip_and_index() {
        for (i, st) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(st.index(), i);
            assert_eq!(Stage::parse(st.as_str()), Some(st));
        }
        assert_eq!(Stage::parse("bogus"), None);
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut s = record(1, None, Stage::Exec);
        s.label = "quote \" slash \\ newline \n tab \t".into();
        s.annotations.push("ctrl \u{1} char".into());
        let json = s.to_json();
        assert!(
            json.contains(r#"quote \" slash \\ newline \n tab \t"#),
            "{json}"
        );
        assert!(json.contains(r"ctrl \u0001 char"), "{json}");
        assert!(json.contains("\"parent\":null"), "{json}");
        assert!(json.contains("\"rows\":null"), "{json}");
    }

    #[test]
    fn json_has_all_fields() {
        let mut s = record(2, Some(1), Stage::Gen);
        s.lm = LmUsage {
            calls: 3,
            rounds: 1,
            cache_hits: 2,
            prompt_tokens: 640,
            completion_tokens: 12,
            virtual_seconds: 4.5,
        };
        s.rows = Some(42);
        let json = s.to_json();
        for key in [
            "\"trace\":7",
            "\"span\":2",
            "\"parent\":1",
            "\"stage\":\"gen\"",
            "\"lm_calls\":3",
            "\"lm_rounds\":1",
            "\"cache_hits\":2",
            "\"prompt_tokens\":640",
            "\"completion_tokens\":12",
            "\"virtual_s\":4.500000",
            "\"rows\":42",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn tree_renders_nested_spans() {
        let mut spans = vec![
            record(1, None, Stage::Request),
            record(2, Some(1), Stage::Syn),
            record(3, Some(1), Stage::Exec),
            record(4, Some(3), Stage::Exec),
        ];
        spans[3].rows = Some(7);
        let tree = render_tree(&spans);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("  rows=7"), "{tree}");
        assert!(!lines[2].contains("rows="), "{tree}");
        assert!(lines[0].starts_with("[request]"));
        assert!(lines[1].starts_with("  [syn]"));
        assert!(lines[2].starts_with("  [exec]"));
        assert!(lines[3].starts_with("    [exec]"));
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_root() {
        // 1 (1000us) holds 2 (300us) and 3 (500us); 3 holds 4 (200us).
        let mut spans = vec![
            record(4, Some(3), Stage::Exec),
            record(2, Some(1), Stage::Syn),
            record(3, Some(1), Stage::Exec),
            record(1, None, Stage::Request),
            record(9, Some(99), Stage::Gen),
        ];
        for (s, us) in spans.iter_mut().zip([200, 300, 500, 1000, 50]) {
            s.wall = Duration::from_micros(us);
        }
        let own = self_times(&spans);
        let us: Vec<u128> = own.iter().map(|d| d.as_micros()).collect();
        assert_eq!(us, [200, 300, 300, 200, 50]);
        assert_eq!(own[..4].iter().sum::<Duration>(), spans[3].wall);
    }

    #[test]
    fn orphan_spans_render_as_roots() {
        let spans = vec![record(5, Some(99), Stage::Gen)];
        let tree = render_tree(&spans);
        assert!(tree.starts_with("[gen]"), "{tree}");
    }

    #[test]
    fn usage_add_accumulates() {
        let mut a = LmUsage::default();
        assert!(a.is_zero());
        let b = LmUsage {
            calls: 1,
            rounds: 1,
            cache_hits: 0,
            prompt_tokens: 10,
            completion_tokens: 5,
            virtual_seconds: 0.25,
        };
        a.add(&b);
        a.add(&b);
        assert_eq!(a.calls, 2);
        assert_eq!(a.prompt_tokens, 20);
        assert!((a.virtual_seconds - 0.5).abs() < 1e-12);
        assert!(!a.is_zero());
    }
}
