//! Operator-level execution profiling: `EXPLAIN ANALYZE` for the plan
//! tree.
//!
//! A [`PlanProfiler`] is threaded (as `Option<&PlanProfiler>`) through
//! the executor so both the profiled and unprofiled paths run *the same
//! code* — profiling only observes; it never changes results. Each plan
//! node records rows out and elapsed wall-clock time; rows in are
//! derived from the children's rows out via parent links.

use crate::plan::Plan;
use crate::semplan::LmCost;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Stats for one executed plan node.
#[derive(Debug, Clone)]
pub struct NodeProfile {
    /// One-line operator label ("TableScan schools", "HashJoin Inner ...").
    pub label: String,
    /// Depth in the plan tree (0 = root).
    pub depth: usize,
    /// Index of the parent node in the profile vector.
    pub parent: Option<usize>,
    /// Rows received from child operators (sum of children's rows out;
    /// 0 for leaves, which read from storage instead).
    pub rows_in: usize,
    /// Rows produced.
    pub rows_out: usize,
    /// Wall-clock time in this node *including* its children.
    pub elapsed: Duration,
    /// LM prompts this node caused (semantic plan nodes only; always 0
    /// for relational operators). Excludes work done by children.
    pub lm_calls: u64,
    /// Prompt tokens consumed by this node's LM calls.
    pub lm_prompt_tokens: u64,
    /// Completion tokens produced by this node's LM calls.
    pub lm_completion_tokens: u64,
}

struct OpenNode {
    label: String,
    depth: usize,
    parent: Option<usize>,
    started: Instant,
}

#[derive(Default)]
struct ProfState {
    /// Completed + in-flight nodes, in pre-order (enter order).
    nodes: Vec<Option<NodeProfile>>,
    open: Vec<(usize, OpenNode)>,
}

/// Records per-node execution stats for one plan execution. Single-
/// threaded by design (the executor is single-threaded); not `Sync`.
#[derive(Default)]
pub struct PlanProfiler {
    state: RefCell<ProfState>,
}

impl PlanProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a node; returns a token to pass to [`PlanProfiler::exit`].
    pub(crate) fn enter(&self, label: String) -> usize {
        let mut s = self.state.borrow_mut();
        let idx = s.nodes.len();
        let depth = s.open.len();
        let parent = s.open.last().map(|(i, _)| *i);
        s.nodes.push(None);
        s.open.push((
            idx,
            OpenNode {
                label,
                depth,
                parent,
                started: Instant::now(),
            },
        ));
        idx
    }

    /// Finish the node `token`, recording its output cardinality.
    pub(crate) fn exit(&self, token: usize, rows_out: usize) {
        self.exit_lm(token, rows_out, LmCost::default());
    }

    /// Finish the node `token`, recording output cardinality plus the LM
    /// cost this node caused (semantic plan nodes).
    pub(crate) fn exit_lm(&self, token: usize, rows_out: usize, cost: LmCost) {
        let mut s = self.state.borrow_mut();
        // Normally the token is the top of the open stack; pop down to it
        // so error unwinds (which skip exits) cannot wedge the stack.
        while let Some((idx, open)) = s.open.pop() {
            let done = idx == token;
            let profile = NodeProfile {
                label: open.label,
                depth: open.depth,
                parent: open.parent,
                rows_in: 0,
                rows_out: if done { rows_out } else { 0 },
                elapsed: open.started.elapsed(),
                lm_calls: if done { cost.calls } else { 0 },
                lm_prompt_tokens: if done { cost.prompt_tokens } else { 0 },
                lm_completion_tokens: if done { cost.completion_tokens } else { 0 },
            };
            s.nodes[idx] = Some(profile);
            if done {
                break;
            }
        }
    }

    /// Completed node profiles in pre-order, with `rows_in` filled from
    /// the children's `rows_out`.
    pub fn nodes(&self) -> Vec<NodeProfile> {
        let s = self.state.borrow();
        let mut out: Vec<NodeProfile> = s.nodes.iter().flatten().cloned().collect();
        let ins: Vec<usize> = out
            .iter()
            .enumerate()
            .map(|(i, _)| {
                out.iter()
                    .filter(|n| n.parent == Some(i))
                    .map(|n| n.rows_out)
                    .sum()
            })
            .collect();
        for (n, rows_in) in out.iter_mut().zip(ins) {
            n.rows_in = rows_in;
        }
        out
    }

    /// Render the `EXPLAIN ANALYZE`-style annotated plan.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in self.nodes() {
            let pad = "  ".repeat(n.depth);
            let lm = if n.lm_calls > 0 {
                format!(
                    " lm_calls={} lm_tokens={}",
                    n.lm_calls,
                    n.lm_prompt_tokens + n.lm_completion_tokens
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{pad}{}  (in={} out={} time={}{lm})",
                n.label,
                n.rows_in,
                n.rows_out,
                fmt_duration(n.elapsed)
            );
        }
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

/// One-line label for a plan node (no children), matching the vocabulary
/// of [`Plan::explain`].
pub(crate) fn node_label(plan: &Plan) -> String {
    match plan {
        Plan::TableScan { table, .. } => format!("TableScan {table}"),
        Plan::IndexProbe {
            table, key_column, ..
        } => format!("IndexProbe {table} col#{key_column}"),
        Plan::IndexRangeScan {
            table, key_column, ..
        } => format!("IndexRangeScan {table} col#{key_column}"),
        Plan::Values { rows, .. } => format!("Values ({} rows)", rows.len()),
        Plan::Filter { .. } => "Filter".to_string(),
        Plan::Project { .. } => "Project".to_string(),
        Plan::NestedLoopJoin { kind, .. } => format!("NestedLoopJoin {kind}"),
        Plan::HashJoin { kind, .. } => format!("HashJoin {kind}"),
        Plan::Aggregate { group, aggs, .. } => {
            format!("Aggregate groups={} aggs={}", group.len(), aggs.len())
        }
        Plan::Sort { keys, .. } => format!("Sort {} keys", keys.len()),
        Plan::TopK { k, offset, .. } => format!("TopK k={k} offset={offset}"),
        Plan::Limit { limit, offset, .. } => format!("Limit limit={limit:?} offset={offset}"),
        Plan::Distinct { .. } => "Distinct".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_enters_build_a_tree() {
        let p = PlanProfiler::new();
        let root = p.enter("Filter".into());
        let child = p.enter("TableScan t".into());
        p.exit(child, 10);
        p.exit(root, 4);
        let nodes = p.nodes();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].label, "Filter");
        assert_eq!(nodes[0].depth, 0);
        assert_eq!(nodes[0].parent, None);
        assert_eq!(nodes[0].rows_in, 10, "filter input = scan output");
        assert_eq!(nodes[0].rows_out, 4);
        assert_eq!(nodes[1].parent, Some(0));
        assert_eq!(nodes[1].rows_in, 0, "leaf reads storage");
        assert!(nodes[1].elapsed <= nodes[0].elapsed);
    }

    #[test]
    fn render_is_indented_and_annotated() {
        let p = PlanProfiler::new();
        let root = p.enter("Sort 1 keys".into());
        let child = p.enter("TableScan t".into());
        p.exit(child, 3);
        p.exit(root, 3);
        let text = p.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("Sort 1 keys  (in=3 out=3"), "{text}");
        assert!(lines[1].starts_with("  TableScan t  (in=0 out=3"), "{text}");
        assert!(lines[0].contains("time="), "{text}");
    }

    #[test]
    fn missing_exit_is_flushed_with_zero_rows() {
        // Simulates an executor error unwind: the child never exits.
        let p = PlanProfiler::new();
        let root = p.enter("Filter".into());
        let _child = p.enter("TableScan t".into());
        p.exit(root, 0);
        let nodes = p.nodes();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].rows_out, 0);
    }
}
