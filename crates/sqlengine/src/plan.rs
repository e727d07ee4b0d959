//! Physical query plans.
//!
//! The planner binds a parsed statement into a [`Plan`] tree whose
//! expressions are fully resolved ([`BoundExpr`]); the optimizer rewrites
//! the tree; the executor materializes it bottom-up. Every node knows its
//! output column names, which makes `EXPLAIN`-style rendering and width
//! checks straightforward.

use crate::ast::JoinKind;
use crate::expr::BoundExpr;
use crate::value::Value;
use std::fmt::Write as _;
use std::ops::Bound;

/// Aggregate function kinds supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(expr)` / `COUNT(*)` when `arg` is `None`.
    Count,
    /// `SUM(expr)` — NULL over an empty input.
    Sum,
    /// `TOTAL(expr)` — like SUM but 0.0 over an empty input (SQLite).
    Total,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `GROUP_CONCAT(expr [, sep])` — separator handled at plan level.
    GroupConcat,
}

impl AggFunc {
    /// Parse an aggregate function name.
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "TOTAL" => Some(AggFunc::Total),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "GROUP_CONCAT" => Some(AggFunc::GroupConcat),
            _ => None,
        }
    }
}

/// One aggregate computation inside an [`Plan::Aggregate`] node.
#[derive(Debug, Clone)]
pub struct AggCall {
    /// Which function.
    pub func: AggFunc,
    /// Argument expression over the aggregate input; `None` for COUNT(*).
    pub arg: Option<BoundExpr>,
    /// DISTINCT modifier.
    pub distinct: bool,
    /// Separator for GROUP_CONCAT (default ",").
    pub separator: String,
    /// Output column name.
    pub name: String,
}

/// A sort key: expression over the input plus direction.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Key expression over the input row.
    pub expr: BoundExpr,
    /// Sort descending?
    pub descending: bool,
}

/// Range bounds for an index range scan, as literal values.
#[derive(Debug, Clone)]
pub struct IndexRange {
    /// Lower bound on the key.
    pub low: Bound<Value>,
    /// Upper bound on the key.
    pub high: Bound<Value>,
}

/// A physical plan node. Executed bottom-up, materializing each output.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Plan {
    /// Full scan of a named table.
    TableScan {
        /// Table name in the catalog.
        table: String,
        /// Output column names (the table's schema names).
        columns: Vec<String>,
    },
    /// Equality probe into an index.
    IndexProbe {
        /// Table name in the catalog.
        table: String,
        /// Output column names.
        columns: Vec<String>,
        /// Indexed column position.
        key_column: usize,
        /// Probe key (constant-folded at plan time).
        key: Value,
    },
    /// Ordered range scan over a B-tree index.
    IndexRangeScan {
        /// Table name in the catalog.
        table: String,
        /// Output column names.
        columns: Vec<String>,
        /// Indexed column position.
        key_column: usize,
        /// Key range.
        range: IndexRange,
    },
    /// Literal rows (used for table-less selects).
    Values {
        /// Output column names.
        columns: Vec<String>,
        /// Row expressions (constants by construction).
        rows: Vec<Vec<BoundExpr>>,
    },
    /// Filter rows by a predicate.
    Filter {
        input: Box<Plan>,
        predicate: BoundExpr,
    },
    /// Compute output expressions per row.
    Project {
        input: Box<Plan>,
        exprs: Vec<BoundExpr>,
        columns: Vec<String>,
    },
    /// Nested-loop join; `on` evaluates over the concatenated row.
    NestedLoopJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinKind,
        on: Option<BoundExpr>,
    },
    /// Hash equi-join on one key pair, with optional residual predicate
    /// over the concatenated row.
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinKind,
        /// Key over the left row.
        left_key: BoundExpr,
        /// Key over the right row (indices relative to the right row).
        right_key: BoundExpr,
        /// Residual predicate over the concatenated row.
        residual: Option<BoundExpr>,
    },
    /// Group-by aggregation. Output = group exprs then agg results.
    Aggregate {
        input: Box<Plan>,
        group: Vec<BoundExpr>,
        group_names: Vec<String>,
        aggs: Vec<AggCall>,
    },
    /// Full sort by keys.
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
    },
    /// Heap-based top-k sort: equivalent to Sort + Limit but O(n log k).
    TopK {
        input: Box<Plan>,
        keys: Vec<SortKey>,
        k: usize,
        offset: usize,
    },
    /// Row-count limiting.
    Limit {
        input: Box<Plan>,
        limit: Option<u64>,
        offset: u64,
    },
    /// Duplicate elimination over whole rows.
    Distinct { input: Box<Plan> },
}

impl Plan {
    /// Output column names of this node.
    pub fn columns(&self) -> Vec<String> {
        match self {
            Plan::TableScan { columns, .. }
            | Plan::IndexProbe { columns, .. }
            | Plan::IndexRangeScan { columns, .. }
            | Plan::Values { columns, .. }
            | Plan::Project { columns, .. } => columns.clone(),
            Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input } => input.columns(),
            Plan::NestedLoopJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                let mut cols = left.columns();
                cols.extend(right.columns());
                cols
            }
            Plan::Aggregate {
                group_names, aggs, ..
            } => {
                let mut cols = group_names.clone();
                cols.extend(aggs.iter().map(|a| a.name.clone()));
                cols
            }
        }
    }

    /// Output width (column count).
    pub fn width(&self) -> usize {
        match self {
            Plan::TableScan { columns, .. }
            | Plan::IndexProbe { columns, .. }
            | Plan::IndexRangeScan { columns, .. }
            | Plan::Values { columns, .. }
            | Plan::Project { columns, .. } => columns.len(),
            Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input } => input.width(),
            Plan::NestedLoopJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                left.width() + right.width()
            }
            Plan::Aggregate { group, aggs, .. } => group.len() + aggs.len(),
        }
    }

    /// Rebuild the plan with every embedded expression transformed.
    pub fn map_exprs(&self, f: &dyn Fn(&BoundExpr) -> BoundExpr) -> Plan {
        match self {
            Plan::TableScan { .. } | Plan::IndexProbe { .. } | Plan::IndexRangeScan { .. } => {
                self.clone()
            }
            Plan::Values { columns, rows } => Plan::Values {
                columns: columns.clone(),
                rows: rows.iter().map(|r| r.iter().map(f).collect()).collect(),
            },
            Plan::Filter { input, predicate } => Plan::Filter {
                input: Box::new(input.map_exprs(f)),
                predicate: f(predicate),
            },
            Plan::Project {
                input,
                exprs,
                columns,
            } => Plan::Project {
                input: Box::new(input.map_exprs(f)),
                exprs: exprs.iter().map(f).collect(),
                columns: columns.clone(),
            },
            Plan::NestedLoopJoin {
                left,
                right,
                kind,
                on,
            } => Plan::NestedLoopJoin {
                left: Box::new(left.map_exprs(f)),
                right: Box::new(right.map_exprs(f)),
                kind: *kind,
                on: on.as_ref().map(f),
            },
            Plan::HashJoin {
                left,
                right,
                kind,
                left_key,
                right_key,
                residual,
            } => Plan::HashJoin {
                left: Box::new(left.map_exprs(f)),
                right: Box::new(right.map_exprs(f)),
                kind: *kind,
                left_key: f(left_key),
                right_key: f(right_key),
                residual: residual.as_ref().map(f),
            },
            Plan::Aggregate {
                input,
                group,
                group_names,
                aggs,
            } => Plan::Aggregate {
                input: Box::new(input.map_exprs(f)),
                group: group.iter().map(f).collect(),
                group_names: group_names.clone(),
                aggs: aggs
                    .iter()
                    .map(|a| AggCall {
                        func: a.func,
                        arg: a.arg.as_ref().map(f),
                        distinct: a.distinct,
                        separator: a.separator.clone(),
                        name: a.name.clone(),
                    })
                    .collect(),
            },
            Plan::Sort { input, keys } => Plan::Sort {
                input: Box::new(input.map_exprs(f)),
                keys: keys
                    .iter()
                    .map(|k| SortKey {
                        expr: f(&k.expr),
                        descending: k.descending,
                    })
                    .collect(),
            },
            Plan::TopK {
                input,
                keys,
                k,
                offset,
            } => Plan::TopK {
                input: Box::new(input.map_exprs(f)),
                keys: keys
                    .iter()
                    .map(|sk| SortKey {
                        expr: f(&sk.expr),
                        descending: sk.descending,
                    })
                    .collect(),
                k: *k,
                offset: *offset,
            },
            Plan::Limit {
                input,
                limit,
                offset,
            } => Plan::Limit {
                input: Box::new(input.map_exprs(f)),
                limit: *limit,
                offset: *offset,
            },
            Plan::Distinct { input } => Plan::Distinct {
                input: Box::new(input.map_exprs(f)),
            },
        }
    }

    /// Visit every embedded expression (including the expressions of any
    /// nested correlated subplans).
    pub fn visit_exprs(&self, f: &mut dyn FnMut(&BoundExpr)) {
        match self {
            Plan::TableScan { .. } | Plan::IndexProbe { .. } | Plan::IndexRangeScan { .. } => {}
            Plan::Values { rows, .. } => {
                for r in rows {
                    for e in r {
                        e.visit_refs(f);
                    }
                }
            }
            Plan::Filter { input, predicate } => {
                predicate.visit_refs(f);
                input.visit_exprs(f);
            }
            Plan::Project { input, exprs, .. } => {
                for e in exprs {
                    e.visit_refs(f);
                }
                input.visit_exprs(f);
            }
            Plan::NestedLoopJoin {
                left, right, on, ..
            } => {
                if let Some(e) = on {
                    e.visit_refs(f);
                }
                left.visit_exprs(f);
                right.visit_exprs(f);
            }
            Plan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                residual,
                ..
            } => {
                left_key.visit_refs(f);
                right_key.visit_refs(f);
                if let Some(e) = residual {
                    e.visit_refs(f);
                }
                left.visit_exprs(f);
                right.visit_exprs(f);
            }
            Plan::Aggregate {
                input, group, aggs, ..
            } => {
                for e in group {
                    e.visit_refs(f);
                }
                for a in aggs {
                    if let Some(e) = &a.arg {
                        e.visit_refs(f);
                    }
                }
                input.visit_exprs(f);
            }
            Plan::Sort { input, keys } | Plan::TopK { input, keys, .. } => {
                for k in keys {
                    k.expr.visit_refs(f);
                }
                input.visit_exprs(f);
            }
            Plan::Limit { input, .. } | Plan::Distinct { input } => input.visit_exprs(f),
        }
    }

    /// Rewrite the outer references of this (correlated) subplan through
    /// `outer`, leaving the subplan's own column references intact.
    pub fn rewrite_outer(&self, outer: &dyn Fn(usize) -> BoundExpr) -> Plan {
        self.map_exprs(&|e| e.rewrite_refs(&BoundExpr::ColumnRef, outer))
    }

    /// Remap outer-reference positions (used when the *enclosing* query's
    /// columns are reshuffled).
    pub fn remap_outer(&self, map: &dyn Fn(usize) -> usize) -> Plan {
        self.rewrite_outer(&|i| BoundExpr::OuterRef(map(i)))
    }

    /// Substitute the enclosing query's current row into every outer
    /// reference, producing an executable (uncorrelated) plan.
    pub fn substitute_outer(&self, outer_row: &[Value]) -> Plan {
        self.rewrite_outer(&|i| {
            BoundExpr::Literal(outer_row.get(i).cloned().unwrap_or(Value::Null))
        })
    }

    /// Collect the outer-reference positions used anywhere in the plan.
    pub fn collect_outer_refs(&self, out: &mut std::collections::BTreeSet<usize>) {
        self.visit_exprs(&mut |e| {
            if let BoundExpr::OuterRef(i) = e {
                out.insert(*i);
            }
        });
    }

    /// Does the plan reference its enclosing query's row?
    pub fn contains_outer_ref(&self) -> bool {
        let mut found = false;
        self.visit_exprs(&mut |e| {
            if matches!(e, BoundExpr::OuterRef(_)) {
                found = true;
            }
        });
        found
    }

    /// One-line label for this node alone: the head of its
    /// [`Plan::explain`] line, and the name of the node's trace span
    /// when a traced statement runs it.
    pub fn label(&self) -> String {
        match self {
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
            Plan::Aggregate { .. } => "Aggregate".to_string(),
            Plan::Sort { keys, .. } => format!("Sort {} keys", keys.len()),
            Plan::TopK { k, offset, .. } => format!("TopK k={k} offset={offset}"),
            Plan::Limit { limit, offset, .. } => format!("Limit limit={limit:?} offset={offset}"),
            Plan::Distinct { .. } => "Distinct".to_string(),
        }
    }

    /// The node's inputs in execution order (a join's left first).
    pub fn inputs(&self) -> Vec<&Plan> {
        match self {
            Plan::TableScan { .. }
            | Plan::IndexProbe { .. }
            | Plan::IndexRangeScan { .. }
            | Plan::Values { .. } => Vec::new(),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input } => vec![input],
            Plan::NestedLoopJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Render an indented EXPLAIN-style tree: one line per node, its
    /// [`Plan::label`] and then what the label leaves out.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let detail = match self {
            Plan::IndexProbe { key, .. } => format!(" = {}", key.to_sql_literal()),
            Plan::Filter { predicate, .. } => format!(" {predicate:?}"),
            Plan::Project { exprs, .. } => format!(" {exprs:?}"),
            Plan::NestedLoopJoin { on, .. } => format!(" on={on:?}"),
            Plan::HashJoin {
                left_key,
                right_key,
                residual,
                ..
            } => format!(" {left_key:?} = {right_key:?} residual={residual:?}"),
            Plan::Aggregate { group, aggs, .. } => format!(
                " groups={group:?} aggs={}",
                aggs.iter()
                    .map(|a| format!("{:?}({:?})", a.func, a.arg))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Plan::TopK { keys, .. } => format!(" ({} keys)", keys.len()),
            _ => String::new(),
        };
        let _ = writeln!(out, "{}{}{detail}", "  ".repeat(depth), self.label());
        for input in self.inputs() {
            input.explain_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan() -> Plan {
        Plan::TableScan {
            table: "t".into(),
            columns: vec!["a".into(), "b".into()],
        }
    }

    #[test]
    fn columns_flow_through_unary_nodes() {
        let p = Plan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Literal(Value::Int(1)),
        };
        assert_eq!(p.columns(), vec!["a", "b"]);
        assert_eq!(p.width(), 2);
    }

    #[test]
    fn join_concatenates_columns() {
        let p = Plan::NestedLoopJoin {
            left: Box::new(scan()),
            right: Box::new(Plan::TableScan {
                table: "u".into(),
                columns: vec!["c".into()],
            }),
            kind: JoinKind::Inner,
            on: None,
        };
        assert_eq!(p.columns(), vec!["a", "b", "c"]);
        assert_eq!(p.width(), 3);
    }

    #[test]
    fn aggregate_columns() {
        let p = Plan::Aggregate {
            input: Box::new(scan()),
            group: vec![BoundExpr::ColumnRef(0)],
            group_names: vec!["a".into()],
            aggs: vec![AggCall {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
                separator: ",".into(),
                name: "count(*)".into(),
            }],
        };
        assert_eq!(p.columns(), vec!["a", "count(*)"]);
    }

    #[test]
    fn explain_renders_tree() {
        let p = Plan::Limit {
            input: Box::new(scan()),
            limit: Some(10),
            offset: 0,
        };
        let text = p.explain();
        assert!(text.contains("Limit"));
        assert!(text.contains("  TableScan t"));
    }

    #[test]
    fn agg_func_parse() {
        assert_eq!(AggFunc::parse("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("GROUP_CONCAT"), Some(AggFunc::GroupConcat));
        assert_eq!(AggFunc::parse("lower"), None);
    }
}
