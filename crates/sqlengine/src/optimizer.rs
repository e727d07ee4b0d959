//! Rule-based plan optimizer.
//!
//! Rules applied (in order, to fixpoint-ish effect):
//!
//! 1. **Constant folding** of deterministic constant predicates.
//! 2. **Predicate pushdown**: filters split into conjuncts and pushed
//!    below projections (when safe), through joins to the producing side,
//!    and merged with adjacent filters.
//! 3. **Hash-join selection**: nested-loop equi-joins become hash joins
//!    with any non-equi conjuncts kept as residual predicates.
//! 4. **Index selection**: equality / range conjuncts over an indexed
//!    base-table column turn scans into index probes / range scans.
//! 5. **Top-k**: `Limit(Sort(x))` becomes a heap-based `TopK`.
//! 6. **Column pruning**, once, after the passes above: each node is
//!    told which of its columns the nodes above it read, and a
//!    column-only `Project` keeps just those directly above each access
//!    path (a table leaf with the filters stacked on it; `Values` is
//!    left alone). Every expression above is remapped to the narrower
//!    rows. No expression that computes something is dropped, moved,
//!    reordered or duplicated, so each one sees the same rows in the
//!    same order and the first error stays the first error. The
//!    executor runs a column-only `Project` as a view, so the pruned
//!    columns are never copied.

use crate::ast::{BinOp, JoinKind};
use crate::catalog::Catalog;
use crate::expr::{column_only, BoundExpr};
use crate::plan::{AggCall, IndexRange, Plan, SortKey};
use crate::table::IndexKind;
use crate::value::Value;
use std::collections::BTreeSet;
use std::ops::Bound;

/// Optimize a plan against the given catalog (used to discover indexes).
pub fn optimize(plan: Plan, catalog: &Catalog) -> Plan {
    prune_columns(rewrite_twice(plan, catalog))
}

/// Rules 1–5. A second pass lets pushdowns enable index selection.
fn rewrite_twice(plan: Plan, catalog: &Catalog) -> Plan {
    let plan = rewrite(plan, catalog);
    rewrite(plan, catalog)
}

/// [`optimize`] without rule 6: the plan column pruning starts from,
/// so a test can hold the two against each other.
#[cfg(test)]
pub(crate) fn optimize_unpruned(plan: Plan, catalog: &Catalog) -> Plan {
    rewrite_twice(plan, catalog)
}

fn rewrite(plan: Plan, catalog: &Catalog) -> Plan {
    // Bottom-up: rewrite children first.
    let plan = map_children(plan, catalog);
    match plan {
        Plan::Filter { input, predicate } => rewrite_filter(*input, predicate, catalog),
        Plan::NestedLoopJoin {
            left,
            right,
            kind,
            on: Some(on),
        } => try_hash_join(*left, *right, kind, on),
        Plan::Limit {
            input,
            limit: Some(limit),
            offset,
        } => try_topk(*input, limit, offset),
        other => other,
    }
}

fn map_children(plan: Plan, catalog: &Catalog) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(rewrite(*input, catalog)),
            predicate,
        },
        Plan::Project {
            input,
            exprs,
            columns,
        } => Plan::Project {
            input: Box::new(rewrite(*input, catalog)),
            exprs,
            columns,
        },
        Plan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
        } => Plan::NestedLoopJoin {
            left: Box::new(rewrite(*left, catalog)),
            right: Box::new(rewrite(*right, catalog)),
            kind,
            on,
        },
        Plan::HashJoin {
            left,
            right,
            kind,
            left_key,
            right_key,
            residual,
        } => Plan::HashJoin {
            left: Box::new(rewrite(*left, catalog)),
            right: Box::new(rewrite(*right, catalog)),
            kind,
            left_key,
            right_key,
            residual,
        },
        Plan::Aggregate {
            input,
            group,
            group_names,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(rewrite(*input, catalog)),
            group,
            group_names,
            aggs,
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(rewrite(*input, catalog)),
            keys,
        },
        Plan::TopK {
            input,
            keys,
            k,
            offset,
        } => Plan::TopK {
            input: Box::new(rewrite(*input, catalog)),
            keys,
            k,
            offset,
        },
        Plan::Limit {
            input,
            limit,
            offset,
        } => Plan::Limit {
            input: Box::new(rewrite(*input, catalog)),
            limit,
            offset,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(rewrite(*input, catalog)),
        },
        // Semantic plans have their own rule set (crate::semopt), applied
        // by the semantic runtime before caching; the relational
        // optimizer passes them through untouched.
        leaf @ (Plan::TableScan { .. }
        | Plan::IndexProbe { .. }
        | Plan::IndexRangeScan { .. }
        | Plan::Values { .. }) => leaf,
    }
}

/// Split a predicate into AND-ed conjuncts.
pub fn split_conjuncts(expr: BoundExpr, out: &mut Vec<BoundExpr>) {
    match expr {
        BoundExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            split_conjuncts(*lhs, out);
            split_conjuncts(*rhs, out);
        }
        other => out.push(other),
    }
}

/// Reassemble conjuncts into one predicate: `rest` folded, in order,
/// around `last` (`[a, b]` and `c` give `b AND (a AND c)`).
fn conjoin(rest: Vec<BoundExpr>, last: BoundExpr) -> BoundExpr {
    rest.into_iter().fold(last, |acc, p| BoundExpr::Binary {
        op: BinOp::And,
        lhs: Box::new(p),
        rhs: Box::new(acc),
    })
}

/// [`conjoin`] of a list's last conjunct and the rest; `None` when the
/// list is empty.
fn conjoin_all(mut parts: Vec<BoundExpr>) -> Option<BoundExpr> {
    let last = parts.pop()?;
    Some(conjoin(parts, last))
}

fn rewrite_filter(input: Plan, predicate: BoundExpr, catalog: &Catalog) -> Plan {
    let mut conjuncts = Vec::new();
    split_conjuncts(predicate, &mut conjuncts);

    // Constant folding on each conjunct.
    let mut kept = Vec::new();
    for c in conjuncts {
        if c.is_constant() {
            match c.eval(&[]) {
                Ok(v) => match v.truthiness() {
                    Some(true) => continue, // always true: drop
                    Some(false) | None => {
                        // Always-false filter: emit an empty Values node
                        // with the right arity.
                        return empty_result_like(&input);
                    }
                },
                Err(_) => kept.push(c), // fold failed; evaluate at runtime
            }
        } else {
            kept.push(c);
        }
    }
    let Some(last) = kept.pop() else {
        return input;
    };

    match input {
        // Merge stacked filters.
        Plan::Filter {
            input: inner,
            predicate: inner_pred,
        } => {
            let mut inner_parts = Vec::new();
            split_conjuncts(inner_pred, &mut inner_parts);
            inner_parts.extend(kept);
            rewrite_filter(*inner, conjoin(inner_parts, last), catalog)
        }
        // Push through pure-column projections.
        Plan::Project {
            input: inner,
            exprs,
            columns,
        } => {
            if let Some(mapping) = column_only(&exprs) {
                let remap = |c: BoundExpr| c.remap_columns(&|i| mapping[i]);
                let rest = kept.into_iter().map(remap).collect();
                let pushed = Plan::Filter {
                    input: inner,
                    predicate: conjoin(rest, remap(last)),
                };
                Plan::Project {
                    input: Box::new(rewrite(pushed, catalog)),
                    exprs,
                    columns,
                }
            } else {
                Plan::Filter {
                    input: Box::new(Plan::Project {
                        input: inner,
                        exprs,
                        columns,
                    }),
                    predicate: conjoin(kept, last),
                }
            }
        }
        // Push into join sides.
        Plan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
        } => push_into_join(
            *left,
            *right,
            kind,
            on,
            with_last(kept, last),
            catalog,
            |l, r, k, o| Plan::NestedLoopJoin {
                left: Box::new(l),
                right: Box::new(r),
                kind: k,
                on: o,
            },
        ),
        Plan::HashJoin {
            left,
            right,
            kind,
            left_key,
            right_key,
            residual,
        } => push_into_join(
            *left,
            *right,
            kind,
            residual,
            with_last(kept, last),
            catalog,
            {
                let left_key = left_key.clone();
                let right_key = right_key.clone();
                move |l, r, k, res| Plan::HashJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    kind: k,
                    left_key: left_key.clone(),
                    right_key: right_key.clone(),
                    residual: res,
                }
            },
        ),
        // Index selection over a base table scan.
        Plan::TableScan { table, columns } => {
            index_select(table, columns, with_last(kept, last), catalog)
        }
        other => Plan::Filter {
            input: Box::new(other),
            predicate: conjoin(kept, last),
        },
    }
}

/// `parts` with `last` put back at the end.
fn with_last(mut parts: Vec<BoundExpr>, last: BoundExpr) -> Vec<BoundExpr> {
    parts.push(last);
    parts
}

fn empty_result_like(input: &Plan) -> Plan {
    Plan::Values {
        columns: input.columns(),
        rows: Vec::new(),
    }
}

#[allow(clippy::too_many_arguments)]
fn push_into_join(
    left: Plan,
    right: Plan,
    kind: JoinKind,
    on: Option<BoundExpr>,
    conjuncts: Vec<BoundExpr>,
    catalog: &Catalog,
    rebuild: impl Fn(Plan, Plan, JoinKind, Option<BoundExpr>) -> Plan,
) -> Plan {
    let left_width = left.width();
    let mut push_left = Vec::new();
    let mut push_right = Vec::new();
    let mut stay = Vec::new();
    for c in conjuncts {
        let mut cols = BTreeSet::new();
        c.referenced_columns(&mut cols);
        let only_left = cols.iter().all(|&i| i < left_width);
        let only_right = cols.iter().all(|&i| i >= left_width);
        if only_left && !cols.is_empty() {
            push_left.push(c);
        } else if only_right && kind == JoinKind::Inner {
            // For LEFT joins, filtering the right side below the join
            // would turn non-matches into NULL rows instead of dropping
            // them, so the predicate must stay above.
            push_right.push(c.remap_columns(&|i| i - left_width));
        } else {
            stay.push(c);
        }
    }
    let new_left = if let Some(p) = conjoin_all(push_left) {
        rewrite(
            Plan::Filter {
                input: Box::new(left),
                predicate: p,
            },
            catalog,
        )
    } else {
        left
    };
    let new_right = if let Some(p) = conjoin_all(push_right) {
        rewrite(
            Plan::Filter {
                input: Box::new(right),
                predicate: p,
            },
            catalog,
        )
    } else {
        right
    };
    let joined = rewrite(rebuild(new_left, new_right, kind, on), catalog);
    match conjoin_all(stay) {
        Some(p) => Plan::Filter {
            input: Box::new(joined),
            predicate: p,
        },
        None => joined,
    }
}

/// Convert `Filter(TableScan)` into an index probe / range scan when an
/// index covers one of the conjuncts.
fn index_select(
    table: String,
    columns: Vec<String>,
    conjuncts: Vec<BoundExpr>,
    catalog: &Catalog,
) -> Plan {
    let Ok(t) = catalog.table(&table) else {
        return fallback_filter(table, columns, conjuncts);
    };

    // Find the first conjunct usable with an existing index.
    for (i, c) in conjuncts.iter().enumerate() {
        if let Some((col, key)) = as_eq_literal(c) {
            if let Some(idx) = t.index_on(col) {
                let _ = idx;
                let mut rest = conjuncts.clone();
                rest.remove(i);
                let probe = Plan::IndexProbe {
                    table,
                    columns,
                    key_column: col,
                    key,
                };
                return match conjoin_all(rest) {
                    Some(p) => Plan::Filter {
                        input: Box::new(probe),
                        predicate: p,
                    },
                    None => probe,
                };
            }
        }
        if let Some((col, range)) = as_range_literal(c) {
            if let Some(idx) = t.index_on(col) {
                if idx.kind() == IndexKind::BTree {
                    let mut rest = conjuncts.clone();
                    rest.remove(i);
                    let scan = Plan::IndexRangeScan {
                        table,
                        columns,
                        key_column: col,
                        range,
                    };
                    return match conjoin_all(rest) {
                        Some(p) => Plan::Filter {
                            input: Box::new(scan),
                            predicate: p,
                        },
                        None => scan,
                    };
                }
            }
        }
    }
    fallback_filter(table, columns, conjuncts)
}

fn fallback_filter(table: String, columns: Vec<String>, conjuncts: Vec<BoundExpr>) -> Plan {
    let scan = Plan::TableScan { table, columns };
    match conjoin_all(conjuncts) {
        Some(p) => Plan::Filter {
            input: Box::new(scan),
            predicate: p,
        },
        None => scan,
    }
}

/// Match `col = literal` (either orientation).
fn as_eq_literal(expr: &BoundExpr) -> Option<(usize, Value)> {
    if let BoundExpr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = expr
    {
        match (lhs.as_ref(), rhs.as_ref()) {
            (BoundExpr::ColumnRef(i), BoundExpr::Literal(v))
            | (BoundExpr::Literal(v), BoundExpr::ColumnRef(i))
                if !v.is_null() =>
            {
                return Some((*i, v.clone()));
            }
            _ => {}
        }
    }
    None
}

/// Match `col < / <= / > / >= literal` or `col BETWEEN lit AND lit`.
fn as_range_literal(expr: &BoundExpr) -> Option<(usize, IndexRange)> {
    match expr {
        BoundExpr::Binary { op, lhs, rhs } => {
            let (col, lit, op) = match (lhs.as_ref(), rhs.as_ref()) {
                (BoundExpr::ColumnRef(i), BoundExpr::Literal(v)) if !v.is_null() => {
                    (*i, v.clone(), *op)
                }
                (BoundExpr::Literal(v), BoundExpr::ColumnRef(i)) if !v.is_null() => {
                    // Flip the comparison: lit op col  ==  col flip(op) lit
                    let flipped = match op {
                        BinOp::Lt => BinOp::Gt,
                        BinOp::LtEq => BinOp::GtEq,
                        BinOp::Gt => BinOp::Lt,
                        BinOp::GtEq => BinOp::LtEq,
                        other => *other,
                    };
                    (*i, v.clone(), flipped)
                }
                _ => return None,
            };
            let range = match op {
                BinOp::Lt => IndexRange {
                    // Exclude NULLs, which sort below every value.
                    low: Bound::Excluded(Value::Null),
                    high: Bound::Excluded(lit),
                },
                BinOp::LtEq => IndexRange {
                    low: Bound::Excluded(Value::Null),
                    high: Bound::Included(lit),
                },
                BinOp::Gt => IndexRange {
                    low: Bound::Excluded(lit),
                    high: Bound::Unbounded,
                },
                BinOp::GtEq => IndexRange {
                    low: Bound::Included(lit),
                    high: Bound::Unbounded,
                },
                _ => return None,
            };
            Some((col, range))
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match (expr.as_ref(), low.as_ref(), high.as_ref()) {
            (BoundExpr::ColumnRef(i), BoundExpr::Literal(lo), BoundExpr::Literal(hi))
                if !lo.is_null() && !hi.is_null() =>
            {
                Some((
                    *i,
                    IndexRange {
                        low: Bound::Included(lo.clone()),
                        high: Bound::Included(hi.clone()),
                    },
                ))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Detect equi-join conjuncts in `on` and build a hash join.
fn try_hash_join(left: Plan, right: Plan, kind: JoinKind, on: BoundExpr) -> Plan {
    let left_width = left.width();
    let mut conjuncts = Vec::new();
    split_conjuncts(on, &mut conjuncts);

    let mut key_pair: Option<(BoundExpr, BoundExpr)> = None;
    let mut residual = Vec::new();
    for c in conjuncts {
        if key_pair.is_none() {
            if let BoundExpr::Binary {
                op: BinOp::Eq,
                lhs,
                rhs,
            } = &c
            {
                let mut lcols = BTreeSet::new();
                let mut rcols = BTreeSet::new();
                lhs.referenced_columns(&mut lcols);
                rhs.referenced_columns(&mut rcols);
                let l_left = !lcols.is_empty() && lcols.iter().all(|&i| i < left_width);
                let l_right = !lcols.is_empty() && lcols.iter().all(|&i| i >= left_width);
                let r_left = !rcols.is_empty() && rcols.iter().all(|&i| i < left_width);
                let r_right = !rcols.is_empty() && rcols.iter().all(|&i| i >= left_width);
                if l_left && r_right {
                    key_pair = Some(((**lhs).clone(), rhs.remap_columns(&|i| i - left_width)));
                    continue;
                }
                if l_right && r_left {
                    key_pair = Some(((**rhs).clone(), lhs.remap_columns(&|i| i - left_width)));
                    continue;
                }
            }
        }
        residual.push(c);
    }

    match key_pair {
        Some((left_key, right_key)) => Plan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            left_key,
            right_key,
            residual: conjoin_all(residual),
        },
        None => Plan::NestedLoopJoin {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            on: conjoin_all(residual),
        },
    }
}

/// `Limit(Sort)` and `Limit(Project(Sort))` become TopK.
fn try_topk(input: Plan, limit: u64, offset: u64) -> Plan {
    match input {
        Plan::Sort { input, keys } => Plan::TopK {
            input,
            keys,
            k: limit as usize,
            offset: offset as usize,
        },
        Plan::Project {
            input: proj_input,
            exprs,
            columns,
        } => match *proj_input {
            Plan::Sort { input, keys } => Plan::Project {
                input: Box::new(Plan::TopK {
                    input,
                    keys,
                    k: limit as usize,
                    offset: offset as usize,
                }),
                exprs,
                columns,
            },
            other => Plan::Limit {
                input: Box::new(Plan::Project {
                    input: Box::new(other),
                    exprs,
                    columns,
                }),
                limit: Some(limit),
                offset,
            },
        },
        other => Plan::Limit {
            input: Box::new(other),
            limit: Some(limit),
            offset,
        },
    }
}

/// Rule 6 (see the module docs). The root's columns are all read.
fn prune_columns(plan: Plan) -> Plan {
    let all = (0..plan.width()).collect();
    prune(plan, all).0
}

/// Rebuild `plan` to output only the columns in `needed` and those its
/// own operator cannot drop. Returns the new plan and the old positions
/// of its output columns, ascending.
fn prune(plan: Plan, mut needed: BTreeSet<usize>) -> (Plan, Vec<usize>) {
    let width = plan.width();
    let all = || (0..width).collect::<Vec<usize>>();
    // A filter over the leaf narrows rows in place and copies no column,
    // so the view goes above it: the filter still reads the leaf's own
    // rows, and what is above sees only what it reads.
    if let Some(names) = access_path_columns(&plan) {
        if needed.len() == width {
            return (plan, all());
        }
        let kept: Vec<usize> = needed.into_iter().collect();
        let columns = kept.iter().map(|&c| names[c].clone()).collect();
        let view = Plan::Project {
            exprs: kept.iter().map(|&c| BoundExpr::ColumnRef(c)).collect(),
            columns,
            input: Box::new(plan),
        };
        return (view, kept);
    }
    // A column-only Project over an access path is already a view.
    if let Plan::Project { input, exprs, .. } = &plan {
        if access_path_columns(input).is_some() && column_only(exprs).is_some() {
            return (plan, all());
        }
    }
    match plan {
        // Table leaves are access paths, handled above.
        Plan::Values { .. }
        | Plan::TableScan { .. }
        | Plan::IndexProbe { .. }
        | Plan::IndexRangeScan { .. } => (plan, all()),
        Plan::Project {
            input,
            exprs,
            columns,
        } => {
            let (input, _, map) = prune_input(*input, reads(&exprs));
            let exprs = exprs.iter().map(|e| map.expr(e)).collect();
            let project = Plan::Project {
                input,
                exprs,
                columns,
            };
            (project, all())
        }
        Plan::Aggregate {
            input,
            group,
            group_names,
            aggs,
        } => {
            let mut read = reads(&group);
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    arg.referenced_columns(&mut read);
                }
            }
            let (input, _, map) = prune_input(*input, read);
            let aggregate = Plan::Aggregate {
                input,
                group: group.iter().map(|e| map.expr(e)).collect(),
                group_names,
                aggs: aggs
                    .into_iter()
                    .map(|a| AggCall {
                        arg: a.arg.as_ref().map(|e| map.expr(e)),
                        ..a
                    })
                    .collect(),
            };
            (aggregate, all())
        }
        Plan::Filter { input, predicate } => {
            predicate.referenced_columns(&mut needed);
            let (input, kept, map) = prune_input(*input, needed);
            let predicate = map.expr(&predicate);
            (Plan::Filter { input, predicate }, kept)
        }
        Plan::Sort { input, keys } => {
            needed.extend(reads(keys.iter().map(|k| &k.expr)));
            let (input, kept, map) = prune_input(*input, needed);
            let keys = map.keys(keys);
            (Plan::Sort { input, keys }, kept)
        }
        Plan::TopK {
            input,
            keys,
            k,
            offset,
        } => {
            needed.extend(reads(keys.iter().map(|k| &k.expr)));
            let (input, kept, map) = prune_input(*input, needed);
            let keys = map.keys(keys);
            let top_k = Plan::TopK {
                input,
                keys,
                k,
                offset,
            };
            (top_k, kept)
        }
        Plan::Limit {
            input,
            limit,
            offset,
        } => {
            let (input, kept, _) = prune_input(*input, needed);
            let limit = Plan::Limit {
                input,
                limit,
                offset,
            };
            (limit, kept)
        }
        // Duplicates are judged on whole rows.
        Plan::Distinct { input } => {
            let (input, kept, _) = prune_input(*input, all().into_iter().collect());
            (Plan::Distinct { input }, kept)
        }
        Plan::HashJoin {
            left,
            right,
            kind,
            left_key,
            right_key,
            residual,
        } => {
            needed.extend(reads(&residual));
            let lw = left.width();
            let mut right_needed = shift_down(needed.split_off(&lw), lw);
            left_key.referenced_columns(&mut needed);
            right_key.referenced_columns(&mut right_needed);
            let (left, lkept, lmap) = prune_input(*left, needed);
            let (right, rkept, rmap) = prune_input(*right, right_needed);
            let kept = joined(&lkept, &rkept, lw);
            let map = Remap::new(&kept, width);
            let join = Plan::HashJoin {
                left,
                right,
                kind,
                left_key: lmap.expr(&left_key),
                right_key: rmap.expr(&right_key),
                residual: residual.as_ref().map(|e| map.expr(e)),
            };
            (join, kept)
        }
        Plan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
        } => {
            needed.extend(reads(&on));
            let lw = left.width();
            let right_needed = shift_down(needed.split_off(&lw), lw);
            let (left, lkept, _) = prune_input(*left, needed);
            let (right, rkept, _) = prune_input(*right, right_needed);
            let kept = joined(&lkept, &rkept, lw);
            let map = Remap::new(&kept, width);
            let join = Plan::NestedLoopJoin {
                left,
                right,
                kind,
                on: on.as_ref().map(|e| map.expr(e)),
            };
            (join, kept)
        }
    }
}

/// An access path's column names, or `None` for a plan that is not
/// one. An access path is a table leaf under any filters stacked
/// directly on it.
fn access_path_columns(plan: &Plan) -> Option<&[String]> {
    match plan {
        Plan::TableScan { columns, .. }
        | Plan::IndexProbe { columns, .. }
        | Plan::IndexRangeScan { columns, .. } => Some(columns),
        Plan::Filter { input, .. } => access_path_columns(input),
        _ => None,
    }
}

/// The columns a list of expressions reads, outer references inside
/// correlated subplans included.
fn reads<'a>(exprs: impl IntoIterator<Item = &'a BoundExpr>) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for e in exprs {
        e.referenced_columns(&mut out);
    }
    out
}

/// Right-side positions of a join's columns, from positions in the
/// joined row.
fn shift_down(cols: BTreeSet<usize>, by: usize) -> BTreeSet<usize> {
    cols.into_iter().map(|i| i - by).collect()
}

/// Prune a node's input, boxed, with the remap for the node's own
/// expressions.
fn prune_input(input: Plan, needed: BTreeSet<usize>) -> (Box<Plan>, Vec<usize>, Remap) {
    let width = input.width();
    let (input, kept) = prune(input, needed);
    let map = Remap::new(&kept, width);
    (Box::new(input), kept, map)
}

/// The joined row's kept positions, from each side's (`lw` is the old
/// left width).
fn joined(left: &[usize], right: &[usize], lw: usize) -> Vec<usize> {
    left.iter()
        .copied()
        .chain(right.iter().map(|i| i + lw))
        .collect()
}

/// Old → new column positions over a pruned node's output.
struct Remap(Vec<usize>);

impl Remap {
    /// For a node of `old_width` columns that now outputs only the old
    /// columns `kept` (ascending).
    fn new(kept: &[usize], old_width: usize) -> Remap {
        let mut to = vec![usize::MAX; old_width];
        for (new, &old) in kept.iter().enumerate() {
            to[old] = new;
        }
        Remap(to)
    }

    fn expr(&self, e: &BoundExpr) -> BoundExpr {
        e.remap_columns(&|i| self.0[i])
    }

    fn keys(&self, keys: Vec<SortKey>) -> Vec<SortKey> {
        keys.into_iter()
            .map(|k| SortKey {
                expr: self.expr(&k.expr),
                descending: k.descending,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SortKey;
    use crate::schema::{Column, DataType, Schema};
    use crate::table::Table;

    fn catalog_with_index() -> Catalog {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Integer),
                Column::new("name", DataType::Text),
            ])
            .unwrap(),
        );
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::text(format!("n{i}"))])
                .unwrap();
        }
        t.create_index("idx_id", "id", IndexKind::BTree, false)
            .unwrap();
        let mut c = Catalog::new();
        c.add_table(t).unwrap();
        c
    }

    fn scan() -> Plan {
        Plan::TableScan {
            table: "t".into(),
            columns: vec!["id".into(), "name".into()],
        }
    }

    fn eq(col: usize, v: i64) -> BoundExpr {
        BoundExpr::Binary {
            op: BinOp::Eq,
            lhs: Box::new(BoundExpr::ColumnRef(col)),
            rhs: Box::new(BoundExpr::Literal(Value::Int(v))),
        }
    }

    #[test]
    fn equality_filter_uses_index() {
        let c = catalog_with_index();
        let plan = Plan::Filter {
            input: Box::new(scan()),
            predicate: eq(0, 42),
        };
        let opt = optimize(plan, &c);
        assert!(
            matches!(opt, Plan::IndexProbe { key_column: 0, .. }),
            "expected IndexProbe, got:\n{}",
            opt.explain()
        );
        let rows =
            crate::chunk::batches_to_rows(&crate::chunk_exec::execute(&opt, &c, false).unwrap());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(42));
    }

    #[test]
    fn range_filter_uses_btree() {
        let c = catalog_with_index();
        let plan = Plan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Binary {
                op: BinOp::Lt,
                lhs: Box::new(BoundExpr::ColumnRef(0)),
                rhs: Box::new(BoundExpr::Literal(Value::Int(5))),
            },
        };
        let opt = optimize(plan, &c);
        assert!(
            matches!(opt, Plan::IndexRangeScan { .. }),
            "got:\n{}",
            opt.explain()
        );
        let rows =
            crate::chunk::batches_to_rows(&crate::chunk_exec::execute(&opt, &c, false).unwrap());
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn residual_kept_when_index_used() {
        let c = catalog_with_index();
        let pred = BoundExpr::Binary {
            op: BinOp::And,
            lhs: Box::new(eq(0, 42)),
            rhs: Box::new(BoundExpr::Binary {
                op: BinOp::Like,
                lhs: Box::new(BoundExpr::ColumnRef(1)),
                rhs: Box::new(BoundExpr::Literal(Value::text("n%"))),
            }),
        };
        let plan = Plan::Filter {
            input: Box::new(scan()),
            predicate: pred,
        };
        let opt = optimize(plan, &c);
        match &opt {
            Plan::Filter { input, .. } => {
                assert!(matches!(**input, Plan::IndexProbe { .. }));
            }
            other => panic!("expected Filter(IndexProbe), got:\n{}", other.explain()),
        }
    }

    #[test]
    fn always_false_becomes_empty_values() {
        let c = catalog_with_index();
        let plan = Plan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Literal(Value::from(false)),
        };
        let opt = optimize(plan, &c);
        assert!(matches!(&opt, Plan::Values { rows, .. } if rows.is_empty()));
        // Arity preserved.
        assert_eq!(opt.width(), 2);
    }

    #[test]
    fn always_true_dropped() {
        let c = catalog_with_index();
        let plan = Plan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Literal(Value::from(true)),
        };
        let opt = optimize(plan, &c);
        assert!(matches!(opt, Plan::TableScan { .. }));
    }

    #[test]
    fn equi_join_becomes_hash_join() {
        let c = catalog_with_index();
        let plan = Plan::NestedLoopJoin {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: JoinKind::Inner,
            on: Some(BoundExpr::Binary {
                op: BinOp::Eq,
                lhs: Box::new(BoundExpr::ColumnRef(0)),
                rhs: Box::new(BoundExpr::ColumnRef(2)),
            }),
        };
        let opt = optimize(plan, &c);
        match &opt {
            Plan::HashJoin { residual, .. } => assert!(residual.is_none()),
            other => panic!("expected HashJoin, got:\n{}", other.explain()),
        }
        let rows =
            crate::chunk::batches_to_rows(&crate::chunk_exec::execute(&opt, &c, false).unwrap());
        assert_eq!(rows.len(), 100);
    }

    #[test]
    fn filter_pushes_through_join() {
        let c = catalog_with_index();
        let join = Plan::NestedLoopJoin {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: JoinKind::Inner,
            on: Some(BoundExpr::Binary {
                op: BinOp::Eq,
                lhs: Box::new(BoundExpr::ColumnRef(0)),
                rhs: Box::new(BoundExpr::ColumnRef(2)),
            }),
        };
        // Left-side predicate id = 7 should reach the left scan and
        // become an index probe.
        let plan = Plan::Filter {
            input: Box::new(join),
            predicate: eq(0, 7),
        };
        let opt = optimize(plan, &c);
        fn contains_probe(p: &Plan) -> bool {
            match p {
                Plan::IndexProbe { .. } => true,
                Plan::Filter { input, .. }
                | Plan::Project { input, .. }
                | Plan::Sort { input, .. }
                | Plan::TopK { input, .. }
                | Plan::Limit { input, .. }
                | Plan::Distinct { input } => contains_probe(input),
                Plan::NestedLoopJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                    contains_probe(left) || contains_probe(right)
                }
                Plan::Aggregate { input, .. } => contains_probe(input),
                _ => false,
            }
        }
        assert!(contains_probe(&opt), "plan:\n{}", opt.explain());
        let rows =
            crate::chunk::batches_to_rows(&crate::chunk_exec::execute(&opt, &c, false).unwrap());
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn left_join_right_filter_not_pushed() {
        let c = catalog_with_index();
        let join = Plan::NestedLoopJoin {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: JoinKind::Left,
            on: Some(BoundExpr::Binary {
                op: BinOp::Eq,
                lhs: Box::new(BoundExpr::ColumnRef(0)),
                rhs: Box::new(BoundExpr::ColumnRef(2)),
            }),
        };
        let plan = Plan::Filter {
            input: Box::new(join),
            predicate: eq(2, 7), // right-side column
        };
        let opt = optimize(plan, &c);
        // Must stay a Filter above the join.
        assert!(
            matches!(&opt, Plan::Filter { input, .. }
                if matches!(**input, Plan::HashJoin { .. } | Plan::NestedLoopJoin { .. })),
            "plan:\n{}",
            opt.explain()
        );
    }

    #[test]
    fn limit_sort_becomes_topk() {
        let c = catalog_with_index();
        let plan = Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(scan()),
                keys: vec![SortKey {
                    expr: BoundExpr::ColumnRef(0),
                    descending: true,
                }],
            }),
            limit: Some(5),
            offset: 0,
        };
        let opt = optimize(plan, &c);
        assert!(matches!(opt, Plan::TopK { k: 5, .. }));
    }

    #[test]
    fn filter_pushes_through_colref_project() {
        let c = catalog_with_index();
        let plan = Plan::Filter {
            input: Box::new(Plan::Project {
                input: Box::new(scan()),
                exprs: vec![BoundExpr::ColumnRef(1), BoundExpr::ColumnRef(0)],
                columns: vec!["name".into(), "id".into()],
            }),
            predicate: eq(1, 33), // projected col 1 is base col 0 (id)
        };
        let opt = optimize(plan, &c);
        match &opt {
            Plan::Project { input, .. } => {
                assert!(
                    matches!(**input, Plan::IndexProbe { .. }),
                    "plan:\n{}",
                    opt.explain()
                );
            }
            other => panic!("expected Project on top, got:\n{}", other.explain()),
        }
    }

    /// Rule 6's plan shapes. Answers are held to the unpruned plan's
    /// here too; `chunk_exec::parity` does that for its whole pool.
    mod pruning {
        use super::*;
        use crate::exec::reference;
        use crate::Database;

        /// `schools` and `satscores` as wide as the shapes need, and a
        /// narrow `t`.
        fn db() -> Database {
            let mut db = Database::new();
            db.execute_script(
                "CREATE TABLE schools (CDSCode INTEGER, School TEXT, City TEXT, \
                   AvgScrMath INTEGER, Enrollment INTEGER, Phone TEXT, Zip TEXT, Grades TEXT);
                 CREATE TABLE satscores (cds INTEGER, NumTstTakr INTEGER, \
                   AvgScrRead INTEGER, AvgScrWrite INTEGER);
                 CREATE TABLE t (a INTEGER, b REAL, c TEXT);
                 INSERT INTO schools VALUES
                   (1, 'Alta', 'Fresno', 480, 300, 'p1', 'z1', 'K-5'),
                   (2, 'Bay', 'Davis', 620, 410, 'p2', 'z2', 'K-8'),
                   (3, 'Cove', 'Fresno', 455, 120, 'p3', 'z3', '9-12'),
                   (4, 'Dune', 'Davis', 700, 90, 'p4', 'z4', 'K-5');
                 INSERT INTO satscores VALUES
                   (1, 40, 500, 510), (2, 75, 600, 590), (4, 40, 650, 640), (9, 5, 0, 0);
                 INSERT INTO t VALUES (1, 1.5, 'x'), (2, 2.5, 'y'), (NULL, 0.5, 'x'), (2, 3.5, NULL);",
            )
            .unwrap();
            db
        }

        /// The pruned plan of a one-arm statement, after checking that
        /// the reference answers it as it answers the unpruned plan.
        fn pruned(db: &Database, sql: &str) -> Plan {
            let plan = db.plans(sql).unwrap().remove(0);
            let unpruned = db.unpruned_plans(sql).unwrap().remove(0);
            let want = format!("{:?}", reference::execute(&unpruned, db.catalog()));
            let got = format!("{:?}", reference::execute(&plan, db.catalog()));
            assert_eq!(got, want, "{sql}\n{}", plan.explain());
            plan
        }

        /// `plan` and every node below it, parents first.
        fn nodes(plan: &Plan) -> Vec<&Plan> {
            let mut out = vec![plan];
            match plan {
                Plan::Filter { input, .. }
                | Plan::Project { input, .. }
                | Plan::Aggregate { input, .. }
                | Plan::Sort { input, .. }
                | Plan::TopK { input, .. }
                | Plan::Limit { input, .. }
                | Plan::Distinct { input } => out.extend(nodes(input)),
                Plan::NestedLoopJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                    out.extend(nodes(left));
                    out.extend(nodes(right));
                }
                _ => {}
            }
            out
        }

        /// The join node of `plan`.
        fn join(plan: &Plan) -> &Plan {
            let found = nodes(plan)
                .into_iter()
                .find(|n| matches!(n, Plan::HashJoin { .. } | Plan::NestedLoopJoin { .. }));
            found.unwrap_or_else(|| panic!("no join in\n{}", plan.explain()))
        }

        /// The columns a join side's view keeps, by name.
        fn view_columns(side: &Plan) -> Vec<String> {
            match side {
                Plan::Project { input, .. } if access_path_columns(input).is_some() => {
                    side.columns()
                }
                other => panic!("expected a view over the leaf, got\n{}", other.explain()),
            }
        }

        #[test]
        fn the_sql_scale_join_is_four_columns_wide_below_its_top_k() {
            let db = db();
            let plan = pruned(
                &db,
                "SELECT s.School, t.NumTstTakr FROM schools s JOIN satscores t \
                 ON s.CDSCode = t.cds WHERE s.AvgScrMath > 450 \
                 ORDER BY t.NumTstTakr DESC, s.CDSCode LIMIT 10",
            );
            let below = nodes(&plan)
                .into_iter()
                .find_map(|n| match n {
                    Plan::TopK { input, .. } => Some(input.as_ref()),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no TopK in\n{}", plan.explain()));
            // The leaves (8 and 4 wide) and the filter on `schools`
            // read in place; everything that copies rows is narrow.
            for node in nodes(below) {
                if access_path_columns(node).is_none() {
                    assert!(node.width() <= 4, "{}", plan.explain());
                }
            }
            let Plan::HashJoin { left, right, .. } = join(&plan) else {
                panic!("expected a hash join in\n{}", plan.explain());
            };
            assert_eq!(view_columns(left), ["CDSCode", "School"]);
            assert_eq!(view_columns(right), ["cds", "NumTstTakr"]);
        }

        #[test]
        fn count_star_over_a_join_reads_only_the_keys() {
            let db = db();
            let sql = "SELECT COUNT(*) FROM schools s JOIN satscores t ON s.CDSCode = t.cds";
            let plan = pruned(&db, sql);
            let Plan::HashJoin { left, right, .. } = join(&plan) else {
                panic!("expected a hash join in\n{}", plan.explain());
            };
            assert_eq!(view_columns(left), ["CDSCode"]);
            assert_eq!(view_columns(right), ["cds"]);
            assert_eq!(db.query(sql).unwrap().rows, vec![vec![Value::Int(3)]]);
            // With no key at all, both sides keep no column and the
            // views still carry their row counts.
            let cross = "SELECT COUNT(*) FROM schools s, satscores t";
            let plan = pruned(&db, cross);
            assert_eq!(join(&plan).width(), 0, "{}", plan.explain());
            assert_eq!(db.query(cross).unwrap().rows, vec![vec![Value::Int(16)]]);
        }

        #[test]
        fn distinct_keeps_every_column() {
            let c = catalog_with_index();
            let plan = Plan::Aggregate {
                input: Box::new(Plan::Distinct {
                    input: Box::new(scan()),
                }),
                group: Vec::new(),
                group_names: Vec::new(),
                aggs: vec![AggCall {
                    func: crate::plan::AggFunc::Count,
                    arg: None,
                    distinct: false,
                    separator: ",".into(),
                    name: "count(*)".into(),
                }],
            };
            let opt = optimize(plan, &c);
            let Plan::Aggregate { input, .. } = &opt else {
                panic!("expected Aggregate on top, got\n{}", opt.explain());
            };
            assert!(
                matches!(&**input, Plan::Distinct { input } if matches!(**input, Plan::TableScan { .. })),
                "{}",
                opt.explain()
            );
            let rows = crate::chunk::batches_to_rows(
                &crate::chunk_exec::execute(&opt, &c, false).unwrap(),
            );
            assert_eq!(rows, vec![vec![Value::Int(100)]]);
        }

        #[test]
        fn a_correlated_subquery_keeps_the_outer_column_it_reads() {
            let db = db();
            // Only the EXISTS reads `t1.c`, through an outer reference.
            let plan = pruned(
                &db,
                "SELECT a, EXISTS (SELECT 1 FROM t t2 WHERE t2.c = t1.c AND t2.a > t1.a) \
                 FROM t t1",
            );
            let Plan::Project { input, exprs, .. } = &plan else {
                panic!("expected Project on top, got\n{}", plan.explain());
            };
            assert_eq!(view_columns(input), ["a", "c"]);
            let mut outer = BTreeSet::new();
            exprs[1].referenced_columns(&mut outer);
            assert_eq!(outer.into_iter().collect::<Vec<_>>(), [0, 1]);
        }

        #[test]
        fn a_left_join_keeps_a_right_column_only_its_residual_reads() {
            let db = db();
            let plan = pruned(
                &db,
                "SELECT t1.a, t2.a FROM t t1 LEFT JOIN t t2 ON t1.a = t2.a AND t2.b > 2.0",
            );
            let Plan::HashJoin {
                right, residual, ..
            } = join(&plan)
            else {
                panic!("expected a hash join in\n{}", plan.explain());
            };
            assert!(residual.is_some(), "{}", plan.explain());
            assert_eq!(view_columns(right), ["a", "b"]);
        }
    }
}
