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

use crate::ast::{BinOp, JoinKind};
use crate::catalog::Catalog;
use crate::expr::BoundExpr;
use crate::plan::{IndexRange, Plan};
use crate::table::IndexKind;
use crate::value::Value;
use std::collections::BTreeSet;
use std::ops::Bound;

/// Optimize a plan against the given catalog (used to discover indexes).
pub fn optimize(plan: Plan, catalog: &Catalog) -> Plan {
    let plan = rewrite(plan, catalog);
    // A second pass lets pushdowns enable index selection.
    rewrite(plan, catalog)
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

/// Reassemble conjuncts into one predicate.
fn conjoin(mut parts: Vec<BoundExpr>) -> Option<BoundExpr> {
    let first = parts.pop()?;
    Some(parts.into_iter().fold(first, |acc, p| BoundExpr::Binary {
        op: BinOp::And,
        lhs: Box::new(p),
        rhs: Box::new(acc),
    }))
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
    if kept.is_empty() {
        return input;
    }

    match input {
        // Merge stacked filters.
        Plan::Filter {
            input: inner,
            predicate: inner_pred,
        } => {
            let mut inner_parts = Vec::new();
            split_conjuncts(inner_pred, &mut inner_parts);
            inner_parts.extend(kept);
            rewrite_filter(*inner, conjoin(inner_parts).expect("nonempty"), catalog)
        }
        // Push through pure-column projections.
        Plan::Project {
            input: inner,
            exprs,
            columns,
        } => {
            let all_colrefs = exprs.iter().all(|e| matches!(e, BoundExpr::ColumnRef(_)));
            if all_colrefs {
                let mapping: Vec<usize> = exprs
                    .iter()
                    .map(|e| match e {
                        BoundExpr::ColumnRef(i) => *i,
                        _ => unreachable!(),
                    })
                    .collect();
                let remapped: Vec<BoundExpr> = kept
                    .into_iter()
                    .map(|c| c.remap_columns(&|i| mapping[i]))
                    .collect();
                let pushed = Plan::Filter {
                    input: inner,
                    predicate: conjoin(remapped).expect("nonempty"),
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
                    predicate: conjoin(kept).expect("nonempty"),
                }
            }
        }
        // Push into join sides.
        Plan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
        } => push_into_join(*left, *right, kind, on, kept, catalog, |l, r, k, o| {
            Plan::NestedLoopJoin {
                left: Box::new(l),
                right: Box::new(r),
                kind: k,
                on: o,
            }
        }),
        Plan::HashJoin {
            left,
            right,
            kind,
            left_key,
            right_key,
            residual,
        } => push_into_join(*left, *right, kind, residual, kept, catalog, {
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
        }),
        // Index selection over a base table scan.
        Plan::TableScan { table, columns } => index_select(table, columns, kept, catalog),
        other => Plan::Filter {
            input: Box::new(other),
            predicate: conjoin(kept).expect("nonempty"),
        },
    }
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
    let new_left = if let Some(p) = conjoin(push_left) {
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
    let new_right = if let Some(p) = conjoin(push_right) {
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
    match conjoin(stay) {
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
                return match conjoin(rest) {
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
                    return match conjoin(rest) {
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
    match conjoin(conjuncts) {
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
            residual: conjoin(residual),
        },
        None => Plan::NestedLoopJoin {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            on: conjoin(residual),
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
        let rows = crate::chunk_exec::execute(&opt, &c, None).unwrap();
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
        let rows = crate::chunk_exec::execute(&opt, &c, None).unwrap();
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
        let rows = crate::chunk_exec::execute(&opt, &c, None).unwrap();
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
        let rows = crate::chunk_exec::execute(&opt, &c, None).unwrap();
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
}
