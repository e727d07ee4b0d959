//! What every executor shares, and the reference interpreter.
//!
//! The production executor is [`crate::chunk_exec`]. This module holds
//! the row-level semantics it is defined against: the aggregate state
//! machine ([`AggState`], [`aggregate_rows`]) and the sort-key ordering
//! ([`compare_keys`], [`eval_keys`]), which the columnar operators call
//! directly so both sides can never drift.
//!
//! `reference` (test builds only) is a row-at-a-time interpreter: each
//! operator a plain loop over a `Vec<Row>`. It exists to be obviously
//! right, and the parity proptest in `chunk_exec` compares the columnar
//! executor against it — rows, order and error messages.

use crate::error::SqlResult;
use crate::expr::{BoundExpr, EvalCtx};
use crate::plan::{AggCall, AggFunc, SortKey};
use crate::schema::Row;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Accumulator for one aggregate call. The columnar executor keeps one
/// per (group, call) and feeds it the same values in the same row order
/// as [`aggregate_rows`] does, so results stay byte-identical.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    Sum { acc: Value, saw: bool },
    Total(f64),
    Avg { sum: f64, n: i64 },
    MinMax { best: Option<Value>, want_min: bool },
    Concat { parts: Vec<String> },
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                acc: Value::Int(0),
                saw: false,
            },
            AggFunc::Total => AggState::Total(0.0),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::MinMax {
                best: None,
                want_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                want_min: false,
            },
            AggFunc::GroupConcat => AggState::Concat { parts: Vec::new() },
        }
    }

    pub(crate) fn update(&mut self, v: &Value) -> SqlResult<()> {
        // SQL aggregates skip NULL inputs (COUNT(*) passes a non-null marker).
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum { acc, saw } => {
                *acc = crate::value::arith::add(acc, v)?;
                *saw = true;
            }
            AggState::Total(t) => {
                *t += v.as_f64().unwrap_or(0.0);
            }
            AggState::Avg { sum, n } => {
                let x = v
                    .coerce_numeric()
                    .ok()
                    .and_then(|c| c.as_f64())
                    .unwrap_or(0.0);
                *sum += x;
                *n += 1;
            }
            AggState::MinMax { best, want_min } => {
                let replace = match best {
                    None => true,
                    Some(b) => {
                        if *want_min {
                            v < b
                        } else {
                            v > b
                        }
                    }
                };
                if replace {
                    *best = Some(v.clone());
                }
            }
            AggState::Concat { parts } => parts.push(v.to_string()),
        }
        Ok(())
    }

    pub(crate) fn finish(self, separator: &str) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum { acc, saw } => {
                if saw {
                    acc
                } else {
                    Value::Null
                }
            }
            AggState::Total(t) => Value::Float(t),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::Concat { parts } => {
                if parts.is_empty() {
                    Value::Null
                } else {
                    Value::Text(parts.join(separator))
                }
            }
        }
    }
}

/// Row-level aggregation: the reference's whole `Aggregate` operator,
/// and what the columnar executor replays a failing aggregate through
/// to raise the exact row-order error.
pub(crate) fn aggregate_rows(
    rows: &[Row],
    group: &[BoundExpr],
    aggs: &[AggCall],
    ctx: &EvalCtx<'_>,
) -> SqlResult<Vec<Row>> {
    // Group key -> (representative key values, states, distinct sets)
    type DistinctSets = Vec<Option<std::collections::HashSet<Value>>>;
    let mut groups: HashMap<Vec<Value>, (Vec<AggState>, DistinctSets)> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new(); // first-seen group order

    for row in rows {
        let key: Vec<Value> = group
            .iter()
            .map(|g| g.eval_ctx(row, ctx))
            .collect::<SqlResult<_>>()?;
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            (
                aggs.iter().map(|a| AggState::new(a.func)).collect(),
                aggs.iter()
                    .map(|a| {
                        if a.distinct {
                            Some(std::collections::HashSet::new())
                        } else {
                            None
                        }
                    })
                    .collect(),
            )
        });
        for (i, agg) in aggs.iter().enumerate() {
            let v = match &agg.arg {
                Some(e) => e.eval_ctx(row, ctx)?,
                None => Value::Int(1), // COUNT(*) marker
            };
            if let Some(seen) = &mut entry.1[i] {
                if v.is_null() || !seen.insert(v.clone()) {
                    continue;
                }
            }
            entry.0[i].update(&v)?;
        }
    }

    // Global aggregation with no groups over an empty input still yields
    // one row of "empty" aggregate results.
    if group.is_empty() && order.is_empty() {
        let states: Vec<AggState> = aggs.iter().map(|a| AggState::new(a.func)).collect();
        let row: Row = states
            .into_iter()
            .zip(aggs)
            .map(|(s, a)| s.finish(&a.separator))
            .collect();
        return Ok(vec![row]);
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let Some((states, _)) = groups.remove(&key) else {
            continue; // every ordered key was inserted above
        };
        let mut row = key;
        for (s, a) in states.into_iter().zip(aggs) {
            row.push(s.finish(&a.separator));
        }
        out.push(row);
    }
    Ok(out)
}

/// Compare two rows under the given sort keys (keys already evaluated).
///
/// # Ordering contract
///
/// This comparison is a *partial* order over rows: rows with equal keys
/// compare `Equal`, and ties keep **input order** (the row's position in
/// the operator's input):
///
/// - `Sort` is a stable sort on this comparison alone — ties keep input
///   order, for ascending *and* descending keys (descending reverses
///   the key comparison only, never the tie order).
/// - `TopK` orders by `(key, position)`, which is what makes it
///   byte-identical to `Sort + Limit` at every `k`/`offset` split point.
///
/// Both executors feed their operators rows in input order (the
/// columnar one walks its batches in row order), so output bytes are
/// independent of morsel boundaries. `sort_contract_regression` in
/// this module's tests pins the behavior on both executors.
pub(crate) fn compare_keys(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
    for (i, k) in keys.iter().enumerate() {
        let ord = a[i].total_cmp(&b[i]);
        let ord = if k.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

pub(crate) fn eval_keys(row: &Row, keys: &[SortKey], ctx: &EvalCtx<'_>) -> SqlResult<Vec<Value>> {
    keys.iter().map(|k| k.expr.eval_ctx(row, ctx)).collect()
}

/// The row-at-a-time reference interpreter (see the module docs).
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::ast::JoinKind;
    use crate::catalog::Catalog;
    use crate::error::SqlError;
    use crate::plan::Plan;

    /// Execute a plan against a catalog, producing materialized rows.
    pub(crate) fn execute(plan: &Plan, catalog: &Catalog) -> SqlResult<Vec<Row>> {
        let ctx = EvalCtx {
            catalog: Some(catalog),
        };
        match plan {
            Plan::TableScan { table, .. } => Ok(catalog.table(table)?.rows()),
            Plan::IndexProbe {
                table,
                key_column,
                key,
                ..
            } => {
                let t = catalog.table(table)?;
                let idx = t.index_on(*key_column).ok_or_else(|| {
                    SqlError::Eval(format!(
                        "plan references missing index on {table} col#{key_column}"
                    ))
                })?;
                Ok(idx.probe(key).into_iter().map(|id| t.row(id)).collect())
            }
            Plan::IndexRangeScan {
                table,
                key_column,
                range,
                ..
            } => {
                let t = catalog.table(table)?;
                let idx = t.index_on(*key_column).ok_or_else(|| {
                    SqlError::Eval(format!(
                        "plan references missing index on {table} col#{key_column}"
                    ))
                })?;
                let ids = idx
                    .probe_range(range.low.as_ref(), range.high.as_ref())
                    .ok_or_else(|| SqlError::Eval("range scan requires a B-tree index".into()))?;
                Ok(ids.into_iter().map(|id| t.row(id)).collect())
            }
            Plan::Values { rows, .. } => rows
                .iter()
                .map(|exprs| exprs.iter().map(|e| e.eval_ctx(&[], &ctx)).collect())
                .collect(),
            Plan::Filter { input, predicate } => {
                let mut out = Vec::new();
                for row in execute(input, catalog)? {
                    if predicate.eval_predicate_ctx(&row, &ctx)? {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            Plan::Project { input, exprs, .. } => execute(input, catalog)?
                .iter()
                .map(|row| exprs.iter().map(|e| e.eval_ctx(row, &ctx)).collect())
                .collect(),
            Plan::NestedLoopJoin {
                left,
                right,
                kind,
                on,
            } => {
                let left_rows = execute(left, catalog)?;
                let right_rows = execute(right, catalog)?;
                let mut out = Vec::new();
                for l in &left_rows {
                    let mut matched = false;
                    for r in &right_rows {
                        let combined = [l.as_slice(), r.as_slice()].concat();
                        let keep = match on {
                            Some(pred) => pred.eval_predicate_ctx(&combined, &ctx)?,
                            None => true,
                        };
                        if keep {
                            matched = true;
                            out.push(combined);
                        }
                    }
                    if *kind == JoinKind::Left && !matched {
                        out.push(null_padded(l, right.width()));
                    }
                }
                Ok(out)
            }
            Plan::HashJoin {
                left,
                right,
                kind,
                left_key,
                right_key,
                residual,
            } => {
                let left_rows = execute(left, catalog)?;
                let right_rows = execute(right, catalog)?;
                // Build on the right side (probe preserves left order,
                // which keeps LEFT joins simple).
                let mut table: HashMap<Value, Vec<usize>> = HashMap::new();
                for (i, r) in right_rows.iter().enumerate() {
                    let key = right_key.eval_ctx(r, &ctx)?;
                    if !key.is_null() {
                        table.entry(key).or_default().push(i); // NULL keys never join
                    }
                }
                let mut out = Vec::new();
                for l in &left_rows {
                    let key = left_key.eval_ctx(l, &ctx)?;
                    let mut matched = false;
                    let ids = if key.is_null() { None } else { table.get(&key) };
                    for &i in ids.into_iter().flatten() {
                        let combined = [l.as_slice(), right_rows[i].as_slice()].concat();
                        let keep = match residual {
                            Some(pred) => pred.eval_predicate_ctx(&combined, &ctx)?,
                            None => true,
                        };
                        if keep {
                            matched = true;
                            out.push(combined);
                        }
                    }
                    if *kind == JoinKind::Left && !matched {
                        out.push(null_padded(l, right.width()));
                    }
                }
                Ok(out)
            }
            Plan::Aggregate {
                input, group, aggs, ..
            } => aggregate_rows(&execute(input, catalog)?, group, aggs, &ctx),
            Plan::Sort { input, keys } => {
                let mut keyed = Vec::new();
                for row in execute(input, catalog)? {
                    keyed.push((eval_keys(&row, keys, &ctx)?, row));
                }
                // Stable: equal-key rows keep their input order (see the
                // `compare_keys` ordering contract).
                keyed.sort_by(|a, b| compare_keys(&a.0, &b.0, keys));
                Ok(keyed.into_iter().map(|(_, r)| r).collect())
            }
            Plan::TopK {
                input,
                keys,
                k,
                offset,
            } => top_k(execute(input, catalog)?, keys, *k, *offset, &ctx),
            Plan::Limit {
                input,
                limit,
                offset,
            } => {
                let rows = execute(input, catalog)?;
                let start = (*offset as usize).min(rows.len());
                let end = match limit {
                    Some(l) => (start + *l as usize).min(rows.len()),
                    None => rows.len(),
                };
                Ok(rows[start..end].to_vec())
            }
            Plan::Distinct { input } => {
                let mut seen = std::collections::HashSet::new();
                let mut rows = execute(input, catalog)?;
                rows.retain(|row| seen.insert(row.clone()));
                Ok(rows)
            }
        }
    }

    fn null_padded(left: &Row, right_width: usize) -> Row {
        let mut row = left.clone();
        row.extend(std::iter::repeat_n(Value::Null, right_width));
        row
    }

    /// Top-(offset + k) kept sorted by `(keys, seq)`, which makes the
    /// result byte-identical to `Sort + Limit` — see the `compare_keys`
    /// contract.
    fn top_k(
        rows: Vec<Row>,
        keys: &[SortKey],
        k: usize,
        offset: usize,
        ctx: &EvalCtx<'_>,
    ) -> SqlResult<Vec<Row>> {
        let want = k.saturating_add(offset);
        if want == 0 {
            return Ok(Vec::new());
        }
        let cmp = |a: &(Vec<Value>, usize, Row), b: &(Vec<Value>, usize, Row)| {
            compare_keys(&a.0, &b.0, keys).then(a.1.cmp(&b.1))
        };
        // `want` comes from the statement (LIMIT + OFFSET): reserve for
        // the input, never for the number the query names.
        let mut top: Vec<(Vec<Value>, usize, Row)> = Vec::with_capacity(want.min(rows.len()) + 1);
        for (seq, row) in rows.into_iter().enumerate() {
            let entry = (eval_keys(&row, keys, ctx)?, seq, row);
            if top.len() < want {
                top.push(entry);
                if top.len() == want {
                    top.sort_by(cmp);
                }
            } else if top
                .last()
                .is_some_and(|worst| cmp(&entry, worst) == Ordering::Less)
            {
                // Insert in sorted position; drop the worst.
                let pos = top
                    .binary_search_by(|e| cmp(e, &entry))
                    .unwrap_or_else(|p| p);
                top.insert(pos, entry);
                top.pop();
            }
        }
        if top.len() < want {
            top.sort_by(cmp);
        }
        Ok(top.into_iter().skip(offset).take(k).map(|e| e.2).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::JoinKind;
    use crate::catalog::Catalog;
    use crate::plan::Plan;
    use crate::schema::{Column, DataType, Schema};
    use crate::table::Table;

    /// Every hand-built plan below runs through both executors.
    fn execute(plan: &Plan, c: &Catalog) -> SqlResult<Vec<Row>> {
        let want = reference::execute(plan, c);
        let got = crate::chunk_exec::execute(plan, c, false);
        assert_eq!(got.map(|b| crate::chunk::batches_to_rows(&b)), want);
        want
    }

    fn catalog() -> Catalog {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Integer),
                Column::new("grp", DataType::Text),
                Column::new("x", DataType::Real),
            ])
            .unwrap(),
        );
        for i in 0..10i64 {
            t.insert(vec![
                Value::Int(i),
                Value::text(if i % 2 == 0 { "even" } else { "odd" }),
                Value::Float(i as f64 * 1.5),
            ])
            .unwrap();
        }
        let mut c = Catalog::new();
        c.add_table(t).unwrap();
        c
    }

    fn scan() -> Plan {
        Plan::TableScan {
            table: "t".into(),
            columns: vec!["id".into(), "grp".into(), "x".into()],
        }
    }

    fn colref(i: usize) -> BoundExpr {
        BoundExpr::ColumnRef(i)
    }

    #[test]
    fn scan_and_filter() {
        let c = catalog();
        let plan = Plan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Binary {
                op: crate::ast::BinOp::Gt,
                lhs: Box::new(colref(0)),
                rhs: Box::new(BoundExpr::Literal(Value::Int(6))),
            },
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn aggregate_grouped() {
        let c = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(scan()),
            group: vec![colref(1)],
            group_names: vec!["grp".into()],
            aggs: vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                    separator: ",".into(),
                    name: "n".into(),
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(colref(0)),
                    distinct: false,
                    separator: ",".into(),
                    name: "s".into(),
                },
            ],
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows.len(), 2);
        // first-seen order: "even" first (id 0)
        assert_eq!(rows[0][0], Value::text("even"));
        assert_eq!(rows[0][1], Value::Int(5));
        assert_eq!(rows[0][2], Value::Int(2 + 4 + 6 + 8));
        assert_eq!(rows[1][2], Value::Int(1 + 3 + 5 + 7 + 9));
    }

    #[test]
    fn aggregate_empty_input_global() {
        let c = catalog();
        let empty = Plan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Literal(Value::from(false)),
        };
        let plan = Plan::Aggregate {
            input: Box::new(empty),
            group: vec![],
            group_names: vec![],
            aggs: vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                    separator: ",".into(),
                    name: "n".into(),
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(colref(0)),
                    distinct: false,
                    separator: ",".into(),
                    name: "s".into(),
                },
                AggCall {
                    func: AggFunc::Total,
                    arg: Some(colref(0)),
                    distinct: false,
                    separator: ",".into(),
                    name: "t".into(),
                },
            ],
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[0][1], Value::Null);
        assert_eq!(rows[0][2], Value::Float(0.0));
    }

    #[test]
    fn count_distinct() {
        let c = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(scan()),
            group: vec![],
            group_names: vec![],
            aggs: vec![AggCall {
                func: AggFunc::Count,
                arg: Some(colref(1)),
                distinct: true,
                separator: ",".into(),
                name: "n".into(),
            }],
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows[0][0], Value::Int(2)); // "even", "odd"
    }

    #[test]
    fn sort_and_limit() {
        let c = catalog();
        let plan = Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(scan()),
                keys: vec![SortKey {
                    expr: colref(0),
                    descending: true,
                }],
            }),
            limit: Some(3),
            offset: 1,
        };
        let rows = execute(&plan, &c).unwrap();
        let ids: Vec<Value> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(8), Value::Int(7), Value::Int(6)]);
    }

    /// Pins the sort determinism contract: equal-key rows keep input
    /// order (ascending and descending), and TopK's `(key, seq)`
    /// ordering matches Sort + Limit across every offset split. The
    /// columnar executor's stable sort and bounded top-k depend on this.
    #[test]
    fn sort_contract_regression() {
        // Duplicate keys with distinct payloads so tie order is visible.
        let mut t = Table::new(
            "ties",
            Schema::new(vec![
                Column::new("k", DataType::Integer),
                Column::new("payload", DataType::Integer),
            ])
            .unwrap(),
        );
        for (i, k) in [3i64, 1, 3, 2, 1, 3, 2, 1].iter().enumerate() {
            t.insert(vec![Value::Int(*k), Value::Int(i as i64)])
                .unwrap();
        }
        let mut c = Catalog::new();
        c.add_table(t).unwrap();
        let scan = Plan::TableScan {
            table: "ties".into(),
            columns: vec!["k".into(), "payload".into()],
        };
        for descending in [false, true] {
            let keys = vec![SortKey {
                expr: colref(0),
                descending,
            }];
            let sorted = execute(
                &Plan::Sort {
                    input: Box::new(scan.clone()),
                    keys: keys.clone(),
                },
                &c,
            )
            .unwrap();
            // Ties keep input order: within each key group, payloads
            // (input positions) are strictly increasing.
            for w in sorted.windows(2) {
                if w[0][0] == w[1][0] {
                    assert!(
                        w[0][1] < w[1][1],
                        "tie broke input order (descending={descending}): {sorted:?}"
                    );
                }
            }
            // TopK == Sort + Limit at every (k, offset) split, including
            // splits that land inside a tie group.
            for offset in 0..sorted.len() {
                for k in 0..=sorted.len() - offset {
                    let via_topk = execute(
                        &Plan::TopK {
                            input: Box::new(scan.clone()),
                            keys: keys.clone(),
                            k,
                            offset,
                        },
                        &c,
                    )
                    .unwrap();
                    assert_eq!(
                        via_topk,
                        sorted[offset..offset + k].to_vec(),
                        "k={k} offset={offset} descending={descending}"
                    );
                }
            }
        }
    }

    #[test]
    fn topk_matches_sort_limit() {
        let c = catalog();
        let keys = vec![SortKey {
            expr: colref(2),
            descending: true,
        }];
        let sorted = execute(
            &Plan::Limit {
                input: Box::new(Plan::Sort {
                    input: Box::new(scan()),
                    keys: keys.clone(),
                }),
                limit: Some(4),
                offset: 2,
            },
            &c,
        )
        .unwrap();
        let topk = execute(
            &Plan::TopK {
                input: Box::new(scan()),
                keys,
                k: 4,
                offset: 2,
            },
            &c,
        )
        .unwrap();
        assert_eq!(sorted, topk);
    }

    #[test]
    fn nested_loop_inner_and_left() {
        let mut c = catalog();
        let mut u = Table::new(
            "u",
            Schema::new(vec![
                Column::new("id", DataType::Integer),
                Column::new("tag", DataType::Text),
            ])
            .unwrap(),
        );
        u.insert(vec![Value::Int(1), Value::text("one")]).unwrap();
        u.insert(vec![Value::Int(2), Value::text("two")]).unwrap();
        c.add_table(u).unwrap();

        let uscan = Plan::TableScan {
            table: "u".into(),
            columns: vec!["id".into(), "tag".into()],
        };
        let on = BoundExpr::Binary {
            op: crate::ast::BinOp::Eq,
            lhs: Box::new(colref(0)),
            rhs: Box::new(colref(3)),
        };
        let inner = Plan::NestedLoopJoin {
            left: Box::new(scan()),
            right: Box::new(uscan.clone()),
            kind: JoinKind::Inner,
            on: Some(on.clone()),
        };
        assert_eq!(execute(&inner, &c).unwrap().len(), 2);

        let left = Plan::NestedLoopJoin {
            left: Box::new(scan()),
            right: Box::new(uscan),
            kind: JoinKind::Left,
            on: Some(on),
        };
        let rows = execute(&left, &c).unwrap();
        assert_eq!(rows.len(), 10);
        let nulls = rows.iter().filter(|r| r[3].is_null()).count();
        assert_eq!(nulls, 8);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let mut c = catalog();
        let mut u = Table::new(
            "u",
            Schema::new(vec![
                Column::new("id", DataType::Integer),
                Column::new("tag", DataType::Text),
            ])
            .unwrap(),
        );
        for i in 0..5 {
            u.insert(vec![Value::Int(i % 3), Value::text(format!("t{i}"))])
                .unwrap();
        }
        c.add_table(u).unwrap();
        let uscan = Plan::TableScan {
            table: "u".into(),
            columns: vec!["id".into(), "tag".into()],
        };
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let nl = Plan::NestedLoopJoin {
                left: Box::new(scan()),
                right: Box::new(uscan.clone()),
                kind,
                on: Some(BoundExpr::Binary {
                    op: crate::ast::BinOp::Eq,
                    lhs: Box::new(colref(0)),
                    rhs: Box::new(colref(3)),
                }),
            };
            let hj = Plan::HashJoin {
                left: Box::new(scan()),
                right: Box::new(uscan.clone()),
                kind,
                left_key: colref(0),
                right_key: colref(0), // relative to right row
                residual: None,
            };
            let mut a = execute(&nl, &c).unwrap();
            let mut b = execute(&hj, &c).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn distinct_dedups() {
        let c = catalog();
        let plan = Plan::Distinct {
            input: Box::new(Plan::Project {
                input: Box::new(scan()),
                exprs: vec![colref(1)],
                columns: vec!["grp".into()],
            }),
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn group_concat() {
        let c = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Filter {
                input: Box::new(scan()),
                predicate: BoundExpr::Binary {
                    op: crate::ast::BinOp::Lt,
                    lhs: Box::new(colref(0)),
                    rhs: Box::new(BoundExpr::Literal(Value::Int(3))),
                },
            }),
            group: vec![],
            group_names: vec![],
            aggs: vec![AggCall {
                func: AggFunc::GroupConcat,
                arg: Some(colref(0)),
                distinct: false,
                separator: "|".into(),
                name: "ids".into(),
            }],
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows[0][0], Value::text("0|1|2"));
    }
}
