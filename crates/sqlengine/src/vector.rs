//! Vectorized expression kernels over [`Batch`]es.
//!
//! Two entry points:
//!
//! - [`eval_column`]: evaluate an expression for every row of a batch,
//!   producing an owned [`ColumnData`].
//! - [`eval_pred_mask`]: evaluate an expression as a three-valued
//!   predicate, producing one `Option<bool>` (truthiness) per row.
//!
//! Both use typed fast paths where the expression shape allows
//! (column/literal comparisons and `IN` lists of literals over
//! `Int`/`Float`/`Text` columns run as tight loops over the typed
//! vectors) and otherwise fall back to
//! row-at-a-time [`BoundExpr::eval_ctx`] over a *scratch row*: a
//! reusable `Vec<Value>` where only the columns the expression actually
//! references are filled in. The scratch row never materializes the
//! full input — the operators stay columnar even for complex
//! expressions (correlated subqueries, UDFs, CASE).
//!
//! Semantics are defined by the row-at-a-time path: every fast path
//! must produce exactly what `eval_ctx` + [`Value::total_cmp`] would.
//! `AND`/`OR` mirror the scalar evaluator's short-circuit rule — the
//! right side is only evaluated on rows where the left side did not
//! already decide the outcome — so error propagation matches too.

use crate::ast::BinOp;
use crate::chunk::{Batch, ColumnData};
use crate::error::SqlResult;
use crate::expr::{BoundExpr, EvalCtx};
use crate::value::Value;
use std::cmp::Ordering;

/// Evaluate `expr` for every row of `batch` into an owned column.
pub fn eval_column(expr: &BoundExpr, batch: &Batch, ctx: &EvalCtx<'_>) -> SqlResult<ColumnData> {
    match expr {
        BoundExpr::ColumnRef(i) => Ok(batch.gather_column(*i)),
        BoundExpr::Literal(v) => Ok(ColumnData::broadcast(v, batch.len())),
        BoundExpr::Binary { op, lhs, rhs }
            if is_cmp(*op) && operand_shape(lhs).is_some() && operand_shape(rhs).is_some() =>
        {
            let mask = cmp_mask(*op, lhs, rhs, batch)?;
            Ok(mask_to_column(&mask))
        }
        BoundExpr::InList {
            expr: probe,
            list,
            negated,
        } => match typed_in_list(probe, list, *negated, batch) {
            Some(mask) => Ok(mask_to_column(&mask)),
            None => fallback_column(expr, batch, ctx),
        },
        _ => fallback_column(expr, batch, ctx),
    }
}

/// Evaluate `expr` as a predicate: per-row three-valued truthiness.
pub fn eval_pred_mask(
    expr: &BoundExpr,
    batch: &Batch,
    ctx: &EvalCtx<'_>,
) -> SqlResult<Vec<Option<bool>>> {
    match expr {
        BoundExpr::Binary { op, lhs, rhs } if *op == BinOp::And || *op == BinOp::Or => {
            // Mirror the serial short-circuit: AND skips the right side
            // where the left is definite false; OR where it is definite
            // true. Rows outside the re-evaluated subset keep the
            // short-circuited result.
            let l = eval_pred_mask(lhs, batch, ctx)?;
            let skip_on = Some(*op == BinOp::Or);
            let retry: Vec<u32> = l
                .iter()
                .enumerate()
                .filter(|(_, v)| **v != skip_on)
                .map(|(i, _)| i as u32)
                .collect();
            let mut out: Vec<Option<bool>> = l
                .iter()
                .map(|v| if *v == skip_on { skip_on } else { None })
                .collect();
            if !retry.is_empty() {
                let sub = batch.narrow(&retry);
                let r = eval_pred_mask(rhs, &sub, ctx)?;
                for (slot, (lv, rv)) in retry
                    .iter()
                    .map(|&i| i as usize)
                    .zip(retry.iter().map(|&i| l[i as usize]).zip(r))
                {
                    out[slot] = if *op == BinOp::And {
                        match (lv, rv) {
                            (_, Some(false)) => Some(false),
                            (Some(true), Some(true)) => Some(true),
                            _ => None,
                        }
                    } else {
                        match (lv, rv) {
                            (_, Some(true)) => Some(true),
                            (Some(false), Some(false)) => Some(false),
                            _ => None,
                        }
                    };
                }
            }
            Ok(out)
        }
        BoundExpr::Binary { op, lhs, rhs }
            if is_cmp(*op) && operand_shape(lhs).is_some() && operand_shape(rhs).is_some() =>
        {
            cmp_mask(*op, lhs, rhs, batch)
        }
        BoundExpr::Unary {
            op: crate::ast::UnOp::Not,
            operand,
        } => {
            let m = eval_pred_mask(operand, batch, ctx)?;
            Ok(m.into_iter().map(|v| v.map(|b| !b)).collect())
        }
        BoundExpr::IsNull { expr, negated } if matches!(**expr, BoundExpr::ColumnRef(_)) => {
            let BoundExpr::ColumnRef(c) = **expr else {
                unreachable!("guarded by the match arm");
            };
            Ok((0..batch.len())
                .map(|i| Some(batch.is_null(i, c) != *negated))
                .collect())
        }
        BoundExpr::InList {
            expr: probe,
            list,
            negated,
        } => match typed_in_list(probe, list, *negated, batch) {
            Some(mask) => Ok(mask),
            None => fallback_mask(expr, batch, ctx),
        },
        _ => fallback_mask(expr, batch, ctx),
    }
}

fn fallback_mask(
    expr: &BoundExpr,
    batch: &Batch,
    ctx: &EvalCtx<'_>,
) -> SqlResult<Vec<Option<bool>>> {
    let col = eval_column(expr, batch, ctx)?;
    Ok((0..col.len())
        .map(|i| col.value_at(i).truthiness())
        .collect())
}

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
    )
}

/// Operand shapes the comparison kernel accepts without a scratch row.
enum Operand<'a> {
    Col(usize),
    Lit(&'a Value),
}

fn operand_shape(e: &BoundExpr) -> Option<Operand<'_>> {
    match e {
        BoundExpr::ColumnRef(i) => Some(Operand::Col(*i)),
        BoundExpr::Literal(v) => Some(Operand::Lit(v)),
        _ => None,
    }
}

fn ord_matches(op: BinOp, o: Ordering) -> bool {
    match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::NotEq => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::LtEq => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::GtEq => o != Ordering::Less,
        _ => unreachable!("comparison kernel called with non-comparison op"),
    }
}

/// Comparison kernel over column/literal operands. NULL on either side
/// yields `None`, matching `Value::sql_cmp`.
fn cmp_mask(
    op: BinOp,
    lhs: &BoundExpr,
    rhs: &BoundExpr,
    batch: &Batch,
) -> SqlResult<Vec<Option<bool>>> {
    let (Some(l), Some(r)) = (operand_shape(lhs), operand_shape(rhs)) else {
        unreachable!("cmp_mask callers check operand shapes");
    };
    // Typed fast path: column vs non-null literal over a typed column.
    if let (Operand::Col(c), Operand::Lit(lit)) = (&l, &r) {
        if let Some(mask) = typed_col_lit_cmp(op, batch, *c, lit, false) {
            return Ok(mask);
        }
    }
    if let (Operand::Lit(lit), Operand::Col(c)) = (&l, &r) {
        if let Some(mask) = typed_col_lit_cmp(op, batch, *c, lit, true) {
            return Ok(mask);
        }
    }
    // General path: exact Value-level comparison per row (no scratch
    // rows — operands are at most single columns).
    let n = batch.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let a = match &l {
            Operand::Col(c) => batch.value_at(i, *c),
            Operand::Lit(v) => (*v).clone(),
        };
        let b = match &r {
            Operand::Col(c) => batch.value_at(i, *c),
            Operand::Lit(v) => (*v).clone(),
        };
        out.push(a.sql_cmp(&b).map(|o| ord_matches(op, o)));
    }
    Ok(out)
}

/// Tight typed loops for `col <op> literal` (or reversed). Returns
/// `None` when the column/literal pairing has no specialized kernel.
fn typed_col_lit_cmp(
    op: BinOp,
    batch: &Batch,
    col: usize,
    lit: &Value,
    reversed: bool,
) -> Option<Vec<Option<bool>>> {
    if lit.is_null() {
        // NULL literal: every comparison is NULL.
        return Some(vec![None; batch.len()]);
    }
    let column = batch.data.column(col);
    let test = |o: Ordering| ord_matches(op, if reversed { o.reverse() } else { o });
    let mut out = Vec::with_capacity(batch.len());
    match (column, lit) {
        (ColumnData::Int { values, validity }, Value::Int(b)) => {
            batch_for_each(batch, |i| {
                out.push(validity[i].then(|| test(values[i].cmp(b))));
            });
        }
        (ColumnData::Int { values, validity }, Value::Float(b)) => {
            batch_for_each(batch, |i| {
                out.push(validity[i].then(|| test((values[i] as f64).total_cmp(b))));
            });
        }
        (ColumnData::Float { values, validity }, Value::Int(b)) => {
            let b = *b as f64;
            batch_for_each(batch, |i| {
                out.push(validity[i].then(|| test(values[i].total_cmp(&b))));
            });
        }
        (ColumnData::Float { values, validity }, Value::Float(b)) => {
            batch_for_each(batch, |i| {
                out.push(validity[i].then(|| test(values[i].total_cmp(b))));
            });
        }
        (ColumnData::Text { values, validity }, Value::Text(b)) => {
            batch_for_each(batch, |i| {
                out.push(validity[i].then(|| test(values[i].as_str().cmp(b.as_str()))));
            });
        }
        // Cross-rank (number vs text): rank ordering is constant, but
        // route through the general path to keep this kernel small.
        _ => return None,
    }
    Some(out)
}

/// `col [NOT] IN (literal, …)` over a typed column, every literal
/// non-null: a NULL cell is NULL, any other cell is in the list when it
/// is `total_cmp`-equal to an item (`Value::sql_eq`). Returns `None` for
/// every other shape (a NULL or non-literal item, a `Mixed` column), which
/// keeps the row-at-a-time path.
fn typed_in_list(
    probe: &BoundExpr,
    list: &[BoundExpr],
    negated: bool,
    batch: &Batch,
) -> Option<Vec<Option<bool>>> {
    let BoundExpr::ColumnRef(col) = probe else {
        return None;
    };
    let items: Vec<&Value> = list
        .iter()
        .map(|item| match item {
            BoundExpr::Literal(v) if !v.is_null() => Some(v),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let mut out = Vec::with_capacity(batch.len());
    match batch.data.column(*col) {
        ColumnData::Int { values, validity } => {
            let listed = |a: i64| {
                items.iter().any(|item| match item {
                    Value::Int(b) => a == *b,
                    Value::Float(b) => (a as f64).total_cmp(b) == Ordering::Equal,
                    _ => false,
                })
            };
            batch_for_each(batch, |i| {
                out.push(validity[i].then(|| listed(values[i]) != negated));
            });
        }
        ColumnData::Float { values, validity } => {
            let listed = |a: f64| {
                items.iter().any(|item| match item {
                    Value::Int(b) => a.total_cmp(&(*b as f64)) == Ordering::Equal,
                    Value::Float(b) => a.total_cmp(b) == Ordering::Equal,
                    _ => false,
                })
            };
            batch_for_each(batch, |i| {
                out.push(validity[i].then(|| listed(values[i]) != negated));
            });
        }
        ColumnData::Text { values, validity } => {
            let texts: Vec<&str> = items.iter().filter_map(|item| item.as_str()).collect();
            batch_for_each(batch, |i| {
                out.push(validity[i].then(|| texts.contains(&values[i].as_str()) != negated));
            });
        }
        ColumnData::Mixed(_) => return None,
    }
    Some(out)
}

/// Visit backing-chunk row ids of a batch in output order.
fn batch_for_each(batch: &Batch, mut f: impl FnMut(usize)) {
    match &batch.rows {
        crate::chunk::Rows::Range(s, e) => {
            for i in *s..*e {
                f(i);
            }
        }
        crate::chunk::Rows::Ids(ids) => {
            for &i in ids {
                f(i as usize);
            }
        }
    }
}

/// SQL booleans are integers (`Value::from(bool)`); NULL stays NULL.
fn mask_to_column(mask: &[Option<bool>]) -> ColumnData {
    ColumnData::Int {
        values: mask.iter().map(|v| i64::from(v.unwrap_or(false))).collect(),
        validity: mask.iter().map(Option::is_some).collect(),
    }
}

/// Row-at-a-time fallback over a scratch row holding only the columns
/// `expr` references.
fn fallback_column(expr: &BoundExpr, batch: &Batch, ctx: &EvalCtx<'_>) -> SqlResult<ColumnData> {
    let mut referenced = std::collections::BTreeSet::new();
    expr.referenced_columns(&mut referenced);
    let width = batch.width();
    let mut scratch: Vec<Value> = vec![Value::Null; width];
    let mut vals = Vec::with_capacity(batch.len());
    for i in 0..batch.len() {
        for &c in &referenced {
            if c < width {
                scratch[c] = batch.value_at(i, c);
            }
        }
        vals.push(expr.eval_ctx(&scratch, ctx)?);
    }
    Ok(ColumnData::from_values(vals))
}

/// Evaluate a filter predicate: view-local indices of surviving rows
/// (rows whose truthiness is definite true, SQL WHERE semantics).
pub fn eval_filter(expr: &BoundExpr, batch: &Batch, ctx: &EvalCtx<'_>) -> SqlResult<Vec<u32>> {
    let mask = eval_pred_mask(expr, batch, ctx)?;
    Ok(mask
        .iter()
        .enumerate()
        .filter(|(_, v)| **v == Some(true))
        .map(|(i, _)| i as u32)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunk;
    use crate::schema::Row;

    fn batch() -> Batch {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Float(1.5), Value::text("a")],
            vec![Value::Int(5), Value::Null, Value::text("b")],
            vec![Value::Null, Value::Float(-2.0), Value::Null],
            vec![Value::Int(3), Value::Float(9.0), Value::text("a")],
        ];
        Batch::owned(Chunk::from_rows(3, rows))
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::ColumnRef(i)
    }

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    /// Every kernel must match row-at-a-time eval exactly.
    fn assert_matches_row_path(expr: &BoundExpr, b: &Batch) {
        let ctx = EvalCtx::default();
        let col = eval_column(expr, b, &ctx).unwrap();
        let rows = b.to_rows();
        for (i, row) in rows.iter().enumerate() {
            let want = expr.eval_ctx(row, &ctx).unwrap();
            assert_eq!(
                format!("{:?}", col.value_at(i)),
                format!("{want:?}"),
                "row {i} of {expr:?}"
            );
        }
        let mask = eval_pred_mask(expr, b, &ctx).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let want = expr.eval_ctx(row, &ctx).unwrap().truthiness();
            assert_eq!(mask[i], want, "mask row {i} of {expr:?}");
        }
    }

    #[test]
    fn typed_comparisons_match_row_path() {
        let b = batch();
        for op in [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ] {
            assert_matches_row_path(&bin(op, col(0), lit(3)), &b);
            assert_matches_row_path(&bin(op, col(0), lit(2.5)), &b);
            assert_matches_row_path(&bin(op, col(1), lit(1.5)), &b);
            assert_matches_row_path(&bin(op, col(1), lit(2)), &b);
            assert_matches_row_path(&bin(op, col(2), lit("a")), &b);
            assert_matches_row_path(&bin(op, lit(3), col(0)), &b);
            // cross-rank: numeric column vs text literal
            assert_matches_row_path(&bin(op, col(0), lit("a")), &b);
            // column vs column
            assert_matches_row_path(&bin(op, col(0), col(1)), &b);
            // NULL literal
            assert_matches_row_path(&bin(op, col(0), lit(Value::Null)), &b);
        }
    }

    #[test]
    fn and_or_short_circuit_matches_row_path() {
        let b = batch();
        let p = bin(
            BinOp::And,
            bin(BinOp::Gt, col(0), lit(1)),
            bin(BinOp::Lt, col(1), lit(10.0)),
        );
        assert_matches_row_path(&p, &b);
        let q = bin(
            BinOp::Or,
            bin(BinOp::Gt, col(0), lit(4)),
            bin(BinOp::Eq, col(2), lit("a")),
        );
        assert_matches_row_path(&q, &b);
        // NULL-involving combinations
        let r = bin(BinOp::Or, bin(BinOp::Eq, col(1), lit(0.0)), col(0));
        assert_matches_row_path(&r, &b);
    }

    #[test]
    fn fallback_covers_complex_exprs() {
        let b = batch();
        let e = BoundExpr::Case {
            operand: None,
            branches: vec![(bin(BinOp::Gt, col(0), lit(2)), lit("big"))],
            else_branch: Some(Box::new(lit("small"))),
        };
        assert_matches_row_path(&e, &b);
        let arith = bin(BinOp::Add, col(0), bin(BinOp::Mul, col(1), lit(2)));
        assert_matches_row_path(&arith, &b);
    }

    fn in_list(probe: BoundExpr, items: Vec<BoundExpr>, negated: bool) -> BoundExpr {
        BoundExpr::InList {
            expr: Box::new(probe),
            list: items,
            negated,
        }
    }

    #[test]
    fn in_list_kernel_matches_row_path() {
        let mut rows = batch().to_rows();
        rows.push(vec![Value::Int(7), Value::Float(-0.0), Value::text("b")]);
        rows.push(vec![Value::Int(0), Value::Float(f64::NAN), Value::text("")]);
        let typed = Batch::owned(Chunk::from_rows(3, rows.clone()));
        // Column 0 turns `Mixed` (an Int column receiving text).
        rows.push(vec![Value::text("x"), Value::Float(2.0), Value::text("a")]);
        let mixed = Batch::owned(Chunk::from_rows(3, rows));
        for b in [&typed, &mixed, &typed.narrow(&[4, 0, 2])] {
            for negated in [false, true] {
                for c in 0..3 {
                    let lists = [
                        vec![lit(1), lit(3)],
                        vec![lit(3.0), lit(1.5), lit(0.0)],
                        vec![lit("a"), lit(""), lit(7)],
                        vec![lit(f64::NAN), lit(-0.0)],
                        // a NULL item and a non-literal item keep the fallback
                        vec![lit(5), lit(Value::Null)],
                        vec![lit(1), col(0)],
                        vec![],
                    ];
                    for items in lists {
                        assert_matches_row_path(&in_list(col(c), items, negated), b);
                    }
                }
            }
        }
        // The typed arm, not the fallback, ran the typed shapes.
        assert!(typed_in_list(&col(2), &[lit("a")], false, &typed).is_some());
        assert!(typed_in_list(&col(0), &[lit(1)], true, &typed).is_some());
        assert!(typed_in_list(&col(0), &[lit(1)], false, &mixed).is_none());
        assert!(typed_in_list(&col(0), &[lit(Value::Null)], false, &typed).is_none());
        assert!(typed_in_list(&col(0), &[col(1)], false, &typed).is_none());
    }

    #[test]
    fn is_null_kernel() {
        let b = batch();
        assert_matches_row_path(
            &BoundExpr::IsNull {
                expr: Box::new(col(1)),
                negated: false,
            },
            &b,
        );
        assert_matches_row_path(
            &BoundExpr::IsNull {
                expr: Box::new(col(1)),
                negated: true,
            },
            &b,
        );
    }

    #[test]
    fn filter_selects_definite_true_rows() {
        let b = batch();
        let sel = eval_filter(&bin(BinOp::Gt, col(0), lit(1)), &b, &EvalCtx::default()).unwrap();
        assert_eq!(sel, vec![1, 3]);
    }
}
