//! Bound expressions: name-resolved expression trees that evaluate
//! directly against a row.
//!
//! The planner binds [`crate::ast::Expr`] syntax trees into [`BoundExpr`]
//! by resolving column references to positions, executing *uncorrelated*
//! subqueries eagerly, embedding *correlated* subqueries as plans with
//! [`BoundExpr::OuterRef`] placeholders (re-executed per outer row), and
//! resolving function names against built-ins and the UDF registry.

use crate::ast::{BinOp, UnOp};
use crate::error::{SqlError, SqlResult};
use crate::functions::eval_builtin;
use crate::schema::DataType;
use crate::udf::ScalarUdf;
use crate::value::{arith, like_match, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// A fully bound expression, evaluable against a row slice.
#[derive(Clone)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum BoundExpr {
    /// Constant.
    Literal(Value),
    /// Input column by position.
    ColumnRef(usize),
    /// A reference to the *enclosing* query's row (inside a correlated
    /// subquery plan). Substituted with a literal before the subplan runs.
    OuterRef(usize),
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<BoundExpr>,
        rhs: Box<BoundExpr>,
    },
    /// Unary operation.
    Unary { op: UnOp, operand: Box<BoundExpr> },
    /// `IS [NOT] NULL`.
    IsNull { expr: Box<BoundExpr>, negated: bool },
    /// `[NOT] BETWEEN`.
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    /// `[NOT] IN (expr, ...)`.
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    /// `[NOT] IN (<materialized subquery result>)`.
    InSet {
        expr: Box<BoundExpr>,
        set: Arc<HashSet<Value>>,
        set_has_null: bool,
        negated: bool,
    },
    /// CASE expression.
    Case {
        operand: Option<Box<BoundExpr>>,
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_branch: Option<Box<BoundExpr>>,
    },
    /// CAST.
    Cast {
        expr: Box<BoundExpr>,
        dtype: DataType,
    },
    /// Correlated `[NOT] EXISTS (SELECT ...)`: the subplan contains
    /// `OuterRef`s and is re-executed per outer row.
    CorrelatedExists {
        plan: Box<crate::plan::Plan>,
        negated: bool,
    },
    /// Correlated scalar subquery, re-executed per outer row.
    CorrelatedScalar { plan: Box<crate::plan::Plan> },
    /// Correlated `[NOT] IN (SELECT ...)`, re-executed per outer row.
    CorrelatedIn {
        expr: Box<BoundExpr>,
        plan: Box<crate::plan::Plan>,
        negated: bool,
    },
    /// Built-in scalar function, dispatched by name.
    Builtin { name: String, args: Vec<BoundExpr> },
    /// User-defined scalar function.
    Udf {
        udf: Arc<dyn ScalarUdf>,
        args: Vec<BoundExpr>,
    },
}

impl std::fmt::Debug for BoundExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundExpr::Literal(v) => write!(f, "{}", v.to_sql_literal()),
            BoundExpr::ColumnRef(i) => write!(f, "#{i}"),
            BoundExpr::OuterRef(i) => write!(f, "outer#{i}"),
            BoundExpr::CorrelatedExists { negated, .. } => {
                write!(
                    f,
                    "({}EXISTS <correlated>)",
                    if *negated { "NOT " } else { "" }
                )
            }
            BoundExpr::CorrelatedScalar { .. } => write!(f, "<correlated scalar>"),
            BoundExpr::CorrelatedIn { expr, negated, .. } => write!(
                f,
                "({expr:?} {}IN <correlated>)",
                if *negated { "NOT " } else { "" }
            ),
            BoundExpr::Binary { op, lhs, rhs } => write!(f, "({lhs:?} {op} {rhs:?})"),
            BoundExpr::Unary { op, operand } => match op {
                UnOp::Neg => write!(f, "(-{operand:?})"),
                UnOp::Not => write!(f, "(NOT {operand:?})"),
            },
            BoundExpr::IsNull { expr, negated } => {
                write!(
                    f,
                    "({expr:?} IS {}NULL)",
                    if *negated { "NOT " } else { "" }
                )
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr:?} {}BETWEEN {low:?} AND {high:?})",
                if *negated { "NOT " } else { "" }
            ),
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(
                    f,
                    "({expr:?} {}IN {list:?})",
                    if *negated { "NOT " } else { "" }
                )
            }
            BoundExpr::InSet {
                expr, set, negated, ..
            } => write!(
                f,
                "({expr:?} {}IN <set of {}>)",
                if *negated { "NOT " } else { "" },
                set.len()
            ),
            BoundExpr::Case { .. } => write!(f, "CASE ..."),
            BoundExpr::Cast { expr, dtype } => write!(f, "CAST({expr:?} AS {dtype})"),
            BoundExpr::Builtin { name, args } => write!(f, "{name}({args:?})"),
            BoundExpr::Udf { udf, args } => write!(f, "{}({args:?})", udf.name()),
        }
    }
}

/// Evaluation context: correlated subqueries need catalog access to run
/// their subplans; plain expressions don't.
#[derive(Clone, Copy, Default)]
pub struct EvalCtx<'a> {
    /// The catalog for correlated-subquery execution, if available.
    pub catalog: Option<&'a crate::catalog::Catalog>,
}

impl BoundExpr {
    /// Evaluate against a row with no subquery context. Errors if the
    /// expression contains a correlated subquery (use [`Self::eval_ctx`]
    /// from execution paths that hold a catalog).
    pub fn eval(&self, row: &[Value]) -> SqlResult<Value> {
        self.eval_ctx(row, &EvalCtx::default())
    }

    /// Evaluate against a row, with catalog access for correlated
    /// subqueries.
    pub fn eval_ctx(&self, row: &[Value], ctx: &EvalCtx<'_>) -> SqlResult<Value> {
        match self {
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::ColumnRef(i) => row.get(*i).cloned().ok_or_else(|| {
                SqlError::Eval(format!(
                    "column reference #{i} out of bounds for row of width {}",
                    row.len()
                ))
            }),
            BoundExpr::OuterRef(i) => Err(SqlError::Eval(format!(
                "unsubstituted outer reference outer#{i} (correlated subquery \
                 evaluated outside its enclosing query)"
            ))),
            BoundExpr::CorrelatedExists { plan, negated } => {
                let rows = run_correlated(plan, row, ctx)?;
                Ok(Value::from(rows.is_empty() == *negated))
            }
            BoundExpr::CorrelatedScalar { plan } => {
                let rows = run_correlated(plan, row, ctx)?;
                if rows.len() > 1 {
                    return Err(SqlError::Eval(format!(
                        "correlated scalar subquery returned {} rows",
                        rows.len()
                    )));
                }
                match rows.into_iter().next() {
                    Some(r) if r.len() == 1 => Ok(r.into_iter().next().expect("one column")),
                    Some(r) => Err(SqlError::Eval(format!(
                        "correlated scalar subquery returned {} columns",
                        r.len()
                    ))),
                    None => Ok(Value::Null),
                }
            }
            BoundExpr::CorrelatedIn {
                expr,
                plan,
                negated,
            } => {
                let v = expr.eval_ctx(row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let rows = run_correlated(plan, row, ctx)?;
                let mut saw_null = false;
                for mut r in rows {
                    if r.len() != 1 {
                        return Err(SqlError::Eval(
                            "correlated IN subquery must return one column".into(),
                        ));
                    }
                    let w = r.pop().expect("one column");
                    match v.sql_eq(&w) {
                        Some(true) => return Ok(Value::from(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::from(*negated))
                }
            }
            BoundExpr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, row, ctx),
            BoundExpr::Unary { op, operand } => {
                let v = operand.eval_ctx(row, ctx)?;
                match op {
                    UnOp::Neg => arith::neg(&v),
                    UnOp::Not => Ok(match v.truthiness() {
                        None => Value::Null,
                        Some(b) => Value::from(!b),
                    }),
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval_ctx(row, ctx)?;
                Ok(Value::from(v.is_null() != *negated))
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_ctx(row, ctx)?;
                let lo = low.eval_ctx(row, ctx)?;
                let hi = high.eval_ctx(row, ctx)?;
                let ge = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
                let le = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
                Ok(match (ge, le) {
                    (Some(a), Some(b)) => Value::from((a && b) != *negated),
                    // three-valued: definite false short-circuits NULL
                    (Some(false), None) | (None, Some(false)) => Value::from(*negated),
                    _ => Value::Null,
                })
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_ctx(row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let w = item.eval_ctx(row, ctx)?;
                    match v.sql_eq(&w) {
                        Some(true) => return Ok(Value::from(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::from(*negated))
                }
            }
            BoundExpr::InSet {
                expr,
                set,
                set_has_null,
                negated,
            } => {
                let v = expr.eval_ctx(row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                if set.contains(&v) {
                    Ok(Value::from(!*negated))
                } else if *set_has_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::from(*negated))
                }
            }
            BoundExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                match operand {
                    Some(op_expr) => {
                        let v = op_expr.eval_ctx(row, ctx)?;
                        for (when, then) in branches {
                            let w = when.eval_ctx(row, ctx)?;
                            if v.sql_eq(&w) == Some(true) {
                                return then.eval_ctx(row, ctx);
                            }
                        }
                    }
                    None => {
                        for (when, then) in branches {
                            if when.eval_ctx(row, ctx)?.truthiness() == Some(true) {
                                return then.eval_ctx(row, ctx);
                            }
                        }
                    }
                }
                match else_branch {
                    Some(e) => e.eval_ctx(row, ctx),
                    None => Ok(Value::Null),
                }
            }
            BoundExpr::Cast { expr, dtype } => Ok(dtype.coerce(expr.eval_ctx(row, ctx)?)),
            BoundExpr::Builtin { name, args } => {
                let vals = args
                    .iter()
                    .map(|a| a.eval_ctx(row, ctx))
                    .collect::<SqlResult<Vec<_>>>()?;
                eval_builtin(name, &vals)
                    .unwrap_or_else(|| Err(SqlError::Binding(format!("unknown built-in {name:?}"))))
            }
            BoundExpr::Udf { udf, args } => {
                let vals = args
                    .iter()
                    .map(|a| a.eval_ctx(row, ctx))
                    .collect::<SqlResult<Vec<_>>>()?;
                if let Some(n) = udf.arity() {
                    if vals.len() != n {
                        return Err(SqlError::Udf(format!(
                            "{} expects {n} argument(s), got {}",
                            udf.name(),
                            vals.len()
                        )));
                    }
                }
                udf.call(&vals)
            }
        }
    }

    /// Evaluate as a predicate: NULL counts as false (SQL WHERE semantics).
    pub fn eval_predicate(&self, row: &[Value]) -> SqlResult<bool> {
        Ok(self.eval(row)?.truthiness().unwrap_or(false))
    }

    /// Predicate evaluation with catalog context (correlated subqueries).
    pub fn eval_predicate_ctx(&self, row: &[Value], ctx: &EvalCtx<'_>) -> SqlResult<bool> {
        Ok(self.eval_ctx(row, ctx)?.truthiness().unwrap_or(false))
    }

    /// Is this a constant expression (no column references)?
    pub fn is_constant(&self) -> bool {
        match self {
            BoundExpr::Literal(_) => true,
            BoundExpr::ColumnRef(_) | BoundExpr::OuterRef(_) => false,
            BoundExpr::CorrelatedExists { .. }
            | BoundExpr::CorrelatedScalar { .. }
            | BoundExpr::CorrelatedIn { .. } => false,
            BoundExpr::Binary { lhs, rhs, .. } => lhs.is_constant() && rhs.is_constant(),
            BoundExpr::Unary { operand, .. } => operand.is_constant(),
            BoundExpr::IsNull { expr, .. } => expr.is_constant(),
            BoundExpr::Between {
                expr, low, high, ..
            } => expr.is_constant() && low.is_constant() && high.is_constant(),
            BoundExpr::InList { expr, list, .. } => {
                expr.is_constant() && list.iter().all(BoundExpr::is_constant)
            }
            BoundExpr::InSet { expr, .. } => expr.is_constant(),
            BoundExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                operand.as_deref().is_none_or(BoundExpr::is_constant)
                    && branches
                        .iter()
                        .all(|(w, t)| w.is_constant() && t.is_constant())
                    && else_branch.as_deref().is_none_or(BoundExpr::is_constant)
            }
            BoundExpr::Cast { expr, .. } => expr.is_constant(),
            // Function calls may be non-deterministic (LM UDFs!), so they
            // are never folded as constants.
            BoundExpr::Builtin { .. } | BoundExpr::Udf { .. } => false,
        }
    }

    /// Collect the set of referenced column positions.
    pub fn referenced_columns(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            BoundExpr::Literal(_) => {}
            BoundExpr::ColumnRef(i) | BoundExpr::OuterRef(i) => {
                out.insert(*i);
            }
            BoundExpr::CorrelatedExists { plan, .. } | BoundExpr::CorrelatedScalar { plan } => {
                plan.collect_outer_refs(out);
            }
            BoundExpr::CorrelatedIn { expr, plan, .. } => {
                expr.referenced_columns(out);
                plan.collect_outer_refs(out);
            }
            BoundExpr::Binary { lhs, rhs, .. } => {
                lhs.referenced_columns(out);
                rhs.referenced_columns(out);
            }
            BoundExpr::Unary { operand, .. } => operand.referenced_columns(out),
            BoundExpr::IsNull { expr, .. } => expr.referenced_columns(out),
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.referenced_columns(out);
                low.referenced_columns(out);
                high.referenced_columns(out);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.referenced_columns(out);
                for e in list {
                    e.referenced_columns(out);
                }
            }
            BoundExpr::InSet { expr, .. } => expr.referenced_columns(out),
            BoundExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(o) = operand {
                    o.referenced_columns(out);
                }
                for (w, t) in branches {
                    w.referenced_columns(out);
                    t.referenced_columns(out);
                }
                if let Some(e) = else_branch {
                    e.referenced_columns(out);
                }
            }
            BoundExpr::Cast { expr, .. } => expr.referenced_columns(out),
            BoundExpr::Builtin { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            BoundExpr::Udf { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
        }
    }

    /// Rewrite every column reference through `map` (used when pushing
    /// expressions through projections / join sides). Outer references
    /// — including those inside embedded correlated subplans, which point
    /// at this row — are remapped through the same map.
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> BoundExpr {
        self.rewrite_refs(&|i| BoundExpr::ColumnRef(map(i)), &|i| {
            BoundExpr::OuterRef(map(i))
        })
    }

    /// Replace every outer reference with the corresponding literal from
    /// `outer_row` (performed before a correlated subplan executes).
    /// Column references are untouched — they belong to the subplan.
    pub fn substitute_outer(&self, outer_row: &[Value]) -> BoundExpr {
        self.rewrite_refs(&|i| BoundExpr::ColumnRef(i), &|i| {
            BoundExpr::Literal(outer_row.get(i).cloned().unwrap_or(Value::Null))
        })
    }

    /// Collect outer-reference positions, descending into embedded
    /// correlated subplans (their outer refs point at this row too).
    pub fn collect_outer_refs(&self, out: &mut std::collections::BTreeSet<usize>) {
        self.visit_refs(&mut |e| {
            if let BoundExpr::OuterRef(i) = e {
                out.insert(*i);
            }
        });
    }

    /// Does the expression (or an embedded subplan) contain outer refs?
    pub fn contains_outer_ref(&self) -> bool {
        let mut found = false;
        self.visit_refs(&mut |e| {
            if matches!(e, BoundExpr::OuterRef(_)) {
                found = true;
            }
        });
        found
    }

    /// Visit every node of the expression, descending into the
    /// expressions of embedded correlated subplans.
    pub(crate) fn visit_refs(&self, f: &mut dyn FnMut(&BoundExpr)) {
        f(self);
        match self {
            BoundExpr::Literal(_) | BoundExpr::ColumnRef(_) | BoundExpr::OuterRef(_) => {}
            BoundExpr::CorrelatedExists { plan, .. } | BoundExpr::CorrelatedScalar { plan } => {
                plan.visit_exprs(f)
            }
            BoundExpr::CorrelatedIn { expr, plan, .. } => {
                expr.visit_refs(f);
                plan.visit_exprs(f);
            }
            BoundExpr::Binary { lhs, rhs, .. } => {
                lhs.visit_refs(f);
                rhs.visit_refs(f);
            }
            BoundExpr::Unary { operand, .. } => operand.visit_refs(f),
            BoundExpr::IsNull { expr, .. } => expr.visit_refs(f),
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.visit_refs(f);
                low.visit_refs(f);
                high.visit_refs(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.visit_refs(f);
                for e in list {
                    e.visit_refs(f);
                }
            }
            BoundExpr::InSet { expr, .. } => expr.visit_refs(f),
            BoundExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(o) = operand {
                    o.visit_refs(f);
                }
                for (w, t) in branches {
                    w.visit_refs(f);
                    t.visit_refs(f);
                }
                if let Some(e) = else_branch {
                    e.visit_refs(f);
                }
            }
            BoundExpr::Cast { expr, .. } => expr.visit_refs(f),
            BoundExpr::Builtin { args, .. } | BoundExpr::Udf { args, .. } => {
                for a in args {
                    a.visit_refs(f);
                }
            }
        }
    }

    /// Rebuild the expression with `col` applied to this level's column
    /// references and `outer` applied to outer references (at this level
    /// and inside embedded correlated subplans; the subplans' own column
    /// references are preserved).
    pub(crate) fn rewrite_refs(
        &self,
        col: &dyn Fn(usize) -> BoundExpr,
        outer: &dyn Fn(usize) -> BoundExpr,
    ) -> BoundExpr {
        match self {
            BoundExpr::Literal(v) => BoundExpr::Literal(v.clone()),
            BoundExpr::ColumnRef(i) => col(*i),
            BoundExpr::OuterRef(i) => outer(*i),
            BoundExpr::CorrelatedExists { plan, negated } => BoundExpr::CorrelatedExists {
                plan: Box::new(plan.rewrite_outer(outer)),
                negated: *negated,
            },
            BoundExpr::CorrelatedScalar { plan } => BoundExpr::CorrelatedScalar {
                plan: Box::new(plan.rewrite_outer(outer)),
            },
            BoundExpr::CorrelatedIn {
                expr,
                plan,
                negated,
            } => BoundExpr::CorrelatedIn {
                expr: Box::new(expr.rewrite_refs(col, outer)),
                plan: Box::new(plan.rewrite_outer(outer)),
                negated: *negated,
            },
            BoundExpr::Binary { op, lhs, rhs } => BoundExpr::Binary {
                op: *op,
                lhs: Box::new(lhs.rewrite_refs(col, outer)),
                rhs: Box::new(rhs.rewrite_refs(col, outer)),
            },
            BoundExpr::Unary { op, operand } => BoundExpr::Unary {
                op: *op,
                operand: Box::new(operand.rewrite_refs(col, outer)),
            },
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.rewrite_refs(col, outer)),
                negated: *negated,
            },
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(expr.rewrite_refs(col, outer)),
                low: Box::new(low.rewrite_refs(col, outer)),
                high: Box::new(high.rewrite_refs(col, outer)),
                negated: *negated,
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(expr.rewrite_refs(col, outer)),
                list: list.iter().map(|e| e.rewrite_refs(col, outer)).collect(),
                negated: *negated,
            },
            BoundExpr::InSet {
                expr,
                set,
                set_has_null,
                negated,
            } => BoundExpr::InSet {
                expr: Box::new(expr.rewrite_refs(col, outer)),
                set: Arc::clone(set),
                set_has_null: *set_has_null,
                negated: *negated,
            },
            BoundExpr::Case {
                operand,
                branches,
                else_branch,
            } => BoundExpr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| Box::new(o.rewrite_refs(col, outer))),
                branches: branches
                    .iter()
                    .map(|(w, t)| (w.rewrite_refs(col, outer), t.rewrite_refs(col, outer)))
                    .collect(),
                else_branch: else_branch
                    .as_ref()
                    .map(|e| Box::new(e.rewrite_refs(col, outer))),
            },
            BoundExpr::Cast { expr, dtype } => BoundExpr::Cast {
                expr: Box::new(expr.rewrite_refs(col, outer)),
                dtype: *dtype,
            },
            BoundExpr::Builtin { name, args } => BoundExpr::Builtin {
                name: name.clone(),
                args: args.iter().map(|a| a.rewrite_refs(col, outer)).collect(),
            },
            BoundExpr::Udf { udf, args } => BoundExpr::Udf {
                udf: Arc::clone(udf),
                args: args.iter().map(|a| a.rewrite_refs(col, outer)).collect(),
            },
        }
    }
}

/// The input positions a list of expressions reads when every one is a
/// bare column reference (a projection that computes nothing), or
/// `None` when one computes something.
pub(crate) fn column_only(exprs: &[BoundExpr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            BoundExpr::ColumnRef(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// Substitute the outer row into a correlated subplan and execute it.
fn run_correlated(
    plan: &crate::plan::Plan,
    outer_row: &[Value],
    ctx: &EvalCtx<'_>,
) -> SqlResult<Vec<Vec<Value>>> {
    let catalog = ctx.catalog.ok_or_else(|| {
        SqlError::Eval(
            "correlated subquery requires catalog context (evaluated outside the executor)".into(),
        )
    })?;
    let bound = plan.substitute_outer(outer_row);
    let batches = crate::chunk_exec::execute(&bound, catalog, false)?;
    Ok(crate::chunk::batches_to_rows(&batches))
}

fn eval_binary(
    op: BinOp,
    lhs: &BoundExpr,
    rhs: &BoundExpr,
    row: &[Value],
    ctx: &EvalCtx<'_>,
) -> SqlResult<Value> {
    // Short-circuiting three-valued AND / OR.
    match op {
        BinOp::And => {
            let l = lhs.eval_ctx(row, ctx)?.truthiness();
            if l == Some(false) {
                return Ok(Value::from(false));
            }
            let r = rhs.eval_ctx(row, ctx)?.truthiness();
            return Ok(match (l, r) {
                (_, Some(false)) => Value::from(false),
                (Some(true), Some(true)) => Value::from(true),
                _ => Value::Null,
            });
        }
        BinOp::Or => {
            let l = lhs.eval_ctx(row, ctx)?.truthiness();
            if l == Some(true) {
                return Ok(Value::from(true));
            }
            let r = rhs.eval_ctx(row, ctx)?.truthiness();
            return Ok(match (l, r) {
                (_, Some(true)) => Value::from(true),
                (Some(false), Some(false)) => Value::from(false),
                _ => Value::Null,
            });
        }
        _ => {}
    }
    let l = lhs.eval_ctx(row, ctx)?;
    let r = rhs.eval_ctx(row, ctx)?;
    use std::cmp::Ordering::*;
    let cmp_to_value = |want: &[std::cmp::Ordering]| match l.sql_cmp(&r) {
        None => Value::Null,
        Some(o) => Value::from(want.contains(&o)),
    };
    Ok(match op {
        BinOp::Add => arith::add(&l, &r)?,
        BinOp::Sub => arith::sub(&l, &r)?,
        BinOp::Mul => arith::mul(&l, &r)?,
        BinOp::Div => arith::div(&l, &r)?,
        BinOp::Rem => arith::rem(&l, &r)?,
        BinOp::Concat => arith::concat(&l, &r)?,
        BinOp::Eq => match l.sql_eq(&r) {
            None => Value::Null,
            Some(b) => Value::from(b),
        },
        BinOp::NotEq => match l.sql_eq(&r) {
            None => Value::Null,
            Some(b) => Value::from(!b),
        },
        BinOp::Lt => cmp_to_value(&[Less]),
        BinOp::LtEq => cmp_to_value(&[Less, Equal]),
        BinOp::Gt => cmp_to_value(&[Greater]),
        BinOp::GtEq => cmp_to_value(&[Greater, Equal]),
        BinOp::Like | BinOp::NotLike => {
            if l.is_null() || r.is_null() {
                Value::Null
            } else {
                let matched = like_match(&l.to_string(), &r.to_string());
                Value::from(matched != (op == BinOp::NotLike))
            }
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::ColumnRef(i)
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    #[test]
    fn column_ref_and_arith() {
        let row = vec![Value::Int(10), Value::text("x")];
        let e = bin(BinOp::Add, col(0), lit(5));
        assert_eq!(e.eval(&row).unwrap(), Value::Int(15));
        assert!(col(9).eval(&row).is_err());
    }

    #[test]
    fn three_valued_and_or() {
        let row: Vec<Value> = vec![Value::Null];
        // NULL AND FALSE = FALSE
        let e = bin(BinOp::And, col(0), lit(false));
        assert_eq!(e.eval(&row).unwrap(), Value::from(false));
        // NULL AND TRUE = NULL
        let e = bin(BinOp::And, col(0), lit(true));
        assert_eq!(e.eval(&row).unwrap(), Value::Null);
        // NULL OR TRUE = TRUE
        let e = bin(BinOp::Or, col(0), lit(true));
        assert_eq!(e.eval(&row).unwrap(), Value::from(true));
        // NULL OR FALSE = NULL
        let e = bin(BinOp::Or, col(0), lit(false));
        assert_eq!(e.eval(&row).unwrap(), Value::Null);
    }

    #[test]
    fn predicate_null_is_false() {
        let e = bin(BinOp::Eq, lit(Value::Null), lit(1));
        assert!(!e.eval_predicate(&[]).unwrap());
    }

    #[test]
    fn between_three_valued() {
        // 5 BETWEEN NULL AND 3 => definite false (5 > 3)
        let e = BoundExpr::Between {
            expr: Box::new(lit(5)),
            low: Box::new(lit(Value::Null)),
            high: Box::new(lit(3)),
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::from(false));
        // 5 BETWEEN NULL AND 7 => NULL
        let e = BoundExpr::Between {
            expr: Box::new(lit(5)),
            low: Box::new(lit(Value::Null)),
            high: Box::new(lit(7)),
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn in_list_and_set_null_semantics() {
        let e = BoundExpr::InList {
            expr: Box::new(lit(2)),
            list: vec![lit(1), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);

        let mut set = HashSet::new();
        set.insert(Value::Int(1));
        let e = BoundExpr::InSet {
            expr: Box::new(lit(2)),
            set: Arc::new(set),
            set_has_null: true,
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn case_forms() {
        // searched case
        let e = BoundExpr::Case {
            operand: None,
            branches: vec![(bin(BinOp::Gt, col(0), lit(0)), lit("pos"))],
            else_branch: Some(Box::new(lit("neg"))),
        };
        assert_eq!(e.eval(&[Value::Int(3)]).unwrap(), Value::text("pos"));
        assert_eq!(e.eval(&[Value::Int(-3)]).unwrap(), Value::text("neg"));
        // simple case with no else
        let e = BoundExpr::Case {
            operand: Some(Box::new(col(0))),
            branches: vec![(lit(1), lit("one"))],
            else_branch: None,
        };
        assert_eq!(e.eval(&[Value::Int(2)]).unwrap(), Value::Null);
    }

    #[test]
    fn like_and_concat() {
        let e = bin(BinOp::Like, lit("Titanic"), lit("t%"));
        assert_eq!(e.eval(&[]).unwrap(), Value::from(true));
        let e = bin(BinOp::Concat, lit("a"), lit("b"));
        assert_eq!(e.eval(&[]).unwrap(), Value::text("ab"));
    }

    #[test]
    fn constant_detection_and_column_collection() {
        let e = bin(BinOp::Add, lit(1), lit(2));
        assert!(e.is_constant());
        let e = bin(BinOp::Add, col(3), bin(BinOp::Mul, col(1), lit(2)));
        assert!(!e.is_constant());
        let mut cols = std::collections::BTreeSet::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols.into_iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn remap_columns() {
        let e = bin(BinOp::Add, col(0), col(2));
        let remapped = e.remap_columns(&|i| i + 10);
        let mut cols = std::collections::BTreeSet::new();
        remapped.referenced_columns(&mut cols);
        assert_eq!(cols.into_iter().collect::<Vec<_>>(), vec![10, 12]);
    }

    #[test]
    fn builtin_dispatch() {
        let e = BoundExpr::Builtin {
            name: "upper".into(),
            args: vec![col(0)],
        };
        assert_eq!(e.eval(&[Value::text("hi")]).unwrap(), Value::text("HI"));
    }
}
