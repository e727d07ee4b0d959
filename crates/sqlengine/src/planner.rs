//! Binding and planning: turns parsed statements into executable plans.
//!
//! The planner resolves names against the catalog, executes uncorrelated
//! subqueries eagerly (materializing them into literals / sets), embeds
//! *correlated* subqueries as per-row re-executed plans with outer-ref
//! placeholders (one level deep), detects aggregation, and assembles the
//! physical [`Plan`] tree. The optimizer (see [`crate::optimizer`]) then
//! rewrites the tree.

use crate::ast::{is_aggregate_name, Expr, Join, OrderKey, SelectItem, SelectStmt, TableRef};
use crate::catalog::Catalog;
use crate::chunk::batches_to_rows;
use crate::chunk_exec::execute;
use crate::error::{SqlError, SqlResult};
use crate::expr::BoundExpr;
use crate::plan::{AggCall, AggFunc, Plan, SortKey};
use crate::udf::UdfRegistry;
use crate::value::Value;
use std::collections::HashSet;
use std::sync::Arc;

/// A visible column during binding: `(relation qualifier, column name)`.
#[derive(Debug, Clone)]
pub struct ScopeColumn {
    /// The relation's visible name (table name or alias), if any.
    pub qualifier: Option<String>,
    /// The column's name.
    pub name: String,
}

/// The set of columns visible to an expression.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Columns in row order.
    pub columns: Vec<ScopeColumn>,
}

impl Scope {
    fn from_relation(qualifier: Option<&str>, names: &[String]) -> Scope {
        Scope {
            columns: names
                .iter()
                .map(|n| ScopeColumn {
                    qualifier: qualifier.map(str::to_owned),
                    name: n.clone(),
                })
                .collect(),
        }
    }

    fn extend(&mut self, other: Scope) {
        self.columns.extend(other.columns);
    }

    /// Like [`Self::resolve`] but returns `Ok(None)` when the column is
    /// simply absent (ambiguity is still an error) — used for falling
    /// back to an enclosing query's scope.
    fn try_resolve(&self, qualifier: Option<&str>, name: &str) -> SqlResult<Option<usize>> {
        match self.resolve(qualifier, name) {
            Ok(i) => Ok(Some(i)),
            Err(e) if e.message().contains("ambiguous") => Err(e),
            Err(_) => Ok(None),
        }
    }

    /// Resolve `[qualifier.]name` to a column position.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> SqlResult<usize> {
        let mut matches = self.columns.iter().enumerate().filter(|(_, c)| {
            c.name.eq_ignore_ascii_case(name)
                && match qualifier {
                    None => true,
                    Some(q) => c
                        .qualifier
                        .as_deref()
                        .map(|cq| cq.eq_ignore_ascii_case(q))
                        .unwrap_or(false),
                }
        });
        let first = matches.next();
        let second = matches.next();
        match (first, second) {
            (Some((i, _)), None) => Ok(i),
            (Some(_), Some(_)) => Err(SqlError::Binding(format!(
                "ambiguous column reference {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            (None, _) => Err(SqlError::Binding(format!(
                "no such column: {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
        }
    }
}

/// Case-insensitive structural equality of AST expressions, used to match
/// GROUP BY expressions and duplicate aggregate calls: the same variant
/// with the same own fields, and equal [`Expr::operands`] pairwise.
/// Qualifiers compare equal when either side omits one. Expressions
/// holding a subquery (`IN (SELECT …)`, scalar, `EXISTS`) never compare
/// equal.
fn ast_eq(a: &Expr, b: &Expr) -> bool {
    use Expr::*;
    let same_head = match (a, b) {
        (Literal(x), Literal(y)) => x == y,
        (
            Column {
                qualifier: qa,
                name: na,
            },
            Column {
                qualifier: qb,
                name: nb,
            },
        ) => {
            na.eq_ignore_ascii_case(nb)
                && match (qa, qb) {
                    (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
                    _ => true,
                }
        }
        (Binary { op: x, .. }, Binary { op: y, .. }) => x == y,
        (Unary { op: x, .. }, Unary { op: y, .. }) => x == y,
        (
            Function {
                name: na,
                distinct: da,
                ..
            },
            Function {
                name: nb,
                distinct: db,
                ..
            },
        ) => na.eq_ignore_ascii_case(nb) && da == db,
        (CountStar, CountStar) => true,
        (Cast { dtype: x, .. }, Cast { dtype: y, .. }) => x == y,
        (IsNull { negated: x, .. }, IsNull { negated: y, .. })
        | (Between { negated: x, .. }, Between { negated: y, .. })
        | (InList { negated: x, .. }, InList { negated: y, .. }) => x == y,
        (
            Case {
                operand: oa,
                else_branch: ea,
                ..
            },
            Case {
                operand: ob,
                else_branch: eb,
                ..
            },
        ) => oa.is_some() == ob.is_some() && ea.is_some() == eb.is_some(),
        _ => false,
    };
    if !same_head {
        return false;
    }
    let (xs, ys) = (a.operands(), b.operands());
    xs.len() == ys.len() && xs.into_iter().zip(ys).all(|(x, y)| ast_eq(x, y))
}

/// A bound select list: expressions, output names, and the projection
/// index of each original item (`None` for wildcards, which expand).
type BoundSelectList = (Vec<BoundExpr>, Vec<String>, Vec<Option<usize>>);

/// Aggregate-rewrite context: maps GROUP BY expressions and aggregate
/// calls (as AST) to positions in the Aggregate node's output.
pub(crate) struct AggCtx<'a> {
    group_asts: &'a [Expr],
    agg_asts: &'a [Expr],
}

/// The planner. Holds references to the catalog (for name resolution and
/// eager subquery execution) and the UDF registry.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    udfs: &'a UdfRegistry,
}

impl<'a> Planner<'a> {
    /// Create a planner over a catalog and UDF registry.
    pub fn new(catalog: &'a Catalog, udfs: &'a UdfRegistry) -> Self {
        Planner { catalog, udfs }
    }

    /// Plan a full SELECT statement.
    pub fn plan_select(&self, stmt: &SelectStmt) -> SqlResult<Plan> {
        self.plan_select_outer(stmt, None)
    }

    /// Plan a SELECT with an optional enclosing-query scope (correlated
    /// subqueries resolve unknown columns against it as outer refs).
    fn plan_select_outer(&self, stmt: &SelectStmt, outer: Option<&Scope>) -> SqlResult<Plan> {
        let (mut plan, scope) = self.plan_from(stmt, outer)?;

        // WHERE
        if let Some(pred) = &stmt.predicate {
            if pred.contains_aggregate() {
                return Err(SqlError::Binding(
                    "aggregate functions are not allowed in WHERE".into(),
                ));
            }
            let bound = self.bind_outer(pred, &scope, None, outer)?;
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate: bound,
            };
        }

        let has_agg = !stmt.group_by.is_empty()
            || stmt
                .items
                .iter()
                .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || stmt.having.as_ref().is_some_and(Expr::contains_aggregate)
            || stmt.order_by.iter().any(|k| k.expr.contains_aggregate());

        // Post-aggregation binding context.
        let (plan, bind_scope, agg_group_asts, agg_asts) = if has_agg {
            let (plan, group_asts, agg_asts, agg_scope) =
                self.plan_aggregate(plan, &scope, stmt, outer)?;
            (plan, agg_scope, group_asts, agg_asts)
        } else {
            if stmt.having.is_some() {
                return Err(SqlError::Binding(
                    "HAVING requires GROUP BY or aggregates".into(),
                ));
            }
            (plan, scope, Vec::new(), Vec::new())
        };
        let agg_ctx = if has_agg {
            Some(AggCtx {
                group_asts: &agg_group_asts,
                agg_asts: &agg_asts,
            })
        } else {
            None
        };
        let mut plan = plan;

        // HAVING
        if let Some(having) = &stmt.having {
            let bound = self.bind_outer(having, &bind_scope, agg_ctx.as_ref(), outer)?;
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate: bound,
            };
        }

        // Select list
        let (proj_exprs, proj_names, item_proj) =
            self.bind_select_items(&stmt.items, &bind_scope, agg_ctx.as_ref(), has_agg, outer)?;

        // ORDER BY: resolve against output aliases / ordinals first, then
        // fall back to hidden expressions over the pre-projection scope.
        let mut sort_specs: Vec<(usize, bool)> = Vec::new(); // (proj index, desc)
        let mut hidden: Vec<BoundExpr> = Vec::new();
        for key in &stmt.order_by {
            let idx = self.resolve_order_key(
                key,
                &proj_names,
                &stmt.items,
                &item_proj,
                &bind_scope,
                agg_ctx.as_ref(),
                proj_exprs.len(),
                &mut hidden,
                outer,
            )?;
            sort_specs.push((idx, key.descending));
        }

        if stmt.distinct && !hidden.is_empty() {
            return Err(SqlError::Unsupported(
                "SELECT DISTINCT with ORDER BY over non-output expressions".into(),
            ));
        }

        let visible = proj_exprs.len();
        let mut all_exprs = proj_exprs;
        let mut all_names = proj_names;
        for (i, h) in hidden.into_iter().enumerate() {
            all_exprs.push(h);
            all_names.push(format!("__sort_{i}"));
        }

        plan = Plan::Project {
            input: Box::new(plan),
            exprs: all_exprs,
            columns: all_names.clone(),
        };

        if stmt.distinct {
            plan = Plan::Distinct {
                input: Box::new(plan),
            };
        }

        if !sort_specs.is_empty() {
            plan = Plan::Sort {
                input: Box::new(plan),
                keys: sort_specs
                    .into_iter()
                    .map(|(i, desc)| SortKey {
                        expr: BoundExpr::ColumnRef(i),
                        descending: desc,
                    })
                    .collect(),
            };
        }

        if all_names.len() > visible {
            // Strip hidden sort columns.
            plan = Plan::Project {
                input: Box::new(plan),
                exprs: (0..visible).map(BoundExpr::ColumnRef).collect(),
                columns: all_names[..visible].to_vec(),
            };
        }

        if stmt.limit.is_some() || stmt.offset.is_some() {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit: stmt.limit,
                offset: stmt.offset.unwrap_or(0),
            };
        }
        Ok(plan)
    }

    /// Plan the FROM clause (base relation plus joins), returning the
    /// combined input plan and scope.
    fn plan_from(&self, stmt: &SelectStmt, outer: Option<&Scope>) -> SqlResult<(Plan, Scope)> {
        let Some(from) = &stmt.from else {
            // Table-less SELECT: a single empty row to project over.
            return Ok((
                Plan::Values {
                    columns: Vec::new(),
                    rows: vec![Vec::new()],
                },
                Scope::default(),
            ));
        };
        let (mut plan, mut scope) = self.plan_table_ref(from)?;
        let mut seen: HashSet<String> = HashSet::new();
        seen.extend(from.visible_name().map(str::to_ascii_uppercase));
        for Join { kind, table, on } in &stmt.joins {
            if let Some(vis) = table.visible_name() {
                if !seen.insert(vis.to_ascii_uppercase()) {
                    return Err(SqlError::Binding(format!(
                        "duplicate table name or alias {vis:?} in FROM (use AS to disambiguate)"
                    )));
                }
            }
            let (right_plan, right_scope) = self.plan_table_ref(table)?;
            let mut combined = scope.clone();
            combined.extend(right_scope);
            let bound_on = match on {
                Some(e) => {
                    if e.contains_aggregate() {
                        return Err(SqlError::Binding(
                            "aggregates are not allowed in JOIN conditions".into(),
                        ));
                    }
                    Some(self.bind_outer(e, &combined, None, outer)?)
                }
                None => None,
            };
            plan = Plan::NestedLoopJoin {
                left: Box::new(plan),
                right: Box::new(right_plan),
                kind: *kind,
                on: bound_on,
            };
            scope = combined;
        }
        Ok((plan, scope))
    }

    fn plan_table_ref(&self, table: &TableRef) -> SqlResult<(Plan, Scope)> {
        match table {
            TableRef::Table { name, alias } => {
                let t = self.catalog.table(name)?;
                let columns = t.schema().names();
                let vis = alias.as_deref().unwrap_or(name);
                let scope = Scope::from_relation(Some(vis), &columns);
                Ok((
                    Plan::TableScan {
                        table: t.name().to_owned(),
                        columns,
                    },
                    scope,
                ))
            }
            TableRef::Subquery { query, alias } => {
                let plan = self.plan_select(query)?;
                let columns = plan.columns();
                let scope = Scope::from_relation(alias.as_deref(), &columns);
                Ok((plan, scope))
            }
        }
    }

    /// Build the Aggregate node. Returns (plan, group ASTs, agg ASTs,
    /// post-aggregate scope).
    fn plan_aggregate(
        &self,
        input: Plan,
        scope: &Scope,
        stmt: &SelectStmt,
        outer: Option<&Scope>,
    ) -> SqlResult<(Plan, Vec<Expr>, Vec<Expr>, Scope)> {
        // Gather the distinct aggregate calls appearing anywhere.
        let mut agg_asts: Vec<Expr> = Vec::new();
        let mut collect = |e: &Expr| collect_aggregates(e, &mut agg_asts);
        for item in &stmt.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect(expr)?;
            }
        }
        if let Some(h) = &stmt.having {
            collect(h)?;
        }
        for k in &stmt.order_by {
            collect(&k.expr)?;
        }

        // Bind group expressions against the input scope.
        let mut group_bound = Vec::with_capacity(stmt.group_by.len());
        let mut group_names = Vec::with_capacity(stmt.group_by.len());
        for g in &stmt.group_by {
            if g.contains_aggregate() {
                return Err(SqlError::Binding(
                    "aggregate functions are not allowed in GROUP BY".into(),
                ));
            }
            group_bound.push(self.bind_outer(g, scope, None, outer)?);
            group_names.push(g.display_name());
        }

        // Bind aggregate arguments against the input scope.
        let mut aggs = Vec::with_capacity(agg_asts.len());
        for a in &agg_asts {
            let call = self.bind_agg_call(a, scope, outer)?;
            aggs.push(call);
        }

        // Post-aggregate scope: group columns keep their qualifier when
        // they are simple column references so `s.city` still resolves.
        let mut out_scope = Scope::default();
        for (g, name) in stmt.group_by.iter().zip(&group_names) {
            let qualifier = match g {
                Expr::Column { qualifier, .. } => qualifier.clone(),
                _ => None,
            };
            out_scope.columns.push(ScopeColumn {
                qualifier,
                name: name.clone(),
            });
        }
        for a in &aggs {
            out_scope.columns.push(ScopeColumn {
                qualifier: None,
                name: a.name.clone(),
            });
        }

        let plan = Plan::Aggregate {
            input: Box::new(input),
            group: group_bound,
            group_names,
            aggs,
        };
        Ok((plan, stmt.group_by.clone(), agg_asts, out_scope))
    }

    fn bind_agg_call(
        &self,
        ast: &Expr,
        scope: &Scope,
        outer: Option<&Scope>,
    ) -> SqlResult<AggCall> {
        match ast {
            Expr::CountStar => Ok(AggCall {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
                separator: ",".into(),
                name: "count(*)".into(),
            }),
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                let func = AggFunc::parse(name).ok_or_else(|| {
                    SqlError::Binding(format!("{name} is not an aggregate function"))
                })?;
                let mut separator = ",".to_owned();
                let arg = match func {
                    AggFunc::GroupConcat => {
                        if args.is_empty() || args.len() > 2 {
                            return Err(SqlError::Binding(
                                "GROUP_CONCAT takes 1 or 2 arguments".into(),
                            ));
                        }
                        if let Some(sep) = args.get(1) {
                            match sep {
                                Expr::Literal(Value::Text(s)) => separator = s.clone(),
                                _ => {
                                    return Err(SqlError::Binding(
                                        "GROUP_CONCAT separator must be a string literal".into(),
                                    ))
                                }
                            }
                        }
                        Some(self.bind_outer(&args[0], scope, None, outer)?)
                    }
                    _ => {
                        if args.len() != 1 {
                            return Err(SqlError::Binding(format!(
                                "{name} takes exactly one argument"
                            )));
                        }
                        if args[0].contains_aggregate() {
                            return Err(SqlError::Binding(
                                "nested aggregate functions are not allowed".into(),
                            ));
                        }
                        Some(self.bind_outer(&args[0], scope, None, outer)?)
                    }
                };
                let display = format!(
                    "{}({}{})",
                    name.to_ascii_lowercase(),
                    if *distinct { "DISTINCT " } else { "" },
                    args.first().map(|a| a.display_name()).unwrap_or_default()
                );
                Ok(AggCall {
                    func,
                    arg,
                    distinct: *distinct,
                    separator,
                    name: display,
                })
            }
            other => Err(SqlError::Binding(format!(
                "not an aggregate call: {other:?}"
            ))),
        }
    }

    fn bind_select_items(
        &self,
        items: &[SelectItem],
        scope: &Scope,
        agg: Option<&AggCtx<'_>>,
        has_agg: bool,
        outer: Option<&Scope>,
    ) -> SqlResult<BoundSelectList> {
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        // Projection index of each `SelectItem::Expr` (wildcards expand to
        // many columns and get `None`) — ORDER BY structural matching must
        // map through this, not through the raw item position.
        let mut item_proj: Vec<Option<usize>> = Vec::with_capacity(items.len());
        for item in items {
            match item {
                SelectItem::Wildcard => {
                    if has_agg {
                        return Err(SqlError::Binding(
                            "SELECT * cannot be combined with GROUP BY or aggregates".into(),
                        ));
                    }
                    item_proj.push(None);
                    for (i, c) in scope.columns.iter().enumerate() {
                        exprs.push(BoundExpr::ColumnRef(i));
                        names.push(c.name.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    if has_agg {
                        return Err(SqlError::Binding(
                            "qualified * cannot be combined with GROUP BY or aggregates".into(),
                        ));
                    }
                    item_proj.push(None);
                    let mut any = false;
                    for (i, c) in scope.columns.iter().enumerate() {
                        if c.qualifier
                            .as_deref()
                            .map(|cq| cq.eq_ignore_ascii_case(q))
                            .unwrap_or(false)
                        {
                            exprs.push(BoundExpr::ColumnRef(i));
                            names.push(c.name.clone());
                            any = true;
                        }
                    }
                    if !any {
                        return Err(SqlError::Binding(format!("no such table or alias: {q}")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    item_proj.push(Some(exprs.len()));
                    exprs.push(self.bind_outer(expr, scope, agg, outer)?);
                    names.push(alias.clone().unwrap_or_else(|| expr.display_name()));
                }
            }
        }
        Ok((exprs, names, item_proj))
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_order_key(
        &self,
        key: &OrderKey,
        proj_names: &[String],
        items: &[SelectItem],
        item_proj: &[Option<usize>],
        scope: &Scope,
        agg: Option<&AggCtx<'_>>,
        visible: usize,
        hidden: &mut Vec<BoundExpr>,
        outer: Option<&Scope>,
    ) -> SqlResult<usize> {
        // `ORDER BY <ordinal>`
        if let Expr::Literal(Value::Int(n)) = &key.expr {
            let n = *n;
            if n < 1 || n as usize > visible {
                return Err(SqlError::Binding(format!(
                    "ORDER BY position {n} is out of range (1..={visible})"
                )));
            }
            return Ok(n as usize - 1);
        }
        // Alias / output-name match (unqualified names only).
        if let Expr::Column {
            qualifier: None,
            name,
        } = &key.expr
        {
            if let Some(i) = proj_names[..visible]
                .iter()
                .position(|p| p.eq_ignore_ascii_case(name))
            {
                return Ok(i);
            }
        }
        // Structural match against a select item expression, mapped to its
        // projection index (wildcards shift positions).
        for (item, proj) in items.iter().zip(item_proj) {
            if let (SelectItem::Expr { expr, .. }, Some(p)) = (item, proj) {
                if ast_eq(expr, &key.expr) && *p < visible {
                    return Ok(*p);
                }
            }
        }
        // Hidden sort expression over the pre-projection scope.
        let bound = self.bind_outer(&key.expr, scope, agg, outer)?;
        hidden.push(bound);
        Ok(visible + hidden.len() - 1)
    }

    // ---- expression binding -------------------------------------------

    /// Bind an AST expression to a [`BoundExpr`] against `scope`.
    /// With `agg` set, GROUP BY expressions and aggregate calls rewrite to
    /// references into the Aggregate node's output.
    pub(crate) fn bind(
        &self,
        expr: &Expr,
        scope: &Scope,
        agg: Option<&AggCtx<'_>>,
    ) -> SqlResult<BoundExpr> {
        self.bind_outer(expr, scope, agg, None)
    }

    /// Bind with an optional enclosing-query scope for correlated
    /// references (one level deep).
    fn bind_outer(
        &self,
        expr: &Expr,
        scope: &Scope,
        agg: Option<&AggCtx<'_>>,
        outer: Option<&Scope>,
    ) -> SqlResult<BoundExpr> {
        if let Some(ctx) = agg {
            for (i, g) in ctx.group_asts.iter().enumerate() {
                if ast_eq(g, expr) {
                    return Ok(BoundExpr::ColumnRef(i));
                }
            }
            for (j, a) in ctx.agg_asts.iter().enumerate() {
                if ast_eq(a, expr) {
                    return Ok(BoundExpr::ColumnRef(ctx.group_asts.len() + j));
                }
            }
            if matches!(expr, Expr::CountStar)
                || matches!(expr, Expr::Function { name, .. } if is_aggregate_name(name))
            {
                // An aggregate call that wasn't collected can only mean a
                // planner bug; surface it clearly.
                return Err(SqlError::Binding(format!(
                    "internal: uncollected aggregate {expr:?}"
                )));
            }
        }
        match expr {
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Column { qualifier, name } => {
                if agg.is_none() {
                    if let Some(i) = scope.try_resolve(qualifier.as_deref(), name)? {
                        return Ok(BoundExpr::ColumnRef(i));
                    }
                }
                // Correlated reference to the enclosing query's row.
                if let Some(out) = outer {
                    if let Some(i) = out.try_resolve(qualifier.as_deref(), name)? {
                        return Ok(BoundExpr::OuterRef(i));
                    }
                }
                if agg.is_some() {
                    return Err(SqlError::Binding(format!(
                        "column {name:?} must appear in GROUP BY or inside an aggregate"
                    )));
                }
                // Re-run resolve for its precise error message.
                let idx = scope.resolve(qualifier.as_deref(), name)?;
                Ok(BoundExpr::ColumnRef(idx))
            }
            Expr::Binary { op, lhs, rhs } => Ok(BoundExpr::Binary {
                op: *op,
                lhs: Box::new(self.bind_outer(lhs, scope, agg, outer)?),
                rhs: Box::new(self.bind_outer(rhs, scope, agg, outer)?),
            }),
            Expr::Unary { op, operand } => Ok(BoundExpr::Unary {
                op: *op,
                operand: Box::new(self.bind_outer(operand, scope, agg, outer)?),
            }),
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.bind_outer(expr, scope, agg, outer)?),
                negated: *negated,
            }),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Ok(BoundExpr::Between {
                expr: Box::new(self.bind_outer(expr, scope, agg, outer)?),
                low: Box::new(self.bind_outer(low, scope, agg, outer)?),
                high: Box::new(self.bind_outer(high, scope, agg, outer)?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => Ok(BoundExpr::InList {
                expr: Box::new(self.bind_outer(expr, scope, agg, outer)?),
                list: list
                    .iter()
                    .map(|e| self.bind_outer(e, scope, agg, outer))
                    .collect::<SqlResult<_>>()?,
                negated: *negated,
            }),
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let plan = self.plan_select_outer(query, Some(scope))?;
                if plan.width() != 1 {
                    return Err(SqlError::Binding(format!(
                        "IN subquery must return one column, got {}",
                        plan.width()
                    )));
                }
                if plan.contains_outer_ref() {
                    return Ok(BoundExpr::CorrelatedIn {
                        expr: Box::new(self.bind_outer(expr, scope, agg, outer)?),
                        plan: Box::new(plan),
                        negated: *negated,
                    });
                }
                let rows = self.run_plan(plan)?;
                let mut set = HashSet::with_capacity(rows.len());
                let mut set_has_null = false;
                for mut row in rows {
                    let v = row.pop().expect("one column");
                    if v.is_null() {
                        set_has_null = true;
                    } else {
                        set.insert(v);
                    }
                }
                Ok(BoundExpr::InSet {
                    expr: Box::new(self.bind_outer(expr, scope, agg, outer)?),
                    set: Arc::new(set),
                    set_has_null,
                    negated: *negated,
                })
            }
            Expr::ScalarSubquery(query) => {
                let plan = self.plan_select_outer(query, Some(scope))?;
                if plan.width() != 1 {
                    return Err(SqlError::Binding(format!(
                        "scalar subquery must return one column, got {}",
                        plan.width()
                    )));
                }
                if plan.contains_outer_ref() {
                    return Ok(BoundExpr::CorrelatedScalar {
                        plan: Box::new(plan),
                    });
                }
                let rows = self.run_plan(plan)?;
                if rows.len() > 1 {
                    return Err(SqlError::Eval(format!(
                        "scalar subquery returned {} rows",
                        rows.len()
                    )));
                }
                let v = match rows.into_iter().next() {
                    Some(row) => row.into_iter().next().expect("one column"),
                    None => Value::Null,
                };
                Ok(BoundExpr::Literal(v))
            }
            Expr::Exists { query, negated } => {
                let plan = self.plan_select_outer(query, Some(scope))?;
                if plan.contains_outer_ref() {
                    return Ok(BoundExpr::CorrelatedExists {
                        plan: Box::new(plan),
                        negated: *negated,
                    });
                }
                let rows = self.run_plan(plan)?;
                Ok(BoundExpr::Literal(Value::from(rows.is_empty() == *negated)))
            }
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                if is_aggregate_name(name) && args.len() <= 1 {
                    return Err(SqlError::Binding(format!(
                        "aggregate function {name} is not allowed here"
                    )));
                }
                if *distinct {
                    return Err(SqlError::Binding(format!(
                        "DISTINCT is only valid in aggregate functions, not {name}"
                    )));
                }
                let bound_args: Vec<BoundExpr> = args
                    .iter()
                    .map(|a| self.bind_outer(a, scope, agg, outer))
                    .collect::<SqlResult<_>>()?;
                if is_builtin_name(name, args.len()) {
                    Ok(BoundExpr::Builtin {
                        name: name.clone(),
                        args: bound_args,
                    })
                } else if let Some(udf) = self.udfs.get(name) {
                    Ok(BoundExpr::Udf {
                        udf: Arc::clone(udf),
                        args: bound_args,
                    })
                } else {
                    Err(SqlError::Binding(format!("unknown function {name:?}")))
                }
            }
            Expr::CountStar => Err(SqlError::Binding("COUNT(*) is not allowed here".into())),
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => Ok(BoundExpr::Case {
                operand: match operand {
                    Some(o) => Some(Box::new(self.bind_outer(o, scope, agg, outer)?)),
                    None => None,
                },
                branches: branches
                    .iter()
                    .map(|(w, t)| {
                        Ok((
                            self.bind_outer(w, scope, agg, outer)?,
                            self.bind_outer(t, scope, agg, outer)?,
                        ))
                    })
                    .collect::<SqlResult<_>>()?,
                else_branch: match else_branch {
                    Some(e) => Some(Box::new(self.bind_outer(e, scope, agg, outer)?)),
                    None => None,
                },
            }),
            Expr::Cast { expr, dtype } => Ok(BoundExpr::Cast {
                expr: Box::new(self.bind_outer(expr, scope, agg, outer)?),
                dtype: *dtype,
            }),
        }
    }

    /// Optimize and execute an already-planned uncorrelated subquery.
    fn run_plan(&self, plan: Plan) -> SqlResult<Vec<crate::schema::Row>> {
        let plan = crate::optimizer::optimize(plan, self.catalog);
        Ok(batches_to_rows(&execute(&plan, self.catalog, false)?))
    }
}

/// Collect the distinct aggregate calls in an expression (not descending
/// into aggregate arguments). Errors on nested aggregates.
fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) -> SqlResult<()> {
    match expr {
        Expr::CountStar => {}
        Expr::Function { name, args, .. } if is_aggregate_name(name) => {
            if args.iter().any(Expr::contains_aggregate) {
                return Err(SqlError::Binding(
                    "nested aggregate functions are not allowed".into(),
                ));
            }
        }
        _ => {
            return expr
                .operands()
                .into_iter()
                .try_for_each(|e| collect_aggregates(e, out))
        }
    }
    if !out.iter().any(|x| ast_eq(x, expr)) {
        out.push(expr.clone());
    }
    Ok(())
}

/// Names handled by [`crate::functions::eval_builtin`].
fn is_builtin_name(name: &str, arity: usize) -> bool {
    let upper = name.to_ascii_uppercase();
    matches!(
        upper.as_str(),
        "ABS"
            | "LOWER"
            | "UPPER"
            | "LENGTH"
            | "TRIM"
            | "LTRIM"
            | "RTRIM"
            | "ROUND"
            | "COALESCE"
            | "IFNULL"
            | "NULLIF"
            | "SUBSTR"
            | "SUBSTRING"
            | "REPLACE"
            | "INSTR"
            | "TYPEOF"
    ) || (matches!(upper.as_str(), "MIN" | "MAX") && arity >= 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, Schema};
    use crate::table::Table;

    fn setup() -> (Catalog, UdfRegistry) {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Integer),
                Column::new("name", DataType::Text),
                Column::new("score", DataType::Real),
            ])
            .unwrap(),
        );
        for (i, (n, s)) in [("a", 1.0), ("b", 2.0), ("c", 3.0), ("a", 4.0)]
            .iter()
            .enumerate()
        {
            t.insert(vec![
                Value::Int(i as i64),
                Value::text(*n),
                Value::Float(*s),
            ])
            .unwrap();
        }
        let mut c = Catalog::new();
        c.add_table(t).unwrap();
        (c, UdfRegistry::new())
    }

    fn run(catalog: &Catalog, udfs: &UdfRegistry, sql: &str) -> Vec<crate::schema::Row> {
        let stmt = crate::parser::parse_statement(sql).unwrap();
        let sel = match stmt {
            crate::ast::Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let planner = Planner::new(catalog, udfs);
        let plan = planner.plan_select(&sel).unwrap();
        batches_to_rows(&execute(&plan, catalog, false).unwrap())
    }

    #[test]
    fn select_star_and_projection() {
        let (c, u) = setup();
        let rows = run(&c, &u, "SELECT * FROM t");
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].len(), 3);
        let rows = run(&c, &u, "SELECT name, score * 2 AS dbl FROM t WHERE id >= 2");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::Float(6.0));
    }

    #[test]
    fn group_by_and_having() {
        let (c, u) = setup();
        let rows = run(
            &c,
            &u,
            "SELECT name, COUNT(*), AVG(score) FROM t GROUP BY name HAVING COUNT(*) > 1",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::text("a"));
        assert_eq!(rows[0][1], Value::Int(2));
        assert_eq!(rows[0][2], Value::Float(2.5));
    }

    #[test]
    fn order_by_alias_ordinal_and_hidden() {
        let (c, u) = setup();
        // alias
        let rows = run(&c, &u, "SELECT score AS s FROM t ORDER BY s DESC");
        assert_eq!(rows[0][0], Value::Float(4.0));
        // ordinal
        let rows = run(&c, &u, "SELECT name, score FROM t ORDER BY 2 DESC LIMIT 1");
        assert_eq!(rows[0][1], Value::Float(4.0));
        // hidden expression (not in select list)
        let rows = run(&c, &u, "SELECT name FROM t ORDER BY score DESC LIMIT 1");
        assert_eq!(rows[0], vec![Value::text("a")]);
        assert_eq!(rows[0].len(), 1, "hidden sort column must be stripped");
    }

    #[test]
    fn scalar_and_in_subqueries() {
        let (c, u) = setup();
        let rows = run(
            &c,
            &u,
            "SELECT name FROM t WHERE score = (SELECT MAX(score) FROM t)",
        );
        assert_eq!(rows, vec![vec![Value::text("a")]]);
        let rows = run(
            &c,
            &u,
            "SELECT COUNT(*) FROM t WHERE id IN (SELECT id FROM t WHERE score > 1.5)",
        );
        assert_eq!(rows[0][0], Value::Int(3));
        let rows = run(&c, &u, "SELECT 1 WHERE EXISTS (SELECT 1 FROM t)");
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn ambiguous_and_missing_columns() {
        let (c, u) = setup();
        let planner = Planner::new(&c, &u);
        let stmt =
            crate::parser::parse_statement("SELECT id FROM t AS a JOIN t AS b ON a.id = b.id")
                .unwrap();
        let sel = match stmt {
            crate::ast::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let err = planner.plan_select(&sel).unwrap_err();
        assert!(err.message().contains("ambiguous"));

        let stmt = crate::parser::parse_statement("SELECT nope FROM t").unwrap();
        let sel = match stmt {
            crate::ast::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let err = planner.plan_select(&sel).unwrap_err();
        assert!(err.message().contains("no such column"));
    }

    #[test]
    fn non_grouped_column_rejected() {
        let (c, u) = setup();
        let planner = Planner::new(&c, &u);
        let stmt =
            crate::parser::parse_statement("SELECT id, COUNT(*) FROM t GROUP BY name").unwrap();
        let sel = match stmt {
            crate::ast::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let err = planner.plan_select(&sel).unwrap_err();
        assert!(err.message().contains("GROUP BY"));
    }

    #[test]
    fn expression_group_key_reused_in_select() {
        let (c, u) = setup();
        let rows = run(
            &c,
            &u,
            "SELECT UPPER(name), COUNT(*) FROM t GROUP BY UPPER(name) ORDER BY 1",
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::text("A"));
        assert_eq!(rows[0][1], Value::Int(2));
    }

    #[test]
    fn join_plans() {
        let (mut c, u) = setup();
        let mut other = Table::new(
            "u",
            Schema::new(vec![
                Column::new("id", DataType::Integer),
                Column::new("tag", DataType::Text),
            ])
            .unwrap(),
        );
        other
            .insert(vec![Value::Int(0), Value::text("zero")])
            .unwrap();
        c.add_table(other).unwrap();
        let rows = run(&c, &u, "SELECT t.name, u.tag FROM t JOIN u ON t.id = u.id");
        assert_eq!(rows, vec![vec![Value::text("a"), Value::text("zero")]]);
        let rows = run(
            &c,
            &u,
            "SELECT t.name, u.tag FROM t LEFT JOIN u ON t.id = u.id ORDER BY t.id",
        );
        assert_eq!(rows.len(), 4);
        assert!(rows[1][1].is_null());
    }

    #[test]
    fn subquery_in_from() {
        let (c, u) = setup();
        let rows = run(
            &c,
            &u,
            "SELECT sub.name FROM (SELECT name, score FROM t WHERE score > 2) AS sub \
             ORDER BY sub.score DESC",
        );
        assert_eq!(rows, vec![vec![Value::text("a")], vec![Value::text("c")]]);
    }

    #[test]
    fn distinct() {
        let (c, u) = setup();
        let rows = run(&c, &u, "SELECT DISTINCT name FROM t ORDER BY name");
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn table_less_select() {
        let (c, u) = setup();
        let rows = run(&c, &u, "SELECT 1 + 1, UPPER('x')");
        assert_eq!(rows, vec![vec![Value::Int(2), Value::text("X")]]);
    }

    #[test]
    fn order_by_structural_match_after_wildcard() {
        let (c, u) = setup();
        // The sort key expression appears in the select list *after* a
        // wildcard; the structural match must map to the projection
        // index, not the item index.
        let rows = run(&c, &u, "SELECT *, 0 - id FROM t ORDER BY 0 - id");
        let neg: Vec<i64> = rows.iter().map(|r| r[3].as_i64().unwrap()).collect();
        assert_eq!(neg, vec![-3, -2, -1, 0]);
    }

    #[test]
    fn count_star_order_by_aggregate() {
        let (c, u) = setup();
        let rows = run(
            &c,
            &u,
            "SELECT name FROM t GROUP BY name ORDER BY COUNT(*) DESC, name LIMIT 1",
        );
        assert_eq!(rows, vec![vec![Value::text("a")]]);
    }
}
