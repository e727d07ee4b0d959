//! The relational executor: columnar, morsel at a time.
//!
//! Every [`Plan`] the engine runs — top-level statements, the planner's
//! eager uncorrelated subqueries, per-row correlated subqueries — goes
//! through [`execute`]. Operators exchange [`Batch`]es of typed column
//! vectors; rows are only materialized at the boundary.
//!
//! # Shape
//!
//! Table scans split the table's columnar image
//! ([`crate::table::Table::columnar`]) into morsel-sized zero-copy
//! `Range` batches ([`crate::morsel`]); index probes select their rows
//! of it in one batch, and `VALUES` builds one small owned batch. Every downstream operator works a batch at a
//! time (filter narrows them, project rebuilds them, aggregate folds
//! them into its groups). A project of column references only rebuilds
//! nothing: each batch keeps its rows and views the chosen columns
//! ([`Chunk::project`]). Operators run one at a time, bottom-up, each
//! walking its batches in order on the calling thread, so batch order
//! is row order and nothing an operator builds needs merging.
//!
//! # Determinism contract
//!
//! Results — rows, order and error messages — are byte-identical to the
//! row-at-a-time reference interpreter (`crate::exec::reference`, test
//! builds only) for every morsel size; the in-crate parity proptest
//! (`parity` below) holds the two against each other.
//!
//! - Aggregates keep one [`AggState`] per (group, call), fed in row
//!   order exactly as [`aggregate_rows`] feeds it, so float addition,
//!   integer-overflow promotion, GROUP_CONCAT and DISTINCT first
//!   occurrences follow the reference's order. Groups are numbered in
//!   first-seen order under one map of group keys, which also unifies
//!   keys that compare equal across batches of different column types
//!   (`Int(7)` and `Float(7.0)`) and keeps the first one seen.
//! - Sort is one stable sort on the key over rows pushed in row order;
//!   top-k keeps the best `LIMIT + OFFSET` rows under (key, row order)
//!   (see [`crate::exec::compare_keys`]'s ordering contract).
//! - Hash-join build chains right rows so each key's chain runs in
//!   ascending right-row order ([`BuildTable`]); probe preserves left
//!   order per batch.
//! - Errors: batches run in order and the first failing one stops the
//!   operator. Where a kernel evaluates several expressions column by
//!   column (filter, project, sort keys, the hash-join probe key with
//!   its residual, aggregates), its own error is discarded and the
//!   batch is replayed row-major through the scalar evaluator
//!   (`exact_row_error`, [`aggregate_rows`]), which raises exactly the
//!   error a row-at-a-time run would hit first. The hash-join build key
//!   is one expression evaluated in row order, so its kernel's error
//!   already is that error and is returned as it is.

use crate::ast::JoinKind;
use crate::catalog::Catalog;
use crate::chunk::{batches_len, batches_to_rows, concat_batches_chunk, Batch, Chunk, ColumnData};
use crate::error::{SqlError, SqlResult};
use crate::exec::{aggregate_rows, compare_keys, eval_keys, AggState};
use crate::expr::{column_only, BoundExpr, EvalCtx};
use crate::morsel::{morsels, MORSEL_ROWS};
use crate::plan::{AggCall, Plan, SortKey};
use crate::schema::Row;
use crate::table::{Table, TableIndex};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Execute a plan against a catalog, producing the root operator's
/// batches in output order: a scan's are zero-copy views of the table's
/// columnar image, and [`batches_to_rows`] materializes any of them.
/// With `spans` (a statement run under an active trace) every plan node
/// opens one `exec` [`tag_trace`] span labelled [`Plan::label`] that
/// records its rows out; the batches hold the same rows either way.
/// Subqueries the planner or a correlated expression runs pass `false`,
/// so a statement's span tree is its own plan, once.
pub fn execute(plan: &Plan, catalog: &Catalog, spans: bool) -> SqlResult<Vec<Batch>> {
    execute_morsels(plan, catalog, spans, MORSEL_ROWS)
}

/// [`execute`] at an explicit morsel size, so the parity test can put
/// batch boundaries inside groups and ties on tiny tables.
fn execute_morsels(
    plan: &Plan,
    catalog: &Catalog,
    spans: bool,
    morsel_rows: usize,
) -> SqlResult<Vec<Batch>> {
    let ctx = ChunkCtx {
        catalog,
        morsel_rows,
        spans,
    };
    ctx.exec_node(plan)
}

/// The rows an index access path selected: one batch selecting them, in
/// index order, out of the table's image. Nothing is copied.
fn index_batch(table: &Table, ids: Vec<usize>) -> Vec<Batch> {
    let ids = ids.into_iter().map(|id| id as u32).collect();
    vec![Batch::select(table.columnar(), ids)]
}

struct ChunkCtx<'a> {
    catalog: &'a Catalog,
    morsel_rows: usize,
    spans: bool,
}

impl<'a> ChunkCtx<'a> {
    fn eval(&self) -> EvalCtx<'a> {
        EvalCtx {
            catalog: Some(self.catalog),
        }
    }

    /// Recursion point: every operator's inputs come back through here
    /// so each node is its own span when spans are on.
    fn exec_node(&self, plan: &Plan) -> SqlResult<Vec<Batch>> {
        if !self.spans {
            return self.exec_impl(plan);
        }
        let span = tag_trace::span(tag_trace::Stage::Exec, &plan.label());
        let result = self.exec_impl(plan);
        if let Ok(batches) = &result {
            span.set_rows(batches_len(batches));
        }
        result
    }

    /// The table and index an index access path names.
    fn indexed(&self, table: &str, key_column: usize) -> SqlResult<(&'a Table, &'a TableIndex)> {
        let t = self.catalog.table(table)?;
        let idx = t.index_on(key_column).ok_or_else(|| {
            SqlError::Eval(format!(
                "plan references missing index on {table} col#{key_column}"
            ))
        })?;
        Ok((t, idx))
    }

    /// Evaluate a `VALUES` list row-major (its expressions see no input
    /// row).
    fn values(&self, rows: &[Vec<BoundExpr>]) -> SqlResult<Vec<Row>> {
        let ctx = self.eval();
        rows.iter()
            .map(|exprs| exprs.iter().map(|e| e.eval_ctx(&[], &ctx)).collect())
            .collect()
    }

    fn exec_impl(&self, plan: &Plan) -> SqlResult<Vec<Batch>> {
        match plan {
            Plan::TableScan { table, .. } => {
                let chunk = self.catalog.table(table)?.columnar();
                Ok(morsels(chunk.len(), self.morsel_rows)
                    .into_iter()
                    .map(|(s, e)| Batch::range(Arc::clone(&chunk), s, e))
                    .collect())
            }
            Plan::IndexProbe {
                table,
                key_column,
                key,
                ..
            } => {
                let (t, idx) = self.indexed(table, *key_column)?;
                Ok(index_batch(t, idx.probe(key)))
            }
            Plan::IndexRangeScan {
                table,
                key_column,
                range,
                ..
            } => {
                let (t, idx) = self.indexed(table, *key_column)?;
                let ids = idx
                    .probe_range(range.low.as_ref(), range.high.as_ref())
                    .ok_or_else(|| SqlError::Eval("range scan requires a B-tree index".into()))?;
                Ok(index_batch(t, ids))
            }
            Plan::Values { rows, .. } => {
                Ok(vec![Batch::from_rows(plan.width(), self.values(rows)?)])
            }
            Plan::Filter { input, predicate } => {
                let batches = self.exec_node(input)?;
                let ctx = self.eval();
                let out = batches
                    .iter()
                    .map(|b| match crate::vector::eval_filter(predicate, b, &ctx) {
                        Ok(keep) => Ok(b.narrow(&keep)),
                        Err(e) => Err(exact_row_error(b, e, |row| {
                            predicate.eval_predicate_ctx(row, &ctx).map(|_| ())
                        })),
                    })
                    .collect::<SqlResult<Vec<_>>>()?;
                Ok(out.into_iter().filter(|b| !b.is_empty()).collect())
            }
            Plan::Project { input, exprs, .. } => {
                let batches = self.exec_node(input)?;
                if let Some(cols) = column_only(exprs) {
                    return Ok(project_views(batches, &cols));
                }
                let ctx = self.eval();
                let out = batches
                    .iter()
                    .map(|b| {
                        let cols: SqlResult<Vec<ColumnData>> = exprs
                            .iter()
                            .map(|e| crate::vector::eval_column(e, b, &ctx))
                            .collect();
                        match cols {
                            Ok(cols) => Ok(Batch::owned(Chunk::with_len(cols, b.len()))),
                            Err(e) => Err(exact_row_error(b, e, |row| {
                                for e in exprs {
                                    e.eval_ctx(row, &ctx)?;
                                }
                                Ok(())
                            })),
                        }
                    })
                    .collect::<SqlResult<Vec<_>>>()?;
                Ok(out.into_iter().filter(|b| !b.is_empty()).collect())
            }
            Plan::Aggregate {
                input, group, aggs, ..
            } => self.aggregate(input, group, aggs),
            Plan::HashJoin {
                left,
                right,
                kind,
                left_key,
                right_key,
                residual,
            } => self.hash_join(left, right, *kind, left_key, right_key, residual.as_ref()),
            Plan::NestedLoopJoin {
                left,
                right,
                kind,
                on,
            } => self.nested_loop_join(left, right, *kind, on.as_ref()),
            Plan::Sort { input, keys } => self.sort(input, keys),
            Plan::TopK {
                input,
                keys,
                k,
                offset,
            } => self.top_k(input, keys, *k, *offset),
            Plan::Limit {
                input,
                limit,
                offset,
            } => {
                let batches = self.exec_node(input)?;
                let total = batches_len(&batches);
                let start = (*offset as usize).min(total);
                let end = match limit {
                    Some(l) => (start + *l as usize).min(total),
                    None => total,
                };
                let mut out = Vec::new();
                let mut pos = 0;
                for b in &batches {
                    let (bs, be) = (pos, pos + b.len());
                    pos = be;
                    let s = start.max(bs);
                    let e = end.min(be);
                    if s < e {
                        out.push(b.slice_local(s - bs, e - bs));
                    }
                }
                Ok(out)
            }
            Plan::Distinct { input } => {
                let batches = self.exec_node(input)?;
                // First occurrence wins, in batch then row order.
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for b in &batches {
                    let survivors: Vec<u32> = (0..b.len())
                        .filter(|&local| {
                            seen.insert(
                                (0..b.width())
                                    .map(|c| b.value_at(local, c))
                                    .collect::<Row>(),
                            )
                        })
                        .map(|local| local as u32)
                        .collect();
                    if !survivors.is_empty() {
                        out.push(b.narrow(&survivors));
                    }
                }
                Ok(out)
            }
        }
    }

    /// Group-by aggregation: one pass over the batches in row order,
    /// folding every row into its group's accumulators (see
    /// [`Groups`]).
    fn aggregate(
        &self,
        input: &Plan,
        group: &[BoundExpr],
        aggs: &[AggCall],
    ) -> SqlResult<Vec<Batch>> {
        let batches = self.exec_node(input)?;
        let ctx = self.eval();
        let mut groups = Groups::new(aggs);
        for b in &batches {
            if groups.fold(b, group, &ctx).is_err() {
                // The exact row-at-a-time error: run the whole aggregate
                // over rows. Only an expression that fails intermittently
                // (an LM UDF) can succeed here, and then these rows are
                // the answer.
                let rows = aggregate_rows(&batches_to_rows(&batches), group, aggs, &ctx)?;
                return Ok(vec![Batch::from_rows(group.len() + aggs.len(), rows)]);
            }
        }
        Ok(groups.finish(group.len()))
    }

    fn hash_join(
        &self,
        left: &Plan,
        right: &Plan,
        kind: JoinKind,
        left_key: &BoundExpr,
        right_key: &BoundExpr,
        residual: Option<&BoundExpr>,
    ) -> SqlResult<Vec<Batch>> {
        let left_b = self.exec_node(left)?;
        let right_b = self.exec_node(right)?;
        let rw = right.width();
        let ctx = self.eval();

        // Build side: key columns evaluated a morsel at a time, then
        // one chained table over them (see [`BuildTable`]).
        let right_chunk = concat_batches_chunk(&right_b, rw);
        let right_keys = {
            let whole = Batch::range(Arc::clone(&right_chunk), 0, right_chunk.len());
            let cols = morsels(right_chunk.len(), self.morsel_rows)
                .into_iter()
                .map(|(s, e)| crate::vector::eval_column(right_key, &whole.slice_local(s, e), &ctx))
                .collect::<SqlResult<Vec<_>>>()?;
            ColumnData::concat(cols)
        };
        let table = BuildTable::new(&right_keys);

        // Probe side, per left batch (preserving left order).
        let out = left_b
            .iter()
            .map(|b| {
                let pairs = probe_batch(b, left_key, residual, kind, &table, &right_chunk, &ctx)?;
                Ok(joined_batch(b, &pairs, &right_chunk))
            })
            .collect::<SqlResult<Vec<_>>>()?;
        Ok(out.into_iter().flatten().collect())
    }

    fn nested_loop_join(
        &self,
        left: &Plan,
        right: &Plan,
        kind: JoinKind,
        on: Option<&BoundExpr>,
    ) -> SqlResult<Vec<Batch>> {
        let left_b = self.exec_node(left)?;
        let right_b = self.exec_node(right)?;
        let (lw, rw) = (left.width(), right.width());
        let ctx = self.eval();
        let right_chunk = concat_batches_chunk(&right_b, rw);
        let n_right = right_chunk.len();

        let mut out = Vec::with_capacity(left_b.len());
        for b in &left_b {
            // Row-major within the batch — the reference's loop order,
            // so predicate errors surface identically.
            let mut pairs: Vec<(u32, Option<u32>)> = Vec::new();
            let mut combined: Row = Vec::with_capacity(lw + rw);
            for local in 0..b.len() {
                let left_row: Row = (0..lw).map(|c| b.value_at(local, c)).collect();
                let mut matched = false;
                for r in 0..n_right {
                    let keep = match on {
                        Some(pred) => {
                            combined.clear();
                            combined.extend_from_slice(&left_row);
                            combined.extend((0..rw).map(|c| right_chunk.value_at(r, c)));
                            pred.eval_predicate_ctx(&combined, &ctx)?
                        }
                        None => true,
                    };
                    if keep {
                        matched = true;
                        pairs.push((local as u32, Some(r as u32)));
                    }
                }
                if kind == JoinKind::Left && !matched {
                    pairs.push((local as u32, None));
                }
            }
            out.extend(joined_batch(b, &pairs, &right_chunk));
        }
        Ok(out)
    }

    /// One stable sort on the key alone: entries are pushed in row
    /// order, so ties keep it (the [`compare_keys`] ordering contract).
    fn sort(&self, input: &Plan, keys: &[SortKey]) -> SqlResult<Vec<Batch>> {
        let batches = self.exec_node(input)?;
        let ctx = self.eval();
        let mut entries: Vec<Entry> = Vec::with_capacity(batches_len(&batches));
        for (bi, b) in batches.iter().enumerate() {
            let batch_keys = sort_keys_for(b, keys, &ctx)?;
            for (local, key) in batch_keys.into_iter().enumerate() {
                entries.push((key, bi as u32, local as u32));
            }
        }
        entries.sort_by(|a, b| compare_keys(&a.0, &b.0, keys));
        self.gather_ordered(&batches, &entries, input.width())
    }

    /// The best `offset + k` rows under (key, batch, row), kept sorted in
    /// one vector bounded by `offset + k` across all batches; what
    /// follows the first `offset` of them is the answer.
    fn top_k(
        &self,
        input: &Plan,
        keys: &[SortKey],
        k: usize,
        offset: usize,
    ) -> SqlResult<Vec<Batch>> {
        let batches = self.exec_node(input)?;
        let want = k.saturating_add(offset);
        if want == 0 {
            return Ok(Vec::new());
        }
        let ctx = self.eval();
        let cmp = |a: &Entry, b: &Entry| {
            compare_keys(&a.0, &b.0, keys)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        };
        // `want` comes from the statement (LIMIT + OFFSET): reserve for
        // the rows, never for the number the query names.
        let mut top: Vec<Entry> = Vec::with_capacity(want.min(batches_len(&batches)) + 1);
        for (bi, b) in batches.iter().enumerate() {
            let batch_keys = sort_keys_for(b, keys, &ctx)?;
            for (local, key) in batch_keys.into_iter().enumerate() {
                let entry = (key, bi as u32, local as u32);
                if top.len() < want {
                    top.push(entry);
                    if top.len() == want {
                        top.sort_unstable_by(cmp);
                    }
                } else if top
                    .last()
                    .is_some_and(|worst| cmp(&entry, worst) == std::cmp::Ordering::Less)
                {
                    let pos = top
                        .binary_search_by(|e| cmp(e, &entry))
                        .unwrap_or_else(|p| p);
                    top.insert(pos, entry);
                    top.pop();
                }
            }
        }
        if top.len() < want {
            top.sort_unstable_by(cmp);
        }
        top.drain(..offset.min(top.len()));
        self.gather_ordered(&batches, &top, input.width())
    }

    /// Build the output chunk for an ordered (batch, local) permutation,
    /// one column at a time.
    fn gather_ordered(
        &self,
        batches: &[Batch],
        entries: &[Entry],
        width: usize,
    ) -> SqlResult<Vec<Batch>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        let cols = (0..width)
            .map(|c| {
                ColumnData::from_values(
                    entries
                        .iter()
                        .map(|(_, b, l)| batches[*b as usize].value_at(*l as usize, c))
                        .collect(),
                )
            })
            .collect();
        Ok(vec![Batch::owned(Chunk::with_len(cols, entries.len()))])
    }
}

/// A row's sort key and its (batch, local) position.
type Entry = (Vec<Value>, u32, u32);

/// Evaluate sort keys for every row of a batch, falling back to a
/// row-major replay on error so the error matches the reference.
fn sort_keys_for(batch: &Batch, keys: &[SortKey], ctx: &EvalCtx<'_>) -> SqlResult<Vec<Vec<Value>>> {
    let cols: SqlResult<Vec<ColumnData>> = keys
        .iter()
        .map(|k| crate::vector::eval_column(&k.expr, batch, ctx))
        .collect();
    let cols = match cols {
        Ok(cols) => cols,
        Err(e) => {
            return Err(exact_row_error(batch, e, |row| {
                eval_keys(row, keys, ctx).map(|_| ())
            }))
        }
    };
    Ok((0..batch.len())
        .map(|i| cols.iter().map(|c| c.value_at(i)).collect())
        .collect())
}

/// The output batch of a join over one left batch: left columns
/// gathered by local id, right columns by (optional) global right id.
/// `None` when no pair survived.
fn joined_batch(left: &Batch, pairs: &[(u32, Option<u32>)], right: &Chunk) -> Option<Batch> {
    if pairs.is_empty() {
        return None;
    }
    let left_ids: Vec<u32> = pairs.iter().map(|(l, _)| *l).collect();
    let right_ids: Vec<Option<u32>> = pairs.iter().map(|(_, r)| *r).collect();
    let narrowed = left.narrow(&left_ids);
    let cols = (0..left.width())
        .map(|c| narrowed.gather_column(c))
        .chain((0..right.width()).map(|c| right.column(c).gather_opt(&right_ids)))
        .collect();
    Some(Batch::owned(Chunk::with_len(cols, pairs.len())))
}

/// A column-only projection: each batch keeps its rows and points at a
/// [`Chunk::project`] view of its chunk, so nothing is copied.
/// Consecutive batches over one chunk (a scan's morsels) share one
/// view, which lets [`concat_batches_chunk`] take the view whole.
fn project_views(batches: Vec<Batch>, cols: &[usize]) -> Vec<Batch> {
    let mut last: Option<(Arc<Chunk>, Arc<Chunk>)> = None;
    batches
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|b| {
            let data = match &last {
                Some((source, view)) if Arc::ptr_eq(source, &b.data) => Arc::clone(view),
                _ => {
                    let view = Arc::new(b.data.project(cols));
                    last = Some((b.data, Arc::clone(&view)));
                    view
                }
            };
            Batch { data, rows: b.rows }
        })
        .collect()
}

/// Probe one left batch against the build table, producing
/// `(left local id, matched right global id)` pairs in left-row order.
fn probe_batch(
    batch: &Batch,
    left_key: &BoundExpr,
    residual: Option<&BoundExpr>,
    kind: JoinKind,
    table: &BuildTable,
    right_chunk: &Chunk,
    ctx: &EvalCtx<'_>,
) -> SqlResult<Vec<(u32, Option<u32>)>> {
    let (lw, rw) = (batch.width(), right_chunk.width());
    let keys = match crate::vector::eval_column(left_key, batch, ctx) {
        Ok(keys) => keys,
        Err(e) => {
            // Row-major replay: the reference interleaves key and
            // residual evaluation, so reproduce that order exactly.
            return Err(exact_row_error(batch, e, |row| {
                let key = left_key.eval_ctx(row, ctx)?;
                if let Some(pred) = residual {
                    for r in table.chain(&key) {
                        let mut combined = row.clone();
                        combined.extend((0..rw).map(|c| right_chunk.value_at(r as usize, c)));
                        pred.eval_predicate_ctx(&combined, ctx)?;
                    }
                }
                Ok(())
            }));
        }
    };
    let mut pairs: Vec<(u32, Option<u32>)> = Vec::new();
    let mut combined: Row = Vec::with_capacity(lw + rw);
    for local in 0..batch.len() {
        let mut matched = false;
        for r in table.chain(&keys.value_at(local)) {
            let keep = match residual {
                None => true,
                Some(pred) => {
                    combined.clear();
                    combined.extend((0..lw).map(|c| batch.value_at(local, c)));
                    combined.extend((0..rw).map(|c| right_chunk.value_at(r as usize, c)));
                    pred.eval_predicate_ctx(&combined, ctx)?
                }
            };
            if keep {
                matched = true;
                pairs.push((local as u32, Some(r)));
            }
        }
        if kind == JoinKind::Left && !matched {
            pairs.push((local as u32, None));
        }
    }
    Ok(pairs)
}

/// End of a [`BuildTable`] chain.
const NO_ROW: u32 = u32::MAX;

/// The hash-join build table: each distinct key maps to the first
/// right row holding it, and `next[r]` is the next right row with the
/// same key as row `r` (or [`NO_ROW`]). One map entry per distinct key
/// and one `u32` per row, where a map of `Vec`s allocated a vector per
/// key.
///
/// Built back to front: inserting row `r` replaces the key's head and
/// links `r` to the old head, which is a later row. So each chain runs
/// in ascending right-row order, the order the reference visits
/// matches in.
struct BuildTable {
    heads: HashMap<Value, u32>,
    next: Vec<u32>,
}

impl BuildTable {
    /// Chain the rows of `keys`; NULL keys never join, so they are left
    /// out.
    fn new(keys: &ColumnData) -> BuildTable {
        let n = keys.len();
        let mut heads = HashMap::with_capacity(n);
        let mut next = vec![NO_ROW; n];
        for r in (0..n).rev().filter(|&r| !keys.is_null(r)) {
            next[r] = heads.insert(keys.value_at(r), r as u32).unwrap_or(NO_ROW);
        }
        BuildTable { heads, next }
    }

    /// The right rows whose key equals `key`, in ascending order; none
    /// for NULL.
    fn chain(&self, key: &Value) -> impl Iterator<Item = u32> + '_ {
        let first = match key {
            Value::Null => None,
            key => self.heads.get(key).copied(),
        };
        std::iter::successors(first, |&r| {
            let next = self.next[r as usize];
            (next != NO_ROW).then_some(next)
        })
    }
}

/// A running aggregate: the groups in first-seen order and, per
/// (group, call), the [`AggState`] that [`aggregate_rows`] would hold
/// at the same row, plus the values a DISTINCT call has taken.
struct Groups<'a> {
    aggs: &'a [AggCall],
    /// Group key to group id: the one map every batch resolves to, so
    /// keys that compare equal are one group whatever their column type
    /// in each batch, keyed by the first one seen.
    index: HashMap<Vec<Value>, usize>,
    keys: Vec<Vec<Value>>,
    /// `aggs.len()` states per group, group-major.
    states: Vec<AggState>,
    /// Parallel to `states` when some call is DISTINCT, else empty.
    seen: Vec<HashSet<Value>>,
}

/// A batch's group lookup. One `Int` or `Text` group column is looked
/// up by its typed cell (`None` for NULL), so no `Vec<Value>` key is
/// built per row; a miss goes to [`Groups::id`].
enum Lookup<'k> {
    Int(&'k [i64], &'k [bool], HashMap<Option<i64>, usize>),
    Text(&'k [String], &'k [bool], HashMap<Option<&'k str>, usize>),
    General,
}

impl<'a> Groups<'a> {
    fn new(aggs: &'a [AggCall]) -> Groups<'a> {
        Groups {
            aggs,
            index: HashMap::new(),
            keys: Vec::new(),
            states: Vec::new(),
            seen: Vec::new(),
        }
    }

    /// The id of the group `key` names, opening it on first sight.
    fn id(&mut self, key: Vec<Value>) -> usize {
        if let Some(&gi) = self.index.get(&key) {
            return gi;
        }
        let gi = self.keys.len();
        self.index.insert(key.clone(), gi);
        self.keys.push(key);
        self.states
            .extend(self.aggs.iter().map(|a| AggState::new(a.func)));
        if self.aggs.iter().any(|a| a.distinct) {
            self.seen.extend(self.aggs.iter().map(|_| HashSet::new()));
        }
        gi
    }

    /// Fold one batch in row order. An error (evaluating a key or an
    /// argument, or updating a state) is only a signal: the caller
    /// replays the whole aggregate row-wise for the exact error.
    fn fold(&mut self, batch: &Batch, group: &[BoundExpr], ctx: &EvalCtx<'_>) -> SqlResult<()> {
        let group_cols = group
            .iter()
            .map(|g| crate::vector::eval_column(g, batch, ctx))
            .collect::<SqlResult<Vec<_>>>()?;
        let arg_cols = self
            .aggs
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|e| crate::vector::eval_column(e, batch, ctx))
                    .transpose()
            })
            .collect::<SqlResult<Vec<_>>>()?;
        let mut lookup = match group_cols.as_slice() {
            [ColumnData::Int { values, validity }] => Lookup::Int(values, validity, HashMap::new()),
            [ColumnData::Text { values, validity }] => {
                Lookup::Text(values, validity, HashMap::new())
            }
            _ => Lookup::General,
        };
        let n = self.aggs.len();
        for i in 0..batch.len() {
            let gi = match &mut lookup {
                Lookup::Int(values, valid, map) => {
                    let cell = valid[i].then_some(values[i]);
                    *map.entry(cell)
                        .or_insert_with(|| self.id(vec![cell.map_or(Value::Null, Value::Int)]))
                }
                Lookup::Text(values, valid, map) => {
                    let cell = valid[i].then(|| values[i].as_str());
                    *map.entry(cell)
                        .or_insert_with(|| self.id(vec![cell.map_or(Value::Null, Value::text)]))
                }
                Lookup::General => self.id(group_cols.iter().map(|c| c.value_at(i)).collect()),
            };
            for (a, (call, col)) in self.aggs.iter().zip(&arg_cols).enumerate() {
                let slot = gi * n + a;
                let v = match col {
                    Some(c) => c.value_at(i),
                    None => Value::Int(1), // COUNT(*) marker
                };
                if call.distinct && (v.is_null() || !self.seen[slot].insert(v.clone())) {
                    continue;
                }
                self.states[slot].update(&v)?;
            }
        }
        Ok(())
    }

    /// One row per group in first-seen order: its `key_width` key
    /// values, then one value per call.
    fn finish(mut self, key_width: usize) -> Vec<Batch> {
        // A global aggregation over no rows still yields one row.
        if key_width == 0 && self.keys.is_empty() {
            self.id(Vec::new());
        }
        if self.keys.is_empty() {
            return Vec::new();
        }
        let (n, rows) = (self.aggs.len(), self.keys.len());
        let mut columns: Vec<Vec<Value>> = (0..key_width + n)
            .map(|_| Vec::with_capacity(rows))
            .collect();
        for key in self.keys {
            for (c, v) in key.into_iter().enumerate() {
                columns[c].push(v);
            }
        }
        for (slot, state) in self.states.into_iter().enumerate() {
            let a = slot % n;
            columns[key_width + a].push(state.finish(&self.aggs[a].separator));
        }
        vec![Batch::owned(Chunk::new(
            columns.into_iter().map(ColumnData::from_values).collect(),
        ))]
    }
}

/// Reproduce the exact error a row-at-a-time run would raise first for
/// this batch: replay the rows in order through `row_try` and return
/// its first error. Falls back to the kernel's own error if the replay
/// unexpectedly succeeds (it cannot, but never panic on an error path).
fn exact_row_error(
    batch: &Batch,
    kernel_err: SqlError,
    row_try: impl Fn(&Row) -> SqlResult<()>,
) -> SqlError {
    for local in 0..batch.len() {
        let row: Row = (0..batch.width())
            .map(|c| batch.value_at(local, c))
            .collect();
        if let Err(e) = row_try(&row) {
            return e;
        }
    }
    kernel_err
}

/// The differential test: [`execute`] against the row-at-a-time
/// reference interpreter, results *and* errors, over randomized tables,
/// NULL patterns, plan shapes and morsel sizes (down to 1 row per
/// morsel, putting batch boundaries inside groups and ties even on
/// tiny tables).
#[cfg(test)]
mod parity {
    use super::*;
    use crate::exec::reference;
    use crate::parser::parse_statement;
    use crate::Database;
    use proptest::prelude::*;

    /// Random cell drawn from all four storage classes. Narrow domains
    /// on purpose: small ints and two-letter strings force group-key
    /// collisions, join matches, and sort ties, which is where row
    /// order bugs live. Column affinity coerces at insert time, so
    /// mixed draws per column are fine (and put numeric strings into
    /// the text column, which is what lets `c + 0` succeed on some rows
    /// and fail on others).
    fn cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-8i64..8).prop_map(Value::Int),
            (-100i64..100).prop_map(|v| Value::Float(v as f64 / 4.0)),
            "[ab]{0,2}".prop_map(Value::text),
        ]
    }

    /// `t` is a plain table; `u` holds the same rows behind a B-tree
    /// index on `a`, so the optimizer picks index access paths for it.
    fn build_db(rows: Vec<Row>) -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (a INTEGER, b REAL, c TEXT);
             CREATE TABLE u (a INTEGER, b REAL, c TEXT);
             CREATE INDEX u_a ON u (a);",
        )
        .expect("create");
        for table in ["t", "u"] {
            db.catalog_mut()
                .table_mut(table)
                .expect("table")
                .insert_all(rows.clone())
                .expect("insert rows");
        }
        db
    }

    /// `c + 0` fails on the first row whose text is not a number, and
    /// the message quotes that text. Guarded by `a > k` it fails on a
    /// *later* row than the bare expression does, so a kernel that
    /// evaluates one expression for the whole batch before the next
    /// raises a different error than a row-at-a-time run — which is
    /// what makes the row-replay fallbacks observable below.
    fn late(k: i64) -> String {
        format!("(CASE WHEN a > {k} THEN c END + 0)")
    }

    /// The plan-shape pool: every relational operator and leaf, mixed
    /// intermediate column types (CASE), NULL join keys, residual join
    /// predicates, DISTINCT aggregates, subqueries, and one
    /// data-dependent error per error-replay site of the executor.
    fn queries(k: i64, j: i64) -> Vec<String> {
        let mut pool = vec![
            "SELECT * FROM t".into(),
            format!("SELECT * FROM t WHERE a > {k}"),
            format!("SELECT a, CASE WHEN a > {k} THEN b ELSE c END FROM t"),
            "SELECT a + b, c FROM t".into(),
            "SELECT a IS NULL, NOT (b > 0.0) FROM t".into(),
            "SELECT c, COUNT(*), SUM(a), AVG(b), MIN(a), MAX(c) FROM t GROUP BY c".into(),
            "SELECT a, c, COUNT(*) FROM t GROUP BY a, c ORDER BY a, c".into(),
            "SELECT COUNT(DISTINCT a), GROUP_CONCAT(c) FROM t".into(),
            "SELECT SUM(b), TOTAL(a) FROM t".into(),
            "SELECT * FROM t ORDER BY c, a DESC".into(),
            format!("SELECT a FROM t ORDER BY b LIMIT {} OFFSET {}", k.max(0), j),
            format!("SELECT * FROM t LIMIT {j}"),
            "SELECT DISTINCT c FROM t".into(),
            "SELECT t1.a, t2.b FROM t t1 JOIN t t2 ON t1.c = t2.c WHERE t1.a < t2.a".into(),
            "SELECT t1.a, t2.b FROM t t1 LEFT JOIN t t2 ON t1.a = t2.a ORDER BY t1.a, t2.b".into(),
            "SELECT a FROM t UNION SELECT CAST(b AS INTEGER) FROM t".into(),
            // IN lists: the typed kernel (Int, Float, Text columns), and
            // a NULL item, which keeps the row-at-a-time path.
            format!("SELECT * FROM t WHERE a IN ({k}, {j}, 2.0)"),
            format!("SELECT a, b NOT IN (0.5, {k}) FROM t"),
            "SELECT c FROM t WHERE c IN ('a', 'ab', 7) AND c NOT IN ('b', '3')".into(),
            format!("SELECT a FROM t WHERE a NOT IN ({k}, NULL) OR c IN ('a', NULL)"),
            format!("SELECT c FROM t WHERE b * a > {k} ORDER BY a LIMIT 3"),
            // A LIMIT far past the input must not size any buffer.
            "SELECT a FROM t ORDER BY a LIMIT 1000000000000".into(),
            "SELECT a FROM t ORDER BY a LIMIT 9223372036854775807".into(),
            "SELECT a FROM t ORDER BY a LIMIT 9223372036854775807 OFFSET 5".into(),
            // Subqueries: eager uncorrelated IN / scalar, per-row
            // correlated EXISTS.
            format!("SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE b > {k})"),
            "SELECT a, (SELECT MAX(b) FROM t) FROM t".into(),
            "SELECT a FROM t t1 WHERE EXISTS \
             (SELECT 1 FROM t t2 WHERE t2.a = t1.a AND t2.b > t1.b)"
                .into(),
            // Hash joins over `Int` keys (duplicate keys, whose chains
            // must keep right-row order, and NULL keys on both sides),
            // unmatched LEFT rows, `Int` against `Float` keys (7 joins
            // 7.0) and a `Mixed` key column.
            "SELECT t1.b, t2.b, t2.c FROM t t1 JOIN t t2 ON t1.a = t2.a".into(),
            format!("SELECT t1.a, t2.b FROM t t1 LEFT JOIN t t2 ON t1.a = t2.a + {k}"),
            "SELECT t1.a, t2.b FROM t t1 JOIN t t2 ON t1.a = t2.b".into(),
            "SELECT t1.c, t2.a FROM t t1 JOIN t t2 \
             ON CASE WHEN t1.a > 0 THEN t1.a ELSE t1.b END = t2.a"
                .into(),
            // A group key whose column type varies between batches:
            // `Int` and `Float` keys that compare equal form one group,
            // keyed by the first one seen. (The binder matches no CASE
            // in the select list against GROUP BY, so it is derived.)
            format!(
                "SELECT g, COUNT(*), MIN(g), MAX(g), SUM(b) FROM \
                 (SELECT CASE WHEN a > {k} THEN a ELSE b END AS g, b FROM t) s GROUP BY g"
            ),
            "SELECT a, COUNT(DISTINCT c), GROUP_CONCAT(c) FROM t GROUP BY a".into(),
            // Ties on `a` that span batch boundaries, cut by top-k.
            format!(
                "SELECT a, b, c FROM t ORDER BY a LIMIT {} OFFSET {j}",
                k.max(0) + 1
            ),
        ];
        pool.extend(leaf_queries(k).into_iter().map(|(sql, _)| sql));
        pool.extend(failing_queries(k));
        pool
    }

    /// One statement per native leaf, with the leaf's plan label.
    fn leaf_queries(k: i64) -> Vec<(String, &'static str)> {
        vec![
            (format!("SELECT * FROM u WHERE a = {k}"), "IndexProbe"),
            (
                format!("SELECT a, c FROM u WHERE a > {k} AND c IS NOT NULL"),
                "IndexRangeScan",
            ),
            // The table-less row and the constant-false empty relation.
            (format!("SELECT {k} + 1, 'x'"), "Values"),
            ("SELECT a FROM t WHERE 1 = 0".into(), "Values"),
        ]
    }

    /// Data-dependent errors, one statement per replay site: a
    /// correlated scalar subquery returning two rows (when `a` has
    /// duplicates), filter, project, the ORDER BY projection (first,
    /// because the fixture test takes its plan apart), hash-join build
    /// key, hash-join probe key + residual, both whole-aggregate
    /// replays (evaluation-time: GROUP BY key and argument;
    /// finish-time: SUM over text, global and grouped), a residual that
    /// fails on the second row of a key's chain, and a probe key that
    /// fails to evaluate.
    fn failing_queries(k: i64) -> Vec<String> {
        let late = late(k);
        vec![
            format!("SELECT a FROM t ORDER BY {late}, c + 0"),
            "SELECT (SELECT t2.b FROM t t2 WHERE t2.a = t1.a) FROM t t1".into(),
            format!("SELECT a FROM t WHERE {late} > 0 AND c + 0 > 0"),
            format!("SELECT {late}, c + 0 FROM t"),
            "SELECT t1.a FROM t t1 JOIN t t2 ON t1.a = t2.c + 0".into(),
            "SELECT t1.a FROM t t1 JOIN t t2 ON t1.c + 0 = t2.a AND t2.c + 0 > t1.b".into(),
            format!("SELECT COUNT(c + 0) FROM t GROUP BY {late}"),
            "SELECT SUM(c) FROM t".into(),
            "SELECT a, SUM(c) FROM t GROUP BY a".into(),
            "SELECT t1.a FROM t t1 JOIN t t2 ON t1.a = t2.a AND t2.c + 0 >= 0".into(),
            "SELECT t1.a FROM t t1 JOIN t t2 ON t1.a + 'x' = t2.a".into(),
        ]
    }

    /// Hold the reference's outcome for `plan` against
    /// [`execute_morsels`] at `morsel_rows`.
    fn check_plan(db: &Database, plan: &Plan, morsel_rows: usize) -> Result<(), String> {
        // Debug text, not `==`: Int(7) and Float(7.0) compare equal.
        let want = format!("{:?}", reference::execute(plan, db.catalog()));
        let got = format!(
            "{:?}",
            execute_morsels(plan, db.catalog(), false, morsel_rows).map(|b| batches_to_rows(&b))
        );
        if want != got {
            return Err(format!(
                "divergence at morsel_rows={morsel_rows}\n reference: {want}\n  columnar: {got}\n{}",
                plan.explain()
            ));
        }
        Ok(())
    }

    /// Hold optimizer rule 6 to the plan it starts from: both plans of
    /// `sql`, run by the reference, give the same rows or the same error
    /// (or fail to plan alike). The executor parity above runs one plan
    /// on both sides, so it cannot see a pruning bug; this can.
    fn check_pruning(db: &Database, sql: &str) -> Result<(), String> {
        let run = |plans: SqlResult<Vec<Plan>>| {
            let outcomes = plans.map(|plans| {
                plans
                    .iter()
                    .map(|plan| reference::execute(plan, db.catalog()))
                    .collect::<Vec<_>>()
            });
            format!("{outcomes:?}")
        };
        let (pruned, unpruned) = (run(db.plans(sql)), run(db.unpruned_plans(sql)));
        if pruned != unpruned {
            return Err(format!(
                "{sql}: pruning changed the outcome\n   pruned: {pruned}\n unpruned: {unpruned}"
            ));
        }
        Ok(())
    }

    /// Plan `sql` once and check every arm. `Ok(false)`: the statement
    /// failed at plan time (an eager subquery can).
    fn check(db: &Database, sql: &str, morsel_rows: usize) -> Result<bool, String> {
        parse_statement(sql).expect("pool statements parse");
        let Ok(plans) = db.plans(sql) else {
            return Ok(false);
        };
        for plan in &plans {
            check_plan(db, plan, morsel_rows).map_err(|e| format!("{sql}: {e}"))?;
        }
        Ok(true)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn columnar_matches_reference_byte_for_byte(
            rows in prop::collection::vec(prop::collection::vec(cell(), 3..4), 0..40),
            k in -5i64..5,
            j in 0i64..6,
            morsel_rows in 1usize..17,
        ) {
            let db = build_db(rows);
            for sql in queries(k, j) {
                check(&db, &sql, morsel_rows)?;
                check_pruning(&db, &sql)?;
            }
        }
    }

    /// The pool against one hand-made table, so that what the random
    /// run only makes likely is certain: every statement plans, the
    /// three native leaves are in the plans, and each error statement
    /// errors — the bare `c + 0` on row 1 (`'x'`), the guarded one on
    /// row 2 (`'y'`), after a row 0 that evaluates cleanly and joins.
    #[test]
    fn fixture_reaches_every_leaf_and_error_replay() {
        let text = |s: &str| Value::text(s);
        let db = build_db(vec![
            vec![Value::Int(1), Value::Float(3.0), text("1")],
            vec![Value::Int(0), Value::Float(1.0), text("x")],
            vec![Value::Int(1), Value::Float(2.0), text("y")],
            vec![Value::Int(2), Value::Null, Value::Null],
            vec![Value::Null, Value::Float(0.5), text("2")],
            vec![Value::Int(2), Value::Float(4.0), text("z")],
        ]);
        let plan = |sql: &str| db.plans(sql).unwrap().remove(0);
        for (sql, leaf) in leaf_queries(0) {
            assert!(plan(&sql).explain().contains(leaf), "{sql}: no {leaf} leaf");
        }
        let failing = failing_queries(0);
        for sql in &failing {
            let failed = execute(&plan(sql), db.catalog(), false).is_err();
            assert!(failed, "{sql} must fail on the fixture");
        }
        // The planner projects ORDER BY expressions ahead of the Sort,
        // so no statement puts a failing expression *in* a sort key.
        // Fuse that projection back into the keys to reach the sort
        // operators' own replay.
        let Plan::Project { input: sort, .. } = plan(&failing[0]) else {
            panic!("expected Project over Sort");
        };
        let Plan::Sort { input: keyed, .. } = *sort else {
            panic!("expected Sort over Project");
        };
        let Plan::Project { input, exprs, .. } = *keyed else {
            panic!("expected the ORDER BY projection");
        };
        let keys: Vec<SortKey> = exprs[1..]
            .iter()
            .map(|expr| SortKey {
                expr: expr.clone(),
                descending: false,
            })
            .collect();
        let sort = Plan::Sort {
            input: input.clone(),
            keys: keys.clone(),
        };
        let top_k = Plan::TopK {
            input,
            keys,
            k: 2,
            offset: 1,
        };
        for sql in queries(0, 1) {
            assert_eq!(check_pruning(&db, &sql), Ok(()));
        }
        for morsel_rows in 1..17 {
            for sql in queries(0, 1) {
                assert_eq!(check(&db, &sql, morsel_rows), Ok(true), "{sql}");
            }
            for plan in [&sort, &top_k] {
                assert!(reference::execute(plan, db.catalog()).is_err());
                assert_eq!(check_plan(&db, plan, morsel_rows), Ok(()));
            }
        }
    }
}
