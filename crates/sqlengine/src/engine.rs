//! The top-level database engine: statement dispatch over a catalog.
//!
//! Every read (`query`, `query_frame`, `execute` of a SELECT, and the
//! `EXPLAIN` of one) is planned when it runs, by one
//! function ([`Database::plan_arms`]), against the catalog as it is at
//! that moment; every plan runs through the one relational executor,
//! [`crate::chunk_exec::execute`], under one arm loop
//! ([`Database::run_arms`]) whose batches the entry point turns into
//! rows (a [`ResultSet`]) or keeps as a selection (a [`SemFrame`]).
//! Nothing on `Database` selects how, and nothing is kept between
//! statements. Under an active `tag-trace` trace each plan node of the
//! statement is an `exec` span ([`crate::chunk_exec::execute`]); that is
//! the only difference a trace makes.

use crate::ast::{ColumnDef, InsertStmt, SelectStmt, Statement};
use crate::catalog::Catalog;
use crate::chunk::{batches_to_rows, Batch};
use crate::chunk_exec::execute;
use crate::error::{SqlError, SqlResult};
use crate::optimizer::optimize;
use crate::parser::{parse_statement, parse_statements};
use crate::plan::Plan;
use crate::planner::{Planner, Scope};
use crate::result::ResultSet;
use crate::schema::{Column, Schema};
use crate::semplan::SemFrame;
use crate::table::{IndexKind, Table};
use crate::udf::{ScalarUdf, UdfRegistry};
use crate::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What is left of the plan cache's counters: both always 0.
///
/// Kept only because `perf/` (which no PR but a `benchmark` PR may
/// edit) reads `hits` and `misses` to fill `tag-sql.plan_cache_hit_ratio`;
/// ROADMAP item 4 drops the struct, both shims and the metric together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Always 0: no statement's plan is kept.
    pub hits: u64,
    /// Always 0: with nothing counted the metric reads 0.
    pub misses: u64,
}

/// One arm of a planned read: a bound + optimized plan. A plain SELECT
/// is one arm; a compound SELECT has one per UNION branch.
struct Arm {
    /// `UNION ALL` (true) vs deduplicating `UNION` (false) with respect
    /// to the preceding arms; unused on the first arm.
    union_all: bool,
    plan: Plan,
}

impl Arm {
    /// The line that separates this arm's text from the previous arm's.
    fn separator(&self) -> &'static str {
        if self.union_all {
            "UNION ALL\n"
        } else {
            "UNION\n"
        }
    }
}

/// An in-memory SQL database: catalog + UDF registry + query pipeline.
///
/// ```
/// use tag_sql::Database;
///
/// let mut db = Database::new();
/// db.execute("CREATE TABLE movies (title TEXT, revenue REAL)").unwrap();
/// db.execute("INSERT INTO movies VALUES ('Titanic', 2257.8), ('Clueless', 56.6)").unwrap();
/// let result = db.execute("SELECT title FROM movies ORDER BY revenue DESC LIMIT 1").unwrap();
/// assert_eq!(result.rows[0][0].to_string(), "Titanic");
/// ```
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    udfs: UdfRegistry,
    /// Atomic so read-only `query()` can count under a shared borrow
    /// (the serving runtime runs SELECTs from many threads at once).
    statements_run: AtomicU64,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            catalog: self.catalog.clone(),
            udfs: self.udfs.clone(),
            statements_run: AtomicU64::new(self.statements_run.load(Ordering::Relaxed)),
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying catalog (read access).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access for programmatic table construction.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Register a scalar UDF (e.g. an LM-backed function).
    pub fn register_udf(&mut self, udf: Arc<dyn ScalarUdf>) {
        self.udfs.register(udf);
    }

    /// The UDF registry.
    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// Number of statements executed so far.
    pub fn statements_run(&self) -> u64 {
        self.statements_run.load(Ordering::Relaxed)
    }

    /// Always the zero value; see [`PlanCacheStats`]. Only caller:
    /// `perf/src/{sql_scale,paper_replay}.rs`.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats::default()
    }

    /// Parse, plan, optimize, and run one SQL statement. `EXPLAIN`
    /// statements (see [`Database::query`]) are answered without
    /// executing anything.
    pub fn execute(&mut self, sql: &str) -> SqlResult<ResultSet> {
        match self.try_explain(sql) {
            Some(result) => result,
            None => self.execute_statement(parse_statement(sql)?),
        }
    }

    /// Run a read-only statement (`SELECT` / compound `SELECT`) under a
    /// shared borrow — the concurrent-serving entry point. DDL and DML
    /// are rejected with [`SqlError::Unsupported`].
    ///
    /// `EXPLAIN <select>` is also accepted here: it is read-only and
    /// returns the plan text as a one-column `plan` result, one row per
    /// line.
    pub fn query(&self, sql: &str) -> SqlResult<ResultSet> {
        self.read(sql).map(result_set)
    }

    /// Execute an already-parsed read-only statement under `&self`.
    pub fn query_statement(&self, stmt: Statement) -> SqlResult<ResultSet> {
        self.read_statement(&stmt).map(result_set)
    }

    /// [`Database::query`] whose result stays columnar: a [`SemFrame`]
    /// selecting the rows of the executor's output, so a scan's result
    /// shares the table's columnar image instead of copying it into rows
    /// (see [`SemFrame`] for what a frame holds across a later write).
    pub fn query_frame(&self, sql: &str) -> SqlResult<SemFrame> {
        let (columns, batches) = self.read(sql)?;
        Ok(SemFrame::from_batches(columns, batches))
    }

    /// The one read path: answer an `EXPLAIN`, or parse the statement
    /// and read it. Returns the result's columns and its batches, which
    /// the entry points turn into rows ([`ResultSet`]) or a frame.
    fn read(&self, sql: &str) -> SqlResult<(Vec<String>, Vec<Batch>)> {
        match self.try_explain(sql) {
            Some(result) => result.map(|rs| {
                let batch = Batch::from_rows(rs.columns.len(), rs.rows);
                (rs.columns, vec![batch])
            }),
            None => self.read_statement(&parse_statement(sql)?),
        }
    }

    /// Plan the statement's arms and run them.
    fn read_statement(&self, stmt: &Statement) -> SqlResult<(Vec<String>, Vec<Batch>)> {
        let arms = self.plan_arms(stmt, READ_ONLY)?;
        self.statements_run.fetch_add(1, Ordering::Relaxed);
        self.run_arms(&arms)
    }

    /// Bind + optimize every arm of a SELECT / compound SELECT against
    /// the catalog as it is now (the planner runs uncorrelated
    /// subqueries here, so the plan embeds their current answers). Any
    /// other statement is refused with `refusal`. Arm widths are
    /// validated here so a compound plan never reaches execution with
    /// mismatched arms.
    fn plan_arms(&self, stmt: &Statement, refusal: &str) -> SqlResult<Vec<Arm>> {
        let plan_arm = |sel: &SelectStmt, union_all: bool| -> SqlResult<Arm> {
            let plan = Planner::new(&self.catalog, &self.udfs).plan_select(sel)?;
            let plan = optimize(plan, &self.catalog);
            Ok(Arm { union_all, plan })
        };
        match stmt {
            Statement::Select(sel) => Ok(vec![plan_arm(sel, false)?]),
            Statement::CompoundSelect { first, rest } => {
                let mut arms = vec![plan_arm(first, false)?];
                for (all, sel) in rest {
                    let arm = plan_arm(sel, *all)?;
                    let (first, width) = (arms[0].plan.width(), arm.plan.width());
                    if width != first {
                        return Err(SqlError::Binding(format!(
                            "UNION arms have different widths ({first} vs {width})"
                        )));
                    }
                    arms.push(arm);
                }
                Ok(arms)
            }
            _ => Err(SqlError::Unsupported(refusal.into())),
        }
    }

    /// The optimized plan of each arm of `sql`: what the parity tests
    /// hand to the reference interpreter and the executor alike.
    #[cfg(test)]
    pub(crate) fn plans(&self, sql: &str) -> SqlResult<Vec<Plan>> {
        let arms = self.plan_arms(&parse_statement(sql)?, READ_ONLY)?;
        Ok(arms.into_iter().map(|arm| arm.plan).collect())
    }

    /// [`Database::plans`] as they are before column pruning (optimizer
    /// rule 6), for the test that holds pruning to the plan it starts
    /// from. A statement [`Database::plans`] refuses is refused here
    /// with the same error.
    #[cfg(test)]
    pub(crate) fn unpruned_plans(&self, sql: &str) -> SqlResult<Vec<Plan>> {
        let stmt = parse_statement(sql)?;
        self.plan_arms(&stmt, READ_ONLY)?;
        let arms: Vec<&SelectStmt> = match &stmt {
            Statement::Select(sel) => vec![sel],
            Statement::CompoundSelect { first, rest } => std::iter::once(first)
                .chain(rest.iter().map(|(_, sel)| sel))
                .collect(),
            _ => unreachable!("plan_arms refuses every other statement"),
        };
        arms.into_iter()
            .map(|sel| {
                let plan = Planner::new(&self.catalog, &self.udfs).plan_select(sel)?;
                Ok(crate::optimizer::optimize_unpruned(plan, &self.catalog))
            })
            .collect()
    }

    /// Run every arm and combine with UNION semantics (plain UNION
    /// dedups the accumulated result, SQLite-style). Under an active
    /// trace each arm's plan is its own subtree of node spans.
    ///
    /// A single SELECT's result is its plan's batches as the executor
    /// returned them; a compound SELECT's is its union rows, as one
    /// owned batch.
    fn run_arms(&self, arms: &[Arm]) -> SqlResult<(Vec<String>, Vec<Batch>)> {
        let columns = arms
            .first()
            .map(|arm| arm.plan.columns())
            .unwrap_or_default();
        let spans = tag_trace::is_active();
        let mut out = Vec::new();
        for (i, arm) in arms.iter().enumerate() {
            let batches = execute(&arm.plan, &self.catalog, spans)?;
            if i == 0 {
                out = batches;
            } else {
                let mut rows = batches_to_rows(&out);
                rows.extend(batches_to_rows(&batches));
                if !arm.union_all {
                    let mut seen = std::collections::HashSet::new();
                    rows.retain(|r| seen.insert(r.clone()));
                }
                out = vec![Batch::from_rows(columns.len(), rows)];
            }
        }
        Ok((columns, out))
    }

    /// Run several semicolon-separated statements; returns the last result.
    pub fn execute_script(&mut self, sql: &str) -> SqlResult<ResultSet> {
        let stmts = parse_statements(sql)?;
        let mut last = ResultSet::empty();
        for stmt in stmts {
            last = self.execute_statement(stmt)?;
        }
        Ok(last)
    }

    /// Plan a SELECT or compound SELECT and return its optimized plan,
    /// one rendering per arm: the text `EXPLAIN <sql>` returns as rows.
    pub fn explain(&self, sql: &str) -> SqlResult<String> {
        let arms = self.plan_arms(&parse_statement(sql)?, EXPLAIN_ONLY)?;
        let mut text = String::new();
        for (i, arm) in arms.iter().enumerate() {
            if i > 0 {
                text.push_str(arm.separator());
            }
            text.push_str(&arm.plan.explain());
        }
        Ok(text)
    }

    /// Recognize and answer an `EXPLAIN` statement: [`Database::explain`]
    /// as rows; `None` when `sql` is not one.
    fn try_explain(&self, sql: &str) -> Option<SqlResult<ResultSet>> {
        let rest = strip_keyword(sql.trim(), "EXPLAIN")?.trim_start();
        self.statements_run.fetch_add(1, Ordering::Relaxed);
        Some(self.explain(rest).map(|text| plan_text_result(&text)))
    }

    /// Execute an already-parsed statement.
    pub fn execute_statement(&mut self, stmt: Statement) -> SqlResult<ResultSet> {
        if matches!(
            stmt,
            Statement::Select(_) | Statement::CompoundSelect { .. }
        ) {
            return self.query_statement(stmt);
        }
        self.statements_run.fetch_add(1, Ordering::Relaxed);
        match stmt {
            Statement::Select(_) | Statement::CompoundSelect { .. } => {
                unreachable!("SELECT handled by query_statement above")
            }
            Statement::CreateTable(c) => {
                if self.catalog.contains(&c.name) {
                    if c.if_not_exists {
                        return Ok(ResultSet::empty());
                    }
                    return Err(SqlError::Catalog(format!(
                        "table {} already exists",
                        c.name
                    )));
                }
                let schema = Schema::new(
                    c.columns
                        .iter()
                        .map(
                            |ColumnDef {
                                 name,
                                 dtype,
                                 not_null,
                                 primary_key,
                             }| {
                                let mut col = Column::new(name.clone(), *dtype);
                                if *not_null {
                                    col = col.not_null();
                                }
                                if *primary_key {
                                    col = col.primary_key();
                                }
                                col
                            },
                        )
                        .collect(),
                )?;
                let mut table = Table::new(c.name.clone(), schema);
                // A single-column PRIMARY KEY gets a unique B-tree index.
                if let Some(pk) = c.columns.iter().find(|col| col.primary_key) {
                    table.create_index(
                        format!("pk_{}", c.name),
                        &pk.name,
                        IndexKind::BTree,
                        true,
                    )?;
                }
                self.catalog.add_table(table)?;
                Ok(ResultSet::empty())
            }
            Statement::Insert(ins) => self.run_insert(ins),
            Statement::DropTable { name, if_exists } => {
                if self.catalog.remove_table(&name).is_none() && !if_exists {
                    return Err(SqlError::Catalog(format!("no such table: {name}")));
                }
                Ok(ResultSet::empty())
            }
            Statement::Delete { table, predicate } => {
                let planner = Planner::new(&self.catalog, &self.udfs);
                let bound = match &predicate {
                    Some(p) => {
                        let t = self.catalog.table(&table)?;
                        let scope = scope_for_table(&table, t);
                        Some(planner.bind(p, &scope, None)?)
                    }
                    None => None,
                };
                let t = self.catalog.table_mut(&table)?;
                let removed = t.delete_where(|row| match &bound {
                    Some(b) => b.eval_predicate(row),
                    None => Ok(true),
                })?;
                Ok(ResultSet::new(
                    vec!["deleted".into()],
                    vec![vec![Value::Int(removed as i64)]],
                ))
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                let planner = Planner::new(&self.catalog, &self.udfs);
                let t = self.catalog.table(&table)?;
                let scope = scope_for_table(&table, t);
                let bound_pred = match &predicate {
                    Some(p) => Some(planner.bind(p, &scope, None)?),
                    None => None,
                };
                let mut bound_assignments = Vec::with_capacity(assignments.len());
                for (col, e) in &assignments {
                    let idx = t
                        .schema()
                        .index_of(col)
                        .ok_or_else(|| SqlError::Binding(format!("no such column: {col}")))?;
                    bound_assignments.push((idx, planner.bind(e, &scope, None)?));
                }
                let t = self.catalog.table_mut(&table)?;
                let changed = t.update_where(
                    |row| match &bound_pred {
                        Some(b) => b.eval_predicate(row),
                        None => Ok(true),
                    },
                    |row| {
                        let mut new_row = row.clone();
                        for (idx, e) in &bound_assignments {
                            new_row[*idx] = e.eval(row)?;
                        }
                        Ok(new_row)
                    },
                )?;
                Ok(ResultSet::new(
                    vec!["updated".into()],
                    vec![vec![Value::Int(changed as i64)]],
                ))
            }
            Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            } => {
                let t = self.catalog.table_mut(&table)?;
                t.create_index(name, &column, IndexKind::BTree, unique)?;
                Ok(ResultSet::empty())
            }
        }
    }

    fn run_insert(&mut self, ins: InsertStmt) -> SqlResult<ResultSet> {
        // Evaluate row expressions first (they may contain subqueries or
        // arithmetic but no column references).
        let planner = Planner::new(&self.catalog, &self.udfs);
        let empty_scope = Scope::default();
        let mut evaluated: Vec<Vec<Value>> = Vec::with_capacity(ins.rows.len());
        for row in &ins.rows {
            let vals = row
                .iter()
                .map(|e| planner.bind(e, &empty_scope, None)?.eval(&[]))
                .collect::<SqlResult<Vec<Value>>>()?;
            evaluated.push(vals);
        }

        let t = self.catalog.table_mut(&ins.table)?;
        let schema_len = t.schema().len();
        let mapping: Option<Vec<usize>> = match &ins.columns {
            Some(cols) => {
                let mut m = Vec::with_capacity(cols.len());
                for c in cols {
                    m.push(t.schema().index_of(c).ok_or_else(|| {
                        SqlError::Binding(format!("no such column {c:?} in table {}", ins.table))
                    })?);
                }
                Some(m)
            }
            None => None,
        };
        // The rows up to the first one that fails to map go in as one
        // batch; an earlier row's insert error still comes first.
        let mut rows = Vec::with_capacity(evaluated.len());
        let mut mapping_error = None;
        for vals in evaluated {
            match &mapping {
                Some(m) if vals.len() != m.len() => {
                    mapping_error = Some(SqlError::Catalog(format!(
                        "INSERT has {} values for {} columns",
                        vals.len(),
                        m.len()
                    )));
                    break;
                }
                Some(m) => {
                    let mut row = vec![Value::Null; schema_len];
                    for (v, &idx) in vals.into_iter().zip(m.iter()) {
                        row[idx] = v;
                    }
                    rows.push(row);
                }
                None => rows.push(vals),
            }
        }
        let inserted = t.insert_all(rows)?;
        if let Some(e) = mapping_error {
            return Err(e);
        }
        Ok(ResultSet::new(
            vec!["inserted".into()],
            vec![vec![Value::Int(inserted as i64)]],
        ))
    }

    /// Convenience: run a SELECT and pull a single scalar.
    pub fn query_scalar(&mut self, sql: &str) -> SqlResult<Value> {
        let rs = self.execute(sql)?;
        rs.scalar().cloned().ok_or_else(|| {
            SqlError::Eval(format!(
                "expected a 1x1 result, got {}x{}",
                rs.len(),
                rs.columns.len()
            ))
        })
    }
}

/// What `query` and its kin answer to a statement that is not a read.
const READ_ONLY: &str = "query() is read-only; use execute() for DDL/DML";
/// What `EXPLAIN` and [`Database::explain`] answer to one.
const EXPLAIN_ONLY: &str = "EXPLAIN is only available for SELECT and compound SELECT";

/// Case-insensitive keyword prefix match: returns the text after the
/// keyword when `text` starts with it as a whole word.
fn strip_keyword<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    if text.len() < keyword.len() || !text[..keyword.len()].eq_ignore_ascii_case(keyword) {
        return None;
    }
    let rest = &text[keyword.len()..];
    match rest.chars().next() {
        None => Some(rest),
        Some(c) if c.is_whitespace() => Some(rest),
        Some(_) => None,
    }
}

/// A read's columns and batches as materialized rows.
fn result_set((columns, batches): (Vec<String>, Vec<Batch>)) -> ResultSet {
    ResultSet::new(columns, batches_to_rows(&batches))
}

/// Plan text as a one-column `plan` result set, one row per line.
fn plan_text_result(text: &str) -> ResultSet {
    ResultSet::new(
        vec!["plan".into()],
        text.lines()
            .map(|l| vec![Value::Text(l.to_owned())])
            .collect(),
    )
}

fn scope_for_table(name: &str, table: &Table) -> Scope {
    let mut scope = Scope::default();
    for c in table.schema().columns() {
        scope.columns.push(crate::planner::ScopeColumn {
            qualifier: Some(name.to_owned()),
            name: c.name.clone(),
        });
    }
    scope
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::batches_len;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE schools (CDSCode INTEGER PRIMARY KEY, City TEXT, Longitude REAL);
             INSERT INTO schools VALUES (1, 'Palo Alto', -122.1), (2, 'Fresno', -119.8),
                                        (3, 'San Jose', -121.9), (4, 'Palo Alto', -122.2);",
        )
        .unwrap();
        db
    }

    /// Run `read` under a fresh trace, inside a `sql` span as
    /// `TagEnv::run_sql` runs a statement: its result and the spans it
    /// left, the `sql` span last.
    fn traced<T>(read: impl FnOnce() -> T) -> (T, Vec<tag_trace::SpanRecord>) {
        let (trace, sink) = tag_trace::Trace::memory();
        let out = tag_trace::with_trace(&trace, || {
            let _sql = tag_trace::span(tag_trace::Stage::Exec, "sql");
            read()
        });
        (out, sink.take())
    }

    /// The nodes of a plan, root first, each input before the next.
    fn preorder<'p>(plan: &'p Plan, out: &mut Vec<&'p Plan>) {
        out.push(plan);
        for input in plan.inputs() {
            preorder(input, out);
        }
    }

    /// `spans` (what [`traced`] left for `sql`) are `sql`'s plan, once:
    /// under the `sql` span they are [`Database::explain`]'s node lines
    /// (each line the span's label at the span's depth, each UNION arm
    /// its own subtree), and each span's rows are what its operator
    /// produces when its subtree runs alone.
    fn assert_spans_mirror_plan(db: &Database, sql: &str, spans: &[tag_trace::SpanRecord]) {
        // Ids grow in open order: sorted, the node spans walk the plans
        // root first, each input before the next.
        let mut nodes: Vec<_> = spans.iter().filter(|s| s.label != "sql").collect();
        nodes.sort_by_key(|s| s.id);
        let explain = db.explain(sql).unwrap();
        let lines: Vec<&str> = explain
            .lines()
            .filter(|l| !l.starts_with("UNION"))
            .collect();
        assert_eq!(lines.len(), nodes.len(), "{sql}\n{explain}");
        let parent = |id: &u64| spans.iter().find(|s| s.id == *id)?.parent;
        for (line, span) in lines.iter().zip(&nodes) {
            let depth = std::iter::successors(span.parent, parent).count() - 1;
            let head = format!("{}{}", "  ".repeat(depth), span.label);
            assert!(line.starts_with(&head), "{sql}: {line:?} vs {head:?}");
            assert_eq!(span.stage, tag_trace::Stage::Exec);
        }
        let plans = db.plans(sql).unwrap();
        let mut plan_nodes = Vec::new();
        for plan in &plans {
            preorder(plan, &mut plan_nodes);
        }
        for (node, span) in plan_nodes.into_iter().zip(nodes) {
            assert_eq!(span.label, node.label(), "{sql}");
            let produced = batches_len(&execute(node, db.catalog(), false).unwrap());
            assert_eq!(span.rows, Some(produced as u64), "{sql}: {}", span.label);
        }
    }

    #[test]
    fn explain_statement_renders_plan() {
        let db = db();
        let rs = db
            .query("EXPLAIN SELECT * FROM schools WHERE CDSCode = 2")
            .unwrap();
        assert_eq!(rs.columns, vec!["plan"]);
        let lines: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        assert!(lines.iter().any(|l| l.contains("IndexProbe")), "{lines:?}");
        // The keyword is case-insensitive and must be a whole word: a
        // table named EXPLAINER etc. still parses as SQL.
        let again = db
            .query("explain SELECT * FROM schools WHERE CDSCode = 2")
            .unwrap();
        assert_eq!(again, rs);
        assert!(db.query("EXPLAINSELECT 1").is_err());
    }

    /// `query` (traced or not), `explain` and the `EXPLAIN` statement
    /// are one path, so they accept the same statements and print the
    /// same text.
    #[test]
    fn explain_is_one_path_whoever_asks() {
        let mut db = db();
        let lines =
            |rs: &ResultSet| -> String { rs.rows.iter().map(|r| format!("{}\n", r[0])).collect() };
        for select in [
            "SELECT City FROM schools WHERE CDSCode = 2",
            "SELECT City FROM schools UNION SELECT City FROM schools WHERE Longitude < -120 \
             UNION ALL SELECT 'x'",
        ] {
            let statement = format!("EXPLAIN {select}");
            let plain = db.query(&statement).unwrap();
            let (traced_rs, spans) = traced(|| db.query(&statement));
            assert_eq!(plain, traced_rs.unwrap(), "{statement}");
            assert_eq!(spans.len(), 1, "an EXPLAIN executes nothing");
            assert_eq!(db.execute(&statement).unwrap(), plain, "{statement}");
            assert_eq!(lines(&plain), db.explain(select).unwrap(), "{statement}");
        }
        let compound = db
            .explain("SELECT City FROM schools UNION ALL SELECT 'x' UNION SELECT 'y'")
            .unwrap();
        assert_eq!(compound.matches("UNION ALL\n").count(), 1, "{compound}");
        assert_eq!(compound.matches("UNION\n").count(), 1, "{compound}");
        // Not a read: every way of asking names EXPLAIN, none tells the
        // caller to use execute(), which would run the statement.
        let dml = "INSERT INTO schools VALUES (9, 'Gilroy', -121.5)";
        let errors = [
            db.explain(dml).unwrap_err(),
            db.query(&format!("EXPLAIN {dml}")).unwrap_err(),
            traced(|| db.query(&format!("EXPLAIN {dml}")))
                .0
                .unwrap_err(),
            db.execute(&format!("EXPLAIN {dml}")).unwrap_err(),
        ];
        for err in errors {
            assert!(
                err.message()
                    .contains("EXPLAIN is only available for SELECT"),
                "{err}"
            );
        }
        assert_eq!(db.catalog().table("schools").unwrap().len(), 4);
    }

    #[test]
    fn end_to_end_select() {
        let mut db = db();
        let rs = db
            .execute("SELECT City, COUNT(*) AS n FROM schools GROUP BY City ORDER BY n DESC, City")
            .unwrap();
        assert_eq!(rs.columns, vec!["City", "n"]);
        assert_eq!(rs.rows[0][0], Value::text("Palo Alto"));
        assert_eq!(rs.rows[0][1], Value::Int(2));
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn primary_key_gets_unique_index() {
        let mut db = db();
        let err = db
            .execute("INSERT INTO schools VALUES (1, 'Dup', 0.0)")
            .unwrap_err();
        assert!(err.message().contains("UNIQUE"));
        // And equality lookups use it.
        let explain = db
            .explain("SELECT * FROM schools WHERE CDSCode = 2")
            .unwrap();
        assert!(explain.contains("IndexProbe"), "{explain}");
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = db();
        db.execute("INSERT INTO schools (CDSCode, City) VALUES (9, 'Gilroy')")
            .unwrap();
        let rs = db
            .execute("SELECT Longitude FROM schools WHERE CDSCode = 9")
            .unwrap();
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn delete_and_update() {
        let mut db = db();
        let rs = db
            .execute("DELETE FROM schools WHERE City = 'Palo Alto'")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        let rs = db
            .execute("UPDATE schools SET Longitude = Longitude + 1 WHERE CDSCode = 2")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1));
        assert_eq!(
            db.query_scalar("SELECT Longitude FROM schools WHERE CDSCode = 2")
                .unwrap(),
            Value::Float(-118.8)
        );
    }

    #[test]
    fn drop_table() {
        let mut db = db();
        db.execute("DROP TABLE schools").unwrap();
        assert!(db.execute("SELECT * FROM schools").is_err());
        db.execute("DROP TABLE IF EXISTS schools").unwrap();
        assert!(db.execute("DROP TABLE schools").is_err());
    }

    #[test]
    fn udf_in_query() {
        let mut db = db();
        db.udfs.register_fn("is_bay_area", Some(1), |args| {
            let city = args[0].to_string();
            Ok(Value::from(matches!(
                city.as_str(),
                "Palo Alto" | "San Jose" | "Oakland"
            )))
        });
        let rs = db
            .execute("SELECT COUNT(*) FROM schools WHERE is_bay_area(City)")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn if_not_exists() {
        let mut db = db();
        db.execute("CREATE TABLE IF NOT EXISTS schools (x TEXT)")
            .unwrap();
        assert!(db.execute("CREATE TABLE schools (x TEXT)").is_err());
    }

    #[test]
    fn create_index_statement() {
        let mut db = db();
        db.execute("CREATE INDEX idx_city ON schools (City)")
            .unwrap();
        let explain = db
            .explain("SELECT * FROM schools WHERE City = 'Fresno'")
            .unwrap();
        assert!(explain.contains("IndexProbe"), "{explain}");
    }

    #[test]
    fn query_scalar_shape_errors() {
        let mut db = db();
        assert!(db.query_scalar("SELECT * FROM schools").is_err());
        assert_eq!(
            db.query_scalar("SELECT COUNT(*) FROM schools").unwrap(),
            Value::Int(4)
        );
    }

    #[test]
    fn union_and_union_all() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE a (x INTEGER); INSERT INTO a VALUES (1), (2);
             CREATE TABLE b (x INTEGER); INSERT INTO b VALUES (2), (3);",
        )
        .unwrap();
        let rs = db
            .execute("SELECT x FROM a UNION ALL SELECT x FROM b")
            .unwrap();
        assert_eq!(rs.len(), 4);
        let rs = db.execute("SELECT x FROM a UNION SELECT x FROM b").unwrap();
        let mut vals: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![1, 2, 3]);
        // width mismatch
        let err = db
            .execute("SELECT x FROM a UNION SELECT x, x FROM b")
            .unwrap_err();
        assert!(err.message().contains("widths"));
        // per-arm clauses still work
        let rs = db
            .execute(
                "SELECT x FROM a WHERE x > 1 UNION ALL SELECT x FROM b ORDER BY x DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    /// `sql`'s rows over a table of signed ints and NULL texts, as
    /// `1 2|3 1` (cells by spaces, rows by bars).
    fn rows_text(sql: &str) -> String {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (a INTEGER, b INTEGER, c TEXT);
             INSERT INTO t VALUES (1, 10, 'x'), (-1, 20, NULL), (3, 30, 'y'),
                                  (-2, 20, NULL), (1, 40, 'x');",
        )
        .unwrap();
        let rs = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        let row = |r: &Vec<Value>| r.iter().map(Value::to_string).collect::<Vec<_>>().join(" ");
        rs.rows.iter().map(row).collect::<Vec<_>>().join("|")
    }

    /// A select item equal to a `GROUP BY` expression of any
    /// non-subquery shape reads the group key; the rows are SQLite's.
    #[test]
    fn group_by_matches_case_is_null_between_and_in_list() {
        for (key, sqlite) in [
            ("CASE WHEN a > 0 THEN a ELSE b END", "1 2|3 1|20 2"),
            ("c IS NULL", "0 3|1 2"),
            ("a BETWEEN 0 AND 2", "0 3|1 2"),
            ("a IN (1, 3)", "0 2|1 3"),
        ] {
            let sql = format!("SELECT {key}, COUNT(*) FROM t GROUP BY {key} ORDER BY 1");
            assert_eq!(rows_text(&sql), sqlite, "{sql}");
        }
    }

    /// A derived table needs no alias: its columns resolve unqualified,
    /// as in SQLite, and the clause keyword after it is not read as one.
    #[test]
    fn unaliased_derived_tables_read_as_their_aliased_forms() {
        for (items, tail, sqlite) in [
            ("g, COUNT(*)", "GROUP BY g ORDER BY g", "-2 1|-1 1|1 2|3 1"),
            ("g", "WHERE g > 0", "1|3|1"),
            ("*", "", "1|-1|3|-2|1"),
        ] {
            for alias in ["", "AS d", "d"] {
                let sql = format!("SELECT {items} FROM (SELECT a AS g FROM t) {alias} {tail}");
                assert_eq!(rows_text(&sql), sqlite, "{sql}");
            }
        }
    }

    #[test]
    fn correlated_subqueries() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE posts (Id INTEGER, Title TEXT);
             INSERT INTO posts VALUES (1, 'a'), (2, 'b'), (3, 'c');
             CREATE TABLE comments (Id INTEGER, PostId INTEGER, Score INTEGER);
             INSERT INTO comments VALUES (1, 1, 5), (2, 1, 7), (3, 2, 1);",
        )
        .unwrap();
        // EXISTS with an outer reference.
        let rs = db
            .execute(
                "SELECT Title FROM posts p WHERE EXISTS \
                 (SELECT 1 FROM comments c WHERE c.PostId = p.Id AND c.Score > 4)",
            )
            .unwrap();
        assert_eq!(rs.column_values("Title").unwrap(), vec![Value::text("a")]);
        // Correlated scalar in the select list.
        let rs = db
            .execute(
                "SELECT Title, (SELECT COUNT(*) FROM comments c WHERE c.PostId = p.Id) \
                 AS n FROM posts p ORDER BY Title",
            )
            .unwrap();
        let counts: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        assert_eq!(counts, vec![2, 1, 0]);
        // NOT EXISTS.
        let rs = db
            .execute(
                "SELECT Title FROM posts p WHERE NOT EXISTS \
                 (SELECT 1 FROM comments c WHERE c.PostId = p.Id)",
            )
            .unwrap();
        assert_eq!(rs.column_values("Title").unwrap(), vec![Value::text("c")]);
        // Correlated IN.
        let rs = db
            .execute(
                "SELECT Title FROM posts p WHERE 7 IN \
                 (SELECT Score FROM comments c WHERE c.PostId = p.Id)",
            )
            .unwrap();
        assert_eq!(rs.column_values("Title").unwrap(), vec![Value::text("a")]);
        // Correlated scalar compared in WHERE.
        let rs = db
            .execute(
                "SELECT Title FROM posts p WHERE \
                 (SELECT MAX(Score) FROM comments c WHERE c.PostId = p.Id) > 4",
            )
            .unwrap();
        assert_eq!(rs.column_values("Title").unwrap(), vec![Value::text("a")]);
    }

    #[test]
    fn correlated_subquery_with_join_in_outer_query() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE a (x INTEGER); INSERT INTO a VALUES (1), (2);
             CREATE TABLE b (y INTEGER); INSERT INTO b VALUES (1), (3);
             CREATE TABLE c (z INTEGER); INSERT INTO c VALUES (1);",
        )
        .unwrap();
        // The correlated predicate references a column from the left join
        // side; the optimizer must keep the outer refs consistent when it
        // pushes or rewrites the filter.
        let rs = db
            .execute(
                "SELECT a.x, b.y FROM a CROSS JOIN b \
                 WHERE EXISTS (SELECT 1 FROM c WHERE c.z = a.x) ORDER BY b.y",
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        for r in &rs.rows {
            assert_eq!(r[0], Value::Int(1));
        }
    }

    #[test]
    fn correlated_exists_in_having_binds_group_keys() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE orders (cust INTEGER, amount INTEGER);
             INSERT INTO orders VALUES (1, 10), (1, 20), (2, 5), (3, 50);
             CREATE TABLE vip (id INTEGER);
             INSERT INTO vip VALUES (1), (3);",
        )
        .unwrap();
        // The outer reference inside the subquery resolves against the
        // aggregate output scope (the rows HAVING filters).
        let rs = db
            .execute(
                "SELECT cust, SUM(amount) FROM orders o GROUP BY cust \
                 HAVING EXISTS (SELECT 1 FROM vip WHERE vip.id = cust)",
            )
            .unwrap();
        let custs: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(custs, vec![1, 3]);
    }

    #[test]
    fn unknown_column_still_errors_with_outer_scope() {
        let mut db = Database::new();
        db.execute_script("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1);")
            .unwrap();
        let err = db
            .execute("SELECT x FROM t WHERE EXISTS (SELECT nope FROM t)")
            .unwrap_err();
        assert!(err.message().contains("no such column"), "{err}");
    }

    /// A traced read is the same read, and leaves one span per node of
    /// the statement's plan; a compound SELECT's arms are subtrees.
    #[test]
    fn traced_query_matches_query_and_spans_mirror_explain() {
        let mut db = db();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
            .unwrap();
        for sql in [
            "SELECT b, COUNT(*) FROM t WHERE a > 1 GROUP BY b ORDER BY b",
            "SELECT DISTINCT b FROM t ORDER BY b LIMIT 1",
            "SELECT x.a, y.b FROM t x JOIN t y ON x.a = y.a WHERE y.b = 'x'",
            "SELECT City FROM schools UNION SELECT City FROM schools",
            "SELECT City FROM schools WHERE CDSCode = 2 UNION ALL SELECT 'x' \
             UNION SELECT City FROM schools WHERE Longitude < -122",
        ] {
            let (rs, spans) = traced(|| db.query(sql));
            assert_eq!(rs.unwrap(), db.query(sql).unwrap(), "{sql}");
            assert_spans_mirror_plan(&db, sql, &spans);
        }
        let spans = traced(|| db.query("SELECT a FROM t WHERE a > 1")).1;
        let tree = tag_trace::render_tree(&spans);
        assert!(tree.contains("[exec] TableScan t"), "{tree}");
        assert!(tree.contains("rows=2"), "{tree}");
    }

    #[test]
    fn traced_query_rejects_dml_and_opens_no_node_span() {
        let db = Database::new();
        let (err, spans) = traced(|| db.query("CREATE TABLE t (a INTEGER)"));
        assert!(err.unwrap_err().message().contains("read-only"));
        assert_eq!(spans.len(), 1, "only the caller's span: {spans:?}");
    }

    /// A correlated subquery runs once per outer row, inside the filter
    /// that evaluates it; its plans are not the statement's and open no
    /// span. A traced statement over N rows opens as many spans as its
    /// plan has nodes, not N times more.
    #[test]
    fn correlated_subqueries_open_no_spans() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let values: Vec<String> = (0..200).map(|i| format!("({i})")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        let sql = "SELECT a FROM t o WHERE EXISTS (SELECT 1 FROM t i WHERE i.a = o.a + 1)";
        let (rs, spans) = traced(|| db.query(sql));
        assert_eq!(rs.unwrap().rows.len(), 199);
        let plans = db.plans(sql).unwrap();
        let mut nodes = Vec::new();
        preorder(&plans[0], &mut nodes);
        assert!(nodes.len() < 10, "{}", db.explain(sql).unwrap());
        assert_eq!(spans.len(), nodes.len() + 1, "node spans plus `sql`");
        assert_spans_mirror_plan(&db, sql, &spans);
    }

    /// The planner runs an uncorrelated subquery while it plans and
    /// embeds the answer in the plan, so a plan is only good for the
    /// catalog it was made from. Every statement is planned when it
    /// runs: whatever was written before it, by whatever route, it sees.
    #[test]
    fn a_plan_time_subquery_sees_every_write_before_it() {
        let mut db = db();
        let sql = "SELECT (SELECT COUNT(*) FROM schools WHERE City <> 'Gone') AS n \
                   FROM schools LIMIT 1";
        let count = |db: &Database| db.query(sql).unwrap().rows[0][0].as_i64().unwrap();
        for i in 0..10 {
            assert_eq!(count(&db), 4 + i);
            assert_eq!(count(&db), 4 + i, "asked twice, planned twice");
            db.execute(&format!(
                "INSERT INTO schools VALUES ({}, 'x', 0.0)",
                50 + i
            ))
            .unwrap();
        }
        assert_eq!(count(&db), 14);
        db.execute("DELETE FROM schools WHERE CDSCode >= 55")
            .unwrap();
        assert_eq!(count(&db), 9);
        db.execute("UPDATE schools SET City = 'Gone' WHERE CDSCode = 1")
            .unwrap();
        assert_eq!(count(&db), 8);
        // DDL changes the plan's shape (the inner scan may become an
        // index path), not its answer.
        db.execute("CREATE INDEX idx_city ON schools (City)")
            .unwrap();
        assert_eq!(count(&db), 8);
        db.catalog_mut()
            .table_mut("schools")
            .unwrap()
            .insert(vec![
                Value::Int(99),
                Value::text("Davis"),
                Value::Float(-121.7),
            ])
            .unwrap();
        assert_eq!(count(&db), 9);
        let (traced_rs, _) = traced(|| db.query(sql));
        assert_eq!(traced_rs.unwrap().rows[0][0], Value::Int(9));
    }

    /// Rows the reference interpreter produces for a single-arm SELECT,
    /// planned against the database's current state.
    fn reference_rows(db: &Database, sql: &str) -> Vec<crate::Row> {
        crate::exec::reference::execute(&db.plans(sql).unwrap()[0], db.catalog()).unwrap()
    }

    /// The columnar image is the table's only storage: after every DML
    /// statement it holds exactly the rows the statements leave (kept
    /// here by hand), typed as `Chunk::from_rows` of them would be,
    /// variant for variant, and every query answers as the reference
    /// interpreter does. Inserts extend the image in place (here: N
    /// single-row inserts, one of which gives the all-NULL `Longitude`
    /// column its first value); UPDATE and DELETE rebuild it. The
    /// queries' column-only projections are views that share the
    /// image's columns, and they are gone once a query returns, so no
    /// insert copies a column; a view still held copies only the column
    /// it shares.
    #[test]
    fn columnar_image_after_dml_holds_the_rows_left() {
        let mut db = db();
        let queries = [
            "SELECT * FROM schools",
            "SELECT City, COUNT(*) AS n FROM schools GROUP BY City ORDER BY n DESC, City",
            "SELECT s.City, t.City FROM schools s JOIN schools t ON s.City = t.City \
             WHERE s.CDSCode < t.CDSCode",
            "SELECT City FROM schools ORDER BY Longitude LIMIT 2",
            "SELECT DISTINCT City FROM schools",
            "SELECT City FROM schools WHERE CDSCode = 6",
        ];
        let row = |id: i64, city: &str, lon: Option<f64>| {
            vec![
                Value::Int(id),
                Value::text(city),
                lon.map(Value::Float).unwrap_or(Value::Null),
            ]
        };
        let mut rows = vec![
            row(1, "Palo Alto", Some(-122.1)),
            row(2, "Fresno", Some(-119.8)),
            row(3, "San Jose", Some(-121.9)),
            row(4, "Palo Alto", Some(-122.2)),
        ];
        let check = |db: &Database, rows: &[crate::Row]| {
            let table = db.catalog().table("schools").unwrap();
            assert_eq!(format!("{:?}", table.rows()), format!("{rows:?}"));
            let typed = crate::chunk::Chunk::from_rows(3, rows.to_vec());
            assert_eq!(format!("{:?}", table.columnar()), format!("{typed:?}"));
            for sql in queries {
                let want = reference_rows(db, sql);
                assert_eq!(db.query(sql).unwrap().rows, want, "{sql}");
                assert_eq!(
                    traced(|| db.query(sql)).0.unwrap().rows,
                    want,
                    "traced {sql}"
                );
            }
        };
        check(&db, &rows);
        db.execute("UPDATE schools SET Longitude = NULL").unwrap();
        rows.iter_mut().for_each(|r| r[2] = Value::Null);
        check(&db, &rows);
        let image = |db: &Database| db.catalog().table("schools").unwrap().columnar();
        let columns =
            |db: &Database| -> Vec<_> { image(db).columns().iter().map(Arc::as_ptr).collect() };
        let (built, built_columns) = (Arc::as_ptr(&image(&db)), columns(&db));
        for (id, longitude) in [(5, None), (6, Some(-121.7)), (7, None), (8, Some(-118.2))] {
            let literal = longitude.map_or("NULL".to_owned(), |l: f64| l.to_string());
            db.execute(&format!(
                "INSERT INTO schools VALUES ({id}, 'Davis', {literal})"
            ))
            .unwrap();
            rows.push(row(id, "Davis", longitude));
            check(&db, &rows);
        }
        assert_eq!(
            Arc::as_ptr(&image(&db)),
            built,
            "inserts extended the image they found"
        );
        assert_eq!(columns(&db), built_columns, "and copied no column");

        // Copy-on-write: a view held across an insert keeps the rows it
        // saw, and only the column it shares is copied.
        let view = image(&db).project(&[1]);
        let seen = format!("{:?}", view.column(0));
        db.execute("INSERT INTO schools VALUES (9, 'Chico', -121.8)")
            .unwrap();
        rows.push(row(9, "Chico", Some(-121.8)));
        check(&db, &rows);
        assert_eq!((view.len(), format!("{:?}", view.column(0))), (8, seen));
        let now = columns(&db);
        assert_eq!(Arc::as_ptr(&image(&db)), built);
        assert_eq!((now[0], now[2]), (built_columns[0], built_columns[2]));
        assert_ne!(now[1], built_columns[1], "the shared column was copied");
        drop(view);

        db.execute("DELETE FROM schools WHERE City = 'Fresno'")
            .unwrap();
        rows.retain(|r| r[1] != Value::text("Fresno"));
        check(&db, &rows);
        assert_eq!(
            db.query("SELECT COUNT(*) FROM schools").unwrap().rows,
            vec![vec![Value::Int(8)]]
        );
    }

    /// A DELETE or UPDATE whose predicate fails partway leaves the table
    /// as it was: rows are changed only once every predicate has run.
    #[test]
    fn failing_dml_leaves_the_table_as_it_was() {
        let mut db = db();
        let all = "SELECT * FROM schools";
        let before = db.query(all).unwrap().rows;
        let fails_on_row_3 = "CASE WHEN CDSCode > 2 THEN City + 0 ELSE 1 END > 0";
        for dml in [
            format!("DELETE FROM schools WHERE {fails_on_row_3}"),
            format!("UPDATE schools SET Longitude = 0.0 WHERE {fails_on_row_3}"),
        ] {
            let err = db.execute(&dml).unwrap_err();
            assert!(err.message().contains("as a number"), "{dml}: {err}");
            assert_eq!(db.query(all).unwrap().rows, before, "{dml}");
            assert_eq!(
                db.query("SELECT COUNT(*) FROM schools").unwrap().rows[0][0],
                Value::Int(4)
            );
        }
    }

    /// `query_frame` is `query` kept columnar: the same columns and rows
    /// for every kind of result (a scan, a filter's selection, a top-k's
    /// own chunk, an index probe, a compound SELECT, an EXPLAIN), the
    /// same node spans as a traced `query`, and a scan's frame shares
    /// the table image's columns. Held across an insert, a frame keeps
    /// the rows it saw.
    #[test]
    fn query_frame_selects_what_query_returns() {
        let mut db = db();
        for sql in [
            "SELECT * FROM schools",
            "SELECT City FROM schools WHERE Longitude < -120",
            "SELECT City, CDSCode FROM schools ORDER BY Longitude LIMIT 2",
            "SELECT City FROM schools WHERE CDSCode = 2",
            "SELECT City FROM schools UNION SELECT 'x' UNION ALL SELECT City FROM schools",
            "SELECT COUNT(*) FROM schools WHERE 1 = 0",
            "SELECT City FROM schools WHERE Longitude > 0",
            "EXPLAIN SELECT * FROM schools",
        ] {
            let rs = db.query(sql).unwrap();
            let frame = db.query_frame(sql).unwrap();
            assert_eq!(frame.columns, rs.columns, "{sql}");
            assert_eq!(
                format!("{:?}", frame.rows()),
                format!("{:?}", rs.rows),
                "{sql}"
            );
            let (traced_frame, spans) = traced(|| db.query_frame(sql));
            assert_eq!(traced_frame.unwrap(), frame, "{sql}");
            let (_, want) = traced(|| db.query(sql));
            let labels = |spans: &[tag_trace::SpanRecord]| -> Vec<String> {
                spans
                    .iter()
                    .map(|s| format!("{} {:?}", s.label, s.rows))
                    .collect()
            };
            assert_eq!(labels(&spans), labels(&want), "{sql}");
            if !sql.starts_with("EXPLAIN") {
                assert_spans_mirror_plan(&db, sql, &spans);
            }
        }

        let sql = "SELECT City FROM schools WHERE Longitude < -120";
        let frame = db.query_frame(sql).unwrap();
        let image = db.catalog().table("schools").unwrap().columnar();
        assert!(std::ptr::eq(frame.column(0), image.column(1)), "no copy");
        assert_eq!(frame.selection(), &[0, 2, 3]);
        drop(image);
        let seen = frame.rows();
        db.execute("INSERT INTO schools VALUES (9, 'Chico', -121.8)")
            .unwrap();
        assert_eq!(frame.rows(), seen);
        assert_eq!(db.query_frame(sql).unwrap().len(), 4);
    }

    /// A statement's LIMIT is the query writer's number, not the
    /// input's size: TopK must not reserve memory for it. Before the
    /// fix the first statement aborted the process (a 56 TB
    /// allocation) and the second panicked with capacity overflow.
    #[test]
    fn huge_limit_is_answered_not_allocated() {
        let mut db = Database::new();
        db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (3), (1), (2);")
            .unwrap();
        let sorted = vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(3)],
        ];
        for limit in ["1000000000000", "9223372036854775807"] {
            let sql = format!("SELECT a FROM t ORDER BY a LIMIT {limit}");
            assert_eq!(db.query(&sql).unwrap().rows, sorted, "{sql}");
        }
        let rs = db
            .query("SELECT a FROM t ORDER BY a LIMIT 9223372036854775807 OFFSET 5")
            .unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn execute_script_returns_last() {
        let mut db = Database::new();
        let rs = db
            .execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT a FROM t")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
        assert_eq!(db.statements_run(), 3);
    }

    /// A DISTINCT ordered by a column it does not select is refused, as
    /// PostgreSQL refuses it: the distinct rows' sort key is not defined
    /// (SQLite takes it from an arbitrary row of each group).
    #[test]
    fn distinct_ordered_by_an_unselected_column_is_refused() {
        let err = db()
            .query("SELECT DISTINCT City FROM schools ORDER BY Longitude")
            .unwrap_err();
        assert_eq!(
            err,
            SqlError::Unsupported(
                "SELECT DISTINCT with ORDER BY over non-output expressions".into()
            )
        );
    }
}
