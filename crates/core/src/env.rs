//! The shared execution environment for all TAG methods.

use crate::semplan::{compile_nlq, plan_nlq};
use std::sync::{Arc, OnceLock, RwLock};
use tag_embed::{push_row_text, Embedder, RowStore};
use tag_lm::model::LanguageModel;
use tag_lm::nlq::NlQuery;
use tag_lm::prompts::push_field;
use tag_semops::SemEngine;
use tag_sql::chunk::Chunk;
use tag_sql::{
    verify_report_text, Database, ResultSet, SemFrame, SemOptOptions, SqlError, SqlResult, Value,
};

/// Everything a method needs to answer a question over one domain
/// database: the SQL engine, the language model (behind the batched
/// semantic engine, its one owner), and a lazily built row-level vector
/// store.
///
/// `TagEnv` is `Send + Sync`: every method runs under `&TagEnv`, so one
/// environment per domain can be shared across serving threads behind an
/// `Arc`. Lazily built state (the row store, the rendered schema prompt)
/// lives behind [`OnceLock`]s.
pub struct TagEnv {
    /// The domain database (the paper's SQLite instance).
    pub db: Database,
    /// The language model as it was when the environment was built: a
    /// read handle for counters (`perf/`'s `paper_replay` reads
    /// `calls()` off it). Every call the environment makes goes through
    /// [`TagEnv::engine`]'s model, so replacing `engine` alone moves
    /// every prompt to the new model.
    pub lm: Arc<dyn LanguageModel>,
    /// Batched + cached LM executor, and the owner of the model every
    /// prompt goes to ([`SemEngine::lm`]).
    pub engine: SemEngine,
    embedder: Embedder,
    retrieval: OnceLock<Retrieval>,
    schema: OnceLock<String>,
    sem_opt: RwLock<SemOptOptions>,
}

impl TagEnv {
    /// Build an environment over a loaded database.
    pub fn new(db: Database, lm: Arc<dyn LanguageModel>) -> Self {
        let engine = SemEngine::new(Arc::clone(&lm));
        TagEnv {
            db,
            lm,
            engine,
            embedder: Embedder::default(),
            retrieval: OnceLock::new(),
            schema: OnceLock::new(),
            sem_opt: RwLock::new(SemOptOptions::default()),
        }
    }

    /// The SemPlan rewrite rules currently applied before execution.
    pub fn sem_opt(&self) -> SemOptOptions {
        *self.sem_opt.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Switch the SemPlan rewrite rules (`paper-report`'s rules-off
    /// replay). Takes effect from the next plan: every request is
    /// planned when it runs.
    pub fn set_sem_opt(&self, opts: SemOptOptions) {
        *self.sem_opt.write().unwrap_or_else(|e| e.into_inner()) = opts;
    }

    /// Render the catalog as BIRD-style `CREATE TABLE` text for Text2SQL
    /// prompts, followed by three example rows per table (the common
    /// augmentation of the BIRD prompt format — it is where most of the
    /// prompt's tokens go, exactly as with the real benchmark's wide
    /// schemas).
    ///
    /// The rendering is memoized: the catalog is immutable once a domain
    /// is loaded, and re-rendering it dominated Text2SQL request setup.
    pub fn schema_prompt(&self) -> &str {
        self.schema.get_or_init(|| self.render_schema_prompt())
    }

    fn render_schema_prompt(&self) -> String {
        let mut out = String::new();
        for name in self.db.catalog().table_names() {
            let table = self.db.catalog().table(&name).expect("listed table");
            out.push_str(&format!("CREATE TABLE {name}\n(\n"));
            let cols: Vec<String> = table
                .schema()
                .columns()
                .iter()
                .map(|c| {
                    let quoted = if c.name.contains(' ') {
                        format!("\"{}\"", c.name)
                    } else {
                        c.name.clone()
                    };
                    let constraint = if c.primary_key {
                        " not null primary key"
                    } else if c.not_null {
                        " not null"
                    } else {
                        " null"
                    };
                    format!("{quoted} {}{}", c.dtype, constraint)
                })
                .collect();
            out.push_str(&cols.join(",\n"));
            out.push_str("\n)\n");
            let names = table.schema().names();
            if !table.is_empty() {
                out.push_str("-- 3 example rows:\n");
                for row in (0..table.len().min(3)).map(|id| table.row(id)) {
                    let cells: Vec<String> = names
                        .iter()
                        .zip(&row)
                        .map(|(c, v)| format!("{c}={v}"))
                        .collect();
                    out.push_str(&format!("-- {}\n", cells.join(", ")));
                }
            }
            out.push('\n');
        }
        out
    }

    /// The row-level vector store over every table's rows, built on first
    /// use (the RAG baseline's FAISS index). Safe under concurrent first
    /// use: `OnceLock` guarantees a single build wins.
    pub fn row_store(&self) -> &RowStore {
        &self.retrieval().store
    }

    /// The row store only if some caller already built it. Metrics
    /// collectors scrape through this so an idle domain's scrape never
    /// pays the embedding-index build.
    pub fn row_store_if_built(&self) -> Option<&RowStore> {
        self.retrieval.get().map(|r| &r.store)
    }

    /// Append the text the row store embedded for row `id`, read from the
    /// table image it embedded: the row's `- col: val` lines
    /// ([`push_row_text`]).
    pub fn push_point_text(&self, id: usize, out: &mut String) {
        let (table, row) = self.retrieval().locate(id);
        table.push_text(row, out);
    }

    /// Append row `id`'s fields as one data point of a generation prompt
    /// (each a [`push_field`] line), read as [`TagEnv::push_point_text`]
    /// reads them.
    pub(crate) fn push_point_fields(&self, id: usize, out: &mut String) {
        let (table, row) = self.retrieval().locate(id);
        for (c, name) in table.columns.iter().enumerate() {
            push_field(out, name, |out| {
                table.image.column(c).push_text_at(row, out)
            });
        }
    }

    fn retrieval(&self) -> &Retrieval {
        self.retrieval.get_or_init(|| {
            let mut store = RowStore::new(self.embedder.clone());
            let mut tables = Vec::new();
            let mut text = String::new();
            for name in self.db.catalog().table_names() {
                let table = self.db.catalog().table(&name).expect("listed table");
                let embedded = EmbeddedTable {
                    columns: table.schema().names(),
                    image: table.columnar(),
                    first: store.len(),
                };
                for row in 0..embedded.image.len() {
                    text.clear();
                    embedded.push_text(row, &mut text);
                    store.add(&text);
                }
                if !embedded.image.is_empty() {
                    tables.push(embedded);
                }
            }
            Retrieval { store, tables }
        })
    }

    /// Run a read-only SQL statement through the domain database.
    ///
    /// When a [`tag_trace::Trace`] is active on this thread, the statement
    /// runs inside an `exec`-stage `sql` span annotated with the SQL text,
    /// whose children are the plan's operators, one span per node with
    /// its rows out. Either way it is [`Database::query`], so it accepts
    /// the same statements (`EXPLAIN` included) and results are
    /// byte-identical traced or not.
    ///
    /// It also answers `EXPLAIN SEMPLAN <question>` and `EXPLAIN VERIFY
    /// <question>` (see [`TagEnv::explain_semplan`]), which execute
    /// nothing, traced or not.
    pub fn run_sql(&self, sql: &str) -> SqlResult<ResultSet> {
        self.traced_read(sql, || {
            self.explain_semplan(sql)
                .unwrap_or_else(|| self.db.query(sql))
        })
    }

    /// Answer `EXPLAIN SEMPLAN <question>` with the plan a canonical
    /// question runs, under the rules active now and lowered against the
    /// live catalog, or `EXPLAIN VERIFY <question>` with the static
    /// checker's report on that plan (well-formedness against the
    /// catalog, rewrite pre/postconditions, the LM-call upper bound).
    /// Either is a one-column `plan` result, one row per line; `None`
    /// when `sql` is neither.
    fn explain_semplan(&self, sql: &str) -> Option<SqlResult<ResultSet>> {
        let rest = strip_keyword(sql, "EXPLAIN")?;
        let (kind, question) = ["SEMPLAN", "VERIFY"]
            .into_iter()
            .find_map(|kind| Some((kind, strip_keyword(rest, kind)?.trim())))?;
        if question.is_empty() {
            let message = format!("EXPLAIN {kind} needs a question");
            return Some(Err(SqlError::Unsupported(message)));
        }
        let Some(q) = NlQuery::parse(question) else {
            return Some(Err(SqlError::Binding(format!(
                "no semantic plan for: {question} (not a canonical TAG-Bench question)"
            ))));
        };
        let opts = self.sem_opt();
        let planned = plan_nlq(&q, &opts, &self.db);
        let text = match kind {
            "SEMPLAN" => planned.explain(),
            _ => verify_report_text(&compile_nlq(&q), &planned, &opts, Some(self.db.catalog())),
        };
        let rows = text.trim_end().lines();
        let rows = rows
            .map(|line| vec![Value::Text(line.to_owned())])
            .collect();
        Some(Ok(ResultSet::new(vec!["plan".into()], rows)))
    }

    /// [`TagEnv::run_sql`] for a semantic plan's scan and Text2SQL + LM's
    /// retrieval: the result stays columnar ([`Database::query_frame`]),
    /// and the statement is traced exactly as `run_sql` traces it.
    pub(crate) fn scan(&self, sql: &str) -> SqlResult<SemFrame> {
        self.traced_read(sql, || self.db.query_frame(sql))
    }

    /// Run `read` untraced when no trace is active; otherwise inside an
    /// `exec`-stage `sql` span annotated with the statement, the parent
    /// of the plan's node spans.
    fn traced_read<T>(&self, sql: &str, read: impl FnOnce() -> SqlResult<T>) -> SqlResult<T> {
        if !tag_trace::is_active() {
            return read();
        }
        let _span = tag_trace::span(tag_trace::Stage::Exec, "sql");
        tag_trace::annotate(format!(
            "sql: {}",
            sql.split_whitespace().collect::<Vec<_>>().join(" ")
        ));
        read().inspect_err(|e| tag_trace::annotate(format!("error: {e}")))
    }

    /// Call the language model directly (the `gen` step), attributing the
    /// call's cost — virtual seconds, batch rounds, and token counts — to
    /// the innermost active trace span. A no-op wrapper around
    /// [`LanguageModel::generate`] when tracing is off.
    pub fn generate(
        &self,
        request: &tag_lm::model::LmRequest,
    ) -> tag_lm::model::LmResult<tag_lm::model::LmResponse> {
        let lm = self.engine.lm();
        if !tag_trace::is_active() {
            return lm.generate(request);
        }
        let (sec0, rounds0, calls0) = lm.usage();
        let result = lm.generate(request);
        let (sec1, rounds1, calls1) = lm.usage();
        let mut usage = tag_trace::LmUsage {
            calls: calls1.saturating_sub(calls0),
            rounds: rounds1.saturating_sub(rounds0),
            virtual_seconds: (sec1 - sec0).max(0.0),
            ..Default::default()
        };
        if let Ok(resp) = &result {
            usage.prompt_tokens = resp.prompt_tokens as u64;
            usage.completion_tokens = resp.completion_tokens as u64;
        }
        tag_trace::record_lm(usage);
        result
    }

    /// Reset all metrics (LM clock, engine cache/stats) between queries.
    pub fn reset_metrics(&self) {
        self.engine.lm().reset_metrics();
        self.engine.reset();
    }

    /// Simulated seconds of LM time since the last reset.
    pub fn elapsed_seconds(&self) -> f64 {
        self.engine.lm().elapsed_seconds()
    }
}

/// The row store and what its ids name: store id `first + i` is row `i`
/// of a table's image as it was when the store embedded it. The images
/// are shared with the tables, not copied; a later write to a table
/// copies the image before changing it, so a hit keeps reading the row
/// it was embedded from.
struct Retrieval {
    store: RowStore,
    /// The tables with rows, in store order.
    tables: Vec<EmbeddedTable>,
}

/// One table as the row store embedded it.
struct EmbeddedTable {
    columns: Vec<String>,
    image: Arc<Chunk>,
    /// The store id of the image's first row.
    first: usize,
}

impl EmbeddedTable {
    /// Append image row `row`'s serialized text ([`push_row_text`]).
    fn push_text(&self, row: usize, out: &mut String) {
        push_row_text(out, &self.columns, |c, out| {
            self.image.column(c).push_text_at(row, out)
        });
    }
}

impl Retrieval {
    /// The table and image row store id `id` names.
    fn locate(&self, id: usize) -> (&EmbeddedTable, usize) {
        let t = self.tables.partition_point(|t| t.first <= id) - 1;
        (&self.tables[t], id - self.tables[t].first)
    }
}

/// The text after `keyword` when `text`, less leading whitespace,
/// starts with it (ASCII case-insensitively) as a whole word.
fn strip_keyword<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let text = text.trim_start();
    let rest = text.get(keyword.len()..)?;
    let whole_word = rest.chars().next().is_none_or(char::is_whitespace);
    (text[..keyword.len()].eq_ignore_ascii_case(keyword) && whole_word).then_some(rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tag_lm::sim::{SimConfig, SimLm};

    fn env() -> TagEnv {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE schools (CDSCode INTEGER PRIMARY KEY, School TEXT, City TEXT);
             INSERT INTO schools VALUES (1, 'Gunn High', 'Palo Alto'), (2, 'Fresno High', 'Fresno');",
        )
        .unwrap();
        TagEnv::new(db, Arc::new(SimLm::new(SimConfig::default())))
    }

    #[test]
    fn schema_prompt_renders_create_tables() {
        let e = env();
        let p = e.schema_prompt();
        assert!(p.contains("CREATE TABLE schools"));
        assert!(p.contains("CDSCode INTEGER not null primary key"));
        assert!(p.contains("City TEXT null"));
    }

    #[test]
    fn explain_verify_reports_on_the_planned_question() {
        let e = env();
        let rs = e
            .run_sql("EXPLAIN VERIFY How many schools are there?")
            .unwrap();
        assert_eq!(rs.columns, vec!["plan"]);
        let lines: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(lines[0], "verify: ok", "{lines:?}");
        assert!(
            lines.iter().any(|l| l.starts_with("rewrite: ok")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("lm_call_bound: ")),
            "{lines:?}"
        );
        // The annotated plan itself follows the report header, with
        // per-node cardinality and LM-call annotations.
        assert!(
            lines
                .iter()
                .any(|l| l.contains("Scan schools") && l.contains("rows<=")),
            "{lines:?}"
        );
    }

    /// `EXPLAIN SEMPLAN|VERIFY` are statements of `run_sql` like any
    /// other: the same rows traced or not, under one `sql` span each,
    /// and the same errors for a missing or a non-canonical question.
    #[test]
    fn explain_semplan_and_verify_are_run_sql_statements() {
        let e = env();
        let (trace, sink) = tag_trace::Trace::memory();
        for kind in ["SEMPLAN", "VERIFY"] {
            let statement = format!("explain {kind}  How many schools are there? ");
            let plain = e.run_sql(&statement).unwrap();
            let traced = tag_trace::with_trace(&trace, || e.run_sql(&statement)).unwrap();
            assert_eq!(plain, traced, "{statement}");
            assert_eq!(plain.columns, vec!["plan"]);
            assert!(plain
                .rows
                .iter()
                .any(|r| r[0].to_string().contains("Scan schools")));

            let err = e.run_sql(&format!("EXPLAIN {kind}")).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("unsupported error: EXPLAIN {kind} needs a question")
            );
            let err =
                tag_trace::with_trace(&trace, || e.run_sql(&format!("EXPLAIN {kind} gibberish")))
                    .unwrap_err();
            assert_eq!(
                err.to_string(),
                "binding error: no semantic plan for: gibberish (not a canonical TAG-Bench question)"
            );
        }
        // The semantic plan is printed, not executed: one `sql` span per
        // statement and no plan node under it.
        let spans = sink.take();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.label == "sql" && s.parent.is_none()));
    }

    /// Only a `TagEnv` knows the canonical questions: a plain database
    /// refuses `EXPLAIN SEMPLAN` as a relational `EXPLAIN` it cannot
    /// parse, before anything is planned or run.
    #[test]
    fn plain_database_refuses_explain_semplan() {
        let db = env().db;
        for kind in ["SEMPLAN", "VERIFY"] {
            let statement = format!("EXPLAIN {kind} How many schools are there?");
            let unparsed = |err: SqlError| matches!(err.category(), "lex" | "parse");
            assert!(unparsed(db.query(&statement).unwrap_err()), "{statement}");
            let (trace, sink) = tag_trace::Trace::memory();
            let traced = tag_trace::with_trace(&trace, || db.query(&statement));
            assert!(unparsed(traced.unwrap_err()), "{statement}");
            assert!(sink.is_empty(), "nothing planned, nothing run");
        }
    }

    #[test]
    fn env_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TagEnv>();
    }

    /// The text the store embedded for each hit of `question`, by id.
    fn hit_texts(e: &TagEnv, question: &str, k: usize) -> Vec<(usize, String)> {
        let hits = e.row_store().retrieve(question, k);
        hits.iter()
            .map(|hit| {
                let mut text = String::new();
                e.push_point_text(hit.id, &mut text);
                (hit.id, text)
            })
            .collect()
    }

    #[test]
    fn row_store_covers_all_rows() {
        let e = env();
        assert_eq!(e.row_store().len(), 2);
        let hits = hit_texts(&e, "Gunn High school", 1);
        assert_eq!(hits.len(), 1);
        let values = hits[0].1.lines().filter_map(|l| l.split_once(": "));
        assert!(values.map(|(_, v)| v).any(|v| v == "Gunn High"));
    }

    /// A hit reads the table image the store embedded: after a `DELETE`
    /// and an `INSERT`, the same question returns the same ids with the
    /// same texts, as copied rows did (refreshing the store is left to a
    /// rebuild).
    #[test]
    fn hits_read_the_snapshot_the_store_embedded() {
        let mut e = env();
        let question = "Gunn High school in Palo Alto";
        let before = hit_texts(&e, question, 2);
        assert_eq!(before.len(), 2);
        assert!(before[0].1.contains("- School: Gunn High"), "{before:?}");
        e.db.execute("DELETE FROM schools WHERE CDSCode = 1")
            .unwrap();
        e.db.execute("INSERT INTO schools VALUES (3, 'Lincoln High', 'San Jose')")
            .unwrap();
        assert_eq!(
            e.db.query("SELECT School FROM schools").unwrap().rows.len(),
            2
        );
        assert_eq!(hit_texts(&e, question, 2), before);
    }

    /// The spans other than `sql` ones, in open order, as `label rows`.
    fn node_spans(spans: &[tag_trace::SpanRecord]) -> Vec<String> {
        let mut nodes: Vec<_> = spans.iter().filter(|s| s.label != "sql").collect();
        nodes.sort_by_key(|s| s.id);
        nodes
            .iter()
            .map(|s| format!("{} {:?}", s.label, s.rows))
            .collect()
    }

    #[test]
    fn run_sql_traced_matches_untraced_and_spans_the_plan() {
        let e = env();
        let sql = "SELECT School FROM schools WHERE City = 'Fresno'";
        let plain = e.run_sql(sql).unwrap();

        let (trace, sink) = tag_trace::Trace::memory();
        let traced = tag_trace::with_trace(&trace, || e.run_sql(sql).unwrap());
        assert_eq!(plain.rows, traced.rows);
        assert_eq!(plain.columns, traced.columns);
        // An EXPLAIN is a statement like any other, traced or not.
        let explain = format!("EXPLAIN {sql}");
        assert_eq!(
            tag_trace::with_trace(&trace, || e.run_sql(&explain)).unwrap(),
            e.run_sql(&explain).unwrap()
        );

        let spans = sink.take();
        let sql_spans: Vec<_> = spans.iter().filter(|s| s.label == "sql").collect();
        assert_eq!(sql_spans.len(), 2);
        assert_eq!(sql_spans[0].stage, tag_trace::Stage::Exec);
        assert!(sql_spans[0]
            .annotations
            .iter()
            .any(|a| a.starts_with("sql: ")));
        // The statement's plan nodes, all under the first `sql` span
        // (the EXPLAIN ran nothing); the root produced the one row.
        let nodes = node_spans(&spans);
        assert!(nodes[0].ends_with("Some(1)"), "{nodes:?}");
        assert!(
            nodes.last().unwrap().starts_with("TableScan schools"),
            "{nodes:?}"
        );
        let under_first =
            |s: &&tag_trace::SpanRecord| s.id > sql_spans[0].id && s.id < sql_spans[1].id;
        assert_eq!(spans.iter().filter(under_first).count(), nodes.len());
        assert!(spans.iter().all(|s| s.stage == tag_trace::Stage::Exec));
    }

    /// A semantic plan's scan is `run_sql` kept columnar: the same rows,
    /// traced or not, under the same `sql` span with the statement and
    /// the same node spans.
    #[test]
    fn scan_is_run_sql_kept_columnar() {
        let e = env();
        let sql = "SELECT School FROM schools WHERE City = 'Fresno'";
        let rows = e.run_sql(sql).unwrap().rows;
        assert_eq!(e.scan(sql).unwrap().rows(), rows);

        let (trace, sink) = tag_trace::Trace::memory();
        let scanned = tag_trace::with_trace(&trace, || {
            e.run_sql(sql).unwrap();
            e.scan(sql).unwrap()
        });
        assert_eq!(scanned.rows(), rows);
        let spans = sink.take();
        let sql_spans: Vec<_> = spans.iter().filter(|s| s.label == "sql").collect();
        assert_eq!(sql_spans.len(), 2);
        assert_eq!(sql_spans[0].annotations, sql_spans[1].annotations);
        let nodes = node_spans(&spans);
        let (ran, scan) = nodes.split_at(nodes.len() / 2);
        assert!(!ran.is_empty());
        assert_eq!(ran, scan);
    }

    #[test]
    fn generate_attributes_usage_to_span() {
        let e = env();
        let (trace, sink) = tag_trace::Trace::memory();
        tag_trace::with_trace(&trace, || {
            let _span = tag_trace::span(tag_trace::Stage::Gen, "answer");
            e.generate(&tag_lm::model::LmRequest::new("say hello to the world"))
                .unwrap();
        });
        let spans = sink.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].lm.calls, 1);
        assert_eq!(spans[0].lm.rounds, 1);
        assert!(spans[0].lm.virtual_seconds > 0.0);
        assert!(spans[0].lm.prompt_tokens > 0);
    }

    /// The engine is the model's one owner: replacing `env.engine` alone
    /// sends both a semantic operator's prompts and a direct `gen` call
    /// to the new engine's model, and none to the model `env.lm` still
    /// names.
    #[test]
    fn replacing_the_engine_moves_every_prompt() {
        let mut e = env();
        let counting = Arc::new(SimLm::new(SimConfig::default()));
        e.engine = SemEngine::new(counting.clone());
        let frame = e.scan("SELECT City FROM schools").unwrap();
        let claim = tag_lm::prompts::SemClaim::CityInRegion {
            region: "Bay Area".into(),
        };
        tag_semops::sem_filter(&e.engine, &frame, "City", &claim).unwrap();
        let filtered = counting.calls();
        assert!(filtered > 0, "sem_filter prompts reach the engine's model");
        e.generate(&tag_lm::model::LmRequest::new("say hello"))
            .unwrap();
        assert_eq!(counting.calls(), filtered + 1, "a direct gen call does too");
        assert_eq!(e.lm.calls(), 0, "the model env.lm names saw nothing");
        assert_eq!(e.elapsed_seconds(), counting.elapsed_seconds());
        e.reset_metrics();
        assert_eq!(counting.calls(), 0);
    }

    #[test]
    fn metrics_reset() {
        let e = env();
        e.engine.complete("hello world prompt").unwrap();
        assert!(e.elapsed_seconds() > 0.0);
        e.reset_metrics();
        assert_eq!(e.elapsed_seconds(), 0.0);
    }
}
