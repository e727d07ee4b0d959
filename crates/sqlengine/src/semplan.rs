//! The SemPlan IR: a typed chain of relational and LM-powered operators
//! (the paper's §2 `syn → exec → gen`: a data source, a pipeline of
//! operators over it, and one generation step at the end).
//!
//! A [`SemPlan`] is a *data-only* description of a TAG pipeline: exact
//! predicates and sort/cuts that run on the data system, and semantic
//! operators (`sem_filter`, `sem_topk`, generation, ...) whose execution
//! is delegated to the semantic-operator runtime through the
//! [`SemDelegate`] trait. Keeping the plan free of closures and LM
//! handles means plans compare with `==`, render through
//! `EXPLAIN SEMPLAN`, and are rewritten by the optimizer rules in
//! [`crate::semopt`] — exactly like relational plans.
//!
//! The type holds only the shapes the compilers build:
//! - a frame plan: a [`FrameSource`] (a scan or a held frame), the
//!   [`SemStep`]s over its frame, and an optional [`Generate`];
//! - a point plan: a [`Retrieve`] of row store ids, an optional
//!   [`Rerank`] of them, and a [`Generate`].
//!
//! [`SemPlan::ops`] lists the operators source first; EXPLAIN prints
//! them root first, one indent per level, and the verifier's paths count
//! the same levels. The executor ([`execute_sem`]) runs the chain in one
//! loop. Under an active `tag-trace` trace every operator is one span,
//! labelled [`SemOp::label`] and tagged [`SemOp::stage`], nested as
//! EXPLAIN's lines are, that records the operator's rows out; the LM
//! calls and tokens it causes land on it (or on an operator span inside
//! it) through `tag_trace::record_lm`.

use crate::chunk::{batches_len, concat_batches_chunk, Batch, Chunk, ColumnData, Rows};
use crate::error::{SqlError, SqlResult};
use crate::result::ResultSet;
use crate::value::Value;
use std::fmt::Write as _;
use std::sync::Arc;
use tag_trace::Stage;

/// A data-only mirror of the LM layer's semantic claims. The SQL layer
/// sits below the LM crates, so claims are carried structurally here and
/// converted back to prompt-level claims by the delegate.
#[derive(Debug, Clone, PartialEq)]
pub enum SemClaimSpec {
    /// Value is a city in the given region.
    CityInRegion {
        /// Region name.
        region: String,
    },
    /// Value is a film considered a classic.
    ClassicMovie,
    /// Value is an EU member country.
    EuCountry,
    /// Value is an F1 circuit on the given continent.
    CircuitInContinent {
        /// Continent name.
        continent: String,
    },
    /// Value is a company in the given business vertical.
    CompanyInVertical {
        /// Vertical name.
        vertical: String,
    },
    /// Value (a height) is greater than the person's height.
    HeightTallerThan {
        /// Person to compare against.
        person: String,
    },
    /// Value (text) exhibits the named semantic property
    /// ("positive", "sarcastic", ...).
    Property {
        /// The property word.
        word: String,
    },
}

impl SemClaimSpec {
    fn describe(&self) -> String {
        match self {
            SemClaimSpec::CityInRegion { region } => format!("city in {region}"),
            SemClaimSpec::ClassicMovie => "classic movie".to_owned(),
            SemClaimSpec::EuCountry => "EU country".to_owned(),
            SemClaimSpec::CircuitInContinent { continent } => {
                format!("circuit in {continent}")
            }
            SemClaimSpec::CompanyInVertical { vertical } => {
                format!("company in {vertical}")
            }
            SemClaimSpec::HeightTallerThan { person } => {
                format!("taller than {person}")
            }
            SemClaimSpec::Property { word } => format!("property:{word}"),
        }
    }
}

/// An exact (non-semantic) predicate evaluated with frame semantics
/// (lenient numeric coercion, case-insensitive text equality) — the
/// comparisons the hand-written pipelines run on the data system.
#[derive(Debug, Clone, PartialEq)]
pub enum SemPredicate {
    /// Numeric comparison `attr > value` / `attr < value`.
    NumCmp {
        /// Column name.
        attr: String,
        /// True for `>`, false for `<`.
        over: bool,
        /// Comparison constant.
        value: f64,
    },
    /// Case-insensitive text equality with numeric fallback.
    TextEq {
        /// Column name.
        attr: String,
        /// Comparison value.
        value: String,
    },
    /// Case-insensitive text equality on the first existing column of
    /// `columns` (schema-candidate resolution, no numeric fallback).
    TextEqAny {
        /// Column-name candidates, tried in order.
        columns: Vec<String>,
        /// Comparison value.
        value: String,
    },
}

impl SemPredicate {
    fn describe(&self) -> String {
        match self {
            SemPredicate::NumCmp { attr, over, value } => {
                format!("{attr} {} {value}", if *over { ">" } else { "<" })
            }
            SemPredicate::TextEq { attr, value } => format!("{attr} = '{value}'"),
            SemPredicate::TextEqAny { columns, value } => {
                format!("{} = '{value}'", columns.join("|"))
            }
        }
    }
}

/// An exact sort + head cut (`ORDER BY sort_by LIMIT k`).
#[derive(Debug, Clone, PartialEq)]
pub struct CutSpec {
    /// Sort column.
    pub sort_by: String,
    /// Sort direction.
    pub descending: bool,
    /// Rows kept.
    pub k: usize,
}

impl CutSpec {
    fn describe(&self) -> String {
        format!(
            "sort={} {} k={}",
            self.sort_by,
            if self.descending { "desc" } else { "asc" },
            self.k
        )
    }
}

/// The columns read off a frame: by a plan operator off its input, or
/// by the plan's consumer off the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemReads {
    /// Every column.
    All,
    /// One entry per read. An entry is a candidate list: the first
    /// column of it that the frame has is the one read.
    Columns(Vec<Vec<String>>),
}

impl SemReads {
    /// Reads of single named columns (no reads at all when empty: a
    /// consumer that only counts rows).
    pub fn columns<S: AsRef<str>>(names: &[S]) -> SemReads {
        SemReads::Columns(names.iter().map(|n| vec![n.as_ref().to_owned()]).collect())
    }

    /// Both sets of reads.
    pub fn and(self, other: SemReads) -> SemReads {
        match (self, other) {
            (SemReads::Columns(mut a), SemReads::Columns(b)) => {
                a.extend(b);
                SemReads::Columns(a)
            }
            _ => SemReads::All,
        }
    }
}

/// What a [`Retrieve`] fetches, as its label names it: the rows
/// generation reads (`k`) or a candidate pool for reranking (`pool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrieveKind {
    /// RAG-style final retrieval (`Retrieve k=..`).
    Rows,
    /// Rerank-style candidate pool (`Retrieve pool=..`).
    Candidates,
}

/// Prompt format of a [`Generate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenFormat {
    /// The list-answer prompt.
    List,
    /// The free-form prompt.
    Free,
    /// Free-form, falling back to hierarchical `sem_agg` when the
    /// rendered prompt exceeds the model's context window.
    FreeOrAgg,
}

/// Where a frame plan's rows come from.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameSource {
    /// Base scan of an entity table through the SQL engine. Compiled bare
    /// ([`FrameSource::scan`]: `SELECT * FROM table`);
    /// [`crate::semopt::lower_scans`] folds the plan's leading steps in,
    /// and [`scan_sql`] is the statement the scan then issues.
    Scan {
        /// Table name.
        table: String,
        /// Columns returned, in table order with the catalog's spelling;
        /// `None` is every column.
        columns: Option<Vec<String>>,
        /// Exact predicates the engine evaluates (`WHERE`, conjoined).
        filters: Vec<SemPredicate>,
        /// Exact sort + head the engine evaluates (`ORDER BY … LIMIT k`),
        /// applied after `filters`.
        cut: Option<CutSpec>,
    },
    /// A frame the caller already holds (e.g. the result of
    /// LM-synthesized SQL, read with
    /// [`Database::query_frame`](crate::Database::query_frame)).
    Input {
        /// The frame.
        frame: SemFrame,
    },
}

impl FrameSource {
    /// A bare scan of `table`: every column, no predicate, no cut.
    pub fn scan(table: impl Into<String>) -> FrameSource {
        FrameSource::Scan {
            table: table.into(),
            columns: None,
            filters: Vec::new(),
            cut: None,
        }
    }
}

/// One step of a frame plan: it takes a frame and returns one.
#[derive(Debug, Clone, PartialEq)]
pub enum SemStep {
    /// Exact predicate on the data system.
    Predicate {
        /// The predicate.
        pred: SemPredicate,
    },
    /// Semantic filter: keep rows whose column value satisfies `claim`
    /// per the LM.
    SemFilter {
        /// Column-name candidates (first existing wins when `resolve`).
        columns: Vec<String>,
        /// Resolve `columns` as schema candidates (hand-written
        /// pipelines' schema knowledge) vs use `columns[0]` directly.
        resolve: bool,
        /// The claim judged per value.
        claim: SemClaimSpec,
        /// Judge each *distinct* value once (the Appendix C rewrite)
        /// instead of row-wise.
        distinct: bool,
        /// When set, the exact cut that followed this filter has been
        /// fused in: sort first, judge values in sorted order, and stop
        /// as soon as `k` rows survive.
        early_stop: Option<CutSpec>,
    },
    /// Exact sort + head on the data system.
    Cut {
        /// The sort/cut.
        cut: CutSpec,
    },
    /// Semantic top-k ordering by an LM-judged property (`sem_topk`).
    SemTopK {
        /// Column ranked on.
        on_attr: String,
        /// Property word ("technical", ...).
        property: String,
        /// Rows kept, in ranked order.
        k: usize,
    },
}

/// Embedding retrieval over the row store: a point plan's source. Its
/// output is the retrieved rows' row store ids, in rank order.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieve {
    /// The retrieval query (the question text).
    pub query: String,
    /// Rows retrieved.
    pub k: usize,
    /// Rows for generation or a candidate pool.
    pub kind: RetrieveKind,
}

/// LM relevance reranking of retrieved points.
#[derive(Debug, Clone, PartialEq)]
pub struct Rerank {
    /// The question scored against.
    pub query: String,
    /// Points kept after reranking.
    pub keep: usize,
}

/// Final LM generation over the rows in context: a plan's last operator.
#[derive(Debug, Clone, PartialEq)]
pub struct Generate {
    /// The question answered.
    pub request: String,
    /// Prompt format.
    pub format: GenFormat,
}

/// A semantic plan: a source, the operators over it in execution order,
/// and a generation sink (optional over a frame). The two kinds of
/// source take different operators, so a frame step over retrieved
/// points, a rerank over a frame and a generation anywhere but last
/// cannot be written.
#[derive(Debug, Clone, PartialEq)]
pub enum SemPlan {
    /// Exact and semantic steps over a frame.
    Frame {
        /// Where the rows come from.
        source: FrameSource,
        /// The steps, first to run first.
        steps: Vec<SemStep>,
        /// Generation over the last step's frame; without it the plan
        /// returns that frame.
        gen: Option<Generate>,
    },
    /// Retrieval, an optional rerank, and generation over the points.
    Points {
        /// The retrieval.
        retrieve: Retrieve,
        /// Reranking of the retrieved points.
        rerank: Option<Rerank>,
        /// Generation over the points kept.
        gen: Generate,
    },
}

impl SemPlan {
    /// The plan's operators in execution order: the source first, the
    /// root (what the plan returns) last.
    pub fn ops(&self) -> Vec<SemOp<'_>> {
        let mut ops = Vec::new();
        let gen = match self {
            SemPlan::Frame { source, steps, gen } => {
                ops.push(SemOp::Source(source));
                ops.extend(steps.iter().map(SemOp::Step));
                gen.as_ref()
            }
            SemPlan::Points {
                retrieve,
                rerank,
                gen,
            } => {
                ops.push(SemOp::Retrieve(retrieve));
                ops.extend(rerank.iter().map(SemOp::Rerank));
                Some(gen)
            }
        };
        ops.extend(gen.map(SemOp::Generate));
        ops
    }

    /// Render the plan chain, root first, two-space indent per level, one
    /// `[stage]`-tagged line per operator.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (depth, op) in self.ops().iter().rev().enumerate() {
            let _ = writeln!(
                out,
                "{}{}  [{}]",
                "  ".repeat(depth),
                op.label(),
                op.stage().as_str()
            );
        }
        out
    }
}

/// One operator of a plan, borrowed ([`SemPlan::ops`]): what EXPLAIN
/// prints one line for and the executor opens one span for.
#[derive(Debug, Clone, Copy)]
pub enum SemOp<'a> {
    /// A frame plan's source.
    Source(&'a FrameSource),
    /// A frame plan's step.
    Step(&'a SemStep),
    /// A point plan's retrieval.
    Retrieve(&'a Retrieve),
    /// A point plan's rerank.
    Rerank(&'a Rerank),
    /// The generation sink.
    Generate(&'a Generate),
}

impl SemOp<'_> {
    /// What the operator reads of its input. `Generate` and `Rerank` hand
    /// whole rows to the LM, so they read everything.
    pub fn reads(&self) -> SemReads {
        match self {
            SemOp::Source(_) | SemOp::Retrieve(_) => SemReads::Columns(Vec::new()),
            SemOp::Step(SemStep::Predicate { pred }) => SemReads::Columns(vec![match pred {
                SemPredicate::NumCmp { attr, .. } | SemPredicate::TextEq { attr, .. } => {
                    vec![attr.clone()]
                }
                SemPredicate::TextEqAny { columns, .. } => columns.clone(),
            }]),
            SemOp::Step(SemStep::SemFilter {
                columns,
                resolve,
                early_stop,
                ..
            }) => {
                let judged = if *resolve {
                    columns.clone()
                } else {
                    columns.iter().take(1).cloned().collect()
                };
                let mut reads = vec![judged];
                reads.extend(early_stop.iter().map(|cut| vec![cut.sort_by.clone()]));
                SemReads::Columns(reads)
            }
            SemOp::Step(SemStep::Cut { cut }) => SemReads::columns(&[&cut.sort_by]),
            SemOp::Step(SemStep::SemTopK { on_attr, .. }) => SemReads::columns(&[on_attr]),
            SemOp::Rerank(_) | SemOp::Generate(_) => SemReads::All,
        }
    }

    /// The operator's pipeline stage: `exec` for exact computation and
    /// the row-transforming semantic operators, `retrieve` for embedding
    /// retrieval, `rerank` for LM relevance scoring, `gen` for
    /// text-producing LM work. Its span carries this tag.
    pub fn stage(&self) -> Stage {
        match self {
            SemOp::Source(_) | SemOp::Step(_) => Stage::Exec,
            SemOp::Retrieve(_) => Stage::Retrieve,
            SemOp::Rerank(_) => Stage::Rerank,
            SemOp::Generate(_) => Stage::Gen,
        }
    }

    /// One-line operator label (EXPLAIN vocabulary).
    pub fn label(&self) -> String {
        match self {
            SemOp::Source(FrameSource::Scan {
                table,
                columns: None,
                filters,
                cut: None,
            }) if filters.is_empty() => format!("Scan {table}"),
            SemOp::Source(FrameSource::Scan {
                table,
                columns,
                filters,
                cut,
            }) => format!(
                "Scan {table}: {}",
                scan_sql(table, columns.as_deref(), filters, cut.as_ref())
            ),
            SemOp::Source(FrameSource::Input { frame }) => format!("Input ({} rows)", frame.len()),
            SemOp::Step(SemStep::Predicate { pred }) => format!("Predicate {}", pred.describe()),
            SemOp::Step(SemStep::SemFilter {
                columns,
                claim,
                distinct,
                early_stop,
                ..
            }) => {
                let mut s = format!("SemFilter {} [{}]", columns.join("|"), claim.describe());
                if *distinct {
                    s.push_str(" distinct");
                }
                if let Some(cut) = early_stop {
                    let _ = write!(s, " early_stop({})", cut.describe());
                }
                s
            }
            SemOp::Step(SemStep::Cut { cut }) => format!("Cut {}", cut.describe()),
            SemOp::Step(SemStep::SemTopK {
                on_attr,
                property,
                k,
            }) => format!("SemTopK {on_attr} property={property} k={k}"),
            SemOp::Retrieve(Retrieve { k, kind, .. }) => format!(
                "Retrieve {}={k}",
                match kind {
                    RetrieveKind::Rows => "k",
                    RetrieveKind::Candidates => "pool",
                }
            ),
            SemOp::Rerank(Rerank { keep, .. }) => format!("Rerank keep={keep}"),
            SemOp::Generate(Generate { format, .. }) => format!(
                "Generate {}",
                match format {
                    GenFormat::List => "list",
                    GenFormat::Free => "free",
                    GenFormat::FreeOrAgg => "free|agg",
                }
            ),
        }
    }
}

/// The SQL statement a [`FrameSource::Scan`] with these fields issues.
/// Identifiers are double-quoted; numeric constants are written as float
/// literals so an INTEGER column compares through `f64`, as the frame
/// kernel does.
pub fn scan_sql(
    table: &str,
    columns: Option<&[String]>,
    filters: &[SemPredicate],
    cut: Option<&CutSpec>,
) -> String {
    let quoted = |name: &str| format!("\"{name}\"");
    let select = match columns {
        None => "*".to_owned(),
        Some(cols) => cols
            .iter()
            .map(|c| quoted(c))
            .collect::<Vec<_>>()
            .join(", "),
    };
    let mut sql = format!("SELECT {select} FROM {table}");
    for (i, pred) in filters.iter().enumerate() {
        sql.push_str(if i == 0 { " WHERE " } else { " AND " });
        match pred {
            SemPredicate::NumCmp { attr, over, value } => {
                // `total_cmp` tells -0.0 from 0.0; IEEE `<`/`>` do not.
                let value = if *value == 0.0 { 0.0 } else { *value };
                let _ = write!(
                    sql,
                    "{} {} {value:?}",
                    quoted(attr),
                    if *over { ">" } else { "<" }
                );
            }
            // `LIKE` without a wildcard is ASCII-case-insensitive
            // equality, which is what the frame kernel computes.
            SemPredicate::TextEq { attr, value } => {
                let _ = write!(
                    sql,
                    "{} LIKE {}",
                    quoted(attr),
                    Value::text(value.as_str()).to_sql_literal()
                );
            }
            // Never folded (`semopt::lower_scans`) and rejected by the
            // verifier: which column it names is decided per frame.
            SemPredicate::TextEqAny { .. } => sql.push_str(&pred.describe()),
        }
    }
    if let Some(cut) = cut {
        let _ = write!(
            sql,
            " ORDER BY {}{} LIMIT {}",
            quoted(&cut.sort_by),
            if cut.descending { " DESC" } else { "" },
            cut.k
        );
    }
    sql
}

/// Tabular data flowing between semantic plan operators: a selection over
/// columnar data.
///
/// A frame is a shared [`Chunk`] plus the ids of the chunk rows it
/// holds, in frame order. Exact kernels narrow or reorder that id list
/// and copy no cell; [`SemFrame::rows`] materializes rows for the
/// operators that take them, and only the selected ones. Two frames are
/// equal when their columns and their logical rows are.
///
/// A frame read by [`Database::query_frame`](crate::Database::query_frame)
/// shares the table's columnar image: the image itself for a `SELECT *`,
/// a view of its columns for a projection ([`Chunk::project`]). A frame
/// held across an INSERT into that table keeps the rows it saw: the
/// insert copies each column the frame's view shares before appending to
/// it (copy-on-write, [`Chunk::push_row`]), or, when the frame holds the
/// image itself, leaves it to the frame and has the next read rebuild
/// one.
#[derive(Clone)]
pub struct SemFrame {
    /// Column names.
    pub columns: Vec<String>,
    data: Arc<Chunk>,
    rows: Vec<u32>,
}

impl SemFrame {
    /// A frame that owns `rows`: one fresh chunk, every row selected.
    pub fn from_rows<R: IntoIterator<Item = Value>>(
        columns: Vec<String>,
        rows: impl IntoIterator<Item = R>,
    ) -> SemFrame {
        let data = Chunk::from_rows(columns.len(), rows);
        SemFrame {
            columns,
            rows: (0..data.len() as u32).collect(),
            data: Arc::new(data),
        }
    }

    /// A frame that owns `rows`, each as wide as `columns`.
    pub fn new(columns: Vec<String>, rows: Vec<Vec<Value>>) -> SqlResult<SemFrame> {
        let width = columns.len();
        if let Some((i, r)) = rows.iter().enumerate().find(|(_, r)| r.len() != width) {
            let msg = format!("row {i} has {} values for {width} columns", r.len());
            return Err(SqlError::Catalog(msg));
        }
        Ok(SemFrame::from_rows(columns, rows))
    }

    /// The frame that owns a result set's rows.
    pub fn from_result(rs: ResultSet) -> SemFrame {
        SemFrame::from_rows(rs.columns, rs.rows)
    }

    /// The frame with no columns and no rows.
    pub fn empty() -> SemFrame {
        SemFrame {
            columns: Vec::new(),
            data: Arc::new(Chunk::empty(0)),
            rows: Vec::new(),
        }
    }

    /// The frame of an executor's output. Batches over one shared chunk
    /// (a scan's morsels, a filter's selections, a projection's view)
    /// keep it, and their row ids are concatenated: nothing is copied.
    /// Any other output is gathered into one owned chunk.
    pub(crate) fn from_batches(columns: Vec<String>, batches: Vec<Batch>) -> SemFrame {
        let shared = batches
            .first()
            .map(|b| Arc::clone(&b.data))
            .filter(|data| batches.iter().all(|b| Arc::ptr_eq(&b.data, data)));
        let Some(data) = shared else {
            let data = concat_batches_chunk(&batches, columns.len());
            return SemFrame {
                columns,
                rows: (0..data.len() as u32).collect(),
                data,
            };
        };
        let mut rows = Vec::with_capacity(batches_len(&batches));
        for b in &batches {
            match &b.rows {
                Rows::Range(s, e) => rows.extend(*s as u32..*e as u32),
                Rows::Ids(ids) => rows.extend_from_slice(ids),
            }
        }
        SemFrame {
            columns,
            data,
            rows,
        }
    }

    /// The same data, holding the chunk rows `rows` in that order (ids
    /// of [`SemFrame::column`]'s rows, as [`SemFrame::selection`] lists
    /// them).
    pub fn with_selection(self, rows: Vec<u32>) -> SemFrame {
        debug_assert!(rows.iter().all(|&id| (id as usize) < self.data.len()));
        SemFrame { rows, ..self }
    }

    /// The chunk rows the frame holds, in frame order.
    pub fn selection(&self) -> &[u32] {
        &self.rows
    }

    /// Column `col` of the backing chunk, every row of it: index it by
    /// the ids in [`SemFrame::selection`].
    pub fn column(&self, col: usize) -> &ColumnData {
        self.data.column(col)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of a column (case-insensitive).
    pub fn column_index(&self, name: &str) -> SqlResult<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .ok_or_else(|| SqlError::Binding(format!("no such column: {name}")))
    }

    /// The value at (frame row, column), cloned.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.data.value_at(self.rows[row] as usize, col)
    }

    /// The selected rows, materialized in frame order.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        let ids = self.rows.iter();
        ids.map(|&id| self.data.row(id as usize)).collect()
    }
}

impl PartialEq for SemFrame {
    fn eq(&self, other: &SemFrame) -> bool {
        self.columns == other.columns && self.rows() == other.rows()
    }
}

impl std::fmt::Debug for SemFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemFrame")
            .field("columns", &self.columns)
            .field("rows", &self.rows())
            .finish()
    }
}

/// Executes the operators of semantic plans, one typed call per
/// operator. Implemented by the semantic runtime (over `tag-semops` + the
/// LM); the SQL layer stays free of LM dependencies. Each call gets its
/// input's output by value: the executor has already run it.
pub trait SemDelegate {
    /// A frame plan's rows at their source.
    fn source(&self, source: &FrameSource) -> Result<SemFrame, String>;
    /// One step over its input frame.
    fn step(&self, step: &SemStep, input: SemFrame) -> Result<SemFrame, String>;
    /// The row store ids retrieval returns, in rank order.
    fn retrieve(&self, retrieve: &Retrieve) -> Result<Vec<usize>, String>;
    /// The retrieved ids a rerank keeps, in its order.
    fn rerank(&self, rerank: &Rerank, points: Vec<usize>) -> Result<Vec<usize>, String>;
    /// Generation over a frame's rows: the answer frame.
    fn generate(&self, gen: &Generate, input: SemFrame) -> Result<SemFrame, String>;
    /// Generation over retrieved rows: the answer frame.
    fn generate_points(&self, gen: &Generate, points: Vec<usize>) -> Result<SemFrame, String>;
}

/// Execute a semantic plan through `delegate`, source first, one span per
/// operator under an active trace (module docs). Each operator's input is
/// dropped once the operator returns.
pub fn execute_sem(plan: &SemPlan, delegate: &dyn SemDelegate) -> Result<SemFrame, String> {
    let mut spans = OpSpans::open(plan);
    match plan {
        SemPlan::Frame { source, steps, gen } => {
            let mut frame = spans.close(delegate.source(source), SemFrame::len)?;
            for step in steps {
                frame = spans.close(delegate.step(step, frame), SemFrame::len)?;
            }
            match gen {
                Some(gen) => spans.close(delegate.generate(gen, frame), SemFrame::len),
                None => Ok(frame),
            }
        }
        SemPlan::Points {
            retrieve,
            rerank,
            gen,
        } => {
            let mut points = spans.close(delegate.retrieve(retrieve), Vec::len)?;
            if let Some(rerank) = rerank {
                points = spans.close(delegate.rerank(rerank, points), Vec::len)?;
            }
            spans.close(delegate.generate_points(gen, points), SemFrame::len)
        }
    }
}

/// The spans of a plan's operators under an active trace (none
/// otherwise), opened root first so each is the parent of the one below
/// it, as EXPLAIN indents them, and closed source first as the operators
/// return. On an early return, dropping the root's guard closes what is
/// still open, innermost first.
struct OpSpans(Vec<tag_trace::SpanGuard>);

impl OpSpans {
    fn open(plan: &SemPlan) -> OpSpans {
        if !tag_trace::is_active() {
            return OpSpans(Vec::new());
        }
        let ops = plan.ops();
        let spans = ops.iter().rev();
        OpSpans(
            spans
                .map(|op| tag_trace::span(op.stage(), &op.label()))
                .collect(),
        )
    }

    /// Close the innermost span, the operator whose `result` this is,
    /// with its rows out (`rows` of a success).
    fn close<T>(&mut self, result: Result<T, String>, rows: fn(&T) -> usize) -> Result<T, String> {
        if let (Some(span), Ok(out)) = (self.0.pop(), &result) {
            span.set_rows(rows(out));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> SemFrame {
        SemFrame::from_rows(vec!["x".into()], (0..n).map(|i| vec![Value::Int(i as i64)]))
    }

    /// A delegate that halves row counts and charges one LM call per
    /// semantic filter to the innermost open span, as the runtime's
    /// semantic engine does. A scan of `missing` fails; so does every
    /// operator it has no use for.
    struct HalvingDelegate;

    impl SemDelegate for HalvingDelegate {
        fn source(&self, source: &FrameSource) -> Result<SemFrame, String> {
            match source {
                FrameSource::Scan { table, .. } if table == "missing" => Err("no table".into()),
                FrameSource::Scan { .. } => Ok(frame(8)),
                FrameSource::Input { .. } => Err("unexpected input".into()),
            }
        }

        fn step(&self, step: &SemStep, input: SemFrame) -> Result<SemFrame, String> {
            let SemStep::SemFilter { .. } = step else {
                return Err(format!("unexpected step {}", SemOp::Step(step).label()));
            };
            tag_trace::record_lm(tag_trace::LmUsage {
                calls: 1,
                prompt_tokens: 10,
                completion_tokens: 1,
                ..Default::default()
            });
            let half = input.selection()[..input.len() / 2].to_vec();
            Ok(input.with_selection(half))
        }

        fn retrieve(&self, _: &Retrieve) -> Result<Vec<usize>, String> {
            Err("unexpected retrieve".into())
        }

        fn rerank(&self, _: &Rerank, _: Vec<usize>) -> Result<Vec<usize>, String> {
            Err("unexpected rerank".into())
        }

        fn generate(&self, _: &Generate, _: SemFrame) -> Result<SemFrame, String> {
            Err("unexpected generate".into())
        }

        fn generate_points(&self, _: &Generate, _: Vec<usize>) -> Result<SemFrame, String> {
            Err("unexpected generate".into())
        }
    }

    fn filter_over_scan() -> SemPlan {
        SemPlan::Frame {
            source: FrameSource::scan("t"),
            steps: vec![SemStep::SemFilter {
                columns: vec!["x".into()],
                resolve: true,
                claim: SemClaimSpec::EuCountry,
                distinct: false,
                early_stop: None,
            }],
            gen: None,
        }
    }

    #[test]
    fn executes_source_first() {
        let out = execute_sem(&filter_over_scan(), &HalvingDelegate).unwrap();
        assert_eq!(out.len(), 4);
    }

    /// Under a trace every operator is one span: tagged with its stage,
    /// labelled as EXPLAIN labels it, nested as EXPLAIN indents it, with
    /// its rows out and the LM cost it caused (and only that).
    #[test]
    fn node_spans_attribute_rows_and_lm_cost() {
        let plain = execute_sem(&filter_over_scan(), &HalvingDelegate).unwrap();
        let (trace, sink) = tag_trace::Trace::memory();
        let traced = tag_trace::with_trace(&trace, || {
            execute_sem(&filter_over_scan(), &HalvingDelegate)
        });
        assert_eq!(traced.unwrap(), plain);
        let spans = sink.take();
        assert_eq!(spans.len(), 2);
        let (scan, filter) = (&spans[0], &spans[1]);
        assert!(filter.label.starts_with("SemFilter"), "{}", filter.label);
        assert_eq!(filter.stage, Stage::Exec);
        assert_eq!(filter.parent, None);
        assert_eq!(filter.rows, Some(4));
        assert_eq!(filter.lm.calls, 1, "filter charged one call");
        assert_eq!(filter.lm.prompt_tokens, 10);
        assert_eq!(scan.label, "Scan t");
        assert_eq!(scan.parent, Some(filter.id), "the input is a child span");
        assert_eq!(scan.rows, Some(8), "the filter's rows in");
        assert!(scan.lm.is_zero(), "scan is LM-free");
        let tree = tag_trace::render_tree(&spans);
        assert!(tree.contains("rows=4  lm: calls=1"), "{tree}");
    }

    #[test]
    fn explain_renders_stages_and_indent() {
        let plan = SemPlan::Points {
            retrieve: Retrieve {
                query: "q".into(),
                k: 30,
                kind: RetrieveKind::Candidates,
            },
            rerank: Some(Rerank {
                query: "q".into(),
                keep: 10,
            }),
            gen: Generate {
                request: "q".into(),
                format: GenFormat::List,
            },
        };
        let text = plan.explain();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("Generate list"), "{text}");
        assert!(lines[0].ends_with("[gen]"), "{text}");
        assert!(lines[1].starts_with("  Rerank keep=10"), "{text}");
        assert!(lines[1].ends_with("[rerank]"), "{text}");
        assert!(lines[2].starts_with("    Retrieve pool=30"), "{text}");
        assert!(lines[2].ends_with("[retrieve]"), "{text}");
    }

    /// A failing source fails the plan, and every operator span still
    /// closes: the next span opened is a root again. An operator that
    /// failed, or never ran, records no rows.
    #[test]
    fn errors_propagate_and_close_every_node_span() {
        let bad = SemPlan::Frame {
            source: FrameSource::scan("missing"),
            steps: vec![SemStep::Cut {
                cut: CutSpec {
                    sort_by: "x".into(),
                    descending: true,
                    k: 1,
                },
            }],
            gen: None,
        };
        let (trace, sink) = tag_trace::Trace::memory();
        tag_trace::with_trace(&trace, || {
            assert_eq!(execute_sem(&bad, &HalvingDelegate).unwrap_err(), "no table");
            let _after = tag_trace::span(Stage::Request, "after");
        });
        let spans = sink.take();
        let labels: Vec<&str> = spans.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["Scan missing", "Cut sort=x desc k=1", "after"]);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans.iter().all(|s| s.rows.is_none()), "{spans:?}");
        assert_eq!(spans[2].parent, None, "no node span left open");
    }

    #[test]
    fn stage_taxonomy() {
        let plan = filter_over_scan();
        assert!(plan.ops().iter().all(|op| op.stage() == Stage::Exec));
        let retrieve = Retrieve {
            query: "q".into(),
            k: 1,
            kind: RetrieveKind::Rows,
        };
        assert_eq!(SemOp::Retrieve(&retrieve).stage(), Stage::Retrieve);
    }

    #[test]
    fn construction_validates_width() {
        let err = SemFrame::new(vec!["a".into()], vec![vec![]]).unwrap_err();
        assert_eq!(
            err,
            SqlError::Catalog("row 0 has 0 values for 1 columns".into())
        );
    }

    #[test]
    fn from_result_keeps_columns_and_rows() {
        let columns = vec!["id".to_owned(), "city".to_owned()];
        let rows = vec![
            vec![Value::Int(1), Value::text("PA")],
            vec![Value::Null, Value::Float(2.5)],
        ];
        let frame = SemFrame::from_result(ResultSet::new(columns.clone(), rows.clone()));
        assert_eq!(frame.columns, columns);
        assert_eq!(frame.rows(), rows);
        assert_eq!(frame, SemFrame::new(columns, rows).unwrap());
    }
}
