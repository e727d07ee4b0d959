//! Typed well-formedness verification over [`SemPlan`]s.
//!
//! The plan type already rules out the misplaced shapes (a frame step
//! over retrieved points, a rerank over a frame, a generation anywhere
//! but last). What it cannot rule out is checked here.
//!
//! [`verify_plan`] checks a single plan against a catalog, when it is
//! given one: the columns a frame plan's steps name resolve against its
//! source (with the same case-insensitive, first-existing-candidate
//! semantics the runtime uses), every cut keeps rows, a fused
//! early-stop filter judges distinct values, and cardinality bounds stay
//! monotone through `Cut`/`SemTopK`/`Rerank`/pre-cut.
//! Without a catalog (`None`) every column check involving a scanned
//! table is skipped rather than failed.
//!
//! [`verify_rewrite`] checks an `optimize_sem` before/after pair: every
//! predicate, semantic filter, and cut of the input plan is conserved in
//! the output (so a rewrite can never drop or invent work), each enabled
//! rule's postcondition holds on the output (pushdown left no predicate
//! after a fusable filter, distinct marked every unfused filter, precut
//! left no cut after a fusable filter), and the static LM-call bound
//! never increased. (That a fused filter judges distinct values is
//! well-formedness, so [`verify_plan`] alone reports it.) It also checks
//! `lower_scans`' postcondition, whichever rules ran: work folded into a
//! scan is conserved like any other, a folded predicate is one the
//! engine evaluates exactly as the frame kernel does, and a projected
//! scan still returns every column the plan reads above it.
//!
//! Diagnostics render deterministically: each loop visits the operators
//! of [`SemPlan::ops`] in a fixed order, so repeated runs over the same
//! plan produce byte-identical reports.

use crate::catalog::Catalog;
use crate::schema::DataType;
use crate::semcost::{plan_bounds, plan_cost};
use crate::semopt::{SemOptOptions, LIKE_WILDCARDS};
use crate::semplan::{FrameSource, SemOp, SemPlan, SemPredicate, SemReads, SemStep};
use crate::table::Table;
use std::fmt::Write as _;

/// Column names of `table`, when there is a catalog and it has the
/// table. The catalog resolves table names ASCII-case-insensitively, as
/// the SQL binder does.
fn table_columns(catalog: Option<&Catalog>, table: &str) -> Option<Vec<String>> {
    Some(catalog?.table(table).ok()?.schema().names())
}

/// `table` and the position of its column `column`, when there is a
/// catalog and it has both.
fn live_column<'a>(
    catalog: Option<&'a Catalog>,
    table: &str,
    column: &str,
) -> Option<(&'a Table, usize)> {
    let t = catalog?.table(table).ok()?;
    Some((t, t.schema().index_of(column)?))
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`unknown-table`, `column-missing`,
    /// `conservation`, ...).
    pub code: &'static str,
    /// The operator's depth in the chain, written as one `0` per level
    /// from the root (`"0"` is the root, `"0/0"` its input, `"0/0/0"`
    /// that operator's input, ...), as EXPLAIN indents it.
    pub path: String,
    /// Label of the offending operator (empty for whole-plan findings).
    pub node: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    fn render(&self) -> String {
        if self.node.is_empty() {
            format!("[{}] {}", self.code, self.message)
        } else {
            format!(
                "[{}] {} ({}): {}",
                self.code, self.path, self.node, self.message
            )
        }
    }
}

/// The outcome of a verification pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Findings, in deterministic discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// One line per diagnostic (empty string when clean).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}", d.render());
        }
        out
    }
}

/// The path of the operator at `depth` levels below the root.
fn op_path(depth: usize) -> String {
    format!("0{}", "/0".repeat(depth))
}

/// A finding about the operator `op` at `depth`.
fn op_diag(code: &'static str, depth: usize, op: SemOp<'_>, message: String) -> Diagnostic {
    Diagnostic {
        code,
        path: op_path(depth),
        node: op.label(),
        message,
    }
}

/// Whether the columns a frame source exposes (`None` when they are
/// unknown: no catalog, or no such table) have `name`, matching the
/// runtime's case-insensitive column resolution; `None` skips the check.
fn has_column(cols: &Option<Vec<String>>, name: &str) -> Option<bool> {
    Some(cols.as_ref()?.iter().any(|c| c.eq_ignore_ascii_case(name)))
}

fn describe_columns(cols: &Option<Vec<String>>) -> String {
    match cols {
        Some(cols) => format!("{cols:?}"),
        None => "<unknown>".to_owned(),
    }
}

/// The findings about one operator: its depth, its label and where they
/// go.
struct OpChecker<'a> {
    depth: usize,
    op: SemOp<'a>,
    out: &'a mut Vec<Diagnostic>,
}

impl OpChecker<'_> {
    fn diag(&mut self, code: &'static str, message: String) {
        self.out.push(op_diag(code, self.depth, self.op, message));
    }

    fn require_column(&mut self, input: &Option<Vec<String>>, name: &str) {
        if has_column(input, name) == Some(false) {
            self.diag(
                "column-missing",
                format!(
                    "column '{name}' not in input columns {}",
                    describe_columns(input)
                ),
            );
        }
    }

    fn require_candidate(&mut self, input: &Option<Vec<String>>, candidates: &[String]) {
        let any = candidates
            .iter()
            .map(|c| has_column(input, c))
            .try_fold(false, |acc, x| x.map(|b| acc || b));
        if any == Some(false) {
            self.diag(
                "column-missing",
                format!(
                    "none of the candidate columns {candidates:?} in input columns {}",
                    describe_columns(input)
                ),
            );
        }
    }

    fn require_pred_columns(&mut self, input: &Option<Vec<String>>, pred: &SemPredicate) {
        match pred {
            SemPredicate::NumCmp { attr, .. } | SemPredicate::TextEq { attr, .. } => {
                self.require_column(input, attr);
            }
            SemPredicate::TextEqAny { columns, .. } => self.require_candidate(input, columns),
        }
    }

    fn require_k(&mut self, what: &str, k: usize) {
        if k == 0 {
            self.diag(
                "empty-cut",
                format!("{what} keeps k=0 rows — the plan can never produce output"),
            );
        }
    }

    /// The columns a frame source exposes, checking what it folded in.
    fn source(&mut self, source: &FrameSource, catalog: Option<&Catalog>) -> Option<Vec<String>> {
        let (table, columns, filters, cut) = match source {
            FrameSource::Input { frame } => return Some(frame.columns.clone()),
            FrameSource::Scan {
                table,
                columns,
                filters,
                cut,
            } => (table, columns, filters, cut),
        };
        let table_cols = table_columns(catalog, table);
        if table_cols.is_none() && catalog.is_some() {
            self.diag(
                "unknown-table",
                format!("table '{table}' not in the catalog"),
            );
        }
        // Folded work and the projection name columns of the table, not
        // of the (narrower) frame the scan returns.
        for pred in filters {
            self.require_pred_columns(&table_cols, pred);
        }
        if let Some(cut) = cut {
            self.require_column(&table_cols, &cut.sort_by);
            self.require_k("Scan cut", cut.k);
        }
        let Some(cols) = columns else {
            return table_cols;
        };
        for c in cols {
            self.require_column(&table_cols, c);
        }
        Some(cols.clone())
    }

    /// Check a step against the columns it sees; steps keep them.
    fn step(&mut self, step: &SemStep, input: &Option<Vec<String>>) {
        match step {
            SemStep::Predicate { pred } => self.require_pred_columns(input, pred),
            SemStep::SemFilter {
                columns,
                resolve,
                distinct,
                early_stop,
                ..
            } => {
                if columns.is_empty() {
                    self.diag("no-column", "semantic filter without a column".to_owned());
                } else if *resolve {
                    self.require_candidate(input, columns);
                } else {
                    self.require_column(input, &columns[0]);
                }
                if let Some(cut) = early_stop {
                    self.require_column(input, &cut.sort_by);
                    self.require_k("early_stop", cut.k);
                    if !distinct {
                        // fuse_precut always marks fused filters
                        // distinct; the early-stop executor judges
                        // distinct values in sorted order, so a
                        // non-distinct fused filter is malformed IR.
                        self.diag(
                            "fused-not-distinct",
                            "early-stop filter not marked distinct".to_owned(),
                        );
                    }
                }
            }
            SemStep::Cut { cut } => {
                self.require_column(input, &cut.sort_by);
                self.require_k("Cut", cut.k);
            }
            SemStep::SemTopK { on_attr, k, .. } => {
                self.require_column(input, on_attr);
                self.require_k("SemTopK", *k);
            }
        }
    }
}

/// Verify one plan's well-formedness against `catalog` (schema-blind
/// with `None`). See the module docs for the invariant list.
pub fn verify_plan(plan: &SemPlan, catalog: Option<&Catalog>) -> VerifyReport {
    let ops = plan.ops();
    let root = ops.len() - 1;
    let mut diagnostics = Vec::new();
    // Source first: each step sees the source's columns.
    let mut cols = None;
    for (i, &op) in ops.iter().enumerate() {
        let mut check = OpChecker {
            depth: root - i,
            op,
            out: &mut diagnostics,
        };
        match op {
            SemOp::Source(source) => cols = check.source(source, catalog),
            SemOp::Step(step) => check.step(step, &cols),
            SemOp::Retrieve(retrieve) => check.require_k("Retrieve", retrieve.k),
            SemOp::Rerank(rerank) => check.require_k("Rerank", rerank.keep),
            SemOp::Generate(_) => {}
        }
    }

    // Cardinality monotonicity, root first: row bounds may never grow
    // through a row-reducing operator, and cutters are bounded by their
    // k. This is a consistency check of plan × cost model (a plan whose
    // bounds violate it indicates a malformed cut spec or a model
    // regression).
    let bounds = plan_bounds(plan, catalog);
    for (i, &op) in ops.iter().enumerate().rev() {
        let bound = bounds[i].out_rows;
        let k = match op {
            SemOp::Step(SemStep::Cut { cut })
            | SemOp::Step(SemStep::SemFilter {
                early_stop: Some(cut),
                ..
            }) => Some(cut.k as u64),
            SemOp::Step(SemStep::SemTopK { k, .. }) => Some(*k as u64),
            SemOp::Rerank(rerank) => Some(rerank.keep as u64),
            _ => None,
        };
        let violation = match op {
            // A step or a rerank has the operator before it as input.
            SemOp::Step(_) | SemOp::Rerank(_) => {
                bound > bounds[i - 1].out_rows || k.is_some_and(|k| bound > k)
            }
            SemOp::Generate(_) => bound > 1,
            SemOp::Source(_) | SemOp::Retrieve(_) => false,
        };
        if violation {
            diagnostics.push(op_diag(
                "cardinality",
                root - i,
                op,
                format!("output row bound {bound} exceeds its structural limit"),
            ));
        }
    }

    VerifyReport { diagnostics }
}

/// Conservation fingerprint of a plan: the multiset of predicates,
/// semantic-filter claims, cuts (standalone or fused), and every other
/// operator's label. The three `semopt` rules may move, mark, and fuse,
/// and `lower_scans` may fold into a scan: never drop or invent.
#[derive(Debug, Default, PartialEq, Eq)]
struct Fingerprint {
    predicates: Vec<String>,
    filters: Vec<String>,
    cuts: Vec<String>,
    others: Vec<String>,
}

impl Fingerprint {
    fn of(plan: &SemPlan) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for op in plan.ops() {
            match op {
                SemOp::Step(SemStep::Predicate { pred }) => fp.predicates.push(format!("{pred:?}")),
                SemOp::Step(SemStep::SemFilter {
                    columns,
                    resolve,
                    claim,
                    early_stop,
                    ..
                }) => {
                    // distinct/early_stop are the rewrite's degrees of
                    // freedom; the judged claim and its columns are not.
                    fp.filters
                        .push(format!("{columns:?} resolve={resolve} {claim:?}"));
                    fp.cuts
                        .extend(early_stop.iter().map(|cut| format!("{cut:?}")));
                }
                SemOp::Step(SemStep::Cut { cut }) => fp.cuts.push(format!("{cut:?}")),
                // A scan's label spells out what `lower_scans` folded into
                // it; the folded work is conserved as the work it was.
                SemOp::Source(FrameSource::Scan {
                    table,
                    filters,
                    cut,
                    ..
                }) => {
                    fp.others.push(format!("Scan {table}"));
                    fp.predicates
                        .extend(filters.iter().map(|pred| format!("{pred:?}")));
                    fp.cuts.extend(cut.iter().map(|cut| format!("{cut:?}")));
                }
                other => fp.others.push(other.label()),
            }
        }
        fp.predicates.sort();
        fp.filters.sort();
        fp.cuts.sort();
        fp.others.sort();
        fp
    }
}

fn conservation_diag(what: &str, before: &[String], after: &[String], out: &mut Vec<Diagnostic>) {
    if before != after {
        out.push(Diagnostic {
            code: "conservation",
            path: String::new(),
            node: String::new(),
            message: format!("{what} not conserved: before {before:?}, after {after:?}"),
        });
    }
}

/// Verify an `optimize_sem` rewrite: `after` must conserve `before`'s
/// work, satisfy each enabled rule's postcondition, and never raise the
/// static LM-call bound.
pub fn verify_rewrite(
    before: &SemPlan,
    after: &SemPlan,
    opts: &SemOptOptions,
    catalog: Option<&Catalog>,
) -> VerifyReport {
    let mut diagnostics = Vec::new();

    let fp_before = Fingerprint::of(before);
    let fp_after = Fingerprint::of(after);
    conservation_diag(
        "predicates",
        &fp_before.predicates,
        &fp_after.predicates,
        &mut diagnostics,
    );
    conservation_diag(
        "semantic filters",
        &fp_before.filters,
        &fp_after.filters,
        &mut diagnostics,
    );
    conservation_diag("cuts", &fp_before.cuts, &fp_after.cuts, &mut diagnostics);
    conservation_diag(
        "other operators",
        &fp_before.others,
        &fp_after.others,
        &mut diagnostics,
    );

    check_postconditions(after, opts, &mut diagnostics);
    check_lowering(after, catalog, &mut diagnostics);

    let cost_before = plan_cost(before, catalog);
    let cost_after = plan_cost(after, catalog);
    if cost_after.lm_calls > cost_before.lm_calls {
        diagnostics.push(Diagnostic {
            code: "cost-regression",
            path: String::new(),
            node: String::new(),
            message: format!(
                "rewrite raised the static LM-call bound: {} -> {}",
                cost_before.lm_calls, cost_after.lm_calls
            ),
        });
    }

    VerifyReport { diagnostics }
}

/// The rules' postconditions on the steps, root first.
fn check_postconditions(plan: &SemPlan, opts: &SemOptOptions, out: &mut Vec<Diagnostic>) {
    let ops = plan.ops();
    let root = ops.len() - 1;
    for (i, &op) in ops.iter().enumerate().rev() {
        let SemOp::Step(step) = op else {
            continue;
        };
        // A predicate or cut right after a fusable filter.
        let after_fusable = matches!(
            ops[i - 1],
            SemOp::Step(SemStep::SemFilter {
                early_stop: None,
                ..
            })
        );
        let finding = match step {
            // Pushdown fixpoint: no exact predicate may run right after a
            // still-fusable (non-early-stop) semantic filter. A predicate
            // after an early-stop filter is legal — the fused cut does
            // not commute with filtering.
            SemStep::Predicate { .. } if opts.pushdown && after_fusable => Some((
                "pushdown-missed",
                "exact predicate left above a semantic filter",
            )),
            // Distinct rewrite marks every semantic filter. A fused one
            // that is not marked is malformed whatever the options, and
            // `verify_plan` reports it (`fused-not-distinct`).
            SemStep::SemFilter {
                distinct: false,
                early_stop: None,
                ..
            } if opts.distinct_rewrite => {
                Some(("distinct-missed", "semantic filter left judging row-wise"))
            }
            // Precut fixpoint: no cut may run right after a fusable
            // filter.
            SemStep::Cut { .. } if opts.precut && after_fusable => Some((
                "precut-missed",
                "exact cut left above a fusable semantic filter",
            )),
            _ => None,
        };
        if let Some((code, message)) = finding {
            out.push(op_diag(code, root - i, op, message.to_owned()));
        }
    }
}

/// `lower_scans`' postcondition at a frame plan's scan, with the reads
/// of every operator above it (the plan's consumer is outside the plan
/// and outside this check): a folded predicate must be one the engine
/// evaluates exactly as the frame kernel does (a finite `NumCmp` over
/// INTEGER or a wildcard-free `TextEq` over TEXT, where the catalog says
/// the type, over a column whose name `scan_sql` can quote and which has
/// no index: a B-tree answers in key order, the kernel keeps table
/// order), and a projection must keep every column read above the scan:
/// every candidate the table has, or, when the table's columns are
/// unknown, at least one candidate.
fn check_lowering(plan: &SemPlan, catalog: Option<&Catalog>, out: &mut Vec<Diagnostic>) {
    let ops = plan.ops();
    let Some((&source, above)) = ops.split_first() else {
        return;
    };
    let SemOp::Source(FrameSource::Scan {
        table,
        columns,
        filters,
        ..
    }) = source
    else {
        return;
    };
    let mut diag = |code: &'static str, message: String| {
        out.push(op_diag(code, above.len(), source, message));
    };
    let column_exact = |attr: &str, dtype: DataType| {
        !attr.contains('"')
            && live_column(catalog, table, attr)
                .is_none_or(|(t, c)| t.schema().column(c).dtype == dtype && t.index_on(c).is_none())
    };
    for pred in filters {
        let exact = match pred {
            SemPredicate::NumCmp { attr, value, .. } => {
                value.is_finite() && column_exact(attr, DataType::Integer)
            }
            SemPredicate::TextEq { attr, value } => {
                !value.contains(LIKE_WILDCARDS) && column_exact(attr, DataType::Text)
            }
            SemPredicate::TextEqAny { .. } => false,
        };
        if !exact {
            diag(
                "fold-inexact",
                format!("scan folded {pred:?}, which the engine does not evaluate as the frame kernel does"),
            );
        }
    }
    let Some(projected) = columns else {
        return;
    };
    // Root first, as `lower_scans` gathers them.
    let reads = above.iter().rev();
    let reads = reads.fold(SemReads::Columns(Vec::new()), |r, op| r.and(op.reads()));
    let has = |cols: &[String], name: &str| cols.iter().any(|c| c.eq_ignore_ascii_case(name));
    let SemReads::Columns(reads) = reads else {
        diag(
            "projection-missing",
            "a node above reads every column of a projected scan".to_owned(),
        );
        return;
    };
    let table_cols = table_columns(catalog, table);
    for candidates in reads {
        let kept = match &table_cols {
            Some(cols) => candidates
                .iter()
                .filter(|c| has(cols, c))
                .all(|c| has(projected, c)),
            None => candidates.iter().any(|c| has(projected, c)),
        };
        if !kept {
            diag(
                "projection-missing",
                format!("scan projects to {projected:?}, but {candidates:?} is read above it"),
            );
        }
    }
}

/// Render a plan chain with per-operator static bounds.
///
/// Output is deterministic: operators root first, each line
/// `label  [stage]  (rows<=R lm<=C)` where `R` is the operator's
/// output-row bound and `C` the operator's *own* LM-call bound (the
/// bound up to it minus its input's). Golden tests may diff this
/// byte-for-byte.
fn annotated_explain(plan: &SemPlan, catalog: Option<&Catalog>) -> String {
    let ops = plan.ops();
    let bounds = plan_bounds(plan, catalog);
    let mut out = String::new();
    for (depth, i) in (0..ops.len()).rev().enumerate() {
        let input_calls = i.checked_sub(1).map_or(0, |j| bounds[j].lm_calls);
        let _ = writeln!(
            out,
            "{}{}  [{}]  (rows<={} lm<={})",
            "  ".repeat(depth),
            ops[i].label(),
            ops[i].stage().as_str(),
            bounds[i].out_rows,
            bounds[i].lm_calls.saturating_sub(input_calls)
        );
    }
    out
}

/// Full `EXPLAIN VERIFY` report text for a compile → optimize pair:
/// plan verdict, rewrite verdict, the static LM-call bound (optimized
/// vs naive), and the annotated plan. Deterministic line order.
pub fn verify_report_text(
    naive: &SemPlan,
    optimized: &SemPlan,
    opts: &SemOptOptions,
    catalog: Option<&Catalog>,
) -> String {
    let plan = verify_plan(optimized, catalog);
    let rewrite = verify_rewrite(naive, optimized, opts, catalog);
    let cost_naive = plan_cost(naive, catalog);
    let cost_opt = plan_cost(optimized, catalog);
    let mut out = String::new();
    if plan.is_ok() {
        let _ = writeln!(out, "verify: ok");
    } else {
        let _ = writeln!(
            out,
            "verify: FAILED ({} diagnostics)",
            plan.diagnostics.len()
        );
        for line in plan.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    if rewrite.is_ok() {
        let _ = writeln!(out, "rewrite: ok (rules={})", opts.cache_tag());
    } else {
        let _ = writeln!(
            out,
            "rewrite: FAILED (rules={}, {} diagnostics)",
            opts.cache_tag(),
            rewrite.diagnostics.len()
        );
        for line in rewrite.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    let _ = writeln!(
        out,
        "lm_call_bound: {} (unoptimized: {})",
        cost_opt.lm_calls, cost_naive.lm_calls
    );
    out.push_str(&annotated_explain(optimized, catalog));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::semopt::{lower_scans, optimize_sem};
    use crate::semplan::{CutSpec, GenFormat, Generate, SemClaimSpec};
    use crate::Database;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE schools (School TEXT, City TEXT, Longitude REAL)")
            .expect("create");
        db.execute("INSERT INTO schools VALUES ('Gunn', 'Palo Alto', -122.1)")
            .expect("insert");
        db
    }

    fn filter(columns: &[&str]) -> SemStep {
        SemStep::SemFilter {
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            resolve: true,
            claim: SemClaimSpec::CityInRegion {
                region: "Silicon Valley".into(),
            },
            distinct: false,
            early_stop: None,
        }
    }

    fn cut(sort_by: &str, k: usize) -> SemStep {
        SemStep::Cut {
            cut: CutSpec {
                sort_by: sort_by.into(),
                descending: true,
                k,
            },
        }
    }

    /// `steps` over a bare scan of `table`.
    fn over(table: &str, steps: Vec<SemStep>) -> SemPlan {
        SemPlan::Frame {
            source: FrameSource::scan(table),
            steps,
            gen: None,
        }
    }

    #[test]
    fn well_formed_plan_passes() {
        let plan = over(
            "schools",
            vec![filter(&["City", "city"]), cut("Longitude", 1)],
        );
        let report = verify_plan(&plan, Some(db().catalog()));
        assert!(report.is_ok(), "{}", report.render());
    }

    #[test]
    fn unknown_table_is_caught_with_a_catalog() {
        let plan = over("dragons", Vec::new());
        let report = verify_plan(&plan, Some(db().catalog()));
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, "unknown-table");
        // ... but skipped without one.
        assert!(verify_plan(&plan, None).is_ok());
    }

    #[test]
    fn missing_filter_column_is_caught() {
        let plan = over("schools", vec![filter(&["Town", "Municipality"])]);
        let report = verify_plan(&plan, Some(db().catalog()));
        assert_eq!(report.diagnostics[0].code, "column-missing");
        assert_eq!(report.diagnostics[0].path, "0");
        // One level down the chain, the same filter's path is "0/0".
        let plan = SemPlan::Frame {
            source: FrameSource::scan("schools"),
            steps: vec![filter(&["Town", "Municipality"])],
            gen: Some(Generate {
                request: "q".into(),
                format: GenFormat::Free,
            }),
        };
        let report = verify_plan(&plan, Some(db().catalog()));
        let missing: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "column-missing")
            .map(|d| d.path.as_str())
            .collect();
        assert_eq!(missing, vec!["0/0"], "{}", report.render());
    }

    #[test]
    fn column_resolution_is_case_insensitive_like_the_runtime() {
        let db = db();
        for table in ["schools", "SCHOOLS"] {
            let plan = over(table, vec![filter(&["CITY"])]);
            let report = verify_plan(&plan, Some(db.catalog()));
            assert!(report.is_ok(), "{}", report.render());
        }
    }

    /// A folded predicate of the right type is still inexact over an
    /// indexed column (a B-tree answers in key order, the kernel keeps
    /// table order) or over a name `scan_sql` cannot quote. Lowering
    /// leaves both as steps after the scan; a plan that folds them anyway
    /// fails.
    #[test]
    fn fold_over_an_index_or_an_unquotable_name_is_inexact() {
        let mut db = Database::new();
        db.execute("CREATE TABLE schools (CDSCode INTEGER PRIMARY KEY, Enrollment INTEGER)")
            .expect("create");
        let quoted = Schema::new(vec![Column::new("a\"b", DataType::Integer)]).expect("schema");
        db.catalog_mut()
            .add_table(Table::new("quoted", quoted))
            .expect("add table");
        let codes = |table: &str, attr: &str| {
            let pred = SemPredicate::NumCmp {
                attr: attr.into(),
                over: true,
                value: 0.0,
            };
            let naive = over(table, vec![SemStep::Predicate { pred: pred.clone() }]);
            let lowered = lower_scans(naive.clone(), db.catalog(), &SemReads::All);
            let folded = SemPlan::Frame {
                source: FrameSource::Scan {
                    table: table.into(),
                    columns: None,
                    filters: vec![pred],
                    cut: None,
                },
                steps: Vec::new(),
                gen: None,
            };
            let report =
                verify_rewrite(&naive, &folded, &SemOptOptions::none(), Some(db.catalog()));
            let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
            (lowered == folded, codes)
        };
        assert_eq!(codes("schools", "Enrollment"), (true, vec![]));
        assert_eq!(codes("schools", "CDSCode"), (false, vec!["fold-inexact"]));
        assert_eq!(codes("quoted", "a\"b"), (false, vec!["fold-inexact"]));
    }

    #[test]
    fn zero_k_cut_is_caught() {
        let plan = over("schools", vec![cut("Longitude", 0)]);
        let report = verify_plan(&plan, Some(db().catalog()));
        assert!(report.diagnostics.iter().any(|d| d.code == "empty-cut"));
    }

    /// A fused early-stop filter not marked distinct is one defect, so
    /// `EXPLAIN VERIFY` names it once: from the plan check, not again
    /// from the rewrite's postconditions.
    #[test]
    fn fused_not_distinct_is_reported_once() {
        let naive = over("schools", vec![filter(&["City"]), cut("Longitude", 1)]);
        let fused = over(
            "schools",
            vec![SemStep::SemFilter {
                columns: vec!["City".into()],
                resolve: true,
                claim: SemClaimSpec::CityInRegion {
                    region: "Silicon Valley".into(),
                },
                distinct: false,
                early_stop: Some(CutSpec {
                    sort_by: "Longitude".into(),
                    descending: true,
                    k: 1,
                }),
            }],
        );
        let db = db();
        let text = verify_report_text(&naive, &fused, &SemOptOptions::all(), Some(db.catalog()));
        assert_eq!(text.matches("fused-not-distinct").count(), 1, "{text}");
        assert!(!text.contains("distinct-missed"), "{text}");
    }

    #[test]
    fn real_rewrite_passes_verify_rewrite() {
        let naive = over(
            "schools",
            vec![
                filter(&["City", "city"]),
                SemStep::Predicate {
                    pred: SemPredicate::NumCmp {
                        attr: "Longitude".into(),
                        over: false,
                        value: -120.0,
                    },
                },
                filter(&["City", "city"]),
                cut("Longitude", 1),
            ],
        );
        let opts = SemOptOptions::all();
        let optimized = optimize_sem(naive.clone(), &opts);
        let db = db();
        let report = verify_rewrite(&naive, &optimized, &opts, Some(db.catalog()));
        assert!(report.is_ok(), "{}", report.render());
        assert!(verify_plan(&optimized, Some(db.catalog())).is_ok());
    }

    #[test]
    fn dropped_predicate_breaks_conservation() {
        let naive = over(
            "schools",
            vec![
                filter(&["City"]),
                SemStep::Predicate {
                    pred: SemPredicate::TextEq {
                        attr: "School".into(),
                        value: "Gunn".into(),
                    },
                },
            ],
        );
        // A "rewrite" that silently drops the predicate.
        let broken = over("schools", vec![filter(&["City"])]);
        let report = verify_rewrite(&naive, &broken, &SemOptOptions::none(), None);
        assert!(report.diagnostics.iter().any(|d| d.code == "conservation"));
    }

    #[test]
    fn annotated_explain_is_deterministic_and_ordered() {
        let plan = over("schools", vec![filter(&["City"]), cut("Longitude", 1)]);
        let db = db();
        let a = annotated_explain(&plan, Some(db.catalog()));
        let b = annotated_explain(&plan, Some(db.catalog()));
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        // Root first: cut, then filter, then scan; each annotated.
        assert!(lines[0].starts_with("Cut "), "{a}");
        assert!(lines[1].trim_start().starts_with("SemFilter "), "{a}");
        assert!(lines[2].trim_start().starts_with("Scan "), "{a}");
        assert!(lines.iter().all(|l| l.contains("(rows<=")), "{a}");
    }
}
