//! Typed well-formedness verification over [`SemNode`] plans.
//!
//! [`verify_plan`] checks a single plan against a catalog, when it is
//! given one: column resolution flows bottom-up through every node (with
//! the same case-insensitive, first-existing-candidate semantics the
//! runtime uses), stage tags are legal per operator position, and
//! cardinality bounds stay monotone through `Cut`/`SemTopK`/`Rerank`/pre-cut.
//! Without a catalog (`None`) every column check involving a scanned
//! table is skipped rather than failed.
//!
//! [`verify_rewrite`] checks an `optimize_sem` before/after pair: every
//! predicate, semantic filter, and cut of the input plan is conserved in
//! the output (so a rewrite can never drop or invent work), each enabled
//! rule's postcondition holds on the output (pushdown left no predicate
//! above a fusable filter, distinct marked every filter, precut left no
//! cut above a fusable filter), fused filters always judge distinct
//! values, and the static LM-call bound never increased. It also checks
//! `lower_scans`' postcondition, whichever rules ran: work folded into a
//! scan is conserved like any other, a folded predicate is one the
//! engine evaluates exactly as the frame kernel does, and a projected
//! scan still returns every column the plan reads above it.
//!
//! Diagnostics render deterministically: nodes are visited root first,
//! down the chain of [`SemNode::input`]s, so repeated runs over the same
//! plan produce byte-identical reports.

use crate::catalog::Catalog;
use crate::schema::DataType;
use crate::semcost::plan_cost;
use crate::semopt::{SemOptOptions, LIKE_WILDCARDS};
use crate::semplan::{SemNode, SemPredicate, SemReads};
use crate::table::Table;
use std::fmt::Write as _;
use tag_trace::Stage;

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
    /// The node's depth in the chain, written as one `0` per level from
    /// the root (`"0"` is the root, `"0/0"` its input, `"0/0/0"` that
    /// node's input, ...).
    pub path: String,
    /// Label of the offending node (empty for whole-plan findings).
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
    /// Findings, in deterministic pre-order discovery order.
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

/// What a sub-plan exposes to the operator above it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ColSet {
    /// Concrete column names (catalog scan, materialized input, or a
    /// generation/aggregation result).
    Known(Vec<String>),
    /// An opaque retrieved-point frame (`Retrieve`/`Rerank` output):
    /// only `Rerank` and `Generate` may consume it.
    Points,
    /// No schema information (no catalog, or no such table); column
    /// checks are skipped.
    Unknown,
}

impl ColSet {
    /// `Some(true/false)` with schema knowledge, `None` when unknown.
    /// Matches the runtime's case-insensitive column resolution.
    fn contains(&self, name: &str) -> Option<bool> {
        match self {
            ColSet::Known(cols) => Some(cols.iter().any(|c| c.eq_ignore_ascii_case(name))),
            ColSet::Points => Some(false),
            ColSet::Unknown => None,
        }
    }

    fn describe(&self) -> String {
        match self {
            ColSet::Known(cols) => format!("{cols:?}"),
            ColSet::Points => "<retrieved points>".to_owned(),
            ColSet::Unknown => "<unknown>".to_owned(),
        }
    }
}

struct PlanChecker<'a> {
    catalog: Option<&'a Catalog>,
    diagnostics: Vec<Diagnostic>,
}

impl PlanChecker<'_> {
    fn diag(&mut self, code: &'static str, path: &str, node: &SemNode, message: String) {
        self.diagnostics.push(Diagnostic {
            code,
            path: path.to_owned(),
            node: node.label(),
            message,
        });
    }

    fn require_column(&mut self, path: &str, node: &SemNode, input: &ColSet, name: &str) {
        if input.contains(name) == Some(false) {
            self.diag(
                "column-missing",
                path,
                node,
                format!("column '{name}' not in input columns {}", input.describe()),
            );
        }
    }

    fn require_candidate(
        &mut self,
        path: &str,
        node: &SemNode,
        input: &ColSet,
        candidates: &[String],
    ) {
        let any = candidates
            .iter()
            .map(|c| input.contains(c))
            .try_fold(false, |acc, x| x.map(|b| acc || b));
        if any == Some(false) {
            self.diag(
                "column-missing",
                path,
                node,
                format!(
                    "none of the candidate columns {candidates:?} in input columns {}",
                    input.describe()
                ),
            );
        }
    }

    fn require_pred_columns(
        &mut self,
        path: &str,
        node: &SemNode,
        input: &ColSet,
        pred: &SemPredicate,
    ) {
        match pred {
            SemPredicate::NumCmp { attr, .. } | SemPredicate::TextEq { attr, .. } => {
                self.require_column(path, node, input, attr);
            }
            SemPredicate::TextEqAny { columns, .. } => {
                self.require_candidate(path, node, input, columns);
            }
        }
    }

    fn require_k(&mut self, path: &str, node: &SemNode, what: &str, k: usize) {
        if k == 0 {
            self.diag(
                "empty-cut",
                path,
                node,
                format!("{what} keeps k=0 rows — the plan can never produce output"),
            );
        }
    }

    /// Verify the sub-plan and return its output column set. `is_root`
    /// gates the gen-stage placement rule.
    fn check(&mut self, node: &SemNode, path: &str, is_root: bool) -> ColSet {
        // Gen-stage operators produce a final answer frame; anything
        // stacked above one is consuming prose as a table.
        if !is_root && node.stage() == Stage::Gen {
            self.diag(
                "gen-not-root",
                path,
                node,
                "gen-stage operator below the plan root".to_owned(),
            );
        }

        // Leaves read no input; `Unknown` makes no check on their behalf.
        let input = match node.input() {
            Some(input) => self.check(input, &format!("{path}/0"), false),
            None => ColSet::Unknown,
        };

        // Exec-stage operators run frame semantics over named columns;
        // an opaque point frame from retrieval has none.
        if node.stage() == Stage::Exec && input == ColSet::Points {
            self.diag(
                "points-input",
                path,
                node,
                "exact operator over opaque retrieved points (only Rerank/Generate may consume retrieval output)"
                    .to_owned(),
            );
        }

        match node {
            SemNode::Scan {
                table,
                columns,
                filters,
                cut,
            } => {
                let table_cols = match table_columns(self.catalog, table) {
                    Some(cols) => ColSet::Known(cols),
                    None => {
                        if self.catalog.is_some() {
                            self.diag(
                                "unknown-table",
                                path,
                                node,
                                format!("table '{table}' not in the catalog"),
                            );
                        }
                        ColSet::Unknown
                    }
                };
                // Folded work and the projection name columns of the
                // table, not of the (narrower) frame the scan returns.
                for pred in filters {
                    self.require_pred_columns(path, node, &table_cols, pred);
                }
                if let Some(cut) = cut {
                    self.require_column(path, node, &table_cols, &cut.sort_by);
                    self.require_k(path, node, "Scan cut", cut.k);
                }
                match columns {
                    None => table_cols,
                    Some(cols) => {
                        for c in cols {
                            self.require_column(path, node, &table_cols, c);
                        }
                        ColSet::Known(cols.clone())
                    }
                }
            }
            SemNode::Input { frame } => ColSet::Known(frame.columns.clone()),
            SemNode::Predicate { pred, .. } => {
                self.require_pred_columns(path, node, &input, pred);
                input
            }
            SemNode::SemFilter {
                columns,
                resolve,
                distinct,
                early_stop,
                ..
            } => {
                if columns.is_empty() {
                    self.diag(
                        "no-column",
                        path,
                        node,
                        "semantic filter without a column".to_owned(),
                    );
                } else if *resolve {
                    self.require_candidate(path, node, &input, columns);
                } else {
                    self.require_column(path, node, &input, &columns[0]);
                }
                if let Some(cut) = early_stop {
                    self.require_column(path, node, &input, &cut.sort_by);
                    self.require_k(path, node, "early_stop", cut.k);
                    if !distinct {
                        // fuse_precut always marks fused filters
                        // distinct; the early-stop executor judges
                        // distinct values in sorted order, so a
                        // non-distinct fused filter is malformed IR.
                        self.diag(
                            "fused-not-distinct",
                            path,
                            node,
                            "early-stop filter not marked distinct".to_owned(),
                        );
                    }
                }
                input
            }
            SemNode::Cut { cut, .. } => {
                self.require_column(path, node, &input, &cut.sort_by);
                self.require_k(path, node, "Cut", cut.k);
                input
            }
            SemNode::SemTopK { on_attr, k, .. } => {
                self.require_column(path, node, &input, on_attr);
                self.require_k(path, node, "SemTopK", *k);
                input
            }
            SemNode::Retrieve { k, .. } => {
                self.require_k(path, node, "Retrieve", *k);
                ColSet::Points
            }
            SemNode::Rerank { keep, .. } => {
                self.require_k(path, node, "Rerank", *keep);
                if input != ColSet::Points {
                    self.diag(
                        "rerank-input",
                        path,
                        node,
                        format!(
                            "Rerank scores retrieved points, but its input produces {}",
                            input.describe()
                        ),
                    );
                }
                ColSet::Points
            }
            SemNode::Generate { .. } => ColSet::Known(vec!["answer".to_owned()]),
        }
    }
}

/// Verify one plan's well-formedness against `catalog` (schema-blind
/// with `None`). See the module docs for the invariant list.
pub fn verify_plan(root: &SemNode, catalog: Option<&Catalog>) -> VerifyReport {
    let mut checker = PlanChecker {
        catalog,
        diagnostics: Vec::new(),
    };
    checker.check(root, "0", true);

    // Cardinality monotonicity: row bounds may never grow through a
    // row-reducing operator, and cutters are bounded by their k. This is
    // a consistency check of plan × cost model (a plan whose bounds
    // violate it indicates a malformed cut spec or a model regression).
    check_cardinality(root, "0", catalog, &mut checker.diagnostics);

    VerifyReport {
        diagnostics: checker.diagnostics,
    }
}

fn check_cardinality(
    node: &SemNode,
    path: &str,
    catalog: Option<&Catalog>,
    out: &mut Vec<Diagnostic>,
) {
    let bound = plan_cost(node, catalog).out_rows;
    let violation = match node {
        SemNode::Predicate { input, .. }
        | SemNode::SemFilter { input, .. }
        | SemNode::Cut { input, .. }
        | SemNode::SemTopK { input, .. }
        | SemNode::Rerank { input, .. } => {
            let in_bound = plan_cost(input, catalog).out_rows;
            let k = match node {
                SemNode::Cut { cut, .. } => Some(cut.k as u64),
                SemNode::SemTopK { k, .. } => Some(*k as u64),
                SemNode::Rerank { keep, .. } => Some(*keep as u64),
                SemNode::SemFilter {
                    early_stop: Some(cut),
                    ..
                } => Some(cut.k as u64),
                _ => None,
            };
            bound > in_bound || k.is_some_and(|k| bound > k)
        }
        SemNode::Generate { .. } => bound > 1,
        _ => false,
    };
    if violation {
        out.push(Diagnostic {
            code: "cardinality",
            path: path.to_owned(),
            node: node.label(),
            message: format!("output row bound {bound} exceeds its structural limit"),
        });
    }
    if let Some(input) = node.input() {
        check_cardinality(input, &format!("{path}/0"), catalog, out);
    }
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
    fn of(root: &SemNode) -> Fingerprint {
        let mut fp = Fingerprint::default();
        fp.collect(root);
        fp.predicates.sort();
        fp.filters.sort();
        fp.cuts.sort();
        fp.others.sort();
        fp
    }

    fn collect(&mut self, node: &SemNode) {
        match node {
            SemNode::Predicate { pred, .. } => self.predicates.push(format!("{pred:?}")),
            SemNode::SemFilter {
                columns,
                resolve,
                claim,
                early_stop,
                ..
            } => {
                // distinct/early_stop are the rewrite's degrees of
                // freedom; the judged claim and its columns are not.
                self.filters
                    .push(format!("{columns:?} resolve={resolve} {claim:?}"));
                if let Some(cut) = early_stop {
                    self.cuts.push(format!("{cut:?}"));
                }
            }
            SemNode::Cut { cut, .. } => self.cuts.push(format!("{cut:?}")),
            // A scan's label spells out what `lower_scans` folded into
            // it; the folded work is conserved as the work it was.
            SemNode::Scan {
                table,
                filters,
                cut,
                ..
            } => {
                self.others.push(format!("Scan {table}"));
                self.predicates
                    .extend(filters.iter().map(|pred| format!("{pred:?}")));
                self.cuts.extend(cut.iter().map(|cut| format!("{cut:?}")));
            }
            other => self.others.push(other.label()),
        }
        if let Some(input) = node.input() {
            self.collect(input);
        }
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
    before: &SemNode,
    after: &SemNode,
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

    check_postconditions(after, "0", opts, &mut diagnostics);
    check_lowering(
        after,
        "0",
        &SemReads::Columns(Vec::new()),
        catalog,
        &mut diagnostics,
    );

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

fn check_postconditions(
    node: &SemNode,
    path: &str,
    opts: &SemOptOptions,
    out: &mut Vec<Diagnostic>,
) {
    let mut diag = |code: &'static str, message: String| {
        out.push(Diagnostic {
            code,
            path: path.to_owned(),
            node: node.label(),
            message,
        });
    };
    match node {
        // Fused filters are always distinct, regardless of options:
        // fuse_precut is the only producer of early_stop and marks it.
        SemNode::SemFilter {
            distinct: false,
            early_stop: Some(_),
            ..
        } => diag(
            "fused-not-distinct",
            "fused early-stop filter not marked distinct".to_owned(),
        ),
        // Pushdown fixpoint: no exact predicate may sit directly on a
        // still-fusable (non-early-stop) semantic filter. A predicate
        // above an early-stop filter is legal — the fused cut does not
        // commute with filtering.
        SemNode::Predicate { input, .. }
            if opts.pushdown
                && matches!(
                    **input,
                    SemNode::SemFilter {
                        early_stop: None,
                        ..
                    }
                ) =>
        {
            diag(
                "pushdown-missed",
                "exact predicate left above a semantic filter".to_owned(),
            )
        }
        // Distinct rewrite marks every semantic filter.
        SemNode::SemFilter {
            distinct: false, ..
        } if opts.distinct_rewrite => diag(
            "distinct-missed",
            "semantic filter left judging row-wise".to_owned(),
        ),
        // Precut fixpoint: no cut may sit directly on a fusable filter.
        SemNode::Cut { input, .. }
            if opts.precut
                && matches!(
                    **input,
                    SemNode::SemFilter {
                        early_stop: None,
                        ..
                    }
                ) =>
        {
            diag(
                "precut-missed",
                "exact cut left above a fusable semantic filter".to_owned(),
            )
        }
        _ => {}
    }
    if let Some(input) = node.input() {
        check_postconditions(input, &format!("{path}/0"), opts, out);
    }
}

/// `lower_scans`' postcondition, top-down with the reads of the nodes
/// above (`above`; the plan's consumer is outside the plan and outside
/// this check). At each scan: a folded predicate must be one the engine
/// evaluates exactly as the frame kernel does (a finite `NumCmp` over
/// INTEGER or a wildcard-free `TextEq` over TEXT, where the catalog says
/// the type, over a column whose name `scan_sql` can quote and which has
/// no index: a B-tree answers in key order, the kernel keeps table
/// order), and a projection must keep
/// every column read above the scan: every candidate the table has, or,
/// when the table's columns are unknown, at least one candidate.
fn check_lowering(
    node: &SemNode,
    path: &str,
    above: &SemReads,
    catalog: Option<&Catalog>,
    out: &mut Vec<Diagnostic>,
) {
    let mut diag = |code: &'static str, message: String| {
        out.push(Diagnostic {
            code,
            path: path.to_owned(),
            node: node.label(),
            message,
        });
    };
    if let SemNode::Scan {
        table,
        columns,
        filters,
        ..
    } = node
    {
        let column_exact = |attr: &str, dtype: DataType| {
            !attr.contains('"')
                && live_column(catalog, table, attr).is_none_or(|(t, c)| {
                    t.schema().column(c).dtype == dtype && t.index_on(c).is_none()
                })
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
        if let Some(projected) = columns {
            let has =
                |cols: &[String], name: &str| cols.iter().any(|c| c.eq_ignore_ascii_case(name));
            match above {
                SemReads::All => diag(
                    "projection-missing",
                    "a node above reads every column of a projected scan".to_owned(),
                ),
                SemReads::Columns(reads) => {
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
            }
        }
    }
    let below = above.clone().and(node.reads());
    if let Some(input) = node.input() {
        check_lowering(input, &format!("{path}/0"), &below, catalog, out);
    }
}

/// Render a plan chain with per-node static bounds.
///
/// Output is deterministic: nodes root first, each line
/// `label  [stage]  (rows<=R lm<=C)` where `R` is the node's output-row
/// bound and `C` the node's *own* LM-call bound (its sub-plan's bound
/// minus its input's). Golden tests may diff this
/// byte-for-byte.
fn annotated_explain(root: &SemNode, catalog: Option<&Catalog>) -> String {
    let mut out = String::new();
    annotate_into(root, catalog, 0, &mut out);
    out
}

fn annotate_into(node: &SemNode, catalog: Option<&Catalog>, depth: usize, out: &mut String) {
    let bound = plan_cost(node, catalog);
    let input_calls = node
        .input()
        .map_or(0, |input| plan_cost(input, catalog).lm_calls);
    let own = bound.lm_calls.saturating_sub(input_calls);
    let _ = writeln!(
        out,
        "{}{}  [{}]  (rows<={} lm<={})",
        "  ".repeat(depth),
        node.label(),
        node.stage().as_str(),
        bound.out_rows,
        own
    );
    if let Some(input) = node.input() {
        annotate_into(input, catalog, depth + 1, out);
    }
}

/// Full `EXPLAIN VERIFY` report text for a compile → optimize pair:
/// plan verdict, rewrite verdict, the static LM-call bound (optimized
/// vs naive), and the annotated plan. Deterministic line order.
pub fn verify_report_text(
    naive: &SemNode,
    optimized: &SemNode,
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
    use crate::semplan::{CutSpec, GenFormat, RetrieveKind, SemClaimSpec};
    use crate::Database;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE schools (School TEXT, City TEXT, Longitude REAL)")
            .expect("create");
        db.execute("INSERT INTO schools VALUES ('Gunn', 'Palo Alto', -122.1)")
            .expect("insert");
        db
    }

    fn filter(input: SemNode, columns: &[&str]) -> SemNode {
        SemNode::SemFilter {
            input: Box::new(input),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            resolve: true,
            claim: SemClaimSpec::CityInRegion {
                region: "Silicon Valley".into(),
            },
            distinct: false,
            early_stop: None,
        }
    }

    fn scan() -> SemNode {
        SemNode::scan("schools")
    }

    #[test]
    fn well_formed_plan_passes() {
        let plan = SemNode::Cut {
            input: Box::new(filter(scan(), &["City", "city"])),
            cut: CutSpec {
                sort_by: "Longitude".into(),
                descending: true,
                k: 1,
            },
        };
        let report = verify_plan(&plan, Some(db().catalog()));
        assert!(report.is_ok(), "{}", report.render());
    }

    #[test]
    fn unknown_table_is_caught_with_a_catalog() {
        let plan = SemNode::scan("dragons");
        let report = verify_plan(&plan, Some(db().catalog()));
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, "unknown-table");
        // ... but skipped without one.
        assert!(verify_plan(&plan, None).is_ok());
    }

    #[test]
    fn missing_filter_column_is_caught() {
        let plan = filter(scan(), &["Town", "Municipality"]);
        let report = verify_plan(&plan, Some(db().catalog()));
        assert_eq!(report.diagnostics[0].code, "column-missing");
        assert_eq!(report.diagnostics[0].path, "0");
        // One level down the chain, the same filter's path is "0/0".
        let plan = SemNode::Generate {
            input: Box::new(filter(scan(), &["Town", "Municipality"])),
            request: "q".into(),
            format: GenFormat::Free,
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
        for plan in [
            filter(scan(), &["CITY"]),
            filter(SemNode::scan("SCHOOLS"), &["CITY"]),
        ] {
            let report = verify_plan(&plan, Some(db.catalog()));
            assert!(report.is_ok(), "{}", report.render());
        }
    }

    /// A folded predicate of the right type is still inexact over an
    /// indexed column (a B-tree answers in key order, the kernel keeps
    /// table order) or over a name `scan_sql` cannot quote. Lowering
    /// leaves both above the scan; a plan that folds them anyway fails.
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
            let naive = SemNode::Predicate {
                input: Box::new(SemNode::scan(table)),
                pred: pred.clone(),
            };
            let lowered = lower_scans(naive.clone(), db.catalog(), &SemReads::All);
            let folded = SemNode::Scan {
                table: table.into(),
                columns: None,
                filters: vec![pred],
                cut: None,
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
    fn exec_over_points_is_caught() {
        let plan = SemNode::Cut {
            input: Box::new(SemNode::Retrieve {
                query: "q".into(),
                k: 10,
                kind: RetrieveKind::Rows,
            }),
            cut: CutSpec {
                sort_by: "x".into(),
                descending: false,
                k: 5,
            },
        };
        let report = verify_plan(&plan, Some(db().catalog()));
        assert!(report.diagnostics.iter().any(|d| d.code == "points-input"));
    }

    #[test]
    fn gen_below_root_is_caught() {
        let plan = SemNode::Cut {
            input: Box::new(SemNode::Generate {
                input: Box::new(scan()),
                request: "q".into(),
                format: GenFormat::Free,
            }),
            cut: CutSpec {
                sort_by: "answer".into(),
                descending: false,
                k: 1,
            },
        };
        let report = verify_plan(&plan, Some(db().catalog()));
        let gen = report
            .diagnostics
            .iter()
            .find(|d| d.code == "gen-not-root")
            .expect("gen-not-root diagnostic");
        assert_eq!(gen.path, "0/0");
    }

    #[test]
    fn zero_k_cut_is_caught() {
        let plan = SemNode::Cut {
            input: Box::new(scan()),
            cut: CutSpec {
                sort_by: "Longitude".into(),
                descending: true,
                k: 0,
            },
        };
        let report = verify_plan(&plan, Some(db().catalog()));
        assert!(report.diagnostics.iter().any(|d| d.code == "empty-cut"));
    }

    #[test]
    fn rerank_over_table_rows_is_caught() {
        let plan = SemNode::Rerank {
            input: Box::new(scan()),
            query: "q".into(),
            keep: 5,
        };
        let report = verify_plan(&plan, Some(db().catalog()));
        assert!(report.diagnostics.iter().any(|d| d.code == "rerank-input"));
    }

    #[test]
    fn real_rewrite_passes_verify_rewrite() {
        let naive = SemNode::Cut {
            input: Box::new(filter(
                SemNode::Predicate {
                    input: Box::new(filter(scan(), &["City", "city"])),
                    pred: SemPredicate::NumCmp {
                        attr: "Longitude".into(),
                        over: false,
                        value: -120.0,
                    },
                },
                &["City", "city"],
            )),
            cut: CutSpec {
                sort_by: "Longitude".into(),
                descending: true,
                k: 1,
            },
        };
        let opts = SemOptOptions::all();
        let optimized = optimize_sem(naive.clone(), &opts);
        let db = db();
        let report = verify_rewrite(&naive, &optimized, &opts, Some(db.catalog()));
        assert!(report.is_ok(), "{}", report.render());
        assert!(verify_plan(&optimized, Some(db.catalog())).is_ok());
    }

    #[test]
    fn dropped_predicate_breaks_conservation() {
        let naive = SemNode::Predicate {
            input: Box::new(filter(scan(), &["City"])),
            pred: SemPredicate::TextEq {
                attr: "School".into(),
                value: "Gunn".into(),
            },
        };
        // A "rewrite" that silently drops the predicate.
        let broken = filter(scan(), &["City"]);
        let report = verify_rewrite(&naive, &broken, &SemOptOptions::none(), None);
        assert!(report.diagnostics.iter().any(|d| d.code == "conservation"));
    }

    #[test]
    fn annotated_explain_is_deterministic_and_ordered() {
        let plan = SemNode::Cut {
            input: Box::new(filter(scan(), &["City"])),
            cut: CutSpec {
                sort_by: "Longitude".into(),
                descending: true,
                k: 1,
            },
        };
        let db = db();
        let a = annotated_explain(&plan, Some(db.catalog()));
        let b = annotated_explain(&plan, Some(db.catalog()));
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        // Pre-order: root cut, then filter, then scan; each annotated.
        assert!(lines[0].starts_with("Cut "), "{a}");
        assert!(lines[1].trim_start().starts_with("SemFilter "), "{a}");
        assert!(lines[2].trim_start().starts_with("Scan "), "{a}");
        assert!(lines.iter().all(|l| l.contains("(rows<=")), "{a}");
    }
}
