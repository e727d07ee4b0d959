//! LM-call-minimizing rewrite rules over the steps of a [`SemPlan`].
//!
//! Three rules, each of which provably preserves answers under the
//! runtime's guarantees (order-preserving filters, stable sorts, and
//! per-prompt-deterministic LM judgments). Each is an edit of the step
//! slice, applied as the steps are taken in execution order:
//!
//! 1. **Predicate pushdown** — an exact predicate swaps with the semantic
//!    filter before it, as long as there is one, so the LM judges fewer
//!    rows. Sound because both filter kinds preserve input order and
//!    keep/drop decisions are per-row, so filters commute.
//! 2. **Distinct-value rewrite** — semantic filters are marked to judge
//!    each distinct column value once instead of row-wise (the paper's
//!    Appendix C pattern, promoted from an ad-hoc code path to an
//!    optimizer rule). Sound because judgments are functions of the value
//!    alone.
//! 3. **Exact pre-cut** — a `Cut` (sort + head-k) right after a semantic
//!    filter fuses into the filter as an early-stop spec: sort first,
//!    judge values in sorted order, stop once `k` rows survive. Sound
//!    because a stable sort of a filtered subset equals the filtered
//!    subset of the stably-sorted whole.
//!
//! After the rules, [`lower_scans`] (always on, no option) folds the
//! scan's relational prefix into the scan itself, so the engine runs it:
//! the leading predicates and cut that the engine evaluates exactly as
//! the frame kernels do, and the projection to the columns the plan and
//! its consumer read. [`plan_sem`] is the two steps together, checked by
//! the verifier in debug builds.

use crate::catalog::Catalog;
use crate::schema::DataType;
use crate::semplan::{FrameSource, SemOp, SemPlan, SemPredicate, SemReads, SemStep};

/// Which SemPlan rewrite rules are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemOptOptions {
    /// Sink exact predicates below semantic filters.
    pub pushdown: bool,
    /// Judge distinct values instead of rows in semantic filters.
    pub distinct_rewrite: bool,
    /// Fuse an exact sort+cut into the semantic filter below it.
    pub precut: bool,
}

impl Default for SemOptOptions {
    fn default() -> Self {
        SemOptOptions::all()
    }
}

impl SemOptOptions {
    /// Every rule enabled (the default).
    pub fn all() -> Self {
        SemOptOptions {
            pushdown: true,
            distinct_rewrite: true,
            precut: true,
        }
    }

    /// No rules — plans execute exactly as compiled.
    pub fn none() -> Self {
        SemOptOptions {
            pushdown: false,
            distinct_rewrite: false,
            precut: false,
        }
    }

    /// Compact tag naming the rule set, as the verifier sweep
    /// (`crates/bench/tests/verify_sweep.rs`) and diagnostics print it.
    pub fn cache_tag(&self) -> String {
        format!(
            "p{}d{}c{}",
            self.pushdown as u8, self.distinct_rewrite as u8, self.precut as u8
        )
    }
}

/// Apply the enabled rewrite rules to a frame plan's steps (a point plan
/// has none to rewrite).
pub fn optimize_sem(mut plan: SemPlan, opts: &SemOptOptions) -> SemPlan {
    let SemPlan::Frame { steps, .. } = &mut plan else {
        return plan;
    };
    let mut out: Vec<SemStep> = Vec::with_capacity(steps.len());
    for step in steps.drain(..) {
        out.push(step);
        match out.last_mut() {
            Some(SemStep::Predicate { .. }) if opts.pushdown => sink_predicate(&mut out),
            Some(SemStep::SemFilter { distinct, .. }) if opts.distinct_rewrite => *distinct = true,
            Some(SemStep::Cut { .. }) if opts.precut => fuse_precut(&mut out),
            _ => {}
        }
    }
    *steps = out;
    plan
}

/// Plan a compiled chain: apply the enabled rewrite rules, then lower the
/// scan against `catalog` for a consumer that reads `reads` off the
/// result. In debug builds the result is verified before it is
/// executed: the planned chain must be well-formed, the rewrite must
/// preserve the naive plan's work (conservation + per-rule and lowering
/// postconditions), and the static LM-call bound must not regress. A
/// diagnostic here is a compiler bug, so it panics rather than limping
/// into execution; release builds skip the sweep entirely.
///
/// Structure is checked schema-blind (no catalog): a handwritten plan
/// naming a missing table or column is *user* input, and must keep
/// surfacing as the executor's ordinary runtime error. Catalog-aware
/// diagnostics are the `EXPLAIN VERIFY` surface's job.
pub fn plan_sem(
    naive: SemPlan,
    reads: &SemReads,
    opts: &SemOptOptions,
    catalog: &Catalog,
) -> SemPlan {
    #[cfg(debug_assertions)]
    let before = naive.clone();
    let planned = lower_scans(optimize_sem(naive, opts), catalog, reads);
    #[cfg(debug_assertions)]
    {
        let plan = crate::verify_plan(&planned, None);
        let rewrite = crate::verify_rewrite(&before, &planned, opts, None);
        if !plan.is_ok() || !rewrite.is_ok() {
            panic!(
                "planning produced an invalid plan (rules={}):\n{}{}plan:\n{}",
                opts.cache_tag(),
                plan.render(),
                rewrite.render(),
                planned.explain()
            );
        }
    }
    planned
}

/// A semantic filter the rules may still move a predicate past or fuse a
/// cut into: one without a fused cut.
fn fusable(step: &SemStep) -> bool {
    matches!(
        step,
        SemStep::SemFilter {
            early_stop: None,
            ..
        }
    )
}

/// Rule 1: the predicate just taken (the last step) swaps with its
/// neighbour while that is a fusable semantic filter. Relative order
/// among predicates and among semantic filters is preserved (a stable
/// partition). Early-stop filters stop it: their cut does not commute
/// with filtering.
fn sink_predicate(steps: &mut [SemStep]) {
    let mut at = steps.len() - 1;
    while at > 0 && fusable(&steps[at - 1]) {
        steps.swap(at - 1, at);
        at -= 1;
    }
}

/// Rule 3: the cut just taken (the last step) fuses into the fusable
/// semantic filter before it. The fused filter judges distinct values in
/// sorted order (so it implies rule 2 for that filter) and stops as soon
/// as `k` rows survive.
fn fuse_precut(steps: &mut Vec<SemStep>) {
    let [.., filter, SemStep::Cut { cut }] = steps.as_mut_slice() else {
        return;
    };
    let SemStep::SemFilter {
        distinct,
        early_stop: early_stop @ None,
        ..
    } = filter
    else {
        return;
    };
    *distinct = true;
    *early_stop = Some(cut.clone());
    steps.pop();
}

/// Fold the scan's relational prefix into the scan (see the module
/// docs), resolving names against `catalog`. `output` is what the plan's
/// consumer reads off the result frame. Always on: which plan shapes it
/// handles is decided by the plan and the catalog alone.
///
/// A step is left as compiled wherever folding could change what the
/// plan returns or reports: a missing table, a name that no column of the
/// table answers to (the frame kernels then produce their error over the
/// full frame, as they always have), a predicate the engine evaluates
/// differently, or anything after a step that does not fold.
pub fn lower_scans(mut plan: SemPlan, catalog: &Catalog, output: &SemReads) -> SemPlan {
    let SemPlan::Frame {
        source:
            FrameSource::Scan {
                table,
                columns: columns @ None,
                filters,
                cut,
            },
        steps,
        gen,
    } = &mut plan
    else {
        return plan;
    };
    // `Predicate` and `Cut` steps fold in order while the scan has no cut
    // yet (a predicate after a cut does not commute with it).
    let mut folded = 0;
    for step in steps.iter() {
        match step {
            SemStep::Predicate { pred }
                if cut.is_none() && engine_evaluates(pred, table, catalog) =>
            {
                filters.push(pred.clone())
            }
            SemStep::Cut { cut: by }
                if cut.is_none() && engine_cuts(&by.sort_by, table, catalog) =>
            {
                *cut = Some(by.clone())
            }
            _ => break,
        }
        folded += 1;
    }
    steps.drain(..folded);
    // The scan keeps the columns read above it, root first: by the
    // consumer and every operator of the chain. What a folded predicate
    // or cut reads, the engine reads inside the scan.
    let above = gen.iter().map(SemOp::Generate);
    let above = above.chain(steps.iter().rev().map(SemOp::Step));
    let above = above.fold(output.clone(), |reads, op| reads.and(op.reads()));
    *columns = projection(table, &above, catalog);
    plan
}

/// True when `SELECT … WHERE <pred>` keeps exactly the rows, in the
/// order, that the frame kernel for `pred` keeps of `table`'s rows.
/// Decided from the declared column type, which inserts coerce to: a
/// column holds NULL or the one variant it declares.
///
/// - `NumCmp` over INTEGER: both sides compare `i as f64` with the
///   constant and drop NULL. Not over REAL (a cell may be NaN or `-0.0`,
///   which `Value::total_cmp` orders and IEEE `<`/`>` do not) nor over
///   TEXT (the engine ranks text above every number, the kernel drops
///   it).
/// - `TextEq` over TEXT: the kernel is ASCII-case-insensitive equality,
///   which is `LIKE` with no wildcard in the pattern (the engine's `=`
///   is exact and its `LOWER` is Unicode). Not over INTEGER/REAL, where
///   the kernel falls back to IEEE `==` on the parsed constant.
/// - `TextEqAny` names its column by a candidate list resolved against
///   the frame; it stays a frame step.
/// - Not over an indexed column: the engine may answer it from the
///   B-tree in key order, and the kernel keeps table order.
fn engine_evaluates(pred: &SemPredicate, table: &str, catalog: &Catalog) -> bool {
    let (attr, dtype, constant_ok) = match pred {
        SemPredicate::NumCmp { attr, value, .. } => (attr, DataType::Integer, value.is_finite()),
        SemPredicate::TextEq { attr, value } => {
            (attr, DataType::Text, !value.contains(LIKE_WILDCARDS))
        }
        SemPredicate::TextEqAny { .. } => return false,
    };
    let Ok(table) = catalog.table(table) else {
        return false;
    };
    let Some(col) = table.schema().index_of(attr) else {
        return false;
    };
    constant_ok
        && quotable(attr)
        && table.schema().column(col).dtype == dtype
        && table.index_on(col).is_none()
}

/// The characters `LIKE` does not match literally.
pub(crate) const LIKE_WILDCARDS: [char; 2] = ['%', '_'];

/// Both sides sort by `Value::total_cmp` with a stable tiebreak, so a
/// cut folds whenever its key is a column of the table.
fn engine_cuts(sort_by: &str, table: &str, catalog: &Catalog) -> bool {
    quotable(sort_by)
        && catalog
            .table(table)
            .is_ok_and(|t| t.schema().index_of(sort_by).is_some())
}

/// `scan_sql` double-quotes identifiers and has no escape for a quote.
fn quotable(name: &str) -> bool {
    !name.contains('"')
}

/// The columns of `table` that `reads` names, in table order with the
/// catalog's spelling; `None` (every column) when that is what is read
/// or when a read resolves to no column. Every candidate the table has
/// is kept, so "first candidate the frame has" picks the same column.
fn projection(table: &str, reads: &SemReads, catalog: &Catalog) -> Option<Vec<String>> {
    let SemReads::Columns(reads) = reads else {
        return None;
    };
    let schema = catalog.table(table).ok()?.schema();
    let mut keep = vec![false; schema.len()];
    for candidates in reads {
        let mut resolved = false;
        for name in candidates {
            if let Some(i) = schema.index_of(name) {
                keep[i] = true;
                resolved = true;
            }
        }
        if !resolved {
            return None;
        }
    }
    // A consumer that only counts rows still needs rows.
    if !keep.contains(&true) {
        *keep.first_mut()? = true;
    }
    let names: Vec<String> = schema
        .columns()
        .iter()
        .zip(&keep)
        .filter(|(_, keep)| **keep)
        .map(|(c, _)| c.name.clone())
        .collect();
    (names.len() < schema.len() && names.iter().all(|n| quotable(n))).then_some(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semplan::{CutSpec, SemClaimSpec, SemPredicate};

    fn over_scan(steps: Vec<SemStep>) -> SemPlan {
        SemPlan::Frame {
            source: FrameSource::scan("t"),
            steps,
            gen: None,
        }
    }

    fn sem_filter() -> SemStep {
        SemStep::SemFilter {
            columns: vec!["c".into()],
            resolve: true,
            claim: SemClaimSpec::EuCountry,
            distinct: false,
            early_stop: None,
        }
    }

    fn predicate(attr: &str) -> SemStep {
        SemStep::Predicate {
            pred: SemPredicate::TextEq {
                attr: attr.into(),
                value: "x".into(),
            },
        }
    }

    fn cut() -> SemStep {
        SemStep::Cut {
            cut: CutSpec {
                sort_by: "rank".into(),
                descending: true,
                k: 1,
            },
        }
    }

    /// The plan's labels, root first, as EXPLAIN lists them.
    fn chain_labels(plan: &SemPlan) -> Vec<String> {
        plan.ops().iter().rev().map(|op| op.label()).collect()
    }

    #[test]
    fn none_is_identity() {
        let plan = over_scan(vec![sem_filter(), predicate("a")]);
        assert_eq!(optimize_sem(plan.clone(), &SemOptOptions::none()), plan);
    }

    #[test]
    fn pushdown_sinks_predicates_below_sem_filters() {
        // Execution order: scan, sem_filter, pred(a), pred(b).
        let plan = over_scan(vec![sem_filter(), predicate("a"), predicate("b")]);
        let opts = SemOptOptions {
            pushdown: true,
            distinct_rewrite: false,
            precut: false,
        };
        let labels = chain_labels(&optimize_sem(plan, &opts));
        // Predicates now run first, keeping their relative order.
        assert_eq!(
            labels,
            vec![
                "SemFilter c [EU country]",
                "Predicate b = 'x'",
                "Predicate a = 'x'",
                "Scan t",
            ],
            "predicates sank below the semantic filter"
        );
    }

    #[test]
    fn distinct_rewrite_marks_every_sem_filter() {
        let plan = over_scan(vec![sem_filter(), predicate("a"), sem_filter()]);
        let opts = SemOptOptions {
            pushdown: false,
            distinct_rewrite: true,
            precut: false,
        };
        let SemPlan::Frame { steps, .. } = optimize_sem(plan, &opts) else {
            panic!("a frame plan stays one");
        };
        assert!(steps.iter().all(|step| !matches!(
            step,
            SemStep::SemFilter {
                distinct: false,
                ..
            }
        )));
    }

    #[test]
    fn precut_fuses_cut_into_sem_filter() {
        let opts = SemOptOptions {
            pushdown: false,
            distinct_rewrite: false,
            precut: true,
        };
        let SemPlan::Frame { steps, .. } =
            optimize_sem(over_scan(vec![sem_filter(), cut()]), &opts)
        else {
            panic!("a frame plan stays one");
        };
        match steps.as_slice() {
            [SemStep::SemFilter {
                distinct,
                early_stop: Some(cut),
                ..
            }] => {
                assert!(distinct, "fusion implies distinct judging");
                assert_eq!(cut.sort_by, "rank");
                assert_eq!(cut.k, 1);
            }
            other => panic!("expected one fused SemFilter, got {other:?}"),
        }
    }

    #[test]
    fn all_rules_compose_on_a_superlative_chain() {
        // Compiled Superlative: scan, sem_filter, predicate, sem_filter,
        // Cut(k=1).
        let plan = over_scan(vec![sem_filter(), predicate("a"), sem_filter(), cut()]);
        let optimized = optimize_sem(plan, &SemOptOptions::all());
        let labels = chain_labels(&optimized);
        assert_eq!(
            labels,
            vec![
                "SemFilter c [EU country] distinct early_stop(sort=rank desc k=1)",
                "SemFilter c [EU country] distinct",
                "Predicate a = 'x'",
                "Scan t",
            ],
            "cut fused into top filter, predicate sank to the bottom"
        );
    }

    #[test]
    fn cache_tags_distinguish_rule_sets() {
        assert_eq!(SemOptOptions::all().cache_tag(), "p1d1c1");
        assert_eq!(SemOptOptions::none().cache_tag(), "p0d0c0");
        assert_ne!(
            SemOptOptions::all().cache_tag(),
            SemOptOptions::none().cache_tag()
        );
    }
}
