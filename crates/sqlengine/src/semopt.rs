//! LM-call-minimizing rewrite rules over [`SemNode`] chains.
//!
//! Three rules, each of which provably preserves answers under the
//! runtime's guarantees (order-preserving filters, stable sorts, and
//! per-prompt-deterministic LM judgments):
//!
//! 1. **Predicate pushdown** — exact predicates sink below semantic
//!    filters so the LM judges fewer rows. Sound because both filter
//!    kinds preserve input order and keep/drop decisions are per-row,
//!    so filters commute.
//! 2. **Distinct-value rewrite** — semantic filters judge each distinct
//!    column value once instead of row-wise (the paper's Appendix C
//!    pattern, promoted from an ad-hoc code path to an optimizer rule).
//!    Sound because judgments are functions of the value alone.
//! 3. **Exact pre-cut** — a `Cut` (sort + head-k) directly above a
//!    semantic filter fuses into the filter as an early-stop spec: sort
//!    first, judge values in sorted order, stop once `k` rows survive.
//!    Sound because a stable sort of a filtered subset equals the
//!    filtered subset of the stably-sorted whole.
//!
//! After the rules, [`lower_scans`] (always on, no option) folds each
//! scan's relational prefix into the scan itself, so the engine runs it:
//! the predicates and the cut directly above the scan that the engine
//! evaluates exactly as the frame kernels do, and the projection to the
//! columns the plan and its consumer read. [`plan_sem`] is the two
//! steps together, checked by the verifier in debug builds.

use crate::catalog::Catalog;
use crate::schema::DataType;
use crate::semplan::{SemNode, SemPredicate, SemReads};

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

/// Apply the enabled rewrite rules to `node`, bottom-up.
pub fn optimize_sem(node: SemNode, opts: &SemOptOptions) -> SemNode {
    let node = map_input(node, &mut |input| optimize_sem(input, opts));
    let node = if opts.pushdown {
        sink_predicate(node)
    } else {
        node
    };
    let node = if opts.distinct_rewrite {
        mark_distinct(node)
    } else {
        node
    };
    if opts.precut {
        fuse_precut(node)
    } else {
        node
    }
}

/// Plan a compiled chain: apply the enabled rewrite rules, then lower the
/// scans against `catalog` for a consumer that reads `reads` off the
/// result. In debug builds the result is verified before it is
/// executed: the planned chain must be structurally
/// well-formed, the rewrite must preserve the naive plan's work
/// (conservation + per-rule and lowering postconditions), and the static
/// LM-call bound must not regress. A diagnostic here is a compiler bug,
/// so it panics rather than limping into execution; release builds skip
/// the sweep entirely.
///
/// Structure is checked schema-blind (no catalog): a handwritten plan
/// naming a missing table or column is *user* input, and must keep
/// surfacing as the executor's ordinary runtime error. Catalog-aware
/// diagnostics are the `EXPLAIN VERIFY` surface's job.
pub fn plan_sem(
    naive: SemNode,
    reads: &SemReads,
    opts: &SemOptOptions,
    catalog: &Catalog,
) -> SemNode {
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

/// Rebuild `node` with `f` applied to its input.
fn map_input(node: SemNode, f: &mut impl FnMut(SemNode) -> SemNode) -> SemNode {
    let mut opt = |b: Box<SemNode>| Box::new(f(*b));
    match node {
        leaf @ (SemNode::Scan { .. } | SemNode::Input { .. } | SemNode::Retrieve { .. }) => leaf,
        SemNode::Predicate { input, pred } => SemNode::Predicate {
            input: opt(input),
            pred,
        },
        SemNode::SemFilter {
            input,
            columns,
            resolve,
            claim,
            distinct,
            early_stop,
        } => SemNode::SemFilter {
            input: opt(input),
            columns,
            resolve,
            claim,
            distinct,
            early_stop,
        },
        SemNode::Cut { input, cut } => SemNode::Cut {
            input: opt(input),
            cut,
        },
        SemNode::SemTopK {
            input,
            on_attr,
            property,
            k,
        } => SemNode::SemTopK {
            input: opt(input),
            on_attr,
            property,
            k,
        },
        SemNode::Rerank { input, query, keep } => SemNode::Rerank {
            input: opt(input),
            query,
            keep,
        },
        SemNode::Generate {
            input,
            request,
            format,
        } => SemNode::Generate {
            input: opt(input),
            request,
            format,
        },
    }
}

/// Rule 1: `Predicate(SemFilter(X))` → `SemFilter(Predicate(X))`,
/// recursively, so the predicate sinks past every semantic filter in a
/// linear chain. Relative order among predicates and among semantic
/// filters is preserved (a stable partition). Early-stop filters are
/// left alone: their cut does not commute with filtering.
fn sink_predicate(node: SemNode) -> SemNode {
    match node {
        SemNode::Predicate { input, pred } => match *input {
            SemNode::SemFilter {
                input: inner,
                columns,
                resolve,
                claim,
                distinct,
                early_stop: None,
            } => SemNode::SemFilter {
                input: Box::new(sink_predicate(SemNode::Predicate { input: inner, pred })),
                columns,
                resolve,
                claim,
                distinct,
                early_stop: None,
            },
            other => SemNode::Predicate {
                input: Box::new(other),
                pred,
            },
        },
        other => other,
    }
}

/// Rule 2: semantic filters judge distinct values once.
fn mark_distinct(node: SemNode) -> SemNode {
    match node {
        SemNode::SemFilter {
            input,
            columns,
            resolve,
            claim,
            distinct: _,
            early_stop,
        } => SemNode::SemFilter {
            input,
            columns,
            resolve,
            claim,
            distinct: true,
            early_stop,
        },
        other => other,
    }
}

/// Rule 3: `Cut(SemFilter(X))` → `SemFilter(X) with early_stop`. The
/// fused filter judges distinct values in sorted order (so it implies
/// rule 2 for that node) and stops as soon as `k` rows survive.
fn fuse_precut(node: SemNode) -> SemNode {
    match node {
        SemNode::Cut { input, cut } => match *input {
            SemNode::SemFilter {
                input: inner,
                columns,
                resolve,
                claim,
                distinct: _,
                early_stop: None,
            } => SemNode::SemFilter {
                input: inner,
                columns,
                resolve,
                claim,
                distinct: true,
                early_stop: Some(cut),
            },
            other => SemNode::Cut {
                input: Box::new(other),
                cut,
            },
        },
        other => other,
    }
}

/// Fold each scan's relational prefix into the scan (see the module
/// docs), resolving names against `catalog`. `output` is what the plan's
/// consumer reads off the result frame. Always on: which plan shapes it
/// handles is decided by the plan and the catalog alone.
///
/// A scan is left as compiled wherever folding could change what the
/// plan returns or reports: a missing table, a name above the scan that
/// no column of the table answers to (the frame kernels then produce
/// their error over the full frame, as they always have), a predicate
/// the engine evaluates differently.
pub fn lower_scans(node: SemNode, catalog: &Catalog, output: &SemReads) -> SemNode {
    project_scans(fold_prefix(node, catalog), output, catalog)
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
///   the frame; it stays a frame node.
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

/// Bottom-up: `Predicate(Scan)` and `Cut(Scan)` become the scan, while
/// the scan has no cut yet (a predicate above a cut does not commute
/// with it).
fn fold_prefix(node: SemNode, catalog: &Catalog) -> SemNode {
    match map_input(node, &mut |input| fold_prefix(input, catalog)) {
        SemNode::Predicate { input, pred } => match *input {
            SemNode::Scan {
                table,
                columns: None,
                mut filters,
                cut: None,
            } if engine_evaluates(&pred, &table, catalog) => {
                filters.push(pred);
                SemNode::Scan {
                    table,
                    columns: None,
                    filters,
                    cut: None,
                }
            }
            other => SemNode::Predicate {
                input: Box::new(other),
                pred,
            },
        },
        SemNode::Cut { input, cut } => match *input {
            SemNode::Scan {
                table,
                columns: None,
                filters,
                cut: None,
            } if engine_cuts(&cut.sort_by, &table, catalog) => SemNode::Scan {
                table,
                columns: None,
                filters,
                cut: Some(cut),
            },
            other => SemNode::Cut {
                input: Box::new(other),
                cut,
            },
        },
        other => other,
    }
}

/// Top-down: each scan keeps the columns read above it (`above`: by its
/// ancestors and the consumer). What a folded predicate or cut reads,
/// the engine reads inside the scan.
fn project_scans(node: SemNode, above: &SemReads, catalog: &Catalog) -> SemNode {
    if let SemNode::Scan {
        table,
        columns: None,
        filters,
        cut,
    } = node
    {
        let columns = projection(&table, above, catalog);
        return SemNode::Scan {
            table,
            columns,
            filters,
            cut,
        };
    }
    let below = above.clone().and(node.reads());
    map_input(node, &mut |input| project_scans(input, &below, catalog))
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

    fn scan() -> SemNode {
        SemNode::scan("t")
    }

    fn sem_filter(input: SemNode) -> SemNode {
        SemNode::SemFilter {
            input: Box::new(input),
            columns: vec!["c".into()],
            resolve: true,
            claim: SemClaimSpec::EuCountry,
            distinct: false,
            early_stop: None,
        }
    }

    fn predicate(input: SemNode, attr: &str) -> SemNode {
        SemNode::Predicate {
            input: Box::new(input),
            pred: SemPredicate::TextEq {
                attr: attr.into(),
                value: "x".into(),
            },
        }
    }

    fn chain_labels(root: &SemNode) -> Vec<String> {
        let mut out = vec![root.label()];
        let mut cur = root;
        while let Some(input) = cur.input() {
            out.push(input.label());
            cur = input;
        }
        out
    }

    #[test]
    fn none_is_identity() {
        let plan = predicate(sem_filter(scan()), "a");
        assert_eq!(optimize_sem(plan.clone(), &SemOptOptions::none()), plan);
    }

    #[test]
    fn pushdown_sinks_predicates_below_sem_filters() {
        // Execution order (bottom-up): scan, sem_filter, pred(a), pred(b).
        let plan = predicate(predicate(sem_filter(scan()), "a"), "b");
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
        let plan = sem_filter(predicate(sem_filter(scan()), "a"));
        let opts = SemOptOptions {
            pushdown: false,
            distinct_rewrite: true,
            precut: false,
        };
        let optimized = optimize_sem(plan, &opts);
        fn all_distinct(node: &SemNode) -> bool {
            let here = !matches!(
                node,
                SemNode::SemFilter {
                    distinct: false,
                    ..
                }
            );
            here && node.input().is_none_or(all_distinct)
        }
        assert!(all_distinct(&optimized));
    }

    #[test]
    fn precut_fuses_cut_into_sem_filter() {
        let plan = SemNode::Cut {
            input: Box::new(sem_filter(scan())),
            cut: CutSpec {
                sort_by: "rank".into(),
                descending: true,
                k: 1,
            },
        };
        let opts = SemOptOptions {
            pushdown: false,
            distinct_rewrite: false,
            precut: true,
        };
        match optimize_sem(plan, &opts) {
            SemNode::SemFilter {
                distinct,
                early_stop: Some(cut),
                ..
            } => {
                assert!(distinct, "fusion implies distinct judging");
                assert_eq!(cut.sort_by, "rank");
                assert_eq!(cut.k, 1);
            }
            other => panic!("expected fused SemFilter, got {}", other.label()),
        }
    }

    #[test]
    fn all_rules_compose_on_a_superlative_chain() {
        // Compiled Superlative: Cut(k=1) over sem_filter over predicate
        // over sem_filter over scan.
        let plan = SemNode::Cut {
            input: Box::new(sem_filter(predicate(sem_filter(scan()), "a"))),
            cut: CutSpec {
                sort_by: "rank".into(),
                descending: true,
                k: 1,
            },
        };
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
