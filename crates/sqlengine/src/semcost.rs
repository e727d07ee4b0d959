//! Static LM-cost bounds over semantic plans.
//!
//! [`plan_cost`] computes, from the IR and the catalog alone, an upper
//! bound on the number of LM prompts a plan can *submit*. The engine's
//! prompt cache can only reduce the calls that reach the LM, so the
//! bound also dominates `lm.calls()` actuals — which is exactly what
//! `trace-report` cross-checks against traces.
//!
//! The per-operator model mirrors `tag_semops::ops` (the bound is a
//! documented contract of that module; its tests and the CI cross-check
//! keep the two in sync):
//!
//! | node            | prompts submitted                    | output rows       |
//! |-----------------|--------------------------------------|-------------------|
//! | `Scan`          | 0                                    | catalog row count (min k with a folded cut) |
//! | `Input`         | 0                                    | `frame.len()`     |
//! | `Predicate`     | 0                                    | ≤ n               |
//! | `Cut`           | 0                                    | min(n, k)         |
//! | `SemFilter`     | ≤ n (row-wise, distinct, early-stop) | n / min(n, k)     |
//! | `SemTopK`       | ≤ C(n,2) + C(w,2), w = min(n, max(k, 20)) | min(n, k)    |
//! | `Retrieve`      | 0                                    | k                 |
//! | `Rerank`        | n (one relevance score each)         | min(n, keep)      |
//! | `Generate`      | 1 (list/free); ≤ 2n + 1 (free\|agg)  | 1                 |
//!
//! All row counts are themselves upper bounds, and every per-operator
//! bound is monotone in its input cardinality, so the composition is a
//! sound upper bound for the whole chain.

use crate::catalog::Catalog;
use crate::semplan::{GenFormat, SemNode};

/// Assumed base-table cardinality when there is no catalog, or it has no
/// such table (e.g. verification without a database).
const DEFAULT_SCAN_ROWS: u64 = 1000;

/// `sem_topk`'s Borda cutover (`tag_semops::ops::BORDA_LIMIT`): inputs
/// larger than this quickselect down to `max(k, 20)` before ranking.
const BORDA_LIMIT: u64 = 40;

/// A static upper bound on a sub-plan's LM cost and output size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostBound {
    /// Upper bound on LM prompts submitted by this sub-plan.
    pub lm_calls: u64,
    /// Upper bound on rows the sub-plan can produce.
    pub out_rows: u64,
}

/// Unordered pairs C(n, 2) — the pairwise-comparison prompt count.
fn pairs(n: u64) -> u64 {
    n.saturating_mul(n.saturating_sub(1)) / 2
}

/// Upper bound on `sem_topk` prompts for `n` input rows, keeping `k`.
///
/// `n ≤ 1` or `k == 0` short-circuits with no prompts. Otherwise the
/// quickselect pre-pass (taken when `n > BORDA_LIMIT` and `k < n`)
/// compares at most `pool − 1` pairs per round against the pivot, which
/// telescopes to at most C(n,2) in the worst case, and the Borda pass
/// ranks the kept `w = min(n, max(k, 20))` values exactly with C(w,2)
/// prompts. Small inputs skip quickselect and Borda-rank all n.
fn topk_call_bound(n: u64, k: u64) -> u64 {
    if n <= 1 || k == 0 {
        return 0;
    }
    let mut bound = pairs(n);
    if n > BORDA_LIMIT && k < n {
        let w = n.min(k.max(BORDA_LIMIT / 2));
        bound = bound.saturating_add(pairs(w));
    }
    bound
}

/// Prompt bound for a `Generate` node over `n` rows.
fn generate_call_bound(format: &GenFormat, n: u64) -> u64 {
    match format {
        // One prompt, which may fail on context overflow but is still
        // the only submission.
        GenFormat::List | GenFormat::Free => 1,
        // One prompt when the table fits the window, else the
        // hierarchical `sem_agg` fold: ≤ n chunk prompts across all
        // rounds of a halving recursion (≤ 2n total) plus the final
        // fold call.
        GenFormat::FreeOrAgg => n.saturating_mul(2).saturating_add(1).max(1),
    }
}

/// Compute the static LM-cost bound of a plan bottom-up.
///
/// `catalog` supplies base-table cardinalities; scans of tables it does
/// not have, or every scan without one, fall back to [`DEFAULT_SCAN_ROWS`].
pub fn plan_cost(root: &SemNode, catalog: Option<&Catalog>) -> CostBound {
    match root {
        SemNode::Scan { table, cut, .. } => {
            let rows = table_rows(catalog, table).map_or(DEFAULT_SCAN_ROWS, |n| n as u64);
            CostBound {
                lm_calls: 0,
                out_rows: cut.as_ref().map_or(rows, |cut| rows.min(cut.k as u64)),
            }
        }
        SemNode::Input { frame } => CostBound {
            lm_calls: 0,
            out_rows: frame.len() as u64,
        },
        SemNode::Predicate { input, .. } => plan_cost(input, catalog),
        SemNode::Cut { input, cut } => {
            let c = plan_cost(input, catalog);
            CostBound {
                lm_calls: c.lm_calls,
                out_rows: c.out_rows.min(cut.k as u64),
            }
        }
        SemNode::SemFilter {
            input, early_stop, ..
        } => {
            let c = plan_cost(input, catalog);
            // Row-wise judges every row; distinct judges every distinct
            // value (≤ n); early-stop judges distinct values in sorted
            // order until k survive (≤ n). All bounded by input rows.
            CostBound {
                lm_calls: c.lm_calls.saturating_add(c.out_rows),
                out_rows: match early_stop {
                    Some(cut) => c.out_rows.min(cut.k as u64),
                    None => c.out_rows,
                },
            }
        }
        SemNode::SemTopK { input, k, .. } => {
            let c = plan_cost(input, catalog);
            CostBound {
                lm_calls: c
                    .lm_calls
                    .saturating_add(topk_call_bound(c.out_rows, *k as u64)),
                out_rows: c.out_rows.min(*k as u64),
            }
        }
        SemNode::Retrieve { k, .. } => CostBound {
            lm_calls: 0,
            out_rows: *k as u64,
        },
        SemNode::Rerank { input, keep, .. } => {
            let c = plan_cost(input, catalog);
            CostBound {
                lm_calls: c.lm_calls.saturating_add(c.out_rows),
                out_rows: c.out_rows.min(*keep as u64),
            }
        }
        SemNode::Generate { input, format, .. } => {
            let c = plan_cost(input, catalog);
            CostBound {
                lm_calls: c
                    .lm_calls
                    .saturating_add(generate_call_bound(format, c.out_rows)),
                out_rows: 1,
            }
        }
    }
}

/// Row count of `table`, when there is a catalog and it has the table.
fn table_rows(catalog: Option<&Catalog>, table: &str) -> Option<usize> {
    Some(catalog?.table(table).ok()?.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semplan::{CutSpec, RetrieveKind, SemClaimSpec};

    fn scan() -> SemNode {
        SemNode::scan("t")
    }

    #[test]
    fn scan_without_schema_uses_default_cardinality() {
        let c = plan_cost(&scan(), None);
        assert_eq!(c.lm_calls, 0);
        assert_eq!(c.out_rows, DEFAULT_SCAN_ROWS);
    }

    #[test]
    fn filter_bound_is_input_rows() {
        let plan = SemNode::SemFilter {
            input: Box::new(scan()),
            columns: vec!["c".into()],
            resolve: true,
            claim: SemClaimSpec::EuCountry,
            distinct: true,
            early_stop: None,
        };
        assert_eq!(plan_cost(&plan, None).lm_calls, DEFAULT_SCAN_ROWS);
    }

    #[test]
    fn early_stop_cuts_output_not_call_bound() {
        let plan = SemNode::SemFilter {
            input: Box::new(scan()),
            columns: vec!["c".into()],
            resolve: true,
            claim: SemClaimSpec::EuCountry,
            distinct: true,
            early_stop: Some(CutSpec {
                sort_by: "rank".into(),
                descending: true,
                k: 3,
            }),
        };
        let c = plan_cost(&plan, None);
        assert_eq!(c.lm_calls, DEFAULT_SCAN_ROWS);
        assert_eq!(c.out_rows, 3);
    }

    #[test]
    fn topk_small_input_is_all_pairs() {
        // n=5, k=3: Borda over all 5 → C(5,2)=10, no quickselect.
        assert_eq!(topk_call_bound(5, 3), 10);
        assert_eq!(topk_call_bound(1, 3), 0);
        assert_eq!(topk_call_bound(5, 0), 0);
    }

    #[test]
    fn topk_large_input_adds_quickselect_then_borda() {
        // n=100, k=5: quickselect ≤ C(100,2), Borda over w=max(5,20)=20.
        assert_eq!(topk_call_bound(100, 5), 4950 + 190);
        // k ≥ n skips quickselect entirely.
        assert_eq!(topk_call_bound(100, 100), 4950);
    }

    #[test]
    fn rerank_pipeline_bound_matches_hand_count() {
        // Retrieve pool=30 → Rerank (30 prompts) → Generate list (1).
        let plan = SemNode::Generate {
            input: Box::new(SemNode::Rerank {
                input: Box::new(SemNode::Retrieve {
                    query: "q".into(),
                    k: 30,
                    kind: RetrieveKind::Candidates,
                }),
                query: "q".into(),
                keep: 10,
            }),
            request: "q".into(),
            format: GenFormat::List,
        };
        let c = plan_cost(&plan, None);
        assert_eq!(c.lm_calls, 31);
        assert_eq!(c.out_rows, 1);
    }
}
