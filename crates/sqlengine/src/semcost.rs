//! Static LM-cost bounds over semantic plans.
//!
//! [`plan_cost`] computes, from the IR and the catalog alone, an upper
//! bound on the number of LM prompts a plan can *submit*: one fold over
//! the chain, source first, whose per-operator bounds (`plan_bounds`)
//! `EXPLAIN VERIFY` prints beside each operator. The engine's
//! prompt cache can only reduce the calls that reach the LM, so the
//! bound also dominates `lm.calls()` actuals — which is exactly what
//! `trace-report` cross-checks against traces.
//!
//! The per-operator model mirrors `tag_semops::ops` (the bound is a
//! documented contract of that module; its tests and the CI cross-check
//! keep the two in sync):
//!
//! | operator        | prompts submitted                    | output rows       |
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
//! bound is monotone in its input cardinality, so the fold over the
//! chain, source first, is a sound upper bound at every operator.

use crate::catalog::Catalog;
use crate::semplan::{FrameSource, GenFormat, SemOp, SemPlan, SemStep};

/// Assumed base-table cardinality when there is no catalog, or it has no
/// such table (e.g. verification without a database).
const DEFAULT_SCAN_ROWS: u64 = 1000;

/// `sem_topk`'s Borda cutover (`tag_semops::ops::BORDA_LIMIT`): inputs
/// larger than this quickselect down to `max(k, 20)` before ranking.
const BORDA_LIMIT: u64 = 40;

/// A static upper bound on a plan prefix's LM cost and output size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostBound {
    /// Upper bound on LM prompts submitted up to and including this
    /// operator.
    pub lm_calls: u64,
    /// Upper bound on rows the operator can produce.
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

/// Prompt bound for a `Generate` over `n` rows.
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

/// The static bounds of a plan, one per operator of [`SemPlan::ops`]
/// (source first): the LM prompts submitted up to and including the
/// operator, and the rows it produces.
///
/// `catalog` supplies base-table cardinalities; scans of tables it does
/// not have, or every scan without one, fall back to [`DEFAULT_SCAN_ROWS`].
pub(crate) fn plan_bounds(plan: &SemPlan, catalog: Option<&Catalog>) -> Vec<CostBound> {
    let mut bounds: Vec<CostBound> = Vec::new();
    for op in plan.ops() {
        let input = bounds.last().copied().unwrap_or_default();
        let n = input.out_rows;
        let (own_calls, out_rows) = match op {
            SemOp::Source(FrameSource::Scan { table, cut, .. }) => {
                let rows = table_rows(catalog, table).map_or(DEFAULT_SCAN_ROWS, |n| n as u64);
                (0, cut.as_ref().map_or(rows, |cut| rows.min(cut.k as u64)))
            }
            SemOp::Source(FrameSource::Input { frame }) => (0, frame.len() as u64),
            SemOp::Step(SemStep::Predicate { .. }) => (0, n),
            SemOp::Step(SemStep::Cut { cut }) => (0, n.min(cut.k as u64)),
            // Row-wise judges every row; distinct judges every distinct
            // value (≤ n); early-stop judges distinct values in sorted
            // order until k survive (≤ n). All bounded by input rows.
            SemOp::Step(SemStep::SemFilter { early_stop, .. }) => {
                (n, early_stop.as_ref().map_or(n, |cut| n.min(cut.k as u64)))
            }
            SemOp::Step(SemStep::SemTopK { k, .. }) => {
                (topk_call_bound(n, *k as u64), n.min(*k as u64))
            }
            SemOp::Retrieve(retrieve) => (0, retrieve.k as u64),
            SemOp::Rerank(rerank) => (n, n.min(rerank.keep as u64)),
            SemOp::Generate(gen) => (generate_call_bound(&gen.format, n), 1),
        };
        bounds.push(CostBound {
            lm_calls: input.lm_calls.saturating_add(own_calls),
            out_rows,
        });
    }
    bounds
}

/// The static LM-cost bound of a whole plan: [`plan_bounds`] at its root.
pub fn plan_cost(plan: &SemPlan, catalog: Option<&Catalog>) -> CostBound {
    let bounds = plan_bounds(plan, catalog);
    bounds.last().copied().unwrap_or_default()
}

/// Row count of `table`, when there is a catalog and it has the table.
fn table_rows(catalog: Option<&Catalog>, table: &str) -> Option<usize> {
    Some(catalog?.table(table).ok()?.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semplan::{CutSpec, Generate, Rerank, Retrieve, RetrieveKind, SemClaimSpec};

    fn over_scan(steps: Vec<SemStep>) -> SemPlan {
        SemPlan::Frame {
            source: FrameSource::scan("t"),
            steps,
            gen: None,
        }
    }

    fn filter(early_stop: Option<CutSpec>) -> SemStep {
        SemStep::SemFilter {
            columns: vec!["c".into()],
            resolve: true,
            claim: SemClaimSpec::EuCountry,
            distinct: true,
            early_stop,
        }
    }

    #[test]
    fn scan_without_schema_uses_default_cardinality() {
        let c = plan_cost(&over_scan(Vec::new()), None);
        assert_eq!(c.lm_calls, 0);
        assert_eq!(c.out_rows, DEFAULT_SCAN_ROWS);
    }

    #[test]
    fn filter_bound_is_input_rows() {
        let plan = over_scan(vec![filter(None)]);
        assert_eq!(plan_cost(&plan, None).lm_calls, DEFAULT_SCAN_ROWS);
    }

    #[test]
    fn early_stop_cuts_output_not_call_bound() {
        let plan = over_scan(vec![filter(Some(CutSpec {
            sort_by: "rank".into(),
            descending: true,
            k: 3,
        }))]);
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
        let bounds = plan_bounds(&plan, None);
        let calls: Vec<u64> = bounds.iter().map(|b| b.lm_calls).collect();
        let rows: Vec<u64> = bounds.iter().map(|b| b.out_rows).collect();
        assert_eq!((calls, rows), (vec![0, 30, 31], vec![30, 10, 1]));
        assert_eq!(plan_cost(&plan, None), bounds[2]);
    }
}
