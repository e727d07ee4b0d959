//! The SemPlan verifier over every TAG-Bench plan under every rewrite-rule
//! combination: 80 questions × 8 [`SemOptOptions`] × 3 plan families
//! (hand-written TAG, RAG, rerank). Each planned plan (optimized, then
//! lowered: the plan that executes) must be well-formed
//! ([`verify_plan`]), a work-preserving rewrite of its naive plan
//! ([`verify_rewrite`]), and no higher in static LM-call bound
//! ([`plan_cost`]). Three seeded rewrite bugs must each be rejected, so a
//! sweep that can no longer catch a broken rewrite fails even if every
//! real plan passes.

use tag_bench::{Harness, QueryType};
use tag_core::{compile_nlq, compile_rag, compile_rerank, nlq_reads};
use tag_sql::{
    plan_cost, plan_sem, verify_plan, verify_rewrite, FrameSource, SemOptOptions, SemPlan,
    SemReads, SemStep,
};

/// All 8 rewrite-rule combinations.
fn all_opts() -> impl Iterator<Item = SemOptOptions> {
    (0..8u8).map(|bits| SemOptOptions {
        pushdown: bits & 4 != 0,
        distinct_rewrite: bits & 2 != 0,
        precut: bits & 1 != 0,
    })
}

/// A frame plan's source and steps; `None` for a point plan, which has
/// none of the work the mutations break.
fn frame_parts(plan: &mut SemPlan) -> Option<(&mut FrameSource, &mut Vec<SemStep>)> {
    match plan {
        SemPlan::Frame { source, steps, .. } => Some((source, steps)),
        SemPlan::Points { .. } => None,
    }
}

/// Clear a fused early-stop filter's distinct flag, the first root
/// first: the bug `fuse_precut` would have if it forgot the dedup
/// obligation.
fn break_fused_distinct(plan: &mut SemPlan) -> bool {
    let Some((_, steps)) = frame_parts(plan) else {
        return false;
    };
    steps.iter_mut().rev().any(|step| match step {
        SemStep::SemFilter {
            distinct,
            early_stop: Some(_),
            ..
        } => {
            *distinct = false;
            true
        }
        _ => false,
    })
}

/// Splice the first predicate, root first, out of the plan, or out of
/// the scan it was folded into: a pushdown or lowering that loses the
/// filter it moved.
fn break_drop_predicate(plan: &mut SemPlan) -> bool {
    let Some((source, steps)) = frame_parts(plan) else {
        return false;
    };
    let last = steps
        .iter()
        .rposition(|step| matches!(step, SemStep::Predicate { .. }));
    if let Some(at) = last {
        steps.remove(at);
        return true;
    }
    match source {
        FrameSource::Scan { filters, .. } => filters.pop().is_some(),
        FrameSource::Input { .. } => false,
    }
}

/// Narrow a projected scan below what the plan's root reads of it: a
/// lowering that forgets a reader.
fn break_drop_projected(plan: &mut SemPlan) -> bool {
    let Some(SemReads::Columns(reads)) = plan.ops().last().map(|root| root.reads()) else {
        return false;
    };
    let read = |c: &String| reads.iter().flatten().any(|r| r.eq_ignore_ascii_case(c));
    match frame_parts(plan) {
        Some((
            FrameSource::Scan {
                columns: Some(cols),
                ..
            },
            _,
        )) => {
            let before = cols.len();
            cols.retain(|c| !read(c));
            cols.len() < before
        }
        _ => false,
    }
}

#[test]
fn every_benchmark_plan_verifies_under_every_rule_combination() {
    let harness = Harness::small();
    let mut plans = 0;
    let mut failures = Vec::new();
    for q in harness.queries() {
        let catalog = harness.env(q.domain).db.catalog();
        let question = q.question();
        let list = q.qtype != QueryType::Aggregation;
        let rerank = compile_rerank(&question, 30, 10, list);
        let families = [
            ("handwritten", compile_nlq(&q.query), nlq_reads(&q.query)),
            ("rag", compile_rag(&question, 10, list), SemReads::All),
            ("rerank", rerank, SemReads::All),
        ];
        for opts in all_opts() {
            for (family, naive, reads) in &families {
                plans += 1;
                let planned = plan_sem(naive.clone(), reads, &opts, catalog);
                let plan = verify_plan(&planned, Some(catalog));
                let rewrite = verify_rewrite(naive, &planned, &opts, Some(catalog));
                let bound = plan_cost(&planned, Some(catalog)).lm_calls;
                let naive_bound = plan_cost(naive, Some(catalog)).lm_calls;
                if !plan.is_ok() || !rewrite.is_ok() || bound > naive_bound {
                    failures.push(format!(
                        "query {} ({family}, rules={}): LM-call bound {naive_bound} -> {bound}\n{}{}",
                        q.id,
                        opts.cache_tag(),
                        plan.render(),
                        rewrite.render()
                    ));
                }
            }
        }
    }
    assert_eq!(
        plans, 1920,
        "80 questions x 8 rule combinations x 3 plan families"
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A seeded rewrite bug: mutate a planned plan in place, or return false
/// when the plan has nothing it applies to.
type Mutation = fn(&mut SemPlan) -> bool;

#[test]
fn the_verifier_catches_each_seeded_mutation() {
    let harness = Harness::small();
    let opts = SemOptOptions::default();
    let mutations: [(&str, Mutation); 3] = [
        ("fused-not-distinct", break_fused_distinct),
        ("dropped predicate", break_drop_predicate),
        ("dropped projected column", break_drop_projected),
    ];
    let mut caught = 0;
    let mut escaped = Vec::new();
    for (name, mutate) in mutations {
        // The first benchmark plan, as planned under the default rules,
        // that the mutation applies to.
        let (q, naive, mutant) = harness
            .queries()
            .iter()
            .find_map(|q| {
                let naive = compile_nlq(&q.query);
                let catalog = harness.env(q.domain).db.catalog();
                let mut plan = plan_sem(naive.clone(), &nlq_reads(&q.query), &opts, catalog);
                mutate(&mut plan).then_some((q, naive, plan))
            })
            .unwrap_or_else(|| panic!("no benchmark plan to apply {name} to"));
        let catalog = Some(harness.env(q.domain).db.catalog());
        if verify_plan(&mutant, catalog).is_ok()
            && verify_rewrite(&naive, &mutant, &opts, catalog).is_ok()
        {
            escaped.push(format!("{name} on query {}", q.id));
        } else {
            caught += 1;
        }
    }
    assert_eq!(caught, 3, "mutations escaped the verifier: {escaped:?}");
}
