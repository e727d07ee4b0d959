//! Property-based tests: over randomized well-formed semantic plans,
//! `optimize_sem` must always produce a plan the verifier accepts, the
//! rewrite checker must accept every (naive, optimized) pair under
//! every rule combination, and the static LM-call bound must never be
//! raised by optimization.
//!
//! Plans are grown from a vector of random words: a frame source (scan
//! or input), a chain of exec-stage steps, and an optional generation;
//! or a retrieval, an optional rerank, and a generation — the same
//! shapes the compilers in `tag-core` emit, but with arbitrary steps,
//! columns, and constants.

use proptest::prelude::*;
use tag_sql::{
    optimize_sem, plan_cost, verify_plan, verify_rewrite, CutSpec, FrameSource, GenFormat,
    Generate, Rerank, Retrieve, RetrieveKind, SemClaimSpec, SemFrame, SemOptOptions, SemPlan,
    SemPredicate, SemStep, Value,
};

/// All 8 rewrite-rule combinations.
fn all_opts() -> Vec<SemOptOptions> {
    let mut out = Vec::new();
    for pushdown in [false, true] {
        for distinct_rewrite in [false, true] {
            for precut in [false, true] {
                out.push(SemOptOptions {
                    pushdown,
                    distinct_rewrite,
                    precut,
                });
            }
        }
    }
    out
}

fn col(w: u64) -> String {
    ["City", "School", "Circuit", "name", "revenue"][(w % 5) as usize].to_owned()
}

fn claim(w: u64) -> SemClaimSpec {
    match w % 4 {
        0 => SemClaimSpec::CityInRegion {
            region: "Bay Area".into(),
        },
        1 => SemClaimSpec::EuCountry,
        2 => SemClaimSpec::ClassicMovie,
        _ => SemClaimSpec::Property {
            word: "positive".into(),
        },
    }
}

fn cut(w: u64) -> CutSpec {
    CutSpec {
        sort_by: col(w / 7),
        descending: w.is_multiple_of(2),
        k: 1 + (w % 9) as usize,
    }
}

/// A frame source: scan or materialized rows.
fn frame_source(w: u64) -> FrameSource {
    if w.is_multiple_of(3) {
        FrameSource::Input {
            frame: SemFrame::from_rows(
                vec![col(w / 3), col(w / 5 + 1)],
                (0..(w % 13)).map(|i| [Value::Text(format!("r{i}")), Value::Float(i as f64)]),
            ),
        }
    } else {
        FrameSource::scan("schools")
    }
}

/// One exec-stage step, picked by `w`.
fn exec_step(w: u64) -> SemStep {
    match w % 5 {
        0 => SemStep::Predicate {
            pred: SemPredicate::NumCmp {
                attr: col(w / 6),
                over: w.is_multiple_of(2),
                value: (w % 100) as f64,
            },
        },
        1 => SemStep::Predicate {
            pred: SemPredicate::TextEqAny {
                columns: vec![col(w / 6), col(w / 11 + 2)],
                value: "Fresno".into(),
            },
        },
        2 => SemStep::SemFilter {
            columns: vec![col(w / 6), col(w / 11 + 1)],
            resolve: w.is_multiple_of(2),
            claim: claim(w / 13),
            distinct: false,
            early_stop: None,
        },
        3 => SemStep::Cut { cut: cut(w / 6) },
        // `w % 5` is 4 here, so k draws from `w / 5`.
        _ => SemStep::SemTopK {
            on_attr: col(w / 6),
            property: "memorable".into(),
            k: 1 + (w / 5 % 5) as usize,
        },
    }
}

/// Grow one naive plan from random words: source, steps, and an optional
/// generation; one word in three instead picks a retrieval pipeline (the
/// RAG / rerank shapes).
fn build_plan(words: &[u64]) -> SemPlan {
    let first = words.first().copied().unwrap_or(0);
    let gen = |format| Generate {
        request: "the question".into(),
        format,
    };
    if first % 3 == 0 {
        return SemPlan::Points {
            retrieve: Retrieve {
                query: "the question".into(),
                k: 1 + (first % 20) as usize,
                kind: RetrieveKind::Candidates,
            },
            rerank: (first % 2 == 0).then(|| Rerank {
                query: "the question".into(),
                keep: 1 + (first % 10) as usize,
            }),
            gen: gen(GenFormat::List),
        };
    }
    SemPlan::Frame {
        source: frame_source(first),
        steps: words[1..].iter().map(|&w| exec_step(w)).collect(),
        gen: match first % 4 {
            0 => Some(gen(GenFormat::Free)),
            1 => Some(gen(GenFormat::FreeOrAgg)),
            _ => None,
        },
    }
}

proptest! {
    /// The generator only produces plans the verifier accepts: randomized
    /// naive plans are well-formed before any rewriting.
    #[test]
    fn generated_naive_plans_verify(words in prop::collection::vec(0u64..1_000_000, 1..8)) {
        let naive = build_plan(&words);
        let report = verify_plan(&naive, None);
        prop_assert!(report.is_ok(), "naive plan rejected:\n{}\n{}", report.render(), naive.explain());
    }

    /// Under every rule combination, `optimize_sem` output passes the
    /// verifier and the rewrite checker (work conservation + per-rule
    /// postconditions).
    #[test]
    fn optimizer_output_always_verifies(words in prop::collection::vec(0u64..1_000_000, 1..8)) {
        let naive = build_plan(&words);
        for opts in all_opts() {
            let optimized = optimize_sem(naive.clone(), &opts);
            let plan = verify_plan(&optimized, None);
            prop_assert!(
                plan.is_ok(),
                "rules={}: optimized plan rejected:\n{}\n{}",
                opts.cache_tag(), plan.render(), optimized.explain()
            );
            let rewrite = verify_rewrite(&naive, &optimized, &opts, None);
            prop_assert!(
                rewrite.is_ok(),
                "rules={}: rewrite rejected:\n{}before:\n{}after:\n{}",
                opts.cache_tag(), rewrite.render(), naive.explain(), optimized.explain()
            );
        }
    }

    /// Optimization never raises the static LM-call bound.
    #[test]
    fn optimizer_never_raises_cost_bound(words in prop::collection::vec(0u64..1_000_000, 1..8)) {
        let naive = build_plan(&words);
        let naive_calls = plan_cost(&naive, None).lm_calls;
        for opts in all_opts() {
            let optimized = optimize_sem(naive.clone(), &opts);
            let opt_calls = plan_cost(&optimized, None).lm_calls;
            prop_assert!(
                opt_calls <= naive_calls,
                "rules={}: bound raised {naive_calls} -> {opt_calls}:\n{}",
                opts.cache_tag(), optimized.explain()
            );
        }
    }

    /// A deliberately broken rewrite is always caught: fusing a cut into
    /// a filter without the distinct obligation must be rejected, and
    /// deleting a predicate must fail work conservation.
    #[test]
    fn broken_rewrites_are_caught(words in prop::collection::vec(0u64..1_000_000, 1..8)) {
        let naive = build_plan(&words);
        let opts = SemOptOptions::default();
        let mut optimized = optimize_sem(naive.clone(), &opts);
        if clear_first_fused_distinct(&mut optimized) {
            let plan = verify_plan(&optimized, None);
            let rewrite = verify_rewrite(&naive, &optimized, &opts, None);
            prop_assert!(
                !plan.is_ok() || !rewrite.is_ok(),
                "fused-not-distinct mutation escaped:\n{}",
                optimized.explain()
            );
        }
        let mut dropped = optimize_sem(naive.clone(), &opts);
        if drop_first_predicate(&mut dropped) {
            let rewrite = verify_rewrite(&naive, &dropped, &opts, None);
            prop_assert!(
                !rewrite.is_ok(),
                "dropped-predicate mutation escaped:\n{}",
                dropped.explain()
            );
        }
    }
}

/// Clear the `distinct` flag on the first fused early-stop filter, root
/// first.
fn clear_first_fused_distinct(plan: &mut SemPlan) -> bool {
    let SemPlan::Frame { steps, .. } = plan else {
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

/// Splice the first `Predicate`, root first, out of the plan.
fn drop_first_predicate(plan: &mut SemPlan) -> bool {
    let SemPlan::Frame { steps, .. } = plan else {
        return false;
    };
    let Some(at) = steps
        .iter()
        .rposition(|step| matches!(step, SemStep::Predicate { .. }))
    else {
        return false;
    };
    steps.remove(at);
    true
}
