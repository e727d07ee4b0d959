//! Property-based tests for the semantic operator runtime.

use proptest::prelude::*;
use std::sync::Arc;
use tag_lm::nlq::SemProperty;
use tag_lm::prompts::SemClaim;
use tag_lm::sim::{SimConfig, SimLm};
use tag_lm::KnowledgeConfig;
use tag_semops::{sem_filter, sem_topk, SemEngine};
use tag_sql::{SemFrame, Value};

fn engine() -> SemEngine {
    SemEngine::new(Arc::new(SimLm::new(SimConfig {
        knowledge: KnowledgeConfig {
            coverage: 1.0,
            enumeration_coverage: 1.0,
            seed: 3,
        },
        judgment_noise: 0.0,
        ..SimConfig::default()
    })))
}

fn text_frame(texts: &[String]) -> SemFrame {
    SemFrame::new(
        vec!["t".into()],
        texts.iter().map(|t| vec![Value::text(t.clone())]).collect(),
    )
    .unwrap()
}

/// The frame's `t` cells, in frame order.
fn t_cells(frame: &SemFrame) -> Vec<String> {
    frame.rows().iter().map(|r| r[0].to_string()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// sem_filter output is always a subset of the input, preserving
    /// order, and is idempotent (filtering the output changes nothing).
    #[test]
    fn sem_filter_subset_and_idempotent(
        texts in prop::collection::vec("[a-z ]{1,30}", 0..20)
    ) {
        let e = engine();
        let df = text_frame(&texts);
        let claim = SemClaim::Property(SemProperty::Positive);
        let once = sem_filter(&e, &df, "t", &claim).unwrap();
        prop_assert!(once.len() <= df.len());
        // Order preservation: the output appears in input order.
        let input: Vec<String> = texts.clone();
        let output = t_cells(&once);
        let mut cursor = 0usize;
        for o in &output {
            let pos = input[cursor..].iter().position(|i| i == o);
            prop_assert!(pos.is_some(), "output not a subsequence");
            cursor += pos.unwrap() + 1;
        }
        let twice = sem_filter(&e, &once, "t", &claim).unwrap();
        prop_assert_eq!(once, twice);
    }

    /// sem_topk returns exactly min(k, n) rows, all drawn from the input.
    #[test]
    fn sem_topk_size_and_membership(
        texts in prop::collection::vec("[a-z ]{1,30}", 0..15),
        k in 0usize..8,
    ) {
        let e = engine();
        let df = text_frame(&texts);
        let top = sem_topk(&e, &df, "t", SemProperty::Technical, k).unwrap();
        prop_assert_eq!(top.len(), k.min(texts.len()));
        for v in t_cells(&top) {
            prop_assert!(texts.contains(&v));
        }
    }

    /// With a noise-free judge, the top-1 by sem_topk scores at least as
    /// high (lexicon technicality) as every other row.
    #[test]
    fn sem_topk_top1_is_maximal_under_exact_judge(
        texts in prop::collection::vec("[a-z ]{1,40}", 1..12)
    ) {
        let e = engine();
        let df = text_frame(&texts);
        let top = sem_topk(&e, &df, "t", SemProperty::Technical, 1).unwrap();
        let best = t_cells(&top).remove(0);
        let score = tag_lm::lexicon::technicality_score(&best);
        for t in &texts {
            // Ties can legitimately pick either row; only a strictly
            // higher-scoring row may not be beaten.
            prop_assert!(
                tag_lm::lexicon::technicality_score(t) <= score + 0.25,
                "row {t:?} clearly outranks reported best {best:?}"
            );
        }
    }
}
