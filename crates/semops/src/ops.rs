//! Semantic operators over frames (the LOTUS operator algebra).
//!
//! - [`sem_filter`] — LM-judged row filter (`sem_filter` in Appendix C);
//! - [`sem_topk`] — LM-ranked top-k via batched pairwise comparisons;
//! - [`sem_agg`] — LM aggregation with hierarchical fold for large inputs.
//!
//! A frame is a [`SemFrame`]: a selection over the SQL engine's columns.
//! The filter and the top-k return the input's frame with a narrowed or
//! reordered selection and copy no row; the aggregations write each
//! selected row's record straight from the columns.

use crate::engine::SemEngine;
use tag_lm::nlq::SemProperty;
use tag_lm::prompts::{sem_agg_prompt, sem_compare_prompt, sem_filter_prompt, SemClaim};
use tag_lm::tokenizer::count_tokens;
use tag_sql::{SemFrame, SqlError};

/// Errors from semantic operators.
#[derive(Debug)]
pub enum SemError {
    /// Underlying LM failure.
    Lm(tag_lm::model::LmError),
    /// Frame-level failure (missing column).
    Frame(SqlError),
}

impl std::fmt::Display for SemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SemError::Lm(e) => write!(f, "semantic operator LM error: {e}"),
            SemError::Frame(e) => write!(f, "semantic operator frame error: {e}"),
        }
    }
}

impl std::error::Error for SemError {}

impl From<tag_lm::model::LmError> for SemError {
    fn from(e: tag_lm::model::LmError) -> Self {
        SemError::Lm(e)
    }
}

impl From<SqlError> for SemError {
    fn from(e: SqlError) -> Self {
        SemError::Frame(e)
    }
}

/// Result alias for semantic operators.
pub type SemResult<T> = Result<T, SemError>;

/// The text of `column`'s cell in each selected row, in frame order.
fn cell_texts(frame: &SemFrame, column: &str) -> SemResult<Vec<String>> {
    let cells = frame.column(frame.column_index(column)?);
    let ids = frame.selection().iter();
    Ok(ids.map(|&id| cells.text_at(id as usize)).collect())
}

/// Keep the rows whose `column` value makes `claim` true, judged by the
/// LM. All judgments for the frame go out as one batch; duplicate values
/// are answered once (engine cache).
pub fn sem_filter(
    engine: &SemEngine,
    frame: &SemFrame,
    column: &str,
    claim: &SemClaim,
) -> SemResult<SemFrame> {
    let _span = tag_trace::span(tag_trace::Stage::Exec, "sem_filter");
    let values = cell_texts(frame, column)?;
    let keep = sem_judge(engine, claim, &values)?;
    let ids = frame.selection().iter().zip(keep);
    let kept = ids.filter(|(_, k)| *k).map(|(&id, _)| id).collect();
    Ok(frame.clone().with_selection(kept))
}

/// The LM's verdict on `claim` for each of `values`, in order: one batch
/// of `sem_filter` prompts, duplicates answered once (engine cache).
/// [`sem_filter`] judges a column's cells with it, the semantic-plan
/// runtime a frame's distinct values.
pub fn sem_judge(
    engine: &SemEngine,
    claim: &SemClaim,
    values: &[String],
) -> tag_lm::model::LmResult<Vec<bool>> {
    let prompts: Vec<String> = values.iter().map(|v| sem_filter_prompt(claim, v)).collect();
    let verdicts = engine.complete_batch(&prompts)?;
    Ok(verdicts
        .iter()
        .map(|v| v.trim().eq_ignore_ascii_case("true"))
        .collect())
}

/// Order the frame by an LM-judged property of `column` (most-first) and
/// keep the top `k`.
///
/// Small inputs (≤ `BORDA_LIMIT` rows) run a Borda-count tournament —
/// every pair compared in one batched round, rank by wins; it is robust
/// to a noisy judge. Larger inputs first narrow to the top-k candidates
/// with batched **quickselect** (the LOTUS strategy: each round compares
/// every surviving row against a pivot in one batch), then Borda-rank
/// the survivors exactly. Expected O(n) comparisons for the narrowing
/// plus O(k²) for the final ordering.
pub fn sem_topk(
    engine: &SemEngine,
    frame: &SemFrame,
    column: &str,
    property: SemProperty,
    k: usize,
) -> SemResult<SemFrame> {
    /// Above this row count, narrow with quickselect before ranking.
    const BORDA_LIMIT: usize = 40;

    let _span = tag_trace::span(tag_trace::Stage::Exec, "sem_topk");
    let texts = cell_texts(frame, column)?;
    let ids = frame.selection();
    let n = ids.len();
    if n <= 1 || k == 0 {
        return Ok(frame.clone().with_selection(ids[..k.min(n)].to_vec()));
    }

    let candidates: Vec<usize> = if n > BORDA_LIMIT && k < n {
        quickselect_top(engine, &texts, property, k.max(BORDA_LIMIT / 2))?
    } else {
        (0..n).collect()
    };

    let order = borda_rank(engine, &texts, &candidates, property)?;
    let kept = order.into_iter().take(k).map(|i| ids[i]).collect();
    Ok(frame.clone().with_selection(kept))
}

/// Batched quickselect: repeatedly pick a pivot, compare every surviving
/// candidate against it in one LM round, and keep the side that still
/// contains the boundary until at most `want` candidates remain (or a
/// round stops making progress, when judge noise creates degenerate
/// partitions).
fn quickselect_top(
    engine: &SemEngine,
    texts: &[String],
    property: SemProperty,
    want: usize,
) -> SemResult<Vec<usize>> {
    let mut pool: Vec<usize> = (0..texts.len()).collect();
    let mut kept: Vec<usize> = Vec::new();
    while kept.len() + pool.len() > want && pool.len() > 1 {
        // Deterministic pivot: middle of the pool.
        let pivot = pool[pool.len() / 2];
        let others: Vec<usize> = pool.iter().copied().filter(|&i| i != pivot).collect();
        let prompts: Vec<String> = others
            .iter()
            .map(|&i| sem_compare_prompt(property, &texts[i], &texts[pivot]))
            .collect();
        let answers = engine.complete_batch(&prompts)?;
        let mut above = Vec::new();
        let mut below = Vec::new();
        for (&i, a) in others.iter().zip(&answers) {
            if a.trim().eq_ignore_ascii_case("a") {
                above.push(i);
            } else {
                below.push(i);
            }
        }
        if kept.len() + above.len() < want {
            // Everything above the pivot (plus the pivot) survives; the
            // boundary lies in `below`.
            kept.extend(above);
            kept.push(pivot);
            if below.is_empty() {
                break;
            }
            pool = below;
        } else if above.is_empty() {
            // Degenerate partition (noise): accept the pivot and stop.
            kept.push(pivot);
            break;
        } else {
            // The boundary lies in `above`.
            pool = above;
        }
    }
    kept.extend(pool);
    kept.truncate(want.max(1));
    Ok(kept)
}

/// Borda tournament over the candidate indices; returns them best-first.
fn borda_rank(
    engine: &SemEngine,
    texts: &[String],
    candidates: &[usize],
    property: SemProperty,
) -> SemResult<Vec<usize>> {
    let m = candidates.len();
    if m <= 1 {
        return Ok(candidates.to_vec());
    }
    let mut prompts = Vec::with_capacity(m * (m - 1) / 2);
    let mut pairs = Vec::with_capacity(m * (m - 1) / 2);
    for a in 0..m {
        for b in (a + 1)..m {
            prompts.push(sem_compare_prompt(
                property,
                &texts[candidates[a]],
                &texts[candidates[b]],
            ));
            pairs.push((a, b));
        }
    }
    let answers = engine.complete_batch(&prompts)?;
    let mut wins = vec![0usize; m];
    for ((a, b), ans) in pairs.into_iter().zip(answers) {
        if ans.trim().eq_ignore_ascii_case("a") {
            wins[a] += 1;
        } else {
            wins[b] += 1;
        }
    }
    let mut order: Vec<usize> = (0..m).collect();
    // Most wins first; ties broken by original position (stable).
    order.sort_by(|&x, &y| {
        wins[y]
            .cmp(&wins[x])
            .then(candidates[x].cmp(&candidates[y]))
    });
    Ok(order.into_iter().map(|i| candidates[i]).collect())
}

/// Each selected row as one compact `col val, col val` record, written
/// straight from the columns.
fn records(frame: &SemFrame) -> Vec<String> {
    let record = |id: usize| {
        let mut s = String::new();
        for (c, name) in frame.columns.iter().enumerate() {
            if c > 0 {
                s.push_str(", ");
            }
            s.push_str(name);
            s.push(' ');
            frame.column(c).push_text_at(id, &mut s);
        }
        s
    };
    let ids = frame.selection().iter();
    ids.map(|&id| record(id as usize)).collect()
}

/// Summarize the frame with the LM. Rows are serialized as compact
/// records; when the serialized input exceeds the model's usable window,
/// the operator folds hierarchically: chunks are summarized in one
/// batch, then the summaries are summarized (the "iterative or recursive
/// patterns over the data" of §2.3).
pub fn sem_agg(engine: &SemEngine, frame: &SemFrame, instruction: &str) -> SemResult<String> {
    let _span = tag_trace::span(tag_trace::Stage::Gen, "sem_agg");
    agg_fold(engine, instruction, records(frame))
}

fn agg_fold(engine: &SemEngine, instruction: &str, items: Vec<String>) -> SemResult<String> {
    // Usable budget well under the window to leave room for output.
    let budget = engine.lm().context_window().saturating_sub(1024).max(256);
    let total: usize = items.iter().map(|i| count_tokens(i)).sum();
    if total <= budget || items.len() <= 1 {
        return Ok(engine.complete(&sem_agg_prompt(instruction, &items))?);
    }
    // Chunk so each chunk fits, summarize every chunk in one batch, then
    // recurse over the partial summaries.
    let mut chunks: Vec<Vec<String>> = Vec::new();
    let mut current = Vec::new();
    let mut used = 0usize;
    for item in items {
        let t = count_tokens(&item);
        if used + t > budget && !current.is_empty() {
            chunks.push(std::mem::take(&mut current));
            used = 0;
        }
        used += t;
        current.push(item);
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    if chunks.len() <= 1 {
        // Cannot shrink further by chunking (individual items exceed the
        // budget); fall back to a single call and let the model truncate.
        let items = chunks.pop().unwrap_or_default();
        return Ok(engine.complete(&sem_agg_prompt(instruction, &items))?);
    }
    let prompts: Vec<String> = chunks
        .iter()
        .map(|c| sem_agg_prompt(instruction, c))
        .collect();
    let partials = engine.complete_batch(&prompts)?;
    agg_fold(engine, instruction, partials)
}

/// Summarize the frame with the *sequential refinement* generation
/// pattern (§2.3's "iterative" alternative to the hierarchical fold of
/// [`sem_agg`]): chunks are folded one at a time into a running summary.
/// One LM call per chunk, strictly serial — higher quality control in
/// principle, but no batching, so execution time grows linearly with the
/// data (the trade-off the batch ablation quantifies).
pub fn sem_agg_refine(
    engine: &SemEngine,
    frame: &SemFrame,
    instruction: &str,
) -> SemResult<String> {
    let _span = tag_trace::span(tag_trace::Stage::Gen, "sem_agg_refine");
    let items = records(frame);
    let budget = engine.lm().context_window().saturating_sub(1024).max(256);
    let mut summary: Option<String> = None;
    let mut chunk: Vec<String> = Vec::new();
    let mut used = 0usize;
    let flush = |chunk: &mut Vec<String>, summary: &mut Option<String>| -> SemResult<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let mut round = Vec::with_capacity(chunk.len() + 1);
        if let Some(s) = summary.take() {
            round.push(format!("Summary so far: {s}"));
        }
        round.append(chunk);
        *summary = Some(engine.complete(&sem_agg_prompt(instruction, &round))?);
        Ok(())
    };
    for item in items {
        let t = count_tokens(&item);
        if used + t > budget && !chunk.is_empty() {
            flush(&mut chunk, &mut summary)?;
            used = summary.as_deref().map(count_tokens).unwrap_or(0);
        }
        used += t;
        chunk.push(item);
    }
    flush(&mut chunk, &mut summary)?;
    Ok(summary.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tag_lm::sim::{SimConfig, SimLm};
    use tag_lm::KnowledgeConfig;
    use tag_sql::Value;

    fn engine() -> SemEngine {
        SemEngine::new(Arc::new(SimLm::new(SimConfig {
            knowledge: KnowledgeConfig {
                coverage: 1.0,
                enumeration_coverage: 1.0,
                seed: 11,
            },
            judgment_noise: 0.0,
            ..SimConfig::default()
        })))
    }

    /// A one-column frame of `texts`.
    fn text_frame<S: Into<String>>(column: &str, texts: impl IntoIterator<Item = S>) -> SemFrame {
        let rows = texts.into_iter().map(|t| [Value::text(t)]);
        SemFrame::from_rows(vec![column.to_owned()], rows)
    }

    /// 60 comments, too many for a 400-token window.
    fn comments() -> SemFrame {
        let texts =
            (0..60).map(|i| format!("comment number {i} about gradient boosting and residuals"));
        text_frame("text", texts)
    }

    fn cities() -> SemFrame {
        SemFrame::new(
            vec!["City".into(), "n".into()],
            vec![
                vec![Value::text("Palo Alto"), Value::Int(1)],
                vec![Value::text("Fresno"), Value::Int(2)],
                vec![Value::text("Cupertino"), Value::Int(3)],
                vec![Value::text("San Diego"), Value::Int(4)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn sem_filter_region() {
        let e = engine();
        let out = sem_filter(
            &e,
            &cities(),
            "City",
            &SemClaim::CityInRegion {
                region: "Silicon Valley".into(),
            },
        )
        .unwrap();
        let names = cell_texts(&out, "City").unwrap();
        assert_eq!(names, vec!["Palo Alto", "Cupertino"]);
    }

    #[test]
    fn sem_filter_batches_once() {
        let e = engine();
        sem_filter(
            &e,
            &cities(),
            "City",
            &SemClaim::CityInRegion {
                region: "Bay Area".into(),
            },
        )
        .unwrap();
        assert_eq!(e.stats().lm_batches, 1);
        assert_eq!(e.stats().lm_prompts, 4);
    }

    #[test]
    fn sem_topk_orders_by_technicality() {
        let e = engine();
        let df = text_frame(
            "Title",
            [
                "My favorite lunch spots",
                "Bayesian kernel regression with regularization",
                "Gradient boosting hyperparameter optimization",
                "Pictures of my cat",
            ],
        );
        let top = sem_topk(&e, &df, "Title", SemProperty::Technical, 2).unwrap();
        let titles = cell_texts(&top, "Title").unwrap();
        assert_eq!(titles.len(), 2);
        assert!(titles[0].contains("Bayesian") || titles[0].contains("Gradient"));
        assert!(titles[1].contains("Bayesian") || titles[1].contains("Gradient"));
    }

    #[test]
    fn sem_topk_small_inputs() {
        let e = engine();
        let df = text_frame("t", ["only"]);
        let out = sem_topk(&e, &df, "t", SemProperty::Positive, 5).unwrap();
        assert_eq!(out.len(), 1);
        let empty = text_frame("t", [""; 0]);
        assert_eq!(
            sem_topk(&e, &empty, "t", SemProperty::Positive, 3)
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn sem_topk_quickselect_on_large_input() {
        let e = engine();
        // 100 rows: 5 clearly technical, the rest casual. Quickselect must
        // surface the technical ones without the full O(n^2) tournament.
        let mut rows: Vec<String> = (0..95)
            .map(|i| format!("my favorite lunch spot number {i}"))
            .collect();
        rows.extend(
            [
                "Bayesian kernel regression with regularization",
                "Gradient boosting hyperparameter optimization tricks",
                "Eigenvalue convergence of stochastic estimators",
                "Posterior variance of quantile regression",
                "Covariance matrix regularization under dropout",
            ]
            .map(String::from),
        );
        let df = text_frame("Title", rows);
        let top = sem_topk(&e, &df, "Title", SemProperty::Technical, 5).unwrap();
        assert_eq!(top.len(), 5);
        for v in cell_texts(&top, "Title").unwrap() {
            assert!(!v.contains("lunch"), "casual row leaked into top-5: {v}");
        }
        // Far fewer comparisons than the full 100*99/2 = 4950 tournament.
        let stats = e.stats();
        assert!(
            stats.lm_prompts < 1500,
            "quickselect should cut comparisons, used {}",
            stats.lm_prompts
        );
    }

    #[test]
    fn quickselect_agrees_with_borda_on_clean_data() {
        // On clearly separated data, the quickselect path (large n) must
        // select the same top set the exhaustive tournament would.
        let e = engine();
        let mut rows: Vec<String> = (0..50)
            .map(|i| format!("chatting about plants number {i}"))
            .collect();
        let technical = [
            "Bayesian kernel regression with regularization",
            "Gradient boosting hyperparameter optimization",
            "Eigenvalue convergence of stochastic estimators",
        ];
        rows.extend(technical.map(String::from));
        let df = text_frame("t", rows);
        let top = sem_topk(&e, &df, "t", SemProperty::Technical, 3).unwrap();
        let got: std::collections::HashSet<String> =
            cell_texts(&top, "t").unwrap().into_iter().collect();
        let want: std::collections::HashSet<String> =
            technical.iter().map(|s| s.to_string()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sem_topk_k_zero_and_k_exceeding_n() {
        let e = engine();
        let df = text_frame("t", ["a", "b"]);
        assert_eq!(
            sem_topk(&e, &df, "t", SemProperty::Positive, 0)
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            sem_topk(&e, &df, "t", SemProperty::Positive, 10)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn sem_agg_small_single_call() {
        let e = engine();
        let df = SemFrame::new(
            vec!["year".into(), "name".into()],
            (1999..=2005)
                .map(|y| {
                    vec![
                        Value::Int(y),
                        Value::text(format!("{y} Malaysian Grand Prix")),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let summary = sem_agg(&e, &df, "Summarize the races").unwrap();
        assert!(!summary.is_empty());
        assert_eq!(e.stats().lm_batches, 1);
    }

    #[test]
    fn sem_agg_hierarchical_fold_on_large_input() {
        // Tiny context forces the fold path.
        let lm = SimLm::new(SimConfig {
            context_window: 400,
            ..SimConfig::default()
        });
        let e = SemEngine::new(Arc::new(lm));
        let summary = sem_agg(&e, &comments(), "Summarize the comments").unwrap();
        assert!(!summary.is_empty());
        assert!(
            e.stats().lm_prompts > 1,
            "expected a hierarchical fold, got {:?}",
            e.stats()
        );
    }

    #[test]
    fn sem_agg_refine_small_input_single_call() {
        let e = engine();
        let df = text_frame(
            "text",
            [
                "boosting combines weak learners",
                "gentle boosting uses smaller steps",
            ],
        );
        let s = sem_agg_refine(&e, &df, "Summarize the comments").unwrap();
        assert!(!s.is_empty());
        assert_eq!(e.stats().lm_prompts, 1);
    }

    #[test]
    fn sem_agg_refine_is_serial_on_large_input() {
        let lm = SimLm::new(SimConfig {
            context_window: 400,
            ..SimConfig::default()
        });
        let e = SemEngine::new(Arc::new(lm));
        let s = sem_agg_refine(&e, &comments(), "Summarize the comments").unwrap();
        assert!(!s.is_empty());
        let stats = e.stats();
        assert!(stats.lm_prompts > 1, "{stats:?}");
        // Strictly serial: every round is a batch of one.
        assert_eq!(stats.lm_prompts, stats.lm_batches, "{stats:?}");
    }

    #[test]
    fn sem_agg_refine_empty_frame() {
        let e = engine();
        let df = text_frame("text", [""; 0]);
        assert_eq!(sem_agg_refine(&e, &df, "Summarize").unwrap(), "");
    }

    /// The filter and the top-k return selections over the input's own
    /// columns: no row is copied into a new chunk.
    #[test]
    fn filter_and_topk_share_the_input_columns() {
        let e = engine();
        let input = cities();
        let claim = SemClaim::CityInRegion {
            region: "Bay Area".into(),
        };
        let filtered = sem_filter(&e, &input, "City", &claim).unwrap();
        let ranked = sem_topk(&e, &input, "City", SemProperty::Positive, 2).unwrap();
        for out in [&filtered, &ranked] {
            assert_eq!(out.columns, input.columns);
            for c in 0..input.columns.len() {
                assert!(std::ptr::eq(out.column(c), input.column(c)));
            }
        }
        assert_eq!(ranked.len(), 2);
    }

    /// An aggregation record is each column's name and cell text, in
    /// column order, joined by `, `: NULL prints `NULL`, floats print as
    /// `Value`'s `Display` does.
    #[test]
    fn records_are_name_value_pairs_in_selection_order() {
        let df = SemFrame::new(
            vec!["year".into(), "score".into(), "name".into()],
            vec![
                vec![Value::Int(1999), Value::Float(1.5), Value::text("Sepang")],
                vec![Value::Null, Value::Float(-0.0), Value::Null],
            ],
        )
        .unwrap();
        assert_eq!(
            records(&df.with_selection(vec![1, 0])),
            [
                "year NULL, score -0, name NULL",
                "year 1999, score 1.5, name Sepang"
            ]
        );
    }

    #[test]
    fn missing_column_errors() {
        let e = engine();
        assert!(sem_filter(&e, &cities(), "nope", &SemClaim::ClassicMovie).is_err());
    }
}
