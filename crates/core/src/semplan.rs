//! The NlQuery → SemPlan compiler and the semantic-plan runtime.
//!
//! This is the unification layer of the refactor: every TAG method that
//! used to hand-roll its retrieval/filter/generation sequence now
//! *compiles* to a [`SemPlan`] chain (defined data-only in `tag-sql`, so
//! plans EXPLAIN and optimize like relational plans) and executes
//! through one shared runtime, [`SemRuntime`], which delegates semantic
//! operators to `tag-semops` and exact operators to the SQL engine where
//! they lead the chain, to the frame kernels elsewhere.
//!
//! The compilers are intentionally *naive*: filters compile in question
//! order, semantic filters judge row-wise, exact cuts stay after
//! semantic operators, and the scan is `SELECT *`. All LM-call
//! minimization — predicate pushdown, the distinct-value rewrite,
//! early-stop pre-cut fusion — lives in `tag_sql::semopt` rewrite rules,
//! applied per the environment's
//! [`SemOptOptions`](tag_sql::SemOptOptions) before execution. With
//! every rule disabled the plans reproduce the pre-refactor pipelines
//! byte-for-byte; with rules enabled the answers are unchanged (the
//! simulated LM's judgments are per-prompt deterministic) but the model
//! sees strictly fewer prompts.
//!
//! Whatever the rules, [`plan_sem`] then lowers the plan
//! ([`tag_sql::lower_scans`]): each scan reads only the columns the plan
//! and its consumer read ([`nlq_reads`]), and the exact predicates and
//! the cut that lead the chain run as its `WHERE` / `ORDER BY … LIMIT`.
//!
//! Frames are selections over the engine's columns ([`SemFrame`]): the
//! scan hands over its executor batches without building a row, and
//! every step after it narrows or reorders the selection — the exact
//! predicates and cuts left after the scan, the semantic filters
//! (row-wise, distinct-value and early-stop) and `sem_topk` — or writes
//! its prompts straight from the selected cells. No step copies a row of
//! its input. Retrieval returns row store ids ([`TagEnv::row_store`]),
//! and rerank and generation read each id's row from the table images
//! the store embedded when they write a prompt.

use crate::env::TagEnv;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;
use tag_lm::model::LmRequest;
use tag_lm::nlq::{CmpOp, NlFilter, NlQuery, SemProperty};
use tag_lm::prompts::{
    answer_prompt, push_data_point, push_field, relevance_prompt_over, SemClaim,
};
use tag_semops::{sem_agg, sem_filter, sem_judge, sem_topk, SemError};
use tag_sql::chunk::ColumnData;
use tag_sql::{
    execute_sem, plan_sem, scan_sql, CutSpec, FrameSource, GenFormat, Generate, Rerank, Retrieve,
    RetrieveKind, SemClaimSpec, SemDelegate, SemFrame, SemPlan, SemPredicate, SemReads, SemStep,
    Value,
};

/// The property vocabulary shared with `tag_lm::nlq::SemProperty`
/// (`SemStep` carries the word, not the enum, to stay LM-crate-free).
fn property_word(p: SemProperty) -> &'static str {
    match p {
        SemProperty::Positive => "positive",
        SemProperty::Negative => "negative",
        SemProperty::Sarcastic => "sarcastic",
        SemProperty::Technical => "technical",
    }
}

fn property_from_word(w: &str) -> Option<SemProperty> {
    match w {
        "positive" => Some(SemProperty::Positive),
        "negative" => Some(SemProperty::Negative),
        "sarcastic" => Some(SemProperty::Sarcastic),
        "technical" => Some(SemProperty::Technical),
        _ => None,
    }
}

/// Lower a structural claim back to the prompt-level claim it mirrors.
fn spec_to_claim(spec: &SemClaimSpec) -> Result<SemClaim, String> {
    Ok(match spec {
        SemClaimSpec::CityInRegion { region } => SemClaim::CityInRegion {
            region: region.clone(),
        },
        SemClaimSpec::ClassicMovie => SemClaim::ClassicMovie,
        SemClaimSpec::EuCountry => SemClaim::EuCountry,
        SemClaimSpec::CircuitInContinent { continent } => SemClaim::CircuitInContinent {
            continent: continent.clone(),
        },
        SemClaimSpec::CompanyInVertical { vertical } => SemClaim::CompanyInVertical {
            vertical: vertical.clone(),
        },
        SemClaimSpec::HeightTallerThan { person } => SemClaim::HeightTallerThan {
            person: person.clone(),
        },
        SemClaimSpec::Property { word } => SemClaim::Property(
            property_from_word(word).ok_or_else(|| format!("unknown semantic property: {word}"))?,
        ),
    })
}

/// Compile a structured TAG-Bench question into a semantic plan: a base
/// scan, the filters in question order, and the shape's last steps.
pub fn compile_nlq(q: &NlQuery) -> SemPlan {
    let mut steps: Vec<SemStep> = q.filters().iter().map(compile_filter).collect();
    let cut = |rank_attr: &String, descending: bool, k: usize| SemStep::Cut {
        cut: CutSpec {
            sort_by: rank_attr.clone(),
            descending,
            k,
        },
    };
    let mut gen = None;
    match q {
        NlQuery::Superlative {
            rank_attr, highest, ..
        } => steps.push(cut(rank_attr, *highest, 1)),
        NlQuery::Count { .. } | NlQuery::List { .. } => {}
        NlQuery::TopK {
            rank_attr,
            k,
            highest,
            ..
        } => steps.push(cut(rank_attr, *highest, *k)),
        NlQuery::SemanticRank {
            rank_attr,
            k,
            property,
            on_attr,
            ..
        } => {
            steps.push(cut(rank_attr, true, *k));
            steps.push(SemStep::SemTopK {
                on_attr: on_attr.clone(),
                property: property_word(*property).to_owned(),
                k: *k,
            });
        }
        NlQuery::Summarize { .. } | NlQuery::ProvideInfo { .. } => {
            gen = Some(Generate {
                request: q.render(),
                format: GenFormat::FreeOrAgg,
            })
        }
    }
    SemPlan::Frame {
        source: FrameSource::scan(q.entity()),
        steps,
        gen,
    }
}

/// What [`HandWrittenTag`](crate::methods::HandWrittenTag) reads off the
/// frame [`compile_nlq`]'s plan returns: the selected attribute, the row
/// count alone (`Count`), or the one cell a `Generate` produced.
pub fn nlq_reads(q: &NlQuery) -> SemReads {
    match q {
        NlQuery::Superlative { select_attr, .. }
        | NlQuery::List { select_attr, .. }
        | NlQuery::TopK { select_attr, .. }
        | NlQuery::SemanticRank { select_attr, .. } => SemReads::columns(&[select_attr]),
        NlQuery::Count { .. } => SemReads::Columns(Vec::new()),
        NlQuery::Summarize { .. } | NlQuery::ProvideInfo { .. } => SemReads::All,
    }
}

/// One question filter as a plan step. The column-candidate lists are the
/// expert pipelines' schema knowledge, unchanged.
fn compile_filter(f: &NlFilter) -> SemStep {
    let sem = |columns: &[&str], claim: SemClaimSpec| SemStep::SemFilter {
        columns: columns.iter().map(|c| (*c).to_owned()).collect(),
        resolve: true,
        claim,
        distinct: false,
        early_stop: None,
    };
    match f {
        NlFilter::NumCmp { attr, op, value } => SemStep::Predicate {
            pred: SemPredicate::NumCmp {
                attr: attr.clone(),
                over: *op == CmpOp::Over,
                value: *value,
            },
        },
        NlFilter::TextEq { attr, value } => SemStep::Predicate {
            pred: SemPredicate::TextEq {
                attr: attr.clone(),
                value: value.clone(),
            },
        },
        NlFilter::AtCircuit { circuit } => SemStep::Predicate {
            pred: SemPredicate::TextEqAny {
                columns: vec!["Circuit".into(), "circuit".into(), "CircuitName".into()],
                value: circuit.clone(),
            },
        },
        NlFilter::InRegion { region } => sem(
            &["City", "city"],
            SemClaimSpec::CityInRegion {
                region: region.clone(),
            },
        ),
        NlFilter::TallerThan { person } => sem(
            &["height", "Height"],
            SemClaimSpec::HeightTallerThan {
                person: person.clone(),
            },
        ),
        NlFilter::EuCountry => sem(&["Country", "country"], SemClaimSpec::EuCountry),
        NlFilter::CircuitContinent { continent } => sem(
            &["Circuit", "circuit"],
            SemClaimSpec::CircuitInContinent {
                continent: continent.clone(),
            },
        ),
        NlFilter::ClassicMovie => sem(
            &["movie_title", "title", "Title"],
            SemClaimSpec::ClassicMovie,
        ),
        NlFilter::VerticalIs { vertical } => sem(
            &["account_name", "Company", "company"],
            SemClaimSpec::CompanyInVertical {
                vertical: vertical.clone(),
            },
        ),
        NlFilter::Semantic { attr, property } => SemStep::SemFilter {
            columns: vec![attr.clone()],
            resolve: false,
            claim: SemClaimSpec::Property {
                word: property_word(*property).to_owned(),
            },
            distinct: false,
            early_stop: None,
        },
    }
}

/// Compile the RAG baseline: retrieval straight into generation.
pub fn compile_rag(request: &str, k: usize, list_format: bool) -> SemPlan {
    SemPlan::Points {
        retrieve: Retrieve {
            query: request.to_owned(),
            k,
            kind: RetrieveKind::Rows,
        },
        rerank: None,
        gen: generate(request, list_format),
    }
}

/// Compile the Retrieval + LM Rank baseline: candidate pool, LM rerank,
/// generation.
pub fn compile_rerank(request: &str, pool: usize, keep: usize, list_format: bool) -> SemPlan {
    SemPlan::Points {
        retrieve: Retrieve {
            query: request.to_owned(),
            k: pool,
            kind: RetrieveKind::Candidates,
        },
        rerank: Some(Rerank {
            query: request.to_owned(),
            keep,
        }),
        gen: generate(request, list_format),
    }
}

/// Compile the generation stage of Text2SQL + LM: the frame the
/// LM-written SQL retrieved, fed to one generation call.
pub fn compile_generate_over(frame: SemFrame, request: &str, list_format: bool) -> SemPlan {
    SemPlan::Frame {
        source: FrameSource::Input { frame },
        steps: Vec::new(),
        gen: Some(generate(request, list_format)),
    }
}

/// One generation call over the rows in context, in the list or the
/// free-form prompt format.
fn generate(request: &str, list_format: bool) -> Generate {
    Generate {
        request: request.to_owned(),
        format: if list_format {
            GenFormat::List
        } else {
            GenFormat::Free
        },
    }
}

/// [`plan_sem`] of a structured question: the plan `HandWrittenTag`
/// runs and `EXPLAIN SEMPLAN` prints.
pub fn plan_nlq(q: &NlQuery, opts: &tag_sql::SemOptOptions, db: &tag_sql::Database) -> SemPlan {
    plan_sem(compile_nlq(q), &nlq_reads(q), opts, db.catalog())
}

/// Plan a naive chain ([`plan_sem`], under the environment's rules and
/// against its live catalog) and execute it. `reads` is what the caller
/// reads off the returned frame.
///
/// Under an active trace each plan operator is one span with its rows
/// out and the LM cost it caused ([`execute_sem`]).
pub fn run_semplan(env: &TagEnv, naive: SemPlan, reads: &SemReads) -> Result<SemFrame, String> {
    let plan = plan_sem(naive, reads, &env.sem_opt(), env.db.catalog());
    execute_sem(&plan, &SemRuntime::new(env))
}

/// The semantic-plan runtime: executes [`SemPlan`]s over the
/// environment's SQL engine, row store, semantic operators, and LM, over
/// frames that are selections of the engine's columns (module docs).
pub struct SemRuntime<'a> {
    env: &'a TagEnv,
}

impl<'a> SemRuntime<'a> {
    /// A runtime over one environment.
    pub fn new(env: &'a TagEnv) -> Self {
        SemRuntime { env }
    }

    fn exec_sem_filter(
        &self,
        frame: SemFrame,
        columns: &[String],
        resolve: bool,
        spec: &SemClaimSpec,
        distinct: bool,
        early_stop: Option<&CutSpec>,
    ) -> Result<SemFrame, String> {
        let col = if resolve {
            existing_column(&frame.columns, columns)?
        } else {
            columns
                .first()
                .cloned()
                .ok_or_else(|| "semantic filter without a column".to_owned())?
        };
        let claim = spec_to_claim(spec)?;
        if let Some(cut) = early_stop {
            return self.early_stop_filter(frame, &col, &claim, cut);
        }
        if distinct {
            return self.distinct_filter(frame, &col, &claim);
        }
        sem_filter(&self.env.engine, &frame, &col, &claim).map_err(|e| e.to_string())
    }

    /// The Appendix C pattern: judge each distinct value once, then keep
    /// the rows whose value passed. One hashing pass numbers the values
    /// in first-seen frame order (the prompt order) and gives every row
    /// its value's code, so the selection narrows by code and no row is
    /// hashed twice.
    fn distinct_filter(
        &self,
        frame: SemFrame,
        col: &str,
        claim: &SemClaim,
    ) -> Result<SemFrame, String> {
        let c = frame.column_index(col).map_err(sem_err)?;
        let (codes, firsts) = value_codes(&frame, c);
        let values: Vec<String> = firsts
            .iter()
            .map(|&row| frame.value(row, c).to_string())
            .collect();
        let passed = sem_judge(&self.env.engine, claim, &values)
            .map_err(|e| SemError::from(e).to_string())?;
        let kept = frame
            .selection()
            .iter()
            .zip(&codes)
            .filter(|(_, &code)| passed[code as usize])
            .map(|(&id, _)| id)
            .collect();
        Ok(frame.with_selection(kept))
    }

    /// A semantic filter with a fused exact cut: judge distinct values
    /// (distinct by their text, the verdict key) in the order of each
    /// value's first row under the cut's stable order, in batches of
    /// `max(4k, 16)` values doubling each round, and stop after the first
    /// batch by whose boundary (its last value's first row) `k` rows
    /// pass, or when no value is left; the result is the first `k`
    /// passing rows. Answer-equivalent to filter-then-sort-then-head
    /// because stable sorting commutes with order-preserving filters and
    /// judgments are per-prompt deterministic — and no row is sorted but
    /// the `k` kept.
    fn early_stop_filter(
        &self,
        frame: SemFrame,
        col: &str,
        claim: &SemClaim,
        cut: &CutSpec,
    ) -> Result<SemFrame, String> {
        let order = stable_order(&frame, cut).map_err(|e| e.to_string())?;
        let c = frame.column_index(col).map_err(sem_err)?;
        let (codes, mut first) = text_codes(&frame, c);
        for (row, &code) in codes.iter().enumerate() {
            let f = &mut first[code as usize];
            if order(&row, f) == Ordering::Less {
                *f = row;
            }
        }
        let mut values: Vec<u32> = (0..first.len() as u32).collect();
        values.sort_unstable_by(|&a, &b| order(&first[a as usize], &first[b as usize]));
        let mut passed = vec![false; values.len()];
        let mut judged = 0;
        let mut batch_size = cut.k.saturating_mul(4).max(16);
        while cut.k > 0 && judged < values.len() {
            let batch = &values[judged..values.len().min(judged.saturating_add(batch_size))];
            let texts: Vec<String> = batch
                .iter()
                .map(|&v| frame.value(first[v as usize], c).to_string())
                .collect();
            let verdicts = sem_judge(&self.env.engine, claim, &texts).map_err(|e| e.to_string())?;
            for (&v, verdict) in batch.iter().zip(verdicts) {
                passed[v as usize] = verdict;
            }
            judged += batch.len();
            // Every row up to the boundary has a judged value.
            let boundary = first[batch[batch.len() - 1] as usize];
            let passing = (0..codes.len())
                .filter(|row| passed[codes[*row] as usize])
                .filter(|row| order(row, &boundary) != Ordering::Greater)
                .count();
            if passing >= cut.k {
                break;
            }
            batch_size = batch_size.saturating_mul(2);
        }
        if tag_trace::is_active() {
            tag_trace::annotate(format!(
                "early_stop: judged {judged} of {} values",
                values.len()
            ));
        }
        let passing = (0..codes.len())
            .filter(|row| passed[codes[*row] as usize])
            .collect();
        let kept = first_k(passing, cut.k, &order)
            .into_iter()
            .map(|row| frame.selection()[row])
            .collect();
        drop(order);
        Ok(frame.with_selection(kept))
    }

    /// Generation from `prompt`: one call, or, for the `free|agg` format
    /// over a frame whose prompt overflows the context window, the
    /// hierarchical `sem_agg` fold over `frame`. Points have no frame to
    /// fold, so generation over them is always one call (retrieval
    /// plans compile the list or free format).
    fn exec_generate(
        &self,
        prompt: String,
        gen: &Generate,
        frame: Option<&SemFrame>,
    ) -> Result<SemFrame, String> {
        let text = match (&gen.format, frame) {
            // gen(R, T): one call when the table fits the context,
            // hierarchical sem_agg otherwise. Tokens, not rows.
            (GenFormat::FreeOrAgg, Some(frame))
                if tag_lm::tokenizer::count_tokens(&prompt)
                    > self.env.engine.lm().context_window().saturating_sub(512) =>
            {
                sem_agg(&self.env.engine, frame, &gen.request).map_err(|e| e.to_string())?
            }
            _ => self.generate(prompt)?,
        };
        Ok(answer_frame(text))
    }

    /// One direct `gen` call; its cost lands on the `Generate` operator's
    /// span ([`TagEnv::generate`]).
    fn generate(&self, prompt: String) -> Result<String, String> {
        let resp = self
            .env
            .generate(&LmRequest::new(prompt))
            .map_err(|e| e.to_string())?;
        Ok(resp.text)
    }
}

impl SemDelegate for SemRuntime<'_> {
    fn source(&self, source: &FrameSource) -> Result<SemFrame, String> {
        match source {
            FrameSource::Scan {
                table,
                columns,
                filters,
                cut,
            } => {
                let sql = scan_sql(table, columns.as_deref(), filters, cut.as_ref());
                self.env
                    .scan(&sql)
                    .map_err(|e| format!("base scan failed: {e}"))
            }
            FrameSource::Input { frame } => Ok(frame.clone()),
        }
    }

    fn step(&self, step: &SemStep, frame: SemFrame) -> Result<SemFrame, String> {
        match step {
            SemStep::Predicate { pred } => exec_predicate(frame, pred),
            SemStep::SemFilter {
                columns,
                resolve,
                claim,
                distinct,
                early_stop,
            } => self.exec_sem_filter(
                frame,
                columns,
                *resolve,
                claim,
                *distinct,
                early_stop.as_ref(),
            ),
            SemStep::Cut { cut } => exec_cut(frame, cut).map_err(|e| e.to_string()),
            SemStep::SemTopK {
                on_attr,
                property,
                k,
            } => {
                let prop = property_from_word(property)
                    .ok_or_else(|| format!("unknown semantic property: {property}"))?;
                sem_topk(&self.env.engine, &frame, on_attr, prop, *k).map_err(|e| e.to_string())
            }
        }
    }

    /// Embedding retrieval: the operator's span label names `k` (or the
    /// pool size) and its rows are the hits.
    fn retrieve(&self, retrieve: &Retrieve) -> Result<Vec<usize>, String> {
        let hits = self.env.row_store().retrieve(&retrieve.query, retrieve.k);
        Ok(hits.iter().map(|hit| hit.id).collect())
    }

    fn rerank(&self, rerank: &Rerank, points: Vec<usize>) -> Result<Vec<usize>, String> {
        let prompts: Vec<String> = points
            .iter()
            .map(|&id| relevance_prompt_over(&rerank.query, |s| self.env.push_point_text(id, s)))
            .collect();
        let scores = self
            .env
            .engine
            .complete_batch(&prompts)
            .map_err(|e| e.to_string())?;
        let mut scored: Vec<(f64, usize)> = scores
            .iter()
            .enumerate()
            .map(|(i, s)| (s.trim().parse::<f64>().unwrap_or(0.0), i))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        Ok(scored
            .iter()
            .take(rerank.keep)
            .map(|&(_, i)| points[i])
            .collect())
    }

    fn generate(&self, gen: &Generate, frame: SemFrame) -> Result<SemFrame, String> {
        let list_format = gen.format == GenFormat::List;
        let prompt = answer_prompt_over(&frame, &gen.request, list_format);
        self.exec_generate(prompt, gen, Some(&frame))
    }

    fn generate_points(&self, gen: &Generate, points: Vec<usize>) -> Result<SemFrame, String> {
        let list_format = gen.format == GenFormat::List;
        let prompt = answer_prompt_over_points(self.env, &points, &gen.request, list_format);
        self.exec_generate(prompt, gen, None)
    }
}

/// An exact predicate: the selection keeps the rows whose cell passes
/// the predicate's per-cell test.
fn exec_predicate(frame: SemFrame, pred: &SemPredicate) -> Result<SemFrame, String> {
    match pred {
        SemPredicate::NumCmp { attr, over, value } => retain(frame, attr, |v| match v.as_f64() {
            Some(x) => {
                if *over {
                    x > *value
                } else {
                    x < *value
                }
            }
            None => false,
        }),
        SemPredicate::TextEq { attr, value } => {
            let as_num: Option<f64> = value.trim().parse().ok();
            retain(frame, attr, |v| match (v.as_str(), v.as_f64(), as_num) {
                (Some(s), _, _) => s.eq_ignore_ascii_case(value),
                (None, Some(x), Some(y)) => x == y,
                _ => false,
            })
        }
        SemPredicate::TextEqAny { columns, value } => {
            let col = existing_column(&frame.columns, columns)?;
            retain(frame, &col, |v| {
                v.as_str()
                    .map(|s| s.eq_ignore_ascii_case(value))
                    .unwrap_or(false)
            })
        }
    }
    .map_err(sem_err)
}

/// Narrow the selection to the rows whose `column` cell passes `keep`.
fn retain(
    frame: SemFrame,
    column: &str,
    mut keep: impl FnMut(&Value) -> bool,
) -> tag_sql::SqlResult<SemFrame> {
    let cells = frame.column(frame.column_index(column)?);
    let kept = frame
        .selection()
        .iter()
        .copied()
        .filter(|&id| keep(&cells.value_at(id as usize)))
        .collect();
    Ok(frame.with_selection(kept))
}

/// An exact cut: the first `k` rows of the selection under the cut's
/// stable order.
fn exec_cut(frame: SemFrame, cut: &CutSpec) -> tag_sql::SqlResult<SemFrame> {
    let order = stable_order(&frame, cut)?;
    let kept = first_k((0..frame.len()).collect(), cut.k, &order)
        .into_iter()
        .map(|row| frame.selection()[row])
        .collect();
    drop(order);
    Ok(frame.with_selection(kept))
}

/// The cut's order over frame rows: the sort key under
/// `Value::total_cmp` (reversed when descending), then the row's frame
/// position. A total order, and the order a stable sort gives.
fn stable_order<'f>(
    frame: &'f SemFrame,
    cut: &CutSpec,
) -> tag_sql::SqlResult<impl Fn(&usize, &usize) -> Ordering + 'f> {
    let key = frame.column(frame.column_index(&cut.sort_by)?);
    let ids = frame.selection();
    let descending = cut.descending;
    Ok(move |a: &usize, b: &usize| {
        let ord = key.total_cmp_at(ids[*a] as usize, ids[*b] as usize);
        let ord = if descending { ord.reverse() } else { ord };
        ord.then(a.cmp(b))
    })
}

/// The first `k` of `rows` under `order`, in order: a selection puts them
/// in front, and only they are sorted.
fn first_k(
    mut rows: Vec<usize>,
    k: usize,
    order: &impl Fn(&usize, &usize) -> Ordering,
) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    if k < rows.len() {
        rows.select_nth_unstable_by(k - 1, order);
        rows.truncate(k);
    }
    rows.sort_unstable_by(order);
    rows
}

/// Number the distinct values of column `col` over the frame's rows,
/// in first-seen frame order: each row's code, and each code's first
/// row. One hash lookup per row; the map is never iterated.
fn codes_by<K: Hash + Eq>(frame: &SemFrame, key: impl Fn(usize) -> K) -> (Vec<u32>, Vec<usize>) {
    let mut index: HashMap<K, u32> = HashMap::new();
    let mut firsts = Vec::new();
    let codes = frame
        .selection()
        .iter()
        .enumerate()
        .map(|(row, &id)| {
            let next = firsts.len() as u32;
            let code = *index.entry(key(id as usize)).or_insert(next);
            if code == next {
                firsts.push(row);
            }
            code
        })
        .collect();
    (codes, firsts)
}

/// [`codes_by`] under `Value` equality (`Int(7)` is `Float(7.0)`, `-0.0`
/// is not `0.0`): the distinct values the distinct-value rewrite judges.
fn value_codes(frame: &SemFrame, col: usize) -> (Vec<u32>, Vec<usize>) {
    match frame.column(col) {
        ColumnData::Int { values, validity } => {
            codes_by(frame, |i| validity[i].then_some(values[i]))
        }
        ColumnData::Float { values, validity } => {
            codes_by(frame, |i| validity[i].then_some(values[i].to_bits()))
        }
        ColumnData::Text { values, validity } => {
            codes_by(frame, |i| validity[i].then_some(values[i].as_str()))
        }
        ColumnData::Mixed(values) => codes_by(frame, |i| &values[i]),
    }
}

/// [`codes_by`] under equality of `to_string()`, early stop's verdict
/// key: NULL is the text `NULL`, and every NaN prints `NaN`, while no two
/// other floats print alike.
fn text_codes(frame: &SemFrame, col: usize) -> (Vec<u32>, Vec<usize>) {
    match frame.column(col) {
        ColumnData::Int { values, validity } => {
            codes_by(frame, |i| validity[i].then_some(values[i]))
        }
        ColumnData::Float { values, validity } => codes_by(frame, |i| {
            let canonical = if values[i].is_nan() {
                f64::NAN
            } else {
                values[i]
            };
            validity[i].then_some(canonical.to_bits())
        }),
        ColumnData::Text { values, validity } => codes_by(frame, |i| {
            if validity[i] {
                values[i].as_str()
            } else {
                "NULL"
            }
        }),
        ColumnData::Mixed(values) => codes_by(frame, |i| values[i].to_string()),
    }
}

/// The one-cell frame a generation returns.
fn answer_frame(text: String) -> SemFrame {
    SemFrame::from_rows(vec!["answer".to_owned()], [[Value::Text(text)]])
}

fn sem_err(e: tag_sql::SqlError) -> String {
    SemError::from(e).to_string()
}

/// Find the first of `candidates` that `columns` has, case-insensitively
/// (the hand-written pipelines' schema-candidate resolution, error
/// string unchanged).
fn existing_column(columns: &[String], candidates: &[String]) -> Result<String, String> {
    let has = |c: &String| columns.iter().any(|name| name.eq_ignore_ascii_case(c));
    if let Some(c) = candidates.iter().find(|c| has(c)) {
        return Ok(c.clone());
    }
    let candidates: Vec<&str> = candidates.iter().map(String::as_str).collect();
    let msg = format!("pipeline expects one of the columns {candidates:?}, frame has {columns:?}");
    Err(SemError::Frame(tag_sql::SqlError::Binding(msg)).to_string())
}

/// The generation prompt over `frame`, written once into one string:
/// each selected row one data point of `- col: val` lines, read straight
/// off the frame's columns.
fn answer_prompt_over(frame: &SemFrame, request: &str, list_format: bool) -> String {
    answer_prompt(request, list_format, |s| {
        for (i, &id) in frame.selection().iter().enumerate() {
            push_data_point(s, i, |s| {
                for (c, name) in frame.columns.iter().enumerate() {
                    push_field(s, name, |s| frame.column(c).push_text_at(id as usize, s));
                }
            });
        }
    })
}

/// The generation prompt over retrieved rows, written once into one
/// string: each row store id's row one data point, read from the table
/// images the row store embedded.
fn answer_prompt_over_points(
    env: &TagEnv,
    points: &[usize],
    request: &str,
    list_format: bool,
) -> String {
    answer_prompt(request, list_format, |s| {
        for (i, &id) in points.iter().enumerate() {
            push_data_point(s, i, |s| env.push_point_fields(id, s));
        }
    })
}

/// The row-major kernels the selection kernels replaced, kept as the
/// reference they are held to (`tests::kernels_match_the_reference`):
/// each takes the frame's rows as a [`reference::Table`] and copies,
/// sorts and filters rows as the runtime did before frames were
/// selections. And the copy path retrieved points took before they were
/// row store ids (`tests::point_prompts_are_the_copy_paths_prompts`).
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::HashSet;
    use tag_lm::prompts::{
        answer_free_prompt, answer_list_prompt, relevance_prompt, sem_filter_prompt,
    };
    use tag_semops::SemEngine;
    use tag_sql::{SqlError, SqlResult};

    /// Column names and the rows under them.
    pub(super) type Table = (Vec<String>, Vec<Vec<Value>>);

    /// A copied row: its `(column, text)` pairs.
    pub(super) type CopiedRow = Vec<(String, String)>;

    /// Every row of every table, copied out of the table images in row
    /// store order: the store's rows when it kept a copy of each.
    pub(super) fn copied_rows(env: &TagEnv) -> Vec<CopiedRow> {
        let mut rows = Vec::new();
        for name in env.db.catalog().table_names() {
            let table = env.db.catalog().table(&name).expect("listed table");
            let cols = table.schema().names();
            let image = table.columnar();
            for id in 0..image.len() {
                let cells = (0..cols.len()).map(|c| image.column(c).text_at(id));
                rows.push(cols.iter().cloned().zip(cells).collect());
            }
        }
        rows
    }

    /// A copied row's text: its `- c: v` lines joined by `\n`, the text
    /// the store embedded and the relevance prompt held.
    pub(super) fn row_text(row: &CopiedRow) -> String {
        let lines: Vec<String> = row.iter().map(|(c, v)| format!("- {c}: {v}")).collect();
        lines.join("\n")
    }

    pub(super) fn relevance(question: &str, row: &CopiedRow) -> String {
        relevance_prompt(question, &row_text(row))
    }

    pub(super) fn answer(question: &str, rows: &[CopiedRow], list_format: bool) -> String {
        if list_format {
            answer_list_prompt(question, rows)
        } else {
            answer_free_prompt(question, rows)
        }
    }

    /// Position of column `name` (case-insensitive).
    fn position(columns: &[String], name: &str) -> SqlResult<usize> {
        columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .ok_or_else(|| SqlError::Binding(format!("no such column: {name}")))
    }

    /// Keep the rows whose `column` cell passes `keep`.
    fn retain(
        (columns, mut rows): Table,
        column: &str,
        mut keep: impl FnMut(&Value) -> bool,
    ) -> SqlResult<Table> {
        let i = position(&columns, column)?;
        rows.retain(|r| keep(&r[i]));
        Ok((columns, rows))
    }

    /// Stable-sort the rows by the cut's column (`Value::total_cmp`,
    /// reversed when descending).
    fn sorted((columns, mut rows): Table, cut: &CutSpec) -> SqlResult<Table> {
        let i = position(&columns, &cut.sort_by)?;
        rows.sort_by(|a, b| {
            let ord = a[i].total_cmp(&b[i]);
            if cut.descending {
                ord.reverse()
            } else {
                ord
            }
        });
        Ok((columns, rows))
    }

    pub(super) fn predicate(table: Table, pred: &SemPredicate) -> Result<Table, String> {
        match pred {
            SemPredicate::NumCmp { attr, over, value } => {
                retain(table, attr, |v| match v.as_f64() {
                    Some(x) => {
                        if *over {
                            x > *value
                        } else {
                            x < *value
                        }
                    }
                    None => false,
                })
            }
            SemPredicate::TextEq { attr, value } => {
                let as_num: Option<f64> = value.trim().parse().ok();
                retain(table, attr, |v| match (v.as_str(), v.as_f64(), as_num) {
                    (Some(s), _, _) => s.eq_ignore_ascii_case(value),
                    (None, Some(x), Some(y)) => x == y,
                    _ => false,
                })
            }
            SemPredicate::TextEqAny { columns, value } => {
                let col = existing_column(&table.0, columns)?;
                retain(table, &col, |v| {
                    v.as_str()
                        .map(|s| s.eq_ignore_ascii_case(value))
                        .unwrap_or(false)
                })
            }
        }
        .map_err(sem_err)
    }

    pub(super) fn cut(table: Table, cut: &CutSpec) -> Result<Table, String> {
        let (columns, mut rows) = sorted(table, cut).map_err(|e| e.to_string())?;
        rows.truncate(cut.k);
        Ok((columns, rows))
    }

    /// Judge the distinct values (first-seen order, `Value` equality),
    /// then keep the rows whose value is among the kept ones.
    pub(super) fn distinct_filter(
        engine: &SemEngine,
        (columns, rows): Table,
        col: &str,
        claim: &SemClaim,
    ) -> Result<Table, String> {
        let i = position(&columns, col).map_err(sem_err)?;
        let mut seen = HashSet::new();
        let unique: Vec<&Value> = rows
            .iter()
            .map(|r| &r[i])
            .filter(|v| seen.insert(*v))
            .collect();
        let texts: Vec<String> = unique.iter().map(|v| v.to_string()).collect();
        let verdicts =
            sem_judge(engine, claim, &texts).map_err(|e| SemError::from(e).to_string())?;
        let kept: HashSet<Value> = unique
            .into_iter()
            .zip(verdicts)
            .filter(|(_, pass)| *pass)
            .map(|(v, _)| v.clone())
            .collect();
        retain((columns, rows), col, |v| kept.contains(v)).map_err(sem_err)
    }

    /// Stable-sort the whole frame, then walk it judging unjudged
    /// values (by their text) in doubling batches until `k` rows pass.
    pub(super) fn early_stop_filter(
        engine: &SemEngine,
        table: Table,
        col: &str,
        claim: &SemClaim,
        cut: &CutSpec,
    ) -> Result<Table, String> {
        let (columns, rows) = sorted(table, cut).map_err(|e| e.to_string())?;
        let idx = position(&columns, col).map_err(sem_err)?;
        let mut verdicts: HashMap<String, bool> = HashMap::new();
        let mut kept: Vec<Vec<Value>> = Vec::new();
        let mut pos = 0usize;
        let mut batch_size = (4 * cut.k).max(16);
        while pos < rows.len() && kept.len() < cut.k {
            let mut batch: Vec<String> = Vec::new();
            let mut in_batch: HashSet<String> = HashSet::new();
            let mut scan = pos;
            while scan < rows.len() && batch.len() < batch_size {
                let v = rows[scan][idx].to_string();
                if !verdicts.contains_key(&v) && in_batch.insert(v.clone()) {
                    batch.push(v);
                }
                scan += 1;
            }
            if !batch.is_empty() {
                let prompts: Vec<String> =
                    batch.iter().map(|v| sem_filter_prompt(claim, v)).collect();
                let answers = engine.complete_batch(&prompts).map_err(|e| e.to_string())?;
                for (v, a) in batch.into_iter().zip(answers) {
                    verdicts.insert(v, a.trim().eq_ignore_ascii_case("true"));
                }
            }
            while pos < scan && kept.len() < cut.k {
                let v = rows[pos][idx].to_string();
                if verdicts.get(&v).copied().unwrap_or(false) {
                    kept.push(rows[pos].clone());
                }
                pos += 1;
            }
            batch_size *= 2;
        }
        Ok((columns, kept))
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Table;
    use super::*;
    use proptest::prelude::{prop_oneof, Just, Strategy};
    use std::sync::Arc;
    use tag_lm::model::{LanguageModel, LmResponse, LmResult};
    use tag_lm::sim::{SimConfig, SimLm};
    use tag_lm::KnowledgeConfig;
    use tag_sql::{optimize_sem, Database, SemOptOptions};

    fn env() -> TagEnv {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE schools (CDSCode INTEGER PRIMARY KEY, School TEXT, City TEXT, \
                                   Longitude REAL, GSoffered TEXT);
             INSERT INTO schools VALUES
               (1, 'Gunn High', 'Palo Alto', -122.1, 'K-12'),
               (2, 'Fresno High', 'Fresno', -119.8, '9-12'),
               (3, 'Lincoln High', 'San Jose', -121.9, '9-12'),
               (4, 'Mission High', 'Fresno', -119.7, 'K-8');",
        )
        .unwrap();
        TagEnv::new(
            db,
            Arc::new(SimLm::new(SimConfig {
                knowledge: KnowledgeConfig {
                    coverage: 1.0,
                    enumeration_coverage: 1.0,
                    seed: 3,
                },
                judgment_noise: 0.0,
                ..SimConfig::default()
            })),
        )
    }

    fn parse(text: &str) -> NlQuery {
        NlQuery::parse(text).expect("canonical question")
    }

    /// A frame plan's steps and generation; panics on a point plan.
    fn frame_plan(plan: &SemPlan) -> (&[SemStep], Option<&Generate>) {
        match plan {
            SemPlan::Frame { steps, gen, .. } => (steps, gen.as_ref()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn superlative_compiles_to_cut_after_filter_over_scan() {
        let q = parse(
            "What is the GSoffered of the schools with the highest Longitude \
             among those located in the Silicon Valley region?",
        );
        let plan = compile_nlq(&q);
        match frame_plan(&plan) {
            ([SemStep::SemFilter { .. }, SemStep::Cut { cut }], None) => {
                assert_eq!(cut.sort_by, "Longitude");
                assert!(cut.descending);
                assert_eq!(cut.k, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_compiles_filters_in_question_order() {
        let q = parse(
            "How many schools with Longitude under -120 and located in the \
             Silicon Valley region are there?",
        );
        let plan = compile_nlq(&q);
        // Exact predicate first, semantic filter last (it came last).
        assert!(
            matches!(
                frame_plan(&plan),
                ([SemStep::Predicate { .. }, SemStep::SemFilter { .. }], None)
            ),
            "{plan:?}"
        );
    }

    #[test]
    fn list_compiles_to_bare_filters() {
        let q = parse("List the School of schools located in the Bay Area region.");
        let plan = compile_nlq(&q);
        assert!(matches!(
            frame_plan(&plan),
            ([SemStep::SemFilter { .. }], None)
        ));
    }

    #[test]
    fn topk_compiles_to_cut() {
        let q = parse(
            "List the top 3 schools by Longitude: give their School \
             among those located in the Bay Area region.",
        );
        match frame_plan(&compile_nlq(&q)) {
            ([.., SemStep::Cut { cut }], None) => {
                assert_eq!(cut.k, 3);
                assert!(cut.descending);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn semantic_rank_compiles_to_cut_then_semtopk() {
        let q = parse(
            "Of the 5 posts with the highest ViewCount, list their Title in order \
             of most technical Title to least technical Title.",
        );
        match frame_plan(&compile_nlq(&q)) {
            (
                [SemStep::Cut { .. }, SemStep::SemTopK {
                    on_attr,
                    property,
                    k,
                }],
                None,
            ) => {
                assert_eq!(
                    (on_attr.as_str(), property.as_str(), *k),
                    ("Title", "technical", 5)
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn summarize_and_provide_info_compile_to_generate() {
        for text in [
            "Summarize the Text of comments with PostTitle equal to 'x'.",
            "Provide information about the races held on Sepang International Circuit.",
        ] {
            let q = parse(text);
            match frame_plan(&compile_nlq(&q)) {
                (_, Some(Generate { request, format })) => {
                    assert_eq!(*request, q.render());
                    assert_eq!(*format, GenFormat::FreeOrAgg);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn semantic_filter_compiles_row_wise_unresolved() {
        let q = parse("How many comments whose Text is sarcastic are there?");
        match frame_plan(&compile_nlq(&q)) {
            (
                [SemStep::SemFilter {
                    columns,
                    resolve,
                    claim,
                    distinct,
                    ..
                }],
                None,
            ) => {
                assert_eq!(*columns, vec!["Text".to_owned()]);
                assert!(!resolve);
                assert!(
                    !distinct,
                    "naive compile is row-wise; the rewrite adds distinct"
                );
                assert_eq!(
                    *claim,
                    SemClaimSpec::Property {
                        word: "sarcastic".into()
                    }
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multihop_appended_texteq_sinks_below_semantic_filter() {
        // Multi-hop pushes a TextEq constraint after existing knowledge
        // filters; pushdown must sink it below the semantic filter.
        let mut q = parse("How many schools located in the Silicon Valley region are there?");
        if let NlQuery::Count { filters, .. } = &mut q {
            filters.push(tag_lm::nlq::NlFilter::TextEq {
                attr: "School".into(),
                value: "Gunn High".into(),
            });
        }
        let naive = compile_nlq(&q);
        assert!(
            matches!(frame_plan(&naive), ([.., SemStep::Predicate { .. }], None)),
            "{naive:?}"
        );
        let opt = optimize_sem(naive, &SemOptOptions::all());
        assert!(
            matches!(
                frame_plan(&opt),
                ([SemStep::Predicate { .. }, SemStep::SemFilter { .. }], None)
            ),
            "pushdown sank the predicate: {opt:?}"
        );
    }

    #[test]
    fn optimizer_reduces_lm_prompts_not_answers() {
        let q = parse(
            "What is the GSoffered of the schools with the highest Longitude \
             among those located in the Silicon Valley region?",
        );
        let e = env();

        e.set_sem_opt(SemOptOptions::none());
        e.reset_metrics();
        let naive_frame = run_semplan(&e, compile_nlq(&q), &nlq_reads(&q)).unwrap();
        let naive_calls = e.lm.calls();

        e.set_sem_opt(SemOptOptions::all());
        e.reset_metrics();
        let (trace, sink) = tag_trace::Trace::memory();
        let opt_frame =
            tag_trace::with_trace(&trace, || run_semplan(&e, compile_nlq(&q), &nlq_reads(&q)))
                .unwrap();
        let opt_calls = e.lm.calls();

        assert_eq!(naive_frame, opt_frame, "rewrites must not change answers");
        // Naive judges all 3 distinct cities; early-stop stops after the
        // highest-Longitude city that passes. Both judge every city here
        // (the top two cities fail), so assert no-regression plus the
        // submitted-prompt drop from the distinct rewrite.
        assert!(opt_calls <= naive_calls, "{opt_calls} vs {naive_calls}");
        // The semantic filter's judgments land on its own span.
        let spans = sink.take();
        assert!(
            spans.iter().any(|s| {
                (s.label == "sem_filter" || s.label.starts_with("SemFilter")) && s.lm.calls > 0
            }),
            "{spans:#?}"
        );
    }

    #[test]
    fn early_stop_judges_fewer_values() {
        let mut db = Database::new();
        db.execute("CREATE TABLE cities (name TEXT, City TEXT, pop INTEGER)")
            .unwrap();
        // 30 distinct city values; the top-population row is a genuine
        // Silicon Valley city, the rest are unknown to the model.
        for i in 0..30 {
            let city = if i == 29 {
                "San Jose".to_owned()
            } else {
                format!("Elsewhere {i}")
            };
            db.execute(&format!(
                "INSERT INTO cities VALUES ('c{i}', '{city}', {})",
                1000 + i
            ))
            .unwrap();
        }
        let e = TagEnv::new(
            db,
            Arc::new(SimLm::new(SimConfig {
                knowledge: KnowledgeConfig {
                    coverage: 1.0,
                    enumeration_coverage: 1.0,
                    seed: 3,
                },
                judgment_noise: 0.0,
                ..SimConfig::default()
            })),
        );
        let q = parse(
            "What is the name of the cities with the highest pop \
             among those located in the Silicon Valley region?",
        );

        e.set_sem_opt(SemOptOptions::none());
        e.reset_metrics();
        let naive = run_semplan(&e, compile_nlq(&q), &nlq_reads(&q)).unwrap();
        let naive_prompts = e.engine.stats().lm_prompts;

        e.set_sem_opt(SemOptOptions::all());
        e.reset_metrics();
        let opt = run_semplan(&e, compile_nlq(&q), &nlq_reads(&q)).unwrap();
        let opt_prompts = e.engine.stats().lm_prompts;

        assert_eq!(naive, opt);
        // Naive judges all 30 distinct values; early-stop stops after
        // the first sorted batch (16 values) because the top row passes.
        assert!(
            opt_prompts < naive_prompts,
            "early stop must judge fewer values: {opt_prompts} vs {naive_prompts}"
        );
    }

    /// The data points a table frame's prompt held before prompts were
    /// written from the frame: each selected row's column names beside
    /// its cells' text.
    fn reference_points(frame: &SemFrame) -> Vec<Vec<(String, String)>> {
        frame
            .selection()
            .iter()
            .map(|&id| {
                let cells = (0..frame.columns.len()).map(|c| frame.column(c).text_at(id as usize));
                frame.columns.iter().cloned().zip(cells).collect()
            })
            .collect()
    }

    #[test]
    fn table_prompts_are_the_prompts_of_their_points() {
        let columns = ["id", "x", "name", "any"].map(String::from).to_vec();
        let rows = [
            [
                Value::Int(1),
                Value::Float(-0.0),
                Value::text("Gunn High"),
                Value::Int(7),
            ],
            [
                Value::Null,
                Value::Float(0.1),
                Value::Null,
                Value::text("seven"),
            ],
            [
                Value::Int(-3),
                Value::Float(1e21),
                Value::text(""),
                Value::Float(7.5),
            ],
            [Value::Int(4), Value::Null, Value::text("a: b"), Value::Null],
        ];
        let table = SemFrame::from_rows(columns, rows);
        let env = env();
        let kinds: Vec<&str> = (0..4)
            .map(|c| match table.column(c) {
                ColumnData::Int { .. } => "int",
                ColumnData::Float { .. } => "float",
                ColumnData::Text { .. } => "text",
                ColumnData::Mixed(_) => "mixed",
            })
            .collect();
        assert_eq!(kinds, ["int", "float", "text", "mixed"]);
        let sorted = "SELECT \"School\", \"Longitude\" FROM schools \
                      WHERE \"CDSCode\" <> 2 ORDER BY \"Longitude\"";
        let frames = [
            table.clone(),
            table.clone().with_selection(vec![3, 0, 2]),
            table.with_selection(Vec::new()),
            // Text2SQL + LM's frame when its retrieval fails.
            SemFrame::empty(),
            env.scan("SELECT * FROM schools").unwrap(),
            env.scan(sorted).unwrap(),
        ];
        let request = "How many schools are there?";
        for frame in &frames {
            let points = reference_points(frame);
            for list_format in [true, false] {
                assert_eq!(
                    answer_prompt_over(frame, request, list_format),
                    reference::answer(request, &points, list_format)
                );
            }
        }
        let reordered = answer_prompt_over(&frames[1], request, true);
        assert!(reordered.contains("Data Point 1:\n- id: 4\n- x: NULL\n"));
    }

    /// An env of several tables: one before an empty one, one of every
    /// cell kind (`Int`, `Float`, `Text`, NULL) after it, and an empty
    /// table last.
    fn point_env() -> TagEnv {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE a_races (year INTEGER, name TEXT);
             INSERT INTO a_races VALUES (1999, 'Malaysian Grand Prix'), (2000, 'Italian Grand Prix');
             CREATE TABLE b_empty (x INTEGER);
             CREATE TABLE c_cells (id INTEGER, x REAL, name TEXT, note TEXT);
             INSERT INTO c_cells VALUES
               (1, -0.0, 'Gunn High', NULL),
               (NULL, 0.1, 'a: b', 'x'),
               (-3, 1e21, '', 'Sepang circuit');
             CREATE TABLE d_empty (y TEXT);",
        )
        .unwrap();
        TagEnv::new(db, Arc::new(SimLm::new(SimConfig::default())))
    }

    /// Prompts written from row store ids are the prompts the copy path
    /// wrote from copied rows, and every row's embedded text is the copy
    /// path's serialization (which keeps `retrieval_golden.txt` fixed).
    #[test]
    fn point_prompts_are_the_copy_paths_prompts() {
        let env = point_env();
        let rows = reference::copied_rows(&env);
        assert_eq!(env.row_store().len(), rows.len());
        for (id, row) in rows.iter().enumerate() {
            let mut text = String::new();
            env.push_point_text(id, &mut text);
            assert_eq!(text, reference::row_text(row), "row {id}");
        }
        // The first and last row of every table with rows.
        let ids = [0, 1, 2, 4];
        let cells = [2, 3].map(|id| reference::row_text(&rows[id]));
        assert_eq!(
            cells,
            [
                "- id: 1\n- x: -0\n- name: Gunn High\n- note: NULL",
                "- id: NULL\n- x: 0.1\n- name: a: b\n- note: x"
            ]
        );
        let question = "Which Grand Prix was held on the Sepang circuit?";
        for &id in &ids {
            assert_eq!(
                relevance_prompt_over(question, |s| env.push_point_text(id, s)),
                reference::relevance(question, &rows[id])
            );
        }
        let id_lists = [ids.to_vec(), vec![4, 0, 2], Vec::new()];
        for points in &id_lists {
            let copied: Vec<_> = points.iter().map(|&id| rows[id].clone()).collect();
            for list_format in [true, false] {
                assert_eq!(
                    answer_prompt_over_points(&env, points, question, list_format),
                    reference::answer(question, &copied, list_format)
                );
            }
        }
    }

    /// A `SimLm` that remembers every prompt it was sent, in order.
    struct RecordingLm {
        inner: SimLm,
        prompts: std::sync::Mutex<Vec<String>>,
    }

    impl LanguageModel for RecordingLm {
        fn generate_batch(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
            self.prompts
                .lock()
                .unwrap()
                .extend(requests.iter().map(|r| r.prompt.clone()));
            self.inner.generate_batch(requests)
        }

        fn elapsed_seconds(&self) -> f64 {
            self.inner.elapsed_seconds()
        }

        fn reset_metrics(&self) {
            self.prompts.lock().unwrap().clear();
            self.inner.reset_metrics()
        }

        fn batches(&self) -> u64 {
            self.inner.batches()
        }

        fn calls(&self) -> u64 {
            self.inner.calls()
        }

        fn context_window(&self) -> usize {
            self.inner.context_window()
        }
    }

    /// A table `t (id, k, v)` of `rows` under the declared types, over a
    /// recording LM with the default (noisy) judge, so verdicts mix.
    fn recorded_env(
        rows: &[(Value, Value)],
        k_type: &str,
        v_type: &str,
    ) -> (TagEnv, Arc<RecordingLm>) {
        recorded_env_with(rows, k_type, v_type, SimConfig::default())
    }

    fn recorded_env_with(
        rows: &[(Value, Value)],
        k_type: &str,
        v_type: &str,
        config: SimConfig,
    ) -> (TagEnv, Arc<RecordingLm>) {
        let mut db = Database::new();
        db.execute(&format!(
            "CREATE TABLE t (id INTEGER, k {k_type}, v {v_type})"
        ))
        .unwrap();
        let table = db.catalog_mut().table_mut("t").unwrap();
        for (i, (k, v)) in rows.iter().enumerate() {
            table
                .insert(vec![Value::Int(i as i64), k.clone(), v.clone()])
                .unwrap();
        }
        let lm = Arc::new(RecordingLm {
            inner: SimLm::new(config),
            prompts: std::sync::Mutex::new(Vec::new()),
        });
        (TagEnv::new(db, lm.clone()), lm)
    }

    /// A cell holding U+001E and U+001F reaches the RAG and Retrieval +
    /// LM Rank prompts verbatim: no separator splits it into a made-up
    /// field.
    #[test]
    fn separator_cells_reach_retrieval_prompts_verbatim() {
        let mut db = Database::new();
        db.execute("CREATE TABLE posts (Id INTEGER, Title TEXT, Score INTEGER)")
            .unwrap();
        let posts = db.catalog_mut().table_mut("posts").unwrap();
        for (id, title) in [(1, "sepang\u{1e}circuit\u{1f}notes"), (2, "monza notes")] {
            posts
                .insert(vec![Value::Int(id), Value::text(title), Value::Int(5)])
                .unwrap();
        }
        let lm = Arc::new(RecordingLm {
            inner: SimLm::new(SimConfig::default()),
            prompts: std::sync::Mutex::new(Vec::new()),
        });
        let env = TagEnv::new(db, lm.clone());
        let question = "Which posts are about the sepang circuit?";
        // RAG's answer prompt; Retrieval + LM Rank's relevance prompt of
        // the row and its answer prompt.
        for (plan, holding) in [
            (compile_rag(question, 10, true), 1),
            (compile_rerank(question, 30, 10, true), 2),
        ] {
            env.reset_metrics();
            run_semplan(&env, plan, &SemReads::All).unwrap();
            let prompts = std::mem::take(&mut *lm.prompts.lock().unwrap());
            let verbatim = "- Title: sepang\u{1e}circuit\u{1f}notes\n";
            let held = prompts.iter().filter(|p| p.contains(verbatim)).count();
            assert_eq!(held, holding, "{prompts:?}");
            for prompt in &prompts {
                assert!(!prompt.contains("- circuit:"), "{prompt:?}");
            }
        }
    }

    /// What one run showed: its rows (as `Debug`, so `Int(1)` and
    /// `Float(1.0)` differ) or its error, the prompts the LM saw, its
    /// calls and rounds, and each span's label and LM usage (calls,
    /// rounds, cache hits, tokens) from running it traced under a root
    /// span.
    fn observe(
        env: &TagEnv,
        lm: &RecordingLm,
        run: impl FnOnce() -> Result<Table, String>,
    ) -> (String, Vec<String>, u64, u64, String) {
        env.reset_metrics();
        let (trace, sink) = tag_trace::Trace::memory();
        let result = tag_trace::with_trace(&trace, || {
            let _root = tag_trace::span(tag_trace::Stage::Exec, "observe");
            run()
        });
        let outcome = match result {
            Ok((columns, rows)) => format!("{columns:?} {rows:?}"),
            Err(e) => e,
        };
        let prompts = std::mem::take(&mut *lm.prompts.lock().unwrap());
        let usage: Vec<_> = sink.take().into_iter().map(|s| (s.label, s.lm)).collect();
        (
            outcome,
            prompts,
            lm.calls(),
            lm.batches(),
            format!("{usage:?}"),
        )
    }

    /// Every kernel over `frame` against its reference over the same
    /// rows, copied out: rows, row order, prompts, LM calls and rounds.
    /// `k` sizes the cuts.
    fn check_kernels(
        env: &TagEnv,
        lm: &RecordingLm,
        frame: &SemFrame,
        k: usize,
        descending: bool,
    ) -> Result<(), String> {
        let runtime = SemRuntime::new(env);
        let claim = SemClaim::CityInRegion {
            region: "Bay Area".into(),
        };
        let rows = || (frame.columns.clone(), frame.rows());
        let cut = |sort_by: &str| CutSpec {
            sort_by: sort_by.into(),
            descending,
            k,
        };
        let compare = |name: &str,
                       kernel: &dyn Fn() -> Result<SemFrame, String>,
                       reference: &dyn Fn() -> Result<Table, String>| {
            let got = observe(env, lm, || kernel().map(|f| (f.columns.clone(), f.rows())));
            let want = observe(env, lm, reference);
            if got == want {
                return Ok(());
            }
            Err(format!(
                "{name} (k={k}, desc={descending}) over {frame:?}\n  kernel:    {got:?}\n  reference: {want:?}"
            ))
        };
        let predicates = [
            SemPredicate::NumCmp {
                attr: "k".into(),
                over: descending,
                value: 0.5,
            },
            SemPredicate::NumCmp {
                attr: "K".into(),
                over: !descending,
                value: -0.0,
            },
            SemPredicate::TextEq {
                attr: "v".into(),
                value: "san jose".into(),
            },
            SemPredicate::TextEq {
                attr: "v".into(),
                value: " 1 ".into(),
            },
            SemPredicate::TextEqAny {
                columns: vec!["nope".into(), "V".into()],
                value: "NULL".into(),
            },
            SemPredicate::TextEqAny {
                columns: vec!["nope".into()],
                value: "x".into(),
            },
        ];
        for pred in &predicates {
            compare(
                &format!("{pred:?}"),
                &|| exec_predicate(frame.clone(), pred),
                &|| reference::predicate(rows(), pred),
            )?;
        }
        for sort_by in ["k", "v", "missing"] {
            compare(
                &format!("cut {sort_by}"),
                &|| exec_cut(frame.clone(), &cut(sort_by)).map_err(|e| e.to_string()),
                &|| reference::cut(rows(), &cut(sort_by)),
            )?;
        }
        for col in ["v", "k", "missing"] {
            compare(
                &format!("distinct {col}"),
                &|| runtime.distinct_filter(frame.clone(), col, &claim),
                &|| reference::distinct_filter(&env.engine, rows(), col, &claim),
            )?;
            for sort_by in ["k", "missing"] {
                let cut = cut(sort_by);
                compare(
                    &format!("early stop {col} by {sort_by}"),
                    &|| runtime.early_stop_filter(frame.clone(), col, &claim, &cut),
                    &|| reference::early_stop_filter(&env.engine, rows(), col, &claim, &cut),
                )?;
            }
        }
        Ok(())
    }

    /// The frames a kernel meets: a filtered, projected scan (a selection
    /// over a view of the table image), the full scan, and an `Input`
    /// frame (one owned chunk, where `Mixed` columns live).
    fn frames(env: &TagEnv, rows: &[(Value, Value)]) -> Vec<SemFrame> {
        let input = SemFrame::from_rows(
            vec!["k".into(), "v".into()],
            rows.iter().map(|(k, v)| [k.clone(), v.clone()]),
        );
        vec![
            env.scan("SELECT \"k\", \"v\" FROM t WHERE \"id\" % 3 <> 1")
                .unwrap(),
            env.scan("SELECT * FROM t").unwrap(),
            input,
        ]
    }

    fn key_cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-2i64..3).prop_map(Value::Int),
            (-2i64..3).prop_map(|i| Value::Float(i as f64 / 2.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-f64::NAN)),
            Just(Value::text("1")),
        ]
    }

    fn value_cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            Just(Value::Int(1)),
            Just(Value::Float(1.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(0.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-f64::NAN)),
            Just(Value::text("1")),
            Just(Value::text("NULL")),
            prop_oneof![
                Just("San Jose"),
                Just("Oakland"),
                Just("Palo Alto"),
                Just("Fresno"),
                Just("San Diego"),
            ]
            .prop_map(Value::text),
            (0i64..30).prop_map(|i| Value::text(format!("Town {i}"))),
        ]
    }

    fn declared() -> impl Strategy<Value = &'static str> {
        prop_oneof![Just("INTEGER"), Just("REAL"), Just("TEXT")]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The selection kernels against the row-major reference over
        /// NULL, NaN of either sign (two values, one text), `-0.0`,
        /// `Int(1)` next to `Text("1")` and `Float(1.0)`, `Text("NULL")`
        /// next to NULL, tied keys and duplicate values, under every
        /// declared type and in `Mixed` input columns, with k ∈ {0, 1,
        /// n, n+5}.
        #[test]
        fn kernels_match_the_reference(
            rows in proptest::collection::vec((key_cell(), value_cell()), 0..40),
            k_type in declared(),
            v_type in declared(),
            descending in proptest::prelude::any::<bool>(),
        ) {
            let (env, lm) = recorded_env(&rows, k_type, v_type);
            for frame in frames(&env, &rows) {
                let n = frame.len();
                for k in [0, 1, n, n + 5] {
                    let checked = check_kernels(&env, &lm, &frame, k, descending);
                    proptest::prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
                }
            }
        }
    }

    /// Early stop over more distinct values than one batch holds, few of
    /// them passing: the batches double over several rounds, and every
    /// round's prompts are the reference's.
    #[test]
    fn early_stop_rounds_match_the_reference() {
        let rows: Vec<(Value, Value)> = (0..300)
            .map(|i| {
                let city = match i % 97 {
                    13 => "San Jose".to_owned(),
                    50 => "Oakland".to_owned(),
                    _ => format!("Town {}", i % 150),
                };
                (Value::Float(((i * 37) % 101) as f64), Value::text(city))
            })
            .collect();
        let (env, lm) = recorded_env(&rows, "REAL", "TEXT");
        let mut rounds = 0;
        for frame in frames(&env, &rows) {
            for k in [1, 3, 8] {
                for descending in [false, true] {
                    check_kernels(&env, &lm, &frame, k, descending).unwrap();
                    let cut = CutSpec {
                        sort_by: "k".into(),
                        descending,
                        k,
                    };
                    let claim = SemClaim::CityInRegion {
                        region: "Bay Area".into(),
                    };
                    env.reset_metrics();
                    SemRuntime::new(&env)
                        .early_stop_filter(frame.clone(), "v", &claim, &cut)
                        .unwrap();
                    rounds = rounds.max(lm.batches());
                }
            }
        }
        assert!(rounds >= 3, "the fixture needs several batches: {rounds}");
    }

    /// The first batch's last value is the first passing one: early stop
    /// counts its row, so one round is enough for `k = 1`.
    #[test]
    fn early_stop_counts_the_boundary_row() {
        let rows: Vec<(Value, Value)> = (0..40)
            .map(|i| {
                let city = match i {
                    15 | 30 => "San Jose".to_owned(),
                    _ => format!("Town {i}"),
                };
                (Value::Int(100 - i), Value::text(city))
            })
            .collect();
        let judge = SimConfig {
            knowledge: KnowledgeConfig {
                coverage: 1.0,
                enumeration_coverage: 1.0,
                seed: 3,
            },
            judgment_noise: 0.0,
            ..SimConfig::default()
        };
        let (env, lm) = recorded_env_with(&rows, "INTEGER", "TEXT", judge);
        for frame in frames(&env, &rows) {
            check_kernels(&env, &lm, &frame, 1, true).unwrap();
        }
        let cut = CutSpec {
            sort_by: "k".into(),
            descending: true,
            k: 1,
        };
        let claim = SemClaim::CityInRegion {
            region: "Bay Area".into(),
        };
        env.reset_metrics();
        let frame = env.scan("SELECT * FROM t").unwrap();
        let kept = SemRuntime::new(&env)
            .early_stop_filter(frame, "v", &claim, &cut)
            .unwrap();
        assert_eq!(kept.rows()[0][0], Value::Int(15));
        assert_eq!((lm.calls(), lm.batches()), (16, 1));
    }
}
