//! `SimLm`: the deterministic simulated language model.
//!
//! Plays the role of Llama-3.1-70B-Instruct in the reproduction. Every
//! capability the paper's pipelines rely on is implemented behind the
//! same plain-text prompt interface a served model would expose:
//!
//! - **Text2SQL** over BIRD-style schema prompts (Appendix B.1);
//! - **answer generation** over in-context data points (Appendix B.2),
//!   with a long-context *attention model* that loses items as the
//!   context grows — the paper's observed failure of single-call
//!   generation over many rows;
//! - **semantic-operator primitives** (boolean filter, pairwise
//!   comparison, relevance scoring, summarization) used by the
//!   LOTUS-style runtime and LM UDFs;
//! - **world knowledge** with imperfect per-fact recall, and
//!   **lexicon-based reasoning** with borderline-judgment noise.
//!
//! All behaviour is a deterministic function of (config, prompt).

use crate::cost::{CostModel, VirtualClock};
use crate::knowledge::{KnowledgeBase, KnowledgeConfig};
use crate::lexicon;
use crate::model::{LanguageModel, LmError, LmRequest, LmResponse, LmResult};
use crate::nlq::{CmpOp, NlFilter, NlQuery, SemProperty};
use crate::prompts::{
    self, parse_answer_prompt, parse_relevance_prompt, parse_sem_agg_prompt,
    parse_sem_compare_prompt, parse_sem_filter_prompt, DataPoint, SemClaim,
};
use crate::summarize;
use crate::text2sql::{parse_schemas, synthesize_sql};
use crate::tokenizer::count_tokens;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Configuration of the simulated model.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed for all deterministic noise.
    pub seed: u64,
    /// World-knowledge recall settings.
    pub knowledge: KnowledgeConfig,
    /// Context window in tokens (Llama-3.1 serving configs commonly cap
    /// well below the architectural maximum).
    pub context_window: usize,
    /// Inference cost model.
    pub cost: CostModel,
    /// Number of in-context data points the model handles reliably;
    /// beyond this, per-item recall decays.
    pub attention_span: usize,
    /// Probability of flipping a *borderline* semantic judgment.
    pub judgment_noise: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x7461_6721,
            knowledge: KnowledgeConfig::default(),
            context_window: 4096,
            cost: CostModel::default(),
            attention_span: 24,
            judgment_noise: 0.3,
        }
    }
}

/// The simulated language model.
pub struct SimLm {
    config: SimConfig,
    kb: KnowledgeBase,
    clock: VirtualClock,
}

impl Default for SimLm {
    fn default() -> Self {
        Self::new(SimConfig::default())
    }
}

impl SimLm {
    /// Build a model from configuration.
    pub fn new(config: SimConfig) -> Self {
        let kb = KnowledgeBase::new(config.knowledge.clone());
        SimLm {
            config,
            kb,
            clock: VirtualClock::new(),
        }
    }

    /// The model's knowledge base (shared with oracles in tests).
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The model's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Deterministic uniform sample in [0, 1) keyed by strings.
    fn coin(&self, parts: &[&str]) -> f64 {
        let mut h = DefaultHasher::new();
        self.config.seed.hash(&mut h);
        for p in parts {
            p.hash(&mut h);
        }
        (h.finish() % 100_000) as f64 / 100_000.0
    }

    /// A semantic yes/no with borderline noise: judgments near the
    /// decision threshold flip with `judgment_noise` probability.
    /// `in_context` marks judgments made while scanning a long prompt of
    /// data points (one-pass generation) rather than a dedicated per-row
    /// prompt — empirically much less reliable, so the borderline widens
    /// and the flip rate rises.
    fn noisy_threshold(&self, score: f64, threshold: f64, key: &str, in_context: bool) -> bool {
        let verdict = score > threshold;
        let margin = (score - threshold).abs();
        let (zone, noise) = if in_context {
            (0.3, (self.config.judgment_noise * 1.8).min(0.5))
        } else {
            (0.15, self.config.judgment_noise)
        };
        if margin < zone && self.coin(&["flip", key]) < noise {
            !verdict
        } else {
            verdict
        }
    }

    fn property_score(property: SemProperty, text: &str) -> f64 {
        match property {
            SemProperty::Positive => lexicon::sentiment_score(text),
            SemProperty::Negative => -lexicon::sentiment_score(text),
            SemProperty::Sarcastic => lexicon::sarcasm_score(text),
            SemProperty::Technical => lexicon::technicality_score(text),
        }
    }

    fn property_threshold(property: SemProperty) -> f64 {
        match property {
            SemProperty::Positive | SemProperty::Negative => 0.15,
            SemProperty::Sarcastic => 0.35,
            SemProperty::Technical => 0.30,
        }
    }

    /// Judge a semantic property of a text value (dedicated prompt).
    fn judge_property(&self, property: SemProperty, text: &str) -> bool {
        let score = Self::property_score(property, text);
        let threshold = Self::property_threshold(property);
        self.noisy_threshold(score, threshold, text, false)
    }

    /// The same judgment made mid-context during one-pass generation.
    fn judge_property_in_context(&self, property: SemProperty, text: &str) -> bool {
        let score = Self::property_score(property, text);
        let threshold = Self::property_threshold(property);
        self.noisy_threshold(score, threshold, text, true)
    }

    // ---- prompt handlers ------------------------------------------------

    fn handle_filter(&self, claim: &SemClaim, value: &str) -> String {
        let verdict = match claim {
            SemClaim::CityInRegion { region } => self
                .kb
                .is_city_in_region(value, region)
                .unwrap_or_else(|| self.coin(&["guess", value, region]) < 0.15),
            SemClaim::ClassicMovie => self
                .kb
                .is_classic_movie(value)
                .unwrap_or_else(|| self.coin(&["guess-classic", value]) < 0.2),
            SemClaim::EuCountry => self
                .kb
                .is_eu_member(value)
                .unwrap_or_else(|| self.coin(&["guess-eu", value]) < 0.3),
            SemClaim::CountryInContinent { continent } => match self.kb.country_continent(value) {
                Some(c) => c.eq_ignore_ascii_case(continent),
                None => self.coin(&["guess-cont", value, continent]) < 0.2,
            },
            SemClaim::CompanyInVertical { vertical } => match self.kb.company_vertical(value) {
                Some(v) => v.eq_ignore_ascii_case(vertical),
                None => self.coin(&["guess-vert", value, vertical]) < 0.2,
            },
            SemClaim::CircuitInContinent { continent } => match self.kb.circuit_fact(value) {
                Some(fact) => self
                    .kb
                    .country_continent(fact.country)
                    .map(|c| c.eq_ignore_ascii_case(continent))
                    .unwrap_or(false),
                None => self.coin(&["guess-circ", value, continent]) < 0.2,
            },
            SemClaim::HeightTallerThan { person } => {
                let own: Option<f64> = value.trim().parse().ok();
                match (own, self.kb.person_height_cm(person)) {
                    (Some(h), Some(ref_h)) => h > ref_h,
                    _ => self.coin(&["guess-tall", value, person]) < 0.5,
                }
            }
            SemClaim::Property(p) => self.judge_property(*p, value),
        };
        if verdict { "TRUE" } else { "FALSE" }.to_owned()
    }

    fn handle_compare(&self, property: SemProperty, a: &str, b: &str) -> String {
        let sa = Self::property_score(property, a);
        let sb = Self::property_score(property, b);
        // Near-ties are answered inconsistently, like a real judge model.
        if (sa - sb).abs() < 0.28 {
            return if self.coin(&["cmp", a, b]) < 0.5 {
                "A"
            } else {
                "B"
            }
            .to_owned();
        }
        if sa > sb { "A" } else { "B" }.to_owned()
    }

    fn handle_relevance(&self, question: &str, point: &str) -> String {
        // Lexical-overlap judgment, as a reranker LM effectively does for
        // keyword-style questions: the share of the question's distinct
        // words the point holds, words compared ASCII-case-insensitively.
        let mut asked: Vec<(&str, bool)> = Vec::new();
        for w in relevance_words(question) {
            if !asked.iter().any(|(a, _)| a.eq_ignore_ascii_case(w)) {
                asked.push((w, false));
            }
        }
        let mut point_words = relevance_words(point).peekable();
        if asked.is_empty() || point_words.peek().is_none() {
            return "0.0".to_owned();
        }
        for w in point_words {
            for (a, seen) in &mut asked {
                *seen |= a.eq_ignore_ascii_case(w);
            }
        }
        let inter = asked.iter().filter(|(_, seen)| *seen).count() as f64;
        let score = (inter / asked.len() as f64).min(1.0);
        // Mild deterministic jitter: rerankers are not perfectly stable.
        let jitter = (self.coin(&["rel", question, point]) - 0.5) * 0.1;
        format!("{:.2}", (score + jitter).clamp(0.0, 1.0))
    }

    fn handle_agg(&self, instruction: &str, items: &[String]) -> String {
        let _ = instruction;
        // Treat each item as at least one sentence so summarization can
        // actually compress lists of period-free records.
        let joined = items
            .iter()
            .map(|i| {
                let t = i.trim_end();
                if t.ends_with(['.', '!', '?']) {
                    t.to_owned()
                } else {
                    format!("{t}.")
                }
            })
            .collect::<Vec<_>>()
            .join(" ");
        let summary = summarize::summarize_text(&joined, 6);
        // A generation budget applies, as with any served model.
        crate::tokenizer::truncate_to_tokens(&summary, 220).0
    }

    fn handle_text2sql(&self, prompt: &str) -> String {
        let tables = parse_schemas(prompt);
        let retrieval_only = prompt.contains("retrieves the rows relevant");
        // The question is the last `-- ` comment line before the trailing
        // SELECT.
        let question = prompt
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("-- "))
            .unwrap_or_default()
            .to_owned();
        let sql = match NlQuery::parse(&question) {
            Some(q) => synthesize_sql(&q, &tables, &self.kb, retrieval_only, self.config.seed),
            None => {
                // Question not understood: guess a scan of the first table.
                let t = tables
                    .first()
                    .map(|t| t.name.clone())
                    .unwrap_or_else(|| "unknown_table".to_owned());
                format!("SELECT * FROM {t}")
            }
        };
        // The prompt ends with "SELECT"; the completion is the remainder.
        sql.strip_prefix("SELECT")
            .map(|s| s.trim_start().to_owned())
            .unwrap_or(sql)
    }

    /// The long-context attention model: which data points does the model
    /// actually take into account for this question?
    fn attended<'a>(&self, question: &str, points: &'a [DataPoint]) -> Vec<(usize, &'a DataPoint)> {
        let n = points.len();
        if n <= self.config.attention_span {
            return points.iter().enumerate().collect();
        }
        let p_keep = (self.config.attention_span as f64 / n as f64)
            .powf(0.35)
            .clamp(0.0, 1.0);
        points
            .iter()
            .enumerate()
            .filter(|(i, _)| self.coin(&["attn", question, &i.to_string()]) < p_keep)
            .collect()
    }

    fn point_field<'a>(point: &'a DataPoint, candidates: &[&str]) -> Option<&'a str> {
        for cand in candidates {
            if let Some((_, v)) = point.iter().find(|(k, _)| k.eq_ignore_ascii_case(cand)) {
                return Some(v.as_str());
            }
        }
        None
    }

    fn point_number(point: &DataPoint, attr: &str) -> Option<f64> {
        Self::point_field(point, &[attr]).and_then(|v| v.trim().parse().ok())
    }

    /// Evaluate one filter clause against one data point.
    fn filter_matches(&self, f: &NlFilter, point: &DataPoint) -> bool {
        match f {
            NlFilter::NumCmp { attr, op, value } => match Self::point_number(point, attr) {
                Some(x) => match op {
                    CmpOp::Over => x > *value,
                    CmpOp::Under => x < *value,
                },
                None => false,
            },
            NlFilter::TextEq { attr, value } => Self::point_field(point, &[attr])
                .map(|v| v.eq_ignore_ascii_case(value))
                .unwrap_or(false),
            NlFilter::AtCircuit { circuit } => {
                Self::point_field(point, &["Circuit", "circuit", "CircuitName"])
                    .map(|v| v.eq_ignore_ascii_case(circuit))
                    .unwrap_or(false)
            }
            NlFilter::InRegion { region } => match Self::point_field(point, &["City", "city"]) {
                Some(city) => self
                    .kb
                    .is_city_in_region(city, region)
                    .unwrap_or_else(|| self.coin(&["guess", city, region]) < 0.15),
                None => false,
            },
            NlFilter::TallerThan { person } => {
                let h = Self::point_field(point, &["height", "Height"])
                    .and_then(|v| v.trim().parse::<f64>().ok());
                match (h, self.kb.person_height_cm(person)) {
                    (Some(h), Some(ref_h)) => h > ref_h,
                    (Some(_), None) => self.coin(&["guess-tall", person]) < 0.5,
                    _ => false,
                }
            }
            NlFilter::EuCountry => match Self::point_field(point, &["Country", "country"]) {
                Some(c) => self
                    .kb
                    .is_eu_member(c)
                    .unwrap_or_else(|| self.coin(&["guess-eu", c]) < 0.3),
                None => false,
            },
            NlFilter::CircuitContinent { continent } => {
                match Self::point_field(point, &["Circuit", "circuit"]) {
                    Some(c) => match self.kb.circuit_fact(c) {
                        Some(fact) => self
                            .kb
                            .country_continent(fact.country)
                            .map(|cc| cc.eq_ignore_ascii_case(continent))
                            .unwrap_or(false),
                        None => false,
                    },
                    None => false,
                }
            }
            NlFilter::ClassicMovie => {
                match Self::point_field(point, &["movie_title", "title", "Title"]) {
                    Some(t) => self
                        .kb
                        .is_classic_movie(t)
                        .unwrap_or_else(|| self.coin(&["guess-classic", t]) < 0.2),
                    None => false,
                }
            }
            NlFilter::VerticalIs { vertical } => {
                match Self::point_field(point, &["account_name", "Company", "company"]) {
                    Some(c) => self
                        .kb
                        .company_vertical(c)
                        .map(|v| v.eq_ignore_ascii_case(vertical))
                        .unwrap_or(false),
                    None => false,
                }
            }
            NlFilter::Semantic { attr, property } => match Self::point_field(point, &[attr]) {
                Some(text) => self.judge_property_in_context(*property, text),
                None => false,
            },
        }
    }

    fn handle_answer(&self, question: &str, points: &[DataPoint], list_format: bool) -> String {
        let Some(query) = NlQuery::parse(question) else {
            return if list_format {
                "[]".to_owned()
            } else {
                "I could not determine the answer from the provided data.".to_owned()
            };
        };

        // Aggregation shapes produce free text.
        if matches!(
            &query,
            NlQuery::Summarize { .. } | NlQuery::ProvideInfo { .. }
        ) {
            return self.answer_aggregation(&query, points);
        }

        let attended = self.attended(question, points);
        let matching: Vec<&DataPoint> = attended
            .iter()
            .filter(|(_, p)| query.filters().iter().all(|f| self.filter_matches(f, p)))
            .map(|(_, p)| *p)
            .collect();

        let values: Vec<String> = match &query {
            NlQuery::Count { .. } => vec![matching.len().to_string()],
            NlQuery::Superlative {
                select_attr,
                rank_attr,
                highest,
                ..
            } => {
                let best = matching.iter().max_by(|a, b| {
                    let xa = Self::point_number(a, rank_attr).unwrap_or(f64::NEG_INFINITY);
                    let xb = Self::point_number(b, rank_attr).unwrap_or(f64::NEG_INFINITY);
                    let ord = xa.total_cmp(&xb);
                    if *highest {
                        ord
                    } else {
                        ord.reverse()
                    }
                });
                match best.and_then(|p| Self::point_field(p, &[select_attr])) {
                    Some(v) => vec![v.to_owned()],
                    None => Vec::new(),
                }
            }
            NlQuery::List { select_attr, .. } => matching
                .iter()
                .filter_map(|p| Self::point_field(p, &[select_attr]))
                .map(str::to_owned)
                .collect(),
            NlQuery::TopK {
                select_attr,
                rank_attr,
                k,
                highest,
                ..
            } => {
                let mut rows: Vec<&DataPoint> = matching;
                rows.sort_by(|a, b| {
                    let xa = Self::point_number(a, rank_attr).unwrap_or(f64::NEG_INFINITY);
                    let xb = Self::point_number(b, rank_attr).unwrap_or(f64::NEG_INFINITY);
                    if *highest {
                        xb.total_cmp(&xa)
                    } else {
                        xa.total_cmp(&xb)
                    }
                });
                rows.iter()
                    .take(*k)
                    .filter_map(|p| Self::point_field(p, &[select_attr]))
                    .map(str::to_owned)
                    .collect()
            }
            NlQuery::SemanticRank {
                select_attr,
                rank_attr,
                k,
                property,
                on_attr,
                ..
            } => {
                let mut rows: Vec<&DataPoint> = matching;
                rows.sort_by(|a, b| {
                    let xa = Self::point_number(a, rank_attr).unwrap_or(f64::NEG_INFINITY);
                    let xb = Self::point_number(b, rank_attr).unwrap_or(f64::NEG_INFINITY);
                    xb.total_cmp(&xa)
                });
                let mut cut: Vec<&DataPoint> = rows.into_iter().take(*k).collect();
                cut.sort_by(|a, b| {
                    let ta = Self::point_field(a, &[on_attr]).unwrap_or("");
                    let tb = Self::point_field(b, &[on_attr]).unwrap_or("");
                    Self::property_score(*property, tb)
                        .total_cmp(&Self::property_score(*property, ta))
                });
                cut.iter()
                    .filter_map(|p| Self::point_field(p, &[select_attr]))
                    .map(str::to_owned)
                    .collect()
            }
            NlQuery::Summarize { .. } | NlQuery::ProvideInfo { .. } => unreachable!(),
        };
        prompts::render_answer_list(&values)
    }

    /// Free-form answer for aggregation queries, mixing whatever data is
    /// in context with parametric knowledge — reproducing the Figure 2
    /// behaviours (incomplete for RAG, knowledge-only for empty context,
    /// complete for the TAG pipelines that pass every relevant row).
    fn answer_aggregation(&self, query: &NlQuery, points: &[DataPoint]) -> String {
        let circuit_filter = query.filters().iter().find_map(|f| match f {
            NlFilter::AtCircuit { circuit } => Some(circuit.clone()),
            _ => None,
        });

        if points.is_empty() {
            // Parametric knowledge only (the Text2SQL + LM column of Fig 2).
            let mut s = String::from(
                "The data points provided do not contain specific information \
                 about the question.",
            );
            if let Some(circuit) = &circuit_filter {
                if let Some(fact) = self.kb.circuit_fact(circuit) {
                    s.push_str(&format!(
                        " However, based on general knowledge, the {circuit} is a racing \
                         circuit in {}, {}, and it has hosted the {}.",
                        fact.city, fact.country, fact.grand_prix
                    ));
                }
            }
            return s;
        }

        let attended = self.attended(&query.render(), points);
        let matching: Vec<&DataPoint> = attended
            .iter()
            .filter(|(_, p)| query.filters().iter().all(|f| self.filter_matches(f, p)))
            .map(|(_, p)| *p)
            .collect();
        // Report compactly, like a fluent answer: for "summarize the X"
        // questions only the X column matters; otherwise the first couple
        // of informative (non-id) fields per row.
        let topic = query.topic().map(str::to_owned);
        // Columns whose value never varies across the matching rows carry
        // no per-row information; a fluent summary states them once (the
        // intro sentence) instead of repeating them.
        let constant_col = |name: &str| -> bool {
            let mut values = matching
                .iter()
                .filter_map(|p| Self::point_field(p, &[name]));
            match values.next() {
                Some(first) => values.all(|v| v == first) && matching.len() > 1,
                None => false,
            }
        };
        let rows: Vec<Vec<(String, String)>> = matching
            .iter()
            .map(|p| {
                if let Some(t) = &topic {
                    // Tolerate singular/plural mismatch between the
                    // question's topic noun and the column name.
                    let matches_topic = |k: &str| {
                        let k = k.to_ascii_lowercase();
                        let t = t.to_ascii_lowercase();
                        k == t || k.trim_end_matches('s') == t.trim_end_matches('s')
                    };
                    p.iter()
                        .filter(|(k, _)| matches_topic(k))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect()
                } else {
                    p.iter()
                        .filter(|(k, _)| {
                            !k.to_ascii_lowercase().ends_with("id") && !constant_col(k)
                        })
                        .take(2)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect::<Vec<_>>()
                }
            })
            .collect();

        let mut s = String::new();
        if let Some(circuit) = &circuit_filter {
            if let Some(fact) = self.kb.circuit_fact(circuit) {
                s.push_str(&format!(
                    "The {circuit} in {}, {}, hosted the {}. ",
                    fact.city, fact.country, fact.grand_prix
                ));
            }
        }
        let subject = query.entity().to_owned();
        if topic.is_some() {
            // A true summary compresses the topic texts rather than
            // enumerating them.
            let joined = rows
                .iter()
                .flat_map(|r| r.iter().map(|(_, v)| v.clone()))
                .collect::<Vec<_>>()
                .join(" ");
            let subject = subject.trim_start_matches("the ").to_owned();
            if rows.len() == 1 {
                s.push_str(&format!("Regarding the {subject}: "));
            } else {
                s.push_str(&format!("Across {} {subject}: ", rows.len()));
            }
            s.push_str(&summarize::summarize_text(&joined, 4));
            return crate::tokenizer::truncate_to_tokens(&s, 130).0;
        }
        s.push_str(&summarize::summarize_rows(&subject, &rows, 2));
        crate::tokenizer::truncate_to_tokens(&s, 240).0
    }

    fn respond(&self, prompt: &str) -> String {
        if let Some((claim, value)) = parse_sem_filter_prompt(prompt) {
            return self.handle_filter(&claim, &value);
        }
        if let Some((property, a, b)) = parse_sem_compare_prompt(prompt) {
            return self.handle_compare(property, &a, &b);
        }
        if let Some((question, point)) = parse_relevance_prompt(prompt) {
            return self.handle_relevance(&question, &point);
        }
        if let Some((instruction, items)) = parse_sem_agg_prompt(prompt) {
            return self.handle_agg(&instruction, &items);
        }
        if let Some((question, points, list_format)) = parse_answer_prompt(prompt) {
            return self.handle_answer(&question, &points, list_format);
        }
        if prompt.contains("CREATE TABLE") && prompt.trim_end().ends_with("SELECT") {
            return self.handle_text2sql(prompt);
        }
        // Unrecognized prompt: behave like a generic assistant.
        summarize::summarize_text(prompt, 2)
    }
}

/// The words a relevance judgment compares: maximal alphanumeric runs
/// longer than two bytes.
fn relevance_words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| w.len() > 2)
}

impl LanguageModel for SimLm {
    fn generate_batch(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
        // Context check first: one oversized prompt fails the request,
        // before any compute is spent (but the scheduler round is still
        // charged, as a real server would have tokenized the input).
        let mut sequences = Vec::with_capacity(requests.len());
        for r in requests {
            let prompt_tokens = count_tokens(&r.prompt);
            if prompt_tokens > self.config.context_window {
                self.clock
                    .record_round(self.config.cost.round_overhead_s, requests.len() as u64);
                return Err(LmError::ContextLength {
                    prompt_tokens,
                    max_context: self.config.context_window,
                });
            }
            sequences.push(prompt_tokens);
        }

        let mut responses = Vec::with_capacity(requests.len());
        let mut metered = Vec::with_capacity(requests.len());
        for (r, prompt_tokens) in requests.iter().zip(&sequences) {
            let text = self.respond(&r.prompt);
            let completion_tokens = count_tokens(&text).min(r.max_tokens);
            metered.push((*prompt_tokens, completion_tokens));
            responses.push(LmResponse {
                text,
                prompt_tokens: *prompt_tokens,
                completion_tokens,
            });
        }
        let seconds = self.config.cost.round_seconds(&metered);
        self.clock.record_round(seconds, requests.len() as u64);
        Ok(responses)
    }

    fn elapsed_seconds(&self) -> f64 {
        self.clock.seconds()
    }

    fn reset_metrics(&self) {
        self.clock.reset();
    }

    fn batches(&self) -> u64 {
        self.clock.batches()
    }

    fn calls(&self) -> u64 {
        self.clock.calls()
    }

    fn context_window(&self) -> usize {
        self.config.context_window
    }

    fn usage(&self) -> (f64, u64, u64) {
        self.clock.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompts::{
        answer_free_prompt, answer_list_prompt, sem_compare_prompt, sem_filter_prompt,
    };

    fn lm() -> SimLm {
        SimLm::new(SimConfig {
            knowledge: KnowledgeConfig {
                coverage: 1.0,
                enumeration_coverage: 1.0,
                seed: 5,
            },
            judgment_noise: 0.0,
            ..SimConfig::default()
        })
    }

    fn ask(lm: &SimLm, prompt: &str) -> String {
        lm.generate(&LmRequest::new(prompt)).unwrap().text
    }

    #[test]
    fn filter_prompts() {
        let lm = lm();
        let p = sem_filter_prompt(
            &SemClaim::CityInRegion {
                region: "Silicon Valley".into(),
            },
            "Palo Alto",
        );
        assert_eq!(ask(&lm, &p), "TRUE");
        let p = sem_filter_prompt(
            &SemClaim::CityInRegion {
                region: "Silicon Valley".into(),
            },
            "Fresno",
        );
        assert_eq!(ask(&lm, &p), "FALSE");
        let p = sem_filter_prompt(&SemClaim::ClassicMovie, "Titanic");
        assert_eq!(ask(&lm, &p), "TRUE");
        let p = sem_filter_prompt(
            &SemClaim::Property(SemProperty::Positive),
            "An amazing, wonderful masterpiece",
        );
        assert_eq!(ask(&lm, &p), "TRUE");
    }

    #[test]
    fn compare_prompt_ranks_technicality() {
        let lm = lm();
        let p = sem_compare_prompt(
            SemProperty::Technical,
            "Bayesian kernel regression with regularization",
            "What is your favorite color?",
        );
        assert_eq!(ask(&lm, &p), "A");
    }

    #[test]
    fn answer_count_over_points() {
        let lm = lm();
        let points: Vec<DataPoint> = (0..10)
            .map(|i| {
                vec![
                    ("name".to_owned(), format!("p{i}")),
                    ("height".to_owned(), (175 + i * 5).to_string()),
                ]
            })
            .collect();
        let q = "How many players with height over 180 are there?";
        let prompt = answer_list_prompt(q, &points);
        // heights 175,180,...,220 -> strictly over 180: 185..220 = 8
        assert_eq!(ask(&lm, &prompt), "[8]");
    }

    #[test]
    fn answer_superlative() {
        let lm = lm();
        let points: Vec<DataPoint> = vec![
            vec![
                ("School".into(), "A".into()),
                ("City".into(), "Palo Alto".into()),
                ("Longitude".into(), "-122.1".into()),
                ("GSoffered".into(), "K-12".into()),
            ],
            vec![
                ("School".into(), "B".into()),
                ("City".into(), "Fresno".into()),
                ("Longitude".into(), "-119.0".into()),
                ("GSoffered".into(), "9-12".into()),
            ],
        ];
        let q = "What is the GSoffered of the schools with the highest Longitude \
                 among those located in the Silicon Valley region?";
        let prompt = answer_list_prompt(q, &points);
        // Only Palo Alto qualifies; its GSoffered is K-12.
        assert_eq!(ask(&lm, &prompt), "[\"K-12\"]");
    }

    #[test]
    fn long_context_loses_items() {
        let lm = lm();
        let points: Vec<DataPoint> = (0..200)
            .map(|i| {
                vec![
                    ("name".to_owned(), format!("p{i}")),
                    ("height".to_owned(), "190".to_owned()),
                ]
            })
            .collect();
        let q = "How many players with height over 180 are there?";
        let prompt = answer_list_prompt(q, &points);
        let ans = ask(&lm, &prompt);
        let n: i64 = ans.trim_matches(['[', ']']).parse().unwrap();
        assert!(n < 200, "attention model should lose items, got {n}");
        assert!(n > 50, "should still see many items, got {n}");
    }

    #[test]
    fn context_window_error() {
        let small = SimLm::new(SimConfig {
            context_window: 50,
            ..SimConfig::default()
        });
        let prompt = "word ".repeat(200);
        let err = small.generate(&LmRequest::new(prompt)).unwrap_err();
        assert!(matches!(err, LmError::ContextLength { .. }));
    }

    #[test]
    fn aggregation_with_and_without_data() {
        let lm = lm();
        let q = "Provide information about the races held on Sepang International Circuit.";
        // No data: parametric-knowledge-only answer (Figure 2, middle).
        let prompt = answer_free_prompt(q, &[]);
        let ans = ask(&lm, &prompt);
        assert!(ans.contains("do not contain"), "{ans}");
        assert!(ans.contains("Malaysian Grand Prix"), "{ans}");
        // With data: complete coverage (Figure 2, right).
        let points: Vec<DataPoint> = (1999..=2017)
            .map(|y| {
                vec![
                    ("year".to_owned(), y.to_string()),
                    (
                        "Circuit".to_owned(),
                        "Sepang International Circuit".to_owned(),
                    ),
                    ("round".to_owned(), "2".to_owned()),
                ]
            })
            .collect();
        let prompt = answer_free_prompt(q, &points);
        let ans = ask(&lm, &prompt);
        assert!(ans.contains("Kuala Lumpur"), "{ans}");
        assert!(ans.contains("2017"), "{ans}");
        assert!(ans.contains("1999"), "{ans}");
    }

    #[test]
    fn text2sql_prompt_handling() {
        let lm = lm();
        let schemas = "CREATE TABLE schools\n(\nCDSCode TEXT not null primary key,\n\
                       School TEXT,\nCity TEXT,\nLongitude REAL,\nGSoffered TEXT\n)";
        let q = "What is the GSoffered of the schools with the highest Longitude \
                 among those located in the Silicon Valley region?";
        let prompt = crate::prompts::text2sql_prompt(schemas, q, false);
        let completion = ask(&lm, &prompt);
        let sql = format!("SELECT {completion}");
        assert!(sql.contains("City IN ("), "{sql}");
        assert!(sql.contains("ORDER BY Longitude DESC LIMIT 1"), "{sql}");
    }

    #[test]
    fn clock_advances_and_batches_amortize() {
        let lm = lm();
        let reqs: Vec<LmRequest> = (0..16)
            .map(|i| {
                LmRequest::new(sem_filter_prompt(
                    &SemClaim::ClassicMovie,
                    &format!("Movie {i}"),
                ))
            })
            .collect();
        lm.generate_batch(&reqs).unwrap();
        let batched = lm.elapsed_seconds();
        assert!(batched > 0.0);
        assert_eq!(lm.batches(), 1);
        assert_eq!(lm.calls(), 16);

        lm.reset_metrics();
        for r in &reqs {
            lm.generate(r).unwrap();
        }
        let serial = lm.elapsed_seconds();
        assert!(serial > batched * 2.0, "serial={serial} batched={batched}");
    }

    #[test]
    fn deterministic_across_instances() {
        let a = lm();
        let b = lm();
        let p = sem_filter_prompt(
            &SemClaim::Property(SemProperty::Sarcastic),
            "Oh great, another failing test. Pure genius.",
        );
        assert_eq!(ask(&a, &p), ask(&b, &p));
    }

    #[test]
    fn unrecognized_prompt_gets_generic_answer() {
        let lm = lm();
        let ans = ask(
            &lm,
            "Tell me about databases. They store data. They index it.",
        );
        assert!(!ans.is_empty());
    }

    /// The relevance judge as first written: a set of each side's
    /// lowercased words, intersected. `handle_relevance` is held to it.
    fn reference_relevance(lm: &SimLm, question: &str, point: &str) -> String {
        let qw: std::collections::HashSet<String> = question
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| w.len() > 2)
            .map(|w| w.to_ascii_lowercase())
            .collect();
        let pw: std::collections::HashSet<String> = point
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| w.len() > 2)
            .map(|w| w.to_ascii_lowercase())
            .collect();
        if qw.is_empty() || pw.is_empty() {
            return "0.0".to_owned();
        }
        let inter = qw.intersection(&pw).count() as f64;
        let score = (inter / qw.len() as f64).min(1.0);
        let jitter = (lm.coin(&["rel", question, point]) - 0.5) * 0.1;
        format!("{:.2}", (score + jitter).clamp(0.0, 1.0))
    }

    /// Text made of mixed-case and repeated words, 2- and 3-byte words of
    /// multi-byte chars (`to_ascii_lowercase` leaves `É` as it is),
    /// digits and punctuation; a word followed by no separator runs into
    /// the next one, so a short word can occur only inside a longer one.
    fn relevance_text() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        let word = prop_oneof![
            Just("é"),
            Just("éa"),
            Just("ÉA"),
            Just("Éa"),
            Just("the"),
            Just("THE"),
            Just("tHe"),
            Just("ab"),
            Just("abc"),
            Just("ABC"),
            Just("school"),
            Just("Schools"),
            Just("42"),
            Just("2017"),
        ];
        let separator = prop_oneof![
            Just(" "),
            Just(", "),
            Just("-"),
            Just(": "),
            Just("\n"),
            Just("?"),
            Just(""),
        ];
        prop_oneof![
            proptest::collection::vec((word, separator), 0..10)
                .prop_map(|p| p.into_iter().flat_map(|(w, s)| [w, s]).collect()),
            "\\PC{0,24}",
        ]
    }

    proptest::proptest! {
        #[test]
        fn relevance_matches_the_set_definition(
            question in relevance_text(),
            point in relevance_text(),
        ) {
            let lm = SimLm::new(SimConfig::default());
            proptest::prop_assert_eq!(
                lm.handle_relevance(&question, &point),
                reference_relevance(&lm, &question, &point)
            );
        }
    }

    #[test]
    fn relevance_edge_cases_match_the_set_definition() {
        let lm = lm();
        let cases = [
            ("", "- City: Fresno"),
            ("Which schools are in Fresno?", ""),
            ("", ""),
            (
                "Which SCHOOLS schools are in fresno?",
                "- City: FRESNO\n- School: Schools",
            ),
            ("é éa ÉA", "- x: éa"),
            ("é éa ÉA", "- x: ÉA é"),
            ("ÉA", "- x: éa"),
            ("the 2017 race?", "- year: 2017\n- name: the race"),
            ("race", "- name: races"),
            ("ab cd", "- x: ab cd"),
        ];
        for (question, point) in cases {
            assert_eq!(
                lm.handle_relevance(question, point),
                reference_relevance(&lm, question, point),
                "{question:?} / {point:?}"
            );
        }
        // A question word inside a longer point word is no match: only
        // the jitter is left of the score.
        let inside: f64 = lm
            .handle_relevance("race", "- name: races")
            .parse()
            .unwrap();
        assert!(inside <= 0.05, "{inside}");
    }
}
