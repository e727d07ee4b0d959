//! The evaluation harness: run each method over each benchmark query,
//! recording exact-match correctness and simulated execution time.

use crate::oracle::Oracle;
use crate::queries::{build_benchmark, BenchQuery, QueryType};
use std::collections::HashMap;
use std::sync::Arc;
use tag_core::answer::{exact_match, Answer};
use tag_core::env::TagEnv;
use tag_core::methods::{HandWrittenTag, Rag, RetrievalLmRank, Text2Sql, Text2SqlLm};
use tag_core::model::TagMethod;
use tag_datagen::{generate_all, DomainData, Scale};
use tag_lm::sim::{SimConfig, SimLm};

/// The five methods of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodId {
    /// Vanilla Text2SQL.
    Text2Sql,
    /// Row-level RAG.
    Rag,
    /// Retrieval + LM Rank.
    Rerank,
    /// Text2SQL + LM generation.
    Text2SqlLm,
    /// Hand-written TAG over semantic operators.
    HandWritten,
}

impl MethodId {
    /// All methods in Table 1 order.
    pub fn all() -> [MethodId; 5] {
        [
            MethodId::Text2Sql,
            MethodId::Rag,
            MethodId::Rerank,
            MethodId::Text2SqlLm,
            MethodId::HandWritten,
        ]
    }

    /// Display name as printed in the tables.
    pub fn label(self) -> &'static str {
        match self {
            MethodId::Text2Sql => "Text2SQL",
            MethodId::Rag => "RAG",
            MethodId::Rerank => "Retrieval + LM Rank",
            MethodId::Text2SqlLm => "Text2SQL + LM",
            MethodId::HandWritten => "Hand-written TAG",
        }
    }
}

/// One (query, method) evaluation record.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Benchmark query id.
    pub query_id: usize,
    /// Which method produced this.
    pub method: MethodId,
    /// Exact match vs the oracle; `None` for aggregation queries.
    pub correct: Option<bool>,
    /// Simulated execution seconds (LM inference on the virtual clock).
    pub seconds: f64,
    /// LM calls the run made.
    pub lm_calls: u64,
    /// The produced answer.
    pub answer: Answer,
}

/// The benchmark harness: generated domains, the 80 queries, per-domain
/// environments sharing one simulated LM, and the oracle's labels.
pub struct Harness {
    queries: Vec<BenchQuery>,
    envs: HashMap<&'static str, TagEnv>,
    truths: HashMap<usize, Option<Vec<String>>>,
}

impl Harness {
    /// Build the standard harness (default scale / default LM).
    pub fn standard() -> Self {
        Self::new(42, Scale::default(), SimConfig::default())
    }

    /// A smaller harness for fast tests.
    pub fn small() -> Self {
        Self::new(
            42,
            Scale {
                schools: 120,
                players: 150,
                posts: 60,
                customers: 120,
                drivers: 10,
            },
            SimConfig::default(),
        )
    }

    /// Build from explicit seed, scale, and LM configuration.
    pub fn new(seed: u64, scale: Scale, lm_config: SimConfig) -> Self {
        let domains = generate_all(seed, scale);
        Self::from_domains(domains, lm_config)
    }

    /// Build over already-generated domains.
    pub fn from_domains(domains: Vec<DomainData>, lm_config: SimConfig) -> Self {
        let queries = build_benchmark(&domains);
        let oracle = Oracle::new();
        let mut truths = HashMap::new();
        for q in &queries {
            let domain = domains
                .iter()
                .find(|d| d.name == q.domain)
                .expect("query domain generated");
            truths.insert(q.id, oracle.answer(q, domain));
        }
        let lm = Arc::new(SimLm::new(lm_config));
        let mut envs = HashMap::new();
        for d in domains {
            envs.insert(d.name, TagEnv::new(d.db, lm.clone() as Arc<_>));
        }
        Harness {
            queries,
            envs,
            truths,
        }
    }

    /// The benchmark queries.
    pub fn queries(&self) -> &[BenchQuery] {
        &self.queries
    }

    /// The labelled truth for a query id.
    pub fn truth(&self, query_id: usize) -> Option<&[String]> {
        self.truths.get(&query_id).and_then(|t| t.as_deref())
    }

    /// Mutable access to a domain environment (ablations).
    pub fn env_mut(&mut self, domain: &str) -> &mut TagEnv {
        self.envs.get_mut(domain).expect("domain env")
    }

    /// Shared access to a domain environment.
    pub fn env(&self, domain: &str) -> &TagEnv {
        self.envs.get(domain).expect("domain env")
    }

    /// Move the per-domain environments out of the harness (the serving
    /// runtime wraps each in an `Arc` and shares it across workers).
    pub fn into_envs(self) -> HashMap<&'static str, TagEnv> {
        self.envs
    }

    /// Run one method on one query, with metrics isolated to this run.
    pub fn run_one(&self, method: MethodId, query_id: usize) -> Outcome {
        let query = self
            .queries
            .iter()
            .find(|q| q.id == query_id)
            .expect("query id")
            .clone();
        let env = self.envs.get(query.domain).expect("domain env");
        // Warm the retrieval index outside the measured window (the
        // paper's FAISS index is likewise built offline).
        if matches!(method, MethodId::Rag | MethodId::Rerank) {
            let _ = env.row_store();
        }
        env.reset_metrics();
        let aggregation = query.qtype == QueryType::Aggregation;
        let question = query.question();
        // The hand-written pipelines are written against the structured
        // query, as the paper's per-query expert code is.
        let answer = match (method, aggregation) {
            (MethodId::Text2Sql, _) => Text2Sql.answer(&question, env),
            (MethodId::Rag, false) => Rag::default().answer(&question, env),
            (MethodId::Rag, true) => Rag::aggregation().answer(&question, env),
            (MethodId::Rerank, false) => RetrievalLmRank::default().answer(&question, env),
            (MethodId::Rerank, true) => RetrievalLmRank::aggregation().answer(&question, env),
            (MethodId::Text2SqlLm, false) => Text2SqlLm::default().answer(&question, env),
            (MethodId::Text2SqlLm, true) => Text2SqlLm::aggregation().answer(&question, env),
            (MethodId::HandWritten, _) => HandWrittenTag.answer_structured(&query.query, env),
        };
        let seconds = env.elapsed_seconds();
        let lm_calls = env.lm.calls();
        let correct = self.truths[&query.id]
            .as_ref()
            .map(|truth| exact_match(&answer, truth, query.ordered()));
        Outcome {
            query_id: query.id,
            method,
            correct,
            seconds,
            lm_calls,
            answer,
        }
    }

    /// Run a set of methods over the full benchmark.
    pub fn run_all(&self, methods: &[MethodId]) -> Vec<Outcome> {
        let ids: Vec<usize> = self.queries.iter().map(|q| q.id).collect();
        let mut out = Vec::with_capacity(methods.len() * ids.len());
        for &m in methods {
            for &id in &ids {
                out.push(self.run_one(m, id));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_each_method_once() {
        let h = Harness::small();
        // One query per type, every method: must not panic and must
        // produce sensible records.
        let sample: Vec<usize> = [
            QueryType::MatchBased,
            QueryType::Comparison,
            QueryType::Ranking,
            QueryType::Aggregation,
        ]
        .iter()
        .map(|t| h.queries().iter().find(|q| q.qtype == *t).unwrap().id)
        .collect();
        for m in MethodId::all() {
            for &id in &sample {
                let o = h.run_one(m, id);
                assert_eq!(o.method, m);
                assert!(o.seconds >= 0.0);
                let q = h.queries().iter().find(|q| q.id == id).unwrap();
                if q.qtype == QueryType::Aggregation {
                    assert!(o.correct.is_none());
                } else {
                    assert!(o.correct.is_some());
                }
            }
        }
    }

    #[test]
    fn handwritten_beats_rag_on_a_knowledge_count() {
        let h = Harness::small();
        let id = h
            .queries()
            .iter()
            .find(|q| {
                q.question()
                    .contains("located in the Silicon Valley region")
                    && matches!(q.query, tag_lm::nlq::NlQuery::Count { .. })
            })
            .unwrap()
            .id;
        let tag = h.run_one(MethodId::HandWritten, id);
        let rag = h.run_one(MethodId::Rag, id);
        // RAG sees only 10 rows: it cannot count region membership over
        // the whole table.
        assert_eq!(rag.correct, Some(false), "rag answered {:?}", rag.answer);
        // Hand-written TAG filters every unique city.
        assert_eq!(tag.correct, Some(true), "tag answered {:?}", tag.answer);
    }
}
