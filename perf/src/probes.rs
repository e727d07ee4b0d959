//! Direct timed probes of single layers.
//!
//! A span around `run_method` cannot see inside it, and no program file
//! may change here, so the layers below `tag-core` are measured by
//! calling their public functions directly, on inputs captured from the
//! workload (its questions, the SQL those synthesise to, its tables).
//! Probes run in the traced run only, last, in the same process.

use crate::metrics::Report;
use crate::rss;
use crate::stats::{median, percentile, MIN_PROBE_ITERS, MIN_PROBE_SECONDS};
use crate::twin::Twin;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tag_core::answer::Answer;
use tag_core::methods::Text2Sql;
use tag_core::model::QuerySynthesis;
use tag_datagen::DomainData;
use tag_lm::model::LanguageModel;
use tag_lm::nlq::{NlQuery, SemProperty};
use tag_lm::prompts::SemClaim;
use tag_semops::{sem_filter, sem_topk, DataFrame};
use tag_serve::{AnswerCache, MethodName, ServerConfig};
use tag_shard::ShardSet;

const SCHOOLS: &str = "california_schools";
/// The SQL corpus executes (twice each) at least this many distinct
/// statements, enough for a median with ten samples on either side, and
/// beyond that only while it has spent less than this long, so that
/// 20,000-row statements fit the run.
const MIN_CORPUS: usize = 24;
const CORPUS_BUDGET: Duration = Duration::from_secs(2);

pub struct Probes {
    /// Plain environments of the probes' own, so that "first execution"
    /// and "cold prompt cache" mean what they say.
    twin: Twin,
    shards: Vec<ShardSet>,
    build_s: BuildTimes,
}

struct BuildTimes {
    shard_s: f64,
    rss_ratio: f64,
}

/// One request captured from the workload, with what the serial twin
/// took to answer it.
pub struct ProbeOp {
    pub domain: String,
    pub method: MethodName,
    pub question: String,
    pub serial_ns: u64,
}

/// Which optional layers a workload's requests pass through.
#[derive(Clone, Copy)]
pub struct Exercised {
    /// RAG / rerank requests: the row store is built and searched.
    pub retrieval: bool,
    /// Requests go through the server's answer cache.
    pub answer_cache: bool,
}

/// Run `f` until it has run `MIN_PROBE_ITERS` times or filled
/// `MIN_PROBE_SECONDS` (and at least three times); returns mean
/// nanoseconds per call.
fn mean_ns(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut iters = 0usize;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed();
        if iters >= 3
            && (iters >= MIN_PROBE_ITERS || elapsed >= Duration::from_secs_f64(MIN_PROBE_SECONDS))
        {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
    }
}

fn ns_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

impl Probes {
    /// Build the probe environments: a plain `TagEnv` and a 1-shard
    /// `ShardSet` per domain, reading the resident set around each. Runs
    /// first in the process, before anything has been freed, so the two
    /// RSS deltas are comparable.
    pub fn build(domains: &[DomainData], epoch: Instant) -> Result<Probes, String> {
        let rss0 = rss::current_mb()?;
        let twin = Twin::new(domains.to_vec(), epoch);
        let rss1 = rss::current_mb()?;
        let lm = Arc::clone(&twin.lm) as Arc<dyn LanguageModel>;
        let copies = domains.to_vec();
        let t = Instant::now();
        let shards: Vec<ShardSet> = copies
            .into_iter()
            .map(|d| ShardSet::new(d, Arc::clone(&lm), 1))
            .collect();
        let shard_s = t.elapsed().as_secs_f64();
        let rss2 = rss::current_mb()?;
        Ok(Probes {
            twin,
            shards,
            build_s: BuildTimes {
                shard_s,
                // Each side's delta includes its own copy of the data.
                rss_ratio: (rss2 - rss1).max(0.0) / (rss1 - rss0).max(1.0),
            },
        })
    }

    /// Probe every layer the workload exercises, on requests captured
    /// from it.
    pub fn run(
        &mut self,
        ops: &[ProbeOp],
        layers: Exercised,
        report: &mut Report,
    ) -> Result<(), String> {
        report.set("tag-shard.build_s", self.build_s.shard_s);
        report.set("tag-shard.rss_ratio", self.build_s.rss_ratio);
        self.lm_probes(ops, report);
        self.sql_corpus(ops, report)?;
        if layers.retrieval {
            self.embed(ops, report)?;
        }
        self.sql_operators(report)?;
        self.semops(report)?;
        self.shard(report)?;
        if layers.answer_cache {
            answer_cache(report);
        }
        Ok(())
    }

    fn lm_probes(&self, ops: &[ProbeOp], report: &mut Report) {
        let texts: BTreeSet<&str> = ops.iter().map(|op| op.question.as_str()).collect();
        let parse_ns = mean_ns(|| {
            for t in &texts {
                black_box(NlQuery::parse(t));
            }
        });
        report.set("tag-lm.nlq_parse_us", parse_ns / 1e3 / texts.len() as f64);
    }

    /// The workload's own SQL corpus — what `Text2Sql::synthesize` makes
    /// of its questions, plus `SELECT * FROM <entity>` — run twice on a
    /// fresh environment: first execution (parse, bind, plan, run) against
    /// repeat execution (plan cache).
    ///
    /// `tag-sql.wall_share` is an estimate from outside: the repeat time
    /// of each op's statement over the serial twin's time for the op,
    /// where a Text2SQL method runs the synthesised statement,
    /// hand-written TAG scans its entity, and RAG / rerank issue no SQL.
    fn sql_corpus(&mut self, ops: &[ProbeOp], report: &mut Report) -> Result<(), String> {
        let mut synth_ns = Vec::new();
        let mut first = Vec::new();
        let mut repeat = Vec::new();
        // (domain, statement) → repeat time; each statement runs twice, once.
        let mut seen: BTreeMap<(String, String), u64> = BTreeMap::new();
        let (mut sql_ns, mut serial_ns) = (0u64, 0u64);
        for op in ops {
            let env = self.twin.env(&op.domain);
            let statement = match op.method {
                MethodName::Text2Sql | MethodName::Text2SqlLm => {
                    let (sql, ns) = ns_of(|| Text2Sql.synthesize(&op.question, env));
                    synth_ns.push(ns);
                    sql.ok()
                }
                MethodName::HandWritten => {
                    NlQuery::parse(&op.question).map(|q| format!("SELECT * FROM {}", q.entity()))
                }
                MethodName::Rag | MethodName::Rerank => None,
            };
            if let Some(sql) = statement {
                let key = (op.domain.clone(), sql);
                let spent = Duration::from_nanos(first.iter().chain(&repeat).sum());
                if seen.len() >= MIN_CORPUS && spent > CORPUS_BUDGET && !seen.contains_key(&key) {
                    continue;
                }
                sql_ns += *seen.entry(key).or_insert_with_key(|(_, sql)| {
                    let (_, ns1) = ns_of(|| black_box(env.run_sql(sql)));
                    let (_, ns2) = ns_of(|| black_box(env.run_sql(sql)));
                    first.push(ns1);
                    repeat.push(ns2);
                    ns2
                });
            }
            serial_ns += op.serial_ns;
        }
        report.set(
            "tag-sql.wall_share",
            (sql_ns as f64 / serial_ns.max(1) as f64).min(1.0),
        );
        if !synth_ns.is_empty() {
            let n = synth_ns.len();
            report.set_n(
                "tag-lm.synth_us",
                synth_ns.iter().sum::<u64>() as f64 / 1e3 / n as f64,
                n,
            );
        }
        let n = first.len();
        report.set_n(
            "tag-sql.first_query_ms_p50",
            percentile(&mut first, 50.0, "first query")? as f64 / 1e6,
            n,
        );
        report.set_n(
            "tag-sql.repeat_query_ms_p50",
            percentile(&mut repeat, 50.0, "repeat query")? as f64 / 1e6,
            n,
        );
        Ok(())
    }

    /// `RowStore::retrieve(question, 10)` over the workload's questions;
    /// `tag-embed.wall_share` is the retrieval time of the RAG and rerank
    /// ops over the serial twin's time for all ops.
    fn embed(&self, ops: &[ProbeOp], report: &mut Report) -> Result<(), String> {
        let t = Instant::now();
        self.twin.build_row_stores();
        report.set("tag-embed.build_s", t.elapsed().as_secs_f64());
        let mut ns = Vec::new();
        let mut retrieval_ns = 0;
        for op in ops {
            let store = self.twin.env(&op.domain).row_store();
            let (_, t) = ns_of(|| black_box(store.retrieve(&op.question, 10).len()));
            ns.push(t);
            if matches!(op.method, MethodName::Rag | MethodName::Rerank) {
                retrieval_ns += t;
            }
        }
        let serial_ns: u64 = ops.iter().map(|op| op.serial_ns).sum();
        report.set(
            "tag-embed.wall_share",
            (retrieval_ns as f64 / serial_ns.max(1) as f64).min(1.0),
        );
        let n = ns.len();
        report.set_n(
            "tag-embed.retrieve_us_p50",
            percentile(&mut ns, 50.0, "retrieve")? as f64 / 1e3,
            n,
        );
        Ok(())
    }

    /// The relational operators over this workload's `schools` tables
    /// (600 rows when serving, 20,000 in `sql_scale`), as rows of
    /// `schools` consumed per second of statement time.
    fn sql_operators(&mut self, report: &mut Report) -> Result<(), String> {
        let env = self.twin.env_mut(SCHOOLS);
        let scalar = |env: &tag_core::env::TagEnv, sql: &str| -> Result<f64, String> {
            let rs = env.run_sql(sql).map_err(|e| format!("{sql}: {e}"))?;
            rs.rows
                .first()
                .and_then(|r| r.first())
                .and_then(tag_sql::Value::as_f64)
                .ok_or_else(|| format!("{sql}: no value"))
        };
        let rows = scalar(env, "SELECT COUNT(*) FROM schools")?;
        let mid = scalar(env, "SELECT AVG(AvgScrMath) FROM schools")?.round();
        let city = env
            .run_sql("SELECT City FROM schools LIMIT 1")
            .map_err(|e| e.to_string())?
            .rows[0][0]
            .to_string()
            .replace('\'', "''");
        let filter_count = format!("SELECT COUNT(*) FROM schools WHERE AvgScrMath > {mid}");
        let statements = [
            ("tag-sql.filter_count_rows_per_s", filter_count.clone()),
            ("tag-sql.topk_rows_per_s", "SELECT School FROM schools ORDER BY Enrollment DESC LIMIT 10".to_owned()),
            ("tag-sql.scan_all_rows_per_s", "SELECT * FROM schools".to_owned()),
            ("tag-sql.group_by_rows_per_s", "SELECT City, COUNT(*), AVG(AvgScrMath) FROM schools GROUP BY City".to_owned()),
            (
                "tag-sql.join_rows_per_s",
                format!(
                    "SELECT s.School, t.NumTstTakr FROM schools s JOIN satscores t ON s.CDSCode = t.cds \
                     WHERE s.AvgScrMath > {mid} ORDER BY t.NumTstTakr DESC LIMIT 10"
                ),
            ),
            ("tag-sql.keyed_agg_rows_per_s", format!("SELECT COUNT(*), AVG(Enrollment) FROM schools WHERE City = '{city}'")),
        ];
        for (name, sql) in &statements {
            env.run_sql(sql).map_err(|e| format!("{sql}: {e}"))?;
            let ns = mean_ns(|| {
                black_box(env.run_sql(sql).map(|rs| rs.rows.len()).ok());
            });
            report.set(name, rows / (ns / 1e9));
        }
        let mut id = 0i64;
        let lookup_ns = mean_ns(|| {
            id = id % rows as i64 + 1;
            black_box(
                env.run_sql(&format!("SELECT School FROM schools WHERE CDSCode = {id}"))
                    .map(|rs| rs.rows.len())
                    .ok(),
            );
        });
        report.set("tag-sql.point_lookup_us", lookup_ns / 1e3);
        // A 10-row insert, then the first read after it (plan-cache and
        // columnar-image invalidation are paid there).
        let mut dml = Vec::new();
        let mut after = Vec::new();
        for batch in 0..5 {
            let sql = crate::sql_scale::insert_schools_sql(10_000_000 + batch * 10, &city);
            let (r, ns) = ns_of(|| env.db.execute(&sql));
            r.map_err(|e| format!("probe insert: {e}"))?;
            dml.push(ns as f64 / 1e6);
            let (_, ns) =
                ns_of(|| black_box(env.run_sql(&filter_count).map(|rs| rs.rows.len()).ok()));
            after.push(ns as f64 / 1e6);
        }
        report.set_n("tag-sql.dml_batch_ms", median(&dml), dml.len());
        report.set_n("tag-sql.post_dml_query_ms", median(&after), after.len());
        Ok(())
    }

    /// `sem_filter` over every city of `schools` and `sem_topk` over
    /// windows of school names, each with a cold prompt cache.
    fn semops(&self, report: &mut Report) -> Result<(), String> {
        let env = self.twin.env(SCHOOLS);
        let cities = env
            .run_sql("SELECT City FROM schools")
            .map_err(|e| e.to_string())?;
        let frame = DataFrame::from_result(cities);
        let claim = SemClaim::CityInRegion {
            region: "Bay Area".to_owned(),
        };
        let (kept, ns) = ns_of(|| sem_filter(&env.engine, &frame, "City", &claim));
        kept.map_err(|e| format!("sem_filter probe: {e}"))?;
        report.set_n(
            "tag-semops.sem_filter_us_per_row",
            ns as f64 / 1e3 / frame.len().max(1) as f64,
            frame.len(),
        );
        let names = env
            .run_sql(&format!(
                "SELECT School FROM schools LIMIT {}",
                16 * MIN_PROBE_ITERS
            ))
            .map_err(|e| e.to_string())?;
        let mut ms = Vec::new();
        for (window, rows) in names.rows.chunks(16).enumerate() {
            let frame =
                DataFrame::new(names.columns.clone(), rows.to_vec()).map_err(|e| e.to_string())?;
            let property = [SemProperty::Positive, SemProperty::Technical][window % 2];
            let (top, ns) = ns_of(|| sem_topk(&env.engine, &frame, "School", property, 5));
            top.map_err(|e| format!("sem_topk probe: {e}"))?;
            ms.push(ns as f64 / 1e6);
        }
        report.set_n("tag-semops.sem_topk_ms", median(&ms), ms.len());
        Ok(())
    }

    /// What the shard coordinator costs a statement: the time of the same
    /// statement through `ShardSet::new(.., 1).env()` over its time
    /// through a plain database. (A ratio, not a difference: at this
    /// commit the scattered path is the faster one.)
    fn shard(&self, report: &mut Report) -> Result<(), String> {
        let set = self
            .shards
            .iter()
            .find(|s| s.name() == SCHOOLS)
            .expect("schools shard set");
        let plain = self.twin.env(SCHOOLS);
        let sql = "SELECT COUNT(*) FROM schools WHERE AvgScrMath > 500";
        let mut ratios = Vec::new();
        for _ in 0..3 {
            let sharded = mean_ns(|| {
                black_box(set.env().db.query(sql).map(|rs| rs.rows.len()).ok());
            });
            let direct = mean_ns(|| {
                black_box(plain.db.query(sql).map(|rs| rs.rows.len()).ok());
            });
            ratios.push(sharded / direct);
        }
        report.set_n("tag-shard.coord_time_ratio", median(&ratios), ratios.len());
        Ok(())
    }
}

/// `AnswerCache` reads of resident keys, and inserts past capacity (each
/// evicts), sized as `ServerConfig::default()` sizes the server's.
fn answer_cache(report: &mut Report) {
    let config = ServerConfig::default();
    let cache = AnswerCache::new(config.cache_capacity, config.cache_shards);
    let questions: Vec<String> = (0..4 * config.cache_capacity)
        .map(|i| format!("How many schools with Enrollment over {i} are there?"))
        .collect();
    let answer = Answer::List(vec!["42".to_owned()]);
    for q in &questions {
        cache.insert(SCHOOLS, MethodName::Text2Sql, q, answer.clone());
    }
    let insert_ns = mean_ns(|| {
        for q in &questions {
            cache.insert(SCHOOLS, MethodName::Rag, q, answer.clone());
        }
    });
    report.set(
        "tag-serve.cache_insert_ns",
        insert_ns / questions.len() as f64,
    );
    let resident: Vec<&String> = questions
        .iter()
        .filter(|q| cache.get(SCHOOLS, MethodName::Rag, q).is_some())
        .collect();
    let get_ns = mean_ns(|| {
        for q in &resident {
            black_box(cache.get(SCHOOLS, MethodName::Rag, q));
        }
    });
    report.set(
        "tag-serve.cache_get_ns",
        get_ns / resident.len().max(1) as f64,
    );
}
