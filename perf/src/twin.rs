//! The serial twin: plain `TagEnv`s (no server, no `BatchLm`, no
//! `ShardSet`) over the same generated data, driven one `run_method` at a
//! time behind a [`TimedLm`].
//!
//! It plays two parts. Its answers are the reference the served answers
//! must equal byte for byte, and its timings are the `tag-core` / `tag-lm`
//! layer metrics and the denominator of `tag-serve.vs_serial`.

use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::percentile;
use crate::timed_lm::{LmTotals, TimedLm};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tag_core::answer::Answer;
use tag_core::env::TagEnv;
use tag_datagen::DomainData;
use tag_lm::model::LanguageModel;
use tag_serve::{run_method, MethodName};

pub struct Twin {
    envs: Vec<(&'static str, TagEnv)>,
    pub lm: Arc<TimedLm>,
    epoch: Instant,
    stats: SerialStats,
}

/// What a serial loop of `run_method` calls cost, by method and at the
/// language-model boundary.
#[derive(Default)]
pub struct SerialStats {
    ops: u64,
    total_ns: u64,
    lm: LmTotals,
    virtual_s: f64,
    calls: u64,
    by_method: HashMap<MethodName, Vec<u64>>,
}

impl SerialStats {
    /// Account one request: its wall time, the model's wall-clock work,
    /// and the virtual seconds and prompts it metered.
    pub fn record(
        &mut self,
        method: MethodName,
        ns: u64,
        lm: LmTotals,
        virtual_s: f64,
        calls: u64,
    ) {
        self.ops += 1;
        self.total_ns += ns;
        self.lm = self.lm + lm;
        self.virtual_s += virtual_s;
        self.calls += calls;
        self.by_method.entry(method).or_default().push(ns);
    }

    /// The `tag-core` and `tag-lm` layer metrics of the requests so far.
    pub fn fill(&mut self, report: &mut Report) -> Result<(), String> {
        if self.ops == 0 {
            return Ok(());
        }
        for (method, name) in [
            (MethodName::Text2Sql, "tag-core.text2sql_ms_p50"),
            (MethodName::Rag, "tag-core.rag_ms_p50"),
            (MethodName::Rerank, "tag-core.rerank_ms_p50"),
            (MethodName::Text2SqlLm, "tag-core.text2sql_lm_ms_p50"),
            (MethodName::HandWritten, "tag-core.handwritten_ms_p50"),
        ] {
            if let Some(ns) = self.by_method.get_mut(&method) {
                let n = ns.len();
                report.set_n(name, percentile(ns, 50.0, name)? as f64 / 1e6, n);
            }
        }
        let total = self.total_ns as f64;
        let ops = self.ops as f64;
        report.set("tag-lm.busy_share", self.lm.busy_ns as f64 / total);
        report.set(
            "tag-core.non_lm_share",
            1.0 - self.lm.busy_ns as f64 / total,
        );
        if self.lm.prompts > 0 {
            report.set(
                "tag-lm.us_per_prompt",
                self.lm.busy_ns as f64 / 1e3 / self.lm.prompts as f64,
            );
            report.set(
                "tag-lm.prompts_per_round",
                self.lm.prompts as f64 / self.lm.rounds as f64,
            );
        }
        report.set("tag-lm.rounds_per_req", self.lm.rounds as f64 / ops);
        report.set("tag-lm.virtual_s_per_req", self.virtual_s / ops);
        report.set("tag-lm.calls_per_req", self.calls as f64 / ops);
        Ok(())
    }
}

/// `tag-semops.prompt_cache_hit_ratio` over a set of environments.
pub fn fill_prompt_cache<'a>(envs: impl Iterator<Item = &'a TagEnv>, report: &mut Report) {
    let (mut hits, mut sent) = (0u64, 0u64);
    for env in envs {
        let e = env.engine.stats();
        hits += e.cache_hits;
        sent += e.lm_prompts;
    }
    report.set_share("tag-semops.prompt_cache_hit_ratio", hits, hits + sent);
}

impl Twin {
    pub fn new(domains: Vec<DomainData>, epoch: Instant) -> Twin {
        let lm = Arc::new(TimedLm::new(epoch));
        let envs = domains
            .into_iter()
            .map(|d| {
                (
                    d.name,
                    TagEnv::new(d.db, Arc::clone(&lm) as Arc<dyn LanguageModel>),
                )
            })
            .collect();
        Twin {
            envs,
            lm,
            epoch,
            stats: SerialStats::default(),
        }
    }

    pub fn env(&self, domain: &str) -> &TagEnv {
        &self
            .envs
            .iter()
            .find(|(n, _)| *n == domain)
            .expect("twin has the domain")
            .1
    }

    pub fn env_mut(&mut self, domain: &str) -> &mut TagEnv {
        &mut self
            .envs
            .iter_mut()
            .find(|(n, _)| *n == domain)
            .expect("twin has the domain")
            .1
    }

    /// Build every domain's retrieval index now (it is built on first use
    /// otherwise, inside whichever request comes first).
    pub fn build_row_stores(&self) {
        for (_, env) in &self.envs {
            let _ = env.row_store();
        }
    }

    pub fn domains(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.envs.iter().map(|(n, _)| *n)
    }

    /// Answer one request serially; returns the answer and its wall time.
    /// With a recorder, the call becomes a `core.run_method` root span
    /// with one `lm.generate_batch` child per model call.
    pub fn run(
        &mut self,
        domain: &str,
        method: MethodName,
        question: &str,
        trace: Option<(&mut Recorder, u64)>,
    ) -> (Answer, u64) {
        let lm = Arc::clone(&self.lm);
        let lm0 = lm.totals();
        let (v0, _, c0) = lm.usage();
        lm.set_logging(trace.is_some());
        let start = self.epoch.elapsed().as_nanos() as u64;
        let answer = run_method(method, question, self.env(domain));
        let end = self.epoch.elapsed().as_nanos() as u64;
        let (v1, _, c1) = lm.usage();
        if let Some((rec, request)) = trace {
            let root = rec.push("core.run_method", None, request, start, end);
            for (s, e, _) in lm.take_calls() {
                rec.push("lm.generate_batch", Some(root), request, s, e);
            }
        }
        self.stats
            .record(method, end - start, lm.totals() - lm0, v1 - v0, c1 - c0);
        (answer, end - start)
    }

    /// The `tag-core`, `tag-lm` and prompt-cache layer metrics of every
    /// request run so far.
    pub fn fill(&mut self, report: &mut Report) -> Result<(), String> {
        self.stats.fill(report)?;
        fill_prompt_cache(self.envs.iter().map(|(_, e)| e), report);
        Ok(())
    }
}
