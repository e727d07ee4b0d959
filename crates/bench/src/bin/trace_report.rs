//! `trace-report` — replay TAG-Bench with end-to-end tracing on and
//! print the per-method / per-query-type stage and cost breakdown.
//!
//! Every (method, query) pair runs twice: once untraced (the baseline)
//! and once inside a `tag-trace` trace. The two answers must be
//! byte-identical — tracing is data collection only — and the process
//! exits non-zero if any pair diverges. The traced runs' spans are
//! aggregated into two tables: per method x stage, and per query type x
//! stage, each reporting span counts, wall-clock self time (a span's
//! wall less its nested spans', so a group's stage rows add up to its
//! request spans), virtual LM seconds, LM calls, and prompt/completion
//! tokens.
//!
//! ```text
//! trace-report [--scale tiny|small|standard] [--seed N] [--smoke] [--jsonl]
//! ```
//!
//! `--smoke` runs one query per type instead of all 80 (the CI job).
//! `--jsonl` additionally dumps every captured span as JSONL on stdout.

use std::collections::BTreeMap;
use std::time::Duration;
use tag_bench::{BenchQuery, Harness, MethodId, QueryType};
use tag_core::env::TagEnv;
use tag_core::{compile_generate_over, compile_rag, compile_rerank, plan_nlq};
use tag_datagen::Scale;
use tag_lm::sim::SimConfig;
use tag_sql::{optimize_sem, plan_cost, SemFrame};
use tag_trace::{LmUsage, SpanRecord, Stage, Trace};

fn usage() -> ! {
    eprintln!("usage: trace-report [--scale tiny|small|standard] [--seed N] [--smoke] [--jsonl]");
    std::process::exit(2);
}

fn parse_scale(name: &str) -> Scale {
    match name {
        "standard" => Scale::default(),
        "small" => Scale {
            schools: 120,
            players: 150,
            posts: 60,
            customers: 120,
            drivers: 10,
        },
        "tiny" => Scale {
            schools: 40,
            players: 40,
            posts: 20,
            customers: 40,
            drivers: 6,
        },
        _ => usage(),
    }
}

/// Static upper bound on LM calls for one (method, query) pair, derived
/// from the semantic IR alone via [`tag_sql::plan_cost`] — before
/// anything executes. The engine's prompt cache can only *lower* the
/// traced actuals, so `actual > bound` means the cost model (or the
/// optimizer) is wrong and the report fails.
fn static_bound(method: MethodId, q: &BenchQuery, env: &TagEnv) -> u64 {
    let opts = env.sem_opt();
    let catalog = Some(env.db.catalog());
    let list = q.qtype != QueryType::Aggregation;
    let question = q.question();
    match method {
        // One LM call writes the SQL; the engine answers relationally.
        MethodId::Text2Sql => 1,
        MethodId::Rag => {
            let plan = optimize_sem(compile_rag(&question, 10, list), &opts);
            plan_cost(&plan, catalog).lm_calls
        }
        MethodId::Rerank => {
            let plan = optimize_sem(compile_rerank(&question, 30, 10, list), &opts);
            plan_cost(&plan, catalog).lm_calls
        }
        // One call writes the retrieval SQL, then a generate plan over
        // the retrieved frame (one call in either prompt format; the
        // bound does not depend on how many rows came back).
        MethodId::Text2SqlLm => {
            let gen = compile_generate_over(SemFrame::empty(), &question, list);
            1 + plan_cost(&optimize_sem(gen, &opts), catalog).lm_calls
        }
        MethodId::HandWritten => plan_cost(&plan_nlq(&q.query, &opts, &env.db), catalog).lm_calls,
    }
}

/// One row of an aggregate table: totals for a (group, stage) cell.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    spans: u64,
    wall_us: u64,
    lm: LmUsage,
}

impl Agg {
    /// Add one span, counting its self time (wall less nested spans').
    fn add_span(&mut self, s: &SpanRecord, own: Duration) {
        self.spans += 1;
        self.wall_us += own.as_micros().min(u128::from(u64::MAX)) as u64;
        self.lm.add(&s.lm);
    }
}

fn render_table<K: std::fmt::Display>(
    title: &str,
    groups: &[K],
    cells: &BTreeMap<(String, usize), Agg>,
) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "{:<22} {:<9} {:>6} {:>10} {:>9} {:>7} {:>14}\n",
        "group", "stage", "spans", "wall(ms)", "virt(s)", "calls", "tok(in/out)"
    ));
    for g in groups {
        let name = g.to_string();
        for stage in Stage::ALL {
            let Some(a) = cells.get(&(name.clone(), stage.index())) else {
                continue;
            };
            out.push_str(&format!(
                "{:<22} {:<9} {:>6} {:>10.2} {:>9.3} {:>7} {:>14}\n",
                name,
                stage.as_str(),
                a.spans,
                a.wall_us as f64 / 1e3,
                a.lm.virtual_seconds,
                a.lm.calls,
                format!("{}/{}", a.lm.prompt_tokens, a.lm.completion_tokens),
            ));
        }
    }
    out
}

fn main() {
    let mut seed = 42u64;
    let mut scale = parse_scale("small");
    let mut smoke = false;
    let mut jsonl = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scale" => scale = parse_scale(&val()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--smoke" => smoke = true,
            "--jsonl" => jsonl = true,
            _ => usage(),
        }
    }

    eprintln!("trace-report: generating domains (seed {seed})...");
    let harness = Harness::new(seed, scale, SimConfig::default());
    let ids: Vec<usize> = if smoke {
        // One query per type: enough to exercise every stage cheaply.
        [
            QueryType::MatchBased,
            QueryType::Comparison,
            QueryType::Ranking,
            QueryType::Aggregation,
        ]
        .iter()
        .map(|t| {
            harness
                .queries()
                .iter()
                .find(|q| q.qtype == *t)
                .expect("every type present")
                .id
        })
        .collect()
    } else {
        harness.queries().iter().map(|q| q.id).collect()
    };

    let methods = MethodId::all();
    eprintln!(
        "trace-report: replaying {} queries x {} methods, traced + untraced...",
        ids.len(),
        methods.len()
    );

    let mut by_method: BTreeMap<(String, usize), Agg> = BTreeMap::new();
    let mut by_qtype: BTreeMap<(String, usize), Agg> = BTreeMap::new();
    let mut all_spans: Vec<SpanRecord> = Vec::new();
    let mut mismatches = 0usize;
    let mut bound_violations = 0usize;
    // max(actual) / min(bound headroom) per method, for the summary.
    let mut bound_stats: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for &method in &methods {
        for &id in &ids {
            let query = harness
                .queries()
                .iter()
                .find(|q| q.id == id)
                .expect("known id")
                .clone();
            let env = harness.env(query.domain);
            let bound = static_bound(method, &query, env);
            let baseline = harness.run_one(method, id);
            // `run_one` resets metrics first, so the LM's call counter
            // now holds exactly this run's submissions.
            let actual = env.lm.usage().2;
            let entry = bound_stats.entry(method.label()).or_insert((0, u64::MAX));
            entry.0 = entry.0.max(actual);
            entry.1 = entry.1.min(bound);
            if actual > bound {
                bound_violations += 1;
                eprintln!(
                    "BOUND VIOLATION: {} query {id}: {actual} LM calls > static bound {bound}",
                    method.label()
                );
            }
            let (trace, sink) = Trace::memory();
            let traced = tag_trace::with_trace(&trace, || {
                let _root = tag_trace::span(Stage::Request, method.label());
                harness.run_one(method, id)
            });
            if traced.answer != baseline.answer {
                mismatches += 1;
                eprintln!(
                    "MISMATCH: {} query {id}: traced {:?} != untraced {:?}",
                    method.label(),
                    traced.answer,
                    baseline.answer
                );
            }
            let qtype = query.qtype;
            let spans = sink.take();
            for (span, own) in spans.iter().zip(tag_trace::self_times(&spans)) {
                by_method
                    .entry((method.label().to_owned(), span.stage.index()))
                    .or_default()
                    .add_span(span, own);
                by_qtype
                    .entry((format!("{qtype:?}"), span.stage.index()))
                    .or_default()
                    .add_span(span, own);
            }
            if jsonl {
                all_spans.extend(spans);
            }
        }
    }

    let method_names: Vec<&str> = methods.iter().map(|m| m.label()).collect();
    print!(
        "{}",
        render_table("per-method stage breakdown", &method_names, &by_method)
    );
    println!();
    let qtype_names = ["MatchBased", "Comparison", "Ranking", "Aggregation"];
    print!(
        "{}",
        render_table("per-query-type stage breakdown", &qtype_names, &by_qtype)
    );
    if jsonl {
        println!();
        for s in &all_spans {
            println!("{}", s.to_json());
        }
    }
    println!();
    println!("== static LM-call bound vs traced actuals ==");
    println!("{:<22} {:>12} {:>11}", "method", "max actual", "min bound");
    for (label, (max_actual, min_bound)) in &bound_stats {
        println!("{:<22} {:>12} {:>11}", label, max_actual, min_bound);
    }
    if mismatches > 0 || bound_violations > 0 {
        if mismatches > 0 {
            eprintln!("trace-report: {mismatches} traced/untraced answer mismatches");
        }
        if bound_violations > 0 {
            eprintln!("trace-report: {bound_violations} run(s) exceeded the static LM-call bound");
        }
        std::process::exit(1);
    }
    eprintln!(
        "trace-report: all traced answers byte-identical to untraced baseline; \
         every run within its static LM-call bound"
    );
}
