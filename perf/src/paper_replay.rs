//! `paper_replay`: the paper's own measurement. One thread,
//! `Harness::new(seed, Scale::default(), SimConfig::default())`, then
//! `run_one` for the 5 methods × the 80 canonical TAG-Bench queries,
//! round after round (seed-shuffled order, the same every round). Prompt
//! caches are reset per query, exactly as Table 1 is measured.
//!
//! It is the only workload whose LM virtual seconds and call counts
//! repeat exactly (cross-request batching makes them timing-dependent
//! under the server), and it holds the accuracy guard that keeps a
//! deletion from silently moving Table 1.

use crate::digest::{self, fnv1a};
use crate::metrics::Report;
use crate::probes::{Exercised, ProbeOp, Probes};
use crate::rng::Rng;
use crate::spans::{self, Recorder};
use crate::stats::{alternating_ratio, slices_of_units, SLICES};
use crate::twin::Twin;
use crate::{Config, Outcome};
use std::time::Instant;
use tag_bench::{Harness, MethodId, QueryType};
use tag_datagen::{generate_all, Scale};
use tag_lm::sim::SimConfig;
use tag_serve::{format_answer, MethodName};

const METHODS: [(MethodId, MethodName); 5] = [
    (MethodId::Text2Sql, MethodName::Text2Sql),
    (MethodId::Rag, MethodName::Rag),
    (MethodId::Rerank, MethodName::Rerank),
    (MethodId::Text2SqlLm, MethodName::Text2SqlLm),
    (MethodId::HandWritten, MethodName::HandWritten),
];

/// The datagen seed for `--seed`. It is the seed itself, unless the
/// benchmark's oracle rejects the data that seed generates: about one
/// seed in twenty ties two rows for a superlative query, which makes the
/// query ill-posed, and `Harness::new` asserts on it. The workload must
/// run on every seed, so such a seed falls through to `seed + 2³²`, and
/// so on.
fn data_seed(seed: u64) -> Result<u64, String> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let accepted = (0..16u64).map(|i| seed.wrapping_add(i << 32)).find(|s| {
        std::panic::catch_unwind(|| Harness::new(*s, Scale::default(), SimConfig::default()))
            .is_ok()
    });
    std::panic::set_hook(hook);
    accepted.ok_or_else(|| {
        format!("the oracle rejects the data of seed {seed} and of its 15 fallbacks")
    })
}

/// Datagen + harness construction + the retrieval indexes (built on
/// first use; the paper's FAISS index is likewise built offline).
fn set_up(seed: u64) -> (Harness, f64) {
    let t = Instant::now();
    let harness = Harness::new(seed, Scale::default(), SimConfig::default());
    let mut domains: Vec<&str> = harness.queries().iter().map(|q| q.domain).collect();
    domains.sort_unstable();
    domains.dedup();
    for d in domains {
        let _ = harness.env(d).row_store();
    }
    (harness, t.elapsed().as_secs_f64())
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let seed = data_seed(cfg.seed)?;
    let mut probes = None;
    let mut twin = None;
    if cfg.trace {
        let t = Instant::now();
        let domains = generate_all(seed, Scale::default());
        let generate_s = t.elapsed().as_secs_f64();
        probes = Some((Probes::build(&domains, epoch)?, generate_s));
        twin = Some(Twin::new(domains, epoch));
    }
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setups() {
        drop(built.take());
        let (h, secs) = set_up(seed);
        setups.push(secs);
        built = Some(h);
    }
    let harness = built.expect("set-up ran");

    // One round: every (method, query) pair once, in a seed-shuffled order.
    let queries = harness.queries();
    let mut round: Vec<(usize, usize)> = (0..METHODS.len())
        .flat_map(|m| (0..queries.len()).map(move |q| (m, q)))
        .collect();
    Rng::new(cfg.seed).fork(0x7ab1e).shuffle(&mut round);

    let mut rec = Recorder::new(epoch);
    let mut lat_ns: Vec<u64> = Vec::new();
    let mut first: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let mut notes = Vec::new();
    let mut virtual_s = 0.0;
    let mut calls = 0u64;
    let mut graded = [(0u32, 0u32); 5];
    let mut round_s: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    while started.elapsed().as_secs_f64() < cfg.seconds || rounds < cfg.min_ops(SLICES) {
        for (i, (m, q)) in round.iter().enumerate() {
            let query = &queries[*q];
            let t0 = Instant::now();
            let outcome = harness.run_one(METHODS[*m].0, query.id);
            let t1 = Instant::now();
            lat_ns.push((t1 - t0).as_nanos() as u64);
            let text = format_answer(&outcome.answer);
            if rounds == 0 {
                virtual_s += outcome.seconds;
                calls += harness.env(query.domain).lm.calls();
                // Graded against the oracle's labels (`Harness::truth`);
                // aggregation queries have none, as in the paper.
                if let Some(correct) = outcome.correct {
                    debug_assert!(
                        query.qtype != QueryType::Aggregation && harness.truth(query.id).is_some()
                    );
                    graded[*m].1 += 1;
                    graded[*m].0 += u32::from(correct);
                }
                first.push(text);
                if cfg.trace {
                    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
                    rec.push("bench.run_one", None, i as u64, since(t0), since(t1));
                }
            } else if text != first[i] {
                // The program is deterministic: a later round must repeat
                // the first byte for byte.
                failed += 1;
                notes.push(format!(
                    "round {rounds}: {:?} on query {} answered {text:?}, first round {:?}",
                    METHODS[*m].0, query.id, first[i]
                ));
            }
        }
        rounds += 1;
        round_s.push(started.elapsed().as_secs_f64() - round_s.iter().sum::<f64>());
    }
    let elapsed = started.elapsed().as_secs_f64();
    let attempted = lat_ns.len() as u64;

    // Table 1's shape: hand-written TAG beats every baseline on exact match.
    let em = |m: usize| f64::from(graded[m].0) / f64::from(graded[m].1.max(1));
    if let Some(best) = (0..4).map(em).max_by(f64::total_cmp) {
        if em(4) <= best {
            failed += 1;
            notes.push(format!(
                "hand-written TAG exact match {} does not beat the best baseline's {best}",
                em(4)
            ));
        }
    }
    let digests: Vec<(String, u64)> = round
        .iter()
        .zip(&first)
        .map(|((m, q), text)| {
            (
                format!("{} q{}", METHODS[*m].1, queries[*q].id),
                fnv1a(text.as_bytes()),
            )
        })
        .collect();
    failed += digest::hold(cfg, &digests, &mut notes)?.len() as u64;
    notes.truncate(8);

    if !cfg.trace {
        cfg.check_timed_section(elapsed)?;
        // Slices are runs of whole rounds.
        let mut slices = slices_of_units(&round_s, &lat_ns);
        let report = Report::end_to_end(&mut slices, 90.0, &setups, &mut notes)?;
        return Ok(Outcome {
            attempted,
            failed,
            report,
            notes,
        });
    }

    // ---- the traced run: per-layer metrics ---------------------------
    let mut report = Report::per_layer();
    let (mut probes, generate_s) = probes.expect("built when tracing");
    let mut twin = twin.expect("built when tracing");
    report.set("tag-datagen.generate_s", generate_s);
    let (mut hits, mut misses) = (0, 0);
    for d in twin.domains() {
        let plan = harness.env(d).db.plan_cache_stats();
        hits += plan.hits;
        misses += plan.misses;
    }
    report.set_share("tag-sql.plan_cache_hit_ratio", hits, hits + misses);

    // The serial twin runs the same round through `run_method` behind a
    // TimedLm: `core.run_method` → `lm.generate_batch` spans, and the
    // wall-clock split between the methods and the model.
    twin.build_row_stores();
    let mut ops: Vec<ProbeOp> = round
        .iter()
        .map(|(m, q)| ProbeOp {
            domain: queries[*q].domain.to_owned(),
            method: METHODS[*m].1,
            question: queries[*q].question(),
            serial_ns: 0,
        })
        .collect();
    for (i, op) in ops.iter_mut().enumerate() {
        let (answer, ns) = twin.run(&op.domain, op.method, &op.question, None);
        op.serial_ns = ns;
        if format_answer(&answer) != first[i] {
            failed += 1;
            notes.push(format!(
                "run_method and Harness::run_one disagree on {} {}",
                op.method, op.question
            ));
        }
    }
    twin.fill(&mut report)?;
    // Tracing overhead: the round again, now warm, four times with every
    // other op traced. The first pass's spans are the ones kept.
    let mut passes = Vec::new();
    for (pass, parity) in [0, 1, 1, 0].into_iter().enumerate() {
        let mut scratch = Recorder::new(epoch);
        let mut ns = Vec::new();
        for (k, op) in ops.iter().enumerate() {
            let sink = if pass == 0 { &mut rec } else { &mut scratch };
            let t = Instant::now();
            twin.run(
                &op.domain,
                op.method,
                &op.question,
                (k % 2 == parity).then_some((sink, k as u64)),
            );
            ns.push(t.elapsed().as_nanos() as u64);
        }
        passes.push((parity, ns));
    }
    report.set_n(
        "tag-perf.trace_overhead_ratio",
        alternating_ratio(&passes),
        ops.len(),
    );
    // The exact metrics come from the harness under test, first round.
    report.set("tag-lm.virtual_s_per_req", virtual_s / round.len() as f64);
    report.set("tag-lm.calls_per_req", calls as f64 / round.len() as f64);
    report.set_n("tag-bench.exact_match_tag", em(4), graded[4].1 as usize);
    drop(harness);
    probes.run(
        &ops,
        Exercised {
            retrieval: true,
            answer_cache: false,
        },
        &mut report,
    )?;

    let all_spans = rec.into_spans();
    notes.push(spans::finish(&cfg.spans_path(), &all_spans)?);
    Ok(Outcome {
        attempted,
        failed,
        report,
        notes,
    })
}
