//! `serve-bench` — a load generator for the serving runtime.
//!
//! Replays the 80 TAG-Bench questions against a fresh [`Server`] at each
//! requested concurrency level, printing throughput, client-side latency
//! percentiles, and batching/cache effectiveness. Each level runs twice
//! — plan cache disabled, then enabled — so the cache's contribution is
//! measured in the same report. Every run is checked byte-for-byte
//! against a serial baseline computed with a plain (unbatched, uncached)
//! environment set — neither concurrency nor caching must ever change an
//! answer. Results are also written as a machine-readable JSON artifact
//! (`BENCH_plancache.json` by default) so the perf trajectory is tracked
//! across PRs.

use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tag_bench::build_benchmark;
use tag_core::answer::Answer;
use tag_core::env::TagEnv;
use tag_datagen::{generate_all, Scale};
use tag_lm::sim::{SimConfig, SimLm};
use tag_serve::{run_method, MethodName, Request, ServeError, Server, ServerConfig};
use tag_sql::PlanCacheStats;

fn usage() -> ! {
    eprintln!(
        "usage: serve-bench [--seed N] [--scale tiny|small|standard] \
         [--method text2sql|rag|rerank|text2sql_lm|handwritten|all] \
         [--concurrency 1,8] [--workers N] [--queue N] [--json PATH] \
         [--metrics-out PATH] [--smoke]"
    );
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

/// One request of the replayed workload.
#[derive(Clone)]
struct WorkItem {
    domain: &'static str,
    method: MethodName,
    question: String,
}

fn percentile(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx].as_secs_f64() * 1e3
}

/// Client-side measurements of one replay run.
struct RunStats {
    wall_s: f64,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mismatches: usize,
}

/// Replay the full workload against `server` with `level` client threads,
/// comparing every answer to `expected`.
fn run_level(
    server: &Arc<Server>,
    workload: &Arc<Vec<WorkItem>>,
    expected: &[Answer],
    level: usize,
) -> RunStats {
    let next = Arc::new(AtomicUsize::new(0));
    let answers: Arc<Vec<Mutex<Option<Answer>>>> =
        Arc::new(workload.iter().map(|_| Mutex::new(None)).collect());
    let latencies: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let clients: Vec<_> = (0..level.max(1))
        .map(|_| {
            let server = Arc::clone(server);
            let next = Arc::clone(&next);
            let answers = Arc::clone(&answers);
            let latencies = Arc::clone(&latencies);
            let workload = Arc::clone(workload);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(w) = workload.get(i) else { return };
                let sent = Instant::now();
                let resp = loop {
                    let req = Request::new(w.domain, w.method, w.question.clone());
                    match server.ask(req) {
                        Ok(resp) => break resp,
                        Err(ServeError::QueueFull) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("serve-bench request failed: {e}"),
                    }
                };
                latencies.lock().push(sent.elapsed());
                *answers[i].lock() = Some(resp.answer);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let wall_s = started.elapsed().as_secs_f64();
    let mut lats = std::mem::take(&mut *latencies.lock());
    lats.sort();
    let mismatches = workload
        .iter()
        .enumerate()
        .filter(|(i, _)| answers[*i].lock().as_ref() != Some(&expected[*i]))
        .count();
    RunStats {
        wall_s,
        rps: workload.len() as f64 / wall_s,
        p50_ms: percentile(&lats, 0.50),
        p95_ms: percentile(&lats, 0.95),
        p99_ms: percentile(&lats, 0.99),
        mismatches,
    }
}

fn json_run(r: &RunStats) -> String {
    format!(
        "{{\"wall_s\":{:.4},\"rps\":{:.2},\"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3},\
         \"mismatches\":{}}}",
        r.wall_s, r.rps, r.p50_ms, r.p95_ms, r.p99_ms, r.mismatches,
    )
}

fn json_plan_cache(pc: &PlanCacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"invalidations\":{},\"entries\":{},\
         \"hit_rate\":{:.4}}}",
        pc.hits,
        pc.misses,
        pc.evictions,
        pc.invalidations,
        pc.entries,
        pc.hit_rate(),
    )
}

/// Rolling 10s per-stage quantiles from the server's windowed stage
/// histograms, captured right after a replay finishes (the window is
/// still hot). Stages with no traffic in the window are omitted.
fn json_stage_windows(server: &Server) -> String {
    let stages = server.stage_metrics();
    let mut out: Vec<String> = Vec::new();
    for stage in tag_trace::Stage::ALL {
        let w = stages.window(stage, 10);
        if w.count() == 0 {
            continue;
        }
        out.push(format!(
            "{{\"stage\":\"{}\",\"n\":{},\"rate\":{:.2},\"p50_ms\":{:.3},\"p95_ms\":{:.3},\
             \"p99_ms\":{:.3}}}",
            stage.as_str(),
            w.count(),
            w.rate(),
            w.quantile(0.50).seconds * 1e3,
            w.quantile(0.95).seconds * 1e3,
            w.quantile(0.99).seconds * 1e3,
        ));
    }
    format!("[{}]", out.join(","))
}

fn main() {
    let mut seed = 42u64;
    let mut scale_name = "small".to_owned();
    let mut methods = vec![MethodName::HandWritten];
    let mut levels = vec![1usize, 8];
    let mut workers = 8usize;
    let mut queue = 256usize;
    let mut json_path = "BENCH_plancache.json".to_owned();
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--scale" => scale_name = val(),
            "--method" => {
                let v = val();
                methods = if v == "all" {
                    MethodName::all().to_vec()
                } else {
                    vec![MethodName::parse(&v).unwrap_or_else(|| usage())]
                };
            }
            "--concurrency" => {
                levels = val()
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if levels.is_empty() {
                    usage();
                }
            }
            "--workers" => workers = val().parse().unwrap_or_else(|_| usage()),
            "--queue" => queue = val().parse().unwrap_or_else(|_| usage()),
            "--json" => json_path = val(),
            "--metrics-out" => metrics_out = Some(val()),
            // CI smoke preset: tiny data, one method, two levels.
            "--smoke" => {
                scale_name = "tiny".to_owned();
                methods = vec![MethodName::HandWritten];
                levels = vec![1, 4];
                workers = 4;
            }
            _ => usage(),
        }
    }
    let scale = parse_scale(&scale_name);

    eprintln!("serve-bench: generating domains (seed {seed})...");
    let domains = generate_all(seed, scale);
    let queries = build_benchmark(&domains);
    let workload: Vec<WorkItem> = methods
        .iter()
        .flat_map(|&method| {
            queries.iter().map(move |q| WorkItem {
                domain: q.domain,
                method,
                question: q.question(),
            })
        })
        .collect();
    eprintln!(
        "serve-bench: {} requests ({} queries x {} methods)",
        workload.len(),
        queries.len(),
        methods.len(),
    );

    // Serial baseline: plain environments, no batching, no answer cache.
    let baseline_lm: Arc<dyn tag_lm::model::LanguageModel> =
        Arc::new(SimLm::new(SimConfig::default()));
    let baseline_envs: Vec<(&'static str, TagEnv)> = generate_all(seed, scale)
        .into_iter()
        .map(|d| (d.name, TagEnv::new(d.db, Arc::clone(&baseline_lm))))
        .collect();
    let env_for = |domain: &str| -> &TagEnv {
        &baseline_envs
            .iter()
            .find(|(n, _)| *n == domain)
            .expect("workload domain generated")
            .1
    };
    for (_, env) in &baseline_envs {
        let _ = env.row_store();
    }
    let serial_started = Instant::now();
    let expected: Vec<Answer> = workload
        .iter()
        .map(|w| run_method(w.method, &w.question, env_for(w.domain)))
        .collect();
    let serial_wall = serial_started.elapsed().as_secs_f64();
    let serial_rps = workload.len() as f64 / serial_wall;
    println!(
        "serial baseline: {} requests in {serial_wall:.2}s ({serial_rps:.1} req/s)",
        workload.len(),
    );

    // Plan-path microbench: the end-to-end request path is LM-dominated,
    // so the plan cache's win is isolated here — a join statement that is
    // expensive to bind/optimize (two wide schemas) but cheap to execute
    // (primary-key point lookups), repeated with the cache off then on.
    let micro_db = &env_for("california_schools").db;
    let micro_sql = "SELECT s.School, t.AvgScrVerbal FROM schools s \
                     JOIN satscores t ON s.CDSCode = t.cds WHERE s.CDSCode = 17";
    const MICRO_ITERS: u32 = 2000;
    let micro_run = |cache_capacity: usize| -> f64 {
        micro_db.set_plan_cache_capacity(cache_capacity);
        let t0 = Instant::now();
        for _ in 0..MICRO_ITERS {
            std::hint::black_box(micro_db.query(micro_sql).expect("microbench statement"));
        }
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(MICRO_ITERS)
    };
    micro_run(0); // warm-up, and leaves the cache disabled for the off run
    let micro_off_us = micro_run(0);
    let micro_on_us = micro_run(128);
    let micro_speedup = micro_off_us / micro_on_us.max(f64::MIN_POSITIVE);
    println!(
        "plan path: {micro_off_us:.1} us/stmt uncached -> {micro_on_us:.1} us/stmt cached \
         ({micro_speedup:.2}x, {MICRO_ITERS} iterations)",
    );

    let workload = Arc::new(workload);
    let mut mismatches = 0usize;
    let mut level_json: Vec<String> = Vec::new();
    let mut throughputs: Vec<(usize, f64)> = Vec::new();
    for &level in &levels {
        // A/B per level: plan cache off, then on — fresh server each so
        // neither run warms the other.
        let mut runs: Vec<(bool, RunStats, PlanCacheStats)> = Vec::new();
        let mut report_on = String::new();
        let mut answer_hits_on = 0u64;
        let mut stage_windows_on = "[]".to_owned();
        for cache_on in [false, true] {
            let server = Arc::new(Server::start(
                generate_all(seed, scale),
                SimConfig::default(),
                ServerConfig {
                    workers,
                    queue_capacity: queue,
                    ..ServerConfig::default()
                },
            ));
            if !cache_on {
                server.set_plan_cache_capacity(0);
            }
            let stats = run_level(&server, &workload, &expected, level);
            mismatches += stats.mismatches;
            let pc = server.plan_cache_stats();
            let b = server.batch_stats();
            let c = server.cache().stats();
            println!(
                "concurrency {level:>3} plan_cache={}: {:.2}s wall, {:.1} req/s, latency ms \
                 p50={:.2} p95={:.2} p99={:.2} | plan hits={} misses={} hit_rate={:.1}% | \
                 lm rounds={} cross_request={} max_merged={} | cache hits={} evictions={} \
                 | answers {}",
                if cache_on { "on " } else { "off" },
                stats.wall_s,
                stats.rps,
                stats.p50_ms,
                stats.p95_ms,
                stats.p99_ms,
                pc.hits,
                pc.misses,
                pc.hit_rate() * 100.0,
                b.rounds,
                b.cross_request_rounds,
                b.max_merged_submissions,
                c.hits,
                c.evictions,
                if stats.mismatches == 0 {
                    "identical to serial".to_owned()
                } else {
                    format!("{} MISMATCHES", stats.mismatches)
                },
            );
            if cache_on {
                report_on = server.report();
                answer_hits_on = c.hits;
                stage_windows_on = json_stage_windows(&server);
                throughputs.push((level, stats.rps));
                if let Some(path) = &metrics_out {
                    match std::fs::write(path, server.metrics_text()) {
                        Ok(()) => eprintln!("serve-bench: wrote {path}"),
                        Err(e) => eprintln!("serve-bench: could not write {path}: {e}"),
                    }
                }
            }
            runs.push((cache_on, stats, pc));
            server.shutdown();
        }
        print!("{report_on}");
        let (off, on) = (&runs[0], &runs[1]);
        let speedup = on.1.rps / off.1.rps.max(f64::MIN_POSITIVE);
        println!(
            "concurrency {level:>3}: plan cache speedup {:.2}x (p95 {:.2} -> {:.2} ms)",
            speedup, off.1.p95_ms, on.1.p95_ms,
        );
        let mut obj = String::new();
        let _ = write!(
            obj,
            "{{\"concurrency\":{level},\"cache_off\":{},\"cache_on\":{},\
             \"plan_cache\":{},\"speedup\":{speedup:.3},\"answer_cache_hits\":{answer_hits_on},\
             \"stage_windows\":{stage_windows_on}}}",
            json_run(&off.1),
            json_run(&on.1),
            json_plan_cache(&on.2),
        );
        level_json.push(obj);
    }

    if let (Some(lo), Some(hi)) = (throughputs.first(), throughputs.last()) {
        if throughputs.len() >= 2 {
            println!(
                "speedup {}->{} clients: {:.2}x",
                lo.0,
                hi.0,
                hi.1 / lo.1.max(f64::MIN_POSITIVE),
            );
        }
    }

    let method_names: Vec<String> = methods
        .iter()
        .map(|m| format!("\"{}\"", m.as_str()))
        .collect();
    let json = format!(
        "{{\"bench\":\"serve-bench\",\"seed\":{seed},\"scale\":\"{scale_name}\",\
         \"methods\":[{}],\"requests\":{},\"serial_baseline\":{{\"wall_s\":{serial_wall:.4},\
         \"rps\":{serial_rps:.2}}},\"plan_microbench\":{{\"uncached_us_per_stmt\":{micro_off_us:.2},\
         \"cached_us_per_stmt\":{micro_on_us:.2},\"speedup\":{micro_speedup:.2}}},\
         \"mismatches\":{mismatches},\"levels\":[{}]}}\n",
        method_names.join(","),
        workload.len(),
        level_json.join(","),
    );
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("serve-bench: wrote {json_path}"),
        Err(e) => eprintln!("serve-bench: could not write {json_path}: {e}"),
    }

    if mismatches > 0 {
        eprintln!("serve-bench: FAILED — {mismatches} answers differ from the serial baseline");
        std::process::exit(1);
    }
}
