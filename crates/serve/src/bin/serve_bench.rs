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
use tag_shard::ShardSet;
use tag_sql::PlanCacheStats;

fn usage() -> ! {
    eprintln!(
        "usage: serve-bench [--seed N] [--scale tiny|small|standard] \
         [--method text2sql|rag|rerank|text2sql_lm|handwritten|all] \
         [--concurrency 1,8] [--workers N] [--queue N] [--json PATH] \
         [--metrics-out PATH] [--shard-sweep] [--smoke]"
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

/// One shard count's measurements in the scatter-gather sweep.
struct SweepLevel {
    shards: usize,
    wall_s: f64,
    rps: f64,
    mismatches: usize,
    scattered: u64,
    pruned: u64,
    fallbacks: u64,
}

/// The scatter-gather shard sweep (`--shard-sweep`): a keyed-aggregate
/// workload over the huge-tier schools domain at 1, 2, 4, and 8 shards,
/// every answer byte-compared against a plain unsharded database.
///
/// Keyed `City = '…'` filters prune each scatter to the owning shard,
/// so an 8-shard run scans ~1/8 of the partitioned rows per query where
/// the 1-shard run scans them all — that pruning, not thread
/// parallelism, is the throughput win the gate checks (≥3x at 8 shards
/// unless `--smoke`).
fn shard_sweep(seed: u64, smoke: bool, json_path: &str) {
    let rows = if smoke { 20_000 } else { 1_000_000 };
    eprintln!("serve-bench: shard sweep over {rows} schools rows (seed {seed})...");
    let baseline = tag_datagen::schools::generate_bulk(seed, rows);
    let cities: Vec<String> = {
        let rs = baseline
            .db
            .query("SELECT DISTINCT City FROM schools ORDER BY City")
            .expect("distinct cities");
        rs.rows
            .iter()
            .filter_map(|r| match &r[0] {
                tag_sql::Value::Text(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    };
    let n_queries = if smoke { 60 } else { 240 };
    let queries: Vec<String> = (0..n_queries)
        .map(|i| {
            let city = cities[i % cities.len()].replace('\'', "''");
            match i % 3 {
                0 => format!("SELECT COUNT(*) FROM schools WHERE City = '{city}'"),
                1 => format!("SELECT AVG(AvgScrMath) FROM schools WHERE City = '{city}'"),
                _ => format!(
                    "SELECT SUM(Enrollment), MIN(AvgScrRead), MAX(AvgScrRead) \
                     FROM schools WHERE City = '{city}'"
                ),
            }
        })
        .collect();
    eprintln!(
        "serve-bench: {} keyed queries over {} cities",
        queries.len(),
        cities.len()
    );
    let expected: Vec<String> = queries
        .iter()
        .map(|q| format!("{:?}", baseline.db.query(q).expect("baseline query").rows))
        .collect();

    let lm: Arc<dyn tag_lm::model::LanguageModel> = Arc::new(SimLm::new(SimConfig::default()));
    let mut levels: Vec<SweepLevel> = Vec::new();
    let mut mismatches_total = 0usize;
    for shards in [1usize, 2, 4, 8] {
        let set = ShardSet::new(
            tag_datagen::schools::generate_bulk(seed, rows),
            Arc::clone(&lm),
            shards,
        );
        let started = Instant::now();
        let mut mismatches = 0usize;
        for (q, want) in queries.iter().zip(&expected) {
            let got = format!("{:?}", set.env().db.query(q).expect("sweep query").rows);
            if &got != want {
                mismatches += 1;
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let s = set.scatter_stats();
        let rps = queries.len() as f64 / wall_s.max(f64::MIN_POSITIVE);
        println!(
            "shards {shards}: {wall_s:.2}s wall, {rps:.1} req/s | scattered={} pruned={} \
             fallbacks={} rows={:?} | answers {}",
            s.scattered,
            s.pruned,
            s.fallbacks,
            set.shard_rows(),
            if mismatches == 0 {
                "identical to unsharded".to_owned()
            } else {
                format!("{mismatches} MISMATCHES")
            },
        );
        mismatches_total += mismatches;
        levels.push(SweepLevel {
            shards,
            wall_s,
            rps,
            mismatches,
            scattered: s.scattered,
            pruned: s.pruned,
            fallbacks: s.fallbacks,
        });
    }
    let speedup = levels.last().expect("levels").rps
        / levels.first().expect("levels").rps.max(f64::MIN_POSITIVE);
    println!("shard sweep speedup 1->8 shards: {speedup:.2}x");

    // Replay gate: the full benchmark (every method) through a sharded
    // server, byte-compared against a single-shard serial baseline.
    let replay_scale = parse_scale(if smoke { "tiny" } else { "small" });
    let (replay_requests, replay) = replay_gate(seed, replay_scale);
    mismatches_total += replay.mismatches;
    println!(
        "replay gate (8-shard server, all methods): {replay_requests} requests, \
         {:.1} req/s, {}",
        replay.rps,
        if replay.mismatches == 0 {
            "identical to serial".to_owned()
        } else {
            format!("{} MISMATCHES", replay.mismatches)
        },
    );

    let level_json: Vec<String> = levels
        .iter()
        .map(|l| {
            format!(
                "{{\"shards\":{},\"wall_s\":{:.4},\"rps\":{:.2},\"mismatches\":{},\
                 \"scattered\":{},\"pruned\":{},\"fallbacks\":{}}}",
                l.shards, l.wall_s, l.rps, l.mismatches, l.scattered, l.pruned, l.fallbacks,
            )
        })
        .collect();
    let json = format!(
        "{{\"bench\":\"shard-sweep\",\"seed\":{seed},\"rows\":{rows},\
         \"queries\":{},\"smoke\":{smoke},\"levels\":[{}],\
         \"speedup_8_vs_1\":{speedup:.3},\"replay\":{{\"requests\":{replay_requests},\
         \"rps\":{:.2},\"mismatches\":{}}}}}\n",
        queries.len(),
        level_json.join(","),
        replay.rps,
        replay.mismatches,
    );
    match std::fs::write(json_path, &json) {
        Ok(()) => eprintln!("serve-bench: wrote {json_path}"),
        Err(e) => eprintln!("serve-bench: could not write {json_path}: {e}"),
    }

    if mismatches_total > 0 {
        eprintln!("serve-bench: FAILED — {mismatches_total} sharded answers differ");
        std::process::exit(1);
    }
    if !smoke && speedup < 3.0 {
        eprintln!("serve-bench: FAILED — shard sweep speedup {speedup:.2}x < 3.0x");
        std::process::exit(1);
    }
}

/// Replay the whole benchmark (80 questions x every method) through an
/// 8-shard [`Server`] and compare each answer to a serial single-shard
/// baseline. Returns the request count and the run stats.
fn replay_gate(seed: u64, scale: Scale) -> (usize, RunStats) {
    let domains = generate_all(seed, scale);
    let queries = build_benchmark(&domains);
    let workload: Vec<WorkItem> = MethodName::all()
        .iter()
        .flat_map(|&method| {
            queries.iter().map(move |q| WorkItem {
                domain: q.domain,
                method,
                question: q.question(),
            })
        })
        .collect();
    let lm: Arc<dyn tag_lm::model::LanguageModel> = Arc::new(SimLm::new(SimConfig::default()));
    let baseline: Vec<(&'static str, ShardSet)> = domains
        .into_iter()
        .map(|d| (d.name, ShardSet::new(d, Arc::clone(&lm), 1)))
        .collect();
    for (_, set) in &baseline {
        let _ = set.env().row_store();
    }
    let expected: Vec<Answer> = workload
        .iter()
        .map(|w| {
            let env = baseline
                .iter()
                .find(|(n, _)| *n == w.domain)
                .expect("domain generated")
                .1
                .env();
            run_method(w.method, &w.question, env)
        })
        .collect();
    let server = Arc::new(Server::start(
        generate_all(seed, scale),
        SimConfig::default(),
        ServerConfig {
            workers: 8,
            queue_capacity: 256,
            shards: 8,
            ..ServerConfig::default()
        },
    ));
    let n = workload.len();
    let workload = Arc::new(workload);
    let stats = run_level(&server, &workload, &expected, 8);
    server.shutdown();
    (n, stats)
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
    let mut sweep = false;
    let mut smoke = false;
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
            "--shard-sweep" => sweep = true,
            // CI smoke preset: tiny data, one method, two levels.
            "--smoke" => {
                smoke = true;
                scale_name = "tiny".to_owned();
                methods = vec![MethodName::HandWritten];
                levels = vec![1, 4];
                workers = 4;
            }
            _ => usage(),
        }
    }
    let scale = parse_scale(&scale_name);

    if sweep {
        let path = if json_path == "BENCH_plancache.json" {
            "BENCH_shard.json"
        } else {
            json_path.as_str()
        };
        shard_sweep(seed, smoke, path);
        return;
    }

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

    // Serial baseline: single-shard sets (the scatter hook at one shard
    // is a straight pass-through to the only slice), no batching, no
    // answer cache.
    let baseline_lm: Arc<dyn tag_lm::model::LanguageModel> =
        Arc::new(SimLm::new(SimConfig::default()));
    let baseline_envs: Vec<(&'static str, ShardSet)> = generate_all(seed, scale)
        .into_iter()
        .map(|d| (d.name, ShardSet::new(d, Arc::clone(&baseline_lm), 1)))
        .collect();
    let env_for = |domain: &str| -> &TagEnv {
        baseline_envs
            .iter()
            .find(|(n, _)| *n == domain)
            .expect("workload domain generated")
            .1
            .env()
    };
    for (_, set) in &baseline_envs {
        let _ = set.env().row_store();
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
