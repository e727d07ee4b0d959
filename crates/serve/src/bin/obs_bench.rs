//! `obs-bench` — the observability overhead gate.
//!
//! Replays the TAG-Bench workload against two otherwise-identical
//! servers: one with the metrics hub enabled, one with the null
//! registry (`--no-metrics`). Both arms record the serving latency and
//! stage histograms, which `STATS` needs; the gate measures what the
//! live hub adds on top: registration, collectors, SQL operator metrics
//! and rendering. Arms are *interleaved* — A, B, A, B, … — and each arm's
//! wall-clock is the **minimum** over its rounds, so ambient machine
//! noise (first-toucher page faults, turbo ramps) hits both arms
//! symmetrically instead of whichever ran first.
//!
//! Answers from both arms are compared request-for-request: telemetry
//! must never change a result. The run is written to `BENCH_obs.json`
//! and the process exits non-zero when the enabled arm's overhead
//! exceeds `--threshold` percent (default 2%) — the CI wiring makes
//! "observability got expensive" a failing build instead of a slow
//! regression.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tag_bench::build_benchmark;
use tag_core::answer::Answer;
use tag_datagen::{generate_all, Scale};
use tag_lm::sim::SimConfig;
use tag_serve::{MethodName, Request, ServeError, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: obs-bench [--seed N] [--scale tiny|small|standard] \
         [--method text2sql|rag|rerank|text2sql_lm|handwritten] [--concurrency N] \
         [--rounds N] [--threshold PCT] [--json PATH] [--smoke]"
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

/// Replay the full workload once and return (wall seconds, answers in
/// workload order).
fn replay(
    server: &Arc<Server>,
    workload: &Arc<Vec<WorkItem>>,
    clients: usize,
) -> (f64, Vec<Answer>) {
    let next = Arc::new(AtomicUsize::new(0));
    let answers: Arc<Vec<parking_lot::Mutex<Option<Answer>>>> = Arc::new(
        workload
            .iter()
            .map(|_| parking_lot::Mutex::new(None))
            .collect(),
    );
    let started = Instant::now();
    let threads: Vec<_> = (0..clients.max(1))
        .map(|_| {
            let server = Arc::clone(server);
            let next = Arc::clone(&next);
            let answers = Arc::clone(&answers);
            let workload = Arc::clone(workload);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(w) = workload.get(i) else { return };
                let resp = loop {
                    let req = Request::new(w.domain, w.method, w.question.clone());
                    match server.ask(req) {
                        Ok(resp) => break resp,
                        Err(ServeError::QueueFull) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("obs-bench request failed: {e}"),
                    }
                };
                *answers[i].lock() = Some(resp.answer);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let wall = started.elapsed().as_secs_f64();
    let collected = answers
        .iter()
        .map(|a| a.lock().take().unwrap_or(Answer::Error("missing".into())))
        .collect();
    (wall, collected)
}

fn main() {
    let mut seed = 42u64;
    let mut scale_name = "tiny".to_owned();
    let mut method = MethodName::HandWritten;
    let mut clients = 4usize;
    let mut rounds = 5usize;
    let mut threshold_pct = 2.0f64;
    let mut json_path = "BENCH_obs.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--scale" => scale_name = val(),
            "--method" => method = MethodName::parse(&val()).unwrap_or_else(|| usage()),
            "--concurrency" => clients = val().parse().unwrap_or_else(|_| usage()),
            "--rounds" => rounds = val().parse::<usize>().unwrap_or_else(|_| usage()).max(1),
            "--threshold" => threshold_pct = val().parse().unwrap_or_else(|_| usage()),
            "--json" => json_path = val(),
            // CI preset: tiny data, fewer rounds, still a real A/B.
            "--smoke" => {
                scale_name = "tiny".to_owned();
                rounds = 3;
            }
            _ => usage(),
        }
    }
    let scale = parse_scale(&scale_name);

    eprintln!("obs-bench: generating domains (seed {seed})...");
    let domains = generate_all(seed, scale);
    let queries = build_benchmark(&domains);
    let workload: Arc<Vec<WorkItem>> = Arc::new(
        queries
            .iter()
            .map(|q| WorkItem {
                domain: q.domain,
                method,
                question: q.question(),
            })
            .collect(),
    );
    eprintln!(
        "obs-bench: {} requests, {clients} clients, {rounds} interleaved rounds per arm",
        workload.len(),
    );

    // Fresh server per round so neither arm warms the other's answer
    // cache; the per-round cost is identical across arms and the min
    // cancels generation noise.
    let start_server = |metrics_enabled: bool| -> Arc<Server> {
        Arc::new(Server::start(
            generate_all(seed, scale),
            SimConfig::default(),
            ServerConfig {
                metrics_enabled,
                ..ServerConfig::default()
            },
        ))
    };

    let mut wall_enabled: Vec<f64> = Vec::new();
    let mut wall_noop: Vec<f64> = Vec::new();
    let mut mismatches = 0usize;
    let mut reference: Option<Vec<Answer>> = None;
    for round in 0..rounds {
        for metrics_enabled in [true, false] {
            let server = start_server(metrics_enabled);
            let (wall, answers) = replay(&server, &workload, clients);
            match &reference {
                None => reference = Some(answers),
                Some(r) => {
                    mismatches += answers.iter().zip(r).filter(|(a, b)| a != b).count();
                }
            }
            if metrics_enabled {
                // One real scrape per round: exposition cost is part of
                // what the gate measures a server actually paying.
                let text = server.metrics_text();
                assert!(!text.is_empty(), "enabled hub rendered nothing");
                wall_enabled.push(wall);
            } else {
                assert!(server.metrics_text().is_empty(), "noop hub rendered output");
                wall_noop.push(wall);
            }
            eprintln!(
                "obs-bench: round {round} metrics={} {wall:.3}s",
                if metrics_enabled { "on " } else { "off" },
            );
            server.shutdown();
        }
    }

    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let best_enabled = min(&wall_enabled);
    let best_noop = min(&wall_noop);
    let overhead_pct = (best_enabled / best_noop.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    let pass = overhead_pct <= threshold_pct && mismatches == 0;
    println!(
        "obs-bench: enabled {best_enabled:.3}s vs noop {best_noop:.3}s -> overhead {overhead_pct:+.2}% \
         (threshold {threshold_pct:.1}%), answers {}",
        if mismatches == 0 {
            "identical".to_owned()
        } else {
            format!("{mismatches} MISMATCHES")
        },
    );

    let json = format!(
        "{{\"bench\":\"obs-bench\",\"seed\":{seed},\"scale\":\"{scale_name}\",\
         \"method\":\"{}\",\"requests\":{},\"concurrency\":{clients},\"rounds\":{rounds},\
         \"wall_enabled_s\":{best_enabled:.4},\"wall_noop_s\":{best_noop:.4},\
         \"overhead_pct\":{overhead_pct:.3},\"threshold_pct\":{threshold_pct:.1},\
         \"mismatches\":{mismatches},\"pass\":{pass}}}\n",
        method.as_str(),
        workload.len(),
    );
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("obs-bench: wrote {json_path}"),
        Err(e) => eprintln!("obs-bench: could not write {json_path}: {e}"),
    }

    if !pass {
        eprintln!(
            "obs-bench: FAILED — overhead {overhead_pct:+.2}% > {threshold_pct:.1}% or answers diverged"
        );
        std::process::exit(1);
    }
}
