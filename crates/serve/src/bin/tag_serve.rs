//! `tag-serve` — a line-protocol server over the generated BIRD domains.
//!
//! Reads commands from stdin, one per line:
//!
//! ```text
//! ASK <domain> <method> <question…>      answer one question
//! EXPLAIN <domain> <select>              show the relational plan
//! EXPLAIN <domain> SEMPLAN <question…>   show the semantic plan
//! EXPLAIN <domain> VERIFY <question…>    verify the semantic plan
//! STATS                                  print the metrics report
//! METRICS                                print the Prometheus exposition
//! TRACE <id> [JSONL]                     print a captured request trace
//! QUIT                                   shut down
//! ```
//!
//! An `EXPLAIN` line's statement runs as `EXPLAIN <statement>` through
//! the domain's `TagEnv::run_sql`, which executes nothing for any of the
//! three forms.
//!
//! Replies to `ASK` are single lines:
//! `OK total=… queue=… cache=… trace=<id> <answer>` or `ERR <reason>`;
//! the trace id can be fed back to `TRACE` for the span tree (or JSONL
//! export) of that request.

use std::io::BufRead;
use std::time::Duration;
use tag_datagen::{generate_all, Scale};
use tag_lm::sim::SimConfig;
use tag_serve::{format_answer, parse_line, Command, Request, Server, ServerConfig, TraceLookup};

fn usage() -> ! {
    eprintln!(
        "usage: tag-serve [--workers N] [--queue N] [--seed N] [--scale tiny|small|standard] \
         [--deadline-ms N] [--trace-capacity N] [--tail-traces N] [--no-metrics]\n\
         \n  --workers N  cache misses executing at once, each on its caller's thread (default 4)\
         \n  --queue N    callers that may wait for a slot before requests are shed (default 64)"
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

fn main() {
    let mut config = ServerConfig::default();
    let mut seed = 42u64;
    let mut scale = parse_scale("small");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workers" => config.workers = val().parse().unwrap_or_else(|_| usage()),
            "--queue" => config.queue_capacity = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--scale" => scale = parse_scale(&val()),
            "--deadline-ms" => {
                config.default_deadline =
                    Duration::from_millis(val().parse().unwrap_or_else(|_| usage()))
            }
            "--trace-capacity" => config.trace_capacity = val().parse().unwrap_or_else(|_| usage()),
            "--tail-traces" => config.tail_traces = val().parse().unwrap_or_else(|_| usage()),
            "--no-metrics" => config.metrics_enabled = false,
            _ => usage(),
        }
    }

    eprintln!("tag-serve: generating domains (seed {seed})...");
    let server = Server::start(generate_all(seed, scale), SimConfig::default(), config);
    eprintln!("tag-serve: ready; domains: {}", server.domains().join(", "));

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Ok(Command::Ask {
                domain,
                method,
                question,
            }) => match server.ask(Request::new(domain, method, question)) {
                Ok(resp) => println!(
                    "OK total={:.3}ms queue={:.3}ms cache={} trace={} {}",
                    resp.total.as_secs_f64() * 1e3,
                    resp.queue_wait.as_secs_f64() * 1e3,
                    if resp.cache_hit { "hit" } else { "miss" },
                    resp.trace_id
                        .map(|id| id.to_string())
                        .unwrap_or_else(|| "-".to_owned()),
                    format_answer(&resp.answer),
                ),
                Err(e) => println!("ERR {e}"),
            },
            Ok(Command::Explain { domain, statement }) => {
                match server.explain(&domain, &statement) {
                    Ok(plan) => println!("{plan}"),
                    Err(e) => println!("ERR {e}"),
                }
            }
            Ok(Command::Stats) => print!("{}", server.report()),
            Ok(Command::Metrics) => print!("{}", server.metrics_text()),
            Ok(Command::Trace { id, jsonl }) => {
                let rendered = if jsonl {
                    server.trace_jsonl(id)
                } else {
                    server.trace_report(id)
                };
                match rendered {
                    Some(text) => print!("{text}"),
                    None => match server.trace_lookup(id) {
                        TraceLookup::Evicted => println!(
                            "ERR trace {id} evicted (aged out of the ring and tail \
                             reservoir; widen --trace-capacity to keep more)"
                        ),
                        _ => println!("ERR unknown trace id {id}"),
                    },
                }
            }
            Ok(Command::Quit) => break,
            Err(e) => println!("ERR {e}"),
        }
    }
    print!("{}", server.report());
    server.shutdown();
}
