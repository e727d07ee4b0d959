//! `serve_cold` and `serve_hot`: the shipped serving path, one protocol
//! line at a time.
//!
//! Each request runs `parse_line("ASK <domain> <method> <question>")` →
//! `Server::ask` → `format_answer` against a server started with
//! `ServerConfig::default()`: the benchmark sets no knob. Load is a
//! closed loop of two clients (the only shipped front ends, `Server::ask`
//! and the stdin loop of `tag-serve`, are call-and-wait).
//!
//! - `serve_cold` cycles over 4,000 distinct keys (800 generated
//!   questions × the 5 methods), 3.9× the 1,024-entry answer cache, so
//!   under LRU every request is a miss, a fill and an eviction and every
//!   layer runs on every request.
//! - `serve_hot` draws, with Zipf(1.0) popularity, from 512 keys that
//!   were asked once during set-up and fit the cache with room to spare:
//!   every request is a hit and only `tag-serve` works. It bypasses every
//!   executor, LM and optimiser change and isolates pipeline and hand-off
//!   changes.

use crate::metrics::Report;
use crate::probes::{Exercised, ProbeOp, Probes};
use crate::questions::{self, Question};
use crate::rng::{Rng, Zipf};
use crate::spans::{self, Recorder, Span};
use crate::stats::{alternating_ratio, percentile, Slice, SLICES};
use crate::twin::Twin;
use crate::{Config, Outcome};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tag_datagen::{generate_all, DomainData, Scale};
use tag_lm::sim::SimConfig;
use tag_serve::{
    format_answer, parse_line, Command, MethodName, Request, ServeError, Server, ServerConfig,
};

/// Distinct generated questions; × 5 methods = the key list.
const QUESTIONS: usize = 800;
const METHODS: [&str; 5] = ["text2sql", "rag", "rerank", "text2sql_lm", "handwritten"];
/// Keys `serve_hot` draws from: half the answer cache, so that no cache
/// shard overflows and a hit stays a hit.
const HOT_KEYS: usize = 512;
/// How `serve_hot`'s popularity ranking drifts (see `Traffic::client`).
const HOT_DRIFT: usize = 37;
const HOT_DRIFT_EVERY: usize = 256;
/// Closed-loop clients: one process, at most `nproc` = 2 threads of load.
const CLIENTS: usize = 2;
/// Requests asked once, untimed, before `serve_cold` is measured.
const COLD_WARMUP: usize = 200;
/// `serve_hot` answers ~10⁵ requests a second; it keeps every 8th latency
/// so that the sample's memory does not grow with the program's speed.
const HOT_STRIDE: usize = 8;
/// Stretches, each with fresh client threads, that one server's share of
/// the timed section is measured in.
const SUB_SLICES: usize = 4;
/// Requests per 1-client pass of the traced sample.
const COLD_SAMPLE: usize = 300;
const HOT_SAMPLE: usize = 10_000;

fn parse_ask(line: &str) -> (String, MethodName, String) {
    match parse_line(line) {
        Ok(Command::Ask {
            domain,
            method,
            question,
        }) => (domain, method, question),
        other => panic!("generated line {line:?} parsed as {other:?}"),
    }
}

/// What the clients send and what must come back.
struct Inputs {
    lines: Vec<String>,
    /// Reference answer per key, as `format_answer` renders it; empty for
    /// keys the workload never sends.
    expected: Vec<String>,
    /// Wall time of the serial reference per key.
    serial_ns: Vec<u64>,
}

fn key_lines(questions: &[Question], rng: &mut Rng) -> Vec<String> {
    let mut lines: Vec<String> = questions
        .iter()
        .flat_map(|q| {
            METHODS
                .iter()
                .map(move |m| format!("ASK {} {m} {}", q.domain, q.text))
        })
        .collect();
    rng.shuffle(&mut lines);
    lines
}

/// Run the serial reference for key `k` (recording its spans when
/// traced); returns whether the answer is an `Answer::Error`.
fn reference(twin: &mut Twin, inputs: &mut Inputs, k: usize, rec: Option<&mut Recorder>) -> bool {
    let (domain, method, question) = parse_ask(&inputs.lines[k]);
    let (answer, ns) = twin.run(&domain, method, &question, rec.map(|r| (r, k as u64)));
    inputs.expected[k] = format_answer(&answer);
    inputs.serial_ns[k] = ns;
    answer.is_error()
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Latency only: what the end-to-end run records.
    Plain,
    /// Also keep the public fields of every `Response`.
    Fields,
    /// Record the span tree (and `Response` fields) of request `k` iff
    /// `k % 2` is this parity; the rest run plain.
    Alternating(u64),
}

/// The public fields of one `Response`, beside the harness's own timing.
struct Fields {
    lat_ns: u64,
    queue_wait_ns: u64,
    exec_ns: u64,
    total_ns: u64,
    hit: bool,
    key: usize,
}

#[derive(Default)]
struct PhaseOut {
    /// Every `stride`-th latency, per client in request order.
    lat_ns: Vec<u64>,
    fields: Vec<Fields>,
    spans: Vec<Span>,
    attempted: u64,
    failed: u64,
    shed: u64,
    first_failure: Option<String>,
    elapsed: Duration,
}

impl PhaseOut {
    /// Add a later phase's results to this one's (elapsed times add up).
    fn absorb(&mut self, o: PhaseOut) {
        self.lat_ns.extend(o.lat_ns);
        self.fields.extend(o.fields);
        self.spans.extend(o.spans);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.shed += o.shed;
        self.first_failure = self.first_failure.take().or(o.first_failure);
        self.elapsed += o.elapsed;
    }
}

/// When a phase ends: once both hold, checked after each request.
#[derive(Clone, Copy)]
struct Stop {
    min_time: Duration,
    min_requests: u64,
}

type NextKey<'a> = Box<dyn FnMut() -> usize + Send + 'a>;

/// Drive the server with one closed-loop client per entry of `clients`.
fn phase(
    server: &Server,
    inputs: &Inputs,
    clients: Vec<NextKey>,
    stop: Stop,
    mode: Mode,
    stride: usize,
    epoch: Instant,
) -> PhaseOut {
    let n = clients.len();
    let barrier = Barrier::new(n);
    let per_client = stop.min_requests.div_ceil(n as u64);
    let outs: Vec<PhaseOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut next)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = PhaseOut::default();
                    let mut rec = Recorder::new(epoch);
                    if matches!(mode, Mode::Alternating(_)) {
                        rec.reserve(7 * per_client as usize);
                    }
                    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
                    barrier.wait();
                    let started = Instant::now();
                    loop {
                        let key = next();
                        let line = &inputs.lines[key];
                        let traced = match mode {
                            Mode::Alternating(parity) => out.attempted % 2 == parity,
                            Mode::Plain | Mode::Fields => false,
                        };
                        let t0 = Instant::now();
                        let (domain, method, question) = parse_ask(line);
                        let t1 = traced.then(Instant::now);
                        let reply = server.ask(Request::new(domain, method, question));
                        let t2 = traced.then(Instant::now);
                        let text = reply.as_ref().ok().map(|r| format_answer(&r.answer));
                        let t3 = Instant::now();
                        let lat_ns = (t3 - t0).as_nanos() as u64;
                        if out.attempted % stride as u64 == 0 {
                            out.lat_ns.push(lat_ns);
                        }
                        out.attempted += 1;
                        match &reply {
                            Ok(_) if text.as_deref() == Some(inputs.expected[key].as_str()) => {}
                            Ok(_) => {
                                out.failed += 1;
                                out.first_failure.get_or_insert_with(|| {
                                    format!(
                                        "{line}: served {text:?}, serial reference {:?}",
                                        inputs.expected[key]
                                    )
                                });
                            }
                            Err(e) => {
                                out.failed += 1;
                                if matches!(e, ServeError::QueueFull | ServeError::DeadlineExceeded)
                                {
                                    out.shed += 1;
                                }
                                out.first_failure
                                    .get_or_insert_with(|| format!("{line}: {e}"));
                            }
                        }
                        if let (true, Ok(r)) = (traced || mode == Mode::Fields, &reply) {
                            out.fields.push(Fields {
                                lat_ns,
                                queue_wait_ns: r.queue_wait.as_nanos() as u64,
                                exec_ns: r.exec.as_nanos() as u64,
                                total_ns: r.total.as_nanos() as u64,
                                hit: r.cache_hit,
                                key,
                            });
                        }
                        if let (Some(t1), Some(t2), Ok(r)) = (t1, t2, &reply) {
                            // The request's span tree. The server's three
                            // durations are laid end to end from the moment
                            // of the call; what is left of `server.ask` is
                            // admission and the wake-up of this thread.
                            let request = ((c as u64) << 32) | out.attempted;
                            let root = rec.push("request", None, request, since(t0), since(t3));
                            rec.push("protocol.parse", Some(root), request, since(t0), since(t1));
                            let ask =
                                rec.push("server.ask", Some(root), request, since(t1), since(t2));
                            let (qw, ex, total) = (
                                r.queue_wait.as_nanos() as u64,
                                r.exec.as_nanos() as u64,
                                r.total.as_nanos() as u64,
                            );
                            let a = since(t1);
                            rec.push("queue_wait", Some(ask), request, a, a + qw);
                            rec.push("exec", Some(ask), request, a + qw, a + qw + ex);
                            rec.push(
                                "reply",
                                Some(ask),
                                request,
                                a + qw + ex,
                                a + total.max(qw + ex),
                            );
                            rec.push("protocol.format", Some(root), request, since(t2), since(t3));
                        }
                        if t3 - started >= stop.min_time && out.attempted >= per_client {
                            out.elapsed = t3 - started;
                            break;
                        }
                    }
                    out.spans = rec.into_spans();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = PhaseOut::default();
    for o in outs {
        let elapsed = all.elapsed.max(o.elapsed);
        all.absorb(o);
        all.elapsed = elapsed;
    }
    all
}

/// The two workloads differ only in which key a client sends next.
struct Traffic {
    hot: bool,
    /// Keys a request may name: every key (`serve_cold`) or the hot set.
    keys: Vec<usize>,
    zipf: Zipf,
    rng: Rng,
    /// Leading keys reserved for the traced sample (`serve_cold`, traced
    /// run only).
    sample: usize,
    /// `serve_cold`: where in the cycle the next request, of whichever
    /// client, takes its key. It only hands out positions, so `Relaxed`.
    cursor: AtomicUsize,
}

impl Traffic {
    /// The key stream of client `c`: its own random stream (`serve_hot`),
    /// or the next position of the one shared cycle (`serve_cold`), so
    /// that a key comes round again only after every other key has.
    fn client(&self, c: usize) -> NextKey<'_> {
        if self.hot {
            // Popularity is Zipf(1.0) at any moment, but it drifts: the
            // ranking rotates by HOT_DRIFT keys every HOT_DRIFT_EVERY
            // requests. A hit costs what its answer's size costs, and the
            // top ten ranks draw 43% of the traffic; without the drift a
            // run measures whichever ten answers the seed made popular.
            let mut rng = self.rng.fork(c as u64 + 1);
            let mut sent = 0;
            Box::new(move || {
                sent += 1;
                let shift = sent / HOT_DRIFT_EVERY * HOT_DRIFT;
                self.keys[(self.zipf.sample(&mut rng) + shift) % self.keys.len()]
            })
        } else {
            // The traced sample (the head of the list) is kept out of
            // the cycle, so that only the sample passes ever ask for it.
            let cycle = &self.keys[self.sample..];
            Box::new(move || cycle[self.cursor.fetch_add(1, Relaxed) % cycle.len()])
        }
    }

    fn clients(&self, n: usize) -> Vec<NextKey<'_>> {
        (0..n).map(|c| self.client(c)).collect()
    }

    /// What set-up asks once, untimed: every hot key (the cache fill), or
    /// the COLD_WARMUP keys of the cycle just behind the cursor, which
    /// the cycle reaches again last, long after they have been evicted.
    fn warm_up(&self) -> Vec<usize> {
        if self.hot {
            return self.keys.clone();
        }
        let cycle = &self.keys[self.sample..];
        let at = self.cursor.load(Relaxed) % cycle.len();
        (0..COLD_WARMUP)
            .map(|i| cycle[(at + cycle.len() - COLD_WARMUP + i) % cycle.len()])
            .collect()
    }
}

/// One client's stream: `keys` in order, again and again.
fn replay(keys: &[usize]) -> NextKey<'_> {
    let mut at = 0;
    Box::new(move || {
        at += 1;
        keys[(at - 1) % keys.len()]
    })
}

/// Datagen + `Server::start` (shards, row stores) + the warm-up pass:
/// everything a deployment pays before its first timed request.
fn set_up(
    cfg: &Config,
    inputs: &Inputs,
    traffic: &Traffic,
    epoch: Instant,
) -> Result<(Server, f64, f64), String> {
    let t = Instant::now();
    let domains = generate_all(cfg.seed, Scale::default());
    let generate_s = t.elapsed().as_secs_f64();
    let server = Server::start(domains, SimConfig::default(), ServerConfig::default());
    let warm = traffic.warm_up();
    let halves: Vec<NextKey> = warm
        .chunks(warm.len().div_ceil(CLIENTS))
        .map(replay)
        .collect();
    let stop = Stop {
        min_time: Duration::ZERO,
        min_requests: warm.len() as u64,
    };
    let out = phase(&server, inputs, halves, stop, Mode::Plain, 1, epoch);
    if let Some(f) = out.first_failure {
        return Err(format!("warm-up request failed: {f}"));
    }
    Ok((server, t.elapsed().as_secs_f64(), generate_s))
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let hot = cfg.workload == "serve_hot";
    let epoch = Instant::now();
    let mut rng = Rng::new(cfg.seed);
    let domains: Vec<DomainData> = generate_all(cfg.seed, Scale::default());
    // The layer probes build their own environments first, while nothing
    // has been freed yet and RSS deltas still mean something.
    let mut probes = cfg
        .trace
        .then(|| Probes::build(&domains, epoch))
        .transpose()?;
    let questions = questions::generate(&domains, QUESTIONS, &mut rng);
    let lines = key_lines(&questions, &mut rng);
    let n_keys = lines.len();
    let mut inputs = Inputs {
        expected: vec![String::new(); n_keys],
        serial_ns: vec![0; n_keys],
        lines,
    };

    let mut twin_rec = Recorder::new(epoch);
    let mut twin = Twin::new(domains, epoch);
    twin.build_row_stores();
    // `serve_cold` can send any key. `serve_hot` sends the first HOT_KEYS
    // keys whose answer the server will cache (never an `Answer::Error`).
    let mut keys = Vec::new();
    for k in 0..n_keys {
        let error = reference(
            &mut twin,
            &mut inputs,
            k,
            cfg.trace.then_some(&mut twin_rec),
        );
        if !(hot && error) {
            keys.push(k);
        }
        if hot && keys.len() == HOT_KEYS {
            break;
        }
    }
    let traffic = Traffic {
        hot,
        zipf: Zipf::new(keys.len(), 1.0),
        keys,
        rng: rng.fork(0x5e21e),
        sample: if cfg.trace && !hot { COLD_SAMPLE } else { 0 },
        cursor: AtomicUsize::new(0),
    };
    let stride = if hot { HOT_STRIDE } else { 1 };

    if !cfg.trace {
        drop(twin);
        // The timed section runs on SLICES freshly started servers, each
        // measured in SUB_SLICES stretches with client threads of their
        // own. The hit path is a few microseconds of atomics and
        // hand-offs: how fast it runs depends on where a server's
        // allocations land and, second by second, on which core the
        // scheduler wakes whom. One server measured in one stretch would
        // report those accidents; the median over 20 slices does not.
        // Every server pays its own set-up.
        let mut setups = Vec::new();
        let mut slices = Vec::new();
        let mut total = PhaseOut::default();
        let stop = Stop {
            min_time: Duration::from_secs_f64(cfg.seconds / (SLICES * SUB_SLICES) as f64),
            min_requests: 0,
        };
        for _ in 0..SLICES {
            let (server, secs, _) = set_up(cfg, &inputs, &traffic, epoch)?;
            setups.push(secs);
            for _ in 0..SUB_SLICES {
                let mut out = phase(
                    &server,
                    &inputs,
                    traffic.clients(CLIENTS),
                    stop,
                    Mode::Plain,
                    stride,
                    epoch,
                );
                slices.push(Slice {
                    seconds: out.elapsed.as_secs_f64(),
                    ops: out.attempted,
                    lat_ns: std::mem::take(&mut out.lat_ns),
                });
                total.absorb(out);
            }
            server.shutdown();
        }
        cfg.check_timed_section(total.elapsed.as_secs_f64())?;
        let mut notes: Vec<String> = total.first_failure.into_iter().collect();
        let report = Report::end_to_end(&mut slices, 99.0, &setups, &mut notes)?;
        return Ok(Outcome {
            attempted: total.attempted,
            failed: total.failed,
            report,
            notes,
        });
    }

    // ---- the traced run: per-layer metrics ---------------------------
    let mut report = Report::per_layer();
    let (server, _, generate_s) = set_up(cfg, &inputs, &traffic, epoch)?;
    report.set("tag-datagen.generate_s", generate_s);
    let batch0 = server.batch_stats();

    // A fixed sample, replayed by one client: once to warm, then four
    // times with every other request traced (see `alternating_ratio`). On
    // `serve_cold` a 2-client stretch over >1,024 other keys runs before
    // each pass to evict the sample again; those stretches are also where
    // the `Response` fields are gathered. `serve_hot` gathers them in one
    // stretch up front.
    let sample: Vec<usize> = if hot {
        let mut r = traffic.rng.fork(0x5a);
        (0..HOT_SAMPLE)
            .map(|_| traffic.keys[traffic.zipf.sample(&mut r)])
            .collect()
    } else {
        traffic.keys[..COLD_SAMPLE].to_vec()
    };
    let once = Stop {
        min_time: Duration::ZERO,
        min_requests: sample.len() as u64,
    };
    let stretch = |share: f64, min_requests: u64| Stop {
        min_time: Duration::from_secs_f64(cfg.seconds * share),
        min_requests,
    };
    // `loaded`: the 2-client stretches. `sampled`: the 1-client passes.
    let mut loaded = PhaseOut::default();
    let load = |stop: Stop| {
        phase(
            &server,
            &inputs,
            traffic.clients(CLIENTS),
            stop,
            Mode::Fields,
            1,
            epoch,
        )
    };
    if hot {
        loaded.absorb(load(stretch(0.4, 0)));
    }
    let mut sampled = PhaseOut::default();
    let mut passes = Vec::new();
    for parity in [None, Some(0), Some(1), Some(1), Some(0)] {
        if !hot {
            loaded.absorb(load(stretch(0.1, 1100)));
        }
        let mode = parity.map_or(Mode::Plain, Mode::Alternating);
        let mut o = phase(
            &server,
            &inputs,
            vec![replay(&sample)],
            once,
            mode,
            1,
            epoch,
        );
        if let Some(parity) = parity {
            passes.push((parity as usize, std::mem::take(&mut o.lat_ns)));
        }
        sampled.absorb(o);
    }
    let attempted = loaded.attempted + sampled.attempted;
    let failed = loaded.failed + sampled.failed;
    let first_failure = loaded.first_failure.take().or(sampled.first_failure.take());
    let batch = server.batch_stats();
    let plan = server.plan_cache_stats();
    server.shutdown();
    report.set_n(
        "tag-perf.trace_overhead_ratio",
        alternating_ratio(&passes),
        sample.len(),
    );

    // From the `Response` fields under 2-client load.
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;
    let n = loaded.fields.len();
    let hits = loaded.fields.iter().filter(|f| f.hit).count();
    report.set_n("tag-serve.hit_ratio", hits as f64 / n as f64, n);
    report.set("tag-serve.shed_count", loaded.shed as f64);
    let mut qw: Vec<u64> = loaded.fields.iter().map(|f| f.queue_wait_ns).collect();
    report.set_n(
        "tag-serve.queue_wait_us_p50",
        us(percentile(&mut qw, 50.0, "queue_wait p50")?),
        n,
    );
    report.set_n(
        "tag-serve.queue_wait_us_p99",
        us(percentile(&mut qw, 99.0, "queue_wait p99")?),
        n,
    );
    let mut hit_lat: Vec<u64> = loaded
        .fields
        .iter()
        .filter(|f| f.hit)
        .map(|f| f.lat_ns)
        .collect();
    if !hit_lat.is_empty() {
        report.set_n(
            "tag-serve.hit_lat_us_p50",
            us(percentile(&mut hit_lat, 50.0, "hit latency")?),
            hits,
        );
    }
    let misses: Vec<&Fields> = loaded.fields.iter().filter(|f| !f.hit).collect();
    if !misses.is_empty() {
        let m = misses.len();
        let mut lat: Vec<u64> = misses.iter().map(|f| f.lat_ns).collect();
        let mut exec: Vec<u64> = misses.iter().map(|f| f.exec_ns).collect();
        let mut reply: Vec<u64> = misses
            .iter()
            .map(|f| f.total_ns.saturating_sub(f.queue_wait_ns + f.exec_ns))
            .collect();
        report.set_n(
            "tag-serve.miss_lat_ms_p50",
            ms(percentile(&mut lat, 50.0, "miss latency")?),
            m,
        );
        report.set_n(
            "tag-serve.exec_ms_p50",
            ms(percentile(&mut exec, 50.0, "exec")?),
            m,
        );
        report.set_n(
            "tag-serve.reply_us_p50",
            us(percentile(&mut reply, 50.0, "reply")?),
            m,
        );
    }
    // Server rate over the serial loop's rate on the same requests.
    let serial_ns: u64 = loaded.fields.iter().map(|f| inputs.serial_ns[f.key]).sum();
    report.set(
        "tag-serve.vs_serial",
        serial_ns as f64 / 1e9 / loaded.elapsed.as_secs_f64(),
    );
    let rounds = (batch.rounds - batch0.rounds) as f64;
    if rounds > 0.0 {
        report.set(
            "tag-serve.batch_prompts_per_round",
            (batch.prompts - batch0.prompts) as f64 / rounds,
        );
        report.set(
            "tag-serve.batch_cross_request_share",
            (batch.cross_request_rounds - batch0.cross_request_rounds) as f64 / rounds,
        );
    }
    report.set(
        "tag-serve.batch_fallback_rounds",
        (batch.fallback_rounds - batch0.fallback_rounds) as f64,
    );
    report.set_share(
        "tag-sql.plan_cache_hit_ratio",
        plan.hits,
        plan.hits + plan.misses,
    );

    // From the 1-client sample: the span tree, and the share of a
    // request's wall time that the serving path adds to the serial loop.
    let own = spans::self_time_by_name(&sampled.spans);
    let requests = sampled.spans.iter().filter(|s| s.parent.is_none()).count() as f64;
    report.set(
        "tag-serve.protocol_us_mean",
        us(own["protocol.parse"] + own["protocol.format"]) / requests,
    );
    let self_ns = spans::self_times(&sampled.spans);
    let mut admit: Vec<u64> = sampled
        .spans
        .iter()
        .filter(|s| s.name == "server.ask")
        .map(|s| self_ns[&s.id].max(0) as u64)
        .collect();
    report.set_n(
        "tag-serve.admit_wake_us_p50",
        us(percentile(&mut admit, 50.0, "admit+wake")?),
        admit.len(),
    );
    let sample_misses: Vec<&Fields> = sampled.fields.iter().filter(|f| !f.hit).collect();
    if !sample_misses.is_empty() {
        let served: u64 = sample_misses.iter().map(|f| f.total_ns).sum();
        let serial: u64 = sample_misses.iter().map(|f| inputs.serial_ns[f.key]).sum();
        report.set(
            "tag-serve.wall_share",
            (1.0 - serial as f64 / served as f64).max(0.0),
        );
    }

    twin.fill(&mut report)?;
    let probes = probes.as_mut().expect("built when tracing");
    let ops: Vec<ProbeOp> = sample
        .iter()
        .take(COLD_SAMPLE)
        .map(|k| {
            let (domain, method, question) = parse_ask(&inputs.lines[*k]);
            ProbeOp {
                domain,
                method,
                question,
                serial_ns: inputs.serial_ns[*k],
            }
        })
        .collect();
    probes.run(
        &ops,
        Exercised {
            retrieval: true,
            answer_cache: true,
        },
        &mut report,
    )?;

    let mut all_spans = twin_rec.into_spans();
    all_spans.extend(sampled.spans);
    let spans_note = spans::finish(&cfg.spans_path(), &all_spans)?;
    Ok(Outcome {
        attempted,
        failed,
        report,
        notes: first_failure.into_iter().chain([spans_note]).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn lines(seed: u64) -> Vec<String> {
        let domains = generate_all(seed, Scale::default());
        let mut rng = Rng::new(seed);
        let questions = questions::generate(&domains, QUESTIONS, &mut rng);
        key_lines(&questions, &mut rng)
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_list() {
        let a = lines(42);
        assert_eq!(a, lines(42));
        assert_ne!(a, lines(43));
        assert_eq!(a.len(), QUESTIONS * METHODS.len());
        let distinct: HashSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "no repeated key");
        for line in &a {
            let (_, _, question) = parse_ask(line);
            assert!(tag_lm::nlq::NlQuery::parse(&question).is_some(), "{line}");
        }
    }

    /// An LRU of the server's default capacity, fed a key stream; returns
    /// the hit share.
    fn lru_hit_share(stream: impl Iterator<Item = usize>, warm: &[usize]) -> f64 {
        let capacity = ServerConfig::default().cache_capacity;
        let mut last_use: HashMap<usize, u64> = HashMap::new();
        let (mut tick, mut hits, mut n) = (0u64, 0u64, 0u64);
        let mut touch = |key: usize, count: bool| {
            tick += 1;
            if last_use.insert(key, tick).is_some() {
                hits += u64::from(count);
            } else if last_use.len() > capacity {
                let oldest = *last_use
                    .iter()
                    .min_by_key(|(_, t)| **t)
                    .expect("non-empty")
                    .0;
                last_use.remove(&oldest);
            }
            n += u64::from(count);
        };
        for k in warm {
            touch(*k, false);
        }
        for k in stream {
            touch(k, true);
        }
        hits as f64 / n as f64
    }

    fn traffic(hot: bool, keys: usize) -> Traffic {
        Traffic {
            hot,
            keys: (0..keys).collect(),
            zipf: Zipf::new(keys, 1.0),
            rng: Rng::new(7),
            sample: 0,
            cursor: AtomicUsize::new(0),
        }
    }

    /// The working-set claims behind the two workloads' names: the cold
    /// cycle never finds its key in an LRU of the default size, the hot
    /// set never loses one.
    #[test]
    fn cold_cycle_always_misses_and_hot_set_always_hits() {
        let cold = traffic(false, QUESTIONS * METHODS.len());
        let mut clients = cold.clients(CLIENTS);
        let stream = (0..12_000).map(|i| clients[i % CLIENTS]());
        assert_eq!(lru_hit_share(stream, &[]), 0.0);

        let hot = traffic(true, HOT_KEYS);
        let mut clients = hot.clients(CLIENTS);
        let stream = (0..20_000).map(|i| clients[i % CLIENTS]());
        assert_eq!(lru_hit_share(stream, &hot.keys), 1.0);
    }
}
