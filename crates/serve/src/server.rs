//! The serving runtime: run-to-completion workers over one bounded
//! admission queue, answering TAG questions against shared per-domain
//! environments.
//!
//! A request changes threads as rarely as it can. [`Server::submit`]
//! probes the answer cache on the caller's thread: a hit is answered
//! there and then, with no queue and no hand-off. A miss goes onto the
//! admission queue, and the worker that takes it off runs it to the
//! end — deadline check, the traced method (`syn → exec → gen`), span
//! fold, trace-store insert, cache fill, metrics, reply — so a miss
//! costs two wake-ups: the worker's and the caller's. Requests share
//! only the answer cache and the model: every domain's env calls the
//! model directly, and LM batching happens within a request, in its
//! `SemEngine`'s rounds. A panic anywhere in the method becomes that
//! request's [`Answer::Error`], so it takes the error path and the
//! worker lives on.
//!
//! The design this replaced ran three pools (`syn`, `exec`, `gen`)
//! over two more bounded channels and held every LM round open for a
//! 1 ms window. Its `syn` and `gen` pools did no method work, so their
//! hops were pure wake-up cost (`serve_cold`, 2 clients, seed 42):
//!
//! | | three pools + window | one pool + group commit |
//! |---|---|---|
//! | wake-ups per miss / per hit | 6 / 4 | 2 / 0 |
//! | `req_per_s` | 599 | 982 |
//! | `tag-serve.vs_serial` | 0.62 | 0.95 |
//!
//! Admission control is explicit: a full queue sheds the request with
//! [`ServeError::QueueFull`] instead of queueing unboundedly, and a
//! request whose deadline passes while queued is dropped at dequeue
//! with [`ServeError::DeadlineExceeded`] rather than wasting a worker
//! on an answer nobody is waiting for.

use crate::cache::AnswerCache;
use crate::metrics::{MetricsRegistry, StageMetrics};
use crate::protocol::{run_method, MethodName};
use crate::trace::{TraceLookup, TraceStore};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tag_core::answer::Answer;
use tag_core::env::TagEnv;
use tag_datagen::DomainData;
use tag_lm::model::LanguageModel;
use tag_lm::sim::{SimConfig, SimLm};
use tag_metrics::{MetricsHub, Sample};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads; each runs one request at a time to completion.
    pub workers: usize,
    /// Bounded admission-queue depth; beyond it requests are shed.
    pub queue_capacity: usize,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline: Duration,
    /// Total answer-cache entries (split across the cache shards).
    pub cache_capacity: usize,
    /// Answer-cache shard count.
    pub cache_shards: usize,
    /// Most recent request traces kept for `TRACE <id>` (0 disables
    /// per-request tracing entirely).
    pub trace_capacity: usize,
    /// Slots in the tail-sampling reservoir that keeps the slowest and
    /// error traces after they age out of the FIFO ring, so the trace
    /// ids that windowed exemplars point at stay resolvable.
    pub tail_traces: usize,
    /// Register the serving histograms, collectors and SQL operator
    /// metrics on a live hub and serve the `METRICS` exposition. When
    /// false the hub is the null registry and `METRICS` renders empty;
    /// the latency and stage histograms still record, so `STATS` is
    /// unchanged.
    pub metrics_enabled: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(10),
            cache_capacity: 1024,
            cache_shards: 8,
            trace_capacity: 256,
            tail_traces: 16,
            metrics_enabled: true,
        }
    }
}

/// What is left of the cross-request LM batcher's counters: all always
/// 0, because every served env calls the model directly.
///
/// Kept only because `perf/` (which no PR but a `benchmark` PR may
/// edit) reads these four fields to fill the three `tag-serve.batch_*`
/// metrics; ROADMAP item 4 drops the struct, [`Server::batch_stats`]
/// and those metrics together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Always 0: no round merges requests.
    pub rounds: u64,
    /// Always 0.
    pub prompts: u64,
    /// Always 0.
    pub cross_request_rounds: u64,
    /// Always 0.
    pub fallback_rounds: u64,
}

/// Why a request was not answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Shed at admission: the bounded queue was full.
    QueueFull,
    /// Dropped at dequeue: the deadline passed while queued.
    DeadlineExceeded,
    /// The domain is not served.
    UnknownDomain(String),
    /// The server is shutting down.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "queue full (request shed)"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded while queued"),
            ServeError::UnknownDomain(d) => write!(f, "unknown domain {d:?}"),
            ServeError::Shutdown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One question for the server.
#[derive(Debug, Clone)]
pub struct Request {
    /// Target domain.
    pub domain: String,
    /// Method to run.
    pub method: MethodName,
    /// The natural-language question.
    pub question: String,
    /// Per-request deadline; `None` uses the server default.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A request with the default deadline.
    pub fn new(domain: impl Into<String>, method: MethodName, question: impl Into<String>) -> Self {
        Request {
            domain: domain.into(),
            method,
            question: question.into(),
            deadline: None,
        }
    }
}

/// A served answer with its timing breakdown.
#[derive(Debug, Clone)]
pub struct Response {
    /// The answer.
    pub answer: Answer,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Method execution time (zero on a cache hit).
    pub exec: Duration,
    /// End-to-end time from admission to reply.
    pub total: Duration,
    /// Whether the answer came from the answer cache.
    pub cache_hit: bool,
    /// Id of the captured trace (`TRACE <id>` retrieves it); `None` on
    /// cache hits and when tracing is disabled.
    pub trace_id: Option<u64>,
}

/// Where a request's outcome is delivered.
struct ReplyCell {
    result: Mutex<Option<Result<Response, ServeError>>>,
    ready: Condvar,
}

impl ReplyCell {
    fn new() -> Arc<Self> {
        Arc::new(ReplyCell {
            result: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn deliver(&self, r: Result<Response, ServeError>) {
        *self.result.lock() = Some(r);
        self.ready.notify_all();
    }
}

/// A ticket for an admitted request; [`wait`](ReplyHandle::wait) blocks
/// until a worker replies. A cache hit's ticket is already complete.
pub struct ReplyHandle(Reply);

enum Reply {
    Ready(Response),
    Pending(Arc<ReplyCell>),
}

impl ReplyHandle {
    /// Block until the request completes (or is dropped at dequeue).
    pub fn wait(self) -> Result<Response, ServeError> {
        let cell = match self.0 {
            Reply::Ready(response) => return Ok(response),
            Reply::Pending(cell) => cell,
        };
        let mut guard = cell.result.lock();
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            cell.ready.wait(&mut guard);
        }
    }
}

/// An admitted cache miss, headed for a worker.
struct Job {
    req: Request,
    /// The domain's env, resolved at admission.
    env: Arc<TagEnv>,
    enqueued: Instant,
    reply: Arc<ReplyCell>,
}

/// State shared by the admission path and every worker.
struct Shared {
    /// One environment per served domain.
    envs: HashMap<String, Arc<TagEnv>>,
    cache: Arc<AnswerCache>,
    /// The workspace metrics hub (the null registry when
    /// [`ServerConfig::metrics_enabled`] is off). Its collectors
    /// capture only the individual `Arc`s they sample — never this
    /// struct — so the hub cannot keep the server alive through itself.
    hub: Arc<MetricsHub>,
    metrics: Arc<MetricsRegistry>,
    stages: StageMetrics,
    traces: TraceStore,
    default_deadline: Duration,
}

/// The concurrent multi-domain serving runtime.
pub struct Server {
    shared: Arc<Shared>,
    tx: Mutex<Option<SyncSender<Job>>>,
    /// Joined on shutdown, once dropping the admission sender has let
    /// the workers drain the queue and exit.
    pool: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Start a server over `domains`, sharing one simulated LM across
    /// every domain environment. See [`Server::start_with_lm`].
    pub fn start(domains: Vec<DomainData>, lm_config: SimConfig, config: ServerConfig) -> Self {
        Self::start_with_lm(domains, Arc::new(SimLm::new(lm_config)), config)
    }

    /// Start a server over `domains` whose envs all send their prompts
    /// straight to `lm`; tests pass a model they can gate, fail or
    /// panic.
    ///
    /// Retrieval indexes are built eagerly so the first request pays no
    /// warm-up cost (the paper builds its FAISS indexes offline too).
    pub fn start_with_lm(
        domains: Vec<DomainData>,
        lm: Arc<dyn LanguageModel>,
        config: ServerConfig,
    ) -> Self {
        let hub = Arc::new(if config.metrics_enabled {
            MetricsHub::new()
        } else {
            MetricsHub::noop()
        });
        let mut envs = HashMap::new();
        for d in domains {
            let env = TagEnv::new(d.db, Arc::clone(&lm));
            let _ = env.row_store();
            if hub.is_enabled() {
                env.db.install_metrics_hub(Arc::clone(&hub));
            }
            envs.insert(d.name.to_owned(), Arc::new(env));
        }
        let started = Instant::now();
        let cache = Arc::new(AnswerCache::new(config.cache_capacity, config.cache_shards));
        let metrics = Arc::new(MetricsRegistry::new(&hub));
        register_collectors(&hub, &metrics, &cache, &envs, started);
        let shared = Arc::new(Shared {
            stages: StageMetrics::new(&hub),
            envs,
            cache,
            hub,
            metrics,
            traces: TraceStore::with_tail(config.trace_capacity, config.tail_traces),
            default_deadline: config.default_deadline,
        });
        let (tx, rx) = sync_channel::<Job>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let pool = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                let name = format!("tag-serve-worker-{i}");
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(move || worker_loop(&rx, &shared))
                    .unwrap_or_else(|e| panic!("cannot spawn {name}: {e}"))
            })
            .collect();
        Server {
            shared,
            tx: Mutex::new(Some(tx)),
            pool: Mutex::new(pool),
        }
    }

    /// Served domain names (sorted).
    pub fn domains(&self) -> Vec<String> {
        let mut v: Vec<String> = self.shared.envs.keys().cloned().collect();
        v.sort();
        v
    }

    /// The shared environment for `domain`, if served.
    pub fn env(&self, domain: &str) -> Option<&Arc<TagEnv>> {
        self.shared.envs.get(domain)
    }

    /// Serving counters and histograms.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Always the zero value: no layer batches LM rounds across
    /// requests any more (see [`BatchStats`]). Only caller:
    /// `perf/src/serve.rs`.
    pub fn batch_stats(&self) -> BatchStats {
        BatchStats::default()
    }

    /// The answer cache (for stats or explicit invalidation).
    pub fn cache(&self) -> &AnswerCache {
        &self.shared.cache
    }

    /// Per-stage aggregates over all traced requests.
    pub fn stage_metrics(&self) -> &StageMetrics {
        &self.shared.stages
    }

    /// Always the zero value; see [`tag_sql::PlanCacheStats`]. Only
    /// caller: `perf/src/serve.rs`.
    pub fn plan_cache_stats(&self) -> tag_sql::PlanCacheStats {
        tag_sql::PlanCacheStats::default()
    }

    /// Render a plan for `statement` against `domain` without executing
    /// it, as `EXPLAIN <statement>` through [`TagEnv::run_sql`]:
    /// `SELECT …` statements show the relational plan, `SEMPLAN
    /// <question>` shows the semantic plan a canonical question compiles
    /// to (after the currently active rewrite rules), and `VERIFY
    /// <question>` runs the static checker over that plan
    /// (well-formedness, rewrite conservation, LM-call bound). Returns
    /// the plan one node per line; `Err` carries the planner's message
    /// verbatim.
    pub fn explain(&self, domain: &str, statement: &str) -> Result<String, String> {
        let env = self
            .shared
            .envs
            .get(domain)
            .ok_or_else(|| ServeError::UnknownDomain(domain.to_owned()).to_string())?;
        let rs = env
            .run_sql(&format!("EXPLAIN {statement}"))
            .map_err(|e| e.to_string())?;
        Ok(rs
            .rows
            .iter()
            .flat_map(|r| r.iter().map(|v| v.to_string()))
            .collect::<Vec<_>>()
            .join("\n"))
    }

    /// The metrics hub behind this server (the null registry when
    /// metrics are disabled).
    pub fn metrics_hub(&self) -> &Arc<MetricsHub> {
        &self.shared.hub
    }

    /// The Prometheus-text exposition served by the `METRICS` protocol
    /// command. Empty when metrics are disabled.
    pub fn metrics_text(&self) -> String {
        self.shared.hub.render()
    }

    /// Three-way trace lookup: resident spans, evicted (the id was
    /// real but aged out of the ring and the tail reservoir), or never
    /// seen.
    pub fn trace_lookup(&self, trace_id: u64) -> TraceLookup {
        self.shared.traces.lookup(trace_id)
    }

    /// The raw spans of a captured trace, if still resident in the ring
    /// or the tail reservoir.
    pub fn trace(&self, trace_id: u64) -> Option<Vec<tag_trace::SpanRecord>> {
        self.shared.traces.get(trace_id)
    }

    /// A captured trace rendered as an indented span tree.
    pub fn trace_report(&self, trace_id: u64) -> Option<String> {
        self.trace(trace_id)
            .map(|spans| tag_trace::render_tree(&spans))
    }

    /// A captured trace as JSONL: one span object per line.
    pub fn trace_jsonl(&self, trace_id: u64) -> Option<String> {
        self.trace(trace_id).map(|spans| {
            let mut out = String::new();
            for s in &spans {
                out.push_str(&s.to_json());
                out.push('\n');
            }
            out
        })
    }

    /// Admit a request without blocking on its execution. An
    /// answer-cache hit is served here, on the caller's thread, and its
    /// handle is already complete; a miss is queued for a worker.
    ///
    /// Fails fast with [`ServeError::QueueFull`] when the bounded queue
    /// is at capacity — callers are expected to back off and retry.
    pub fn submit(&self, req: Request) -> Result<ReplyHandle, ServeError> {
        let Some(env) = self.shared.envs.get(&req.domain) else {
            return Err(ServeError::UnknownDomain(req.domain));
        };
        let enqueued = Instant::now();
        if self.tx.lock().is_none() {
            return Err(ServeError::Shutdown);
        }
        let m = &self.shared.metrics;
        if let Some(answer) = self
            .shared
            .cache
            .get(&req.domain, req.method, &req.question)
        {
            m.requests_admitted.fetch_add(1, Relaxed);
            m.requests_ok.fetch_add(1, Relaxed);
            let total = enqueued.elapsed();
            m.total_time.observe(total);
            return Ok(ReplyHandle(Reply::Ready(Response {
                answer,
                queue_wait: Duration::ZERO,
                exec: Duration::ZERO,
                total,
                cache_hit: true,
                trace_id: None,
            })));
        }
        let reply = ReplyCell::new();
        let job = Job {
            req,
            env: Arc::clone(env),
            enqueued,
            reply: Arc::clone(&reply),
        };
        let tx = self.tx.lock();
        let Some(tx) = tx.as_ref() else {
            return Err(ServeError::Shutdown);
        };
        match tx.try_send(job) {
            Ok(()) => {
                m.requests_admitted.fetch_add(1, Relaxed);
                Ok(ReplyHandle(Reply::Pending(reply)))
            }
            Err(TrySendError::Full(_)) => {
                m.rejected_queue_full.fetch_add(1, Relaxed);
                Err(ServeError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::Shutdown),
        }
    }

    /// Admit a request and block for its answer.
    pub fn ask(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// The full metrics report: serving counters, cache and latency
    /// histograms.
    pub fn report(&self) -> String {
        let cache = self.shared.cache.stats();
        let mut out = self.shared.metrics.report(&cache);
        out.push_str(&format!("answer cache resident entries: {}\n", cache.len));
        let per_shard: Vec<String> = (0..self.shared.cache.shard_count())
            .map(|i| {
                let s = self.shared.cache.shard_stats(i);
                format!("{}/{}", s.hits, s.misses)
            })
            .collect();
        out.push_str(&format!(
            "answer cache shard hits/misses: [{}]\n",
            per_shard.join(", ")
        ));
        // Per-operator semantic-engine counters, merged across domains.
        let mut ops: std::collections::BTreeMap<&'static str, tag_semops::OpStats> =
            std::collections::BTreeMap::new();
        for env in self.shared.envs.values() {
            for (name, stat) in env.engine.op_stats() {
                let e = ops.entry(name).or_default();
                e.invocations += stat.invocations;
                e.prompts += stat.prompts;
                e.cache_hits += stat.cache_hits;
                e.lm_prompts += stat.lm_prompts;
                e.lm_batches += stat.lm_batches;
                e.evictions += stat.evictions;
            }
        }
        if !ops.is_empty() {
            out.push_str("== semantic operators ==\n");
            for (name, s) in &ops {
                out.push_str(&format!(
                    "{name}: invocations={} prompts={} cache_hits={} lm_prompts={} \
                     lm_batches={} evictions={}\n",
                    s.invocations, s.prompts, s.cache_hits, s.lm_prompts, s.lm_batches, s.evictions,
                ));
            }
        }
        if !self.shared.stages.is_empty() {
            out.push_str(&self.shared.stages.report());
            out.push_str(&self.shared.stages.windows_report());
        }
        out.push_str(&format!(
            "traces resident: {} (ring capacity {}, tail {}/{})\n",
            self.shared.traces.len(),
            self.shared.traces.capacity(),
            self.shared.traces.tail_len(),
            self.shared.traces.tail_capacity(),
        ));
        out
    }

    /// Stop admitting work, let the workers finish everything already
    /// admitted, and join them. Dropping the admission sender is what
    /// ends them: `recv` keeps returning queued jobs until the queue is
    /// empty, and only then reports the disconnect.
    pub fn shutdown(&self) {
        *self.tx.lock() = None;
        let workers = std::mem::take(&mut *self.pool.lock());
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wire scrape-time collectors into the hub: subsystems that already
/// keep their own relaxed-atomic counters (serving registry, answer
/// cache, and per-domain semantic operators / retrieval)
/// are sampled at render time, adding zero hot-path work.
///
/// Each closure captures only the `Arc`s it samples, and the domain
/// environments only *weakly*: an env holds the hub (through its
/// installed SQL-engine metrics sink), so a strong capture here would
/// close a reference cycle and leak the hub past server shutdown.
fn register_collectors(
    hub: &MetricsHub,
    metrics: &Arc<MetricsRegistry>,
    cache: &Arc<AnswerCache>,
    envs: &HashMap<String, Arc<TagEnv>>,
    started: Instant,
) {
    if !hub.is_enabled() {
        return;
    }
    let m = Arc::clone(metrics);
    let c = Arc::clone(cache);
    hub.register_collector(move |out| {
        let load = |a: &AtomicU64| a.load(Relaxed);
        for (outcome, v) in [
            ("admitted", load(&m.requests_admitted)),
            ("ok", load(&m.requests_ok)),
            ("error", load(&m.requests_error)),
            ("shed_queue_full", load(&m.rejected_queue_full)),
            ("shed_deadline", load(&m.rejected_deadline)),
        ] {
            out.push(Sample::counter(
                "tag_serve_requests_total",
                "Requests by admission/serving outcome.",
                &[("outcome", outcome)],
                v,
            ));
        }
        // One series per internal cache shard: a skewed key
        // distribution shows up as one hot `shard` label instead of
        // hiding inside an aggregate.
        for shard in 0..c.shard_count() {
            let cs = c.shard_stats(shard);
            let shard_label = shard.to_string();
            for (event, v) in [
                ("hit", cs.hits),
                ("miss", cs.misses),
                ("eviction", cs.evictions),
            ] {
                out.push(Sample::counter(
                    "tag_serve_answer_cache_total",
                    "Answer-cache lookups and evictions by event and cache shard.",
                    &[("event", event), ("shard", shard_label.as_str())],
                    v,
                ));
            }
            out.push(Sample::gauge(
                "tag_serve_answer_cache_entries",
                "Answer-cache resident entries per cache shard.",
                &[("shard", shard_label.as_str())],
                cs.len as f64,
            ));
        }
        out.push(Sample::gauge(
            "tag_serve_uptime_seconds",
            "Seconds since the server started.",
            &[],
            started.elapsed().as_secs_f64(),
        ));
    });
    let weak_envs: Vec<(String, Weak<TagEnv>)> = envs
        .iter()
        .map(|(name, env)| (name.clone(), Arc::downgrade(env)))
        .collect();
    hub.register_collector(move |out| {
        for (domain, env) in &weak_envs {
            let Some(env) = env.upgrade() else { continue };
            let labels = [("domain", domain.as_str())];
            for (op, s) in env.engine.op_stats() {
                let op_labels = [("domain", domain.as_str()), ("op", op)];
                out.push(Sample::counter(
                    "tag_semops_op_invocations_total",
                    "Semantic-operator invocations.",
                    &op_labels,
                    s.invocations,
                ));
                out.push(Sample::counter(
                    "tag_semops_op_lm_prompts_total",
                    "Prompts semantic operators sent to the LM.",
                    &op_labels,
                    s.lm_prompts,
                ));
                out.push(Sample::counter(
                    "tag_semops_op_cache_hits_total",
                    "Semantic-operator prompt-cache hits.",
                    &op_labels,
                    s.cache_hits,
                ));
            }
            out.push(Sample::gauge(
                "tag_semops_round_occupancy",
                "LM batch-round fill fraction (prompts / rounds x batch size).",
                &labels,
                env.engine.round_occupancy(),
            ));
            // `row_store_if_built` never triggers the lazy index build:
            // scraping must not embed a whole domain as a side effect.
            if let Some(rs) = env.row_store_if_built() {
                let r = rs.retrieval_stats();
                for (name, help, v) in [
                    (
                        "tag_embed_retrieval_probes_total",
                        "Retrieval probes served.",
                        r.probes,
                    ),
                    (
                        "tag_embed_retrieval_candidates_total",
                        "Candidate rows returned by retrieval.",
                        r.candidates,
                    ),
                    (
                        "tag_embed_retrieval_rows_scanned_total",
                        "Stored vectors scanned by retrieval.",
                        r.rows_scanned,
                    ),
                ] {
                    out.push(Sample::counter(name, help, &labels, v));
                }
            }
        }
    });
}

/// One worker: take a miss off the admission queue and run it to its
/// reply.
fn worker_loop(rx: &Mutex<Receiver<Job>>, shared: &Shared) {
    loop {
        // The receiver guard is dropped at the end of this statement,
        // so the lock is held only for the dequeue itself.
        let received = rx.lock().recv();
        let Ok(job) = received else {
            return; // admission sender dropped and queue drained: shutdown
        };
        let result = run_to_completion(shared, &job);
        job.reply.deliver(result);
    }
}

/// Everything between dequeue and reply: deadline check, the traced
/// method, then span fold, trace capture, cache fill and metrics. The
/// trace is stored *before* the reply is delivered so `TRACE <id>`
/// always finds a trace whose id a client has just received.
fn run_to_completion(shared: &Shared, job: &Job) -> Result<Response, ServeError> {
    let m = &shared.metrics;
    let req = &job.req;
    let queue_wait = job.enqueued.elapsed();
    m.queue_wait.observe(queue_wait);
    if queue_wait > req.deadline.unwrap_or(shared.default_deadline) {
        m.rejected_deadline.fetch_add(1, Relaxed);
        return Err(ServeError::DeadlineExceeded);
    }
    let started = Instant::now();
    let (answer, spans, trace_id) = if shared.traces.capacity() > 0 {
        let (trace, sink) = tag_trace::Trace::memory();
        let trace_id = trace.id();
        let answer = tag_trace::with_trace(&trace, || {
            let _root = tag_trace::span(
                tag_trace::Stage::Request,
                &format!("{} {}", req.method, req.domain),
            );
            run_guarded(req, &job.env)
        });
        (answer, sink.take(), Some(trace_id))
    } else {
        (run_guarded(req, &job.env), Vec::new(), None)
    };
    let exec = started.elapsed();
    match trace_id {
        Some(id) => m.exec_time.observe_with_exemplar(exec, id),
        None => m.exec_time.observe(exec),
    }
    for span in &spans {
        shared.stages.record(span);
    }
    let is_error = matches!(answer, Answer::Error(_));
    if let Some(trace_id) = trace_id {
        shared.traces.insert_with_outcome(trace_id, spans, is_error);
    }
    // Errors are not cached: they may be transient (e.g.
    // load-dependent) and re-asking should re-execute.
    if !is_error {
        shared
            .cache
            .insert(&req.domain, req.method, &req.question, answer.clone());
    }
    let outcome = if is_error {
        &m.requests_error
    } else {
        &m.requests_ok
    };
    outcome.fetch_add(1, Relaxed);
    let total = job.enqueued.elapsed();
    match trace_id {
        Some(id) => m.total_time.observe_with_exemplar(total, id),
        None => m.total_time.observe(total),
    }
    Ok(Response {
        answer,
        queue_wait,
        exec,
        total,
        cache_hit: false,
        trace_id,
    })
}

/// The method, with a panic anywhere in `syn → exec → gen` turned into
/// this request's [`Answer::Error`], which then takes the error path
/// (counted, traced, not cached) while the worker lives on. Unwinding
/// out of the method leaves nothing shared half-updated: the engine's
/// locks are `parking_lot` (no poisoning), `SemEngine` calls the model
/// outside every lock, and the span guards and `with_trace` restore the
/// thread-local trace as they drop.
fn run_guarded(req: &Request, env: &TagEnv) -> Answer {
    catch_unwind(AssertUnwindSafe(|| {
        run_method(req.method, &req.question, env)
    }))
    .unwrap_or_else(|_| Answer::Error(format!("{} panicked", req.method)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tag_bench::build_benchmark;
    use tag_datagen::{generate_all, Scale};

    fn tiny_scale() -> Scale {
        Scale {
            schools: 40,
            players: 40,
            posts: 20,
            customers: 40,
            drivers: 6,
        }
    }

    /// A tiny server plus one real benchmark (domain, question) pair.
    fn tiny_server(config: ServerConfig) -> (Server, Request) {
        let domains = generate_all(42, tiny_scale());
        let q = build_benchmark(&domains)
            .into_iter()
            .next()
            .expect("benchmark non-empty");
        let req = Request::new(q.domain, MethodName::HandWritten, q.question());
        (Server::start(domains, SimConfig::default(), config), req)
    }

    #[test]
    fn ask_answers_and_caches() {
        let (server, req) = tiny_server(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let first = server.ask(req.clone()).unwrap();
        assert!(!first.cache_hit);
        assert!(
            !matches!(first.answer, Answer::Error(_)),
            "{:?}",
            first.answer
        );
        let second = server.ask(req).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.answer, second.answer);
        assert_eq!(second.exec, Duration::ZERO);
        let cache = server.cache().stats();
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
        assert_eq!(server.metrics().requests_ok.load(Relaxed), 2);
    }

    #[test]
    fn unknown_domain_is_rejected_at_submit() {
        let (server, _) = tiny_server(ServerConfig::default());
        let err = server
            .ask(Request::new("nope", MethodName::Rag, "Anything?"))
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownDomain("nope".into()));
    }

    #[test]
    fn expired_deadline_is_dropped_at_dequeue() {
        let (server, req) = tiny_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // Occupy the lone worker so a zero-deadline request must queue.
        let slow = server.submit(req.clone()).unwrap();
        // Another method, so that it misses the answer cache even when
        // the first request has already finished: a zero deadline has
        // always passed by the time a worker dequeues it.
        let mut doomed = req;
        doomed.method = MethodName::Rag;
        doomed.deadline = Some(Duration::ZERO);
        let doomed = server.submit(doomed).unwrap();
        assert!(slow.wait().is_ok());
        assert_eq!(doomed.wait().unwrap_err(), ServeError::DeadlineExceeded);
        assert_eq!(server.metrics().rejected_deadline.load(Relaxed), 1);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let (server, req) = tiny_server(ServerConfig::default());
        server.shutdown();
        assert_eq!(server.ask(req).unwrap_err(), ServeError::Shutdown);
    }

    #[test]
    fn report_mentions_every_section() {
        let (server, req) = tiny_server(ServerConfig::default());
        let _ = server.ask(req);
        let r = server.report();
        assert!(r.contains("serving metrics"));
        assert!(r.contains("answer cache"));
        assert!(r.contains("semantic operators"), "{r}");
        assert!(r.contains("stage breakdown"), "{r}");
        assert!(r.contains("answer cache shard hits/misses"), "{r}");
        assert!(r.contains("traces resident"), "{r}");
    }

    #[test]
    fn executed_requests_capture_a_trace() {
        let (server, req) = tiny_server(ServerConfig::default());
        let first = server.ask(req.clone()).unwrap();
        let id = first.trace_id.expect("executed request is traced");
        let spans = server.trace(id).expect("trace resident");
        // Exactly one root: the request span, labeled method + domain.
        let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "{spans:#?}");
        assert_eq!(roots[0].stage, tag_trace::Stage::Request);
        assert!(roots[0].label.contains("handwritten"), "{}", roots[0].label);
        // Every parent link points at a span in the same trace.
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(spans.iter().any(|t| t.id == p), "dangling parent {p}");
            }
            assert_eq!(s.trace_id, id);
        }
        let tree = server.trace_report(id).expect("render");
        assert!(tree.contains("[request]"), "{tree}");
        let jsonl = server.trace_jsonl(id).expect("jsonl");
        assert!(jsonl.lines().count() >= spans.len());
        assert!(jsonl.lines().all(|l| l.starts_with('{')), "{jsonl}");

        // Cache hits execute nothing, so they carry no trace.
        let second = server.ask(req).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.trace_id, None);
    }

    #[test]
    fn explain_renders_relational_and_semantic_plans() {
        let (server, req) = tiny_server(ServerConfig::default());
        let domain = req.domain.clone();
        let table = server.env(&domain).unwrap().db.catalog().table_names()[0].clone();
        let sql_plan = server
            .explain(&domain, &format!("SELECT * FROM {table}"))
            .unwrap();
        assert!(sql_plan.contains(&format!("Scan {table}")), "{sql_plan}");
        let sem_plan = server
            .explain(&domain, &format!("SEMPLAN {}", req.question))
            .unwrap();
        assert!(sem_plan.contains("Scan"), "{sem_plan}");
        assert!(server
            .explain("nope", "SELECT 1")
            .unwrap_err()
            .contains("unknown domain"),);
        assert!(server
            .explain(&domain, "SEMPLAN not a benchmark question")
            .is_err());
        // VERIFY runs the static checker over the same plan and reports
        // the verdict, the rewrite verdict, and the LM-call bound.
        let verify = server
            .explain(&domain, &format!("VERIFY {}", req.question))
            .unwrap();
        assert!(verify.starts_with("verify: ok"), "{verify}");
        assert!(verify.contains("rewrite: ok"), "{verify}");
        assert!(verify.contains("lm_call_bound: "), "{verify}");
        assert!(server
            .explain(&domain, "VERIFY not a benchmark question")
            .is_err());
    }

    #[test]
    fn rerank_trace_maps_semplan_nodes_to_pipeline_stages() {
        let (server, req) = tiny_server(ServerConfig::default());
        let mut req = req;
        req.method = MethodName::Rerank;
        let resp = server.ask(req).unwrap();
        let spans = server.trace(resp.trace_id.expect("traced")).unwrap();
        // The retrieve → rerank → generate plan nodes surface as spans
        // tagged with their SemStage, so the serve-side stage breakdown
        // attributes their cost per pipeline stage.
        for stage in [
            tag_trace::Stage::Retrieve,
            tag_trace::Stage::Rerank,
            tag_trace::Stage::Gen,
        ] {
            assert!(
                spans.iter().any(|s| s.stage == stage),
                "missing {stage:?} span: {spans:#?}"
            );
        }
    }

    #[test]
    fn metrics_exposition_covers_every_layer() {
        let (server, req) = tiny_server(ServerConfig::default());
        let resp = server.ask(req.clone()).unwrap();
        let second = server.ask(req).unwrap();
        assert!(second.cache_hit);
        let text = server.metrics_text();
        // Serving counters (collector) and hub-registered windows.
        assert!(
            text.contains("tag_serve_requests_total{outcome=\"ok\"} 2"),
            "{text}"
        );
        // Cache lookups are labeled per internal cache shard; the hit
        // sums to 1 across the shard series.
        let hit_total: f64 = text
            .lines()
            .filter(|l| l.starts_with("tag_serve_answer_cache_total{event=\"hit\""))
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|v| v.parse::<f64>().ok())
            .sum();
        assert_eq!(hit_total, 1.0, "{text}");
        assert!(text.contains("tag_serve_total_seconds_count 2"), "{text}");
        assert!(text.contains("tag_serve_total_window_seconds"), "{text}");
        assert!(text.contains("tag_serve_stage_seconds_bucket"), "{text}");
        // Per-domain subsystem collectors.
        assert!(
            text.contains("tag_semops_round_occupancy{domain=\""),
            "{text}"
        );
        // Per-operator instrumentation installed into the SQL engine.
        assert!(text.contains("tag_sqlengine_operator_seconds"), "{text}");
        // The executed request's trace id surfaces as an exemplar and
        // resolves through the three-way lookup.
        let id = resp.trace_id.expect("traced");
        assert!(
            text.contains(&format!("trace_id=\"{id}\"")),
            "exemplar missing: {text}"
        );
        assert!(matches!(server.trace_lookup(id), TraceLookup::Found(_)));
        assert!(matches!(
            server.trace_lookup(u64::MAX),
            TraceLookup::Unknown
        ));
        // STATS carries the rolling windowed view with the exemplar id.
        let r = server.report();
        assert!(r.contains("== stage windows (rolling) =="), "{r}");
        assert!(r.contains("exemplar trace="), "{r}");
        assert!(r.contains("tail 0/16"), "{r}");
    }

    #[test]
    fn disabled_metrics_serve_identically_and_render_nothing() {
        let (server, req) = tiny_server(ServerConfig {
            metrics_enabled: false,
            ..ServerConfig::default()
        });
        let resp = server.ask(req).unwrap();
        assert!(
            !matches!(resp.answer, Answer::Error(_)),
            "{:?}",
            resp.answer
        );
        assert!(!server.metrics_hub().is_enabled());
        assert_eq!(server.metrics_text(), "");
        // STATS keeps its latencies and stage table without the hub.
        assert_eq!(server.metrics().total_time.count(), 1);
        let r = server.report();
        assert!(r.contains("serving metrics"), "{r}");
        assert!(r.contains("stage breakdown"), "{r}");
        assert!(r.contains("request  10s: n=1"), "{r}");
    }

    #[test]
    fn zero_trace_capacity_disables_tracing() {
        let (server, req) = tiny_server(ServerConfig {
            trace_capacity: 0,
            ..ServerConfig::default()
        });
        let resp = server.ask(req).unwrap();
        assert_eq!(resp.trace_id, None);
        assert!(server.stage_metrics().is_empty());
    }
}
