//! The serving runtime: TAG questions answered against shared
//! per-domain environments, each on the thread that asked it.
//!
//! A request never changes threads. [`Server::ask`] probes the answer
//! cache on the caller's thread: a hit is answered there and then. A
//! miss takes one of [`ServerConfig::workers`] execution slots and runs
//! to the end on the same thread — deadline check, the traced method
//! (`syn → exec → gen`), span fold, trace-store insert, cache fill,
//! metrics, reply — and a guard gives the slot back as the call
//! returns, or unwinds. While a slot is free a miss costs no wake-up at
//! all; when every slot is held the caller sleeps until a release
//! wakes it. Requests share only the answer cache and the model: every
//! domain's env calls the model directly, and LM batching happens
//! within a request, in its `SemEngine`'s rounds. A panic anywhere in
//! the method becomes that request's [`Answer::Error`], so it takes the
//! error path like any other failed answer.
//!
//! Two designs came before this one: three pools (`syn`, `exec`,
//! `gen`) over bounded channels with every LM round held open for a
//! 1 ms window, then one pool of run-to-completion workers behind one
//! bounded admission queue. Every hop between threads there was pure
//! wake-up cost (`serve_cold`, 2 clients, seed 42, 2 cores; each pair
//! of rows measured side by side, DESIGN.md §9 and §25):
//!
//! | design | wake-ups per miss / per hit | `req_per_s` | `tag-serve.vs_serial` |
//! |---|---|---|---|
//! | three pools + window | 6 / 4 | 599 | 0.62 |
//! | one pool, group commit | 2 / 0 | 982 | 0.95 |
//! | one pool (remeasured) | 2 / 0 | 964 | 0.59 |
//! | caller runs, slot free | 0 / 0 | 1,727 | 1.09 |
//!
//! Admission control is explicit. When every slot is held, at most
//! [`ServerConfig::queue_capacity`] callers wait for one, granted in
//! arrival order, and the next is shed with [`ServeError::QueueFull`]
//! instead of queueing unboundedly. A caller whose deadline passed
//! before its slot was granted gets [`ServeError::DeadlineExceeded`]
//! rather than spending a slot on an answer nobody is waiting for.

use crate::cache::AnswerCache;
use crate::metrics::{MetricsRegistry, SpanMetrics};
use crate::protocol::{run_method, MethodName};
use crate::trace::{TraceLookup, TraceStore};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Weak};
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
    /// Cache misses executing at once, each on the thread that asked
    /// it. A miss that finds every slot held waits for one.
    pub workers: usize,
    /// Callers that may wait for a slot; beyond it requests are shed.
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
    /// Register the serving histograms and collectors on a live hub,
    /// feed each traced request's operator spans into the
    /// `tag_sqlengine_operator_*` families, and serve the `METRICS`
    /// exposition. When false the hub is the null registry and `METRICS`
    /// renders empty; the latency histograms and the stage and operator
    /// tables still record, so `STATS` is unchanged.
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
    /// Shed at admission: every slot was held and the line waiting for
    /// one was full.
    QueueFull,
    /// Dropped when its slot was granted: the deadline had passed while
    /// it waited.
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
    /// Time from arrival until the request held an execution slot:
    /// the cache probe, plus any wait for a slot when all were held
    /// (zero on a cache hit).
    pub queue_wait: Duration,
    /// Method execution time (zero on a cache hit).
    pub exec: Duration,
    /// End-to-end time from arrival to reply.
    pub total: Duration,
    /// Whether the answer came from the answer cache.
    pub cache_hit: bool,
    /// Id of the captured trace (`TRACE <id>` retrieves it); `None` on
    /// cache hits and when tracing is disabled.
    pub trace_id: Option<u64>,
}

/// The execution slots misses run under, granted in arrival order.
struct Slots {
    /// Slots in all ([`ServerConfig::workers`]).
    limit: usize,
    /// Callers that may wait ([`ServerConfig::queue_capacity`]).
    queue_capacity: usize,
    /// Set once by [`Server::shutdown`], under `state`; the hit path
    /// reads it without the lock. It publishes no other data, so every
    /// access is `Relaxed`.
    closed: AtomicBool,
    state: Mutex<SlotState>,
    /// Notified when a slot is released while callers wait or
    /// admission is closed, and when a grant leaves a slot free for
    /// the next in line.
    changed: Condvar,
}

/// Slots held, and the line of callers waiting for one as a pair of
/// ticket counters: `next_ticket - next_grant` callers wait.
#[derive(Default)]
struct SlotState {
    held: usize,
    next_ticket: u64,
    next_grant: u64,
}

impl SlotState {
    fn waiting(&self) -> u64 {
        self.next_ticket - self.next_grant
    }
}

impl Slots {
    /// Take a slot, waiting in line for one when every slot is held.
    /// Counts the request admitted before it waits; sheds it when the
    /// line is full.
    fn acquire(&self, m: &MetricsRegistry) -> Result<SlotGuard<'_>, ServeError> {
        let mut state = self.state.lock();
        if self.closed.load(Relaxed) {
            return Err(ServeError::Shutdown);
        }
        let must_wait = state.waiting() > 0 || state.held >= self.limit;
        if must_wait && state.waiting() >= self.queue_capacity as u64 {
            m.rejected_queue_full.fetch_add(1, Relaxed);
            return Err(ServeError::QueueFull);
        }
        m.requests_admitted.fetch_add(1, Relaxed);
        if must_wait {
            let ticket = state.next_ticket;
            state.next_ticket += 1;
            while state.next_grant != ticket || state.held >= self.limit {
                self.changed.wait(&mut state);
            }
            state.next_grant += 1;
            if state.waiting() > 0 && state.held + 1 < self.limit {
                self.changed.notify_all();
            }
        }
        state.held += 1;
        Ok(SlotGuard(self))
    }

    /// Close admission, then wait until every caller holding or
    /// waiting for a slot has finished.
    fn close(&self) {
        let mut state = self.state.lock();
        self.closed.store(true, Relaxed);
        while state.held > 0 || state.waiting() > 0 {
            self.changed.wait(&mut state);
        }
    }
}

/// A held execution slot, given back on drop — on return and on unwind
/// alike, so a panic on the request path cannot leak it.
struct SlotGuard<'a>(&'a Slots);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.held -= 1;
        if state.waiting() > 0 || self.0.closed.load(Relaxed) {
            self.0.changed.notify_all();
        }
    }
}

/// The concurrent multi-domain serving runtime.
pub struct Server {
    /// One environment per served domain.
    envs: HashMap<String, Arc<TagEnv>>,
    cache: Arc<AnswerCache>,
    /// The workspace metrics hub (the null registry when
    /// [`ServerConfig::metrics_enabled`] is off). Its collectors
    /// capture only the individual `Arc`s they sample — never the
    /// server — so the hub cannot keep the server alive through itself.
    hub: Arc<MetricsHub>,
    metrics: Arc<MetricsRegistry>,
    spans: SpanMetrics,
    traces: TraceStore,
    default_deadline: Duration,
    slots: Slots,
}

impl Server {
    /// Start a server over `domains`, sharing one simulated LM across
    /// every domain environment. See [`Server::start_with_lm`].
    pub fn start(domains: Vec<DomainData>, lm_config: SimConfig, config: ServerConfig) -> Self {
        Self::start_with_lm(domains, Arc::new(SimLm::new(lm_config)), config)
    }

    /// Start a server over `domains` whose envs all send their prompts
    /// straight to `lm`; tests pass a model they can gate, fail or
    /// panic. No thread is started: requests run on their callers'.
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
            envs.insert(d.name.to_owned(), Arc::new(env));
        }
        let started = Instant::now();
        let cache = Arc::new(AnswerCache::new(config.cache_capacity, config.cache_shards));
        let metrics = Arc::new(MetricsRegistry::new(&hub));
        register_collectors(&hub, &metrics, &cache, &envs, started);
        Server {
            spans: SpanMetrics::new(&hub),
            envs,
            cache,
            hub,
            metrics,
            traces: TraceStore::with_tail(config.trace_capacity, config.tail_traces),
            default_deadline: config.default_deadline,
            slots: Slots {
                limit: config.workers.max(1),
                queue_capacity: config.queue_capacity,
                closed: AtomicBool::new(false),
                state: Mutex::new(SlotState::default()),
                changed: Condvar::new(),
            },
        }
    }

    /// Served domain names (sorted).
    pub fn domains(&self) -> Vec<String> {
        let mut v: Vec<String> = self.envs.keys().cloned().collect();
        v.sort();
        v
    }

    /// The shared environment for `domain`, if served.
    pub fn env(&self, domain: &str) -> Option<&Arc<TagEnv>> {
        self.envs.get(domain)
    }

    /// Serving counters and histograms.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Always the zero value: no layer batches LM rounds across
    /// requests any more (see [`BatchStats`]). Only caller:
    /// `perf/src/serve.rs`.
    pub fn batch_stats(&self) -> BatchStats {
        BatchStats::default()
    }

    /// The answer cache (for stats or explicit invalidation).
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// Per-stage and per-operator aggregates over all traced requests.
    pub fn span_metrics(&self) -> &SpanMetrics {
        &self.spans
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
        &self.hub
    }

    /// The Prometheus-text exposition served by the `METRICS` protocol
    /// command. Empty when metrics are disabled.
    pub fn metrics_text(&self) -> String {
        self.hub.render()
    }

    /// Three-way trace lookup: resident spans, evicted (the id was
    /// real but aged out of the ring and the tail reservoir), or never
    /// seen.
    pub fn trace_lookup(&self, trace_id: u64) -> TraceLookup {
        self.traces.lookup(trace_id)
    }

    /// The raw spans of a captured trace, if still resident in the ring
    /// or the tail reservoir.
    pub fn trace(&self, trace_id: u64) -> Option<Vec<tag_trace::SpanRecord>> {
        self.traces.get(trace_id)
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

    /// Answer a request on the calling thread. An answer-cache hit is
    /// served straight away; a miss takes an execution slot (waiting in
    /// line when every slot is held) and runs to its reply here.
    ///
    /// Fails fast with [`ServeError::QueueFull`] when every slot is held
    /// and the line waiting for one is full — callers are expected to
    /// back off and retry.
    pub fn ask(&self, req: Request) -> Result<Response, ServeError> {
        let Some(env) = self.envs.get(&req.domain) else {
            return Err(ServeError::UnknownDomain(req.domain));
        };
        let arrived = Instant::now();
        if self.slots.closed.load(Relaxed) {
            return Err(ServeError::Shutdown);
        }
        let m = &self.metrics;
        if let Some(answer) = self.cache.get(&req.domain, req.method, &req.question) {
            m.requests_admitted.fetch_add(1, Relaxed);
            m.requests_ok.fetch_add(1, Relaxed);
            let total = arrived.elapsed();
            m.total_time.observe(total);
            return Ok(Response {
                answer,
                queue_wait: Duration::ZERO,
                exec: Duration::ZERO,
                total,
                cache_hit: true,
                trace_id: None,
            });
        }
        let _slot = self.slots.acquire(m)?;
        self.run_to_completion(&req, env, arrived)
    }

    /// Everything between the slot grant and the reply: deadline check,
    /// the traced method, then span fold, trace capture, cache fill and
    /// metrics. The trace is stored *before* the reply returns so
    /// `TRACE <id>` always finds a trace whose id a client has just
    /// received.
    fn run_to_completion(
        &self,
        req: &Request,
        env: &TagEnv,
        arrived: Instant,
    ) -> Result<Response, ServeError> {
        let m = &self.metrics;
        let queue_wait = arrived.elapsed();
        m.queue_wait.observe(queue_wait);
        if queue_wait > req.deadline.unwrap_or(self.default_deadline) {
            m.rejected_deadline.fetch_add(1, Relaxed);
            return Err(ServeError::DeadlineExceeded);
        }
        let started = Instant::now();
        let (answer, spans, trace_id) = if self.traces.capacity() > 0 {
            let (trace, sink) = tag_trace::Trace::memory();
            let trace_id = trace.id();
            let answer = tag_trace::with_trace(&trace, || {
                let _root = tag_trace::span(
                    tag_trace::Stage::Request,
                    &format!("{} {}", req.method, req.domain),
                );
                run_guarded(req, env)
            });
            (answer, sink.take(), Some(trace_id))
        } else {
            (run_guarded(req, env), Vec::new(), None)
        };
        let exec = started.elapsed();
        match trace_id {
            Some(id) => m.exec_time.observe_with_exemplar(exec, id),
            None => m.exec_time.observe(exec),
        }
        self.spans.record(&spans);
        let is_error = matches!(answer, Answer::Error(_));
        if let Some(trace_id) = trace_id {
            self.traces.insert_with_outcome(trace_id, spans, is_error);
        }
        // Errors are not cached: they may be transient (e.g.
        // load-dependent) and re-asking should re-execute.
        if !is_error {
            self.cache
                .insert(&req.domain, req.method, &req.question, answer.clone());
        }
        let outcome = if is_error {
            &m.requests_error
        } else {
            &m.requests_ok
        };
        outcome.fetch_add(1, Relaxed);
        let total = arrived.elapsed();
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

    /// The full metrics report: serving counters, cache and latency
    /// histograms.
    pub fn report(&self) -> String {
        let cache = self.cache.stats();
        let mut out = self.metrics.report(&cache);
        out.push_str(&format!("answer cache resident entries: {}\n", cache.len));
        let per_shard: Vec<String> = (0..self.cache.shard_count())
            .map(|i| {
                let s = self.cache.shard_stats(i);
                format!("{}/{}", s.hits, s.misses)
            })
            .collect();
        out.push_str(&format!(
            "answer cache shard hits/misses: [{}]\n",
            per_shard.join(", ")
        ));
        if !self.spans.is_empty() {
            out.push_str(&self.spans.report());
            out.push_str(&self.spans.operators_report());
            out.push_str(&self.spans.windows_report());
        }
        out.push_str(&format!(
            "traces resident: {} (ring capacity {}, tail {}/{})\n",
            self.traces.len(),
            self.traces.capacity(),
            self.traces.tail_len(),
            self.traces.tail_capacity(),
        ));
        out
    }

    /// Stop admitting work and return once every caller that holds or
    /// waits for a slot has had its reply: waiting callers keep their
    /// place in line, so every admitted request still resolves. Later
    /// requests, hits included, get [`ServeError::Shutdown`].
    pub fn shutdown(&self) {
        self.slots.close();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wire scrape-time collectors into the hub: subsystems that already
/// keep their own relaxed-atomic counters (serving registry, answer
/// cache, and per-domain LM round occupancy / retrieval)
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

/// The method, with a panic anywhere in `syn → exec → gen` turned into
/// this request's [`Answer::Error`], which then takes the error path
/// (counted, traced, not cached) and the caller gets a reply. Unwinding
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
    fn unknown_domain_is_rejected_before_admission() {
        let (server, _) = tiny_server(ServerConfig::default());
        let err = server
            .ask(Request::new("nope", MethodName::Rag, "Anything?"))
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownDomain("nope".into()));
        assert_eq!(server.metrics().requests_admitted.load(Relaxed), 0);
    }

    #[test]
    fn expired_deadline_is_dropped_at_dequeue() {
        let (server, req) = tiny_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        std::thread::scope(|scope| {
            // Occupy the lone slot so a zero-deadline request must wait.
            let slow = scope.spawn(|| server.ask(req.clone()));
            while server.metrics().requests_admitted.load(Relaxed) == 0 {
                std::thread::yield_now();
            }
            // Another method, so that it misses the answer cache even
            // when the first request has already finished: a zero
            // deadline has always passed by the time its slot is granted.
            let mut doomed = req.clone();
            doomed.method = MethodName::Rag;
            doomed.deadline = Some(Duration::ZERO);
            assert_eq!(
                server.ask(doomed).unwrap_err(),
                ServeError::DeadlineExceeded
            );
            assert!(slow.join().expect("slow ask").is_ok());
        });
        assert_eq!(server.metrics().rejected_deadline.load(Relaxed), 1);
    }

    #[test]
    fn a_panicking_slot_holder_releases_its_slot() {
        // No caller may wait: a slot that leaked would shed the next
        // miss with `QueueFull` instead of hanging it.
        let (server, req) = tiny_server(ServerConfig {
            workers: 1,
            queue_capacity: 0,
            ..ServerConfig::default()
        });
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _slot = server.slots.acquire(&server.metrics).expect("a free slot");
            panic!("bookkeeping panic while holding the slot");
        }));
        assert!(unwound.is_err());
        assert_eq!(server.slots.state.lock().held, 0);
        let resp = server.ask(req).expect("the slot came back");
        assert!(!resp.cache_hit);
        assert!(
            !matches!(resp.answer, Answer::Error(_)),
            "{:?}",
            resp.answer
        );
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
        assert!(r.contains("== operators (traced requests) =="), "{r}");
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
        // tagged with their stage, so the serve-side stage breakdown
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

    /// Summed `lm_calls=` over a STATS table's lines.
    fn summed_lm_calls(table: &str) -> u64 {
        table
            .lines()
            .filter_map(|l| l.split_once(" lm_calls=")?.1.split_whitespace().next())
            .filter_map(|v| v.parse::<u64>().ok())
            .sum()
    }

    /// One source of truth: for one miss on a fresh server, the operator
    /// table, the stage table, the request's spans and the model itself
    /// count the same LM calls.
    #[test]
    fn operator_table_reconciles_with_stages_spans_and_the_model() {
        for method in [MethodName::HandWritten, MethodName::Rerank] {
            let (server, mut req) = tiny_server(ServerConfig::default());
            req.method = method;
            let lm = Arc::clone(server.env(&req.domain).expect("served").engine.lm());
            let before = lm.calls();
            let resp = server.ask(req).unwrap();
            assert!(
                !matches!(resp.answer, Answer::Error(_)),
                "{:?}",
                resp.answer
            );
            let model = lm.calls() - before;
            let spans = server.trace(resp.trace_id.expect("traced")).unwrap();
            let traced: u64 = spans.iter().map(|s| s.lm.calls).sum();
            let m = server.span_metrics();
            let operators = m.operators_report();
            assert!(model > 0, "{method}: no LM work");
            assert_eq!(
                (
                    summed_lm_calls(&operators),
                    summed_lm_calls(&m.report()),
                    traced
                ),
                (model, model, model),
                "{method}:\n{operators}"
            );
        }
    }

    #[test]
    fn stage_walls_sum_to_the_request_span() {
        let (server, mut req) = tiny_server(ServerConfig::default());
        req.method = MethodName::Rerank;
        let resp = server.ask(req).unwrap();
        let spans = server.trace(resp.trace_id.expect("traced")).unwrap();
        // Node spans nest their inputs: some plan node sits under another.
        let is_node = |id: u64| spans.iter().any(|s| s.id == id && s.rows.is_some());
        assert!(
            spans
                .iter()
                .any(|s| s.rows.is_some() && s.parent.is_some_and(is_node)),
            "{spans:#?}"
        );
        let root = spans.iter().find(|s| s.parent.is_none()).expect("root");
        let request_ms = root.wall.as_secs_f64() * 1e3;
        let full_walls_ms: f64 = spans.iter().map(|s| s.wall.as_secs_f64() * 1e3).sum();
        assert!(full_walls_ms > 1.01 * request_ms, "nothing nested");
        let report = server.span_metrics().report();
        let stage_ms: f64 = report
            .lines()
            .filter_map(|l| l.split_once(" wall=")?.1.split_once("ms"))
            .filter_map(|(v, _)| v.parse::<f64>().ok())
            .sum();
        assert!(
            (stage_ms - request_ms).abs() <= 0.01 * request_ms,
            "stage walls {stage_ms:.3}ms vs request {request_ms:.3}ms:\n{report}"
        );
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
        // Per-operator series folded from the request's node spans: the
        // relational plan's and the semantic plan's operators alike.
        assert!(text.contains("tag_sqlengine_operator_seconds"), "{text}");
        assert!(
            text.contains("tag_sqlengine_operator_executions_total{op=\"TableScan\"}"),
            "{text}"
        );
        assert!(
            text.contains("tag_sqlengine_operator_executions_total{op=\"Scan\"}"),
            "{text}"
        );
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
        assert!(r.contains("== operators (traced requests) =="), "{r}");
        assert!(r.contains("TableScan: spans="), "{r}");
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
        assert!(server.span_metrics().is_empty());
    }
}
