//! End-to-end concurrency tests: the serving runtime must produce
//! byte-identical answers (and therefore an identical exact-match
//! score) to a serial baseline, must shed load instead of queueing
//! unboundedly, and must degrade predictably under faults (an LM
//! error, a panic inside a request, shutdown with a full queue).

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};
use tag_bench::Harness;
use tag_core::answer::{exact_match, Answer};
use tag_core::env::TagEnv;
use tag_datagen::{generate_all, DomainData, Scale};
use tag_lm::model::{LanguageModel, LmError, LmRequest, LmResponse, LmResult};
use tag_lm::sim::{SimConfig, SimLm};
use tag_serve::{
    run_method, MethodName, Request, Response, ServeError, Server, ServerConfig, TraceLookup,
};

fn test_scale() -> Scale {
    Scale {
        schools: 120,
        players: 150,
        posts: 60,
        customers: 120,
        drivers: 10,
    }
}

fn tiny_domains() -> Vec<DomainData> {
    generate_all(
        42,
        Scale {
            schools: 40,
            players: 40,
            posts: 20,
            customers: 40,
            drivers: 6,
        },
    )
}

/// `n` distinct Rag requests (Rag always does LM work) over `domains`.
fn rag_requests(domains: &[DomainData], n: usize) -> Vec<Request> {
    let requests: Vec<Request> = tag_bench::build_benchmark(domains)
        .iter()
        .take(n)
        .map(|q| Request::new(q.domain, MethodName::Rag, q.question()))
        .collect();
    assert_eq!(requests.len(), n);
    requests
}

/// Where an armed one-shot panic of [`FaultLm`] goes off.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PanicSite {
    /// Inside an LM round.
    GenerateBatch,
    /// In the usage snapshot the traced request path takes around its
    /// LM work, outside any round.
    Usage,
}

/// The simulated LM behind a gate the test holds shut to pin a request
/// (and the slot it holds) inside an LM round, with a count of rounds to
/// fail (after a count of rounds to serve first) and an armed one-shot
/// panic. It records the thread of every round it serves.
struct FaultLm {
    inner: SimLm,
    open: Mutex<bool>,
    opened: Condvar,
    held: AtomicUsize,
    serve_rounds: AtomicUsize,
    fail_rounds: AtomicUsize,
    panic_at: Mutex<Option<PanicSite>>,
    threads: Mutex<HashSet<ThreadId>>,
}

impl FaultLm {
    fn new(open: bool) -> Arc<Self> {
        Arc::new(FaultLm {
            inner: SimLm::new(SimConfig::default()),
            open: Mutex::new(open),
            opened: Condvar::new(),
            held: AtomicUsize::new(0),
            serve_rounds: AtomicUsize::new(0),
            fail_rounds: AtomicUsize::new(0),
            panic_at: Mutex::new(None),
            threads: Mutex::new(HashSet::new()),
        })
    }

    /// Panic, once, if armed for `site`.
    fn fire(&self, site: PanicSite) {
        let mut armed = self.panic_at.lock().unwrap();
        if *armed == Some(site) {
            *armed = None;
            drop(armed);
            panic!("injected model panic at {site:?}");
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    /// Returns once a round is waiting at the shut gate.
    fn wait_until_held(&self) {
        spin_until("an LM round to reach the gate", || {
            self.held.load(Ordering::SeqCst) > 0
        });
    }
}

impl LanguageModel for FaultLm {
    fn generate_batch(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        self.held.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        self.held.fetch_sub(1, Ordering::SeqCst);
        self.fire(PanicSite::GenerateBatch);
        let count_down = |n: &AtomicUsize| {
            n.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        };
        if !count_down(&self.serve_rounds) && count_down(&self.fail_rounds) {
            return Err(LmError::Other("injected backend failure".into()));
        }
        self.inner.generate_batch(requests)
    }
    fn elapsed_seconds(&self) -> f64 {
        self.inner.elapsed_seconds()
    }
    fn reset_metrics(&self) {
        self.inner.reset_metrics();
    }
    fn batches(&self) -> u64 {
        self.inner.batches()
    }
    fn calls(&self) -> u64 {
        self.inner.calls()
    }
    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
    fn usage(&self) -> (f64, u64, u64) {
        self.fire(PanicSite::Usage);
        self.inner.usage()
    }
}

/// Wait for another thread to reach a state the code under test must
/// reach.
fn spin_until(what: &str, reached: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !reached() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// A caller's `ask`, running on a thread of its own.
type Caller = JoinHandle<Result<Response, ServeError>>;

fn spawn_ask(server: &Arc<Server>, req: Request) -> Caller {
    let server = Arc::clone(server);
    std::thread::spawn(move || server.ask(req))
}

/// A one-slot server whose slot is held by a caller pinned inside the
/// first LM round of its request, with `queue_capacity` more callers
/// waiting for the slot behind it: the line is full. Returns the
/// admitted callers' threads.
fn saturate(lm: &Arc<FaultLm>, queue_capacity: usize) -> (Arc<Server>, Vec<Request>, Vec<Caller>) {
    let domains = tiny_domains();
    let requests = rag_requests(&domains, queue_capacity + 2);
    let server = Arc::new(Server::start_with_lm(
        domains,
        Arc::clone(lm) as Arc<dyn LanguageModel>,
        ServerConfig {
            workers: 1,
            queue_capacity,
            ..ServerConfig::default()
        },
    ));
    let mut admitted = vec![spawn_ask(&server, requests[0].clone())];
    lm.wait_until_held();
    for req in &requests[1..=queue_capacity] {
        admitted.push(spawn_ask(&server, req.clone()));
    }
    let m = server.metrics();
    spin_until("every caller to be admitted", || {
        m.requests_admitted.load(Ordering::SeqCst) == queue_capacity as u64 + 1
    });
    (server, requests, admitted)
}

/// A miss runs on the thread that asked it: every LM round of a request
/// asked from a client thread is served on that thread, and the server
/// starts none of its own.
#[test]
fn a_miss_runs_on_the_asking_thread() {
    let lm = FaultLm::new(true);
    let domains = tiny_domains();
    let requests = rag_requests(&domains, 3);
    let server = Server::start_with_lm(
        domains,
        Arc::clone(&lm) as Arc<dyn LanguageModel>,
        ServerConfig::default(),
    );
    assert!(lm.threads.lock().unwrap().is_empty());
    let caller = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                for req in &requests {
                    let r = server.ask(req.clone()).unwrap();
                    assert!(!r.cache_hit);
                    assert!(!matches!(r.answer, Answer::Error(_)), "{:?}", r.answer);
                }
                std::thread::current().id()
            })
            .join()
            .expect("caller thread")
    });
    let seen = lm.threads.lock().unwrap().clone();
    assert_eq!(seen, HashSet::from([caller]));
}

/// 8 clients on 4 slots × the 80 TAG-Bench questions must reproduce the serial
/// baseline exactly: same answer bytes, same exact-match score, with
/// every request's LM calls going straight to the one model the domain
/// envs share.
#[test]
fn concurrent_replay_matches_serial_baseline() {
    let harness = Harness::new(42, test_scale(), SimConfig::default());
    let items: Vec<(usize, &'static str, String, bool)> = harness
        .queries()
        .iter()
        .map(|q| (q.id, q.domain, q.question(), q.ordered()))
        .collect();

    // Serial baseline over the harness's own (unbatched, uncached) envs.
    let expected: Vec<Answer> = items
        .iter()
        .map(|(_, domain, question, _)| {
            run_method(MethodName::HandWritten, question, harness.env(domain))
        })
        .collect();
    let serial_score: usize = items
        .iter()
        .zip(&expected)
        .filter(|((id, _, _, ordered), ans)| {
            harness
                .truth(*id)
                .is_some_and(|t| exact_match(ans, t, *ordered))
        })
        .count();
    // Sanity: the baseline must actually answer a good share of the
    // labelled queries, or the identity check below proves nothing.
    let labelled = items
        .iter()
        .filter(|(id, ..)| harness.truth(*id).is_some())
        .count();
    assert!(
        serial_score * 2 > labelled,
        "serial hand-written baseline too weak: {serial_score}/{labelled}"
    );

    let server = Arc::new(Server::start(
        generate_all(42, test_scale()),
        SimConfig::default(),
        ServerConfig {
            workers: 4,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    ));
    let got: Arc<Vec<Mutex<Option<Answer>>>> =
        Arc::new(items.iter().map(|_| Mutex::new(None)).collect());
    let next = Arc::new(AtomicUsize::new(0));
    let items = Arc::new(items);
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let server = Arc::clone(&server);
            let got = Arc::clone(&got);
            let next = Arc::clone(&next);
            let items = Arc::clone(&items);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, domain, question, _)) = items.get(i) else {
                    return;
                };
                let resp = server
                    .ask(Request::new(
                        *domain,
                        MethodName::HandWritten,
                        question.clone(),
                    ))
                    .expect("queue is deep enough to never shed");
                *got[i].lock().unwrap() = Some(resp.answer);
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    for (i, (id, ..)) in items.iter().enumerate() {
        let got = got[i].lock().unwrap();
        assert_eq!(
            got.as_ref(),
            Some(&expected[i]),
            "query {id} diverged from the serial baseline"
        );
    }
    let concurrent_score: usize = items
        .iter()
        .enumerate()
        .filter(|(i, (id, _, _, ordered))| {
            let got = got[*i].lock().unwrap();
            harness
                .truth(*id)
                .is_some_and(|t| exact_match(got.as_ref().unwrap(), t, *ordered))
        })
        .count();
    assert_eq!(concurrent_score, serial_score);

    assert_eq!(
        server.metrics().requests_ok.load(Ordering::Relaxed),
        items.len() as u64
    );
}

/// The server runs each domain on one plain `TagEnv`: the env it hands
/// out answers a statement mix (rows, row order and error text) exactly
/// as a freshly built one over the same seed, and neither STATS nor
/// METRICS reports anything about scattering.
#[test]
fn served_env_answers_as_a_plain_tag_env() {
    let queries = [
        "SELECT * FROM schools",
        "SELECT COUNT(*) FROM schools WHERE City = 'Palo Alto'",
        "SELECT City, COUNT(*), AVG(AvgScrMath) FROM schools GROUP BY City",
        "SELECT School FROM schools WHERE AvgScrMath > 700 ORDER BY School",
        "SELECT COUNT(DISTINCT City), GROUP_CONCAT(FundingType) FROM schools",
        "SELECT s.School, f.\"FRPM Count\" FROM schools s JOIN frpm f \
         ON s.CDSCode = f.CDSCode WHERE s.AvgScrMath > 650 ORDER BY s.CDSCode",
        "SELECT MIN(Longitude), MAX(Latitude), SUM(Enrollment), TOTAL(AvgScrRead) \
         FROM schools WHERE Charter = 1",
        "SELECT * FROM frpm WHERE CDSCode = 17",
        "SELECT SUM(City) FROM schools",
        "SELECT City FROM schools WHERE EXISTS \
         (SELECT 1 FROM satscores WHERE cds = CDSCode) LIMIT 5",
    ];
    let run = |env: &TagEnv, sql: &str| {
        env.db
            .query(sql)
            .map(|rs| format!("{:?}", rs.rows))
            .map_err(|e| e.message().to_string())
    };
    let domain = "california_schools";
    let schools = tiny_domains()
        .into_iter()
        .find(|d| d.name == domain)
        .expect("schools generated");
    let plain = TagEnv::new(schools.db, Arc::new(SimLm::new(SimConfig::default())));
    let domains = tiny_domains();
    let request = rag_requests(&domains, 1).remove(0);
    let server = Server::start(domains, SimConfig::default(), ServerConfig::default());
    let served = server.env(domain).expect("schools served");
    for sql in queries {
        assert_eq!(run(served, sql), run(&plain, sql), "divergence on {sql:?}");
    }
    assert_eq!(
        run(served, "SELECT SUM(City) FROM schools"),
        Err("cannot use text \"Alameda\" as a number".to_owned())
    );
    server.ask(request).unwrap();
    for text in [server.report(), server.metrics_text()] {
        assert!(!text.is_empty());
        assert!(!text.contains("scatter"), "{text}");
        // Every remaining `shard` line is about the answer cache.
        for line in text.lines().filter(|l| l.contains("shard")) {
            assert!(line.contains("cache"), "{line}");
        }
    }
}

/// Asking the same questions twice must be answered from the cache the
/// second time, without changing any answer.
#[test]
fn replay_hits_answer_cache_with_identical_answers() {
    let server = Server::start(
        tiny_domains(),
        SimConfig::default(),
        ServerConfig::default(),
    );
    let domains = server.domains();
    let questions: Vec<(String, String)> = tag_bench::build_benchmark(&tiny_domains())
        .iter()
        .take(10)
        .map(|q| (q.domain.to_owned(), q.question()))
        .collect();
    assert!(questions.iter().all(|(d, _)| domains.contains(d)));
    let first: Vec<Answer> = questions
        .iter()
        .map(|(d, q)| {
            let r = server
                .ask(Request::new(d.clone(), MethodName::Rag, q.clone()))
                .unwrap();
            assert!(!r.cache_hit);
            r.answer
        })
        .collect();
    for ((d, q), expected) in questions.iter().zip(&first) {
        let r = server
            .ask(Request::new(d.clone(), MethodName::Rag, q.clone()))
            .unwrap();
        assert!(r.cache_hit, "second ask of {q:?} must hit the cache");
        assert_eq!(&r.answer, expected);
    }
    let stats = server.cache().stats();
    assert_eq!(stats.hits, questions.len() as u64);
}

/// A saturated bounded queue sheds with `QueueFull` instead of queueing
/// unboundedly, and the shed count is visible in the metrics.
#[test]
fn saturated_queue_sheds_with_queue_full() {
    let lm = FaultLm::new(false);
    let (server, requests, admitted) = saturate(&lm, 1);
    // One caller holds the only slot, one waits for it: every further
    // request is shed, however many there are.
    for _ in 0..15 {
        match server.ask(requests[2].clone()) {
            Err(ServeError::QueueFull) => {}
            Ok(_) => panic!("admitted past a full queue"),
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    lm.release();
    for h in admitted {
        assert!(h.join().expect("caller thread").is_ok());
    }
    let m = server.metrics();
    assert_eq!(m.rejected_queue_full.load(Ordering::Relaxed), 15);
    assert_eq!(m.requests_admitted.load(Ordering::Relaxed), 2);
    assert!(server.report().contains("shed_queue_full=15"));
}

/// Fault: the LM fails a round mid-request. The request ends in a typed
/// `Answer::Error` that is traced but not cached, nothing hangs, and
/// asking again executes again and succeeds.
#[test]
fn lm_error_yields_an_uncached_typed_error_and_the_next_request_succeeds() {
    let lm = FaultLm::new(true);
    let domains = tiny_domains();
    let req = rag_requests(&domains, 1).remove(0);
    let server = Server::start_with_lm(
        domains,
        Arc::clone(&lm) as Arc<dyn LanguageModel>,
        ServerConfig::default(),
    );
    lm.fail_rounds.store(1, Ordering::SeqCst);
    let failed = server.ask(req.clone()).unwrap();
    assert!(
        matches!(&failed.answer, Answer::Error(e) if e.contains("injected backend failure")),
        "{:?}",
        failed.answer
    );
    assert!(!failed.cache_hit);
    assert_eq!(server.cache().stats().len, 0);
    // A failed answer counts as an error, not as ok.
    let m = server.metrics();
    let outcomes = || {
        (
            m.requests_ok.load(Ordering::Relaxed),
            m.requests_error.load(Ordering::Relaxed),
        )
    };
    assert_eq!(outcomes(), (0, 1));
    let id = failed.trace_id.expect("failed requests are traced too");
    assert!(matches!(server.trace_lookup(id), TraceLookup::Found(_)));

    let retried = server.ask(req.clone()).unwrap();
    assert!(!retried.cache_hit, "an error must not be served from cache");
    assert!(
        !matches!(retried.answer, Answer::Error(_)),
        "{:?}",
        retried.answer
    );
    let cached = server.ask(req).unwrap();
    assert!(cached.cache_hit);
    assert_eq!(cached.answer, retried.answer);
    assert_eq!(outcomes(), (2, 1));
    let text = server.metrics_text();
    assert!(
        text.contains("tag_serve_requests_total{outcome=\"error\"} 1"),
        "{text}"
    );
}

/// Fault: the LM fails the second round of one operator's batch. A
/// hand-written count whose distinct semantic filter judges more values
/// than one round holds (64) sends two rounds from one batch; the first
/// is served, the second fails. The request ends in a typed error that
/// counts as one, is not cached, and keeps its trace in the tail
/// reservoir as an error; the operator table still counts the first
/// round's prompts, as `SemEngine::complete_batch` records partial work.
#[test]
fn lm_error_mid_batch_is_typed_uncached_and_its_first_round_counted() {
    let lm = FaultLm::new(true);
    let domains = generate_all(42, test_scale());
    let question = "How many comments with Score over 20 and whose Text is sarcastic are there?";
    let req = Request::new("codebase_community", MethodName::HandWritten, question);
    let server = Server::start_with_lm(
        domains,
        Arc::clone(&lm) as Arc<dyn LanguageModel>,
        ServerConfig {
            trace_capacity: 1,
            tail_traces: 1,
            ..ServerConfig::default()
        },
    );
    lm.serve_rounds.store(1, Ordering::SeqCst);
    lm.fail_rounds.store(1, Ordering::SeqCst);
    let failed = server.ask(req.clone()).unwrap();
    assert!(
        matches!(&failed.answer, Answer::Error(e) if e.contains("injected backend failure")),
        "{:?}",
        failed.answer
    );
    assert_eq!(lm.calls(), 64, "one full round reached the model");
    let m = server.metrics();
    assert_eq!(m.requests_error.load(Ordering::Relaxed), 1);
    assert_eq!(m.requests_ok.load(Ordering::Relaxed), 0);
    assert_eq!(server.cache().stats().len, 0);
    let operators = server.span_metrics().operators_report();
    let first_round = " lm_calls=64 rounds=1 cache_hits=0 ";
    assert!(
        operators
            .lines()
            .any(|l| l.starts_with("SemFilter: ") && l.contains(first_round)),
        "{operators}"
    );

    // Resident, and kept as an error: two successful misses push it out
    // of the one-slot ring, and it outranks the first of them for the
    // one tail slot.
    let id = failed.trace_id.expect("failed requests are traced too");
    assert!(matches!(server.trace_lookup(id), TraceLookup::Found(_)));
    let ok: Vec<Response> = rag_requests(&tiny_domains(), 2)
        .into_iter()
        .map(|r| server.ask(r).unwrap())
        .collect();
    assert!(ok.iter().all(|r| !matches!(r.answer, Answer::Error(_))));
    assert!(matches!(server.trace_lookup(id), TraceLookup::Found(_)));
    let first_ok = ok[0].trace_id.expect("traced");
    assert!(matches!(
        server.trace_lookup(first_ok),
        TraceLookup::Evicted
    ));
}

/// Fault: a Text2SQL + LM retrieval returns more rows than the default
/// context window holds (the §4.2 overflow). The request ends in a typed
/// `Answer::Error` naming the prompt's token count, with the text a
/// serial run gives; it counts as an error, is not cached, and the next
/// request is answered.
#[test]
fn oversized_retrieval_yields_the_serial_context_error_uncached() {
    let domain = "california_schools";
    let question = "How many schools located in the Southern California region are there?";
    let schools = || {
        generate_all(42, Scale::default())
            .into_iter()
            .filter(|d| d.name == domain)
            .collect::<Vec<_>>()
    };
    let serial_env = TagEnv::new(
        schools().remove(0).db,
        Arc::new(SimLm::new(SimConfig::default())),
    );
    let serial = run_method(MethodName::Text2SqlLm, question, &serial_env);
    let server = Server::start(schools(), SimConfig::default(), ServerConfig::default());
    let req = Request::new(domain, MethodName::Text2SqlLm, question);

    let failed = server.ask(req.clone()).unwrap();
    match &failed.answer {
        Answer::Error(e) => {
            let tokens = e
                .split_once("prompt of ")
                .and_then(|(_, rest)| rest.split_once(" tokens exceeds the 4096-token"))
                .and_then(|(n, _)| n.parse::<usize>().ok());
            assert!(tokens.is_some_and(|n| n > 4096), "{e}");
        }
        other => panic!("expected a context overflow, got {other:?}"),
    }
    assert_eq!(failed.answer, serial);
    assert!(!failed.cache_hit);
    let m = server.metrics();
    assert_eq!(m.requests_error.load(Ordering::Relaxed), 1);

    let again = server.ask(req).unwrap();
    assert!(!again.cache_hit, "an error must not be served from cache");
    assert_eq!(again.answer, serial);
    assert_eq!(server.cache().stats().len, 0);

    let next = server
        .ask(Request::new(domain, MethodName::Text2Sql, question))
        .unwrap();
    assert!(
        !matches!(next.answer, Answer::Error(_)),
        "{:?}",
        next.answer
    );
    assert_eq!(m.requests_error.load(Ordering::Relaxed), 2);
    assert_eq!(m.requests_ok.load(Ordering::Relaxed), 1);
}

/// `ask`, failing the test instead of hanging it when no reply comes.
fn ask_within_30s(server: &Arc<Server>, req: Request) -> Result<Response, ServeError> {
    let (tx, rx) = channel();
    let server = Arc::clone(server);
    std::thread::spawn(move || {
        let _ = tx.send(server.ask(req));
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("no reply within 30 s")
}

/// Fault: a panic inside a request, once in an LM round and once in the
/// model's usage snapshot outside any round. Either way the request ends
/// in a typed `Answer::Error` that is counted and traced but not cached,
/// and the lone slot is free to answer the next request.
#[test]
fn panic_in_a_request_yields_a_typed_error_and_the_worker_lives() {
    for site in [PanicSite::GenerateBatch, PanicSite::Usage] {
        let lm = FaultLm::new(true);
        let domains = tiny_domains();
        let req = rag_requests(&domains, 1).remove(0);
        let server = Arc::new(Server::start_with_lm(
            domains,
            Arc::clone(&lm) as Arc<dyn LanguageModel>,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        ));
        *lm.panic_at.lock().unwrap() = Some(site);
        let failed = ask_within_30s(&server, req.clone()).unwrap();
        assert!(
            matches!(&failed.answer, Answer::Error(e) if e.contains("panicked")),
            "{site:?}: {:?}",
            failed.answer
        );
        assert_eq!(*lm.panic_at.lock().unwrap(), None, "{site:?}: never fired");
        let m = server.metrics();
        assert_eq!(m.requests_error.load(Ordering::Relaxed), 1, "{site:?}");
        assert_eq!(m.requests_ok.load(Ordering::Relaxed), 0, "{site:?}");
        let id = failed.trace_id.expect("failed requests are traced too");
        assert!(
            matches!(server.trace_lookup(id), TraceLookup::Found(_)),
            "{site:?}"
        );
        assert_eq!(server.cache().stats().len, 0, "{site:?}");

        let next = ask_within_30s(&server, req).unwrap();
        assert!(!next.cache_hit, "{site:?}");
        assert!(
            !matches!(next.answer, Answer::Error(_)),
            "{site:?}: {:?}",
            next.answer
        );
        assert_eq!(m.requests_ok.load(Ordering::Relaxed), 1, "{site:?}");
    }
}

/// Fault: `shutdown()` while the line waiting for a slot is full. Every
/// admitted caller gets its reply (its answer, or `Shutdown`), nothing
/// new is admitted, and `shutdown` returns once they all have.
#[test]
fn shutdown_with_a_full_queue_resolves_every_admitted_request() {
    let lm = FaultLm::new(false);
    let (server, requests, admitted) = saturate(&lm, 4);
    assert_eq!(admitted.len(), 5);
    let overflow = requests[5].clone();
    assert_eq!(
        server.ask(overflow.clone()).err(),
        Some(ServeError::QueueFull)
    );
    std::thread::scope(|scope| {
        // Blocks until every admitted caller is done, so it needs the
        // gate opened from here — but only once admission is closed.
        let stopping = scope.spawn(|| server.shutdown());
        spin_until("admission to close", || {
            server.ask(overflow.clone()).err() == Some(ServeError::Shutdown)
        });
        lm.release();
        for h in admitted {
            match h.join().expect("caller thread") {
                Ok(_) | Err(ServeError::Shutdown) => {}
                Err(e) => panic!("admitted request lost to {e}"),
            }
        }
        stopping.join().expect("shutdown returns");
    });
    assert_eq!(server.ask(overflow).unwrap_err(), ServeError::Shutdown);
    let m = server.metrics();
    assert_eq!(m.requests_admitted.load(Ordering::Relaxed), 5);
}

/// What `Response` promises its readers (the benchmark harness lays
/// `queue_wait`, `exec` and the rest of `total` end to end inside the
/// caller's own timing of `ask`).
#[test]
fn response_timing_and_counters_contract() {
    let domains = tiny_domains();
    let requests = rag_requests(&domains, 6);
    let server = Server::start(domains, SimConfig::default(), ServerConfig::default());
    let timed_ask = |req: &Request| {
        let called = Instant::now();
        let r = server.ask(req.clone()).unwrap();
        let wall = called.elapsed();
        assert!(r.queue_wait + r.exec <= r.total, "{r:?}");
        assert!(r.total <= wall, "{r:?} inside {wall:?}");
        r
    };
    for req in &requests {
        let miss = timed_ask(req);
        assert!(!miss.cache_hit);
        // The trace is stored before the reply is delivered.
        let id = miss.trace_id.expect("executed requests are traced");
        assert!(matches!(server.trace_lookup(id), TraceLookup::Found(_)));
    }
    for req in &requests {
        let hit = timed_ask(req);
        assert!(hit.cache_hit);
        assert_eq!(hit.exec, Duration::ZERO);
        assert_eq!(hit.trace_id, None);
    }
    let m = server.metrics();
    let n = requests.len() as u64;
    assert_eq!(m.requests_admitted.load(Ordering::Relaxed), 2 * n);
    assert_eq!(m.requests_ok.load(Ordering::Relaxed), 2 * n);
    let cache = server.cache().stats();
    assert_eq!(cache.hits, n);
    assert_eq!(cache.misses, n);
    assert_eq!(m.total_time.count(), 2 * n);
    // Hits never wait for a slot and never execute.
    assert_eq!(m.queue_wait.count(), n);
    assert_eq!(m.exec_time.count(), n);

    server.shutdown();
    assert_eq!(
        server.ask(requests[0].clone()).err(),
        Some(ServeError::Shutdown),
        "a cached key is refused after shutdown like any other"
    );
    assert_eq!(m.requests_admitted.load(Ordering::Relaxed), 2 * n);
}
