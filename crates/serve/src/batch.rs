//! Cross-request LM batching by group commit.
//!
//! Concurrent requests each issue small LM batches through their
//! domain's `SemEngine`. [`BatchLm`] sits between those engines and the
//! real model and coalesces them the way a write-ahead log coalesces
//! commits: a submission that finds no inference round in flight runs
//! at once, on the caller's own slice; submissions that arrive while a
//! round is in flight park, and when the round ends the first of them
//! is woken to run everything parked as one merged round. Batch size
//! therefore grows with load and with LM latency, and a caller with
//! nobody to batch with waits for nothing — the serving-time analogue
//! of the paper's batched-inference advantage (§4.3), applied *across*
//! requests instead of within one, without a timer.
//!
//! | `serve_cold`, seed 42, 2 clients | 1 ms window | group commit |
//! |---|---|---|
//! | idle wait per LM round | 1 ms | 0 |
//! | `tag-serve.exec_ms_p50` | 2.29 ms | 0.88 ms |
//! | `tag-serve.batch_fallback_rounds` | 452 | 0 |
//!
//! Correctness: the simulated LM's response is a pure function of
//! (config, prompt), so batch composition never changes any answer —
//! only the shared virtual clock. Error isolation: the inner model
//! fails a whole round if any prompt oversteps the context window, so a
//! submission holding such a prompt is set aside before merging and
//! runs alone; a merged round that fails for any other reason is
//! retried per submission. Either way every request sees exactly the
//! result it would have seen serially. A panic inside the inner model
//! becomes an [`LmError::Other`] for the submissions of that round, so
//! it can neither strand the parked ones nor wedge the rounds after it.

use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tag_lm::model::{LanguageModel, LmError, LmRequest, LmResponse, LmResult};
use tag_lm::tokenizer::count_tokens;

/// One parked submission: its requests and where to wake its thread.
struct Submission {
    requests: Vec<LmRequest>,
    slot: Arc<Slot>,
}

/// What a parked submission is woken with.
enum Wake {
    /// A round carried it: its own result.
    Done(LmResult<Vec<LmResponse>>),
    /// The round in flight ended with it first in line: run these (its
    /// own submission among them) as the next round.
    Lead(Vec<Submission>),
}

/// Where a parked submission's thread waits.
struct Slot {
    wake: Mutex<Option<Wake>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            wake: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn deliver(&self, w: Wake) {
        *self.wake.lock() = Some(w);
        self.ready.notify_all();
    }

    fn wait(&self) -> Wake {
        let mut guard = self.wake.lock();
        loop {
            if let Some(w) = guard.take() {
                return w;
            }
            self.ready.wait(&mut guard);
        }
    }
}

/// Shared batching state. `pending` is non-empty only while a round is
/// in flight: whoever ends a round takes it whole.
struct State {
    pending: Vec<Submission>,
    round_in_flight: bool,
}

/// Counters describing batching effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Submissions received (one per `generate_batch` call).
    pub submissions: u64,
    /// Inference rounds sent to the inner model.
    pub rounds: u64,
    /// Rounds that merged ≥ 2 submissions (cross-request batching).
    pub cross_request_rounds: u64,
    /// Total prompts across all rounds.
    pub prompts: u64,
    /// Largest number of submissions merged into one round.
    pub max_merged_submissions: u64,
    /// Rounds that failed merged and were retried per-submission.
    pub fallback_rounds: u64,
}

impl BatchStats {
    /// One-line text rendering, used by the STATS report.
    pub fn report_line(&self) -> String {
        format!(
            "lm batching: submissions={} rounds={} cross_request_rounds={} prompts={} \
             max_merged={} fallbacks={}",
            self.submissions,
            self.rounds,
            self.cross_request_rounds,
            self.prompts,
            self.max_merged_submissions,
            self.fallback_rounds
        )
    }
}

/// A [`LanguageModel`] adapter that coalesces concurrent submissions.
pub struct BatchLm {
    inner: Arc<dyn LanguageModel>,
    state: Mutex<State>,
    submissions: AtomicU64,
    rounds: AtomicU64,
    cross_request_rounds: AtomicU64,
    prompts: AtomicU64,
    max_merged: AtomicU64,
    fallback_rounds: AtomicU64,
}

impl BatchLm {
    /// Wrap `inner`. Round size is whatever arrived while the previous
    /// round ran; the model's own cost model chunks oversized rounds.
    pub fn new(inner: Arc<dyn LanguageModel>) -> Arc<Self> {
        Arc::new(BatchLm {
            inner,
            state: Mutex::new(State {
                pending: Vec::new(),
                round_in_flight: false,
            }),
            submissions: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            cross_request_rounds: AtomicU64::new(0),
            prompts: AtomicU64::new(0),
            max_merged: AtomicU64::new(0),
            fallback_rounds: AtomicU64::new(0),
        })
    }

    /// The wrapped model.
    pub fn inner(&self) -> &Arc<dyn LanguageModel> {
        &self.inner
    }

    /// Current batching counters.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            submissions: self.submissions.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
            cross_request_rounds: self.cross_request_rounds.load(Ordering::Relaxed),
            prompts: self.prompts.load(Ordering::Relaxed),
            max_merged_submissions: self.max_merged.load(Ordering::Relaxed),
            fallback_rounds: self.fallback_rounds.load(Ordering::Relaxed),
        }
    }

    /// One round of the inner model over `requests`, carrying `merged`
    /// submissions.
    fn round(&self, merged: usize, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.prompts
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        self.max_merged.fetch_max(merged as u64, Ordering::Relaxed);
        if merged >= 2 {
            self.cross_request_rounds.fetch_add(1, Ordering::Relaxed);
        }
        self.infer(requests)
    }

    /// The inner model, with a panic turned into the error of this
    /// round: the threads parked behind it must still be woken.
    fn infer(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
        catch_unwind(AssertUnwindSafe(|| self.inner.generate_batch(requests)))
            .unwrap_or_else(|_| Err(LmError::Other("language model panicked".to_owned())))
    }

    /// Whether any prompt of `sub` oversteps the context window, which
    /// fails every round it is part of. A token is at least one byte,
    /// so only prompts longer than the window in bytes are tokenised.
    fn cannot_fit(&self, sub: &Submission) -> bool {
        let window = self.inner.context_window();
        sub.requests
            .iter()
            .any(|r| r.prompt.len() > window && count_tokens(&r.prompt) > window)
    }

    /// Run everything that parked during the previous round and wake
    /// each submission with its own result: one merged round for those
    /// that can share one, one round each for the rest.
    fn lead(&self, batch: Vec<Submission>) {
        let (mut alone, mut together): (Vec<_>, Vec<_>) =
            batch.into_iter().partition(|s| self.cannot_fit(s));
        if together.len() < 2 {
            alone.append(&mut together);
        }
        for sub in alone {
            sub.slot.deliver(Wake::Done(self.round(1, &sub.requests)));
        }
        if together.is_empty() {
            return;
        }
        let mut slots = Vec::with_capacity(together.len());
        let mut requests = Vec::new();
        for sub in together {
            slots.push((sub.slot, sub.requests.len()));
            requests.extend(sub.requests);
        }
        match self.round(slots.len(), &requests) {
            Ok(responses) => {
                let mut responses = responses.into_iter();
                for (slot, n) in slots {
                    slot.deliver(Wake::Done(Ok(responses.by_ref().take(n).collect())));
                }
            }
            Err(_) => {
                // A merged round fails as a unit: retry each submission
                // alone so every request sees exactly the result it
                // would have seen serially.
                self.fallback_rounds.fetch_add(1, Ordering::Relaxed);
                let mut rest = requests.as_slice();
                for (slot, n) in slots {
                    let (own, tail) = rest.split_at(n);
                    rest = tail;
                    self.rounds.fetch_add(1, Ordering::Relaxed);
                    slot.deliver(Wake::Done(self.infer(own)));
                }
            }
        }
    }

    /// End the round this thread ran: with nobody parked the model goes
    /// idle, otherwise leadership (and `round_in_flight`) passes to the
    /// first parked submission, whose thread runs them all.
    fn finish_round(&self) {
        let next = {
            let mut state = self.state.lock();
            if state.pending.is_empty() {
                state.round_in_flight = false;
                return;
            }
            std::mem::take(&mut state.pending)
        };
        let leader = Arc::clone(&next[0].slot);
        leader.deliver(Wake::Lead(next));
    }
}

impl LanguageModel for BatchLm {
    fn generate_batch(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        self.submissions.fetch_add(1, Ordering::Relaxed);
        let parked = {
            let mut state = self.state.lock();
            if state.round_in_flight {
                let slot = Slot::new();
                state.pending.push(Submission {
                    requests: requests.to_vec(),
                    slot: Arc::clone(&slot),
                });
                Some(slot)
            } else {
                state.round_in_flight = true;
                None
            }
        };
        let Some(slot) = parked else {
            // Nobody to batch with: the caller's slice goes straight to
            // the model.
            let result = self.round(1, requests);
            self.finish_round();
            return result;
        };
        loop {
            match slot.wait() {
                Wake::Done(result) => return result,
                Wake::Lead(batch) => {
                    self.lead(batch);
                    self.finish_round();
                }
            }
        }
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
        self.inner.usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::{Duration, Instant};

    /// Echo model whose rounds can be held at a gate and which records
    /// what each round was given. `boom` in a prompt panics the round,
    /// `bad` fails it with a non-context error, and a prompt over the
    /// window fails it the way `SimLm` does.
    struct GatedLm {
        gate: Mutex<Gate>,
        opened: Condvar,
        rounds: Mutex<Vec<Round>>,
        window: usize,
    }

    struct Gate {
        open: bool,
        held: usize,
    }

    /// One round as the model saw it.
    struct Round {
        prompts: Vec<String>,
        slice: usize,
    }

    impl GatedLm {
        fn new(open: bool) -> Arc<Self> {
            Arc::new(GatedLm {
                gate: Mutex::new(Gate { open, held: 0 }),
                opened: Condvar::new(),
                rounds: Mutex::new(Vec::new()),
                window: 64,
            })
        }

        fn release(&self) {
            self.gate.lock().open = true;
            self.opened.notify_all();
        }

        fn held(&self) -> usize {
            self.gate.lock().held
        }

        fn rounds(&self) -> Vec<Vec<String>> {
            let rounds = self.rounds.lock();
            rounds.iter().map(|r| r.prompts.clone()).collect()
        }
    }

    impl LanguageModel for GatedLm {
        fn generate_batch(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
            self.rounds.lock().push(Round {
                prompts: requests.iter().map(|r| r.prompt.clone()).collect(),
                slice: requests.as_ptr() as usize,
            });
            {
                let mut gate = self.gate.lock();
                gate.held += 1;
                while !gate.open {
                    self.opened.wait(&mut gate);
                }
                gate.held -= 1;
            }
            for r in requests {
                let prompt_tokens = count_tokens(&r.prompt);
                if prompt_tokens > self.window {
                    return Err(LmError::ContextLength {
                        prompt_tokens,
                        max_context: self.window,
                    });
                }
                assert!(!r.prompt.contains("boom"), "injected model panic");
                if r.prompt.contains("bad") {
                    return Err(LmError::Other(format!("injected: {}", r.prompt)));
                }
            }
            Ok(requests
                .iter()
                .map(|r| LmResponse {
                    text: format!("echo:{}", r.prompt),
                    prompt_tokens: 1,
                    completion_tokens: 1,
                })
                .collect())
        }
        fn elapsed_seconds(&self) -> f64 {
            0.0
        }
        fn reset_metrics(&self) {}
        fn batches(&self) -> u64 {
            self.rounds.lock().len() as u64
        }
        fn calls(&self) -> u64 {
            0
        }
        fn context_window(&self) -> usize {
            self.window
        }
    }

    /// Wait for another thread to reach a state; the states waited for
    /// here are all ones the code under test must reach.
    fn spin_until(what: &str, reached: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !reached() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::yield_now();
        }
    }

    type Texts = LmResult<Vec<String>>;

    fn submit(batch: &BatchLm, prompts: &[&str]) -> Texts {
        let requests: Vec<LmRequest> = prompts.iter().map(|p| LmRequest::new(*p)).collect();
        batch
            .generate_batch(&requests)
            .map(|out| out.into_iter().map(|r| r.text).collect())
    }

    /// Hold `first`'s round at the model's gate, park `rest` behind it
    /// one by one (so they merge in this order), then open the gate.
    /// Returns each submission's result, `first`'s first.
    fn park_behind(
        lm: &Arc<GatedLm>,
        first: &[&str],
        rest: &[&[&str]],
    ) -> (Vec<Texts>, BatchStats) {
        let batch = BatchLm::new(Arc::clone(lm) as Arc<dyn LanguageModel>);
        let results = thread::scope(|scope| {
            let mut threads = vec![scope.spawn(|| submit(&batch, first))];
            spin_until("the first round to reach the model", || lm.held() == 1);
            for (i, prompts) in rest.iter().enumerate() {
                let batch = &batch;
                threads.push(scope.spawn(move || submit(batch, prompts)));
                spin_until("a submission to park", || {
                    batch.state.lock().pending.len() == i + 1
                });
            }
            lm.release();
            threads
                .into_iter()
                .map(|t| t.join().expect("submitting thread"))
                .collect()
        });
        // Whatever the rounds did, the last one left the model idle: a
        // later call must not park behind a round that never ends.
        let state = batch.state.lock();
        assert!(!state.round_in_flight && state.pending.is_empty());
        drop(state);
        (results, batch.stats())
    }

    fn echoes(prompts: &[&str]) -> Texts {
        Ok(prompts.iter().map(|p| format!("echo:{p}")).collect())
    }

    #[test]
    fn lone_submission_goes_straight_to_the_model_on_this_thread() {
        // No other thread exists: nothing but the call itself can run
        // the round, and there is no timer to wait out.
        let lm = GatedLm::new(true);
        let batch = BatchLm::new(Arc::clone(&lm) as Arc<dyn LanguageModel>);
        let requests = [LmRequest::new("a"), LmRequest::new("b")];
        let out = batch.generate_batch(&requests).unwrap();
        assert_eq!(out[0].text, "echo:a");
        assert_eq!(out[1].text, "echo:b");
        // The caller's slice itself reached the model: no copy.
        assert_eq!(lm.rounds.lock()[0].slice, requests.as_ptr() as usize);
        let s = batch.stats();
        assert_eq!((s.submissions, s.rounds, s.prompts), (1, 1, 2));
        assert_eq!((s.cross_request_rounds, s.fallback_rounds), (0, 0));
        assert!(batch.generate_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn submissions_parked_behind_a_round_ride_the_next_one_merged() {
        let lm = GatedLm::new(false);
        let prompts: Vec<Vec<String>> = (0..8)
            .map(|t| (0..3).map(|i| format!("t{t}-{i}")).collect())
            .collect();
        let prompts: Vec<Vec<&str>> = prompts
            .iter()
            .map(|p| p.iter().map(String::as_str).collect())
            .collect();
        let rest: Vec<&[&str]> = prompts[1..].iter().map(Vec::as_slice).collect();
        let (results, stats) = park_behind(&lm, &prompts[0], &rest);
        // Every caller got its own responses, in its own order.
        for (got, sent) in results.iter().zip(&prompts) {
            assert_eq!(got, &echoes(sent));
        }
        // Exactly two rounds: the held one, then all seven together.
        let rounds = lm.rounds();
        assert_eq!(rounds.len(), 2, "{rounds:?}");
        assert_eq!(rounds[0], prompts[0]);
        assert_eq!(rounds[1], prompts[1..].concat());
        assert_eq!(stats.submissions, 8);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.prompts, 24);
        assert_eq!(stats.cross_request_rounds, 1);
        assert_eq!(stats.max_merged_submissions, 7);
        assert_eq!(stats.fallback_rounds, 0);
    }

    #[test]
    fn oversized_prompt_runs_alone_and_gets_its_own_error() {
        let lm = GatedLm::new(false);
        let oversized = "x ".repeat(100);
        // Longer than the window in bytes, but not in tokens: merged.
        let roomy = "y".repeat(100);
        let (results, stats) = park_behind(
            &lm,
            &["first"],
            &[&["fine", &roomy], &[&oversized, "dragged"], &["also fine"]],
        );
        assert_eq!(results[0], echoes(&["first"]));
        assert_eq!(results[1], echoes(&["fine", &roomy]));
        assert_eq!(
            results[2],
            Err(LmError::ContextLength {
                prompt_tokens: 100,
                max_context: 64
            })
        );
        assert_eq!(results[3], echoes(&["also fine"]));
        let rounds = lm.rounds();
        assert_eq!(rounds.len(), 3, "{rounds:?}");
        assert_eq!(rounds[1], [oversized.as_str(), "dragged"]);
        assert_eq!(rounds[2], ["fine", roomy.as_str(), "also fine"]);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.cross_request_rounds, 1);
        assert_eq!(stats.fallback_rounds, 0);
    }

    #[test]
    fn merged_round_failure_is_retried_per_submission() {
        let lm = GatedLm::new(false);
        let (results, stats) = park_behind(
            &lm,
            &["first"],
            &[&["p0", "p1"], &["q0", "bad", "q2"], &["r0"]],
        );
        assert_eq!(results[1], echoes(&["p0", "p1"]));
        assert_eq!(results[2], Err(LmError::Other("injected: bad".into())));
        assert_eq!(results[3], echoes(&["r0"]));
        // Held round, failed merged round, three retries.
        let rounds = lm.rounds();
        assert_eq!(rounds.len(), 5, "{rounds:?}");
        assert_eq!(rounds[1], ["p0", "p1", "q0", "bad", "q2", "r0"]);
        assert_eq!(rounds[3], ["q0", "bad", "q2"]);
        assert_eq!(stats.rounds, 5);
        assert_eq!(stats.fallback_rounds, 1);
    }

    #[test]
    fn failing_or_panicking_leader_never_strands_followers() {
        for (fault, error) in [
            ("boom", "language model panicked"),
            ("bad", "injected: bad"),
        ] {
            let lm = GatedLm::new(false);
            // The held leader fails; the second leader is the first
            // follower, whose merged round a third submission breaks.
            let (results, stats) = park_behind(&lm, &[fault], &[&["a"], &["b", fault], &["c"]]);
            assert_eq!(results[0], Err(LmError::Other(error.into())), "{fault}");
            assert_eq!(results[1], echoes(&["a"]), "{fault}");
            assert_eq!(results[2], Err(LmError::Other(error.into())), "{fault}");
            assert_eq!(results[3], echoes(&["c"]), "{fault}");
            assert_eq!(stats.fallback_rounds, 1, "{fault}");
        }
    }
}
