//! `TimedLm`: the language model seen from outside.
//!
//! A decorator over the program's `SimLm` that forwards every call
//! unchanged and keeps wall-clock time, round and prompt counts, and
//! (when asked) one record per call for the span tree.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;
use tag_lm::model::{LanguageModel, LmRequest, LmResponse, LmResult};
use tag_lm::sim::{SimConfig, SimLm};

/// One timed call into the model: `(start_ns, end_ns, prompts)`.
pub type LmCall = (u64, u64, u64);

pub struct TimedLm {
    inner: SimLm,
    epoch: Instant,
    busy_ns: AtomicU64,
    rounds: AtomicU64,
    prompts: AtomicU64,
    logging: AtomicBool,
    log: Mutex<Vec<LmCall>>,
}

/// Wall-clock totals since construction; statistics only, so `Relaxed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LmTotals {
    pub busy_ns: u64,
    pub rounds: u64,
    pub prompts: u64,
}

impl std::ops::Add for LmTotals {
    type Output = LmTotals;
    fn add(self, o: LmTotals) -> LmTotals {
        LmTotals {
            busy_ns: self.busy_ns + o.busy_ns,
            rounds: self.rounds + o.rounds,
            prompts: self.prompts + o.prompts,
        }
    }
}

impl std::ops::Sub for LmTotals {
    type Output = LmTotals;
    fn sub(self, o: LmTotals) -> LmTotals {
        LmTotals {
            busy_ns: self.busy_ns - o.busy_ns,
            rounds: self.rounds - o.rounds,
            prompts: self.prompts - o.prompts,
        }
    }
}

impl TimedLm {
    pub fn new(epoch: Instant) -> Self {
        TimedLm {
            inner: SimLm::new(SimConfig::default()),
            epoch,
            busy_ns: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            prompts: AtomicU64::new(0),
            logging: AtomicBool::new(false),
            log: Mutex::new(Vec::new()),
        }
    }

    pub fn totals(&self) -> LmTotals {
        LmTotals {
            busy_ns: self.busy_ns.load(Relaxed),
            rounds: self.rounds.load(Relaxed),
            prompts: self.prompts.load(Relaxed),
        }
    }

    /// Keep one record per call from now on (the traced pass).
    pub fn set_logging(&self, on: bool) {
        self.logging.store(on, Relaxed);
    }

    /// Take the call records gathered since the last take.
    pub fn take_calls(&self) -> Vec<LmCall> {
        std::mem::take(
            &mut *self
                .log
                .lock()
                .expect("no panic while holding the call log"),
        )
    }

    fn timed<T>(&self, prompts: u64, call: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = call();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(end - start, Relaxed);
        self.rounds.fetch_add(1, Relaxed);
        self.prompts.fetch_add(prompts, Relaxed);
        if self.logging.load(Relaxed) {
            self.log
                .lock()
                .expect("no panic while holding the call log")
                .push((start, end, prompts));
        }
        out
    }
}

impl LanguageModel for TimedLm {
    fn generate_batch(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
        self.timed(requests.len() as u64, || {
            self.inner.generate_batch(requests)
        })
    }

    fn generate(&self, request: &LmRequest) -> LmResult<LmResponse> {
        self.timed(1, || self.inner.generate(request))
    }

    fn elapsed_seconds(&self) -> f64 {
        self.inner.elapsed_seconds()
    }

    fn reset_metrics(&self) {
        self.inner.reset_metrics()
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

    #[test]
    fn forwards_responses_and_usage_unchanged() {
        let plain = SimLm::new(SimConfig::default());
        let timed = TimedLm::new(Instant::now());
        timed.set_logging(true);
        let batch: Vec<LmRequest> = [
            "Is Palo Alto a city located in the Silicon Valley region? Answer true or false.",
            "Summarize: the race was held in 1999 and again in 2004.",
            "What is 2 + 2?",
        ]
        .iter()
        .map(|p| LmRequest::new(*p))
        .collect();
        assert_eq!(plain.generate_batch(&batch), timed.generate_batch(&batch));
        let one = LmRequest::new("List three EU countries.").with_max_tokens(32);
        assert_eq!(plain.generate(&one), timed.generate(&one));
        assert_eq!(plain.usage(), timed.usage());
        assert_eq!(plain.context_window(), timed.context_window());
        let t = timed.totals();
        assert_eq!((t.rounds, t.prompts), (2, 4));
        assert_eq!(timed.take_calls().len(), 2);
        plain.reset_metrics();
        timed.reset_metrics();
        assert_eq!(plain.usage(), timed.usage());
    }
}
