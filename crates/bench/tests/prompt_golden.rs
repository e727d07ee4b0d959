//! Prompt golden: every prompt each method sends the LM for the 80
//! canonical questions, and every completion it gets back, pinned.
//!
//! `prompt_golden.txt` holds one line per (seed, method, question) of
//! `Harness::new(seed, Scale::default(), SimConfig::default())`:
//!
//! ```text
//! s<seed> <method> q<id> calls=<n> prompt_tokens=<n> <digest>
//! ```
//!
//! - `<method>` is `t2s`, `rag`, `rerank`, `t2s_lm` or `tag` (Table 1's
//!   five, in that order), then `tag_rules_off`: hand-written TAG with
//!   every `SemOptOptions` rule off, the only plans that reach the
//!   row-wise `sem_filter`;
//! - `calls` is the prompts the model served and `prompt_tokens` the
//!   prompt tokens its responses report;
//! - `<digest>` is an FNV-1a digest over each call in order: the
//!   prompt's length (8 bytes, little-endian) and bytes, then the
//!   completion's (or, for a failed round, the error's text).
//!
//! Blocks run seed 42 (the five methods, then `tag_rules_off`), then
//! seed 1337 (the five methods). A change that moves a prompt, a
//! completion or a call count fails here; the golden is re-pinned only
//! by a change whose purpose is to move them.

use std::sync::{Arc, Mutex};
use tag_bench::{Harness, MethodId};
use tag_datagen::Scale;
use tag_lm::model::{LanguageModel, LmRequest, LmResponse, LmResult};
use tag_lm::sim::SimConfig;
use tag_semops::SemEngine;
use tag_sql::SemOptOptions;

const GOLDEN: &str = include_str!("prompt_golden.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hash `text` with its length in front, so no two call sequences
/// concatenate to the same bytes.
fn fnv1a_text(hash: u64, text: &str) -> u64 {
    let len = (text.len() as u64).to_le_bytes();
    fnv1a(fnv1a(hash, &len), text.as_bytes())
}

/// What the model saw since the last metrics reset.
struct Log {
    digest: u64,
    calls: u64,
    prompt_tokens: u64,
}

impl Log {
    fn new() -> Log {
        Log {
            digest: FNV_OFFSET,
            calls: 0,
            prompt_tokens: 0,
        }
    }
}

/// A model that forwards to `inner` and logs every prompt, completion
/// and prompt-token count. `Harness::run_one` resets metrics before each
/// run, which starts a fresh log.
struct Recorder {
    inner: Arc<dyn LanguageModel>,
    log: Mutex<Log>,
}

impl LanguageModel for Recorder {
    fn generate_batch(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
        let result = self.inner.generate_batch(requests);
        let mut log = self.log.lock().unwrap();
        log.calls += requests.len() as u64;
        match &result {
            Ok(responses) => {
                for (request, response) in requests.iter().zip(responses) {
                    log.digest = fnv1a_text(log.digest, &request.prompt);
                    log.digest = fnv1a_text(log.digest, &response.text);
                    log.prompt_tokens += response.prompt_tokens as u64;
                }
            }
            Err(e) => {
                for request in requests {
                    log.digest = fnv1a_text(log.digest, &request.prompt);
                }
                log.digest = fnv1a_text(log.digest, &e.to_string());
            }
        }
        result
    }

    fn elapsed_seconds(&self) -> f64 {
        self.inner.elapsed_seconds()
    }

    fn reset_metrics(&self) {
        *self.log.lock().unwrap() = Log::new();
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

/// The seed's harness with every domain's model (and the semantic
/// engine over it) swapped for one shared recorder around the model the
/// harness built.
fn recorded_harness(seed: u64) -> (Harness, Arc<Recorder>) {
    let mut harness = Harness::new(seed, Scale::default(), SimConfig::default());
    let domains = domains(&harness);
    let recorder = Arc::new(Recorder {
        inner: Arc::clone(&harness.env(domains[0]).lm),
        log: Mutex::new(Log::new()),
    });
    for domain in domains {
        let env = harness.env_mut(domain);
        env.lm = recorder.clone();
        env.engine = SemEngine::new(recorder.clone());
    }
    (harness, recorder)
}

/// The harness's domains, each once.
fn domains(harness: &Harness) -> Vec<&'static str> {
    let mut domains: Vec<&'static str> = harness.queries().iter().map(|q| q.domain).collect();
    domains.sort_unstable();
    domains.dedup();
    domains
}

fn method_tag(method: MethodId) -> &'static str {
    match method {
        MethodId::Text2Sql => "t2s",
        MethodId::Rag => "rag",
        MethodId::Rerank => "rerank",
        MethodId::Text2SqlLm => "t2s_lm",
        MethodId::HandWritten => "tag",
    }
}

/// One line per question: run `method` on it and read the log.
fn block(
    seed: u64,
    tag: &str,
    method: MethodId,
    harness: &Harness,
    recorder: &Recorder,
) -> Vec<String> {
    let ids: Vec<usize> = harness.queries().iter().map(|q| q.id).collect();
    ids.into_iter()
        .map(|id| {
            harness.run_one(method, id);
            let log = recorder.log.lock().unwrap();
            format!(
                "s{seed} {tag} q{id} calls={} prompt_tokens={} {:016x}",
                log.calls, log.prompt_tokens, log.digest
            )
        })
        .collect()
}

#[test]
fn prompts_match_the_golden() {
    let mut got = Vec::new();
    for seed in [42, 1337] {
        let (harness, recorder) = recorded_harness(seed);
        for method in MethodId::all() {
            got.extend(block(seed, method_tag(method), method, &harness, &recorder));
        }
        if seed == 42 {
            for domain in domains(&harness) {
                harness.env(domain).set_sem_opt(SemOptOptions::none());
            }
            let rules_off = MethodId::HandWritten;
            got.extend(block(seed, "tag_rules_off", rules_off, &harness, &recorder));
        }
    }

    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(got.len(), want.len(), "golden line count");
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want, "prompts drifted from the golden");
    }
}
