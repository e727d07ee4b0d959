//! The semantic execution engine: batched, cached LM access.
//!
//! The paper attributes the hand-written TAG pipelines' 3.1× execution-
//! time advantage to "efficient batched inference of LMs" (§4.3). This
//! engine is where that happens: semantic operators submit whole prompt
//! batches; identical prompts are answered from a cache.
//!
//! The engine keeps engine-wide totals ([`EngineStats`]) and no
//! per-operator state. Which operator spent the LM work is answered by
//! the request's span tree: each batch records its usage on the
//! innermost open span, and every operator runs inside a span that
//! names it (`sem_filter`, `Rerank …`, `text2sql`, …).

use crate::lru::LruCache;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use tag_lm::model::{LanguageModel, LmRequest, LmResult};
use tag_trace::LmUsage;

/// Default bound on the prompt cache. Long-running serving processes
/// replay many distinct prompts; an unbounded map grows without limit.
pub const DEFAULT_PROMPT_CACHE_CAPACITY: usize = 4096;

/// Execution statistics for one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Prompts answered from cache.
    pub cache_hits: u64,
    /// Prompts sent to the model.
    pub lm_prompts: u64,
    /// Batches sent to the model.
    pub lm_batches: u64,
    /// Prompt-cache entries evicted by the LRU bound.
    pub evictions: u64,
}

impl EngineStats {
    /// Mean batch-round occupancy: prompts that reached the model per
    /// batch round, as a fraction of `batch_size`. 1.0 means every
    /// round went out full; low values mean the engine is paying
    /// per-round latency for underfilled batches. 0.0 when no batch
    /// has been sent.
    pub fn round_occupancy(&self, batch_size: usize) -> f64 {
        if self.lm_batches == 0 || batch_size == 0 {
            0.0
        } else {
            self.lm_prompts as f64 / (self.lm_batches * batch_size as u64) as f64
        }
    }
}

/// Batched + cached LM executor shared by all semantic operators.
pub struct SemEngine {
    lm: Arc<dyn LanguageModel>,
    /// Maximum prompts per LM round (further split by the model's own
    /// batching limits).
    batch_size: usize,
    cache: Mutex<LruCache<String, String>>,
    stats: Mutex<EngineStats>,
}

impl SemEngine {
    /// Wrap a model with the default batch size.
    pub fn new(lm: Arc<dyn LanguageModel>) -> Self {
        Self::with_batch_size(lm, 64)
    }

    /// Wrap a model with an explicit batch size (ablation hook).
    pub fn with_batch_size(lm: Arc<dyn LanguageModel>, batch_size: usize) -> Self {
        Self::with_batch_size_and_cache(lm, batch_size, DEFAULT_PROMPT_CACHE_CAPACITY)
    }

    /// Wrap a model with explicit batch size and prompt-cache bound.
    pub fn with_batch_size_and_cache(
        lm: Arc<dyn LanguageModel>,
        batch_size: usize,
        cache_capacity: usize,
    ) -> Self {
        SemEngine {
            lm,
            batch_size: batch_size.max(1),
            cache: Mutex::new(LruCache::new(cache_capacity)),
            stats: Mutex::new(EngineStats::default()),
        }
    }

    /// The wrapped model.
    pub fn lm(&self) -> &Arc<dyn LanguageModel> {
        &self.lm
    }

    /// Current statistics (evictions read live from the cache).
    pub fn stats(&self) -> EngineStats {
        let mut s = *self.stats.lock();
        s.evictions = self.cache.lock().evictions();
        s
    }

    /// Mean batch-round occupancy so far (see
    /// [`EngineStats::round_occupancy`]).
    pub fn round_occupancy(&self) -> f64 {
        self.stats().round_occupancy(self.batch_size)
    }

    /// Clear cache and statistics.
    pub fn reset(&self) {
        self.cache.lock().clear();
        *self.stats.lock() = EngineStats::default();
    }

    /// Complete a batch of prompts, deduplicating against the cache and
    /// batching the misses. When a trace is installed the work — model
    /// calls, rounds, cache hits, tokens and virtual time — is recorded
    /// on the innermost open span, which names the operator; partial
    /// work is recorded too when a later round fails. The usage is
    /// counted per call, so it stays exact under concurrent engine use
    /// (unlike deltas of the shared totals).
    pub fn complete_batch(&self, prompts: &[String]) -> LmResult<Vec<String>> {
        let mut usage = LmUsage::default();
        if !tag_trace::is_active() {
            return self.complete_batch_inner(prompts, &mut usage);
        }
        let clock_before = self.lm.usage().0;
        let result = self.complete_batch_inner(prompts, &mut usage);
        usage.virtual_seconds = (self.lm.usage().0 - clock_before).max(0.0);
        tag_trace::record_lm(usage);
        result
    }

    fn complete_batch_inner(
        &self,
        prompts: &[String],
        usage: &mut LmUsage,
    ) -> LmResult<Vec<String>> {
        let mut results: Vec<Option<String>> = vec![None; prompts.len()];
        let mut misses: Vec<usize> = Vec::new();
        {
            let mut cache = self.cache.lock();
            for (i, p) in prompts.iter().enumerate() {
                if let Some(hit) = cache.get(p) {
                    results[i] = Some(hit.clone());
                } else {
                    misses.push(i);
                }
            }
        }
        usage.cache_hits = (prompts.len() - misses.len()) as u64;
        self.stats.lock().cache_hits += usage.cache_hits;
        // Dedup identical prompts within the miss set too.
        let mut unique: Vec<usize> = Vec::new();
        let mut assign: HashMap<&str, usize> = HashMap::new();
        for &i in &misses {
            let p = prompts[i].as_str();
            if !assign.contains_key(p) {
                assign.insert(p, unique.len());
                unique.push(i);
            }
        }
        for chunk in unique.chunks(self.batch_size) {
            let requests: Vec<LmRequest> = chunk
                .iter()
                .map(|&i| LmRequest::new(prompts[i].clone()))
                .collect();
            let responses = self.lm.generate_batch(&requests)?;
            usage.calls += requests.len() as u64;
            usage.rounds += 1;
            for r in &responses {
                usage.prompt_tokens += r.prompt_tokens as u64;
                usage.completion_tokens += r.completion_tokens as u64;
            }
            let mut stats = self.stats.lock();
            stats.lm_prompts += requests.len() as u64;
            stats.lm_batches += 1;
            drop(stats);
            // Fill results directly from the responses — the bounded
            // cache may evict an entry before any readback could see it.
            let mut cache = self.cache.lock();
            for (&i, r) in chunk.iter().zip(responses) {
                results[i] = Some(r.text.clone());
                cache.insert(prompts[i].clone(), r.text);
            }
        }
        // Duplicate misses copy their representative's response.
        for &i in &misses {
            if results[i].is_none() {
                let rep = unique[assign[prompts[i].as_str()]];
                results[i] = results[rep].clone();
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every prompt resolved"))
            .collect())
    }

    /// Complete one prompt (cached); see [`SemEngine::complete_batch`].
    pub fn complete(&self, prompt: &str) -> LmResult<String> {
        Ok(self
            .complete_batch(std::slice::from_ref(&prompt.to_owned()))?
            .pop()
            .expect("one prompt yields one result"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tag_lm::model::{LmError, LmResponse};

    /// A counting fake model for engine tests.
    struct EchoLm {
        calls: Mutex<u64>,
        batches: Mutex<u64>,
    }

    impl EchoLm {
        fn new() -> Self {
            EchoLm {
                calls: Mutex::new(0),
                batches: Mutex::new(0),
            }
        }
    }

    impl LanguageModel for EchoLm {
        fn generate_batch(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
            *self.calls.lock() += requests.len() as u64;
            *self.batches.lock() += 1;
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
            *self.batches.lock()
        }
        fn calls(&self) -> u64 {
            *self.calls.lock()
        }
        fn context_window(&self) -> usize {
            8192
        }
    }

    #[test]
    fn caching_deduplicates() {
        let lm = Arc::new(EchoLm::new());
        let engine = SemEngine::new(lm.clone());
        let prompts: Vec<String> = vec!["a".into(), "b".into(), "a".into(), "a".into()];
        let out = engine.complete_batch(&prompts).unwrap();
        assert_eq!(out, vec!["echo:a", "echo:b", "echo:a", "echo:a"]);
        assert_eq!(lm.calls(), 2, "only unique prompts hit the model");
        // Second round: fully cached.
        engine.complete_batch(&prompts).unwrap();
        assert_eq!(lm.calls(), 2);
        let stats = engine.stats();
        assert_eq!(stats.lm_prompts, 2);
        assert!(stats.cache_hits >= 4);
    }

    #[test]
    fn batch_size_splits_rounds() {
        let lm = Arc::new(EchoLm::new());
        let engine = SemEngine::with_batch_size(lm.clone(), 4);
        let prompts: Vec<String> = (0..10).map(|i| format!("p{i}")).collect();
        engine.complete_batch(&prompts).unwrap();
        assert_eq!(lm.batches(), 3); // 4 + 4 + 2
        assert_eq!(lm.calls(), 10);
    }

    #[test]
    fn reset_clears_cache() {
        let lm = Arc::new(EchoLm::new());
        let engine = SemEngine::new(lm.clone());
        engine.complete("x").unwrap();
        engine.reset();
        engine.complete("x").unwrap();
        assert_eq!(lm.calls(), 2);
    }

    #[test]
    fn bounded_cache_evicts_and_stays_correct() {
        let lm = Arc::new(EchoLm::new());
        // Capacity 2 is smaller than the 5-prompt batch: the first
        // responses are evicted before the batch finishes.
        let engine = SemEngine::with_batch_size_and_cache(lm.clone(), 64, 2);
        let prompts: Vec<String> = (0..5).map(|i| format!("p{i}")).collect();
        let out = engine.complete_batch(&prompts).unwrap();
        let expect: Vec<String> = (0..5).map(|i| format!("echo:p{i}")).collect();
        assert_eq!(out, expect, "results survive mid-batch eviction");
        assert!(engine.stats().evictions >= 3);
        // An evicted prompt goes back to the model; a cached one does not.
        let before = lm.calls();
        engine.complete("p0").unwrap(); // evicted long ago
        assert_eq!(lm.calls(), before + 1);
        engine.complete("p4").unwrap(); // most recent, still cached
        assert_eq!(lm.calls(), before + 1);
    }

    #[test]
    fn duplicate_misses_resolve_without_cache() {
        let lm = Arc::new(EchoLm::new());
        let engine = SemEngine::with_batch_size_and_cache(lm.clone(), 64, 1);
        let prompts: Vec<String> = vec!["x".into(), "y".into(), "x".into(), "y".into(), "x".into()];
        let out = engine.complete_batch(&prompts).unwrap();
        assert_eq!(out, vec!["echo:x", "echo:y", "echo:x", "echo:y", "echo:x"]);
        assert_eq!(lm.calls(), 2, "duplicates never hit the model");
    }

    /// Run `f` under a fresh trace and return its spans.
    fn traced(f: impl FnOnce()) -> Vec<tag_trace::SpanRecord> {
        let (trace, sink) = tag_trace::Trace::memory();
        tag_trace::with_trace(&trace, f);
        sink.take()
    }

    /// `(label, calls, cache_hits)` of every span, in close order.
    fn usage_by_label(spans: &[tag_trace::SpanRecord]) -> Vec<(&str, u64, u64)> {
        spans
            .iter()
            .map(|s| (s.label.as_str(), s.lm.calls, s.lm.cache_hits))
            .collect()
    }

    #[test]
    fn per_op_counters_attribute_work() {
        let lm = Arc::new(EchoLm::new());
        let engine = SemEngine::new(lm);
        let spans = traced(|| {
            {
                let _span = tag_trace::span(tag_trace::Stage::Exec, "sem_filter");
                engine
                    .complete_batch(&["a".into(), "b".into(), "a".into()])
                    .unwrap();
                engine.complete_batch(&["a".into()]).unwrap();
            }
            let _span = tag_trace::span(tag_trace::Stage::Exec, "sem_topk");
            engine.complete("rank it").unwrap();
        });
        // "a" deduped, "b" fresh; in-batch duplicates are deduped without
        // touching the cache, so only the second call's "a" is a hit.
        assert_eq!(
            usage_by_label(&spans),
            vec![("sem_filter", 2, 1), ("sem_topk", 1, 0)]
        );
        // The engine-wide totals are the sum over the operators' spans.
        let agg = engine.stats();
        assert_eq!(
            agg.lm_prompts,
            spans.iter().map(|s| s.lm.calls).sum::<u64>()
        );
        assert_eq!(
            agg.cache_hits,
            spans.iter().map(|s| s.lm.cache_hits).sum::<u64>()
        );
    }

    #[test]
    fn token_counters_track_model_work_only() {
        let lm = Arc::new(EchoLm::new());
        let engine = SemEngine::new(lm);
        let spans = traced(|| {
            let _span = tag_trace::span(tag_trace::Stage::Exec, "sem_filter");
            engine
                .complete_batch(&["a".into(), "b".into(), "a".into()])
                .unwrap();
            // Fully cached second round: token counters must not move.
            engine.complete_batch(&["a".into(), "b".into()]).unwrap();
        });
        assert_eq!(spans[0].lm.prompt_tokens, 2, "EchoLm meters 1 token/prompt");
        assert_eq!(spans[0].lm.completion_tokens, 2);
        assert_eq!(spans[0].lm.cache_hits, 2);
    }

    #[test]
    fn traced_batch_records_usage_on_current_span() {
        let lm = Arc::new(EchoLm::new());
        let engine = SemEngine::new(lm);
        let spans = traced(|| {
            {
                let _span = tag_trace::span(tag_trace::Stage::Exec, "filter");
                engine
                    .complete_batch(&["a".into(), "b".into(), "a".into()])
                    .unwrap();
            }
            let _span = tag_trace::span(tag_trace::Stage::Exec, "again");
            engine.complete_batch(&["a".into(), "c".into()]).unwrap();
        });
        assert_eq!(spans.len(), 2);
        let first = spans[0].lm;
        assert_eq!(first.calls, 2);
        assert_eq!(first.rounds, 1);
        assert_eq!(first.cache_hits, 0, "in-batch dup is not a cache hit");
        assert_eq!(first.prompt_tokens, 2, "EchoLm meters 1 token/prompt");
        assert_eq!(first.completion_tokens, 2);
        let second = spans[1].lm;
        assert_eq!((second.calls, second.rounds), (1, 1), "only c is new");
        assert_eq!(second.cache_hits, 1, "a was answered by the first call");
        assert_eq!(second.prompt_tokens, 1);
    }

    #[test]
    fn untraced_batch_records_nothing() {
        // Identical call with no trace installed: only counters move.
        let lm = Arc::new(EchoLm::new());
        let engine = SemEngine::new(lm);
        let out = engine.complete_batch(&["a".into(), "b".into()]).unwrap();
        assert_eq!(out, vec!["echo:a", "echo:b"]);
        assert!(!tag_trace::is_active());
        assert_eq!(engine.stats().lm_prompts, 2);
    }

    #[test]
    fn errors_propagate() {
        struct FailLm;
        impl LanguageModel for FailLm {
            fn generate_batch(&self, _: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
                Err(LmError::Other("down".into()))
            }
            fn elapsed_seconds(&self) -> f64 {
                0.0
            }
            fn reset_metrics(&self) {}
            fn batches(&self) -> u64 {
                0
            }
            fn calls(&self) -> u64 {
                0
            }
            fn context_window(&self) -> usize {
                0
            }
        }
        let engine = SemEngine::new(Arc::new(FailLm));
        assert!(engine.complete("x").is_err());
    }

    #[test]
    fn round_occupancy_tracks_batch_fill() {
        let stats = EngineStats {
            lm_prompts: 96,
            lm_batches: 2,
            ..EngineStats::default()
        };
        assert_eq!(stats.round_occupancy(64), 0.75);
        assert_eq!(EngineStats::default().round_occupancy(64), 0.0);
        assert_eq!(stats.round_occupancy(0), 0.0);

        // Live engine: 3 distinct prompts with batch size 2 → two
        // rounds (2 + 1) → 3 / 4 occupancy.
        let engine = SemEngine::with_batch_size(Arc::new(EchoLm::new()), 2);
        engine
            .complete_batch(&["a".into(), "b".into(), "c".into()])
            .unwrap();
        assert_eq!(engine.round_occupancy(), 0.75);
    }
}
