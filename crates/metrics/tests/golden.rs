//! Byte-stable golden test for the Prometheus exposition format.
//!
//! The hub is built on a mock clock with a fixed set of instruments,
//! observations, exemplars, and collector samples; the rendered text
//! must match `tests/golden_expo.txt` byte for byte. Any intentional
//! format change must update the golden file in the same commit.

use std::time::Duration;
use tag_metrics::{Clock, MetricsHub, MockClock, Sample};

fn build_hub() -> (MetricsHub, MockClock) {
    let (clock, handle) = Clock::mock();
    let hub = MetricsHub::with_clock(clock);

    let ok = hub.counter(
        "tag_serve_requests_total",
        "Requests by outcome.",
        &[("outcome", "ok")],
    );
    ok.add(3);
    let err = hub.counter(
        "tag_serve_requests_total",
        "Requests by outcome.",
        &[("outcome", "err")],
    );
    err.inc();

    let occ = hub.gauge(
        "tag_semops_round_occupancy",
        "Prompts per LM batch round over the configured batch size.",
        &[("domain", "bird_f1")],
    );
    occ.set(0.75);

    let stage = hub.histogram(
        "tag_serve_stage_seconds",
        "Per-stage wall time.",
        &[("stage", "exec")],
    );
    stage.observe(Duration::from_millis(2));
    stage.observe(Duration::from_millis(2));
    stage.observe_with_exemplar(Duration::from_millis(250), 42);
    stage.observe_with_exemplar(Duration::from_secs(30), 43);

    // Collector samples as the server registers them: answer-cache
    // traffic carries its internal cache-shard index, the LM batcher's
    // counters carry no label.
    hub.register_collector(|out| {
        for (shard, hits) in [("0", 2u64), ("1", 7)] {
            out.push(Sample::counter(
                "tag_serve_answer_cache_total",
                "Answer-cache lookups and evictions by event and cache shard.",
                &[("event", "hit"), ("shard", shard)],
                hits,
            ));
        }
        out.push(Sample::gauge(
            "tag_serve_answer_cache_entries",
            "Answer-cache resident entries per cache shard.",
            &[("shard", "1")],
            128.0,
        ));
        out.push(Sample::counter(
            "tag_lm_batch_fallback_rounds_total",
            "Merged rounds that failed as a unit and were retried one submission at a time.",
            &[],
            4,
        ));
    });

    hub.register_collector(|out| {
        out.push(Sample::counter(
            "tag_embed_retrieval_probes_total",
            "Retrieval probes served.",
            &[("domain", "bird_f1")],
            5,
        ));
        out.push(Sample::counter(
            "tag_embed_retrieval_probes_total",
            "Retrieval probes served.",
            &[("domain", "bird_codebase")],
            2,
        ));
    });

    (hub, handle)
}

#[test]
fn exposition_is_byte_stable() {
    let (hub, handle) = build_hub();
    // Observations landed in second 0; scrape five seconds later so
    // both rolling windows still cover them.
    handle.set_millis(5_000);
    let actual = hub.render();
    // Regenerate with:
    //   TAG_METRICS_UPDATE_GOLDEN=1 cargo test -p tag-metrics --test golden
    if std::env::var_os("TAG_METRICS_UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_expo.txt");
        std::fs::write(path, &actual).expect("write golden file");
        return;
    }
    let expected = include_str!("golden_expo.txt");
    assert_eq!(
        actual, expected,
        "exposition format drifted from tests/golden_expo.txt;\n\
         if the change is intentional, update the golden file"
    );
}

#[test]
fn render_is_idempotent() {
    let (hub, handle) = build_hub();
    handle.set_millis(5_000);
    assert_eq!(hub.render(), hub.render());
}
