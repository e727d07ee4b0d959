//! Plan golden: the `EXPLAIN SEMPLAN` and `EXPLAIN VERIFY` text of every
//! plan the verifier sweep (`verify_sweep.rs`) enumerates, pinned.
//!
//! `plan_golden.txt` holds one line per (question, rule set, family) of
//! `Harness::small()`, 80 × 8 × 3 = 1,920 in all:
//!
//! ```text
//! q<id> <rules> <family> <digest>
//! ```
//!
//! - `<rules>` is `SemOptOptions::cache_tag` (`p0d0c0` … `p1d1c1`);
//! - `<family>` is `handwritten`, `rag` or `rerank`;
//! - `<digest>` is an FNV-1a digest over the planned plan's `explain()`
//!   text, then its `verify_report_text` against the naive plan and the
//!   domain's catalog, each with its length (8 bytes, little-endian) in
//!   front.
//!
//! A change that moves a label, an indent, a stage tag, a verdict or a
//! static bound fails here, and the failure prints both texts of the
//! first plan that moved. The golden is re-pinned only by a change whose
//! purpose is to move them.

use tag_bench::{Harness, QueryType};
use tag_core::{compile_nlq, compile_rag, compile_rerank, nlq_reads};
use tag_sql::{plan_sem, verify_report_text, SemOptOptions, SemReads};

const GOLDEN: &str = include_str!("plan_golden.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hash `text` with its length in front, so no two text pairs
/// concatenate to the same bytes.
fn fnv1a_text(hash: u64, text: &str) -> u64 {
    let len = (text.len() as u64).to_le_bytes();
    fnv1a(fnv1a(hash, &len), text.as_bytes())
}

/// All 8 rewrite-rule combinations, in `verify_sweep.rs`'s order.
fn all_opts() -> impl Iterator<Item = SemOptOptions> {
    (0..8u8).map(|bits| SemOptOptions {
        pushdown: bits & 4 != 0,
        distinct_rewrite: bits & 2 != 0,
        precut: bits & 1 != 0,
    })
}

#[test]
fn plans_match_the_golden() {
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let harness = Harness::small();
    let mut got = 0;
    for q in harness.queries() {
        let catalog = harness.env(q.domain).db.catalog();
        let question = q.question();
        let list = q.qtype != QueryType::Aggregation;
        let rerank = compile_rerank(&question, 30, 10, list);
        let families = [
            ("handwritten", compile_nlq(&q.query), nlq_reads(&q.query)),
            ("rag", compile_rag(&question, 10, list), SemReads::All),
            ("rerank", rerank, SemReads::All),
        ];
        for opts in all_opts() {
            for (family, naive, reads) in &families {
                let planned = plan_sem(naive.clone(), reads, &opts, catalog);
                let explain = planned.explain();
                let verify = verify_report_text(naive, &planned, &opts, Some(catalog));
                let digest = fnv1a_text(fnv1a_text(FNV_OFFSET, &explain), &verify);
                let line = format!("q{} {} {family} {digest:016x}", q.id, opts.cache_tag());
                assert_eq!(
                    Some(&line.as_str()),
                    want.get(got),
                    "plan text drifted from the golden\nEXPLAIN SEMPLAN:\n{explain}EXPLAIN VERIFY:\n{verify}"
                );
                got += 1;
            }
        }
    }
    assert_eq!(got, 1920, "80 questions x 8 rule combinations x 3 families");
    assert_eq!(got, want.len(), "golden line count");
}
